"""The harness memo against the un-memoized grid loop.

``oracle_grid_cell`` is the grid loop from before the memo: every ordering
draws its own calibration sets, runs ``prune_step`` at every step and
evaluates every cell with ``perplexity``. Swapped in for
``harness.run_grid_cell``, it must give byte-identical output files.
``sha256`` hashes every parameter byte of a network, against which the
memo's zero-pattern key is pinned.
"""
from __future__ import annotations

import hashlib
import json
import weakref
from pathlib import Path

import numpy as np

import pytest

from contprune import harness as H
from contprune import model as M
from contprune import pruner as P
from contprune.corpus import permutations, sample_calibration
from contprune.errors import NumericalError
from contprune.importance import init_state
from contprune.metrics import EvalCell, aggregate, perplexity
from contprune.pruner import prune_step
from contprune.seeding import derive_seed

CORPORA = ("bracket", "numeric", "prose")


def sha256(net) -> bytes:
    """sha256 of the network's layer kinds, parameter shapes and bytes."""
    h = hashlib.sha256(repr([(layer.kind, layer.activation_kind) for layer in net.layers]).encode())
    params = [net.embed, *(p for layer in net.layers for p in (layer.weight, layer.gain, layer.bias)
                           if p is not None)]
    for p in params:
        h.update(repr(p.shape).encode())
        h.update(np.ascontiguousarray(p))
    return h.digest()


def oracle_grid_cell(cfg, base, corpora, criterion, spec, n_samples) -> dict:
    calib_sets = {
        name: sample_calibration(corpus, n_samples, cfg.seq_len, derive_seed(cfg.seed, "calib", name))
        for name, corpus in corpora.items()
    }
    names = sorted(corpora)
    pconfig = H._prune_config(cfg, criterion, spec)

    cells, completed, ws_perms, step_stats, errors = [], [], [], [], []
    for pi in permutations(names):
        perm_cells, perm_stats = [], []
        try:
            current = base.copy()
            state = init_state(base) if criterion == "sensitivity" else None
            prev_masks = None
            transitions_stasis = []
            for step, ds_name in enumerate(pi, start=1):
                if criterion == "sensitivity" and pconfig.init_mode == "global":
                    state = init_state(base)
                current, masks, frag = prune_step(
                    current, state, pconfig, calib_sets[ds_name], base_net=base
                )
                hamming_total = None
                if prev_masks is not None:
                    per_layer = [int(np.sum(prev_masks[i] != masks[i])) for i in sorted(masks)]
                    hamming_total = sum(per_layer)
                    transitions_stasis.append(all(h == 0 for h in per_layer))
                prev_masks = masks
                perm_stats.append({
                    "permutation": ">".join(pi),
                    "step": step,
                    "pruned_dataset": ds_name,
                    "overall_sparsity": frag["overall_sparsity"],
                    "hamming_vs_prev": hamming_total,
                })
                for ds in names:
                    perm_cells.append(EvalCell(
                        permutation=pi, step=step, eval_dataset=ds,
                        perplexity=perplexity(current, corpora[ds], cfg.seq_len),
                    ))
        except Exception as exc:
            errors.append({"permutation": ">".join(pi), "error": f"{type(exc).__name__}: {exc}"})
            continue
        cells += perm_cells
        step_stats += perm_stats
        completed.append(pi)
        if transitions_stasis and all(transitions_stasis):
            ws_perms.append(">".join(pi))
    return {
        "criterion": criterion,
        "spec": pconfig.spec_label(),
        "ws": bool(completed) and len(ws_perms) == len(completed),
        "ws_permutations": ws_perms,
        "report": aggregate(cells, completed, names) if completed else None,
        "step_stats": step_stats,
        "errors": errors,
        "complete": not errors,
    }


@pytest.fixture()
def three_corpora(tiny_dir, tiny_model_path):
    return dict(
        model_path=str(tiny_model_path),
        corpora={n: str(tiny_dir / f"{n}.bin") for n in CORPORA},
        seed=5,
        seq_len=48,
        n_samples=4,
    )


def run_both(monkeypatch, tmp_path, run):
    """``run(output_dir)`` with the memo, then with the oracle loop; the
    bytes of every file each wrote, by name."""
    written = []
    for side in ("memo", "oracle"):
        if side == "oracle":
            monkeypatch.setattr(
                H, "run_grid_cell",
                lambda memo, *args: oracle_grid_cell(memo.cfg, memo.base, memo.corpora, *args),
            )
        out = tmp_path / side
        run(str(out))
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    return written


@pytest.mark.parametrize("init_mode", [None, "sequential", "global"])
def test_grid_files_byte_identical_to_unmemoized_loop(three_corpora, tmp_path, monkeypatch, init_mode):
    def run(output_dir):
        H.run_continual(H.ExperimentConfig(
            **three_corpora, output_dir=output_dir, criteria=("sensitivity", "magnitude", "wanda"),
            sparsities=(0.5,), nm_patterns=((2, 4),), w_draws=2, init_mode_override=init_mode,
        ))

    memo, oracle = run_both(monkeypatch, tmp_path, run)
    assert len(memo) == 9  # grid.json, table.txt, table.csv, six cells CSVs
    assert memo == oracle


def test_ablation_csvs_byte_identical_to_unmemoized_loop(three_corpora, tmp_path, monkeypatch):
    def run(output_dir):
        cfg = H.ExperimentConfig(
            **three_corpora, output_dir=output_dir, criteria=("sensitivity", "wanda"),
            sparsity_sweep=(0.3, 0.5), samples_sweep=(2, 4),
            ablate_criteria=("sensitivity", "magnitude"),
        )
        H.run_ablation_sparsity(cfg)
        H.run_ablation_samples(cfg)

    memo, oracle = run_both(monkeypatch, tmp_path, run)
    assert sorted(memo) == ["ablation_samples.csv", "ablation_sparsity.csv"]
    assert memo == oracle


def counting(monkeypatch, name):
    """Replace ``harness.<name>`` by a wrapper; returns the list of calls' args."""
    real, calls = getattr(H, name), []

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(H, name, wrapper)
    return calls


def recording(monkeypatch, name):
    """Replace ``harness.<name>`` by a wrapper; returns the list of calls'
    ``(args, result)``, which keeps alive what a finished ``Step`` lets go."""
    real, calls = getattr(H, name), []

    def wrapper(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(H, name, wrapper)
    return calls


def loaded_memos(monkeypatch):
    """Replace ``harness._load_inputs`` by a wrapper; returns the list of the
    memos it made."""
    real, memos = H._load_inputs, []

    def load(*args):
        memos.append(real(*args))
        return memos[-1]

    monkeypatch.setattr(H, "_load_inputs", load)
    return memos


def test_scores_and_perplexities_computed_once(three_corpora, tmp_path, monkeypatch):
    scores = counting(monkeypatch, "score_step")
    evals = counting(monkeypatch, "perplexities")
    cfg = H.ExperimentConfig(**three_corpora, output_dir=str(tmp_path / "runs"))
    out = H.run_continual(cfg)
    assert all(g["complete"] for g in out["grids"].values())
    # un-memoized: 3 criteria x 6 orderings x 3 steps = 54 prune steps and
    # 54 x 3 + 3 dense = 165 evaluations. Memoized, every criterion scores
    # the base once per count vector: the baselines once per corpus, and
    # sensitivity once per non-empty set of corpora (7). Each distinct
    # network is evaluated once, on all 3 corpora from one vocabulary table:
    # the base; magnitude prunes it to one network whatever the corpus, wanda
    # to one per corpus, and sensitivity to one per set of corpora seen (7),
    # so 12 tables give the 3 * 12 = 36 distinct values.
    assert len(scores) == 3 + 3 + 7
    assert len(evals) == 1 + 1 + 3 + 7
    assert len({sha256(net) for net, _, _ in evals}) == len(evals)
    assert all(sorted(corpora) == list(CORPORA) for _, corpora, _ in evals)


@pytest.mark.parametrize(
    "init_mode, want, want_scored",
    [
        # sensitivity runs sequentially: one step per set of datasets seen,
        # 3 + 3 + 1, each scoring the base; the baselines run globally: one
        # step per dataset, each scoring the base
        (None, {"sensitivity": 7, "magnitude": 3, "wanda": 3},
         {"sensitivity": 7, "magnitude": 3, "wanda": 3}),
        # a sequential baseline: one step per ordering prefix, 3 + 6 + 6. It
        # freezes, so a later step scores its ordering's first-step network:
        # magnitude's is one network whatever the corpus, scored with each
        # corpus (3 + 3); wanda's one per corpus, scored with each other
        # corpus (3 + 3 * 2)
        ("sequential", {"sensitivity": 7, "magnitude": 15, "wanda": 15},
         {"sensitivity": 7, "magnitude": 6, "wanda": 9}),
        ("global", {"sensitivity": 3, "magnitude": 3, "wanda": 3},
         {"sensitivity": 3, "magnitude": 3, "wanda": 3}),
    ],
    ids=["default", "sequential", "global"],
)
def test_each_distinct_step_is_masked_once(three_corpora, tmp_path, monkeypatch, init_mode, want,
                                           want_scored):
    pruned = counting(monkeypatch, "prune_step")
    scored = counting(monkeypatch, "score_step")
    cfg = H.ExperimentConfig(**three_corpora, output_dir=str(tmp_path / "runs"),
                             init_mode_override=init_mode)
    out = H.run_continual(cfg)
    assert all(g["complete"] for g in out["grids"].values())
    # un-memoized: 3 criteria x 6 orderings x 3 steps = 54 prune steps
    got = {c: sum(args[2].criterion == c for args in pruned) for c in want}
    assert got == want
    # a step scores through the memo: each (network, counts) key once
    got = {c: sum(config.criterion == c for _, config, _ in scored) for c in want_scored}
    assert got == want_scored


@pytest.mark.parametrize("init_mode", ["sequential", "global"])
def test_each_step_hangs_off_an_untouched_parent(three_corpora, monkeypatch, init_mode):
    cfg = H.ExperimentConfig(**three_corpora, init_mode_override=init_mode)
    memo = H._load_inputs(cfg, [("sensitivity", 0.5, cfg.n_samples)])
    real, steps = H._prune_and_evaluate, []
    pruned = recording(monkeypatch, "prune_step")  # the networks the steps let go

    def step_recording(memo, parent, pconfig, calib):
        step = real(memo, parent, pconfig, calib)
        steps.append((parent, pconfig, calib, step, pruned[-1][1][0]))
        return step

    monkeypatch.setattr(H, "_prune_and_evaluate", step_recording)
    assert H.run_grid_cell(memo, "sensitivity", 0.5, cfg.n_samples)["complete"]
    assert len(steps) == (7 if init_mode == "sequential" else 3)
    root = steps[0][0]
    assert root[:4] == (memo.base, None, None, None)
    for parent, pconfig, calib, step, net in steps:
        again = real(memo, parent, pconfig, calib)
        assert sha256(pruned[-1][1][0]) == sha256(net)
        assert all(np.array_equal(again[1][i], m) for i, m in step[1].items())
        assert again[2:4] == step[2:4]
        for state in (again[4], step[4]):
            assert np.array_equal(state.counts, step[4].counts)
            assert (state.datasets_seen, state.sample_count) == (step[4].datasets_seen,
                                                                 step[4].sample_count)
        # the parent's state is as the parent's own step left it
        seen = [calib.corpus_name]
        if init_mode == "sequential":
            seen = parent[4].datasets_seen + seen
        else:
            assert parent is root
        assert step[4].datasets_seen == seen
    assert root[4].datasets_seen == [] and root[4].sample_count == {}
    assert not root[4].counts.any()


def test_a_step_is_built_while_only_its_ancestors_are_held(three_corpora, monkeypatch):
    # the sequential table drops the steps off each new ordering's path, and
    # nothing else may hold them: the next ordering's steps are built without them
    cfg = H.ExperimentConfig(**three_corpora, init_mode_override="sequential")
    memo = H._load_inputs(cfg, [("magnitude", 0.5, cfg.n_samples)])
    real, nets, alive = H._prune_and_evaluate, [], []

    def recording(memo, parent, pconfig, calib):
        alive.append(sum(ref() is not None for ref in nets))
        step = real(memo, parent, pconfig, calib)
        nets.append(weakref.ref(step.net))
        return step

    monkeypatch.setattr(H, "_prune_and_evaluate", recording)
    assert H.run_grid_cell(memo, "magnitude", 0.5, cfg.n_samples)["complete"]
    assert len(alive) == 15 and max(alive) == len(CORPORA) - 1


@pytest.mark.parametrize("criterion, init_mode, kept", [
    ("sensitivity", None, False),  # scores the base with every set of datasets seen
    ("sensitivity", "global", False),
    ("wanda", None, False),  # global: scores the base with each dataset
    ("magnitude", "sequential", True),  # the next step scores this one's network
])
def test_a_step_keeps_its_network_only_while_a_later_step_scores_it(
    three_corpora, monkeypatch, criterion, init_mode, kept
):
    cfg = H.ExperimentConfig(**three_corpora, init_mode_override=init_mode)
    memo = H._load_inputs(cfg, [(criterion, 0.5, cfg.n_samples)])
    real_prune, real_step, nets, alive, parents = H.prune_step, H._prune_and_evaluate, [], [], []

    def prune(*args):
        result = real_prune(*args)
        nets.append(weakref.ref(result[0]))
        return result

    def step(memo, parent, pconfig, calib):
        # a child is built from its parent's live network, or from the base
        parents.append("base" if parent.net is memo.base else "none" if parent.net is None
                       else "live" if any(parent.net is ref() for ref in nets) else "other")
        result = real_step(memo, parent, pconfig, calib)
        alive.append(nets[-1]() is not None)  # once its perplexities are taken
        return result

    monkeypatch.setattr(H, "prune_step", prune)
    monkeypatch.setattr(H, "_prune_and_evaluate", step)
    assert H.run_grid_cell(memo, criterion, 0.5, cfg.n_samples)["complete"]
    assert alive == [kept] * len(alive)
    assert parents.count("base") == len(CORPORA)
    assert parents.count("live" if kept else "none") == len(alive) - len(CORPORA)


def held_arrays(memo) -> list[np.ndarray]:
    """Every array the memo holds beyond its inputs: the base network, the
    corpora and the calibration sets."""
    found, todo = [], [v for k, v in vars(memo).items()
                       if k not in ("cfg", "base", "corpora", "_calib")]
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, dict):
            todo += [*item.keys(), *item.values()]
        elif isinstance(item, (list, tuple)):
            todo += list(item)
    return found


def only_masks(arrays) -> bool:
    return bool(arrays) and all(a.dtype == np.uint8 for a in arrays)


def test_score_sets_leave_the_memo_after_their_groups_last_run(three_corpora, tmp_path,
                                                                 monkeypatch):
    memos = loaded_memos(monkeypatch)
    real, held = H.run_grid_cell, []

    def cell(memo, criterion, spec, n_samples):
        entry = real(memo, criterion, spec, n_samples)
        held.append(only_masks(held_arrays(memo)))
        return entry

    monkeypatch.setattr(H, "run_grid_cell", cell)
    out = H.run_continual(H.ExperimentConfig(**three_corpora, output_dir=str(tmp_path / "runs")))
    assert all(g["complete"] for g in out["grids"].values())
    # each (criterion, n_samples) group is one run, every set is base-scored,
    # and only its masks are held
    assert len(memos) == 1 and held == [True, True, True]


def test_after_the_first_spec_the_memo_holds_every_specs_masks_and_no_scores(three_corpora):
    cfg = H.ExperimentConfig(**three_corpora, criteria=("sensitivity",), nm_patterns=((2, 4),))
    runs = [("sensitivity", 0.5, cfg.n_samples), ("sensitivity", (2, 4), cfg.n_samples)]
    memo = H._load_inputs(cfg, runs)
    assert H.run_grid_cell(memo, *runs[0])["complete"]
    held = held_arrays(memo)
    # one set of masks per non-empty set of corpora (7) and spec
    assert only_masks(held)
    assert len(held) == 7 * 2 * len(memo.base.prunable_indices())


def test_sequential_step_networks_are_scored_once_per_key_and_held(three_corpora, tmp_path,
                                                                  monkeypatch):
    memos = loaded_memos(monkeypatch)
    scored = counting(monkeypatch, "score_step")
    cfg = H.ExperimentConfig(**three_corpora, output_dir=str(tmp_path / "runs"),
                             criteria=("wanda",), nm_patterns=((2, 4),),
                             init_mode_override="sequential")
    assert all(g["complete"] for g in H.run_continual(cfg)["grids"].values())
    (memo,) = memos
    # the first step of an ordering scores the base, once per corpus. wanda
    # freezes, so a later step scores its ordering's first-step network again:
    # each spec's 3 first-step networks, once with each of the 2 other corpora
    assert sum(net is memo.base for net, _, _ in scored) == 3
    assert len(scored) == 3 + 2 * 3 * 2
    keys = [(memo._key(net), counts.tobytes()) for net, _, counts in scored]
    assert len(set(keys)) == len(keys)
    # every key holds the masks of both specs
    held = held_arrays(memo)
    assert only_masks(held) and len(held) == 15 * 2 * len(memo.base.prunable_indices())


def test_a_retried_step_reads_its_held_masks(three_corpora, tmp_path, monkeypatch):
    scored = counting(monkeypatch, "score_step")
    real, evaluated = H.perplexities, []

    def second_pruned_fails(net, corpora, seq_len):
        evaluated.append(net)
        if len(evaluated) == 3:  # the dense row, then the first and second pruned networks
            raise NumericalError("synthetic failure")
        return real(net, corpora, seq_len)

    monkeypatch.setattr(H, "perplexities", second_pruned_fails)
    cfg = H.ExperimentConfig(**three_corpora, output_dir=str(tmp_path / "runs"),
                             criteria=("wanda",))
    g = H.run_continual(cfg)["grids"]["wanda:unstructured-0.5"]
    assert [e["permutation"] for e in g["errors"]] == ["bracket>numeric>prose"]
    # one score set per corpus; the orderings that retry numeric read its masks
    assert len(scored) == 3


@pytest.mark.parametrize("command", ["two-spec grid", "sparsity ablation"])
def test_each_score_key_is_computed_once_and_none_is_left(three_corpora, tmp_path, monkeypatch,
                                                          command):
    memos = loaded_memos(monkeypatch)
    scored = counting(monkeypatch, "score_step")
    cfg = H.ExperimentConfig(**three_corpora, output_dir=str(tmp_path / "runs"),
                             sparsities=(0.5,), nm_patterns=((2, 4),))
    if command == "two-spec grid":  # every key is read twice
        assert all(g["complete"] for g in H.run_continual(cfg)["grids"].values())
    else:  # the 0.3, 0.5 and 0.7 sweep: every key is read three times
        assert not any(row.get("error") for row in H.run_ablation_sparsity(cfg))
    (memo,) = memos
    keys = [(config.criterion, memo._key(net), counts.tobytes()) for net, config, counts in scored]
    # sensitivity: one per non-empty set of corpora; each baseline: one per corpus
    assert len(set(keys)) == len(keys) == 7 + 3 + 3
    assert only_masks(held_arrays(memo))


def test_grid_json_is_streamed_as_the_bytes_of_dumps(three_corpora, tmp_path, monkeypatch):
    def whole_document(*args, **kwargs):
        raise AssertionError("grid.json was built as one string")

    monkeypatch.setattr(json, "dumps", whole_document)
    out = H.run_continual(H.ExperimentConfig(**three_corpora, output_dir=str(tmp_path / "runs"),
                                             criteria=("magnitude", "wanda")))
    monkeypatch.undo()
    want = (json.dumps(out, indent=2, sort_keys=True) + "\n").encode()
    assert (tmp_path / "runs" / "grid.json").read_bytes() == want


def captures(monkeypatch) -> list:
    """Replace ``pruner.forward_capture`` by a wrapper; returns the list of
    the networks it captured."""
    real, captured = P.forward_capture, []

    def counting_capture(net, tokens):
        captured.append(net)
        return real(net, tokens)

    monkeypatch.setattr(P, "forward_capture", counting_capture)
    return captured


def test_one_capture_per_scored_network(three_corpora, tmp_path, monkeypatch):
    captured = captures(monkeypatch)
    H.run_continual(H.ExperimentConfig(**three_corpora, output_dir=str(tmp_path / "runs")))
    # sensitivity and wanda (global) score only the base, on every corpus
    assert len(captured) == 1


def test_a_sequential_step_network_is_captured_once_per_score_key(three_corpora, tmp_path,
                                                                  monkeypatch):
    captured = captures(monkeypatch)
    H.run_continual(H.ExperimentConfig(**three_corpora, output_dir=str(tmp_path / "runs"),
                                       init_mode_override="sequential"))
    # the base, then each of wanda's 3 frozen first-step networks once per
    # other corpus that scores it, not once per ordering that reaches it
    assert len(captured) == 1 + 3 * 2
    assert len({sha256(net) for net in captured}) == 1 + 3


@pytest.mark.parametrize("init_mode, n_steps", [(None, 13), ("sequential", 37)],
                         ids=["default", "sequential"])
def test_step_networks_share_all_but_their_linear_weights_with_the_base(
    three_corpora, tmp_path, monkeypatch, init_mode, n_steps
):
    memos = loaded_memos(monkeypatch)
    steps = recording(monkeypatch, "prune_step")
    H.run_continual(H.ExperimentConfig(**three_corpora, output_dir=str(tmp_path / "runs"),
                                       init_mode_override=init_mode))
    (memo,) = memos
    base = memo.base
    # no step wrote into the parameters it shares with the base
    M.save_checkpoint(base, tmp_path / "base.ckpt")
    assert (tmp_path / "base.ckpt").read_bytes() == Path(three_corpora["model_path"]).read_bytes()
    assert len(steps) == n_steps
    weights = []
    for _, (net, *_) in steps:
        assert net.embed is base.embed
        assert len(net.layers) == len(base.layers)
        for layer, base_layer in zip(net.layers, base.layers):
            if layer.kind != "linear":
                assert layer is base_layer
                continue
            assert not np.shares_memory(layer.weight, base_layer.weight)
            weights.append(layer.weight)
    assert len({id(w) for w in weights}) == len(weights)


def test_failing_score_is_an_error_in_every_ordering_that_reaches_it(
    three_corpora, tmp_path, monkeypatch
):
    real, attempts = H.score_step, []
    memos = loaded_memos(monkeypatch)

    def failing_numeric(net, config, counts):
        numeric = memos[0].calibration("numeric", memos[0].cfg.n_samples).counts
        if config.criterion == "wanda" and np.array_equal(
                counts, np.pad(numeric, (0, counts.size - numeric.size))):
            attempts.append(counts)
            raise NumericalError("synthetic failure")
        return real(net, config, counts)

    monkeypatch.setattr(H, "score_step", failing_numeric)
    cfg = H.ExperimentConfig(
        **three_corpora, output_dir=str(tmp_path / "runs"), criteria=("wanda", "magnitude")
    )
    grids = H.run_continual(cfg)["grids"]
    wanda = grids["wanda:unstructured-0.5"]
    every = [">".join(pi) for pi in permutations(CORPORA)]
    assert [e["permutation"] for e in wanda["errors"]] == every
    assert all(e["error"] == "NumericalError: synthetic failure" for e in wanda["errors"])
    assert len(attempts) == len(every)  # a failure is never memoized
    assert wanda["report"] is None
    assert grids["magnitude:unstructured-0.5"]["complete"]


def test_memo_holds_one_matrix_per_prunable_layer_per_score_key(three_corpora, monkeypatch):
    cfg = H.ExperimentConfig(**three_corpora, criteria=("sensitivity", "wanda", "magnitude"))
    runs = [("sensitivity", 0.5, 4), ("sensitivity", (2, 4), 4), ("wanda", 0.5, 4),
            ("magnitude", 0.5, 4), ("sensitivity", 0.5, 2)]
    memo = H._load_inputs(cfg, runs)
    scored = recording(monkeypatch, "score_step")
    for run in runs:
        H.run_grid_cell(memo, *run)
    prunable = memo.base.prunable_indices()
    # each scores the base: wanda and magnitude once per corpus, sensitivity
    # at 4 and at 2 samples once per non-empty set of corpora (7); each set
    # is computed once, and only its masks, one per spec, are left
    keys = [(config.criterion, memo._key(net), counts.tobytes())
            for (net, config, counts), _ in scored]
    assert len(set(keys)) == len(keys) == 2 * len(CORPORA) + 2 * 7
    held = held_arrays(memo)
    assert only_masks(held) and len(held) == (2 * len(CORPORA) + 7 * 2 + 7) * len(prunable)
    for key, (_, scores) in zip(keys, scored):
        assert sorted(scores) == prunable, key
        for idx, matrix in scores.items():
            assert matrix.shape == memo.base.layers[idx].weight.shape, key


@pytest.mark.parametrize("init_mode", [None, "sequential", "global"])
def test_key_is_equal_exactly_when_all_parameter_bytes_are(three_corpora, monkeypatch, init_mode):
    cfg = H.ExperimentConfig(
        **three_corpora, criteria=("sensitivity", "magnitude", "wanda"), sparsities=(0.5,),
        nm_patterns=((2, 4),), w_draws=2, init_mode_override=init_mode,
    )
    runs = [(c, spec, cfg.n_samples) for c in cfg.criteria for spec in (0.5, (2, 4))]
    memo = H._load_inputs(cfg, runs)
    nets = []  # every network the grid scores or evaluates

    def recording(real):
        def record(net, *args):
            nets.append(net)
            return real(net, *args)
        return record

    for name in ("masks", "perplexities"):
        monkeypatch.setattr(memo, name, recording(getattr(memo, name)))
    H.dense_row(memo)
    for run in runs:
        assert H.run_grid_cell(memo, *run)["complete"]
    keys = [memo._key(net) for net in nets]
    digests = [sha256(net) for net in nets]
    assert len(set(digests)) > 2  # the base and several masked networks
    for k1, d1 in zip(keys, digests):
        for k2, d2 in zip(keys, digests):
            assert (k1 == k2) == (d1 == d2)


def perturbed(base, where):
    net = base.copy()
    if where == "embedding":
        net.embed[0, 0] += 1e-12
    else:
        w = net.layers[net.prunable_indices()[-1]].weight
        w[np.unravel_index(np.argmax(np.abs(w)), w.shape)] *= 1 + 1e-12
    return net


@pytest.mark.parametrize("where", ["embedding", "nonzero-weight"])
def test_key_refuses_a_network_that_is_not_the_base_times_a_mask(three_corpora, where):
    memo = H._load_inputs(H.ExperimentConfig(**three_corpora), [])
    net = perturbed(memo.base, where)
    with pytest.raises(RuntimeError, match="base network times a mask"):
        memo.perplexities(net)


def test_key_tells_apart_one_pruned_entry_in_each_layer(three_corpora):
    memo = H._load_inputs(H.ExperimentConfig(**three_corpora), [])
    nets = [memo.base]
    for idx in memo.base.prunable_indices():
        for entry in (0, -1):
            net = memo.base.copy()
            net.layers[idx].weight.flat[entry] = 0.0
            nets.append(net)
    assert len({memo._key(net) for net in nets}) == len(nets)
