"""The harness memo against the un-memoized grid loop.

``oracle_grid_cell`` is the grid loop from before the memo: every ordering
draws its own calibration sets, runs ``prune_step`` at every step and
evaluates every cell with ``perplexity``. Swapped in for
``harness.run_grid_cell``, it must give byte-identical output files.
"""
from __future__ import annotations

import pytest

from contprune import harness as H
from contprune.corpus import permutations, sample_calibration
from contprune.errors import NumericalError
from contprune.importance import init_state
from contprune.metrics import EvalCell, aggregate, perplexity, report_to_dict
from contprune.pruner import detect_stasis, prune_step
from contprune.seeding import derive_seed

CORPORA = ("bracket", "numeric", "prose")


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
                    per_layer = [detect_stasis(prev_masks[i], masks[i]) for i in sorted(masks)]
                    hamming_total = sum(h for _, h in per_layer)
                    transitions_stasis.append(all(st for st, _ in per_layer))
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
        "report": report_to_dict(aggregate(cells, completed, names)) if completed else None,
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
        )
        H.run_ablation_sparsity(cfg)
        H.run_ablation_samples(cfg, criteria=("sensitivity", "magnitude"))

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


def test_scores_and_perplexities_computed_once(three_corpora, tmp_path, monkeypatch):
    scores = counting(monkeypatch, "score_step")
    evals = counting(monkeypatch, "perplexities")
    cfg = H.ExperimentConfig(**three_corpora, output_dir=str(tmp_path / "runs"))
    out = H.run_continual(cfg)
    assert all(g["complete"] for g in out["grids"].values())
    # un-memoized: 3 criteria x 6 orderings x 3 steps = 54 prune steps and
    # 54 x 3 + 3 dense = 165 evaluations. Memoized, every criterion scores
    # the base once per corpus, and each distinct network is evaluated once,
    # on all 3 corpora from one vocabulary table: the base; magnitude prunes
    # it to one network whatever the corpus, wanda to one per corpus, and
    # sensitivity to one per ordering prefix (15) at most. On this data,
    # prefixes that have seen the same set of datasets reach equal masks:
    # 7 networks, so 12 tables give the 3 * 12 = 36 distinct values.
    assert len(scores) == 3 * 3
    assert len(evals) == 1 + 1 + 3 + 7
    assert len({H._sha256(net) for net, _, _ in evals}) == len(evals)
    assert all(sorted(corpora) == list(CORPORA) for _, corpora, _ in evals)


def test_failing_score_is_an_error_in_every_ordering_that_reaches_it(
    three_corpora, tmp_path, monkeypatch
):
    real, attempts = H.score_step, []

    def failing_numeric(net, config, calib):
        if config.criterion == "wanda" and calib.corpus_name == "numeric":
            attempts.append(calib.corpus_name)
            raise NumericalError("synthetic failure")
        return real(net, config, calib)

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


def test_scores_dropped_after_their_last_grid(three_corpora):
    cfg = H.ExperimentConfig(**three_corpora, criteria=("sensitivity", "wanda"))
    runs = [("sensitivity", 0.5, 4), ("sensitivity", (2, 4), 4), ("wanda", 0.5, 4),
            ("sensitivity", 0.5, 2)]
    memo = H._load_inputs(cfg, runs)
    held = [sorted({(k[0], k[3]) for k in memo._scores}) for _ in H._grid_entries(memo, runs)]
    # as each entry is yielded: one (criterion, n_samples) pair's scores at a time
    assert held == [
        [("sensitivity", 4)],
        [("sensitivity", 4)],
        [("wanda", 4)],
        [("sensitivity", 2)],
    ]
    assert memo._scores == {}
