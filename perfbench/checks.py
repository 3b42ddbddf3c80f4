"""Output checks for the benchmark's workloads.

Each check returns a list of problems; an empty list means the output is
correct. The grid oracle rebuilds sampled cells through the public
``pruner.prune_step`` and scores them with ``model.forward`` and its own
log-softmax, independently of ``metrics.perplexity``.
"""
from __future__ import annotations

import math
import random
import re
from pathlib import Path

ORACLE_RTOL = 1e-9
DESK_LINEAR_SHAPES = [(128, 64), (64, 128), (128, 64), (64, 128)]
_LOSS_LINE = re.compile(r"trained (\d+) steps: loss (\S+) -> (\S+);")


def _spec_key(spec) -> str:
    return f"unstructured-{spec:g}" if isinstance(spec, float) else f"{spec[0]}of{spec[1]}"


def check_grid(grid: dict, expected: dict) -> list[str]:
    """Structural checks of one grid.json against the requested grid.

    ``expected`` holds criteria, specs (floats and (n, m) pairs), n_samples,
    eval_fraction and seed.
    """
    problems = []
    cfg = grid["config"]
    for field in ("criteria", "n_samples", "eval_fraction", "seed"):
        want = list(expected[field]) if field == "criteria" else expected[field]
        if cfg[field] != want:
            problems.append(f"config {field} is {cfg[field]!r}, expected {want!r}")
    datasets = sorted(grid["dense"]["per_dataset"])
    n_perms = math.factorial(len(datasets))
    if not all(math.isfinite(v) for v in grid["dense"]["per_dataset"].values()):
        problems.append("dense perplexity is not finite")
    keys = {f"{c}:{_spec_key(s)}" for c in expected["criteria"] for s in expected["specs"]}
    if set(grid["grids"]) != keys:
        problems.append(f"grid entries {sorted(grid['grids'])}, expected {sorted(keys)}")
    for key, entry in sorted(grid["grids"].items()):
        if not entry["complete"] or entry["errors"] or entry["report"] is None:
            problems.append(f"{key}: incomplete, errors {entry['errors']}")
            continue
        cells = entry["report"]["cells"]
        want_cells = n_perms * len(datasets) * len(datasets)
        if len(cells) != want_cells:
            problems.append(f"{key}: {len(cells)} cells, expected {want_cells}")
        if not all(math.isfinite(c["perplexity"]) for c in cells):
            problems.append(f"{key}: non-finite perplexity")
        sparsities = {s["overall_sparsity"] for s in entry["step_stats"]}
        if sparsities != {0.5}:
            problems.append(f"{key}: overall sparsity {sorted(sparsities)}, expected exactly 0.5")
        if entry["criterion"] == "sensitivity" and entry["ws"]:
            problems.append(f"{key}: sensitivity shows weight stasis")
        if entry["criterion"] == "magnitude" and not entry["ws"]:
            problems.append(f"{key}: data-free magnitude masks changed between steps")
    return problems


def _oracle_perplexity(net, tokens, seq_len: int) -> float:
    import numpy as np

    from contprune.model import forward

    values = []
    for w in range(len(tokens) // seq_len):
        window = tokens[w * seq_len : (w + 1) * seq_len]
        logits = forward(net, window)
        logp = logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
        values.append(math.exp(-logp[np.arange(seq_len - 1), window[1:]].mean()))
    return math.fsum(values) / len(values)


def oracle_cells(grid: dict, run_dir: Path, expected: dict, n_cells: int) -> list[str]:
    """Rebuild ``n_cells`` cells per grid entry and compare their perplexity.

    Sensitivity replays its importance state sequentially over the ordering;
    the baselines prune the restored base weights (global initialization).
    """
    from contprune import corpus, importance, model, pruner
    from contprune.seeding import derive_seed

    cfg = grid["config"]
    seed, seq_len = cfg["seed"], cfg["seq_len"]
    base = model.load_checkpoint(run_dir / cfg["model_path"])
    corpora = {
        name: corpus.load_corpus(run_dir / path, name, eval_fraction=cfg["eval_fraction"])
        for name, path in cfg["corpora"].items()
    }
    calib = {
        name: corpus.sample_calibration(c, cfg["n_samples"], seq_len, derive_seed(seed, "calib", name))
        for name, c in corpora.items()
    }
    rng = random.Random(seed)
    problems = []
    for criterion in expected["criteria"]:
        for spec in expected["specs"]:
            key = f"{criterion}:{_spec_key(spec)}"
            entry = grid["grids"].get(key)
            if entry is None or entry["report"] is None:
                continue  # already reported by check_grid
            config = pruner.PruneConfig(
                criterion=criterion,
                init_mode="sequential" if criterion == "sensitivity" else "global",
                seed=seed,
                epsilon=cfg["epsilon"],
                w_draws=cfg["w_draws"],
                **({"sparsity": spec} if isinstance(spec, float) else {"nm": spec}),
            )
            for cell in rng.sample(entry["report"]["cells"], n_cells):
                net = base.copy()
                state = importance.init_state(base) if criterion == "sensitivity" else None
                for name in cell["permutation"][: cell["step"]]:
                    net, _, _ = pruner.prune_step(net, state, config, calib[name], base_net=base)
                want = _oracle_perplexity(net, corpora[cell["eval_dataset"]].eval_tokens(), seq_len)
                got = cell["perplexity"]
                if not abs(got - want) <= ORACLE_RTOL * abs(want):
                    problems.append(
                        f"{key} {'>'.join(cell['permutation'])} step {cell['step']} "
                        f"on {cell['eval_dataset']}: grid {got!r}, oracle {want!r}"
                    )
    return problems


def check_train(ckpt: Path, stdout: str, steps: int, scratch: Path) -> list[str]:
    """The trained checkpoint has the desk shape, round-trips byte-exactly
    through ``scratch``, and the logged loss falls."""
    from contprune import model

    problems = []
    match = _LOSS_LINE.search(stdout)
    if match is None:
        return [f"no loss line in train output: {stdout.strip()[-200:]!r}"]
    n, first, last = int(match.group(1)), float(match.group(2)), float(match.group(3))
    if n != steps:
        problems.append(f"trained {n} steps, expected {steps}")
    if not last < first:
        problems.append(f"loss did not fall: {first} -> {last}")
    net = model.load_checkpoint(ckpt)
    shapes = [net.layers[i].weight.shape for i in net.prunable_indices()]
    if net.embed.shape != (256, 64) or shapes != DESK_LINEAR_SHAPES:
        problems.append(f"checkpoint shapes {net.embed.shape} {shapes} are not the desk model")
    model.save_checkpoint(net, scratch)
    if scratch.read_bytes() != ckpt.read_bytes():
        problems.append("checkpoint does not round-trip byte-exactly")
    return problems
