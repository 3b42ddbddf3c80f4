"""Experiment orchestration: the permutation grid, ablation sweeps, and
report rendering.

A grid run evaluates one model checkpoint under every dataset-order
permutation for each requested (criterion, sparsity spec) pair: prune on
the calibration set of the next dataset in the ordering, then evaluate
perplexity on every dataset. The sensitivity criterion runs sequentially
(its importance state persists across the ordering); the baselines restore
pristine base weights before each dataset, which is the setting where they
show forgetting rather than freezing. A criterion whose masks never change
across any transition of any ordering is reported as "WS" (weight stasis)
in the backward-transfer columns.

Everything is deterministic in (config, seed): calibration windows and
perturbation seeds are derived from stable label hashes, reports carry no
timestamps, and rerunning a grid reproduces its output files byte for byte.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields
from pathlib import Path

from .corpus import Corpus, load_corpus, permutations, sample_calibration
from .errors import InputError, UsageError
from .importance import init_state
from .metrics import EvalCell, aggregate, perplexity, report_to_dict
from .model import Network, load_checkpoint
from .pruner import PruneConfig, detect_stasis, prune_step
from .seeding import derive_seed

DEFAULT_CRITERIA = ("sensitivity", "magnitude", "wanda")
DEFAULT_SPARSITY_SWEEP = (0.3, 0.5, 0.7)
DEFAULT_SAMPLES_SWEEP = (16, 32, 64)


@dataclass
class ExperimentConfig:
    model_path: str
    corpora: dict[str, str]  # name -> path
    seed: int
    output_dir: str = "runs"
    criteria: tuple[str, ...] = DEFAULT_CRITERIA
    sparsities: tuple[float, ...] = (0.5,)
    nm_patterns: tuple[tuple[int, int], ...] = ()
    n_samples: int = 16
    seq_len: int = 128
    epsilon: float = 1e-3
    w_draws: int = 1
    eval_fraction: float = 0.2
    init_mode_override: str | None = None  # force one mode for stasis demos
    sparsity_sweep: tuple[float, ...] = DEFAULT_SPARSITY_SWEEP
    samples_sweep: tuple[int, ...] = DEFAULT_SAMPLES_SWEEP

    def __post_init__(self) -> None:
        for name, parse in (("criteria", str), ("sparsities", float), ("nm_patterns", _nm_pair),
                            ("sparsity_sweep", float), ("samples_sweep", int)):
            setattr(self, name, _items(name, getattr(self, name), parse))
        if not self.corpora:
            raise UsageError("need at least one corpus")
        if not self.criteria:
            raise UsageError("need at least one criterion")
        missing = [p for p in [self.model_path, *self.corpora.values()] if not Path(p).exists()]
        if missing:
            raise InputError(f"missing input files: {missing}")


def _items(name: str, value, parse) -> tuple:
    """A list from a JSON config, or a comma-separated string from a flag, as
    a tuple of parsed values; UsageError names the first repeated value."""
    if isinstance(value, str):
        value = value.split(",")
    values = tuple(parse(v) for v in value)
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise UsageError(f"{name} repeats the value {repeated[0]!r}")
    return values


def _nm_pair(value) -> tuple[int, int]:
    """``"2:4"`` or ``[2, 4]`` as the pair ``(2, 4)``."""
    return tuple(int(v) for v in (value.split(":") if isinstance(value, str) else value))


def _load_inputs(cfg: ExperimentConfig, runs) -> tuple[Network, dict[str, Corpus]]:
    """Load the model and corpora, after checking every ``(criterion, spec,
    n_samples)`` run, so that a bad later value cannot discard finished grids."""
    for criterion, spec, n_samples in runs:
        _prune_config(cfg, criterion, spec)
        if n_samples < 1:
            raise UsageError(f"n_samples must be >= 1, got {n_samples}")
    net = load_checkpoint(cfg.model_path)
    corpora = {
        name: load_corpus(path, name, eval_fraction=cfg.eval_fraction)
        for name, path in cfg.corpora.items()
    }
    return net, corpora


def _prune_config(cfg: ExperimentConfig, criterion: str, spec) -> PruneConfig:
    mode = cfg.init_mode_override or ("sequential" if criterion == "sensitivity" else "global")
    kwargs = {"sparsity": spec} if isinstance(spec, float) else {"nm": spec}
    return PruneConfig(
        criterion=criterion,
        init_mode=mode,
        seed=cfg.seed,
        epsilon=cfg.epsilon,
        w_draws=cfg.w_draws,
        **kwargs,
    )


def run_grid_cell(
    cfg: ExperimentConfig,
    base: Network,
    corpora: dict[str, Corpus],
    criterion: str,
    spec,
    n_samples: int,
) -> dict:
    """Full permutation grid for one (criterion, sparsity spec) pair, as its
    ``grid.json`` entry. A failed ordering adds only an ``errors`` entry."""
    calib_sets = {  # one calibration set per dataset, shared across orderings
        name: sample_calibration(
            corpus, n_samples, cfg.seq_len, derive_seed(cfg.seed, "calib", name)
        )
        for name, corpus in corpora.items()
    }
    names = sorted(corpora)
    pconfig = _prune_config(cfg, criterion, spec)

    cells: list[EvalCell] = []
    completed: list[tuple[str, ...]] = []
    ws_perms: list[str] = []
    step_stats: list[dict] = []
    errors: list[dict] = []
    for pi in permutations(names):
        perm_cells: list[EvalCell] = []
        perm_stats: list[dict] = []
        try:
            current = base.copy()
            state = init_state(base) if criterion == "sensitivity" else None
            prev_masks = None
            transitions_stasis: list[bool] = []
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
                perm_stats.append(
                    {
                        "permutation": ">".join(pi),
                        "step": step,
                        "pruned_dataset": ds_name,
                        "overall_sparsity": frag["overall_sparsity"],
                        "hamming_vs_prev": hamming_total,
                    }
                )
                for ds in names:
                    perm_cells.append(
                        EvalCell(
                            permutation=pi,
                            step=step,
                            eval_dataset=ds,
                            perplexity=perplexity(current, corpora[ds], cfg.seq_len),
                        )
                    )
        except Exception as exc:  # keep other orderings running
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


def dense_row(base: Network, corpora: dict[str, Corpus], seq_len: int) -> dict:
    ppls = {name: perplexity(base, c, seq_len) for name, c in sorted(corpora.items())}
    values = list(ppls.values())
    return {
        "per_dataset": ppls,
        "a_ppl": sum(values) / len(values),
        "m_ppl": max(values),
    }


def run_continual(cfg: ExperimentConfig) -> dict:
    """Run the full grid; returns the result dict and writes report files."""
    specs = [*cfg.sparsities, *cfg.nm_patterns]
    runs = [(criterion, spec, cfg.n_samples) for criterion in cfg.criteria for spec in specs]
    base, corpora = _load_inputs(cfg, runs)
    dense = dense_row(base, corpora, cfg.seq_len)
    grids = {}
    for run in runs:
        entry = run_grid_cell(cfg, base, corpora, *run)
        grids[f"{entry['criterion']}:{entry['spec']}"] = entry
    out = {
        "schema_version": 1,
        "config": _config_echo(cfg),
        "dense": dense,
        "grids": dict(sorted(grids.items())),
    }
    _write_outputs(cfg, out)
    return out


def _config_echo(cfg: ExperimentConfig) -> dict:
    # where the files go and what the ablations sweep do not shape a grid
    skip = ("output_dir", "sparsity_sweep", "samples_sweep")
    return {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name not in skip}


SUMMARY_HEADER = ["criterion", "spec", "a_bwt", "m_bwt", "a_ppl", "m_ppl"]


def _summary(entry: dict) -> list | None:
    """One grid entry's table row (``SUMMARY_HEADER``), with ``"WS"`` in the
    BWT columns when every ordering froze; None when every ordering failed."""
    if entry["report"] is None:
        return None
    agg = entry["report"]["aggregates"]
    bwt = ["WS", "WS"] if entry["ws"] else [agg["a_bwt"], agg["m_bwt"]]
    return [entry["criterion"], entry["spec"], *bwt, agg["a_ppl"], agg["m_ppl"]]


def _dense_summary(out: dict) -> list:
    return ["dense", "-", None, None, out["dense"]["a_ppl"], out["dense"]["m_ppl"]]


def _write_outputs(cfg: ExperimentConfig, out: dict) -> None:
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "grid.json").write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    for key, g in out["grids"].items():
        if g["report"] is None:
            continue
        rows = [["permutation", "step", "pruned_dataset", "eval_dataset", "perplexity"]]
        rows += [
            [">".join(c["permutation"]), c["step"], c["pruned_dataset"], c["eval_dataset"],
             c["perplexity"]]
            for c in g["report"]["cells"]
        ]
        _write_csv(out_dir / f"cells_{key.replace(':', '_')}.csv", rows)
    (out_dir / "table.txt").write_text(render_table(out))
    summaries = [_summary(g) for g in out["grids"].values()]
    _write_csv(
        out_dir / "table.csv",
        [SUMMARY_HEADER, _dense_summary(out), *(s for s in summaries if s is not None)],
    )


def _write_csv(path: Path, rows) -> None:
    """Strings as they are, None as an empty field, numbers as ``repr``
    (which round-trips exactly)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(["" if v is None else v if isinstance(v, str) else repr(v) for v in row])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(buf.getvalue())


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    return f"{value:.4f}"


def render_table(out: dict) -> str:
    """Aligned text table: criterion rows, aggregate and per-dataset blocks."""
    headers = [h.replace("_", "-") for h in SUMMARY_HEADER]
    rows = [_dense_summary(out)]
    for g in out["grids"].values():
        rows.append(_summary(g) or [g["criterion"], g["spec"], *["error"] * 4])
    rows = [[_fmt(v) for v in r] for r in rows]
    widths = [max(len(r[i]) for r in [headers] + rows) for i in range(len(headers))]
    lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("-+-".join("-" * w for w in widths))
    for r in rows:
        lines.append(" | ".join(v.ljust(w) for v, w in zip(r, widths)))

    # per-dataset mean +/- std blocks
    for ds in sorted(out["dense"]["per_dataset"]):
        lines += ["", f"[{ds}]", f"  dense: ppl {out['dense']['per_dataset'][ds]:.4f} ± 0.0000"]
        for g in out["grids"].values():
            rep = g["report"]
            if rep is None or ds not in rep["per_dataset"]:
                continue
            stats = rep["per_dataset"][ds]
            if g["ws"]:
                bwt_part = "bwt WS"
            elif "bwt_mean" in stats:
                bwt_part = f"bwt {stats['bwt_mean']:.4f} ± {stats['bwt_std']:.4f}"
            else:
                bwt_part = "bwt -"
            lines.append(
                f"  {g['criterion']} ({g['spec']}): {bwt_part}, "
                f"ppl {stats['ppl_mean']:.4f} ± {stats['ppl_std']:.4f}"
            )
    return "\n".join(lines) + "\n"


def run_ablation_sparsity(cfg: ExperimentConfig) -> list[dict]:
    """Sweep unstructured sparsity; one row per (criterion, sparsity)."""
    runs = [(s, (c, s, cfg.n_samples)) for s in cfg.sparsity_sweep for c in cfg.criteria]
    return _ablation(cfg, "ablation_sparsity.csv", "sparsity", runs)


def run_ablation_samples(cfg: ExperimentConfig, criteria=("sensitivity",)) -> list[dict]:
    """Sweep calibration sample counts at fixed 0.5 unstructured sparsity.
    ``criteria`` is parsed and checked like the config's list fields."""
    criteria = _items("ablate_criteria", criteria, str)
    runs = [(n, (c, 0.5, n)) for n in cfg.samples_sweep for c in criteria]
    return _ablation(cfg, "ablation_samples.csv", "n_samples", runs)


def _ablation(cfg: ExperimentConfig, filename: str, sweep_key: str, runs) -> list[dict]:
    """One grid per ``(sweep value, (criterion, spec, n_samples))`` run and
    one row per grid, also written to ``filename``."""
    base, corpora = _load_inputs(cfg, [run for _, run in runs])
    rows: list[dict] = []
    for value, run in runs:
        summary = _summary(run_grid_cell(cfg, base, corpora, *run))
        row = {"criterion": run[0], sweep_key: value}
        if summary is None:
            row.update({"a_bwt": None, "m_bwt": None, "error": True})
        else:
            row.update({"a_bwt": summary[2], "m_bwt": summary[3]})
        rows.append(row)
    header = ["criterion", sweep_key, "a_bwt", "m_bwt"]
    _write_csv(Path(cfg.output_dir) / filename, [header, *([r[k] for k in header] for r in rows)])
    return rows
