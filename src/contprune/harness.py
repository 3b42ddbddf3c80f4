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
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import Corpus, load_corpus, permutations, sample_calibration
from .errors import InputError, UsageError
from .importance import init_state
from .metrics import EvalCell, RunReport, aggregate, perplexity, report_to_dict
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
        # lists come from JSON configs, comma-separated strings from flags
        self.criteria = _items(self.criteria, str)
        self.sparsities = _items(self.sparsities, float)
        self.nm_patterns = _items(self.nm_patterns, _nm_pair)
        self.sparsity_sweep = _items(self.sparsity_sweep, float)
        self.samples_sweep = _items(self.samples_sweep, int)
        if not self.corpora:
            raise UsageError("need at least one corpus")
        if not self.criteria:
            raise UsageError("need at least one criterion")
        missing = [p for p in [self.model_path, *self.corpora.values()] if not Path(p).exists()]
        if missing:
            raise InputError(f"missing input files: {missing}")


def _items(value, parse) -> tuple:
    if isinstance(value, str):
        value = value.split(",")
    return tuple(parse(v) for v in value)


def _nm_pair(value) -> tuple[int, int]:
    """``"2:4"`` or ``[2, 4]`` as the pair ``(2, 4)``."""
    return tuple(int(v) for v in (value.split(":") if isinstance(value, str) else value))


@dataclass
class GridResult:
    criterion: str
    spec_label: str
    report: RunReport | None
    ws: bool
    ws_permutations: list[str] = field(default_factory=list)
    step_stats: list[dict] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)


def _load_inputs(cfg: ExperimentConfig) -> tuple[Network, dict[str, Corpus]]:
    net = load_checkpoint(cfg.model_path)
    corpora = {
        name: load_corpus(path, name, eval_fraction=cfg.eval_fraction)
        for name, path in cfg.corpora.items()
    }
    return net, corpora


def _calibration_sets(cfg: ExperimentConfig, corpora: dict[str, Corpus], n_samples: int):
    # one calibration set per dataset, shared across criteria and orderings
    return {
        name: sample_calibration(
            corpus, n_samples, cfg.seq_len, derive_seed(cfg.seed, "calib", name)
        )
        for name, corpus in corpora.items()
    }


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
    n_samples: int | None = None,
) -> GridResult:
    """Full permutation grid for one (criterion, sparsity spec) pair."""
    calib_sets = _calibration_sets(cfg, corpora, n_samples or cfg.n_samples)
    names = sorted(corpora)
    perms = permutations(names)
    pconfig = _prune_config(cfg, criterion, spec)
    label = pconfig.spec_label()

    cells: list[EvalCell] = []
    completed: list[tuple[str, ...]] = []
    ws_perms: list[str] = []
    step_stats: list[dict] = []
    errors: list[dict] = []
    for pi in perms:
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
                step_stats.append(
                    {
                        "permutation": ">".join(pi),
                        "step": step,
                        "pruned_dataset": ds_name,
                        "overall_sparsity": frag["overall_sparsity"],
                        "hamming_vs_prev": hamming_total,
                    }
                )
                for ds in names:
                    cells.append(
                        EvalCell(
                            permutation=pi,
                            step=step,
                            eval_dataset=ds,
                            perplexity=perplexity(current, corpora[ds], cfg.seq_len),
                        )
                    )
            completed.append(pi)
            if transitions_stasis and all(transitions_stasis):
                ws_perms.append(">".join(pi))
        except Exception as exc:  # keep other orderings running
            errors.append({"permutation": ">".join(pi), "error": f"{type(exc).__name__}: {exc}"})
    report = aggregate(cells, completed, names) if completed else None
    ws = bool(completed) and len(ws_perms) == len(completed)
    return GridResult(
        criterion=criterion,
        spec_label=label,
        report=report,
        ws=ws,
        ws_permutations=ws_perms,
        step_stats=step_stats,
        errors=errors,
    )


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
    base, corpora = _load_inputs(cfg)
    dense = dense_row(base, corpora, cfg.seq_len)
    results: dict[str, GridResult] = {}
    specs = [*cfg.sparsities, *cfg.nm_patterns]
    for criterion in cfg.criteria:
        for spec in specs:
            result = run_grid_cell(cfg, base, corpora, criterion, spec)
            results[f"{criterion}:{result.spec_label}"] = result
    out = {
        "schema_version": 1,
        "config": _config_echo(cfg),
        "dense": dense,
        "grids": {key: _result_to_dict(r) for key, r in sorted(results.items())},
    }
    _write_outputs(cfg, out, results)
    return out


def _config_echo(cfg: ExperimentConfig) -> dict:
    return {
        "model_path": str(cfg.model_path),
        "corpora": {k: str(v) for k, v in sorted(cfg.corpora.items())},
        "criteria": list(cfg.criteria),
        "sparsities": list(cfg.sparsities),
        "nm_patterns": [list(p) for p in cfg.nm_patterns],
        "n_samples": cfg.n_samples,
        "seq_len": cfg.seq_len,
        "seed": cfg.seed,
        "epsilon": cfg.epsilon,
        "w_draws": cfg.w_draws,
        "eval_fraction": cfg.eval_fraction,
        "init_mode_override": cfg.init_mode_override,
    }


def _result_to_dict(result: GridResult) -> dict:
    return {
        "criterion": result.criterion,
        "spec": result.spec_label,
        "ws": result.ws,
        "ws_permutations": result.ws_permutations,
        "report": None if result.report is None else report_to_dict(result.report),
        "step_stats": result.step_stats,
        "errors": result.errors,
        "complete": not result.errors,
    }


def _write_outputs(cfg: ExperimentConfig, out: dict, results: dict[str, GridResult]) -> None:
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "grid.json").write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    for key, result in sorted(results.items()):
        if result.report is None:
            continue
        rows = [["permutation", "step", "pruned_dataset", "eval_dataset", "perplexity"]]
        rows += [
            [c.permutation_id, c.step, c.pruned_dataset, c.eval_dataset, c.perplexity]
            for c in result.report.cells
        ]
        _write_csv(out_dir / f"cells_{key.replace(':', '_')}.csv", rows)
    (out_dir / "table.txt").write_text(render_table(out))
    _write_csv(out_dir / "table.csv", _table_rows(out))


def _write_csv(path: Path, rows) -> None:
    """Strings as they are, None as an empty field, numbers as ``repr``
    (which round-trips exactly)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(["" if v is None else v if isinstance(v, str) else repr(v) for v in row])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(buf.getvalue())


def _fmt(value, ws: bool = False) -> str:
    if ws:
        return "WS"
    if value is None:
        return "-"
    return f"{value:.4f}"


def render_table(out: dict) -> str:
    """Aligned text table: criterion rows, aggregate and per-dataset blocks."""
    headers = ["criterion", "spec", "a-bwt", "m-bwt", "a-ppl", "m-ppl"]
    rows = [
        ["dense", "-", "-", "-", _fmt(out["dense"]["a_ppl"]), _fmt(out["dense"]["m_ppl"])]
    ]
    for key in sorted(out["grids"]):
        g = out["grids"][key]
        rep = g["report"]
        if rep is None:
            rows.append([g["criterion"], g["spec"], "error", "error", "error", "error"])
            continue
        agg = rep["aggregates"]
        rows.append(
            [
                g["criterion"],
                g["spec"],
                _fmt(agg["a_bwt"], g["ws"]),
                _fmt(agg["m_bwt"], g["ws"]),
                _fmt(agg["a_ppl"]),
                _fmt(agg["m_ppl"]),
            ]
        )
    widths = [max(len(r[i]) for r in [headers] + rows) for i in range(len(headers))]
    lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("-+-".join("-" * w for w in widths))
    for r in rows:
        lines.append(" | ".join(v.ljust(w) for v, w in zip(r, widths)))

    # per-dataset mean +/- std blocks
    datasets = sorted(out["dense"]["per_dataset"])
    for ds in datasets:
        lines.append("")
        lines.append(f"[{ds}]")
        lines.append(f"  dense: ppl {out['dense']['per_dataset'][ds]:.4f} ± 0.0000")
        for key in sorted(out["grids"]):
            g = out["grids"][key]
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


def _table_rows(out: dict) -> list[list]:
    rows = [
        ["criterion", "spec", "a_bwt", "m_bwt", "a_ppl", "m_ppl"],
        ["dense", "-", None, None, out["dense"]["a_ppl"], out["dense"]["m_ppl"]],
    ]
    for key in sorted(out["grids"]):
        g = out["grids"][key]
        rep = g["report"]
        if rep is None:
            continue
        agg = rep["aggregates"]
        bwt = ["WS", "WS"] if g["ws"] else [agg["a_bwt"], agg["m_bwt"]]
        rows.append([g["criterion"], g["spec"], *bwt, agg["a_ppl"], agg["m_ppl"]])
    return rows


def run_ablation_sparsity(cfg: ExperimentConfig) -> list[dict]:
    """Sweep unstructured sparsity; one row per (criterion, sparsity)."""
    base, corpora = _load_inputs(cfg)
    rows: list[dict] = []
    for s in cfg.sparsity_sweep:
        for criterion in cfg.criteria:
            result = run_grid_cell(cfg, base, corpora, criterion, s)
            rows.append(_ablation_row(result, {"sparsity": s}))
    _write_ablation(cfg, rows, "ablation_sparsity.csv", "sparsity")
    return rows


def run_ablation_samples(cfg: ExperimentConfig, criteria: tuple[str, ...] = ("sensitivity",)) -> list[dict]:
    """Sweep calibration sample counts at fixed 0.5 unstructured sparsity."""
    base, corpora = _load_inputs(cfg)
    rows: list[dict] = []
    for n in cfg.samples_sweep:
        for criterion in criteria:
            result = run_grid_cell(cfg, base, corpora, criterion, 0.5, n_samples=n)
            rows.append(_ablation_row(result, {"n_samples": n}))
    _write_ablation(cfg, rows, "ablation_samples.csv", "n_samples")
    return rows


def _ablation_row(result: GridResult, extra: dict) -> dict:
    row = {"criterion": result.criterion, **extra}
    if result.report is None:
        row.update({"a_bwt": None, "m_bwt": None, "error": True})
    elif result.ws:
        row.update({"a_bwt": "WS", "m_bwt": "WS"})
    else:
        row.update({"a_bwt": result.report.a_bwt, "m_bwt": result.report.m_bwt})
    return row


def _write_ablation(cfg: ExperimentConfig, rows: list[dict], filename: str, sweep_key: str) -> None:
    _write_csv(
        Path(cfg.output_dir) / filename,
        [["criterion", sweep_key, "a_bwt", "m_bwt"]]
        + [[row["criterion"], row[sweep_key], row["a_bwt"], row["m_bwt"]] for row in rows],
    )
