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

Everything is deterministic in (config, seed): the calibration windows,
a grid's only random draws, are seeded from a stable label hash of the seed
and the corpus name, reports carry no timestamps, and rerunning a grid
reproduces its output files byte for byte.

One command (``run_continual`` or an ablation sweep) computes each of these
at most once, in a ``Memo`` shared by the dense row and every grid:

- a calibration set per (corpus, ``n_samples``);
- the vocabulary capture of the base, and the count-free terms of its
  sensitivity scores (``pruner.ScoredNetwork``), which the scores of every
  corpus weigh by that corpus's calibration token counts;
- masks, one uint8 array per prunable layer, per (scored network,
  criterion, input-token counts): a calibration set's own counts, or for
  sequential sensitivity the counts of every set its state has seen. Only a
  criterion whose scores read counts (``pruner.DATA_CRITERIA``) has them in
  its key, so a magnitude network is scored once, not once per corpus or
  sample count. A step with a state scores the base, and so does every step
  under global initialization, so all orderings and specs share a few score
  sets. A sequential baseline scores its parent's step network, and a frozen
  baseline's step network recurs across orderings. The first read of a key
  takes one score set (``pruner.score_step``), builds masks from it and
  drops the float scores: a key on the base builds the masks of every spec
  that the command runs for that criterion, a key on a step network only
  those of the spec whose step produced it (a later spec that reads an
  equal key scores it again). The masks are held until the command ends, at
  an eighth of the scores' bytes;
- the perplexities of a network on every corpus (``metrics.perplexities``,
  one forward per corpus on the tokens its eval windows read): magnitude
  under global initialization, for one, prunes the base to the same network
  whatever the dataset.

Every network a command evaluates is the base times a {0, 1} mask per
prunable layer, so a network is keyed by its zero pattern (``Memo._key``),
the base included.

Within one grid, a prune step depends only on what precedes it in its
ordering, and ``run_grid_cell`` runs each distinct step once. A sequential
sensitivity step scores the base on the token counts of the datasets seen so
far, which add exactly in any order (``importance``; this rests on ``model``'s
positionwise contract), so it depends only on that set of datasets. A
sequential baseline scores its parent's masked network, so it depends on the
ordering's prefix. Under global initialization a step depends only on its
dataset. On three corpora, the 18 steps of the six orderings are 7 sets for
sequential sensitivity, 15 prefixes for a sequential baseline and 3 datasets
for a global step. The steps form one table of ``Step`` records rooted at the
base (key ``()``), keyed by a ``frozenset`` of datasets, a prefix tuple or a
one-dataset tuple. Each is computed from its parent, the step before it on the
ordering's path (the root for a global step), by ``pruner.prune_step`` with
the memo's masks in place of ``pruner.score_masks``. A step keeps its pruned
network only when a later step scores it, as a sequential baseline's does; the
others keep masks, sparsity, perplexities and state, which only sequential
sensitivity carries. An ordering's report rows are read off its key path.
Only successes are kept: a score, mask build, evaluation or step that raises
raises again in every ordering that reaches it, and an ordering that retries
a step whose masks were built reads them from the memo.
"""
from __future__ import annotations

import csv
import io
import json
from copy import deepcopy
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .corpus import (CalibrationSet, Corpus, check_corpus_name, load_corpus, permutations,
                     sample_calibration)
from .errors import RECOVERABLE_ERRORS, InputError, UsageError
from .importance import ImportanceState, init_state
from .metrics import aggregate, perplexities
from .metrics import perplexity  # noqa: F401  perfbench's tracer patches it by this name
from .model import Network, load_checkpoint
from .pruner import DATA_CRITERIA, PruneConfig, ScoredNetwork, build_masks, prune_step, score_step
from .seeding import derive_seed
from .sensitivity import DEFAULT_EPSILON

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
    epsilon: float = DEFAULT_EPSILON
    w_draws: int = 1
    eval_fraction: float = 0.2
    init_mode_override: str | None = None  # force one mode for stasis demos
    sparsity_sweep: tuple[float, ...] = DEFAULT_SPARSITY_SWEEP
    samples_sweep: tuple[int, ...] = DEFAULT_SAMPLES_SWEEP
    ablate_criteria: tuple[str, ...] = ("sensitivity",)

    def __post_init__(self) -> None:
        for name, types, parse in _FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, types):
                kinds = " or ".join(t.__name__ for t in types)
                raise UsageError(f"{name} must be of type {kinds}, got {value!r}")
            if parse is not None:
                setattr(self, name, parse_items(name, value, parse))
        if not all(isinstance(k, str) and isinstance(v, str) for k, v in self.corpora.items()):
            raise UsageError(f"corpora must map names to paths, got {self.corpora!r}")
        for name in self.corpora:
            check_corpus_name(name, f"corpora entry {name!r}")
        if not self.corpora:
            raise UsageError("need at least one corpus")
        if not self.criteria or not self.ablate_criteria:
            raise UsageError("need at least one criterion")
        missing = [p for p in [self.model_path, *self.corpora.values()] if not Path(p).exists()]
        if missing:
            raise InputError(f"missing input files: {missing}")


def parse_items(name: str, value, parse) -> tuple:
    """A list from a JSON config, or a comma-separated string from a flag, as
    a tuple of parsed values; UsageError names the first item that does not
    parse or the first repeated value."""
    if isinstance(value, str):
        value = value.split(",")
    values = []
    for v in value:
        try:
            values.append(parse(v))
        except (TypeError, ValueError):
            raise UsageError(f"{name} has an item that does not parse: {v!r}") from None
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise UsageError(f"{name} repeats the value {repeated[0]!r}")
    return tuple(values)


def nm_pair(value) -> tuple[int, int]:
    """``"2:4"`` or ``[2, 4]`` as the pair ``(2, 4)``."""
    return tuple(int(v) for v in (value.split(":") if isinstance(value, str) else value))


_NUMBER = (int, float)
_LIST = (str, list, tuple)  # a comma-separated flag, a JSON list, a default

# Every ExperimentConfig field, the types it may have (a bool is no number)
# and a list field's item parser; checked, not coerced, so configs echo as given.
_FIELDS = (
    ("model_path", (str,), None), ("corpora", (dict,), None), ("seed", (int,), None),
    ("output_dir", (str,), None), ("criteria", _LIST, str), ("sparsities", _LIST, float),
    ("nm_patterns", _LIST, nm_pair), ("n_samples", (int,), None), ("seq_len", (int,), None),
    ("epsilon", _NUMBER, None), ("w_draws", (int,), None), ("eval_fraction", _NUMBER, None),
    ("init_mode_override", (str, type(None)), None), ("sparsity_sweep", _LIST, float),
    ("samples_sweep", _LIST, int), ("ablate_criteria", _LIST, str),
)


def _load_inputs(cfg: ExperimentConfig, runs) -> "Memo":
    """Load the model and corpora into the command's ``Memo``, after checking
    the sample count of every ``(PruneConfig, n_samples)`` run, so that a bad
    later value cannot discard finished grids."""
    for _, n_samples in runs:
        if n_samples < 1:
            raise UsageError(f"n_samples must be >= 1, got {n_samples}")
    net = load_checkpoint(cfg.model_path)
    corpora = {
        name: load_corpus(path, name, eval_fraction=cfg.eval_fraction)
        for name, path in cfg.corpora.items()
    }
    return Memo(cfg, net, corpora, runs)


class Memo:
    """One command's base network and corpora, and what it computes from
    them at most once for its ``(PruneConfig, n_samples)`` runs (see the
    module docstring): calibration sets, the masks of every scored key, and
    each distinct network's perplexities, all held until the command ends.
    It holds no score set and no step network."""

    def __init__(self, cfg: ExperimentConfig, base: Network, corpora: dict[str, Corpus], runs):
        self.cfg = cfg
        # never modified: prune_step builds new linear layers and shares the rest
        self.base = ScoredNetwork(base.layers, base.vocab_size, base.embed)
        self.corpora = corpora
        self._specs: dict[str, dict[tuple, PruneConfig]] = {}  # by criterion, (sparsity, nm)
        for config, _ in runs:
            self._specs.setdefault(config.criterion, {})[config.sparsity, config.nm] = config
        self._calib: dict[tuple, CalibrationSet] = {}
        # per scored key, every spec's masks, by (sparsity, nm)
        self._masks: dict[tuple, dict[tuple, dict[int, np.ndarray]]] = {}
        self._ppl: dict[bytes, dict[str, float]] = {}

    def calibration(self, name: str, n_samples: int) -> CalibrationSet:
        key = (name, n_samples)
        if key not in self._calib:
            self._calib[key] = sample_calibration(
                self.corpora[name], n_samples, self.cfg.seq_len,
                derive_seed(self.cfg.seed, "calib", name),
            )
        return self._calib[key]

    def masks(self, net: Network, config: PruneConfig, counts: np.ndarray) -> dict[int, np.ndarray]:
        """``prune_step``'s ``masks`` hook: ``build_masks(score_step(net,
        config, counts), config)``, held per ``(network, criterion, counts)``
        key, the network by its zero pattern (``_key``) and the counts only
        for a criterion that reads them (``DATA_CRITERIA``), until the
        command ends; the scores are dropped once the masks are built. The
        first read of a key on the base builds the masks of every spec of
        the command's runs of that criterion from one score set, since every
        spec scores the base. A step network's key builds the spec asked for,
        which alone produced that network; a later spec that reads an equal
        key scores it again. The rest of ``config`` (epsilon and draws, which
        scale sensitivity scores) comes from the one ``ExperimentConfig``."""
        data = counts.tobytes() if config.criterion in DATA_CRITERIA else None
        held = self._masks.setdefault((self._key(net), config.criterion, data), {})
        spec = (config.sparsity, config.nm)
        if spec not in held:
            scores = score_step(net, config, counts)
            specs = self._specs[config.criterion].values() if net is self.base else [config]
            held.update({(c.sparsity, c.nm): build_masks(scores, c) for c in specs})
        return held[spec]

    def perplexities(self, net: Network) -> dict[str, float]:
        """Perplexity of ``net`` on every corpus, in name order, computed
        once per distinct network: one forward per corpus, on the tokens its
        eval windows read."""
        key = self._key(net)
        if key not in self._ppl:
            self._ppl[key] = perplexities(net, self.corpora, self.cfg.seq_len)
        return dict(self._ppl[key])

    def _key(self, net: Network) -> bytes:
        """The packed zero pattern of each prunable weight, joined. Exact
        while ``net`` is the base times a {0, 1} mask: a masked entry is then
        ``+0.0`` or ``-0.0`` by the sign of the base entry, so equal patterns
        mean equal bytes. RuntimeError when ``net`` is not such a network."""
        idx = self.base.prunable_indices()
        same = net.prunable_indices() == idx and np.array_equal(net.embed, self.base.embed)
        pairs = [(net.layers[i].weight, self.base.layers[i].weight) for i in idx] if same else []
        if not (same and all(w.shape == b.shape and np.all((w == b) | (w == 0)) for w, b in pairs)):
            raise RuntimeError("the memo keys only its base network times a mask")
        return b"".join(np.packbits(w == 0).tobytes() for w, _ in pairs)


def _prune_config(cfg: ExperimentConfig, criterion: str, spec) -> PruneConfig:
    mode = cfg.init_mode_override or ("sequential" if criterion == "sensitivity" else "global")
    kwargs = {"sparsity": spec} if isinstance(spec, float) else {"nm": spec}
    return PruneConfig(criterion=criterion, init_mode=mode, seed=cfg.seed, epsilon=cfg.epsilon,
                       w_draws=cfg.w_draws, **kwargs)


class Step(NamedTuple):
    """One finished grid step; ``net`` is None once no later step scores it
    (every step but a sequential baseline's), ``state`` is None unless the
    grid accumulates, and the root has no masks, sparsity or perplexities."""

    net: Network | None
    masks: dict[int, np.ndarray] | None
    sparsity: float | None
    ppls: dict[str, float] | None
    state: ImportanceState | None


def run_grid_cell(memo: Memo, pconfig: PruneConfig, n_samples: int) -> dict:
    """Full permutation grid for one criterion and sparsity spec, as its
    ``grid.json`` entry. ``steps`` is one table rooted at the base (``()``);
    each ``Step`` is keyed by its set of datasets (sequential sensitivity),
    its prefix (a sequential baseline) or its dataset alone (global), and
    hangs off the step before it on an ordering's path, or off the root. An
    ordering builds the steps its key path lacks, adding only an ``errors``
    entry if that fails; its rows are then read off the path."""
    names = sorted(memo.corpora)
    calib_sets = {name: memo.calibration(name, n_samples) for name in names}
    sequential = pconfig.init_mode == "sequential"
    by_set = sequential and pconfig.criterion == "sensitivity"

    paths: dict[tuple[str, ...], list[dict[str, float]]] = {}
    ws_perms: list[str] = []
    step_stats: list[dict] = []
    errors: list[dict] = []
    root_state = init_state(memo.base) if by_set else None
    steps: dict[tuple | frozenset, Step] = {(): Step(memo.base, None, None, None, root_state)}
    for pi in permutations(names):
        if sequential and not by_set:  # sorted orderings: a prefix off this path never recurs
            steps = {prefix: v for prefix, v in steps.items() if pi[: len(prefix)] == prefix}
        keys = [frozenset(pi[:step]) if by_set else pi[:step] if sequential else (name,)
                for step, name in enumerate(pi, start=1)]
        parents = [(), *keys[:-1]] if sequential else [()] * len(keys)
        try:
            for key, parent, name in zip(keys, parents, pi):
                if key not in steps:
                    steps[key] = _prune_and_evaluate(memo, steps[parent], pconfig, calib_sets[name])
        except RECOVERABLE_ERRORS as exc:  # keep other orderings running
            errors.append({"permutation": ">".join(pi), "error": f"{type(exc).__name__}: {exc}"})
            continue
        path = [steps[key] for key in keys]
        hamming = [None] + [sum(int(np.sum(prev.masks[i] != cur.masks[i])) for i in cur.masks)
                            for prev, cur in zip(path, path[1:])]
        for step, (ds_name, cur, distance) in enumerate(zip(pi, path, hamming), start=1):
            step_stats.append({"permutation": ">".join(pi), "step": step,
                               "pruned_dataset": ds_name, "overall_sparsity": cur.sparsity,
                               "hamming_vs_prev": distance})
        paths[pi] = [cur.ppls for cur in path]
        if len(path) > 1 and not any(hamming[1:]):  # every transition kept every mask bit
            ws_perms.append(">".join(pi))
        del path, cur  # so that the next ordering's filter frees the steps off its path
    return {
        "criterion": pconfig.criterion,
        "spec": pconfig.spec_label(),
        "ws": bool(paths) and len(ws_perms) == len(paths),
        "ws_permutations": ws_perms,
        "report": aggregate(paths) if paths else None,
        "step_stats": step_stats,
        "errors": errors,
        "complete": not errors,
    }


def _prune_and_evaluate(memo: Memo, parent: Step, pconfig: PruneConfig,
                        calib: CalibrationSet) -> Step:
    """One prune step after ``parent``, and the pruned network's perplexities,
    as a ``Step``. Only sequential sensitivity's steps carry a state, each a
    copy of its parent's, so a kept state never changes. Only a sequential
    baseline's step keeps its network: every other step scores the base."""
    state = deepcopy(parent.state)
    pruned, masks, frag = prune_step(parent.net, state, pconfig, calib, memo.base, memo.masks)
    ppls = memo.perplexities(pruned)
    if state is not None or pconfig.init_mode == "global":
        pruned = None
    return Step(pruned, masks, frag["overall_sparsity"], ppls, state)


def dense_row(memo: Memo) -> dict:
    ppls = memo.perplexities(memo.base)
    values = list(ppls.values())
    return {
        "per_dataset": ppls,
        "a_ppl": sum(values) / len(values),
        "m_ppl": max(values),
    }


def run_continual(cfg: ExperimentConfig) -> dict:
    """Run the full grid; returns the result dict and writes report files."""
    specs = [*cfg.sparsities, *cfg.nm_patterns]
    runs = [(_prune_config(cfg, criterion, spec), cfg.n_samples)
            for criterion in cfg.criteria for spec in specs]
    memo = _load_inputs(cfg, runs)
    dense = dense_row(memo)
    entries = [run_grid_cell(memo, *run) for run in runs]
    grids = {f"{e['criterion']}:{e['spec']}": e for e in entries}
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
    skip = ("output_dir", "sparsity_sweep", "samples_sweep", "ablate_criteria")
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
    with open(out_dir / "grid.json", "w") as f:  # streamed: no whole-document string
        f.writelines(json.JSONEncoder(indent=2, sort_keys=True).iterencode(out))
        f.write("\n")
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
    runs = [(s, (_prune_config(cfg, c, s), cfg.n_samples))
            for s in cfg.sparsity_sweep for c in cfg.criteria]
    return _ablation(cfg, "ablation_sparsity.csv", "sparsity", runs)


def run_ablation_samples(cfg: ExperimentConfig) -> list[dict]:
    """Sweep calibration sample counts at fixed 0.5 unstructured sparsity;
    one row per (``ablate_criteria`` criterion, sample count)."""
    runs = [(n, (_prune_config(cfg, c, 0.5), n))
            for n in cfg.samples_sweep for c in cfg.ablate_criteria]
    return _ablation(cfg, "ablation_samples.csv", "n_samples", runs)


def _ablation(cfg: ExperimentConfig, filename: str, sweep_key: str, runs) -> list[dict]:
    """One grid per ``(sweep value, (PruneConfig, n_samples))`` run and one
    row per grid, also written to ``filename``."""
    memo = _load_inputs(cfg, [run for _, run in runs])
    rows: list[dict] = []
    for value, run in runs:
        entry = run_grid_cell(memo, *run)
        summary = _summary(entry)
        row = {"criterion": run[0].criterion, sweep_key: value}
        if summary is None:
            row.update({"a_bwt": None, "m_bwt": None, "error": True})
        else:
            row.update({"a_bwt": summary[2], "m_bwt": summary[3]})
        rows.append(row)
    header = ["criterion", sweep_key, "a_bwt", "m_bwt"]
    _write_csv(Path(cfg.output_dir) / filename, [header, *([r[k] for k in header] for r in rows)])
    return rows
