"""Perplexity evaluation, backward transfer, and permutation aggregates.

The evaluation grid is indexed by (permutation, prune step, eval dataset):
cell ``(pi, i, j)`` holds the perplexity on dataset ``j`` after the i-th
prune step of ordering ``pi``. Backward transfer for a dataset ``j`` pruned
at step ``s_j`` and re-evaluated after a later step ``i`` is

    bwt = ppl(i, j) - ppl(s_j, j)

so positive values mean forgetting. Values can legitimately be negative
(later pruning may help an earlier dataset) and are never clamped.

Aggregates: A-PPL / M-PPL are the mean / max perplexity over all cells,
A-BWT / M-BWT the mean / max over all backward-transfer entries, plus
per-dataset mean and (population) standard deviation blocks.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus
from .errors import CompletenessError, InputError, NumericalError
from .model import Network, forward


def perplexity(net: Network, corpus: Corpus, seq_len: int = 128) -> float:
    """Mean over non-overlapping eval windows of exp(mean token NLL)."""
    tokens = corpus.eval_tokens()
    n_windows = len(tokens) // seq_len
    if n_windows == 0:
        raise InputError(
            f"eval split of {corpus.name!r} has {len(tokens)} tokens, "
            f"fewer than one window of {seq_len}"
        )
    ppls = np.empty(n_windows)
    for w in range(n_windows):
        window = tokens[w * seq_len : (w + 1) * seq_len]
        logits = forward(net, window)
        if not np.all(np.isfinite(logits)):
            raise NumericalError(f"non-finite logits on window {w} of {corpus.name!r}")
        # log-softmax via log-sum-exp; no token can hit probability zero
        zmax = logits.max(axis=1, keepdims=True)
        logz = zmax[:, 0] + np.log(np.exp(logits - zmax).sum(axis=1))
        targets = window[1:]
        logp = logits[np.arange(len(targets)), targets] - logz
        ppls[w] = np.exp(-logp.mean())
    return float(ppls.mean())


@dataclass(frozen=True)
class EvalCell:
    permutation: tuple[str, ...]
    step: int  # 1-based position in the permutation
    eval_dataset: str
    perplexity: float

    @property
    def pruned_dataset(self) -> str:
        return self.permutation[self.step - 1]


def bwt_cell(p_after: float, p_immediate: float) -> float:
    """Backward transfer: perplexity drift since the dataset was pruned on."""
    if not (np.isfinite(p_after) and np.isfinite(p_immediate)):
        raise NumericalError("backward transfer needs finite perplexities")
    return float(p_after - p_immediate)


@dataclass(frozen=True)
class BwtEntry:
    permutation: tuple[str, ...]
    step: int  # the later step whose pruning is being charged
    eval_dataset: str  # a dataset pruned at an earlier step
    value: float


@dataclass
class RunReport:
    cells: list[EvalCell]
    bwt_entries: list[BwtEntry]
    a_ppl: float
    m_ppl: float
    a_bwt: float | None  # None when the grid has no backward pairs
    m_bwt: float | None
    per_dataset: dict[str, dict] = field(default_factory=dict)


def _required_coords(perms, datasets):
    for pi in perms:
        for step in range(1, len(pi) + 1):
            for ds in datasets:
                yield (pi, step, ds)


def aggregate(
    cells,
    permutations: list[tuple[str, ...]] | None = None,
    datasets: list[str] | None = None,
) -> RunReport:
    """Fold a complete cell grid into a RunReport.

    The expected schedule is derived from the cells when not given
    explicitly: every permutation present must have one cell per
    (step, eval dataset) combination.
    """
    cells = sorted(cells, key=lambda c: (c.permutation, c.step, c.eval_dataset))
    if not cells:
        raise CompletenessError("no cells to aggregate")
    if datasets is None:
        datasets = sorted({c.eval_dataset for c in cells})
    if permutations is None:
        permutations = sorted({c.permutation for c in cells})
    index: dict[tuple, float] = {}
    for c in cells:
        index[(c.permutation, c.step, c.eval_dataset)] = c.perplexity
    missing = [k for k in _required_coords(permutations, datasets) if k not in index]
    if missing:
        desc = ", ".join(f"({'>'.join(p)}, step {s}, {d})" for p, s, d in missing[:8])
        raise CompletenessError(
            f"{len(missing)} missing cell(s) in the evaluation grid: {desc}"
        )

    bwt_entries: list[BwtEntry] = []
    for pi in permutations:
        step_of = {ds: k + 1 for k, ds in enumerate(pi)}
        for step in range(2, len(pi) + 1):
            for ds in pi:
                if step_of[ds] < step:
                    value = bwt_cell(index[(pi, step, ds)], index[(pi, step_of[ds], ds)])
                    bwt_entries.append(
                        BwtEntry(permutation=pi, step=step, eval_dataset=ds, value=value)
                    )

    ppls = np.array([c.perplexity for c in cells])
    bwts = np.array([b.value for b in bwt_entries]) if bwt_entries else None
    per_dataset: dict[str, dict] = {}
    for ds in datasets:
        ds_ppl = np.array([c.perplexity for c in cells if c.eval_dataset == ds])
        entry = {
            "ppl_mean": float(ds_ppl.mean()),
            "ppl_std": float(ds_ppl.std()),
        }
        ds_bwt = np.array([b.value for b in bwt_entries if b.eval_dataset == ds])
        if ds_bwt.size:
            entry["bwt_mean"] = float(ds_bwt.mean())
            entry["bwt_std"] = float(ds_bwt.std())
        per_dataset[ds] = entry

    return RunReport(
        cells=cells,
        bwt_entries=bwt_entries,
        a_ppl=float(ppls.mean()),
        m_ppl=float(ppls.max()),
        a_bwt=float(bwts.mean()) if bwts is not None else None,
        m_bwt=float(bwts.max()) if bwts is not None else None,
        per_dataset=per_dataset,
    )


def report_to_dict(report: RunReport) -> dict:
    return {
        "cells": [
            {
                "permutation": list(c.permutation),
                "step": c.step,
                "pruned_dataset": c.pruned_dataset,
                "eval_dataset": c.eval_dataset,
                "perplexity": c.perplexity,
            }
            for c in report.cells
        ],
        "bwt_entries": [
            {
                "permutation": list(b.permutation),
                "step": b.step,
                "eval_dataset": b.eval_dataset,
                "value": b.value,
            }
            for b in report.bwt_entries
        ],
        "aggregates": {
            "a_ppl": report.a_ppl,
            "m_ppl": report.m_ppl,
            "a_bwt": report.a_bwt,
            "m_bwt": report.m_bwt,
        },
        "per_dataset": report.per_dataset,
    }
