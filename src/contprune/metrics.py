"""Perplexity evaluation, backward transfer, and permutation aggregates.

``perplexities`` checks every corpus's eval windows, then scores each
corpus from one ``forward`` on the distinct tokens its windows read (13-30
of the 256 on the shipped corpora). A forward matches a wider one only to
within rounding (``model.LAYER_KINDS``), so a corpus's perplexity depends on
the network and that corpus alone, never on which corpora are evaluated with
it.

The evaluation grid is indexed by (permutation, prune step, eval dataset):
cell ``(pi, i, j)`` holds the perplexity on dataset ``j`` after the i-th
prune step of ordering ``pi``. Backward transfer for a dataset ``j`` pruned
at step ``s_j`` and re-evaluated after a later step ``i`` is

    bwt = ppl(i, j) - ppl(s_j, j)

so positive values mean forgetting. Values can legitimately be negative
(later pruning may help an earlier dataset) and are never clamped.

Aggregates: A-PPL / M-PPL are the mean / max perplexity over all cells,
A-BWT / M-BWT the mean / max over all backward-transfer entries, plus
per-dataset mean and (population) standard deviation blocks. ``aggregate``
returns them, with the cells and backward-transfer entries, as the plain
dict that each ``grid.json`` entry stores as its ``report``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .errors import CompletenessError, InputError, NumericalError
from .model import Network, check_tokens, forward


def perplexity(net: Network, corpus: Corpus, seq_len: int = 128) -> float:
    """Mean over non-overlapping eval windows of exp(mean token NLL).

    The eval split is cut into ``len // seq_len`` windows of ``seq_len``
    tokens; a trailing remainder is not scored. Window ``w`` scores its
    ``seq_len - 1`` next-token predictions: its value is
    ``exp(-mean_t logp[w[t], w[t + 1]])``, where ``logp[a]`` is the
    log-softmax of the logits that follow token ``a``. Every layer is
    positionwise, so those logits are what ``forward`` gives at any
    position that reads ``a``; they are computed once per distinct token
    the windows read. This is the one-corpus case of ``perplexities``.
    """
    return perplexities(net, {corpus.name: corpus}, seq_len)[corpus.name]


def perplexities(net: Network, corpora: dict[str, Corpus], seq_len: int = 128) -> dict[str, float]:
    """``perplexity`` of ``net`` on each corpus, by name in name order.

    Every corpus's eval windows are checked first (InputError). Then each
    corpus in name order takes one ``forward`` on the distinct tokens its
    windows read as input, and every window is a gather from those rows and
    their log-softmax. NumericalError names the first window, in name
    order, that reads a non-finite row.
    """
    windows = {name: _eval_windows(net, corpora[name], seq_len) for name in sorted(corpora)}
    out: dict[str, float] = {}
    for name, w in windows.items():
        read = np.flatnonzero(np.bincount(w[:, :-1].ravel()))
        logits = forward(net, np.append(read, 0))  # row r: logits after token read[r]
        row = np.zeros(net.vocab_size, dtype=np.int64)
        row[read] = np.arange(read.size)
        prev, targets = row[w[:, :-1]], w[:, 1:]
        finite = np.all(np.isfinite(logits), axis=1)
        if not finite.all():
            bad = ~np.all(finite[prev], axis=1)
            raise NumericalError(
                f"non-finite logits on window {int(np.argmax(bad))} of {corpora[name].name!r}"
            )
        # log-softmax via log-sum-exp, row by row; no token can hit probability
        # zero. exp in place: one temporary of the rows' size
        zmax = logits.max(axis=1, keepdims=True)
        shifted = logits - zmax
        logz = zmax[:, 0] + np.log(np.exp(shifted, out=shifted).sum(axis=1))
        logp = logits[prev, targets] - logz[prev]
        out[name] = float(np.exp(-logp.mean(axis=1)).mean())
    return out


def _eval_windows(net: Network, corpus: Corpus, seq_len: int) -> np.ndarray:
    """The eval split's checked tokens as (n_windows, seq_len) windows."""
    if seq_len < 2:
        raise InputError(f"seq_len must be >= 2, got {seq_len}")
    tokens = corpus.eval_tokens()
    n_windows = len(tokens) // seq_len
    if n_windows == 0:
        raise InputError(
            f"eval split of {corpus.name!r} has {len(tokens)} tokens, "
            f"fewer than one window of {seq_len}"
        )
    return check_tokens(net, tokens[: n_windows * seq_len]).reshape(n_windows, seq_len)


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


def _required_coords(perms, datasets):
    for pi in perms:
        for step in range(1, len(pi) + 1):
            for ds in datasets:
                yield (pi, step, ds)


def aggregate(
    cells,
    permutations: list[tuple[str, ...]] | None = None,
    datasets: list[str] | None = None,
) -> dict:
    """Fold a complete cell grid into the report that ``grid.json`` stores:
    ``cells`` in (permutation, step, eval dataset) order, ``bwt_entries``,
    ``aggregates`` (``a_bwt``/``m_bwt`` None when the grid has no backward
    pairs) and ``per_dataset``.

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

    # the later step is the one whose pruning is charged; the eval dataset
    # was pruned at an earlier step
    bwt_entries: list[dict] = []
    for pi in permutations:
        step_of = {ds: k + 1 for k, ds in enumerate(pi)}
        for step in range(2, len(pi) + 1):
            for ds in pi:
                if step_of[ds] < step:
                    value = bwt_cell(index[(pi, step, ds)], index[(pi, step_of[ds], ds)])
                    bwt_entries.append(
                        {"permutation": list(pi), "step": step, "eval_dataset": ds, "value": value}
                    )

    ppls = np.array([c.perplexity for c in cells])
    bwts = np.array([b["value"] for b in bwt_entries]) if bwt_entries else None
    per_dataset: dict[str, dict] = {}
    for ds in datasets:
        ds_ppl = np.array([c.perplexity for c in cells if c.eval_dataset == ds])
        entry = {
            "ppl_mean": float(ds_ppl.mean()),
            "ppl_std": float(ds_ppl.std()),
        }
        ds_bwt = np.array([b["value"] for b in bwt_entries if b["eval_dataset"] == ds])
        if ds_bwt.size:
            entry["bwt_mean"] = float(ds_bwt.mean())
            entry["bwt_std"] = float(ds_bwt.std())
        per_dataset[ds] = entry

    return {
        "cells": [
            {
                "permutation": list(c.permutation),
                "step": c.step,
                "pruned_dataset": c.pruned_dataset,
                "eval_dataset": c.eval_dataset,
                "perplexity": c.perplexity,
            }
            for c in cells
        ],
        "bwt_entries": bwt_entries,
        "aggregates": {
            "a_ppl": float(ppls.mean()),
            "m_ppl": float(ppls.max()),
            "a_bwt": float(bwts.mean()) if bwts is not None else None,
            "m_bwt": float(bwts.max()) if bwts is not None else None,
        },
        "per_dataset": per_dataset,
    }
