"""Minimal SGD trainer producing the desk-scale base checkpoints.

Plain stochastic gradient descent with global-norm clipping; reverse-mode
gradients exist only here (the pruning criteria never backpropagate).
Batches are windows drawn uniformly from the calibration ranges of the
given corpora, so the evaluation splits stay unseen.

The forward pass is the model's: every layer is positionwise, so a batch's
loss is a sum over its bigram counts of the vocabulary table's rows. A step
runs ``model.layer_inputs`` only on the batch's distinct previous tokens
(about 60 of the 256 for a 16 x 64 batch on the shipped corpora), which
gives every input the backward pass needs. Only the backward pass lives here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .errors import TrainingError, UsageError
from .model import Network, activation_grad, check_tokens, layer_inputs, standardize, vocabulary_tokens

CLIP_NORM = 1.0


@dataclass
class TrainConfig:
    steps: int = 3000
    batch: int = 16
    seq_len: int = 64
    learning_rate: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise UsageError(f"steps must be >= 0, got {self.steps}")
        if not 0.0 < self.learning_rate < 1.0:
            raise UsageError(f"learning_rate must be in (0, 1), got {self.learning_rate}")
        if self.batch < 1 or self.seq_len < 2:
            raise UsageError("need batch >= 1 and seq_len >= 2")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")


def _sample_batch(corpora: list[Corpus], batch: int, seq_len: int, rng) -> np.ndarray:
    windows = np.empty((batch, seq_len), dtype=np.int64)
    picks = rng.integers(0, len(corpora), size=batch)
    for b in range(batch):
        calib = corpora[picks[b]].calibration_tokens()
        if len(calib) < seq_len:
            raise UsageError(
                f"corpus {corpora[picks[b]].name!r} calibration range shorter "
                f"than seq_len={seq_len}"
            )
        start = rng.integers(0, len(calib) - seq_len + 1)
        windows[b] = calib[start : start + seq_len]
    return windows


def _loss_and_grads(net: Network, windows: np.ndarray):
    """Mean cross-entropy over all next-token positions plus gradients.

    Position ``(a, b)`` (previous token, target) reads row ``a`` of the
    vocabulary table, so with the batch's bigram counts ``C[a, b]`` over
    ``n`` positions the loss is ``-sum(C * logp) / n`` and the logit
    gradient of row ``a`` is ``(rowcount[a] * softmax[a] - C[a]) / n``.
    Only the rows of the batch's previous tokens are computed; the others
    add nothing to the loss. A non-finite embedding row still makes the loss
    non-finite, read or not: the tied head puts every embedding row into the
    logits of each computed row.
    """
    windows = check_tokens(net, windows.ravel()).reshape(windows.shape)
    prev, targets = windows[:, :-1].ravel(), windows[:, 1:].ravel()
    n = prev.size
    active, row = np.unique(prev, return_inverse=True)
    counts = np.zeros((active.size, net.vocab_size))
    np.add.at(counts, (row, targets), 1.0)

    # column i: token active[i] (the trailing 0 is never an input)
    xs = layer_inputs(net, np.append(vocabulary_tokens(net)[active], 0))
    h = xs[-1]
    logits = (net.embed @ h).T  # (n_active, vocab), row i: logits after token active[i]
    z = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(z)
    sumz = expz.sum(axis=1, keepdims=True)
    loss = float(-(counts * (z - np.log(sumz))).sum() / n)
    dlogits = (counts.sum(axis=1, keepdims=True) * (expz / sumz) - counts) / n

    d_embed = dlogits.T @ h.T  # head side: every row
    dx = net.embed.T @ dlogits.T

    grads: dict[int, dict[str, np.ndarray]] = {}
    for idx in range(len(net.layers) - 1, -1, -1):
        layer, x = net.layers[idx], xs[idx]
        if layer.kind == "linear":
            grads[idx] = {"weight": dx @ x.T}
            dx = layer.weight.T @ dx
        elif layer.kind == "activation":
            dx = dx * activation_grad(layer.activation_kind, x)
        else:
            xhat, std = standardize(x)
            grads[idx] = {"gain": (dx * xhat).sum(axis=1), "bias": dx.sum(axis=1)}
            dxhat = dx * layer.gain[:, None]
            m1 = dxhat.mean(axis=0, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=0, keepdims=True)
            dx = (dxhat - m1 - xhat * m2) / std

    d_embed[active] += dx.T  # lookup side, tied with the head: each active row once
    return loss, d_embed, grads


def train(
    net: Network,
    corpora: list[Corpus],
    cfg: TrainConfig,
    loss_log: list[float] | None = None,
) -> Network:
    """Train a copy of ``net`` on the corpus mixture; ``net`` is untouched.

    Deterministic under cfg.seed. Appends the per-step loss to ``loss_log``
    when a list is supplied. Raises TrainingError on divergence.
    """
    if not corpora:
        raise UsageError("need at least one corpus to train on")
    out = net.copy()
    rng = np.random.default_rng(cfg.seed)
    lr = cfg.learning_rate
    for step in range(cfg.steps):
        windows = _sample_batch(corpora, cfg.batch, cfg.seq_len, rng)
        loss, d_embed, grads = _loss_and_grads(out, windows)
        if not np.isfinite(loss):
            raise TrainingError(
                f"loss became non-finite at step {step}; try a smaller learning_rate"
            )
        if loss_log is not None:
            loss_log.append(loss)

        sq = float((d_embed * d_embed).sum())
        for g in grads.values():
            for arr in g.values():
                sq += float((arr * arr).sum())
        norm = np.sqrt(sq)
        factor = lr if norm <= CLIP_NORM else lr * CLIP_NORM / norm

        out.embed -= factor * d_embed
        for idx, g in grads.items():
            layer = out.layers[idx]
            if "weight" in g:
                layer.weight -= factor * g["weight"]
            else:
                layer.gain -= factor * g["gain"]
                layer.bias -= factor * g["bias"]
    return out
