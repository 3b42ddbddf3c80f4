"""Minimal SGD trainer producing the desk-scale base checkpoints.

Plain stochastic gradient descent with global-norm clipping; reverse-mode
gradients exist only here (the pruning criteria never backpropagate).
Batches are windows drawn uniformly from the calibration ranges of the
given corpora, so the evaluation splits stay unseen.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .errors import TrainingError, UsageError
from .model import Network, LAYER_NORM_EPS, _GELU_A, _GELU_C

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


def _activation_forward(kind: str, x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Activation output plus the cache its backward pass needs."""
    if kind == "relu":
        return np.maximum(x, 0.0), (x > 0,)
    if kind == "tanh":
        t = np.tanh(x)
        return t, (t,)
    if kind == "gelu":
        t = np.tanh(_GELU_C * (x + _GELU_A * x * x * x))
        return 0.5 * x * (1.0 + t), (x, t)
    raise ValueError(f"unknown activation kind {kind!r}")


def _activation_grad(kind: str, cache: tuple) -> np.ndarray:
    if kind == "relu":
        return cache[0].astype(np.float64)
    if kind == "tanh":
        t = cache[0]
        return 1.0 - t * t
    x, t = cache
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)


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
    """Mean cross-entropy over all next-token positions plus gradients."""
    inputs = windows[:, :-1].ravel()
    targets = windows[:, 1:].ravel()
    n = inputs.size

    x = net.embed[inputs].T  # (d, n)
    caches = []
    for layer in net.layers:
        if layer.kind == "linear":
            caches.append(("linear", x))
            x = layer.weight @ x
        elif layer.kind == "activation":
            x, cache = _activation_forward(layer.activation_kind, x)
            caches.append(("activation", cache))
        else:
            mu = x.mean(axis=0, keepdims=True)
            var = x.var(axis=0, keepdims=True)
            inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
            xhat = (x - mu) * inv_std
            caches.append(("layer_norm", (xhat, inv_std)))
            x = xhat * layer.gain[:, None] + layer.bias[:, None]
    h = x

    logits = net.embed @ h  # (vocab, n)
    zmax = logits.max(axis=0, keepdims=True)
    expz = np.exp(logits - zmax)
    probs = expz / expz.sum(axis=0, keepdims=True)
    cols = np.arange(n)
    loss = float(-np.mean(np.log(probs[targets, cols])))

    dlogits = probs
    dlogits[targets, cols] -= 1.0
    dlogits /= n

    d_embed = dlogits @ h.T  # head side
    dx = net.embed.T @ dlogits

    grads: dict[int, dict[str, np.ndarray]] = {}
    for idx in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[idx]
        kind, cache = caches[idx]
        if kind == "linear":
            grads[idx] = {"weight": dx @ cache.T}
            dx = layer.weight.T @ dx
        elif kind == "activation":
            dx = dx * _activation_grad(layer.activation_kind, cache)
        else:
            xhat, inv_std = cache
            dgain = (dx * xhat).sum(axis=1)
            dbias = dx.sum(axis=1)
            dxhat = dx * layer.gain[:, None]
            m1 = dxhat.mean(axis=0, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=0, keepdims=True)
            dx = inv_std * (dxhat - m1 - xhat * m2)
            grads[idx] = {"gain": dgain, "bias": dbias}

    np.add.at(d_embed, inputs, dx.T)  # lookup side, tied with the head
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
