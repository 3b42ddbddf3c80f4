"""The sampled sensitivity reference: finite-difference sensitivity of layer
outputs to weight and input perturbations, and the loss gradient it gives.

For a layer ``y = f(x, W)`` and small perturbations ``dW``, ``dx``:

    s_w  = f(W + dW, x) - y          output change from the weight side
    s_x  = f(W, x + dx) - y          output change from the input side
    dy   = s_w + s_x                 combined first-order output change
    g    = x                  if f is a bare linear map
         = pinv(dW) @ s_w     otherwise (finite-difference surrogate)
    grad = 2 * dy @ g.T              gradient of ||dy||^2 wrt dW

Vectors are columns: ``x`` is (in_dim, 1), ``y`` and the sensitivities are
(out_dim, 1), and ``grad`` is congruent to the weight (out_dim, in_dim).

For bare linear layers the finite differences collapse algebraically to
``dW @ x`` and ``W @ dx``; those exact forms are used directly, which avoids
the cancellation error of evaluating ``f(W + dW, x) - f(W, x)`` in floating
point.

No command draws this noise: ``pruner.expected_gradient_magnitude`` scores
its expectation in closed form, and ``tests/test_pruner.py`` holds that to the
many-draw average of the batch functions (``batch_input_perturbation``,
``batch_gradient_magnitude``, ``scaled_gaussian``). Of this module, the
command path reads ``DEFAULT_EPSILON`` only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NumericalError, ShapeError, UsageError
from .model import Layer, layer_forward, linear

DEFAULT_EPSILON = 1e-3


@dataclass(frozen=True, eq=False)
class Perturbation:
    """Scaled random perturbations for one (weight, input) pair.

    delta_w and delta_x are Gaussian, rescaled so that RMS(delta_w) equals
    epsilon * RMS(W) and RMS(delta_x) equals epsilon * RMS(x). A dense
    Gaussian matrix is full-rank almost surely, which the pseudoinverse
    surrogate requires.
    """

    delta_w: np.ndarray | None
    delta_x: np.ndarray | None


def scaled_gaussian(shape, target_rms: float, rng: np.random.Generator) -> np.ndarray:
    """Gaussian array rescaled to an exact root-mean-square value."""
    g = rng.standard_normal(shape)
    rms = float(np.sqrt(np.mean(g * g)))
    if rms == 0.0 or target_rms == 0.0:
        return np.zeros(shape)
    return g * (target_rms / rms)


def make_perturbation(
    weight: np.ndarray | None,
    x: np.ndarray | None,
    epsilon: float = DEFAULT_EPSILON,
    seed: int = 0,
) -> Perturbation:
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise UsageError(f"epsilon must be positive and finite, got {epsilon}")
    rng = np.random.default_rng(seed)
    delta_w = None
    if weight is not None:
        w = np.asarray(weight, dtype=np.float64)
        delta_w = scaled_gaussian(w.shape, epsilon * float(np.sqrt(np.mean(w * w))), rng)
    delta_x = None
    if x is not None:
        xv = np.asarray(x, dtype=np.float64)
        delta_x = scaled_gaussian(xv.shape, epsilon * float(np.sqrt(np.mean(xv * xv))), rng)
    return Perturbation(delta_w=delta_w, delta_x=delta_x)


def unit_forward(layer: Layer, x: np.ndarray, post: Layer | None = None) -> np.ndarray:
    """Evaluate ``layer`` (optionally fused with a following layer ``post``)."""
    y = layer_forward(layer, x)
    if post is not None:
        y = layer_forward(post, y)
    return y


def _is_bare_linear(layer: Layer, post: Layer | None) -> bool:
    return layer.kind == "linear" and post is None


def sensitivity_w(
    layer: Layer,
    x: np.ndarray,
    y: np.ndarray,
    pert: Perturbation,
    post: Layer | None = None,
) -> np.ndarray:
    """Output change under the weight perturbation: f(W + dW, x) - y."""
    if layer.weight is None:
        raise UsageError(f"{layer.kind} layer has no weight to perturb")
    if pert.delta_w is None or pert.delta_w.shape != layer.weight.shape:
        raise ShapeError("perturbation delta_w is missing or not congruent to weight")
    if _is_bare_linear(layer, post):
        return pert.delta_w @ x  # exact: (W + dW) x - W x == dW x
    return unit_forward(linear(layer.weight + pert.delta_w), x, post=post) - y


def sensitivity_x(
    layer: Layer,
    x: np.ndarray,
    y: np.ndarray,
    pert: Perturbation,
    post: Layer | None = None,
) -> np.ndarray:
    """Output change under the input perturbation: f(W, x + dx) - y."""
    if pert.delta_x is None or pert.delta_x.shape != np.shape(x):
        raise ShapeError("perturbation delta_x is missing or not congruent to input")
    if _is_bare_linear(layer, post):
        return layer.weight @ pert.delta_x  # exact: W (x + dx) - W x == W dx
    return unit_forward(layer, np.asarray(x) + pert.delta_x, post=post) - y


def dfdw_surrogate(
    layer: Layer,
    x: np.ndarray,
    s_w: np.ndarray,
    pert: Perturbation,
    post: Layer | None = None,
) -> np.ndarray:
    """Collapsed weight-derivative of f, shaped like the input ``x``.

    Bare linear layers have the exact value ``x``. Otherwise the surrogate
    is ``pinv(delta_w) @ s_w``, which requires delta_w to be full-rank: a
    rank-deficient perturbation raises NumericalError so the caller can
    regenerate it from a different seed.
    """
    if _is_bare_linear(layer, post):
        return np.asarray(x, dtype=np.float64).copy()
    if pert.delta_w is None:
        raise ShapeError("nonlinear surrogate needs a weight perturbation")
    dw = pert.delta_w
    if linalg.rank(dw) < min(dw.shape):
        raise NumericalError(
            f"delta_w of shape {dw.shape} is rank-deficient; regenerate the "
            f"perturbation with a different seed"
        )
    return linalg.pseudoinverse(dw) @ s_w


def loss_gradient(dy: np.ndarray, dfdw: np.ndarray) -> np.ndarray:
    """Gradient of the squared output change wrt the weight perturbation.

    ``dy`` is (out_dim, 1) and ``dfdw`` is (in_dim, 1); the result is the
    outer product ``2 * dy @ dfdw.T`` of shape (out_dim, in_dim).
    """
    dy = np.asarray(dy, dtype=np.float64)
    dfdw = np.asarray(dfdw, dtype=np.float64)
    if dy.ndim != 2 or dy.shape[1] != 1 or dfdw.ndim != 2 or dfdw.shape[1] != 1:
        raise ShapeError(
            f"loss_gradient expects column vectors, got {dy.shape} and {dfdw.shape}"
        )
    return 2.0 * dy @ dfdw.T


@dataclass(frozen=True, eq=False)
class SensitivityRecord:
    s_w: np.ndarray
    s_x: np.ndarray
    dy: np.ndarray
    dfdw: np.ndarray
    grad: np.ndarray


def _terms(layer: Layer, x: np.ndarray, y, pert: Perturbation, post: Layer | None):
    """(s_w, s_x, dy, dfdw) for one input column or a batch of columns."""
    s_w = sensitivity_w(layer, x, y, pert, post=post)
    s_x = sensitivity_x(layer, x, y, pert, post=post)
    return s_w, s_x, s_w + s_x, dfdw_surrogate(layer, x, s_w, pert, post=post)


def record(
    layer: Layer,
    x: np.ndarray,
    y: np.ndarray,
    pert: Perturbation,
    post: Layer | None = None,
) -> SensitivityRecord:
    """Full sensitivity record for one (layer, input) pair."""
    s_w, s_x, dy, dfdw = _terms(layer, x, y, pert, post)
    return SensitivityRecord(s_w=s_w, s_x=s_x, dy=dy, dfdw=dfdw, grad=loss_gradient(dy, dfdw))


def batch_input_perturbation(
    x_batch: np.ndarray, epsilon: float, rng: np.random.Generator
) -> np.ndarray:
    """Per-column input perturbations: RMS(dx_p) = epsilon * RMS(x_p) for each
    column p of ``x_batch``."""
    x_batch = np.asarray(x_batch, dtype=np.float64)
    g = rng.standard_normal(x_batch.shape)
    g_rms = np.sqrt(np.mean(g * g, axis=0, keepdims=True))
    x_rms = np.sqrt(np.mean(x_batch * x_batch, axis=0, keepdims=True))
    np.divide(x_rms, g_rms, out=x_rms, where=g_rms > 0)
    return g * (epsilon * x_rms)


def batch_gradient_magnitude(
    layer: Layer,
    x_batch: np.ndarray,
    delta_w: np.ndarray,
    delta_x: np.ndarray,
) -> np.ndarray:
    """Sum over columns p of ``|record(layer, x_p, y_p, pert_p).grad|``, where
    ``pert_p`` pairs the shared ``delta_w`` with column p of ``delta_x``.

    The terms are the ones ``record`` uses, evaluated on all columns at once.
    Each gradient is an outer product, so the positionwise sum of their
    magnitudes is the single matrix product ``2 |dy| @ |dfdw|.T``. Only
    linear layers carry a weight, and their exact forms never read ``y``.
    """
    x_batch = np.asarray(x_batch, dtype=np.float64)
    _, _, dy, dfdw = _terms(layer, x_batch, None, Perturbation(delta_w, delta_x), None)
    return 2.0 * np.abs(dy) @ np.abs(dfdw).T
