"""SVD-based pseudoinverse and numerical rank of dense float64 matrices.

Matrices are plain 2-D ``numpy.ndarray`` objects in float64. Every public
operation validates its input with ``as_matrix`` first, so NaN/Inf and
non-matrix shapes are rejected before the SVD runs.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericalError, ShapeError

DEFAULT_PINV_TOL = 1e-10


def as_matrix(values) -> np.ndarray:
    """Coerce ``values`` to a finite 2-D float64 array.

    Raises ShapeError if the input is not two-dimensional or empty, and
    NumericalError if it contains NaN/Inf.
    """
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size == 0:
        raise ShapeError(f"matrix must be nonempty, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix contains non-finite entries")
    return a


def pseudoinverse(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values at or below ``DEFAULT_PINV_TOL`` times the largest one are
    treated as zero. The result satisfies the four Penrose conditions to
    numerical accuracy. Raises NumericalError when a kept singular value is
    so small (below 1 / float64 max) that its reciprocal overflows.
    """
    a = as_matrix(a)
    u, s, vt = _svd(a)
    cutoff = DEFAULT_PINV_TOL * s[0] if s.size else 0.0
    keep = s > cutoff
    with np.errstate(over="ignore"):
        inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    if not np.all(np.isfinite(inv)):
        raise NumericalError(
            f"pseudoinverse overflows: singular value {s[keep][-1]:.3g} has no finite reciprocal"
        )
    return (vt.T * inv) @ u.T


def rank(a: np.ndarray) -> int:
    """Number of singular values above ``DEFAULT_PINV_TOL`` times the largest one."""
    a = as_matrix(a)
    s = _svd(a)[1]
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > DEFAULT_PINV_TOL * s[0]))


def _svd(a: np.ndarray):
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"SVD did not converge for a {a.shape[0]}x{a.shape[1]} matrix"
        ) from exc
