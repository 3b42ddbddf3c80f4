import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from contprune import linalg
from contprune.errors import NumericalError, ShapeError


def small_matrices(max_dim=6):
    dims = st.integers(1, max_dim)
    return dims.flatmap(
        lambda r: dims.flatmap(
            lambda c: arrays(
                np.float64,
                (r, c),
                elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            )
        )
    )


def fro(x):
    """Frobenius norm that cannot overflow: the pseudoinverse of a matrix of
    tiny entries (say 1e-283) has entries near the float64 maximum, whose
    squares overflow in ``np.linalg.norm``."""
    peak = float(np.max(np.abs(x), initial=0.0))
    return peak * float(np.linalg.norm(x / peak)) if peak else 0.0


class TestPseudoinverse:
    def test_identity(self):
        np.testing.assert_allclose(linalg.pseudoinverse(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal_reciprocal(self):
        out = linalg.pseudoinverse(np.diag([2.0, 4.0]))
        np.testing.assert_allclose(out, np.diag([0.5, 0.25]), atol=1e-12)

    def test_penrose_conditions_full_rank_3x2(self, rng):
        a = rng.standard_normal((3, 2))
        p = linalg.pseudoinverse(a)
        assert np.linalg.norm(a @ p @ a - a) / np.linalg.norm(a) < 1e-6
        assert np.linalg.norm(p @ a @ p - p) / np.linalg.norm(p) < 1e-6

    @settings(max_examples=30, deadline=None)
    @given(a=small_matrices())
    def test_penrose_conditions_property(self, a):
        norm = fro(a)
        try:
            p = linalg.pseudoinverse(a)
        except NumericalError:
            # documented only for a kept singular value below 1 / float64 max
            s = np.linalg.svd(a, compute_uv=False)
            kept = s[s > linalg.DEFAULT_PINV_TOL * s[0]]
            assert kept.min() * np.finfo(np.float64).max <= 1.0
            return
        scale = max(norm, 1.0)
        assert fro(a @ p @ a - a) <= 1e-6 * scale
        assert fro(p @ a @ p - p) <= 1e-6 * max(fro(p), 1.0)
        ap = a @ p
        pa = p @ a
        assert fro(ap - ap.T) <= 1e-6 * max(fro(ap), 1.0)
        assert fro(pa - pa.T) <= 1e-6 * max(fro(pa), 1.0)

    def test_involution_on_full_rank(self, rng):
        a = rng.standard_normal((4, 3))
        back = linalg.pseudoinverse(linalg.pseudoinverse(a))
        assert np.linalg.norm(back - a) / np.linalg.norm(a) < 1e-5

    def test_shape(self, rng):
        a = rng.standard_normal((5, 2))
        assert linalg.pseudoinverse(a).shape == (2, 5)

    def test_rejects_nonfinite(self):
        with pytest.raises(NumericalError):
            linalg.pseudoinverse(np.array([[np.nan, 1.0], [0.0, 1.0]]))

    def test_overflowing_reciprocal_raises(self):
        assert linalg.pseudoinverse(np.array([[1e-308]]))[0, 0] == pytest.approx(1e308)
        with pytest.raises(NumericalError, match="no finite reciprocal"):
            linalg.pseudoinverse(np.array([[5e-324]]))


class TestRank:
    def test_identity(self):
        assert linalg.rank(np.eye(2)) == 2

    def test_dependent_rows(self):
        assert linalg.rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1

    def test_gaussian_full_rank(self, rng):
        a = rng.standard_normal((4, 3))
        assert linalg.rank(a) == 3
        # cross-check against an SVD-count oracle
        s = np.linalg.svd(a, compute_uv=False)
        assert linalg.rank(a) == int(np.sum(s > 1e-10 * s[0]))

    def test_zero_matrix(self):
        assert linalg.rank(np.zeros((2, 3))) == 0


class TestAsMatrix:
    def test_as_matrix_validation(self):
        with pytest.raises(ShapeError):
            linalg.as_matrix(np.ones(3))
        with pytest.raises(ShapeError):
            linalg.as_matrix(np.ones((0, 2)))
        with pytest.raises(NumericalError):
            linalg.as_matrix(np.array([[np.inf]]))
