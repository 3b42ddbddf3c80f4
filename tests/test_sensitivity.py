import numpy as np
import pytest
from scipy.stats import spearmanr

from contprune import model as M
from contprune import sensitivity as S
from contprune.errors import NumericalError, ShapeError, UsageError
from contprune.seeding import derive_seed


def active_relu_stack(rng, out_dim=6, in_dim=6, margin=0.3):
    """linear+relu unit whose pre-activations all clear ``margin``."""
    while True:
        w = rng.standard_normal((out_dim, in_dim))
        x = rng.standard_normal((in_dim, 1))
        z = w @ x
        w = w * np.sign(z)  # flip rows so every pre-activation is positive
        z = w @ x
        if z.min() > margin:
            return M.linear(w), M.activation("relu"), x


class TestPerturbation:
    def test_rms_matches_epsilon_times_weight_rms(self, rng):
        w = rng.standard_normal((9, 5)) * 3.0
        x = rng.standard_normal((5, 1))
        pert = S.make_perturbation(w, x, epsilon=1e-3, seed=4)
        w_rms = np.sqrt(np.mean(w * w))
        dw_rms = np.sqrt(np.mean(pert.delta_w**2))
        assert abs(dw_rms - 1e-3 * w_rms) < 1e-9
        x_rms = np.sqrt(np.mean(x * x))
        dx_rms = np.sqrt(np.mean(pert.delta_x**2))
        assert abs(dx_rms - 1e-3 * x_rms) < 1e-9

    def test_gaussian_delta_is_full_rank(self, rng):
        from contprune import linalg

        w = rng.standard_normal((8, 5))
        pert = S.make_perturbation(w, None, seed=0)
        assert linalg.rank(pert.delta_w) == 5

    def test_zero_weight_gives_zero_delta(self):
        pert = S.make_perturbation(np.zeros((3, 3)), None, seed=0)
        np.testing.assert_array_equal(pert.delta_w, np.zeros((3, 3)))

    def test_epsilon_validated(self):
        with pytest.raises(UsageError):
            S.make_perturbation(np.eye(2), None, epsilon=0.0)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(UsageError, match="positive and finite"):
            S.make_perturbation(np.eye(2), None, epsilon=epsilon)


class TestSensitivityW:
    def test_linear_equals_dw_x_exactly(self, rng):
        w = rng.standard_normal((5, 4))
        x = rng.standard_normal((4, 1))
        layer = M.linear(w)
        pert = S.make_perturbation(w, x, seed=1)
        s_w = S.sensitivity_w(layer, x, w @ x, pert)
        assert np.array_equal(s_w, pert.delta_w @ x)

    def test_zero_delta_gives_zero(self, rng):
        w = rng.standard_normal((3, 3))
        x = rng.standard_normal((3, 1))
        pert = S.Perturbation(delta_w=np.zeros((3, 3)), delta_x=np.zeros((3, 1)))
        np.testing.assert_array_equal(S.sensitivity_w(M.linear(w), x, w @ x, pert), np.zeros((3, 1)))

    def test_relu_stack_matches_jacobian_oracle(self, rng):
        # pre-activations bounded away from zero: the relu Jacobian is exact
        for trial in range(5):
            linear, relu, x = active_relu_stack(rng, 7, 5)
            w = linear.weight
            w = w.copy()
            # mix in genuinely inactive units, still bounded away from 0
            w[::3] *= -1.0
            linear = M.linear(w)
            z = w @ x
            assert np.min(np.abs(z)) > 0.25
            y = S.unit_forward(linear, x, post=relu)
            pert = S.make_perturbation(w, x, epsilon=1e-6, seed=trial)
            s_w = S.sensitivity_w(linear, x, y, pert, post=relu)
            jacobian_pred = (z > 0).astype(float) * (pert.delta_w @ x)
            denom = np.linalg.norm(jacobian_pred)
            assert np.linalg.norm(s_w - jacobian_pred) <= 1e-6 * max(denom, 1e-12)

    def test_requires_weight(self, rng):
        pert = S.make_perturbation(np.eye(2), np.ones((2, 1)), seed=0)
        with pytest.raises(UsageError):
            S.sensitivity_w(M.activation("relu"), np.ones((2, 1)), np.ones((2, 1)), pert)


class TestSensitivityX:
    def test_zero_delta_gives_zero(self, rng):
        w = rng.standard_normal((3, 3))
        x = rng.standard_normal((3, 1))
        pert = S.Perturbation(delta_w=np.zeros((3, 3)), delta_x=np.zeros((3, 1)))
        np.testing.assert_array_equal(S.sensitivity_x(M.linear(w), x, w @ x, pert), np.zeros((3, 1)))

    def test_linear_equals_w_dx_exactly(self, rng):
        w = rng.standard_normal((6, 4))
        x = rng.standard_normal((4, 1))
        pert = S.make_perturbation(w, x, seed=2)
        s_x = S.sensitivity_x(M.linear(w), x, w @ x, pert)
        assert np.array_equal(s_x, w @ pert.delta_x)

    def test_tanh_layer_matches_jacobian_to_second_order(self, rng):
        x = rng.standard_normal((5, 1))
        layer = M.activation("tanh")
        y = np.tanh(x)
        eps = 1e-3
        pert = S.make_perturbation(None, x, epsilon=eps, seed=3)
        s_x = S.sensitivity_x(layer, x, y, pert)
        jacobian_pred = (1.0 - np.tanh(x) ** 2) * pert.delta_x
        # remainder is second order in the perturbation
        err = np.linalg.norm(s_x - jacobian_pred)
        assert err <= 10.0 * np.linalg.norm(pert.delta_x) ** 2

    def test_shape_mismatch(self, rng):
        w = rng.standard_normal((3, 3))
        pert = S.make_perturbation(w, np.ones((2, 1)), seed=0)
        with pytest.raises(ShapeError):
            S.sensitivity_x(M.linear(w), np.ones((3, 1)), np.ones((3, 1)), pert)


class TestDfdwSurrogate:
    def test_linear_returns_x_exactly(self, rng):
        w = rng.standard_normal((4, 3))
        x = rng.standard_normal((3, 1))
        pert = S.make_perturbation(w, x, seed=5)
        out = S.dfdw_surrogate(M.linear(w), x, pert.delta_w @ x, pert)
        assert np.array_equal(out, x)

    def test_scaled_identity_delta(self, rng):
        eps = 1e-3
        w = rng.standard_normal((4, 4))
        x = rng.standard_normal((4, 1))
        s_w = rng.standard_normal((4, 1))
        pert = S.Perturbation(delta_w=eps * np.eye(4), delta_x=None)
        out = S.dfdw_surrogate(M.linear(w), x, s_w, pert, post=M.activation("relu"))
        np.testing.assert_allclose(out, s_w / eps, rtol=1e-9)

    def test_relu_surrogate_close_to_x_when_all_active(self, rng):
        for trial in range(5):
            linear, relu, x = active_relu_stack(rng, 6, 6)
            y = S.unit_forward(linear, x, post=relu)
            pert = S.make_perturbation(linear.weight, x, epsilon=1e-3, seed=trial)
            s_w = S.sensitivity_w(linear, x, y, pert, post=relu)
            out = S.dfdw_surrogate(linear, x, s_w, pert, post=relu)
            rel = np.linalg.norm(out - x) / np.linalg.norm(x)
            assert rel < 0.05

    def test_rank_deficient_delta_rejected(self, rng):
        u = rng.standard_normal((4, 1))
        v = rng.standard_normal((1, 4))
        pert = S.Perturbation(delta_w=u @ v, delta_x=None)
        layer = M.linear(rng.standard_normal((4, 4)))
        with pytest.raises(NumericalError):
            S.dfdw_surrogate(layer, rng.standard_normal((4, 1)), rng.standard_normal((4, 1)), pert,
                             post=M.activation("tanh"))


class TestLossGradient:
    def test_zero_dy(self):
        out = S.loss_gradient(np.zeros((3, 1)), np.ones((2, 1)))
        np.testing.assert_array_equal(out, np.zeros((3, 2)))

    def test_outer_product_arithmetic(self):
        out = S.loss_gradient(np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]]))
        np.testing.assert_array_equal(out, [[6.0, 8.0], [12.0, 16.0]])

    def test_rejects_non_columns(self):
        with pytest.raises(ShapeError):
            S.loss_gradient(np.ones((2, 2)), np.ones((2, 1)))

    def test_matches_central_differences_of_quadratic_loss(self, rng):
        # L(D) = ||s_x + D g||^2 around D = delta_w; the loss is quadratic,
        # so central differences are exact up to rounding
        w = rng.standard_normal((4, 3))
        x = rng.standard_normal((3, 1))
        layer = M.linear(w)
        pert = S.make_perturbation(w, x, epsilon=1e-3, seed=8)
        rec = S.record(layer, x, w @ x, pert)
        g = rec.dfdw
        s_x = rec.s_x

        def loss(d):
            r = s_x + d @ g
            return float(np.sum(r * r))

        h = 1e-6
        fd = np.zeros_like(w)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                dp = pert.delta_w.copy()
                dp[i, j] += h
                dm = pert.delta_w.copy()
                dm[i, j] -= h
                fd[i, j] = (loss(dp) - loss(dm)) / (2 * h)
        rel = np.linalg.norm(fd - rec.grad) / np.linalg.norm(fd)
        assert rel < 1e-4


class TestRecord:
    def test_zero_perturbation_gives_zero_record(self, rng):
        w = rng.standard_normal((3, 4))
        x = rng.standard_normal((4, 1))
        pert = S.Perturbation(delta_w=np.zeros((3, 4)), delta_x=np.zeros((4, 1)))
        rec = S.record(M.linear(w), x, w @ x, pert)
        for field in (rec.s_w, rec.s_x, rec.dy, rec.grad):
            assert not field.any()

    def test_fields_match_individual_ops_bit_exactly(self, rng):
        w = rng.standard_normal((5, 3))
        x = rng.standard_normal((3, 1))
        layer = M.linear(w)
        y = w @ x
        pert = S.make_perturbation(w, x, seed=21)
        rec = S.record(layer, x, y, pert)
        assert np.array_equal(rec.s_w, S.sensitivity_w(layer, x, y, pert))
        assert np.array_equal(rec.s_x, S.sensitivity_x(layer, x, y, pert))
        assert np.array_equal(rec.dy, rec.s_w + rec.s_x)
        assert np.array_equal(rec.dfdw, S.dfdw_surrogate(layer, x, rec.s_w, pert))
        assert np.array_equal(rec.grad, S.loss_gradient(rec.dy, rec.dfdw))

    def test_dy_decomposition_is_constructional(self, rng):
        linear, relu, x = active_relu_stack(rng, 5, 5)
        y = S.unit_forward(linear, x, post=relu)
        pert = S.make_perturbation(linear.weight, x, seed=2)
        rec = S.record(linear, x, y, pert, post=relu)
        assert np.array_equal(rec.dy, rec.s_w + rec.s_x)

    def test_rankings_stable_across_perturbation_seeds(self, rng):
        # importance accumulated over 16 inputs (the pipeline granularity)
        # must rank weights consistently for independent perturbation draws
        w = rng.standard_normal((64, 64))
        layer = M.linear(w)
        xs = [rng.standard_normal((64, 1)) for _ in range(16)]

        def importance(master):
            acc = np.zeros_like(w)
            for j, x in enumerate(xs):
                pert = S.make_perturbation(w, x, epsilon=1e-3, seed=derive_seed(master, j))
                rec = S.record(layer, x, w @ x, pert)
                acc += np.abs(w * rec.grad)
            return acc

        for pair in range(20):
            a = importance(derive_seed("stability", pair, 0))
            b = importance(derive_seed("stability", pair, 1))
            corr = spearmanr(a.ravel(), b.ravel()).statistic
            assert corr > 0.9


class TestScaleBehavior:
    def test_halving_epsilon_halves_sensitivity_norm(self, rng):
        # smooth fused unit: first-order term dominates at epsilon = 1e-3
        w = rng.standard_normal((6, 4))
        x = rng.standard_normal((4, 1))
        linear = M.linear(w)
        tanh = M.activation("tanh")
        y = S.unit_forward(linear, x, post=tanh)
        norms = {}
        for eps in (1e-3, 5e-4):
            pert = S.make_perturbation(w, x, epsilon=eps, seed=33)
            s_w = S.sensitivity_w(linear, x, y, pert, post=tanh)
            norms[eps] = np.linalg.norm(s_w)
        ratio = norms[5e-4] / norms[1e-3]
        assert abs(ratio - 0.5) < 0.005


class TestBatchPath:
    def test_batch_matches_looped_records(self, rng):
        w = rng.standard_normal((7, 5))
        layer = M.linear(w)
        x_batch = rng.standard_normal((5, 9))
        pert_rng = np.random.default_rng(17)
        delta_w = S.scaled_gaussian(w.shape, 1e-3 * float(np.sqrt(np.mean(w * w))), pert_rng)
        delta_x = S.batch_input_perturbation(x_batch, 1e-3, pert_rng)
        batch = S.batch_gradient_magnitude(layer, x_batch, delta_w, delta_x)
        looped = np.zeros_like(w)
        for p in range(x_batch.shape[1]):
            x = x_batch[:, p : p + 1]
            pert = S.Perturbation(delta_w=delta_w, delta_x=delta_x[:, p : p + 1])
            rec = S.record(layer, x, w @ x, pert)
            looped += np.abs(rec.grad)
        np.testing.assert_allclose(batch, looped, rtol=1e-12, atol=1e-14)

    def test_batch_input_perturbation_scales_per_column(self, rng):
        x = rng.standard_normal((6, 4)) * np.array([1.0, 10.0, 0.1, 5.0])
        dx = S.batch_input_perturbation(x, 1e-2, np.random.default_rng(0))
        for p in range(4):
            x_rms = np.sqrt(np.mean(x[:, p] ** 2))
            dx_rms = np.sqrt(np.mean(dx[:, p] ** 2))
            assert abs(dx_rms - 1e-2 * x_rms) < 1e-12
