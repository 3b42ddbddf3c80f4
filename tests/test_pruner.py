import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contprune import corpus as C
from contprune import importance as I
from contprune import metrics as X
from contprune import model as M
from contprune import pruner as P
from contprune import sensitivity as S
from contprune.errors import InputError, NumericalError, ShapeError, UsageError
from contprune.seeding import derive_seed


class TestCriterionScores:
    def test_magnitude(self, prune_setup):
        net, calib_a, _ = prune_setup
        scores = P.score_step(net, P.PruneConfig(criterion="magnitude", sparsity=0.5),
                              input_counts(net, calib_a))
        assert sorted(scores) == net.prunable_indices()
        for idx, got in scores.items():
            np.testing.assert_array_equal(got, np.abs(net.layers[idx].weight))

    @pytest.mark.parametrize("name", ["prose", "numeric", "bracket"])
    def test_wanda_masks_equal_the_definitions_on_segment_captures(self, tiny_dir, tiny_model, name):
        # scoring from token counts rounds differently from the definition on
        # stacked per-segment captures; no near-tie may flip a mask bit
        corpus = C.load_corpus(tiny_dir / f"{name}.bin", name)
        calib = C.sample_calibration(corpus, 16, 128, seed=derive_seed(0, "calib", name))
        captures = captured_inputs(tiny_model, calib)
        oracle = {idx: wanda_definition(tiny_model.layers[idx].weight,
                                        [seg[idx] for seg in captures])
                  for idx in tiny_model.prunable_indices()}
        for spec in ({"sparsity": 0.5}, {"nm": (2, 4)}):
            cfg = P.PruneConfig(criterion="wanda", **spec)
            _, masks, _ = P.prune_step(tiny_model, None, cfg, calib)
            _, want, _ = P.mask_step(tiny_model, cfg, calib, P.build_masks(oracle, cfg))
            assert sorted(masks) == sorted(want)
            for idx, mask in masks.items():
                assert np.array_equal(mask, want[idx]), (spec, idx)


def argsort_mask_bits(scores: np.ndarray, s: float) -> np.ndarray:
    """The reference unstructured selection: a stable argsort of the flat
    scores, whose first ``floor(s * N)`` entries are pruned."""
    k = int(math.floor(s * scores.size))
    bits = np.ones(scores.size, dtype=np.uint8)
    bits[np.argsort(scores.ravel(), kind="stable")[:k]] = 0
    return bits.reshape(scores.shape)


class TestUnstructuredMask:
    def test_2x2_example(self):
        mask = P.build_mask_unstructured(np.array([[4.0, 3.0], [2.0, 1.0]]), 0.5)
        np.testing.assert_array_equal(mask, [[1, 1], [0, 0]])

    def test_deterministic(self, rng):
        scores = rng.random((6, 6))
        a = P.build_mask_unstructured(scores, 0.5)
        b = P.build_mask_unstructured(scores, 0.5)
        np.testing.assert_array_equal(a, b)

    def test_zeros_count_matches_floor_over_random_matrices(self, rng):
        for _ in range(100):
            r, c = rng.integers(1, 12, size=2)
            scores = rng.random((r, c))
            s = float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
            mask = P.build_mask_unstructured(scores, s)
            assert int(mask.size - mask.sum()) == math.floor(s * scores.size)

    def test_all_ties_exact_count(self):
        for n, s in [(4, 0.5), (10, 0.3), (7, 0.9)]:
            mask = P.build_mask_unstructured(np.ones((1, n)), s)
            assert int(mask.size - mask.sum()) == math.floor(s * n)

    def test_lowest_scores_pruned(self, rng):
        scores = rng.permutation(36).reshape(6, 6).astype(float)
        mask = P.build_mask_unstructured(scores, 0.5)
        assert set(scores[mask == 0].astype(int)) == set(range(18))

    def test_ties_resolved_by_rank_selection(self):
        scores = np.ones((2, 2))
        mask = P.build_mask_unstructured(scores, 0.5)
        # lowest flat indices pruned first among equal scores
        np.testing.assert_array_equal(mask, [[0, 0], [1, 1]])


class TestSelectionMatchesArgsort:
    """``build_mask_unstructured`` selects in linear time; the stable
    argsort it replaced is the oracle, bit for bit."""

    @staticmethod
    def check(scores, s):
        got = P.build_mask_unstructured(scores, s)
        want = argsort_mask_bits(scores, s)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
        values=st.sampled_from(["continuous", "ties", "signed_zeros", "constant"]),
        s_kind=st.sampled_from(["zero", "one_entry", "half", "0.99", "any"]),
        s_any=st.floats(0.0, 1.0, exclude_max=True),
        seed=st.integers(0, 2**31),
    )
    def test_bit_equal_to_stable_argsort(self, shape, values, s_kind, s_any, seed):
        rng = np.random.default_rng(seed)
        if values == "continuous":
            scores = rng.standard_normal(shape)
        elif values == "ties":  # integer-valued, so most entries tie
            scores = rng.integers(0, 4, size=shape).astype(np.float64)
        elif values == "signed_zeros":  # -0.0 == 0.0 ties too
            scores = rng.choice([-0.0, 0.0, 1.0], size=shape)
        else:
            scores = np.full(shape, rng.standard_normal())
        n = scores.size
        s = {"zero": 0.0, "one_entry": 1.0 / n if n > 1 else 0.0, "half": 0.5,
             "0.99": 0.99, "any": s_any}[s_kind]
        self.check(scores, s)

    def test_one_by_one(self):
        for s in (0.0, 0.5, 0.99):
            self.check(np.array([[3.0]]), s)

    def test_signed_zeros_go_in_flat_order(self):
        scores = np.array([[0.0, -0.0, 1.0, -0.0]])
        self.check(scores, 0.5)
        np.testing.assert_array_equal(P.build_mask_unstructured(scores, 0.5), [[0, 0, 1, 1]])

    def test_desk_layer_shapes(self, rng):
        for shape in [(128, 64), (64, 128)]:
            scores = np.abs(rng.standard_normal(shape))
            scores.ravel()[::7] = scores.ravel()[0]  # a block of ties at one value
            for s in (0.3, 0.5, 0.7):
                self.check(scores, s)


class TestNmMask:
    def test_2of4_example(self):
        mask = P.build_mask_nm(np.array([[5.0, 1.0, 4.0, 2.0]]), 2, 4)
        np.testing.assert_array_equal(mask, [[1, 0, 1, 0]])

    def test_4of8_all_equal_keeps_first_four(self):
        mask = P.build_mask_nm(np.ones((1, 8)), 4, 8)
        np.testing.assert_array_equal(mask, [[1, 1, 1, 1, 0, 0, 0, 0]])

    def test_every_group_has_exactly_n_ones(self, rng):
        for _ in range(100):
            rows = int(rng.integers(1, 6))
            groups = int(rng.integers(1, 5))
            n, m = (2, 4) if rng.random() < 0.5 else (4, 8)
            scores = rng.random((rows, groups * m))
            bits = P.build_mask_nm(scores, n, m)
            counts = bits.reshape(rows * groups, m).sum(axis=1)
            assert (counts == n).all()

    def test_2of4_is_half_sparsity_on_divisible_layers(self, rng):
        bits = P.build_mask_nm(rng.random((8, 16)), 2, 4)
        assert bits.mean() == pytest.approx(0.5)

    def test_short_tail_group_rule(self, rng):
        # 10 columns with m=4: tail of 2 keeps ceil(2*2/4) = 1
        bits = P.build_mask_nm(rng.random((3, 10)), 2, 4)
        assert (bits[:, 8:].sum(axis=1) == 1).all()

    def test_invalid_pattern_rejected(self, rng):
        with pytest.raises(UsageError):
            P.build_mask_nm(rng.random((2, 8)), 4, 4)
        with pytest.raises(UsageError):
            P.build_mask_nm(rng.random((2, 8)), 0, 4)


def argsort_nm_bits(scores: np.ndarray, n: int, m: int) -> np.ndarray:
    """The reference N:M selection: a stable argsort of each negated group of
    ``m`` columns keeps its first ``n``; a short tail of r columns keeps
    ``ceil(n * r / m)``."""
    bits = np.zeros(scores.shape, dtype=np.uint8)
    for start in range(0, scores.shape[1], m):
        group = scores[:, start:start + m]
        keep = math.ceil(n * group.shape[1] / m)
        order = np.argsort(-group, axis=1, kind="stable")
        np.put_along_axis(bits[:, start:start + m], order[:, :keep], 1, axis=1)
    return bits


class TestNmSelectionMatchesArgsort:
    """``build_mask_nm`` ranks each group by comparisons; the stable argsort
    it replaced is the oracle, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 27),  # most widths leave a short tail group
        nm=st.sampled_from([(2, 4), (4, 8)]),
        values=st.sampled_from(["continuous", "ties", "signed_zeros", "constant"]),
        seed=st.integers(0, 2**31),
    )
    def test_bit_equal_to_stable_argsort(self, rows, cols, nm, values, seed):
        rng = np.random.default_rng(seed)
        shape = (rows, cols)
        if values == "continuous":
            scores = rng.standard_normal(shape)
        elif values == "ties":  # integer-valued, so most groups hold ties
            scores = rng.integers(0, 3, size=shape).astype(np.float64)
        elif values == "signed_zeros":  # -0.0 == 0.0 ties too
            scores = rng.choice([-0.0, 0.0, 1.0], size=shape)
        else:
            scores = np.full(shape, rng.standard_normal())
        got = P.build_mask_nm(scores, *nm)
        want = argsort_nm_bits(scores, *nm)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    def test_signed_zeros_keep_the_lowest_index(self):
        scores = np.array([[-0.0, 0.0, -0.0, 0.0, 1.0, -0.0]])
        bits = P.build_mask_nm(scores, 2, 4)
        np.testing.assert_array_equal(bits, argsort_nm_bits(scores, 2, 4))
        np.testing.assert_array_equal(bits, [[1, 1, 0, 0, 1, 0]])


class TestNonFiniteScores:
    """A NaN sorts last and an infinity sorts first or last, so a mask built
    from them would prune by flat index; both builders refuse them."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "build",
        [lambda s: P.build_mask_unstructured(s, 0.5), lambda s: P.build_mask_nm(s, 2, 4)],
        ids=["unstructured", "2of4"],
    )
    def test_mask_builders_reject_non_finite_scores(self, rng, build, bad):
        scores = rng.random((4, 8))
        scores[2, 5] = bad
        with pytest.raises(NumericalError, match="1 non-finite score"):
            build(scores)


class TestApplyAndStasis:
    def test_masked_magnitude_rescoring_is_a_fixpoint(self, rng):
        # the stasis mechanism in isolation: scores of a masked weight
        # matrix vanish exactly where the mask is zero, so re-selection
        # reproduces the mask
        w = rng.standard_normal((64, 64))
        mask1 = P.build_mask_unstructured(np.abs(w), 0.5)
        mask2 = P.build_mask_unstructured(np.abs(w * mask1), 0.5)
        np.testing.assert_array_equal(mask2, mask1)


def make_calib(corpus_tokens, name, n_samples=4, seq_len=32, seed=0):
    corpus = C.Corpus(name=name, tokens=np.asarray(corpus_tokens))
    return C.sample_calibration(corpus, n_samples, seq_len, seed)


def input_counts(net, calib):
    """How many of ``calib``'s positions read each token of ``net``'s
    vocabulary as input: every segment token but the last."""
    return np.bincount(calib.segments[:, :-1].ravel(), minlength=net.vocab_size)


def gathered_inputs(net, calib):
    """Each segment's per-layer inputs, gathered from one capture on the
    vocabulary: column ``a`` of a layer's capture is its input for token ``a``."""
    inputs = M.forward_capture(net, M.vocabulary_tokens(net))
    return [{idx: x[:, seg[:-1]] for idx, x in inputs.items()} for seg in calib.segments]


def captured_inputs(net, calib):
    """The reference for ``gathered_inputs``: one ``forward_capture`` per segment."""
    return [M.forward_capture(net, seg) for seg in calib.segments]


def wanda_definition(weight, segment_inputs):
    """Wanda's score by its definition: ``|W|`` scaled column-wise by the L2
    norm of each input feature over every calibration position, here the
    segments' inputs stacked in segment order."""
    stacked = np.concatenate(segment_inputs, axis=1)
    return np.abs(weight) * np.linalg.norm(stacked, axis=1)


def sensitivity_terms(net, calib, seed, draws, segment_inputs):
    """Every ``(layer index, weight, grad)`` term of one sampled scoring of a
    dataset at the default epsilon, segment by segment, layer by layer, draw
    by draw, with one seed per (segment, layer): the estimator that
    ``score_step``'s closed form is the expectation of. ``segment_inputs``
    holds each segment's per-layer inputs."""
    for j, seg_inputs in enumerate(segment_inputs):
        for idx, x in seg_inputs.items():
            layer = net.layers[idx]
            pert_rng = np.random.default_rng(derive_seed(seed, "pert", calib.corpus_name, j, idx))
            for _ in range(draws):
                rms = 1e-3 * float(np.sqrt(np.mean(layer.weight ** 2)))
                delta_w = S.scaled_gaussian(layer.weight.shape, rms, pert_rng)
                delta_x = S.batch_input_perturbation(x, 1e-3, pert_rng)
                grad = S.batch_gradient_magnitude(layer, x, delta_w, delta_x)
                yield idx, layer.weight, grad


@pytest.fixture()
def prune_setup(rng):
    net = M.make_decoder(vocab_size=64, d=16, hidden=24, blocks=1, seed=9)
    toks_a = rng.integers(0, 32, size=4000)  # low bytes
    toks_b = rng.integers(32, 64, size=4000)  # high bytes
    calib_a = make_calib(toks_a, "A", seed=derive_seed(0, "calib", "A"))
    calib_b = make_calib(toks_b, "B", seed=derive_seed(0, "calib", "B"))
    return net, calib_a, calib_b


class TestPruneStep:
    def test_sparsity_zero_is_identity(self, prune_setup):
        net, calib_a, _ = prune_setup
        cfg = P.PruneConfig(criterion="magnitude", sparsity=0.0, seed=0)
        out, masks, frag = P.prune_step(net, None, cfg, calib_a)
        assert frag["overall_sparsity"] == 0.0
        for idx in net.prunable_indices():
            assert np.array_equal(out.layers[idx].weight, net.layers[idx].weight)

    @pytest.mark.parametrize("criterion", ["magnitude", "wanda", "sensitivity"])
    def test_achieved_sparsity_matches_request(self, prune_setup, criterion):
        net, calib_a, _ = prune_setup
        state = I.init_state(net) if criterion == "sensitivity" else None
        cfg = P.PruneConfig(criterion=criterion, sparsity=0.5, seed=0)
        out, masks, frag = P.prune_step(net, state, cfg, calib_a)
        for idx, mask in masks.items():
            total = mask.size
            zeros = total - int(mask.sum())
            assert zeros == math.floor(0.5 * total)
            # the pruned weight is the weight times its mask; a random
            # weight has no zeros of its own
            np.testing.assert_array_equal(out.layers[idx].weight, net.layers[idx].weight * mask)
            assert int((out.layers[idx].weight == 0).sum()) == zeros

    def test_nonprunable_parameters_untouched(self, prune_setup):
        net, calib_a, _ = prune_setup

        def fingerprint(n):
            h = hashlib.sha256(n.embed.tobytes())
            for layer in n.layers:
                if layer.kind == "layer_norm":
                    h.update(layer.gain.tobytes())
                    h.update(layer.bias.tobytes())
            return h.hexdigest()

        before = fingerprint(net)
        state = I.init_state(net)
        cfg = P.PruneConfig(criterion="sensitivity", sparsity=0.7, init_mode="sequential", seed=0)
        out, _, _ = P.prune_step(net, state, cfg, calib_a)
        assert fingerprint(out) == before
        assert fingerprint(net) == before

    def test_baselines_freeze_under_sequential_init(self, prune_setup):
        net, calib_a, calib_b = prune_setup
        for criterion in ("magnitude", "wanda"):
            cfg = P.PruneConfig(criterion=criterion, sparsity=0.5, init_mode="sequential", seed=0)
            net1, masks1, _ = P.prune_step(net, None, cfg, calib_a)
            net2, masks2, _ = P.prune_step(net1, None, cfg, calib_b)
            for idx in masks1:
                hamming = int(np.sum(masks1[idx] != masks2[idx]))
                assert hamming == 0, f"{criterion} layer {idx} moved by {hamming}"

    def test_sensitivity_escapes_stasis_on_domain_shift(self, prune_setup):
        net, calib_a, calib_b = prune_setup
        cfg = P.PruneConfig(criterion="sensitivity", sparsity=0.5, init_mode="sequential", seed=0)
        state = I.init_state(net)
        net1, masks1, _ = P.prune_step(net, state, cfg, calib_a, base_net=net)
        net2, masks2, _ = P.prune_step(net1, state, cfg, calib_b, base_net=net)
        total_hamming = sum(int(np.sum(masks1[i] != masks2[i])) for i in masks1)
        assert total_hamming > 0

    def test_sensitivity_reopens_weights_from_base_values(self, prune_setup):
        net, calib_a, calib_b = prune_setup
        cfg = P.PruneConfig(criterion="sensitivity", sparsity=0.5, init_mode="sequential", seed=0)
        state = I.init_state(net)
        net1, masks1, _ = P.prune_step(net, state, cfg, calib_a, base_net=net)
        net2, masks2, _ = P.prune_step(net1, state, cfg, calib_b, base_net=net)
        reopened_any = False
        for idx in masks1:
            reopened = (masks1[idx] == 0) & (masks2[idx] == 1)
            if reopened.any():
                reopened_any = True
                np.testing.assert_array_equal(
                    net2.layers[idx].weight[reopened], net.layers[idx].weight[reopened]
                )
        assert reopened_any

    def test_global_init_restores_base_before_scoring(self, prune_setup):
        net, calib_a, calib_b = prune_setup
        cfg = P.PruneConfig(criterion="magnitude", sparsity=0.5, init_mode="global", seed=0)
        net1, masks1, _ = P.prune_step(net, None, cfg, calib_a, base_net=net)
        net2, masks2, _ = P.prune_step(net1, None, cfg, calib_b, base_net=net)
        # magnitude is data-free: identical scores from restored base weights
        for idx in masks1:
            np.testing.assert_array_equal(masks1[idx], masks2[idx])
            np.testing.assert_array_equal(net1.layers[idx].weight, net2.layers[idx].weight)

    @pytest.mark.parametrize("criterion", P.CRITERIA)
    def test_one_path_for_every_criterion(self, prune_setup, criterion):
        # no state: the scored network's masks on calib's own counts (for
        # sensitivity, a global grid step); a state: the base's masks on the
        # pooled counts (for wanda, the accumulating control)
        net, calib_a, calib_b = prune_setup
        masked = P.prune_step(net, None, P.PruneConfig(criterion="magnitude", sparsity=0.3),
                              calib_a)[0]
        own = input_counts(net, calib_b)
        before = calib_b.counts.copy()
        for mode, scored in (("global", net), ("sequential", masked)):
            cfg = P.PruneConfig(criterion=criterion, sparsity=0.5, init_mode=mode)
            _, masks, _ = P.prune_step(masked, None, cfg, calib_b, base_net=net)
            want = P.score_masks(scored, cfg, own)
            assert all(np.array_equal(masks[idx], want[idx]) for idx in want), mode
            _, masks, _ = P.prune_step(scored, None, cfg, calib_b)
            assert all(np.array_equal(masks[idx], want[idx]) for idx in want), mode
        cfg = P.PruneConfig(criterion=criterion, sparsity=0.5, init_mode="sequential")
        state = I.accumulate(I.init_state(net), calib_a)
        pooled = state.counts + own
        _, masks, _ = P.prune_step(masked, state, cfg, calib_b, base_net=net)
        want = P.score_masks(net, cfg, pooled)
        assert all(np.array_equal(masks[idx], want[idx]) for idx in want)
        np.testing.assert_array_equal(state.counts, pooled)
        assert state.datasets_seen == ["A", "B"]
        assert state.sample_count == {"A": calib_a.n_samples, "B": calib_b.n_samples}
        # the pooled counts are a padded copy: the cached counts stay calib's own
        np.testing.assert_array_equal(calib_b.counts, before)

    @pytest.mark.parametrize("criterion", P.CRITERIA)
    def test_repeating_the_last_dataset_seen_is_a_usage_error(self, prune_setup, monkeypatch,
                                                               criterion):
        net, calib_a, _ = prune_setup
        cfg = P.PruneConfig(criterion=criterion, sparsity=0.5)
        state = I.init_state(net)
        P.prune_step(net, state, cfg, calib_a)
        counts, seen, samples = state.counts.copy(), list(state.datasets_seen), dict(state.sample_count)
        own = calib_a.counts.copy()
        scored = []
        real = P.score_step
        monkeypatch.setattr(P, "score_step", lambda *args: scored.append(args) or real(*args))
        with pytest.raises(UsageError, match="dataset 'A' was already the last one seen"):
            P.prune_step(net, state, cfg, calib_a)
        assert scored == []  # raised before any scoring
        np.testing.assert_array_equal(state.counts, counts)
        assert state.datasets_seen == seen == ["A"] and state.sample_count == samples
        np.testing.assert_array_equal(calib_a.counts, own)

    def test_nm_masks_through_prune_step(self, prune_setup, tmp_path):
        net, calib_a, _ = prune_setup
        cfg = P.PruneConfig(criterion="magnitude", nm=(2, 4), seed=0)
        _, masks, frag = P.prune_step(net, None, cfg, calib_a)
        assert frag["overall_sparsity"] == pytest.approx(0.5)
        summary = json.loads(P.export_masks(masks, cfg, tmp_path).read_text())
        for idx in masks:
            assert summary[str(idx)]["structure"] == [2, 4]

    def test_sensitivity_state_is_the_mean_of_sampled_scorings(self, desk_model, desk_corpora):
        # the closed form is the expectation of the sampled estimator: the
        # mean of K seeded scorings approaches it like 1/sqrt(K). On these
        # inputs the Frobenius relative error of layers 0 and 2 reads 0.025
        # and 0.023 at K=16, 0.013 and 0.010 at K=64, 0.0058 and 0.0049 at
        # K=256. At K=64, a closed form without the mean(x^2) |W_i|^2
        # variance term reads 0.43 and 0.42, one without sqrt(2/pi) 0.20
        net, draws = desk_model, 64
        calib = C.sample_calibration(desk_corpora["prose"], 4, 128, derive_seed(1, "calib", "prose"))
        state = I.init_state(net)
        P.prune_step(net, state, P.PruneConfig(criterion="sensitivity", sparsity=0.5), calib)
        layers = (0, 2)
        inputs = [{idx: x for idx, x in seg.items() if idx in layers}
                  for seg in captured_inputs(net, calib)]
        importance = P.score_step(net, P.PruneConfig(criterion="sensitivity", sparsity=0.5),
                                  state.counts)
        mean = {idx: np.zeros_like(importance[idx]) for idx in layers}
        for k in range(draws):
            for idx, w, grad in sensitivity_terms(net, calib, k, 1, inputs):
                mean[idx] += np.abs(w * grad) / draws
        for idx in layers:
            closed = importance[idx]
            assert np.linalg.norm(mean[idx] - closed) / np.linalg.norm(closed) < 0.03

    def test_state_is_the_running_sum_of_per_dataset_sums(self, prune_setup):
        # each dataset's input-token counts, added in visit order; integers
        # add exactly, so another visit order gives the same state and scores
        net, calib_a, calib_b = prune_setup
        cfg = P.PruneConfig(criterion="sensitivity", sparsity=0.5, w_draws=2)
        state, reversed_ = I.init_state(net), I.init_state(net)
        running = np.zeros(net.vocab_size, dtype=np.int64)
        for calib in (calib_a, calib_b):
            P.prune_step(net, state, cfg, calib)
            running += input_counts(net, calib)
            np.testing.assert_array_equal(state.counts, running)
        for calib in (calib_b, calib_a):
            P.prune_step(net, reversed_, cfg, calib)
        np.testing.assert_array_equal(state.counts, reversed_.counts)
        forward, backward = (P.score_step(net, cfg, s.counts) for s in (state, reversed_))
        for idx in net.prunable_indices():
            assert np.array_equal(forward[idx], backward[idx])

    def test_state_not_matching_the_network_is_a_shape_error(self, prune_setup):
        net, calib_a, _ = prune_setup
        cfg = P.PruneConfig(criterion="sensitivity", sparsity=0.5, seed=0)
        for vocab in (net.vocab_size - 1, net.vocab_size + 1):
            state = I.init_state(M.make_decoder(vocab_size=vocab, d=16, hidden=24, blocks=1))
            with pytest.raises(ShapeError, match=f"state counts {vocab} tokens"):
                P.prune_step(net, state, cfg, calib_a)
            assert not state.counts.any() and state.datasets_seen == []

    @pytest.mark.parametrize("stage", ["score", "mask"])
    def test_failed_step_leaves_the_state_untouched(self, prune_setup, stage):
        net, calib_a, calib_b = prune_setup
        cfg = P.PruneConfig(criterion="sensitivity", sparsity=0.5)
        state = I.init_state(net)
        P.prune_step(net, state, cfg, calib_a)
        counts, seen, samples = state.counts.copy(), list(state.datasets_seen), dict(state.sample_count)

        def failing(net, config, counts):
            if stage == "score":
                raise NumericalError("scoring failed")
            return P.build_masks({idx: np.full(net.layers[idx].weight.shape, np.nan)
                                  for idx in net.prunable_indices()}, config)

        with pytest.raises(NumericalError):
            P.prune_step(net, state, cfg, calib_b, masks=failing)
        assert np.array_equal(state.counts, counts)
        assert state.datasets_seen == seen == ["A"] and state.sample_count == samples
        # the same step, once it succeeds, updates the caller's state in place
        P.prune_step(net, state, cfg, calib_b)
        assert np.array_equal(state.counts, counts + input_counts(net, calib_b))
        assert state.datasets_seen == ["A", "B"]

    def test_every_order_gives_bit_equal_state_importance_and_masks(self, tiny_dir, tiny_model):
        names = ("bracket", "numeric", "prose")
        calib = {n: C.sample_calibration(C.load_corpus(tiny_dir / f"{n}.bin", n), 16, 128,
                                         derive_seed(0, "calib", n)) for n in names}
        for spec in ({"sparsity": 0.5}, {"nm": (2, 4)}):
            cfg = P.PruneConfig(criterion="sensitivity", init_mode="sequential", **spec)
            finals = []
            for order in C.permutations(names):
                net, state = tiny_model, I.init_state(tiny_model)
                for name in order:
                    net, masks, _ = P.prune_step(net, state, cfg, calib[name], base_net=tiny_model)
                finals.append((state.counts, P.score_step(tiny_model, cfg, state.counts), masks))
            assert len(finals) == 6
            counts, importance, masks = finals[0]
            for other_counts, other_importance, other_masks in finals[1:]:
                assert np.array_equal(other_counts, counts)
                for idx in tiny_model.prunable_indices():
                    assert np.array_equal(other_importance[idx], importance[idx]), (spec, idx)
                    assert np.array_equal(other_masks[idx], masks[idx]), (spec, idx)

    def test_config_validation(self):
        with pytest.raises(UsageError):
            P.PruneConfig(criterion="hessian", sparsity=0.5)
        with pytest.raises(UsageError):
            P.PruneConfig(criterion="magnitude")  # neither sparsity nor nm
        with pytest.raises(UsageError):
            P.PruneConfig(criterion="magnitude", sparsity=0.5, nm=(2, 4))
        with pytest.raises(UsageError):
            P.PruneConfig(criterion="magnitude", nm=(3, 4))
        with pytest.raises(UsageError):
            P.PruneConfig(criterion="magnitude", sparsity=1.0)


class TestVocabularyCaptures:
    """Scoring gathers each layer's inputs from one capture on the vocabulary;
    ``forward_capture`` on each segment is the oracle."""

    @pytest.mark.parametrize("act", ["relu", "gelu", "tanh"])
    def test_segment_and_stacked_inputs_match_forward_capture(self, rng, act):
        net = M.make_decoder(vocab_size=64, d=8, hidden=12, blocks=2, act=act, seed=6)
        calib = make_calib(rng.integers(0, 64, size=2000), "A", n_samples=3, seq_len=21)
        per_segment = gathered_inputs(net, calib)
        want = captured_inputs(net, calib)
        assert len(per_segment) == 3
        for got, oracle in zip(per_segment, want):
            assert sorted(got) == sorted(oracle)
            for idx, x in oracle.items():
                np.testing.assert_allclose(got[idx], x, rtol=1e-12)
        # wanda's scores from token counts against its definition on every
        # segment's inputs stacked; then on 8 tokens, so every count is well
        # above 1
        heavy = make_calib(rng.integers(0, 8, size=2000), "B", n_samples=6, seq_len=41)
        for cal, captures in ((calib, want), (heavy, captured_inputs(net, heavy))):
            wanda = P.score_step(net, P.PruneConfig(criterion="wanda", sparsity=0.5),
                                 input_counts(net, cal))
            assert sorted(wanda) == net.prunable_indices()
            for idx, scores in wanda.items():
                oracle = wanda_definition(net.layers[idx].weight, [seg[idx] for seg in captures])
                np.testing.assert_allclose(scores, oracle, rtol=1e-12)

    def test_sensitivity_state_equals_the_per_position_expectation(self, prune_setup):
        # the reference: each segment's own forward_capture, one expected
        # term per input position, with no token counts
        net, calib_a, _ = prune_setup
        eps, draws = 0.05, 3
        cfg = P.PruneConfig(criterion="sensitivity", sparsity=0.5, epsilon=eps, w_draws=draws)
        state = I.init_state(net)
        P.prune_step(net, state, cfg, calib_a)
        importance = P.score_step(net, cfg, state.counts)
        for idx in net.prunable_indices():
            w = net.layers[idx].weight
            grad = np.zeros_like(w)
            for seg in captured_inputs(net, calib_a):
                x = seg[idx]
                for p in range(x.shape[1]):
                    sd = eps * np.sqrt(np.mean(w * w) * np.sum(x[:, p] ** 2)
                                       + np.mean(x[:, p] ** 2) * np.sum(w * w, axis=1))
                    grad += draws * 2 * np.outer(np.sqrt(2 / np.pi) * sd, np.abs(x[:, p]))
            np.testing.assert_allclose(importance[idx], np.abs(w) * grad, rtol=1e-12)

    def test_scored_network_scores_bit_equal_to_the_closed_form(self, tiny_model, monkeypatch):
        """A ``ScoredNetwork`` computes each prunable layer's count-free terms
        once and weighs them by every count vector scored on it. Its scores
        are the bits of ``|W|`` times the closed form computed in one go."""

        def closed_form(w, x, counts, epsilon, draws):
            x_sq = x * x
            a = np.sqrt(np.mean(w * w) * x_sq.sum(axis=0)[None, :]
                        + np.mean(x_sq, axis=0)[None, :] * (w * w).sum(axis=1)[:, None])
            return 2.0 * math.sqrt(2.0 / math.pi) * epsilon * draws * ((a * counts) @ np.abs(x).T)

        made = []
        real = P.gradient_terms
        monkeypatch.setattr(P, "gradient_terms", lambda w, x: made.append(w) or real(w, x))
        net = P.ScoredNetwork(tiny_model.layers, tiny_model.vocab_size, tiny_model.embed)
        inputs = M.forward_capture(tiny_model, M.vocabulary_tokens(tiny_model))
        rng = np.random.default_rng(3)
        one_hot = np.zeros(net.vocab_size, dtype=np.int64)
        one_hot[101] = 7
        vectors = [one_hot, rng.integers(0, 40, size=net.vocab_size),
                   rng.integers(0, 2, size=net.vocab_size) * 1000]
        for eps, draws in ((1e-3, 1), (0.05, 3)):
            cfg = P.PruneConfig(criterion="sensitivity", sparsity=0.5, epsilon=eps, w_draws=draws)
            for counts in vectors:
                got = P.score_step(net, cfg, counts)
                assert sorted(got) == sorted(inputs)
                for idx, x in inputs.items():
                    w = net.layers[idx].weight
                    want = np.abs(w) * closed_form(w, x, counts, eps, draws)
                    assert got[idx].tobytes() == want.tobytes(), (eps, draws, idx)
        # once per prunable layer, for all six (scale, counts) pairs
        assert [id(w) for w in made] == [id(net.layers[idx].weight) for idx in sorted(inputs)]
        # a plain network takes each layer's terms afresh, to the same bits
        plain = P.score_step(tiny_model, cfg, vectors[1])
        held = P.score_step(net, cfg, vectors[1])
        assert all(plain[idx].tobytes() == held[idx].tobytes() for idx in inputs)

    @pytest.mark.parametrize("criterion", ["wanda", "sensitivity"])
    @pytest.mark.parametrize("bad", [-1, 64])
    def test_out_of_range_calibration_token_rejected(self, rng, criterion, bad):
        net = M.make_decoder(vocab_size=64, d=8, hidden=12, blocks=1, seed=6)
        segments = rng.integers(0, 64, size=(2, 16))
        segments[1, 3] = bad
        calib = C.CalibrationSet(corpus_name="A", segments=segments, offsets=np.zeros(2))
        state = I.init_state(net) if criterion == "sensitivity" else None
        cfg = P.PruneConfig(criterion=criterion, sparsity=0.5, seed=0)
        with pytest.raises(InputError, match="out of range"):
            P.prune_step(net, state, cfg, calib)

    @pytest.mark.parametrize("criterion", ["wanda", "sensitivity"])
    def test_layer_kind_outside_positionwise_kinds_raises(self, prune_setup, monkeypatch, criterion):
        net, calib_a, _ = prune_setup
        monkeypatch.setattr(M, "POSITIONWISE_KINDS", M.POSITIONWISE_KINDS - {"activation"})
        state = I.init_state(net) if criterion == "sensitivity" else None
        cfg = P.PruneConfig(criterion=criterion, sparsity=0.5, seed=0)
        with pytest.raises(UsageError, match="not positionwise"):
            P.prune_step(net, state, cfg, calib_a)


class TestMonotoneDegradation:
    def test_perplexity_rises_with_sparsity(self, tiny_model, tiny_corpora):
        corpus = tiny_corpora["prose"]
        calib = C.sample_calibration(corpus, 8, 48, seed=1)
        ppls = []
        for s in (0.3, 0.5, 0.7):
            cfg = P.PruneConfig(criterion="magnitude", sparsity=s, seed=0)
            pruned, _, _ = P.prune_step(tiny_model, None, cfg, calib)
            ppls.append(X.perplexity(pruned, corpus, seq_len=48))
        tol = 0.02 * ppls[0]
        assert ppls[1] >= ppls[0] - tol
        assert ppls[2] >= ppls[1] - tol


class TestExportMasks:
    def test_export_writes_packed_bits_and_summary(self, tmp_path, rng):
        bits = (rng.random((6, 8)) > 0.5).astype(np.uint8)
        masks = {0: bits, 2: np.ones((4, 4), dtype=np.uint8)}
        out = P.export_masks(masks, P.PruneConfig(criterion="magnitude", nm=(2, 4)), tmp_path / "m")
        summary = json.loads(out.read_text())
        assert summary["0"]["shape"] == [6, 8]
        assert summary["2"]["structure"] == [2, 4]
        payload = (tmp_path / "m" / "masks.bin").read_bytes()
        assert len(payload) == summary["0"]["packed_bytes"] + summary["2"]["packed_bytes"]
        unpacked = np.unpackbits(
            np.frombuffer(payload[: summary["0"]["packed_bytes"]], dtype=np.uint8)
        )[: bits.size].reshape(6, 8)
        np.testing.assert_array_equal(unpacked, bits)
        unstructured = P.PruneConfig(criterion="magnitude", sparsity=0.5)
        out = P.export_masks(masks, unstructured, tmp_path / "u")
        assert [v["structure"] for v in json.loads(out.read_text()).values()] == ["unstructured"] * 2
        assert (tmp_path / "u" / "masks.bin").read_bytes() == payload
