import hashlib
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from contprune import corpus as C
from contprune import importance as I
from contprune import metrics as X
from contprune import model as M
from contprune import pruner as P
from contprune import trainer as T
from contprune.errors import FormatError, InputError, ShapeError

from conftest import vocabulary_sequence

DATA = Path(__file__).parent / "data"


def two_layer_net(rng, vocab=16, d=4, out=5):
    w1 = rng.standard_normal((out, d))
    w2 = rng.standard_normal((d, out))
    layers = [M.linear(w1), M.activation("tanh"), M.linear(w2)]
    return M.Network(layers=layers, vocab_size=vocab, embed=rng.standard_normal((vocab, d)))


class TestLayer:
    def test_exactly_the_fields_for_kind(self):
        with pytest.raises(ValueError):
            M.Layer(kind="linear")  # weight missing
        with pytest.raises(ValueError):
            M.Layer(kind="activation", activation_kind="relu", weight=np.eye(2))
        with pytest.raises(ValueError):
            M.Layer(kind="layer_norm", gain=np.ones(3))  # bias missing
        with pytest.raises(ValueError):
            M.activation("swish")

    def test_rejects_nonfinite_weight(self):
        with pytest.raises(ValueError):
            M.linear(np.array([[np.nan, 0.0]]))


class TestLayerForward:
    def test_linear_is_wx(self, rng):
        w = rng.standard_normal((3, 2))
        x = rng.standard_normal((2, 5))
        np.testing.assert_array_equal(M.layer_forward(M.linear(w), x), w @ x)

    @pytest.mark.parametrize("kind", ["relu", "gelu", "tanh"])
    def test_activation_matches_scalar_oracle(self, rng, kind):
        x = rng.standard_normal((4, 7))
        out = M.layer_forward(M.activation(kind), x)

        def scalar(v):
            if kind == "relu":
                return max(v, 0.0)
            if kind == "tanh":
                return math.tanh(v)
            return 0.5 * v * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (v + 0.044715 * v**3)))

        expected = np.array([[scalar(v) for v in row] for row in x])
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_layer_norm_normalizes_columns(self, rng):
        layer = M.layer_norm(np.ones(6), np.zeros(6))
        x = rng.standard_normal((6, 9)) * 3.0 + 1.0
        out = M.layer_forward(layer, x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-3)

    def test_shape_errors(self, rng):
        with pytest.raises(ShapeError):
            M.layer_forward(M.linear(np.ones((3, 2))), np.ones((4, 1)))


class TestForward:
    def test_zero_network_uniform_logits(self):
        vocab, d = 8, 4
        layers = [M.linear(np.zeros((d, d))), M.activation("relu")]
        net = M.Network(layers=layers, vocab_size=vocab, embed=np.zeros((vocab, d)))
        logits = M.forward(net, [3, 3, 3, 3])
        assert logits.shape == (3, vocab)
        np.testing.assert_array_equal(logits, np.zeros((3, vocab)))

    def test_causality_by_construction(self, rng):
        net = two_layer_net(rng)
        tokens = list(rng.integers(0, 16, size=10))
        logits = M.forward(net, tokens)
        perturbed = list(tokens)
        perturbed[6] = (perturbed[6] + 1) % 16
        logits2 = M.forward(net, perturbed)
        np.testing.assert_array_equal(logits[:5], logits2[:5])

    def test_matches_hand_rolled_composition(self, rng):
        net = two_layer_net(rng)
        tokens = [1, 5, 9, 2]
        logits = M.forward(net, tokens)
        w1, w2 = net.layers[0].weight, net.layers[2].weight
        for t, tok in enumerate(tokens[:-1]):
            h = w2 @ np.tanh(w1 @ net.embed[tok])
            np.testing.assert_allclose(logits[t], net.embed @ h, rtol=1e-12)

    def test_deterministic(self, rng):
        net = two_layer_net(rng)
        tokens = list(rng.integers(0, 16, size=32))
        a = M.forward(net, tokens)
        b = M.forward(net, tokens)
        assert a.tobytes() == b.tobytes()

    def test_token_range_checked(self, rng):
        net = two_layer_net(rng)
        with pytest.raises(InputError):
            M.forward(net, [0, 99])
        with pytest.raises(InputError):
            M.forward(net, [5])


class TestForwardCapture:
    def test_holds_each_prunable_layer_input(self, rng):
        net = two_layer_net(rng)
        tokens = list(rng.integers(0, 16, size=8))
        captured = M.forward_capture(net, tokens)
        assert list(captured) == net.prunable_indices()
        xs = M.layer_inputs(net, tokens)
        for idx, x in captured.items():
            assert x.tobytes() == xs[idx].tobytes()

    def test_deterministic_across_runs(self, rng):
        net = two_layer_net(rng)
        tokens = list(rng.integers(0, 16, size=12))
        first = M.forward_capture(net, tokens)
        second = M.forward_capture(net, tokens)
        assert list(first) == list(second)
        for idx, x in first.items():
            assert x.tobytes() == second[idx].tobytes()


def list_layer_inputs(net, tokens):
    """The list-based forward loop the streamed pass replaced: every layer's
    input stays alive until the pass ends."""
    toks = M.check_tokens(net, tokens)
    xs = [net.embed[toks[:-1]].T]
    for layer in net.layers:
        xs.append(M.layer_forward(layer, xs[-1]))
    return xs


class TestStreamedForward:
    @pytest.fixture(params=["base", "masked"])
    def net(self, request, tiny_model, masked_tiny_model):
        return tiny_model if request.param == "base" else masked_tiny_model

    def test_bit_equal_to_the_list_based_loop(self, net, rng):
        for tokens in (vocabulary_sequence(net), rng.integers(0, net.vocab_size, size=300)):
            xs = list_layer_inputs(net, tokens)
            assert M.forward(net, tokens).tobytes() == (net.embed @ xs[-1]).T.tobytes()
            captured = M.forward_capture(net, tokens)
            assert list(captured) == net.prunable_indices()
            for idx, x in captured.items():
                assert x.tobytes() == xs[idx].tobytes()
            assert [x.tobytes() for x in M.layer_inputs(net, tokens)] == [x.tobytes() for x in xs]

    def test_forward_holds_one_activation_not_every_layer_input(self):
        net = M.make_decoder(d=64, hidden=128, blocks=2, seed=0)  # the desk shape
        tokens = vocabulary_sequence(net)
        every_input = sum(x.nbytes for x in M.layer_inputs(net, tokens))
        tracemalloc.start()
        try:
            M.forward(net, tokens)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < every_input


class TestPositionwiseContract:
    """Every kind in ``LAYER_KINDS`` maps each position on its own, so the
    logits at a position are those that a forward on its distinct tokens
    gives for its token; a new kind fails here until it has a builder."""

    def test_every_kind_maps_each_position_on_its_own(self, rng):
        d, vocab = 6, 64
        builders = {
            "linear": lambda: [M.linear(rng.standard_normal((d, d)) / np.sqrt(d))],
            "activation": lambda: [M.activation(kind) for kind in M.ACTIVATION_KINDS],
            "layer_norm": lambda: [M.layer_norm(1.0 + 0.1 * rng.standard_normal(d),
                                                0.1 * rng.standard_normal(d))],
        }
        assert set(M.LAYER_KINDS) <= set(builders), "a layer kind with no builder in this test"
        layers = [layer for kind in M.LAYER_KINDS for layer in builders[kind]()]
        net = M.Network(layers=layers, vocab_size=vocab, embed=rng.standard_normal((vocab, d)))
        assert {layer.kind for layer in net.layers} == set(M.LAYER_KINDS)
        assert [layer.activation_kind for layer in net.layers
                if layer.kind == "activation"] == list(M.ACTIVATION_KINDS)
        tokens = rng.integers(0, vocab, size=300)
        distinct = np.unique(tokens[:-1])
        want = M.forward(net, np.append(distinct, 0))[np.searchsorted(distinct, tokens[:-1])]
        got = M.forward(net, tokens)
        assert np.all(np.linalg.norm(got - want, axis=1) <= 1e-12 * np.linalg.norm(want, axis=1))


class TestLargeVocabulary:
    """No command builds a (V, V) table of logits, so a 5000-token network
    evaluates, prunes and trains on a 200-token corpus."""

    @pytest.fixture()
    def big(self, rng):
        vocab = 5000
        net = M.make_decoder(vocab_size=vocab, d=8, hidden=12, blocks=1, seed=2)
        return net, C.Corpus(name="big", tokens=rng.integers(0, vocab, size=200))

    def test_perplexity_matches_the_window_loop(self, big):
        net, corpus = big
        ev, seq_len = corpus.eval_tokens(), 16
        ppls = []
        for w in range(len(ev) // seq_len):
            window = ev[w * seq_len : (w + 1) * seq_len]
            logits = M.forward(net, window)
            zmax = logits.max(axis=1, keepdims=True)
            logz = zmax[:, 0] + np.log(np.exp(logits - zmax).sum(axis=1))
            ppls.append(np.exp(-(logits[np.arange(seq_len - 1), window[1:]] - logz).mean()))
        assert len(ppls) == 2
        assert X.perplexity(net, corpus, seq_len) == pytest.approx(np.mean(ppls), rel=1e-12)

    @pytest.mark.parametrize("criterion", ["wanda", "sensitivity"])
    def test_prune_step_reaches_its_sparsity(self, big, criterion):
        net, corpus = big
        state = I.init_state(net) if criterion == "sensitivity" else None
        _, _, frag = P.prune_step(net, state, P.PruneConfig(criterion=criterion, sparsity=0.5),
                                  C.sample_calibration(corpus, 2, 16, seed=0))
        assert frag["overall_sparsity"] == 0.5

    def test_train_takes_a_step(self, big):
        net, corpus = big
        losses = []
        trained = T.train(net, [corpus], T.TrainConfig(steps=1, batch=2, seq_len=16, seed=0), losses)
        assert len(losses) == 1 and np.isfinite(losses[0])
        assert not np.array_equal(trained.embed, net.embed)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        net = M.make_decoder(vocab_size=32, d=8, hidden=12, blocks=2, seed=5)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        M.save_checkpoint(net, p1)
        loaded = M.load_checkpoint(p1)
        M.save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(net.embed, loaded.embed)
        for a, b in zip(net.layers, loaded.layers):
            assert a.kind == b.kind
            if a.kind == "linear":
                assert a.weight.tobytes() == b.weight.tobytes()

    def test_truncated_file_is_format_error(self, tmp_path):
        net = M.make_decoder(vocab_size=8, d=4, hidden=6, blocks=1, seed=1)
        path = tmp_path / "c.ckpt"
        M.save_checkpoint(net, path)
        data = path.read_bytes()
        for cut in (4, 20, len(data) - 9):
            path.write_bytes(data[:cut])
            with pytest.raises(FormatError):
                M.load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "d.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(FormatError):
            M.load_checkpoint(path)

    def test_declared_shape_vs_payload_mismatch(self, tmp_path):
        net = M.make_decoder(vocab_size=8, d=4, hidden=6, blocks=1, seed=1)
        path = tmp_path / "e.ckpt"
        M.save_checkpoint(net, path)
        data = bytearray(path.read_bytes())
        # enlarge the declared vocab so the payload is too short for the table
        data[12] = data[12] + 1
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            M.load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        net = M.make_decoder(vocab_size=8, d=4, hidden=6, blocks=1, seed=1)
        path = tmp_path / "f.ckpt"
        M.save_checkpoint(net, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("layers, want", [
        ([M.linear(np.ones((6, 4))), M.linear(np.ones((3, 5)))],
         "layer 1: linear takes width 5, gets 6"),
        ([M.linear(np.ones((4, 4))), M.layer_norm(np.ones(3), np.zeros(3))],
         "layer 1: layer_norm takes width 3, gets 4"),
        ([M.linear(np.ones((6, 4)))], "the layers end at width 6, the tied head takes d=4"),
    ], ids=["linear", "layer-norm", "head"])
    def test_layer_widths_that_do_not_chain(self, tmp_path, monkeypatch, layers, want):
        """Checked on the layer table, before any payload is read."""
        path = tmp_path / "w.ckpt"
        M.save_checkpoint(M.Network(layers, vocab_size=8, embed=np.ones((8, 4))), path)

        def no_read(*args):
            raise AssertionError("payload read")

        monkeypatch.setattr(M, "_read_array", no_read)
        with pytest.raises(FormatError, match=re.escape(want)):
            M.load_checkpoint(path)

    def test_golden_fixture_stays_stable(self):
        golden = DATA / "golden.ckpt"
        digest = hashlib.sha256(golden.read_bytes()).hexdigest()
        assert digest == "c0eb1ce9782101c390c787229605c60cd50a5e17e85340073c194fa5d6952b5f"
        net = M.load_checkpoint(golden)
        assert net.vocab_size == 8
        assert [l.kind for l in net.layers] == ["linear", "activation", "linear", "layer_norm"]
        np.testing.assert_allclose(
            net.embed[0],
            [0.008249430428370294, -0.04644184149542189, 0.005051506297463688, 0.06862308196812632],
            rtol=0, atol=0,
        )
        np.testing.assert_allclose(
            net.layers[0].weight[0],
            [-0.02337930282490246, -0.3215404450115275, 0.9804674136151528, 0.3453602261003559],
            rtol=0, atol=0,
        )

    def test_golden_fixture_rewrites_byte_identical(self, tmp_path):
        # pins the writer too: save(load(f)) must reproduce f with no RNG involved
        golden = DATA / "golden.ckpt"
        path = tmp_path / "golden_rewritten.ckpt"
        M.save_checkpoint(M.load_checkpoint(golden), path)
        assert path.read_bytes() == golden.read_bytes()
