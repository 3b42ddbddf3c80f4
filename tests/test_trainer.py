import numpy as np
import pytest

from contprune import corpus as C
from contprune import metrics as X
from contprune import model as M
from contprune import trainer as T
from contprune.errors import InputError, TrainingError, UsageError


def byte_corpus(rng, n=6000, name="t"):
    return C.Corpus(name=name, tokens=rng.integers(0, 64, size=n))


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(UsageError):
            T.TrainConfig(steps=-1)
        with pytest.raises(UsageError):
            T.TrainConfig(learning_rate=0.0)
        with pytest.raises(UsageError):
            T.TrainConfig(learning_rate=1.0)
        with pytest.raises(UsageError):
            T.TrainConfig(batch=0)


class TestTrain:
    def test_zero_steps_is_identity(self, rng):
        net = M.make_decoder(vocab_size=64, d=8, hidden=12, blocks=1, seed=0)
        out = T.train(net, [byte_corpus(rng)], T.TrainConfig(steps=0, seed=1))
        assert out.embed.tobytes() == net.embed.tobytes()
        for a, b in zip(net.layers, out.layers):
            if a.kind == "linear":
                assert a.weight.tobytes() == b.weight.tobytes()

    def test_input_network_is_never_mutated(self, rng):
        net = M.make_decoder(vocab_size=64, d=8, hidden=12, blocks=1, seed=0)
        snapshot = net.embed.copy()
        T.train(net, [byte_corpus(rng)], T.TrainConfig(steps=5, batch=4, seq_len=16, seed=1))
        assert np.array_equal(net.embed, snapshot)

    def test_same_seed_bit_identical(self, rng):
        net = M.make_decoder(vocab_size=64, d=8, hidden=12, blocks=1, seed=0)
        corpora = [byte_corpus(rng)]
        cfg = T.TrainConfig(steps=20, batch=4, seq_len=16, learning_rate=0.2, seed=42)
        a = T.train(net, corpora, cfg)
        b = T.train(net, corpora, cfg)
        assert a.embed.tobytes() == b.embed.tobytes()
        for la, lb in zip(a.layers, b.layers):
            if la.kind == "linear":
                assert la.weight.tobytes() == lb.weight.tobytes()

    def test_checkpoints_round_trip_identically(self, rng, tmp_path):
        net = M.make_decoder(vocab_size=64, d=8, hidden=12, blocks=1, seed=0)
        cfg = T.TrainConfig(steps=10, batch=4, seq_len=16, seed=9)
        out = T.train(net, [byte_corpus(rng)], cfg)
        M.save_checkpoint(out, tmp_path / "a.ckpt")
        M.save_checkpoint(T.train(net, [byte_corpus(np.random.default_rng(1234))], cfg), tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_beats_uniform_after_training(self, tiny_model, tiny_corpora):
        for corpus in tiny_corpora.values():
            assert X.perplexity(tiny_model, corpus, seq_len=48) < tiny_model.vocab_size

    def test_loss_log_and_moving_average_trend(self, tiny_corpora):
        net = M.make_decoder(vocab_size=256, d=32, hidden=48, blocks=1, seed=5)
        losses: list[float] = []
        cfg = T.TrainConfig(steps=400, batch=8, seq_len=32, learning_rate=0.3, seed=2)
        T.train(net, list(tiny_corpora.values()), cfg, loss_log=losses)
        assert len(losses) == 400
        ma = np.convolve(losses, np.ones(50) / 50, mode="valid")
        assert ma[-1] < ma[0]
        # sanity gate: the smoothed curve never climbs appreciably
        upticks = np.diff(ma)
        assert upticks.max() <= 0.02 * ma[0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_training_error(self, rng):
        net = M.make_decoder(vocab_size=64, d=8, hidden=12, blocks=1, seed=0)
        net.embed *= 1e160  # overflow the logits on the first step
        with pytest.raises(TrainingError, match="learning_rate"):
            T.train(net, [byte_corpus(rng)], T.TrainConfig(steps=3, batch=2, seq_len=8, seed=0))

    def test_needs_corpora(self, rng):
        net = M.make_decoder(vocab_size=64, d=8, hidden=12, blocks=1, seed=0)
        with pytest.raises(UsageError):
            T.train(net, [], T.TrainConfig(steps=1))

    @pytest.mark.parametrize("bad", [-1, 64])
    def test_out_of_range_corpus_token_rejected(self, rng, bad):
        net = M.make_decoder(vocab_size=64, d=8, hidden=12, blocks=1, seed=0)
        corpus = byte_corpus(rng)
        corpus.tokens[::8] = bad  # every window of 16 holds one
        with pytest.raises(InputError, match="out of range"):
            T.train(net, [corpus], T.TrainConfig(steps=1, batch=4, seq_len=16, seed=0))

    @pytest.mark.parametrize("steps", [0, 3])
    def test_corpus_shorter_than_seq_len_is_refused_before_any_step(self, rng, monkeypatch, steps):
        net = M.make_decoder(vocab_size=64, d=8, hidden=12, blocks=1, seed=0)
        short = C.Corpus(name="short", tokens=rng.integers(0, 64, size=20))  # 16 calibration tokens
        monkeypatch.setattr(T, "_loss_and_grads", lambda *a: pytest.fail("a step ran"))
        with pytest.raises(UsageError, match="corpus 'short' calibration range shorter than seq_len=17$"):
            T.train(net, [byte_corpus(rng), short], T.TrainConfig(steps=steps, batch=2, seq_len=17))
        T.train(net, [short], T.TrainConfig(steps=0, batch=2, seq_len=16))  # exactly seq_len fits


def _oracle_activation_forward(kind, x):
    if kind == "relu":
        return np.maximum(x, 0.0), (x > 0,)
    if kind == "tanh":
        t = np.tanh(x)
        return t, (t,)
    t = np.tanh(M._GELU_C * (x + M._GELU_A * x * x * x))
    return 0.5 * x * (1.0 + t), (x, t)


def _oracle_activation_grad(kind, cache):
    if kind == "relu":
        return cache[0].astype(np.float64)
    if kind == "tanh":
        t = cache[0]
        return 1.0 - t * t
    x, t = cache
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * M._GELU_C * (1.0 + 3.0 * M._GELU_A * x * x)


def oracle_loss_and_grads(net, windows):
    """The per-position trainer: its own forward over every batch position,
    then the backward pass from the cached activations."""
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
            x, cache = _oracle_activation_forward(layer.activation_kind, x)
            caches.append(("activation", cache))
        else:
            mu = x.mean(axis=0, keepdims=True)
            var = x.var(axis=0, keepdims=True)
            inv_std = 1.0 / np.sqrt(var + M.LAYER_NORM_EPS)
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

    pairs = [(net.embed, d_embed)]
    for idx in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[idx]
        kind, cache = caches[idx]
        if kind == "linear":
            pairs.append((layer.weight, dx @ cache.T))
            dx = layer.weight.T @ dx
        elif kind == "activation":
            dx = dx * _oracle_activation_grad(layer.activation_kind, cache)
        else:
            xhat, inv_std = cache
            dgain = (dx * xhat).sum(axis=1)
            dbias = dx.sum(axis=1)
            dxhat = dx * layer.gain[:, None]
            m1 = dxhat.mean(axis=0, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=0, keepdims=True)
            dx = inv_std * (dxhat - m1 - xhat * m2)
            pairs += [(layer.gain, dgain), (layer.bias, dbias)]

    np.add.at(d_embed, inputs, dx.T)  # lookup side, tied with the head
    return loss, pairs


def table_loss_and_grads(net, windows):
    """The full-table trainer: ``layer_inputs`` on the whole vocabulary,
    a (V, V) bigram count and logit table, and a lookup-side gradient for
    every embedding row, read or not."""
    windows = M.check_tokens(net, windows.ravel()).reshape(windows.shape)
    prev, targets = windows[:, :-1].ravel(), windows[:, 1:].ravel()
    n = prev.size
    counts = np.zeros((net.vocab_size, net.vocab_size))
    np.add.at(counts, (prev, targets), 1.0)

    xs = M.layer_inputs(net, M.vocabulary_tokens(net))  # column a: token a
    h = xs[-1]
    logits = (net.embed @ h).T  # (vocab, vocab), row a: logits after token a
    z = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(z)
    sumz = expz.sum(axis=1, keepdims=True)
    loss = float(-(counts * (z - np.log(sumz))).sum() / n)
    dlogits = (counts.sum(axis=1, keepdims=True) * (expz / sumz) - counts) / n

    d_embed = dlogits.T @ h.T  # head side
    dx = net.embed.T @ dlogits.T

    pairs = [(net.embed, d_embed)]
    for idx in range(len(net.layers) - 1, -1, -1):
        layer, x = net.layers[idx], xs[idx]
        if layer.kind == "linear":
            pairs.append((layer.weight, dx @ x.T))
            dx = layer.weight.T @ dx
        elif layer.kind == "activation":
            dx = dx * M.activation_grad(layer.activation_kind, x)
        else:
            xhat, std = M.standardize(x)
            pairs += [(layer.gain, (dx * xhat).sum(axis=1)), (layer.bias, dx.sum(axis=1))]
            dxhat = dx * layer.gain[:, None]
            m1 = dxhat.mean(axis=0, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=0, keepdims=True)
            dx = (dxhat - m1 - xhat * m2) / std

    d_embed += dx.T  # lookup side, tied with the head: row a looked up once
    return loss, pairs


def flat(loss, pairs):
    """The loss, then the parameters and the gradients, each in pair order."""
    return loss, [p for p, _ in pairs], [g for _, g in pairs]


def parameters(net):
    return [net.embed] + [a for layer in net.layers for a in (layer.weight, layer.gain, layer.bias)
                          if a is not None]


def assert_training_drift_bounded(monkeypatch, tiny_corpora, oracle):
    net = M.make_decoder(d=32, hidden=64, blocks=1, seed=3)
    cfg = T.TrainConfig(steps=300, batch=8, seq_len=48, learning_rate=0.3, seed=11)
    corpora = list(tiny_corpora.values())
    got = T.train(net, corpora, cfg)
    monkeypatch.setattr(T, "_loss_and_grads", oracle)
    want = T.train(net, corpora, cfg)
    for a, b in zip(parameters(got), parameters(want)):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())


class TestBackprop:
    @pytest.mark.parametrize("act", ["relu", "gelu", "tanh"])
    def test_matches_per_position_oracle(self, act):
        rng = np.random.default_rng(5)
        net = M.make_decoder(vocab_size=64, d=8, hidden=12, blocks=2, act=act, seed=1)
        # 44 positions over 20 previous tokens: rows repeat, and rows 20..63 are never read
        windows = rng.integers(0, 20, size=(4, 12))
        loss, params, got = flat(*T._loss_and_grads(net, windows))
        want_loss, want_params, want = flat(*oracle_loss_and_grads(net, windows))
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        assert len(params) == len(want_params) == len(parameters(net))
        assert all(a is b for a, b in zip(params, want_params))
        for a, b in zip(got, want):
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("act", ["relu", "gelu", "tanh"])
    def test_matches_full_table_oracle(self, act):
        rng = np.random.default_rng(6)
        net = M.make_decoder(vocab_size=256, d=8, hidden=12, blocks=2, act=act, seed=2)
        # 16 x 64 batch over 40 spread-out tokens: 216 of the 256 rows are never read
        windows = rng.choice(256, size=40, replace=False)[rng.integers(0, 40, size=(16, 64))]
        loss, params, got = flat(*T._loss_and_grads(net, windows))
        want_loss, want_params, want = flat(*table_loss_and_grads(net, windows))
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        assert len(params) == len(want_params) == len(parameters(net))
        assert all(a is b for a, b in zip(params, want_params))
        for a, b in zip(got, want):
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    def test_training_drift_from_oracle_is_bounded(self, monkeypatch, tiny_corpora):
        """The tiny-fixture training run, through the per-position oracle and
        the trainer. Only the summation order differs, so each parameter
        array agrees to 1e-12 relative to its own scale (single entries near
        zero can differ more relative to themselves)."""
        assert_training_drift_bounded(monkeypatch, tiny_corpora, oracle_loss_and_grads)

    def test_training_drift_from_table_oracle_is_bounded(self, monkeypatch, tiny_corpora):
        """As above against the full-table trainer. The position sums
        (``dx @ x.T``, the layer-norm gain and bias sums, ``dlogits.T @ h.T``)
        run over the active tokens instead of all V columns; the dropped
        columns are exact zeros, but BLAS and numpy's pairwise sums group the
        rest differently."""
        assert_training_drift_bounded(monkeypatch, tiny_corpora, table_loss_and_grads)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_in_an_unread_embedding_row_poisons_the_loss(self):
        net = M.make_decoder(vocab_size=64, d=8, hidden=12, blocks=1, seed=0)
        windows = np.random.default_rng(3).integers(0, 20, size=(4, 12))
        net.embed[50, 3] = np.nan  # no batch token is 50; the tied head still reads the row
        assert not np.isfinite(T._loss_and_grads(net, windows)[0])

    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(7)
        net = M.make_decoder(vocab_size=31, d=8, hidden=12, blocks=2, act="gelu", seed=3)
        windows = rng.integers(0, 31, size=(3, 9))
        _, pairs = T._loss_and_grads(net, windows)
        assert {id(p) for p, _ in pairs} == {id(a) for a in parameters(net)}

        h = 1e-6
        for param, grad in pairs:
            values = param.reshape(-1)  # a view: perturbing it perturbs net
            for i in rng.choice(values.size, size=min(10, values.size), replace=False):
                value = values[i]
                values[i] = value + h
                lp = T._loss_and_grads(net, windows)[0]
                values[i] = value - h
                lm = T._loss_and_grads(net, windows)[0]
                values[i] = value
                fd = (lp - lm) / (2 * h)
                assert abs(fd - grad.flat[i]) <= 1e-5 * max(abs(fd), 1e-6)



def parent_sample_batch(corpora, batch, seq_len, rng):
    """The sampler before the batch draw: one scalar draw per window."""
    windows = np.empty((batch, seq_len), dtype=np.int64)
    picks = rng.integers(0, len(corpora), size=batch)
    for b in range(batch):
        calib = corpora[picks[b]].calibration_tokens()
        if len(calib) < seq_len:
            raise UsageError(f"corpus {corpora[picks[b]].name!r} calibration range shorter "
                             f"than seq_len={seq_len}")
        start = rng.integers(0, len(calib) - seq_len + 1)
        windows[b] = calib[start : start + seq_len]
    return windows


def parent_loss_and_grads(net, windows):
    """The step before the pair list: np.add.at bigram counts, and the
    gradients as a dict of dicts keyed by layer index."""
    windows = M.check_tokens(net, windows.ravel()).reshape(windows.shape)
    prev, targets = windows[:, :-1].ravel(), windows[:, 1:].ravel()
    n = prev.size
    active, row = np.unique(prev, return_inverse=True)
    counts = np.zeros((active.size, net.vocab_size))
    np.add.at(counts, (row, targets), 1.0)

    xs = M.layer_inputs(net, np.append(M.vocabulary_tokens(net)[active], 0))
    h = xs[-1]
    logits = (net.embed @ h).T
    z = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(z)
    sumz = expz.sum(axis=1, keepdims=True)
    loss = float(-(counts * (z - np.log(sumz))).sum() / n)
    dlogits = (counts.sum(axis=1, keepdims=True) * (expz / sumz) - counts) / n

    d_embed = dlogits.T @ h.T
    dx = net.embed.T @ dlogits.T

    grads = {}
    for idx in range(len(net.layers) - 1, -1, -1):
        layer, x = net.layers[idx], xs[idx]
        if layer.kind == "linear":
            grads[idx] = {"weight": dx @ x.T}
            dx = layer.weight.T @ dx
        elif layer.kind == "activation":
            dx = dx * M.activation_grad(layer.activation_kind, x)
        else:
            xhat, std = M.standardize(x)
            grads[idx] = {"gain": (dx * xhat).sum(axis=1), "bias": dx.sum(axis=1)}
            dxhat = dx * layer.gain[:, None]
            m1 = dxhat.mean(axis=0, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=0, keepdims=True)
            dx = (dxhat - m1 - xhat * m2) / std

    d_embed[active] += dx.T
    return loss, d_embed, grads


def parent_train(net, corpora, cfg, loss_log):
    """The training loop before the pair list: a nested norm loop and a
    branch per layer kind for the update."""
    out = net.copy()
    rng = np.random.default_rng(cfg.seed)
    lr = cfg.learning_rate
    for _ in range(cfg.steps):
        windows = parent_sample_batch(corpora, cfg.batch, cfg.seq_len, rng)
        loss, d_embed, grads = parent_loss_and_grads(out, windows)
        loss_log.append(loss)

        sq = float((d_embed * d_embed).sum())
        for g in grads.values():
            for arr in g.values():
                sq += float((arr * arr).sum())
        norm = np.sqrt(sq)
        factor = lr if norm <= T.CLIP_NORM else lr * T.CLIP_NORM / norm

        out.embed -= factor * d_embed
        for idx, g in grads.items():
            layer = out.layers[idx]
            if "weight" in g:
                layer.weight -= factor * g["weight"]
            else:
                layer.gain -= factor * g["gain"]
                layer.bias -= factor * g["bias"]
    return out


class TestSameBytesAsTheScalarLoops:
    """The batch draw and the pair-list update give the bytes of the
    per-window draws and the dict-and-branch update they replace."""

    @pytest.mark.parametrize("batch", [1, 3, 16])
    @pytest.mark.parametrize("seed", [0, 1, 11, 2024])
    def test_batch_draw_takes_the_scalar_draws_values(self, batch, seed):
        # unequal calibration lengths, down to one that fits a single window
        corpora = [C.Corpus(name=f"c{n}", tokens=np.arange(n) % 251) for n in (80, 81, 300, 5000)]
        seq_len = 64
        calibs = [c.calibration_tokens() for c in corpora]
        assert min(len(c) for c in calibs) == seq_len
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            got = T._sample_batch(calibs, batch, seq_len, got_rng)
            want = parent_sample_batch(corpora, batch, seq_len, want_rng)
            assert got.shape == want.shape and np.array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_train_gives_the_dict_and_branch_loops_bytes(self, tiny_corpora):
        net = M.make_decoder(d=32, hidden=64, blocks=1, seed=3)
        cfg = T.TrainConfig(steps=60, batch=8, seq_len=48, learning_rate=0.3, seed=11)
        corpora = list(tiny_corpora.values())
        got_losses, want_losses = [], []
        got = T.train(net, corpora, cfg, loss_log=got_losses)
        want = parent_train(net, corpora, cfg, want_losses)
        assert got_losses == want_losses
        for a, b in zip(parameters(got), parameters(want), strict=True):
            assert a.tobytes() == b.tobytes()
