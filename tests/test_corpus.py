import hashlib

import numpy as np
import pytest

from contprune import corpus as C
from contprune import metrics as X
from contprune import model as M
from contprune import trainer as T
from contprune.errors import InputError


def params(net):
    return [net.embed, *(p for layer in net.layers for p in (layer.weight, layer.gain, layer.bias)
                         if p is not None)]


class TestLoadCorpus:
    def test_split_arithmetic(self, tmp_path):
        path = tmp_path / "k.bin"
        path.write_bytes(bytes(range(250)) * 4)  # 1000 bytes
        c = C.load_corpus(path, "k")
        assert c.n_calibration == 800
        assert c.n_eval == 200
        assert len(c.calibration_tokens()) == 800
        assert len(c.eval_tokens()) == 200

    def test_byte_values_are_token_ids(self, tmp_path):
        path = tmp_path / "b.bin"
        path.write_bytes(bytes([255, 0, 17, 255, 3]))
        c = C.load_corpus(path, "b")
        assert c.tokens[0] == 255
        assert c.tokens[2] == 17

    def test_tokens_are_the_files_bytes_without_a_copy(self, tmp_path):
        path = tmp_path / "u.bin"
        path.write_bytes(bytes(range(256)) * 3)
        c = C.load_corpus(path, "u")
        assert c.tokens.dtype == np.uint8 and c.tokens.nbytes == 768
        assert c.tokens.tobytes() == path.read_bytes()
        assert not c.tokens.flags.owndata and not c.tokens.flags.writeable

    def test_int64_tokens_sample_count_and_train_as_the_bytes_do(self, tmp_path):
        C.generate_corpora(tmp_path, n_tokens=6000, seed=2)
        loaded = [C.load_corpus(tmp_path / f"{name}.bin", name) for name in ("prose", "numeric")]
        wide = [C.Corpus(name=c.name, tokens=c.tokens.astype(np.int64)) for c in loaded]
        for narrow, widened in zip(loaded, wide):
            a, b = (C.sample_calibration(c, 6, 40, seed=4) for c in (narrow, widened))
            np.testing.assert_array_equal(a.offsets, b.offsets)
            np.testing.assert_array_equal(a.segments, b.segments)
            assert a.counts.dtype == b.counts.dtype == np.int64
            np.testing.assert_array_equal(a.counts, b.counts)
        net = M.make_decoder(d=8, hidden=12, blocks=1, seed=1)
        cfg = T.TrainConfig(steps=20, batch=4, seq_len=32, seed=5)
        trained = [T.train(net, corpora, cfg) for corpora in (loaded, wide)]
        assert [p.tobytes() for p in params(trained[0])] == [p.tobytes() for p in params(trained[1])]
        assert X.perplexities(trained[0], dict(zip("ab", loaded)), 32) == X.perplexities(
            trained[0], dict(zip("ab", wide)), 32)

    def test_same_file_loads_equal(self, tmp_path):
        path = tmp_path / "s.bin"
        path.write_bytes(b"hello corpus data" * 10)
        assert C.load_corpus(path, "s") == C.load_corpus(path, "s")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "e.bin"
        path.write_bytes(b"")
        with pytest.raises(InputError):
            C.load_corpus(path, "e")

    def test_tok_format(self, tmp_path):
        # every corpus is raw bytes whatever its suffix; there is no 16-bit format
        path = tmp_path / "t.tok"
        path.write_bytes(np.array([0, 255, 90, 17], dtype="<u2").tobytes())
        c = C.load_corpus(path, "t")
        np.testing.assert_array_equal(c.tokens, [0, 0, 255, 0, 90, 0, 17, 0])


class TestSampleCalibration:
    def make_corpus(self, n=4000):
        return C.Corpus(name="x", tokens=np.arange(n) % 256)

    def test_counts_and_shape(self):
        calib = C.sample_calibration(self.make_corpus(), 16, 64, seed=0)
        assert calib.segments.shape == (16, 64)
        assert calib.n_samples == 16 and calib.seq_len == 64

    def test_same_seed_same_offsets(self):
        c = self.make_corpus()
        a = C.sample_calibration(c, 8, 32, seed=5)
        b = C.sample_calibration(c, 8, 32, seed=5)
        np.testing.assert_array_equal(a.offsets, b.offsets)
        np.testing.assert_array_equal(a.segments, b.segments)

    def test_forced_single_window(self):
        c = C.Corpus(name="x", tokens=np.arange(40), eval_fraction=0.2)
        calib = C.sample_calibration(c, 1, 32, seed=9)  # calibration range is exactly 32
        np.testing.assert_array_equal(calib.segments[0], np.arange(32))

    def test_too_long_rejected(self):
        c = C.Corpus(name="x", tokens=np.arange(40), eval_fraction=0.2)
        with pytest.raises(InputError):
            C.sample_calibration(c, 1, 33, seed=0)

    def test_windows_never_touch_eval_range(self):
        c = self.make_corpus(1000)
        for seed in range(50):
            calib = C.sample_calibration(c, 4, 50, seed=seed)
            assert (calib.offsets + 50 <= c.n_calibration).all()

    def test_offsets_cover_the_calibration_range(self):
        c = self.make_corpus(2000)
        max_start = c.n_calibration - 64
        lo, hi = max_start, 0
        for seed in range(1000):
            offs = C.sample_calibration(c, 4, 64, seed=seed).offsets
            lo = min(lo, offs.min())
            hi = max(hi, offs.max())
        assert (hi - lo) / max_start >= 0.9


    def test_input_counts_skip_each_segment_last_token_and_are_counted_once(self):
        calib = C.sample_calibration(self.make_corpus(), 8, 32, seed=3)
        want = np.bincount(calib.segments[:, :-1].ravel())
        np.testing.assert_array_equal(calib.counts, want)
        assert calib.counts.sum() == 8 * 31
        assert calib.counts is calib.counts  # cached

    def test_negative_token_in_input_counts_is_an_input_error(self):
        segments = np.array([[3, 1, 2], [0, -2, 5]])
        calib = C.CalibrationSet(corpus_name="x", segments=segments, offsets=np.zeros(2), seed=0)
        with pytest.raises(InputError, match="set 'x' holds a token id out of range: -2"):
            calib.counts


class TestPermutations:
    def test_two(self):
        assert C.permutations(["A", "B"]) == [("A", "B"), ("B", "A")]

    def test_three_gives_six_sorted(self):
        out = C.permutations(["c", "a", "b"])
        assert len(out) == 6
        assert out == sorted(out)
        assert out[0] == ("a", "b", "c")

    def test_single(self):
        assert C.permutations(["only"]) == [("only",)]

    def test_duplicates_rejected(self):
        with pytest.raises(InputError):
            C.permutations(["A", "A"])

    def test_factorial_guard(self):
        with pytest.raises(InputError):
            C.permutations(list("abcdef"))
        with pytest.raises(InputError):
            C.permutations([])


class TestGenerators:
    def test_deterministic_and_distinct(self, tmp_path):
        p1 = C.generate_corpora(tmp_path / "a", n_tokens=5000, seed=3)
        p2 = C.generate_corpora(tmp_path / "b", n_tokens=5000, seed=3)
        blobs = {}
        for name in C.GENERATOR_NAMES:
            d1 = p1[name].read_bytes()
            assert d1 == p2[name].read_bytes()
            assert len(d1) == 5000
            blobs[name] = d1
        assert len(set(blobs.values())) == 3

    def test_byte_supports_barely_overlap(self, tmp_path):
        paths = C.generate_corpora(tmp_path / "c", n_tokens=20_000, seed=0)
        supports = {n: set(p.read_bytes()) for n, p in paths.items()}
        # the domain shift is real: pairwise byte overlap stays small
        for a in C.GENERATOR_NAMES:
            for b in C.GENERATOR_NAMES:
                if a < b:
                    inter = supports[a] & supports[b]
                    union = supports[a] | supports[b]
                    assert len(inter) / len(union) < 0.3

    @pytest.mark.parametrize("n_tokens, seed, digests", [
        (25_000, 1, {
            "prose": "bafe44e64b1b72596bd9f332caa8aaaee714c2d41c5bde9334934e2ead83c569",
            "bracket": "21cfde806b139e861800df3a7bdd9af8e0d83b2af6e9acc068f14db97b5f31d9",
            "numeric": "18a5daaf89b326b0f8aa082fea23ac8bd62d916520e7a50225e0918f3ded9e04",
        }),
        (200_000, 0, {  # the desk_dir fixture
            "prose": "f7e2ce073c0795cb97ed80e5a3872264bca30b3709d2c1514304d6f1b3590a4b",
            "bracket": "2e37f73df99beac4b60128ec62f712f8c7e0b3d3a03fa6038aad4c46b8b0f81c",
            "numeric": "3049296e19c6d38950520d30365929ed387da6d2d2c01a944b5a3ecfaff35d99",
        }),
    ], ids=["25k-seed1", "200k-seed0"])
    def test_bytes_are_pinned(self, tmp_path, n_tokens, seed, digests):
        """The generators' output is part of the determinism contract: a
        rewrite must write the same bytes, not just the same bytes twice."""
        paths = C.generate_corpora(tmp_path, n_tokens=n_tokens, seed=seed)
        got = {name: hashlib.sha256(paths[name].read_bytes()).hexdigest() for name in paths}
        assert got == digests

    def test_all_ids_fit_byte_vocab(self, tmp_path):
        for path in C.generate_corpora(tmp_path / "d", n_tokens=3000, seed=1).values():
            c = C.load_corpus(path, "x")
            assert c.tokens.max() < 256
