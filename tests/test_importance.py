import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contprune import corpus as C
from contprune import importance as I
from contprune import model as M
from contprune.errors import FormatError, ShapeError, UsageError


def small_net(rng):
    layers = [
        M.linear(rng.standard_normal((6, 4))),
        M.activation("relu"),
        M.linear(rng.standard_normal((4, 6))),
    ]
    return M.Network(layers=layers, vocab_size=8, embed=rng.standard_normal((8, 4)))


def calib_set(name, segments):
    segments = np.asarray(segments)
    return C.CalibrationSet(corpus_name=name, segments=segments,
                            offsets=np.zeros(len(segments), dtype=np.int64), seed=0)


def random_calib(rng, name, n_samples=3, seq_len=10, vocab=8):
    return calib_set(name, rng.integers(0, vocab, size=(n_samples, seq_len)))


class TestInitState:
    def test_all_zero(self, rng):
        state = I.init_state(small_net(rng))
        assert state.counts.dtype == np.int64 and not state.counts.any()

    def test_counts_span_the_vocabulary(self, rng):
        assert I.init_state(small_net(rng)).counts.shape == (8,)

    def test_two_inits_equal(self, rng):
        net = small_net(rng)
        a, b = I.init_state(net), I.init_state(net)
        assert a.datasets_seen == b.datasets_seen == []
        assert np.array_equal(a.counts, b.counts)

    def test_no_prunable_layers_rejected(self):
        net = M.Network(layers=[M.activation("relu")], vocab_size=4, embed=np.zeros((4, 2)))
        with pytest.raises(UsageError):
            I.init_state(net)


class TestAccumulate:
    def test_arithmetic_example(self, rng):
        state = I.init_state(small_net(rng))
        state.counts[:] = 1
        # a segment's last token is only a target: 7 and 2 are no inputs
        I.accumulate(state, calib_set("A", [[1, 3, 3, 7], [3, 0, 1, 2]]))
        np.testing.assert_array_equal(state.counts, [2, 3, 1, 4, 1, 1, 1, 1])

    def test_twice_equals_doubled(self, rng):
        segments = rng.integers(0, 8, size=(3, 10))
        state = I.init_state(small_net(rng))
        I.accumulate(I.accumulate(state, calib_set("A", segments)), calib_set("B", segments))
        once = np.bincount(segments[:, :-1].ravel(), minlength=8)
        np.testing.assert_array_equal(state.counts, 2 * once)

    def test_shape_checked(self, rng):
        state = I.init_state(small_net(rng))
        with pytest.raises(ShapeError, match="reads token 8, beyond the state's vocabulary of 8"):
            I.accumulate(state, calib_set("A", [[1, 8, 2]]))
        assert not state.counts.any() and state.datasets_seen == []

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_monotone_nondecreasing(self, seed):
        rng = np.random.default_rng(seed)
        state = I.init_state(small_net(rng))
        for name in "ABC":
            before = state.counts.copy()
            I.accumulate(state, random_calib(rng, name))
            assert (state.counts >= before).all()
            assert state.counts.sum() == before.sum() + 3 * 9

    def test_disjoint_partitions_merge_to_the_same_total(self, rng):
        net = small_net(rng)
        sets = [random_calib(rng, name) for name in "ABCDEFGH"]
        full, half_a, half_b = I.init_state(net), I.init_state(net), I.init_state(net)
        for calib in sets:
            I.accumulate(full, calib)
        for calib in sets[:4]:
            I.accumulate(half_a, calib)
        for calib in sets[4:]:
            I.accumulate(half_b, calib)
        np.testing.assert_array_equal(half_a.counts + half_b.counts, full.counts)


class TestFinishDataset:
    """``accumulate`` finishes a dataset: it records the set as seen."""

    def test_ordering_recorded(self, rng):
        state = I.init_state(small_net(rng))
        I.accumulate(state, random_calib(rng, "A", n_samples=16))
        I.accumulate(state, random_calib(rng, "B", n_samples=16))
        assert state.datasets_seen == ["A", "B"]
        assert state.sample_count == {"A": 16, "B": 16}

    def test_duplicate_consecutive_rejected(self, rng):
        state = I.init_state(small_net(rng))
        I.accumulate(state, random_calib(rng, "A"))
        before = state.counts.copy()
        with pytest.raises(UsageError):
            I.accumulate(state, random_calib(rng, "A"))
        np.testing.assert_array_equal(state.counts, before)

    def test_accumulation_is_order_invariant(self, rng):
        # integer counts add exactly, so two orders give equal states
        net = small_net(rng)
        sets = {name: random_calib(rng, name) for name in ("A", "B")}

        def run(order):
            state = I.init_state(net)
            for name in order:
                I.accumulate(state, sets[name])
            return state

        ab, ba = run(["A", "B"]), run(["B", "A"])
        np.testing.assert_array_equal(ab.counts, ba.counts)
        assert ab.sample_count == ba.sample_count


class TestPersistence:
    def fill(self, rng):
        net = small_net(rng)
        state = I.accumulate(I.init_state(net), random_calib(rng, "A", n_samples=16))
        state.base_sha256 = "0123456789abcdef" * 4
        return net, state

    def test_round_trip_bit_exact(self, tmp_path, rng):
        net, state = self.fill(rng)
        path = tmp_path / "state.bin"
        I.save_state(state, path)
        loaded = I.load_state(path, net)
        assert loaded.datasets_seen == state.datasets_seen
        assert loaded.sample_count == state.sample_count
        assert loaded.base_sha256 == state.base_sha256
        assert loaded.counts.dtype == np.int64
        np.testing.assert_array_equal(loaded.counts, state.counts)
        # saving the loaded state reproduces the file byte for byte
        path2 = tmp_path / "state2.bin"
        I.save_state(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_mismatched_network_rejected(self, tmp_path, rng):
        _, state = self.fill(rng)
        path = tmp_path / "state.bin"
        I.save_state(state, path)
        other = M.Network(
            layers=[M.linear(rng.standard_normal((3, 3)))], vocab_size=9,
            embed=rng.standard_normal((9, 3)),
        )
        with pytest.raises(ShapeError, match="counts 8 tokens, network has a vocabulary of 9"):
            I.load_state(path, other)

    def test_corruption_detected(self, tmp_path, rng):
        _, state = self.fill(rng)
        path = tmp_path / "state.bin"
        I.save_state(state, path)
        data = path.read_bytes()
        path.write_bytes(b"XX" + data[2:])
        with pytest.raises(FormatError):
            I.load_state(path)
        for cut in (1, 8, 16):  # part of a count, one count, two counts
            path.write_bytes(data[: len(data) - cut])
            with pytest.raises(FormatError, match="state payload truncated"):
                I.load_state(path)

    def test_version_1_rejected(self, tmp_path, rng):
        # version 1 named no base and summed sampled sensitivity terms, so
        # continuing one would mix two estimators on an unknown base
        _, state = self.fill(rng)
        path = tmp_path / "state.bin"
        I.save_state(state, path)
        data = path.read_bytes()
        assert struct.unpack("<I", data[8:12]) == (3,)
        path.write_bytes(data[:8] + struct.pack("<I", 1) + data[12:])
        with pytest.raises(FormatError, match="unsupported state version 1"):
            I.load_state(path)

    def test_version_2_rejected(self, tmp_path):
        # version 2 held one float64 importance matrix per prunable layer
        manifest = {"base_sha256": None, "datasets_seen": ["A"], "sample_count": {"A": 2},
                    "layers": [{"index": 0, "rows": 2, "cols": 3}]}
        blob = json.dumps(manifest, sort_keys=True).encode()
        path = tmp_path / "state.bin"
        path.write_bytes(I.STATE_MAGIC + struct.pack("<II", 2, len(blob)) + blob
                         + np.arange(6, dtype="<f8").tobytes())
        with pytest.raises(FormatError, match="unsupported state version 2"):
            I.load_state(path)

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        _, state = self.fill(rng)
        path = tmp_path / "state.bin"
        I.save_state(state, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            I.load_state(path)

    def saved_with_manifest(self, tmp_path, rng, change):
        """A saved state whose manifest ``change`` edited in place."""
        _, state = self.fill(rng)
        path = tmp_path / "state.bin"
        I.save_state(state, path)
        data = path.read_bytes()
        (blob_len,) = struct.unpack("<I", data[12:16])
        manifest = json.loads(data[16 : 16 + blob_len])
        change(manifest)
        blob = json.dumps(manifest, sort_keys=True).encode()
        path.write_bytes(data[:12] + struct.pack("<I", len(blob)) + blob + data[16 + blob_len :])
        return path

    @pytest.mark.parametrize("key", ["vocab_size", "datasets_seen", "sample_count", "base_sha256"])
    def test_manifest_without_key_rejected(self, tmp_path, rng, key):
        path = self.saved_with_manifest(tmp_path, rng, lambda m: m.pop(key))
        with pytest.raises(FormatError, match=key):
            I.load_state(path)

    @pytest.mark.parametrize(
        "change",
        [
            lambda m: m["sample_count"].update(A="x"),
            lambda m: m.update(sample_count=[]),
            lambda m: m.update(base_sha256=m["base_sha256"].upper()),
            lambda m: m.update(base_sha256=m["base_sha256"][:-1]),
            lambda m: m.update(vocab_size=0),
            lambda m: m.update(vocab_size=-8),
            lambda m: m.update(vocab_size="8"),
            lambda m: m.update(vocab_size=True),
        ],
        ids=["count-not-int", "counts-not-object", "base-digest-upper-case", "base-digest-short",
             "vocab-zero", "vocab-negative", "vocab-not-int", "vocab-bool"],
    )
    def test_malformed_manifest_rejected(self, tmp_path, rng, change):
        path = self.saved_with_manifest(tmp_path, rng, change)
        with pytest.raises(FormatError, match="state manifest"):
            I.load_state(path)

    @pytest.mark.parametrize(
        "seen, counts",
        [(["A"], {"zzz": 0}), (["A"], {"A": 0}), (["A"], {}), (["A"], {"A": 16, "B": 4}),
         ([], {"A": 16})],
        ids=["other-name", "zero-count", "missing-name", "extra-name", "none-seen"],
    )
    def test_sample_count_names_exactly_the_seen_datasets(self, tmp_path, rng, seen, counts):
        path = self.saved_with_manifest(
            tmp_path, rng, lambda m: m.update(datasets_seen=seen, sample_count=counts)
        )
        with pytest.raises(FormatError, match="sample_count must map each seen dataset"):
            I.load_state(path)

    @pytest.mark.parametrize("vocab", [9, 2**40], ids=["one-more-token", "huge"])
    def test_inflated_vocab_size_is_a_format_error(self, tmp_path, rng, vocab):
        path = self.saved_with_manifest(tmp_path, rng, lambda m: m.update(vocab_size=vocab))
        with pytest.raises(FormatError, match="state payload truncated"):
            I.load_state(path)

    def test_size_depends_on_model_not_data(self, tmp_path, rng):
        net, state = self.fill(rng)
        p1 = tmp_path / "s1.bin"
        I.save_state(state, p1)
        (blob_len,) = struct.unpack("<I", p1.read_bytes()[12:16])
        assert p1.stat().st_size == 16 + blob_len + 8 * net.vocab_size
        # consume far more data; the file stays the same size
        I.accumulate(state, random_calib(rng, "B", n_samples=800, seq_len=128))
        p2 = tmp_path / "s2.bin"
        I.save_state(state, p2)
        delta = abs(p2.stat().st_size - p1.stat().st_size)
        assert delta < 64  # only the manifest entry for "B" differs


# the field each reader must name; make_decoder's layers are linear,
# activation, linear, layer_norm
PAYLOAD_FIELDS = {
    "embed": "checkpoint embedding", "weight": "checkpoint layer 2 weight",
    "gain": "checkpoint layer 3 gain", "bias": "checkpoint layer 3 bias",
    "state": "state counts hold a negative entry",
}


@pytest.mark.parametrize(
    "field, value",
    [*((f, v) for f in ("embed", "weight", "gain", "bias") for v in (np.nan, np.inf)),
     ("state", -1.0)],
)
def test_reader_rejects_non_finite_or_negative_payload(tmp_path, field, value):
    """The checkpoint reader rejects a non-finite entry, naming its field; the
    state reader rejects a negative count (its payload is integers)."""
    net = M.make_decoder(vocab_size=8, d=4, hidden=6, blocks=1, seed=1)
    path = tmp_path / "artifact.bin"
    if field == "state":
        state = I.init_state(net)
        state.counts[1] = value
        I.save_state(state, path)
        read = I.load_state
    else:
        params = {"embed": net.embed, "weight": net.layers[2].weight,
                  "gain": net.layers[3].gain, "bias": net.layers[3].bias}
        params[field].flat[1] = value
        M.save_checkpoint(net, path)
        read = M.load_checkpoint
    with pytest.raises(FormatError, match=PAYLOAD_FIELDS[field]):
        read(path)


def saved_artifacts(tmp_path):
    """A saved checkpoint and importance state of one small decoder, each with
    the length of its leading part that holds every size field."""
    net = M.make_decoder(vocab_size=8, d=4, hidden=6, blocks=1, seed=1)
    state = I.accumulate(I.init_state(net), calib_set("prose", np.arange(32).reshape(4, 8) % 8))
    M.save_checkpoint(net, tmp_path / "model.ckpt")
    I.save_state(state, tmp_path / "state.bin")
    ckpt, blob = (tmp_path / "model.ckpt").read_bytes(), (tmp_path / "state.bin").read_bytes()
    (blob_len,) = struct.unpack("<I", blob[12:16])
    return {"checkpoint": (ckpt, 24 + 25, M.load_checkpoint),  # header + layer table
            "state": (blob, 16 + blob_len, I.load_state)}  # header + manifest


def corruptions(data: bytes, head: int):
    """A truncation, a one-bit flip (half of them in the first ``head`` bytes)
    or one appended byte of ``data``."""
    def flip(bit):
        return data[: bit // 8] + bytes([data[bit // 8] ^ 1 << bit % 8]) + data[bit // 8 + 1 :]

    return st.one_of(
        st.integers(0, len(data) - 1).map(lambda n: data[:n]),
        (st.integers(0, 8 * head - 1) | st.integers(0, 8 * len(data) - 1)).map(flip),
        st.integers(0, 255).map(lambda byte: data + bytes([byte])),
    )


@pytest.mark.parametrize("artifact", ["checkpoint", "state"])
def test_corrupted_artifact_loads_or_is_a_format_error(tmp_path, artifact):
    data, head, read = saved_artifacts(tmp_path)[artifact]
    path = tmp_path / "corrupted.bin"

    @settings(max_examples=400, deadline=None)
    @given(corruptions(data, head))
    def check(blob):
        path.write_bytes(blob)
        try:
            read(path)
        except FormatError:
            pass

    check()


@pytest.mark.parametrize(
    "artifact, offset, value",
    [("checkpoint", 25, 0x40000000), ("checkpoint", 12, 0x7FFFFFFF), ("state", 12, 0xFFFFFFFF)],
    ids=["checkpoint-rows", "checkpoint-vocab", "state-manifest-length"],
)
def test_inflated_size_field_is_a_format_error(tmp_path, artifact, offset, value):
    """A size field far beyond the file is rejected before anything that large
    is allocated or read."""
    data, _, read = saved_artifacts(tmp_path)[artifact]
    path = tmp_path / "inflated.bin"
    path.write_bytes(data[:offset] + struct.pack("<I", value) + data[offset + 4 :])
    with pytest.raises(FormatError, match="truncated"):
        read(path)
