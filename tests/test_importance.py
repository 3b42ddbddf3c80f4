import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestInitState:
    def test_all_zero(self, rng):
        state = I.init_state(small_net(rng))
        assert all(not a.any() for a in state.per_layer.values())

    def test_tracks_exactly_the_linear_layers(self, rng):
        net = small_net(rng)
        state = I.init_state(net)
        assert sorted(state.per_layer) == net.prunable_indices() == [0, 2]
        assert state.per_layer[0].shape == (6, 4)
        assert state.per_layer[2].shape == (4, 6)

    def test_two_inits_equal(self, rng):
        net = small_net(rng)
        a, b = I.init_state(net), I.init_state(net)
        assert a.datasets_seen == b.datasets_seen == []
        for k in a.per_layer:
            assert np.array_equal(a.per_layer[k], b.per_layer[k])

    def test_no_prunable_layers_rejected(self):
        net = M.Network(layers=[M.activation("relu")], vocab_size=4, embed=np.zeros((4, 2)))
        with pytest.raises(UsageError):
            I.init_state(net)


class TestAccumulate:
    def test_arithmetic_example(self, rng):
        net = small_net(rng)
        state = I.init_state(net)
        state.per_layer[0][:] = 1.0
        weight = np.full((6, 4), 2.0)
        weight[0, 1] = -1.0
        grad = np.full((6, 4), -3.0)
        grad[0, 1] = 4.0
        I.accumulate(state, 0, weight, grad)
        # |2 * -3| + 1 = 7 everywhere, |-1 * 4| + 1 = 5 at the flipped entry
        expected = np.full((6, 4), 7.0)
        expected[0, 1] = 5.0
        np.testing.assert_array_equal(state.per_layer[0], expected)

    def test_zero_grad_is_noop(self, rng):
        net = small_net(rng)
        state = I.accumulate(I.init_state(net), 0, rng.standard_normal((6, 4)), np.zeros((6, 4)))
        assert not state.per_layer[0].any()

    def test_twice_equals_doubled(self, rng):
        net = small_net(rng)
        w = rng.standard_normal((6, 4))
        g = rng.standard_normal((6, 4))
        state = I.init_state(net)
        I.accumulate(I.accumulate(state, 0, w, g), 0, w, g)
        np.testing.assert_allclose(state.per_layer[0], 2.0 * np.abs(w * g), rtol=1e-15)

    def test_shape_checked(self, rng):
        state = I.init_state(small_net(rng))
        with pytest.raises(ShapeError):
            I.accumulate(state, 0, np.ones((6, 4)), np.ones((4, 6)))
        with pytest.raises(UsageError):
            I.accumulate(state, 1, np.ones((6, 4)), np.ones((6, 4)))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_monotone_nondecreasing(self, seed):
        rng = np.random.default_rng(seed)
        net = small_net(rng)
        state = I.init_state(net)
        for _ in range(3):
            before = state.per_layer[0].copy()
            I.accumulate(state, 0, rng.standard_normal((6, 4)), rng.standard_normal((6, 4)))
            assert (state.per_layer[0] >= before).all()

    def test_disjoint_partitions_merge_to_the_same_total(self, rng):
        net = small_net(rng)
        pairs = [(rng.standard_normal((6, 4)), rng.standard_normal((6, 4))) for _ in range(8)]
        full = I.init_state(net)
        for w, g in pairs:
            I.accumulate(full, 0, w, g)
        half_a, half_b = I.init_state(net), I.init_state(net)
        for w, g in pairs[:4]:
            I.accumulate(half_a, 0, w, g)
        for w, g in pairs[4:]:
            I.accumulate(half_b, 0, w, g)
        merged = half_a.per_layer[0] + half_b.per_layer[0]
        assert np.max(np.abs(merged - full.per_layer[0])) <= 1e-12


class TestFinishDataset:
    def test_ordering_recorded(self, rng):
        state = I.init_state(small_net(rng))
        I.finish_dataset(state, "A", 16)
        I.finish_dataset(state, "B", 16)
        assert state.datasets_seen == ["A", "B"]
        assert state.sample_count == {"A": 16, "B": 16}

    def test_duplicate_consecutive_rejected(self, rng):
        state = I.init_state(small_net(rng))
        I.finish_dataset(state, "A", 4)
        with pytest.raises(UsageError):
            I.finish_dataset(state, "A", 4)

    def test_matrices_untouched(self, rng):
        net = small_net(rng)
        state = I.init_state(net)
        I.accumulate(state, 0, np.ones((6, 4)), np.ones((6, 4)))
        snapshot = {k: v.copy() for k, v in state.per_layer.items()}
        I.finish_dataset(state, "A", 1)
        for k in snapshot:
            assert np.array_equal(state.per_layer[k], snapshot[k])

    def test_accumulation_is_order_invariant(self, rng):
        # contributions keyed by dataset, not by visiting order
        net = small_net(rng)
        contribs = {
            name: [(rng.standard_normal((6, 4)), rng.standard_normal((6, 4))) for _ in range(4)]
            for name in ("A", "B")
        }

        def run(order):
            state = I.init_state(net)
            for name in order:
                for w, g in contribs[name]:
                    I.accumulate(state, 0, w, g)
                I.finish_dataset(state, name, 4)
            return state

        ab, ba = run(["A", "B"]), run(["B", "A"])
        assert np.max(np.abs(ab.per_layer[0] - ba.per_layer[0])) <= 1e-12


class TestPersistence:
    def fill(self, rng):
        net = small_net(rng)
        state = I.init_state(net)
        for idx in state.per_layer:
            I.accumulate(state, idx, rng.standard_normal(state.per_layer[idx].shape),
                         rng.standard_normal(state.per_layer[idx].shape))
        I.finish_dataset(state, "A", 16)
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
        for k in state.per_layer:
            assert state.per_layer[k].tobytes() == loaded.per_layer[k].tobytes()
        # saving the loaded state reproduces the file byte for byte
        path2 = tmp_path / "state2.bin"
        I.save_state(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_mismatched_network_rejected(self, tmp_path, rng):
        _, state = self.fill(rng)
        path = tmp_path / "state.bin"
        I.save_state(state, path)
        other = M.Network(
            layers=[M.linear(rng.standard_normal((3, 3)))], vocab_size=8,
            embed=rng.standard_normal((8, 3)),
        )
        with pytest.raises(ShapeError):
            I.load_state(path, other)

    def test_corruption_detected(self, tmp_path, rng):
        _, state = self.fill(rng)
        path = tmp_path / "state.bin"
        I.save_state(state, path)
        data = path.read_bytes()
        path.write_bytes(b"XX" + data[2:])
        with pytest.raises(FormatError):
            I.load_state(path)
        path.write_bytes(data[: len(data) - 16])
        with pytest.raises(FormatError):
            I.load_state(path)

    def test_version_1_rejected(self, tmp_path, rng):
        # version 1 named no base and summed sampled sensitivity terms, so
        # continuing one would mix two estimators on an unknown base
        _, state = self.fill(rng)
        path = tmp_path / "state.bin"
        I.save_state(state, path)
        data = path.read_bytes()
        assert struct.unpack("<I", data[8:12]) == (2,)
        path.write_bytes(data[:8] + struct.pack("<I", 1) + data[12:])
        with pytest.raises(FormatError, match="unsupported state version 1"):
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

    @pytest.mark.parametrize("key", ["layers", "datasets_seen", "sample_count", "base_sha256"])
    def test_manifest_without_key_rejected(self, tmp_path, rng, key):
        path = self.saved_with_manifest(tmp_path, rng, lambda m: m.pop(key))
        with pytest.raises(FormatError, match=key):
            I.load_state(path)

    @pytest.mark.parametrize(
        "change",
        [
            lambda m: m["layers"][0].pop("rows"),
            lambda m: m["sample_count"].update(A="x"),
            lambda m: m["layers"][0].update(rows=-1),
            lambda m: m.update(layers=5),
            lambda m: m.update(sample_count=[]),
            lambda m: m["layers"][1].update(index=m["layers"][0]["index"]),
            lambda m: m.update(base_sha256=m["base_sha256"].upper()),
            lambda m: m.update(base_sha256=m["base_sha256"][:-1]),
        ],
        ids=["layer-without-rows", "count-not-int", "negative-rows", "layers-not-list",
             "counts-not-object", "duplicate-index", "base-digest-upper-case",
             "base-digest-short"],
    )
    def test_malformed_manifest_rejected(self, tmp_path, rng, change):
        path = self.saved_with_manifest(tmp_path, rng, change)
        with pytest.raises(FormatError, match="state manifest"):
            I.load_state(path)

    def test_layer_indices_must_increase(self, tmp_path, rng):
        # the writer sorts by index; layers [2, 0] would load, and saving the
        # loaded state would no longer reproduce the file
        path = self.saved_with_manifest(tmp_path, rng, lambda m: m["layers"].reverse())
        with pytest.raises(FormatError, match=r"indices must increase strictly, got \[2, 0\]"):
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

    def test_inflated_layer_size_is_a_format_error(self, tmp_path, rng):
        path = self.saved_with_manifest(tmp_path, rng, lambda m: m["layers"][0].update(rows=2**40))
        with pytest.raises(FormatError, match="state payload truncated"):
            I.load_state(path)

    def test_size_depends_on_model_not_data(self, tmp_path, rng):
        net, state = self.fill(rng)
        p1 = tmp_path / "s1.bin"
        I.save_state(state, p1)
        # consume far more data; the file stays the same size
        for _ in range(50):
            I.accumulate(state, 0, rng.standard_normal((6, 4)), rng.standard_normal((6, 4)))
        I.finish_dataset(state, "B", 800)
        p2 = tmp_path / "s2.bin"
        I.save_state(state, p2)
        delta = abs(p2.stat().st_size - p1.stat().st_size)
        assert delta < 64  # only the manifest entry for "B" differs



# the field each reader must name; make_decoder's layers are linear,
# activation, linear, layer_norm
PAYLOAD_FIELDS = {
    "embed": "checkpoint embedding", "weight": "checkpoint layer 2 weight",
    "gain": "checkpoint layer 3 gain", "bias": "checkpoint layer 3 bias",
    "state": "state layer 2",
}


@pytest.mark.parametrize(
    "field, value",
    [*((f, v) for f in ("embed", "weight", "gain", "bias") for v in (np.nan, np.inf)),
     *(("state", v) for v in (np.nan, np.inf, -1.0))],
)
def test_reader_rejects_non_finite_or_negative_payload(tmp_path, field, value):
    """Both artifact readers reject a non-finite entry, naming its field; the
    state reader also rejects a negative one, as importance sums |W * grad|."""
    net = M.make_decoder(vocab_size=8, d=4, hidden=6, blocks=1, seed=1)
    path = tmp_path / "artifact.bin"
    if field == "state":
        state = I.init_state(net)
        state.per_layer[2][1, 1] = value
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
    state = I.init_state(net)
    for i, acc in state.per_layer.items():
        acc += np.arange(acc.size, dtype=np.float64).reshape(acc.shape) / (i + 1)
    I.finish_dataset(state, "prose", 4)
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
