"""Continual accumulation of per-weight importance across datasets.

The accumulator holds one nonnegative matrix per prunable layer. A dataset's
importance is the expected sum of its calibration positions' ``|W * grad|``
terms (W is the base, unmasked weight), added into zero matrices in closed
form (``sensitivity.expected_gradient_magnitude``), and the carried state
adds each dataset's importance in visit order. Entries only ever grow, and
the final state sums the same per-dataset sums whatever the visit order,
though not bit for bit: float addition is not associative. On the
benchmark's ``calib-heavy`` seed-1 inputs (desk model, 16 calibration samples
per corpus), the final states of bracket>numeric>prose and
prose>numeric>bracket differ in 24.5% of their entries, by at most 3.18e-16
relative. Masks derived from the accumulator at intermediate steps depend on
what has been seen so far, which is the whole point of keeping the state.

The state is the only artifact carried between datasets; its size depends
on the model, never on how much data has been consumed. A saved state names
the sha256 of the checkpoint file it was built on (``base_sha256``), so that
``contprune prune --state`` continues it on that base model only.
"""
from __future__ import annotations

import io
import json
import os
import re
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ShapeError, UsageError
from .model import Network

STATE_MAGIC = b"IMPST001"
STATE_VERSION = 2


@dataclass
class ImportanceState:
    per_layer: dict[int, np.ndarray]
    datasets_seen: list[str] = field(default_factory=list)
    sample_count: dict[str, int] = field(default_factory=dict)
    base_sha256: str | None = None  # of the checkpoint file it was built on


def init_state(net: Network) -> ImportanceState:
    """All-zero accumulator, one matrix per prunable layer."""
    indices = net.prunable_indices()
    if not indices:
        raise UsageError("network has no prunable (linear) layers")
    per_layer = {i: np.zeros_like(net.layers[i].weight) for i in indices}
    return ImportanceState(per_layer=per_layer)


def accumulate(
    state: ImportanceState, layer_index: int, weight: np.ndarray, grad: np.ndarray
) -> ImportanceState:
    """Add ``|weight * grad|`` to one layer's accumulator (in place)."""
    if layer_index not in state.per_layer:
        raise UsageError(f"layer {layer_index} is not tracked by this state")
    acc = state.per_layer[layer_index]
    weight = np.asarray(weight, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if weight.shape != acc.shape or grad.shape != acc.shape:
        raise ShapeError(
            f"layer {layer_index}: weight {weight.shape} / grad {grad.shape} "
            f"not congruent to accumulator {acc.shape}"
        )
    acc += np.abs(weight * grad)
    return state


def finish_dataset(state: ImportanceState, corpus_name: str, n_samples: int) -> ImportanceState:
    """Mark a dataset as consumed; the accumulated matrices carry over as-is."""
    if state.datasets_seen and state.datasets_seen[-1] == corpus_name:
        raise UsageError(f"dataset {corpus_name!r} was already the last one finished")
    state.datasets_seen.append(corpus_name)
    state.sample_count[corpus_name] = state.sample_count.get(corpus_name, 0) + n_samples
    return state


def save_state(state: ImportanceState, path) -> None:
    manifest = {
        "base_sha256": state.base_sha256,
        "datasets_seen": state.datasets_seen,
        "sample_count": state.sample_count,
        "layers": [
            {"index": i, "rows": a.shape[0], "cols": a.shape[1]}
            for i, a in sorted(state.per_layer.items())
        ],
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    buf = io.BytesIO()
    buf.write(STATE_MAGIC)
    buf.write(struct.pack("<II", STATE_VERSION, len(blob)))
    buf.write(blob)
    for i in sorted(state.per_layer):
        buf.write(np.ascontiguousarray(state.per_layer[i], dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_state(path, net: Network | None = None) -> ImportanceState:
    """Load an accumulator; validates layer shapes against ``net`` if given."""
    with open(path, "rb") as fh:
        magic = fh.read(len(STATE_MAGIC))
        if magic != STATE_MAGIC:
            raise FormatError(f"bad state magic {magic!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise FormatError("state file truncated in header")
        version, blob_len = struct.unpack("<II", header)
        if version != STATE_VERSION:
            raise FormatError(f"unsupported state version {version}")
        if blob_len > _bytes_left(fh):
            raise FormatError("state file truncated in manifest")
        blob = fh.read(blob_len)
        try:
            manifest = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"state manifest unreadable: {exc}") from exc
        _check_manifest(manifest)
        payload = 8 * sum(entry["rows"] * entry["cols"] for entry in manifest["layers"])
        if payload > _bytes_left(fh):
            raise FormatError(
                f"state payload truncated: its manifest implies {payload} bytes, "
                f"the file holds {_bytes_left(fh)}"
            )
        per_layer: dict[int, np.ndarray] = {}
        for entry in manifest["layers"]:
            data = fh.read(8 * entry["rows"] * entry["cols"])
            matrix = np.frombuffer(data, dtype="<f8").astype(np.float64)
            if not (np.isfinite(matrix).all() and (matrix >= 0).all()):  # sums of |W * grad|
                raise FormatError(
                    f"state layer {entry['index']} holds non-finite or negative entries"
                )
            per_layer[entry["index"]] = matrix.reshape(entry["rows"], entry["cols"])
        if fh.read(1):
            raise FormatError("trailing bytes after the state payload")
    state = ImportanceState(
        per_layer=per_layer,
        datasets_seen=manifest["datasets_seen"],
        sample_count=manifest["sample_count"],
        base_sha256=manifest["base_sha256"],
    )
    if net is not None:
        check_against(state, net)
    return state


def _bytes_left(fh) -> int:
    return os.fstat(fh.fileno()).st_size - fh.tell()


def _is_int(value, least: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _check_manifest(manifest) -> None:
    """Raise FormatError unless the manifest has the documented shape."""
    keys = ("layers", "datasets_seen", "sample_count", "base_sha256")
    missing = [k for k in keys if not isinstance(manifest, dict) or k not in manifest]
    if missing:
        raise FormatError(f"state manifest lacks {', '.join(missing)}")
    layers, seen, counts, base = (manifest[k] for k in keys)
    if not isinstance(layers, list) or not all(
        isinstance(e, dict) and _is_int(e.get("index"), 0)
        and _is_int(e.get("rows"), 1) and _is_int(e.get("cols"), 1)
        for e in layers
    ):
        raise FormatError(f"state manifest layers must be {{index, rows, cols}} with "
                          f"index >= 0 and rows, cols >= 1, got {layers!r}")
    indices = [e["index"] for e in layers]
    if indices != sorted(set(indices)):  # the writer's order, so save(load(f)) == f
        raise FormatError(f"state manifest layer indices must increase strictly, got {indices}")
    if not isinstance(seen, list) or not all(isinstance(name, str) for name in seen):
        raise FormatError(f"state manifest datasets_seen must list names, got {seen!r}")
    if not (isinstance(counts, dict) and set(counts) == set(seen)
            and all(_is_int(n, 1) for n in counts.values())):
        raise FormatError(f"state manifest sample_count must map each seen dataset to a "
                          f"count of at least 1, got {counts!r} for {seen!r}")
    if base is not None and not (isinstance(base, str) and re.fullmatch("[0-9a-f]{64}", base)):
        raise FormatError(f"state manifest base_sha256 must be null or 64 lowercase hex "
                          f"digits, got {base!r}")


def check_against(state: ImportanceState, net: Network) -> None:
    """ShapeError unless ``state`` tracks exactly the prunable layers of ``net``."""
    expected = set(net.prunable_indices())
    if set(state.per_layer) != expected:
        raise ShapeError(
            f"state tracks layers {sorted(state.per_layer)}, "
            f"network has prunable layers {sorted(expected)}"
        )
    for i in expected:
        if state.per_layer[i].shape != net.layers[i].weight.shape:
            raise ShapeError(
                f"layer {i}: state shape {state.per_layer[i].shape} != "
                f"weight shape {net.layers[i].weight.shape}"
            )
