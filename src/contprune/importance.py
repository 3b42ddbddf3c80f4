"""The continual importance state: the input-token counts of every
calibration set seen.

Every layer is positionwise (``model.LAYER_KINDS``), so a calibration
position enters a sensitivity score only through its input token, and a
dataset's importance,
``|W| * pruner.expected_gradient_magnitude(gradient_terms(W, X), counts)``
(W is the base, unmasked weight), is linear in its token counts. The
importance after any set of datasets is therefore that one expression on the
sum of their counts, and the state holds just that sum: one integer per
vocabulary token. Integers add exactly, so the state after a set of datasets
is the same in any visit order, bit for bit, and so are the importance and
the masks scored from it. Masks derived from the state at intermediate
steps depend on what has been seen so far, which is the whole point of
keeping it. The counts belong to no criterion: a state saved under wanda
continues under sensitivity, and magnitude's scores never read it.

The state is the only artifact carried between datasets; its size depends
on the vocabulary, never on how much data has been consumed. A saved state
names the sha256 of the checkpoint file it was built on (``base_sha256``),
so that ``contprune prune --state`` continues it on that base model only.
"""
from __future__ import annotations

import io
import json
import os
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import CalibrationSet
from .errors import FormatError, ShapeError, UsageError
from .model import Network

STATE_MAGIC = b"IMPST001"
STATE_VERSION = 3


@dataclass
class ImportanceState:
    counts: np.ndarray  # int64, how many calibration positions read each token as input
    datasets_seen: list[str] = field(default_factory=list)
    sample_count: dict[str, int] = field(default_factory=dict)
    base_sha256: str | None = None  # of the checkpoint file it was built on


def init_state(net: Network) -> ImportanceState:
    """The state that has seen nothing: a zero count per vocabulary token."""
    if not net.prunable_indices():
        raise UsageError("network has no prunable (linear) layers")
    return ImportanceState(counts=np.zeros(net.vocab_size, dtype=np.int64))


def accumulate(state: ImportanceState, calib: CalibrationSet) -> ImportanceState:
    """Add ``calib``'s input-token counts to ``state`` and mark its dataset
    as seen (in place)."""
    counts = calib.counts
    if counts.size > state.counts.size:
        raise ShapeError(f"calibration set {calib.corpus_name!r} reads token {counts.size - 1}, "
                         f"beyond the state's vocabulary of {state.counts.size}")
    check_next(state, calib)
    state.counts[: counts.size] += counts
    state.datasets_seen.append(calib.corpus_name)
    state.sample_count[calib.corpus_name] = (state.sample_count.get(calib.corpus_name, 0)
                                             + calib.n_samples)
    return state


def check_next(state: ImportanceState, calib: CalibrationSet) -> None:
    """UsageError when ``calib``'s dataset is the last one ``state`` has seen."""
    if state.datasets_seen and state.datasets_seen[-1] == calib.corpus_name:
        raise UsageError(f"dataset {calib.corpus_name!r} was already the last one seen")


def save_state(state: ImportanceState, path) -> None:
    """Write ``state`` to ``path``, creating its parent directory."""
    manifest = {
        "base_sha256": state.base_sha256,
        "datasets_seen": state.datasets_seen,
        "sample_count": state.sample_count,
        "vocab_size": int(state.counts.size),
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    buf = io.BytesIO()
    buf.write(STATE_MAGIC)
    buf.write(struct.pack("<II", STATE_VERSION, len(blob)))
    buf.write(blob)
    buf.write(np.ascontiguousarray(state.counts, dtype="<i8").tobytes())
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_state(path, net: Network | None = None) -> ImportanceState:
    """Load a state; checks its vocabulary against ``net`` if given."""
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
        payload = 8 * manifest["vocab_size"]
        if payload > _bytes_left(fh):
            raise FormatError(
                f"state payload truncated: its manifest implies {payload} bytes, "
                f"the file holds {_bytes_left(fh)}"
            )
        counts = np.frombuffer(fh.read(payload), dtype="<i8").astype(np.int64)
        if (counts < 0).any():
            raise FormatError("state counts hold a negative entry")
        if fh.read(1):
            raise FormatError("trailing bytes after the state payload")
    state = ImportanceState(
        counts=counts,
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
    keys = ("vocab_size", "datasets_seen", "sample_count", "base_sha256")
    missing = [k for k in keys if not isinstance(manifest, dict) or k not in manifest]
    if missing:
        raise FormatError(f"state manifest lacks {', '.join(missing)}")
    vocab, seen, counts, base = (manifest[k] for k in keys)
    if not _is_int(vocab, 1):
        raise FormatError(f"state manifest vocab_size must be an integer of at least 1, "
                          f"got {vocab!r}")
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
    """ShapeError unless ``state`` counts the tokens of ``net``'s vocabulary."""
    if state.counts.shape != (net.vocab_size,):
        raise ShapeError(f"state counts {state.counts.shape[0]} tokens, "
                         f"network has a vocabulary of {net.vocab_size}")
