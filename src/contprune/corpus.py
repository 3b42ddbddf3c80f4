"""Dataset ingestion, calibration sampling, and dataset-order permutations.

Corpora are byte-level token streams. A loaded corpus's tokens are its
file's bytes, held as a read-only uint8 array, one byte per token; readers
index with them, and ``model.check_tokens`` returns int64 wherever a token
enters arithmetic. Each corpus reserves a contiguous suffix for perplexity
evaluation; calibration windows are drawn only from the prefix, so the two
ranges never overlap.

Three procedural generators ship with the package so that the experiment
harness has reproducible corpora with genuinely different statistics:
English-like prose, bracketed structured text, and numeric tables. Their
byte distributions barely overlap, which is what makes domain shift between
"datasets" real at desk scale.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import InputError, UsageError

DEFAULT_EVAL_FRACTION = 0.2

GENERATOR_NAMES = ("prose", "bracket", "numeric")


@dataclass(frozen=True, eq=False)
class Corpus:
    name: str
    tokens: np.ndarray  # 1-D integer token ids: uint8 when loaded from a file
    eval_fraction: float = DEFAULT_EVAL_FRACTION

    def __post_init__(self) -> None:
        if self.tokens.ndim != 1 or self.tokens.size == 0:
            raise InputError(f"corpus {self.name!r} must be a nonempty 1-D token stream")
        if not 0.0 < self.eval_fraction < 1.0:
            raise InputError(f"eval_fraction must be in (0, 1), got {self.eval_fraction}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Corpus)
            and self.name == other.name
            and self.eval_fraction == other.eval_fraction
            and np.array_equal(self.tokens, other.tokens)
        )

    @property
    def n_eval(self) -> int:
        return int(len(self.tokens) * self.eval_fraction)

    @property
    def n_calibration(self) -> int:
        return len(self.tokens) - self.n_eval

    def calibration_tokens(self) -> np.ndarray:
        return self.tokens[: self.n_calibration]

    def eval_tokens(self) -> np.ndarray:
        return self.tokens[self.n_calibration :]


@dataclass(frozen=True, eq=False)
class CalibrationSet:
    corpus_name: str
    segments: np.ndarray  # (n_samples, seq_len)
    offsets: np.ndarray  # (n_samples,) start offsets into the calibration range
    seed: int

    @property
    def n_samples(self) -> int:
        return self.segments.shape[0]

    @property
    def seq_len(self) -> int:
        return self.segments.shape[1]

    @cached_property
    def counts(self) -> np.ndarray:
        """Entry ``a`` is how many positions read token ``a`` as input: every
        token of a segment but its last, which is only a target. Its length is
        one past the largest input token; InputError for a negative token."""
        if self.segments.min() < 0:
            raise InputError(f"calibration set {self.corpus_name!r} holds a token id out of "
                             f"range: {self.segments.min()}")
        return np.bincount(self.segments[:, :-1].ravel())


def load_corpus(path, name: str, eval_fraction: float = DEFAULT_EVAL_FRACTION) -> Corpus:
    """Load a corpus from a raw byte file: each byte is one token id, and the
    tokens are the file's bytes, a read-only uint8 array."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) == 0:
        raise InputError(f"corpus file {path} is empty")
    return Corpus(name=name, tokens=np.frombuffer(raw, np.uint8), eval_fraction=eval_fraction)


def sample_calibration(
    corpus: Corpus, n_samples: int, seq_len: int, seed: int
) -> CalibrationSet:
    """Draw ``n_samples`` windows of ``seq_len`` tokens from the calibration range.

    Offsets are uniform over all valid starts; windows may overlap. The same
    seed always yields the same windows.
    """
    if n_samples < 1 or seq_len < 2:
        raise InputError("need n_samples >= 1 and seq_len >= 2")
    calib = corpus.calibration_tokens()
    max_start = len(calib) - seq_len
    if max_start < 0:
        raise InputError(
            f"calibration range of {corpus.name!r} has {len(calib)} tokens, "
            f"shorter than seq_len={seq_len}"
        )
    rng = np.random.default_rng(seed)
    offsets = rng.integers(0, max_start + 1, size=n_samples)
    segments = np.stack([calib[o : o + seq_len] for o in offsets])
    return CalibrationSet(
        corpus_name=corpus.name, segments=segments, offsets=offsets, seed=seed
    )


def permutations(names) -> list[tuple[str, ...]]:
    """All orderings of ``names``, lexicographically sorted."""
    names = list(names)
    if not 1 <= len(names) <= 5:
        raise InputError(f"need between 1 and 5 dataset names, got {len(names)}")
    if len(set(names)) != len(names):
        raise InputError(f"duplicate dataset names in {names}")
    return sorted(itertools.permutations(names))


# --- synthetic corpus generators ---------------------------------------------


def _gen_prose(n_tokens: int, rng: np.random.Generator) -> bytes:
    syllables = [
        "ra", "lo", "mi", "ten", "var", "su", "ke", "dor", "an", "pel",
        "ti", "mo", "sa", "ven", "li", "cha", "nor", "ba", "ri", "dun",
    ]
    # small Zipf-weighted vocabulary of 2-3 syllable words
    words = []
    for i in range(160):
        k = 2 + (i % 2)
        words.append("".join(rng.choice(syllables) for _ in range(k)))
    ranks = np.arange(1, len(words) + 1, dtype=np.float64)
    probs = 1.0 / ranks
    probs /= probs.sum()
    # the draws of rng.choice(words, p=probs), with its cdf built once
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    out = bytearray()
    while len(out) < n_tokens:
        n_words = int(rng.integers(4, 11))
        sentence = " ".join(words[cdf.searchsorted(rng.random(), side="right")]
                            for _ in range(n_words))
        out.extend(sentence.encode("ascii"))
        out.extend(b". " if rng.random() < 0.8 else b".\n")
    return bytes(out[:n_tokens])


def _gen_bracket(n_tokens: int, rng: np.random.Generator) -> bytes:
    keys = ["MODE", "LINK", "PORT", "FLAG", "CHAN", "GRID", "NODE", "TASK"]
    vals = ["ON", "OFF", "AUTO", "HIGH", "LOW", "EXT", "INT", "SYNC"]

    def pick(items: list[str]) -> str:  # draws what rng.choice(items) draws
        return items[rng.integers(len(items))]

    out = bytearray()
    while len(out) < n_tokens:
        block = pick(keys) + "_" + pick(vals)
        entries = []
        for _ in range(int(rng.integers(2, 6))):
            if rng.random() < 0.5:
                entries.append(f"{pick(keys)}={pick(vals)}")
            else:
                inner = ",".join(pick(vals) for _ in range(int(rng.integers(1, 4))))
                entries.append(f"{pick(keys)}=[{inner}]")
        out.extend(f"{block}{{{';'.join(entries)};}}\n".encode("ascii"))
    return bytes(out[:n_tokens])


def _gen_numeric(n_tokens: int, rng: np.random.Generator) -> bytes:
    # small integers with occasional halves keep the difficulty comparable
    # to the other two corpora while staying on disjoint bytes
    out = bytearray()
    while len(out) < n_tokens:
        row = []
        for _ in range(int(rng.integers(3, 7))):
            if rng.random() < 0.7:
                row.append(str(int(rng.integers(0, 20))))
            else:
                row.append(f"{int(rng.integers(0, 10))}.5")
        out.extend((",".join(row) + "\n").encode("ascii"))
    return bytes(out[:n_tokens])


_GENERATORS = {"prose": _gen_prose, "bracket": _gen_bracket, "numeric": _gen_numeric}


def generate_corpora(out_dir, n_tokens: int = 200_000, seed: int = 0) -> dict[str, Path]:
    """Write the three synthetic corpora to ``out_dir``; returns name -> path."""
    if n_tokens < 1:
        raise UsageError(f"n_tokens must be >= 1, got {n_tokens}")
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    for i, name in enumerate(GENERATOR_NAMES):
        rng = np.random.default_rng(seed * 1000 + i)
        data = _GENERATORS[name](n_tokens, rng)
        path = out_dir / f"{name}.bin"
        path.write_bytes(data)
        paths[name] = path
    return paths
