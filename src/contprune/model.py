"""Layer and network primitives: forward evaluation, per-layer capture,
and binary checkpoint serialization.

The network is a small decoder-style stack for byte-level language
modelling: a token embedding, repeated blocks of
``linear -> activation -> linear -> layer_norm``, and a tied output
projection (the embedding matrix reused as the classification head).
There is no attention; every layer is a map ``y = f(x, W)`` applied
independently per position, so causality holds by construction.

Positionwise contract: every layer kind in ``POSITIONWISE_KINDS`` maps each
position's column on its own. The logits at a position then depend only on
the token at that position, and the network is a map from the ``V`` token
ids to ``V`` logits. ``forward`` on ``vocabulary_tokens(net)`` evaluates that
map once: a (V, V) vocabulary table whose row ``a`` holds the logits that
follow token ``a``. Calibration captures run the stack only on that sequence
and gather from it instead of running the stack per window; evaluation and
the trainer run it only on the distinct tokens their windows or batch read.
Such a forward matches the same rows of the full table to within rounding:
the BLAS kernel of each product, and so its last bits, depends on its width.
A layer kind that mixes positions must stay out of ``POSITIONWISE_KINDS``;
``vocabulary_tokens`` then raises. The table holds V x V float64 logits, so
``vocabulary_tokens`` also refuses a vocabulary above ``MAX_TABLE_VOCAB``
(4096 tokens, a 128 MiB table).

Convention: activations are stored column-wise. A matrix ``x`` of shape
``(dim, n)`` holds ``n`` feature vectors; a linear layer computes
``W @ x`` with ``W`` of shape ``(out_dim, in_dim)``.
"""
from __future__ import annotations

import io
import os
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import FormatError, InputError, ShapeError, UsageError

LAYER_KINDS = ("linear", "activation", "layer_norm")
POSITIONWISE_KINDS = frozenset({"linear", "activation", "layer_norm"})
ACTIVATION_KINDS = ("relu", "gelu", "tanh")

LAYER_NORM_EPS = 1e-5
MAX_TABLE_VOCAB = 4096

_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def apply_activation(kind: str, x: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "gelu":
        # tanh approximation (GPT-2 convention); x*x*x avoids the slow pow path
        return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + _GELU_A * x * x * x)))
    if kind == "tanh":
        return np.tanh(x)
    raise ValueError(f"unknown activation kind {kind!r}")


def activation_grad(kind: str, x: np.ndarray) -> np.ndarray:
    """Derivative of ``apply_activation(kind, x)`` with respect to ``x``."""
    if kind == "relu":
        return (x > 0).astype(np.float64)
    if kind == "tanh":
        t = np.tanh(x)
        return 1.0 - t * t
    t = np.tanh(_GELU_C * (x + _GELU_A * x * x * x))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)


@dataclass
class Layer:
    """One network layer. Exactly the fields for its kind are set.

    linear:      weight (out_dim, in_dim)
    activation:  activation_kind in {"relu", "gelu", "tanh"}
    layer_norm:  gain and bias vectors of the normalized dimension
    """

    kind: str
    weight: np.ndarray | None = None
    activation_kind: str | None = None
    gain: np.ndarray | None = None
    bias: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind == "linear":
            if self.weight is None or self.activation_kind or self.gain is not None:
                raise ValueError("linear layer takes exactly a weight matrix")
            self.weight = np.asarray(self.weight, dtype=np.float64)
            if self.weight.ndim != 2:
                raise ShapeError(f"linear weight must be 2-D, got {self.weight.shape}")
            if not np.all(np.isfinite(self.weight)):
                raise ValueError("linear weight contains non-finite entries")
        elif self.kind == "activation":
            if self.activation_kind not in ACTIVATION_KINDS:
                raise ValueError(f"unknown activation {self.activation_kind!r}")
            if self.weight is not None or self.gain is not None or self.bias is not None:
                raise ValueError("activation layer carries no parameters")
        else:
            if self.gain is None or self.bias is None or self.weight is not None:
                raise ValueError("layer_norm takes exactly gain and bias vectors")
            self.gain = np.asarray(self.gain, dtype=np.float64).reshape(-1)
            self.bias = np.asarray(self.bias, dtype=np.float64).reshape(-1)
            if self.gain.shape != self.bias.shape:
                raise ShapeError("layer_norm gain and bias must have equal length")


def linear(weight) -> Layer:
    return Layer(kind="linear", weight=np.asarray(weight, dtype=np.float64))


def activation(kind: str) -> Layer:
    return Layer(kind="activation", activation_kind=kind)


def layer_norm(gain, bias) -> Layer:
    return Layer(kind="layer_norm", gain=gain, bias=bias)


def layer_forward(layer: Layer, x: np.ndarray) -> np.ndarray:
    """Evaluate one layer on column-stacked inputs ``x``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"layer input must be 2-D (dim, n), got {x.shape}")
    if layer.kind == "linear":
        w = layer.weight
        if w.shape[1] != x.shape[0]:
            raise ShapeError(f"linear: weight {w.shape} does not accept input {x.shape}")
        return w @ x
    if layer.kind == "activation":
        return apply_activation(layer.activation_kind, x)
    # layer_norm, per column
    if x.shape[0] != layer.gain.shape[0]:
        raise ShapeError(f"layer_norm: dim {layer.gain.shape[0]} != input {x.shape}")
    xhat, _ = standardize(x)
    return xhat * layer.gain[:, None] + layer.bias[:, None]


def standardize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """layer_norm's per-column ``(x - mean) / std`` and the (1, n) ``std``."""
    mu = x.mean(axis=0, keepdims=True)
    std = np.sqrt(x.var(axis=0, keepdims=True) + LAYER_NORM_EPS)
    return (x - mu) / std, std


@dataclass
class Network:
    """Ordered layer stack with a tied byte-level embedding."""

    layers: list[Layer]
    vocab_size: int
    embed: np.ndarray  # (vocab_size, d)

    def __post_init__(self) -> None:
        self.embed = np.asarray(self.embed, dtype=np.float64)
        if self.embed.ndim != 2 or self.embed.shape[0] != self.vocab_size:
            raise ShapeError(
                f"embedding must be (vocab_size, d), got {self.embed.shape}"
            )

    def prunable_indices(self) -> list[int]:
        """Indices of the linear layers (the only prunable parameters)."""
        return [i for i, layer in enumerate(self.layers) if layer.kind == "linear"]

    def copy(self) -> "Network":
        layers = []
        for layer in self.layers:
            layers.append(
                replace(
                    layer,
                    weight=None if layer.weight is None else layer.weight.copy(),
                    gain=None if layer.gain is None else layer.gain.copy(),
                    bias=None if layer.bias is None else layer.bias.copy(),
                )
            )
        return Network(layers=layers, vocab_size=self.vocab_size, embed=self.embed.copy())


def make_decoder(
    vocab_size: int = 256,
    d: int = 64,
    hidden: int = 128,
    blocks: int = 2,
    act: str = "gelu",
    seed: int = 0,
) -> Network:
    """Random-init decoder stack: embed -> [linear, act, linear, norm] x blocks.
    UsageError when a width is below 1 or ``blocks`` is negative."""
    if d < 1 or hidden < 1 or blocks < 0:
        raise UsageError(f"need d >= 1, hidden >= 1 and blocks >= 0, "
                         f"got d={d}, hidden={hidden}, blocks={blocks}")
    rng = np.random.default_rng(seed)
    embed = rng.standard_normal((vocab_size, d)) * 0.1
    layers: list[Layer] = []
    for _ in range(blocks):
        layers.append(linear(rng.standard_normal((hidden, d)) * (1.0 / np.sqrt(d))))
        layers.append(activation(act))
        layers.append(linear(rng.standard_normal((d, hidden)) * (1.0 / np.sqrt(hidden))))
        layers.append(layer_norm(np.ones(d), np.zeros(d)))
    return Network(layers=layers, vocab_size=vocab_size, embed=embed)


def check_tokens(net: Network, tokens) -> np.ndarray:
    toks = np.asarray(tokens)
    if toks.ndim != 1 or toks.shape[0] < 2:
        raise InputError("token sequence must be 1-D with length >= 2")
    if toks.min() < 0 or toks.max() >= net.vocab_size:
        raise InputError(
            f"token id out of range [0, {net.vocab_size}): "
            f"min={toks.min()}, max={toks.max()}"
        )
    return toks.astype(np.int64)


def forward(net: Network, tokens) -> np.ndarray:
    """Next-token logits, shape (len(tokens) - 1, vocab_size).

    Row t is the prediction for tokens[t + 1]. Every layer is positionwise
    (see the module docstring), so row t depends on tokens[t] alone: it is
    row ``tokens[t]`` of ``forward(net, vocabulary_tokens(net))``. Only the
    running activation is held, never the earlier layers' inputs.
    """
    for x in _stream(net, tokens):
        pass
    return (net.embed @ x).T


def forward_capture(net: Network, tokens) -> dict[int, np.ndarray]:
    """Each prunable layer's (in_dim, len(tokens) - 1) input on ``tokens``,
    keyed by its layer index; no other layer's input is held."""
    prunable = net.prunable_indices()
    return {i: x for i, x in enumerate(_stream(net, tokens)) if i in prunable}


def layer_inputs(net: Network, tokens) -> list[np.ndarray]:
    """Entry ``i`` is the (dim, len(tokens) - 1) input of ``net.layers[i]``;
    the last entry is the input of the tied head, ``logits = (embed @ it).T``."""
    return list(_stream(net, tokens))


def _stream(net: Network, tokens):
    """The one forward pass: yields each layer's input in turn, then the
    head's, and holds only the one it is computing from."""
    toks = check_tokens(net, tokens)
    x = net.embed[toks[:-1]].T
    for layer in net.layers:
        yield x
        x = layer_forward(layer, x)
    yield x


def vocabulary_tokens(net: Network) -> np.ndarray:
    """``[0, 1, ..., V-1, 0]``: ``forward`` on it is the vocabulary table, and
    column ``a`` of each layer input is that layer's input for token ``a``
    (the trailing 0 is never an input). Raises UsageError when a layer kind
    is not in ``POSITIONWISE_KINDS`` or V exceeds ``MAX_TABLE_VOCAB``."""
    mixing = sorted({layer.kind for layer in net.layers} - POSITIONWISE_KINDS)
    if mixing:
        raise UsageError(f"layer kinds {mixing} are not positionwise; no vocabulary table")
    if net.vocab_size > MAX_TABLE_VOCAB:
        raise UsageError(
            f"vocabulary of {net.vocab_size} tokens exceeds the table bound "
            f"MAX_TABLE_VOCAB={MAX_TABLE_VOCAB}"
        )
    return np.append(np.arange(net.vocab_size), 0)


# --- checkpoint format ------------------------------------------------------
#
# All integers little-endian. Layout:
#   magic   8 bytes  b"DECKPT01"
#   version u32      currently 1
#   vocab   u32
#   d       u32      embedding width
#   nlayers u32
#   per layer: kind u8 (0 linear, 1 activation, 2 layer_norm)
#     linear:     rows u32, cols u32
#     activation: act u8 (0 relu, 1 gelu, 2 tanh)
#     layer_norm: dim u32
#   payload: float64 row-major arrays in order: embed, then each layer's
#   parameters (linear: weight; layer_norm: gain then bias), all finite.
#   The reader checks the size the header implies against the file, and that
#   the layer widths chain from d back to d (the tied head), before reading
#   any of it.

CHECKPOINT_MAGIC = b"DECKPT01"
CHECKPOINT_VERSION = 1
_KIND_CODE = {"linear": 0, "activation": 1, "layer_norm": 2}
_KIND_NAME = {v: k for k, v in _KIND_CODE.items()}
_ACT_CODE = {"relu": 0, "gelu": 1, "tanh": 2}
_ACT_NAME = {v: k for k, v in _ACT_CODE.items()}


def save_checkpoint(net: Network, path) -> None:
    """Write ``net`` to ``path``, creating its parent directory."""
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    d = net.embed.shape[1]
    buf.write(struct.pack("<IIII", CHECKPOINT_VERSION, net.vocab_size, d, len(net.layers)))
    for layer in net.layers:
        buf.write(struct.pack("<B", _KIND_CODE[layer.kind]))
        if layer.kind == "linear":
            buf.write(struct.pack("<II", *layer.weight.shape))
        elif layer.kind == "activation":
            buf.write(struct.pack("<B", _ACT_CODE[layer.activation_kind]))
        else:
            buf.write(struct.pack("<I", layer.gain.shape[0]))
    _write_array(buf, net.embed)
    for layer in net.layers:
        if layer.kind == "linear":
            _write_array(buf, layer.weight)
        elif layer.kind == "layer_norm":
            _write_array(buf, layer.gain)
            _write_array(buf, layer.bias)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def _write_array(buf, a: np.ndarray) -> None:
    buf.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(f"checkpoint truncated while reading {what}")
    return data


def _read_array(fh, shape, what: str) -> np.ndarray:
    n = int(np.prod(shape))
    data = _read_exact(fh, 8 * n, what)
    a = np.frombuffer(data, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.isfinite(a).all():
        raise FormatError(f"checkpoint {what} holds non-finite entries")
    return a


def load_checkpoint(path) -> Network:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, len(CHECKPOINT_MAGIC), "magic")
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"bad magic {magic!r}")
        version, vocab, d, nlayers = struct.unpack(
            "<IIII", _read_exact(fh, 16, "header")
        )
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        table: list[tuple] = []
        for i in range(nlayers):
            (kind_code,) = struct.unpack("<B", _read_exact(fh, 1, f"layer {i} kind"))
            if kind_code not in _KIND_NAME:
                raise FormatError(f"layer {i}: unknown kind code {kind_code}")
            kind = _KIND_NAME[kind_code]
            if kind == "linear":
                rows, cols = struct.unpack("<II", _read_exact(fh, 8, f"layer {i} dims"))
                if rows == 0 or cols == 0:
                    raise FormatError(f"layer {i}: zero dimension {rows}x{cols}")
                table.append((kind, (rows, cols)))
            elif kind == "activation":
                (act_code,) = struct.unpack("<B", _read_exact(fh, 1, f"layer {i} act"))
                if act_code not in _ACT_NAME:
                    raise FormatError(f"layer {i}: unknown activation code {act_code}")
                table.append((kind, _ACT_NAME[act_code]))
            else:
                (dim,) = struct.unpack("<I", _read_exact(fh, 4, f"layer {i} dim"))
                if dim == 0:
                    raise FormatError(f"layer {i}: zero layer_norm dim")
                table.append((kind, dim))
        payload = 8 * (vocab * d + sum(
            meta[0] * meta[1] if kind == "linear" else 2 * meta
            for kind, meta in table if kind != "activation"
        ))
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload > left:
            raise FormatError(
                f"checkpoint truncated: its header implies {payload} payload bytes, "
                f"the file holds {left}"
            )
        width = d  # a linear maps its cols to its rows; the other kinds keep the width
        for i, (kind, meta) in enumerate(table):
            takes = meta[1] if kind == "linear" else meta if kind == "layer_norm" else width
            if takes != width:
                raise FormatError(f"layer {i}: {kind} takes width {takes}, gets {width}")
            width = meta[0] if kind == "linear" else width
        if width != d:
            raise FormatError(f"the layers end at width {width}, the tied head takes d={d}")
        embed = _read_array(fh, (vocab, d), "embedding")
        layers: list[Layer] = []
        for i, (kind, meta) in enumerate(table):
            if kind == "linear":
                layers.append(linear(_read_array(fh, meta, f"layer {i} weight")))
            elif kind == "activation":
                layers.append(activation(meta))
            else:
                gain = _read_array(fh, (meta,), f"layer {i} gain")
                bias = _read_array(fh, (meta,), f"layer {i} bias")
                layers.append(layer_norm(gain, bias))
        trailing = fh.read(1)
        if trailing:
            raise FormatError("checkpoint has trailing bytes after payload")
    return Network(layers=layers, vocab_size=vocab, embed=embed)
