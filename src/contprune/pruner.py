"""Pruning criteria, mask selection, and the per-dataset prune step.

Criteria
--------
magnitude    |W|; data-free.
wanda        |W| scaled column-wise by the L2 norm of the corresponding
             input feature over the calibration positions, in closed form
             from the token counts: ``sqrt((X * X) @ counts)``.
sensitivity  the continual criterion: ``|W|`` times the expected
             ``|grad|`` of the finite-difference sensitivities under Gaussian
             weight and input perturbations, in closed form from the token
             counts (``sensitivity.expected_gradient_magnitude``), so scoring
             draws no noise.

A step given an importance state (``importance``) accumulates, whatever its
criterion: it scores the counts of every calibration set the state has seen,
this one's included, against the base (unmasked) weights, so previously
pruned positions can re-enter. Counts add exactly, so every order of one set
of datasets gives the same state, scores and masks, bit for bit. The harness
gives a state to sequential sensitivity, the paper's continual run.

A prune step passes plain dicts keyed by prunable layer index through
three stages. ``score_step`` does the work that depends only on the scored
network and one vector of input-token counts: a score matrix per layer, for
every criterion. ``build_masks`` turns scores into a mask per layer under one
sparsity spec, and ``mask_step`` applies those masks to the scored network.
``prune_step`` is their one composition, the same for every criterion: it
scores the calibration set's counts, plus the state's when it is given one,
and commits them to the state only if the step succeeds. Its ``masks`` hook,
by default ``score_masks`` (scores, then masks), lets a harness hold masks
instead of recomputing them, and drop the float scores as soon as every
spec's masks are built. Scoring reads each layer's inputs from one capture of
the network on the vocabulary, which a ``ScoredNetwork`` takes once for every
count vector scored on it, together with the count-free terms of each layer's
sensitivity scores. Every layer is positionwise, so a calibration
position enters only through its input token, and both data criteria read
calibration data only through ``counts``, how many of its positions read each
token: they weigh every column of the capture by its token's count.

A mask is a uint8 array of {0, 1}, shaped like its layer's weight, with 0
where the weight is pruned. Unstructured selection prunes exactly the
``floor(s * N)`` lowest-scoring entries, ties resolved toward the lowest flat
index, so the sparsity is exact even when scores tie. It takes linear time:
a partition finds the k-th smallest score, every entry below it is pruned,
and then the first entries equal to it in flat order until k are pruned.
``-0.0`` equals ``0.0``. This is the selection a stable argsort of the flat
scores makes, without the sort. N:M selection ranks each group's members by
comparing them pairwise, with the same tie rule.

Initialization modes
--------------------
``global`` restores pristine base weights before scoring each dataset;
``sequential`` scores the weights as previously masked. Criteria of the
form ``|masked W * anything|`` are trapped by sequential initialization:
masked entries score zero, fall below any threshold again, and the mask
freezes (weight stasis): the harness finds no entry that differs between
consecutive masks.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .corpus import CalibrationSet
from .errors import NumericalError, ShapeError, UsageError
from .importance import ImportanceState, accumulate, check_against, check_next
from .model import Network, check_tokens, forward_capture, linear, vocabulary_tokens
from .sensitivity import DEFAULT_EPSILON, expected_gradient_magnitude, gradient_terms
# perfbench's tracer patches accumulate and forward_capture by their names in
# this module, and these three, which scoring no longer calls
from .sensitivity import batch_gradient_magnitude, batch_input_perturbation, scaled_gaussian  # noqa: F401

CRITERIA = ("sensitivity", "magnitude", "wanda")
INIT_MODES = ("sequential", "global")
NM_PATTERNS = ((2, 4), (4, 8))


@dataclass
class PruneConfig:
    criterion: str
    sparsity: float | None = None
    nm: tuple[int, int] | None = None
    init_mode: str = "global"
    seed: int = 0  # enters no score
    epsilon: float = DEFAULT_EPSILON  # epsilon and w_draws only scale sensitivity scores
    w_draws: int = 1  # weight perturbations per segment the expectation sums

    def __post_init__(self) -> None:
        if self.criterion not in CRITERIA:
            raise UsageError(f"criterion must be one of {CRITERIA}, got {self.criterion!r}")
        if self.init_mode not in INIT_MODES:
            raise UsageError(f"init_mode must be one of {INIT_MODES}, got {self.init_mode!r}")
        if self.w_draws < 1:
            raise UsageError(f"w_draws must be >= 1, got {self.w_draws}")
        if (self.sparsity is None) == (self.nm is None):
            raise UsageError("exactly one of sparsity / nm must be set")
        if self.sparsity is not None and not 0.0 <= self.sparsity < 1.0:
            raise UsageError(f"sparsity must be in [0, 1), got {self.sparsity}")
        if self.nm is not None:
            self.nm = tuple(int(v) for v in self.nm)
            if self.nm not in NM_PATTERNS:
                raise UsageError(f"nm pattern must be one of {NM_PATTERNS}, got {self.nm}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise UsageError(f"epsilon must be positive and finite, got {self.epsilon}")

    def spec_label(self) -> str:
        if self.sparsity is not None:
            return f"unstructured-{self.sparsity:g}"
        return f"{self.nm[0]}of{self.nm[1]}"


def _finite(scores) -> np.ndarray:
    """``scores`` as float64; NumericalError if any entry is NaN or infinite,
    which no ranking can order meaningfully."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise NumericalError(f"{int(np.sum(~np.isfinite(scores)))} non-finite score(s)")
    return scores


def build_mask_unstructured(scores: np.ndarray, s: float) -> np.ndarray:
    """The mask that zeroes exactly the ``floor(s * N)`` lowest-scoring
    entries; among equal scores, the lowest flat indices first."""
    scores = _finite(scores)
    if not 0.0 <= s < 1.0:
        raise UsageError(f"sparsity must be in [0, 1), got {s}")
    k = int(math.floor(s * scores.size))
    flat = scores.ravel()
    bits = np.ones(flat.size, dtype=np.uint8)
    if k > 0:
        kth = np.partition(flat, k - 1)[k - 1]
        below = flat < kth
        bits[below] = 0
        ties = np.flatnonzero(flat == kth)
        bits[ties[: k - int(below.sum())]] = 0
    return bits.reshape(scores.shape)


def build_mask_nm(scores: np.ndarray, n: int, m: int) -> np.ndarray:
    """The mask that keeps the ``n`` highest-scoring entries in every group
    of ``m`` consecutive entries along the input (column) dimension.

    Ties keep the lowest index, ``-0.0`` equals ``0.0``. A trailing short
    group of length r keeps ``ceil(n * r / m)`` entries.
    """
    scores = _finite(scores)
    if scores.ndim != 2:
        raise ShapeError(f"scores must be 2-D, got {scores.shape}")
    n, m = int(n), int(m)
    if not 0 < n < m:
        raise UsageError(f"need 0 < n < m, got ({n}, {m})")
    rows, cols = scores.shape
    full = (cols // m) * m
    bits = np.empty_like(scores, dtype=np.uint8)
    bits[:, :full] = _top_k_bits(scores[:, :full].reshape(-1, m), n).reshape(rows, full)
    bits[:, full:] = _top_k_bits(scores[:, full:], math.ceil(n * (cols - full) / m))
    return bits


def _top_k_bits(scores: np.ndarray, k: int) -> np.ndarray:
    """uint8 bits keeping the ``k`` highest scores of each row, without a
    sort: an entry's rank is the number of greater entries in its row plus
    the number of equal ones at lower indices, and ranks below ``k`` stay.
    These are the bits a stable argsort of the negated row keeps."""
    cols = np.ascontiguousarray(scores.T)
    rank = np.empty(cols.shape, dtype=np.min_scalar_type(len(cols)))  # a rank is < width
    for i, col in enumerate(cols):  # an earlier entry outranks col also when equal
        rank[i] = ((cols[:i] >= col).sum(axis=0, dtype=rank.dtype)
                   + (cols[i + 1:] > col).sum(axis=0, dtype=rank.dtype))
    return (rank < k).T.astype(np.uint8)


def build_masks(scores: dict[int, np.ndarray], config: PruneConfig) -> dict[int, np.ndarray]:
    """A mask per layer of ``scores``, under ``config``'s sparsity spec."""
    if config.sparsity is not None:
        return {idx: build_mask_unstructured(s, config.sparsity) for idx, s in scores.items()}
    return {idx: build_mask_nm(s, *config.nm) for idx, s in scores.items()}


class ScoredNetwork(Network):
    """A network that does not change while it is scored, so its vocabulary
    inputs, and the count-free terms of its sensitivity scores, are computed
    once, on first use, and shared by every calibration set scored on it,
    which weighs them by its own token counts. The harness holds its base as
    one."""

    @cached_property
    def vocabulary_inputs(self) -> dict[int, np.ndarray]:
        """Column ``a`` of each prunable layer's input is its input for token ``a``."""
        return forward_capture(self, vocabulary_tokens(self))

    @cached_property
    def gradient_terms(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """``sensitivity.gradient_terms`` of each prunable layer."""
        return {idx: gradient_terms(self.layers[idx].weight, x)
                for idx, x in self.vocabulary_inputs.items()}


def score_step(net: Network, config: PruneConfig, counts: np.ndarray) -> dict[int, np.ndarray]:
    """The part of a prune step that depends only on the scored network
    ``net``, the criterion's settings and ``counts``, how many calibration
    positions read each token of ``net``'s vocabulary as input; neither the
    importance state nor the sparsity spec enters it. Returns one score
    matrix, shaped like the weight, per prunable layer index. Magnitude scores
    ``|W|``. Wanda and sensitivity read each layer's vocabulary inputs ``X``,
    held by ``net`` when it is a ``ScoredNetwork``, with sensitivity's terms,
    and computed afresh otherwise. Wanda scales ``|W|`` column-wise by the
    feature norms ``sqrt((X * X) @ counts)``, the L2 norm of each input
    feature over the calibration positions. Sensitivity scores the importance
    ``|W| * expected_gradient_magnitude(gradient_terms(W, X), counts)``;
    ``epsilon`` and ``w_draws`` only scale it, and ``seed`` does not enter
    it."""
    prunable = net.prunable_indices()
    if config.criterion == "magnitude":
        return {idx: np.abs(net.layers[idx].weight) for idx in prunable}
    scored = isinstance(net, ScoredNetwork)
    inputs = net.vocabulary_inputs if scored else forward_capture(net, vocabulary_tokens(net))
    if config.criterion == "wanda":
        return {idx: np.abs(net.layers[idx].weight) * np.sqrt((inputs[idx] * inputs[idx]) @ counts)
                for idx in prunable}

    def terms(idx):  # a plain network keeps none: each layer's go once it is scored
        return (net.gradient_terms[idx] if scored
                else gradient_terms(net.layers[idx].weight, inputs[idx]))

    return {idx: np.abs(net.layers[idx].weight)
            * expected_gradient_magnitude(terms(idx), counts, config.epsilon, config.w_draws)
            for idx in prunable}


def score_masks(net: Network, config: PruneConfig, counts: np.ndarray) -> dict[int, np.ndarray]:
    """``build_masks(score_step(net, config, counts), config)``: the masks of
    one prune step, and ``prune_step``'s default ``masks`` hook."""
    return build_masks(score_step(net, config, counts), config)


def mask_step(
    net: Network, config: PruneConfig, calib: CalibrationSet, masks: dict[int, np.ndarray]
) -> tuple[Network, dict[int, np.ndarray], dict]:
    """The part of a prune step that applies one sparsity spec's ``masks``
    (one per prunable layer) to ``net``, the scored network: the re-masked
    network, which shares all but its linear layers with ``net``; ``masks``;
    and a report fragment with per-layer sparsity statistics for the step on
    ``calib``."""
    pruned = Network(list(net.layers), net.vocab_size, net.embed)
    frag: dict = {"corpus": calib.corpus_name, "criterion": config.criterion, "layers": {}}
    for idx, bits in masks.items():
        weight = net.layers[idx].weight
        pruned.layers[idx] = linear(weight * bits)
        frag["layers"][idx] = {
            "shape": list(weight.shape),
            "zeros": int(bits.size - bits.sum()),
            "sparsity": float(1.0 - bits.mean()),
        }
    total = sum(bits.size for bits in masks.values())
    zeros = sum(layer["zeros"] for layer in frag["layers"].values())
    frag["overall_sparsity"] = zeros / total if total else 0.0
    return pruned, masks, frag


def prune_step(
    net: Network,
    state: ImportanceState | None,
    config: PruneConfig,
    calib: CalibrationSet,
    base_net: Network | None = None,
    masks=score_masks,
) -> tuple[Network, dict[int, np.ndarray], dict]:
    """One pruning pass on one dataset's calibration set: ``masks(net,
    config, counts)``, by default ``score_masks``, then ``mask_step`` on the
    scored network. A given ``state``, the one carried across datasets, makes
    the step accumulate, whatever the criterion: it scores ``state``'s counts
    with ``calib``'s added, and ``state`` takes ``calib``'s, in place, only
    once the step has succeeded. Without one the step scores ``calib``'s own
    counts. The scored network is the base ``base_net`` when a state is given
    or under global initialization, and ``net`` otherwise or when no base is
    given. A harness passes its own ``masks``, called as ``score_masks`` is,
    to hold the masks of the count vectors it scores. Returns the re-masked
    network, per-layer masks, and a report fragment with per-layer sparsity
    statistics. InputError when a calibration token is outside the scored
    network's vocabulary; UsageError, before scoring, when ``calib``'s dataset
    is the last one ``state`` has seen."""
    if base_net is not None and (state is not None or config.init_mode == "global"):
        net = base_net
    check_tokens(net, calib.segments.ravel())  # so calib.counts fits the vocabulary
    counts = np.pad(calib.counts, (0, net.vocab_size - calib.counts.size))
    if state is not None:
        check_against(state, net)
        check_next(state, calib)
        counts += state.counts
    step = mask_step(net, config, calib, masks(net, config, counts))
    if state is not None:
        accumulate(state, calib)
    return step


def export_masks(masks: dict[int, np.ndarray], config: PruneConfig, out_dir):
    """Write bit-packed masks plus a JSON summary into ``out_dir``; each
    layer's ``structure`` is ``config``'s: ``"unstructured"`` or ``[n, m]``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    structure = "unstructured" if config.nm is None else list(config.nm)
    summary = {}
    payload = bytearray()
    for idx, bits in sorted(masks.items()):
        packed = np.packbits(bits.ravel())
        summary[str(idx)] = {
            "shape": list(bits.shape),
            "structure": structure,
            "sparsity": float(1.0 - bits.mean()),
            "offset": len(payload),
            "packed_bytes": len(packed),
        }
        payload.extend(packed.tobytes())
    (out_dir / "masks.bin").write_bytes(bytes(payload))
    (out_dir / "masks.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    return out_dir / "masks.json"
