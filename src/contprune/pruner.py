"""Pruning criteria, mask selection, and the per-dataset prune step.

Criteria
--------
magnitude    |W|; data-free.
wanda        |W| scaled column-wise by the L2 norm of the corresponding
             input feature over the calibration samples.
sensitivity  the accumulated importance state built from finite-difference
             sensitivity records; this is the continual criterion. Scores
             and gradients are always taken against the base (unmasked)
             weights, so previously pruned positions can re-enter, and the
             final state sums the same terms in any dataset order. Float
             addition is not associative, though: two orders give states
             that agree only to rounding (see ``importance``).

A prune step is the composition of two halves. ``score_step`` does the work
that depends only on the scored network and one calibration set: one score
matrix per prunable layer, for every criterion. For sensitivity that matrix
is the dataset's importance, the sum of its samples' ``|W * grad|`` terms;
for wanda it is the activation-scaled ``|W|``, for magnitude ``|W|``.
``mask_step`` does the rest under one sparsity spec: sensitivity adds the
dataset's importance to the carried state and ranks the state, the baselines
rank their scores. A harness may therefore score a dataset once and mask it
under many specs and orderings. Scoring gathers each calibration segment's
layer inputs from one capture of the network on the vocabulary, which a
``ScoredNetwork`` takes once for every calibration set scored on it.

Unstructured selection prunes exactly the ``floor(s * N)`` lowest-scoring
entries, ties resolved toward the lowest flat index, so the sparsity is exact
even when scores tie. It takes linear time: a partition finds the k-th
smallest score, every entry below it is pruned, and then the first entries
equal to it in flat order until k are pruned. ``-0.0`` equals ``0.0``. This
is the selection a stable argsort of the flat scores makes, without the sort.
N:M selection ranks each group's members by comparing them pairwise, with
the same tie rule.

Initialization modes
--------------------
``global`` restores pristine base weights before scoring each dataset;
``sequential`` scores the weights as previously masked. Criteria of the
form ``|masked W * anything|`` are trapped by sequential initialization:
masked entries score zero, fall below any threshold again, and the mask
freezes (weight stasis). ``detect_stasis`` measures this.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .corpus import CalibrationSet
from .errors import NumericalError, ShapeError, UsageError
from .importance import ImportanceState, accumulate, check_against, finish_dataset, init_state
from .model import Network, check_tokens, forward_capture, vocabulary_tokens
from .seeding import derive_seed
from .sensitivity import batch_gradient_magnitude, batch_input_perturbation, scaled_gaussian

CRITERIA = ("sensitivity", "magnitude", "wanda")
INIT_MODES = ("sequential", "global")
NM_PATTERNS = ((2, 4), (4, 8))


@dataclass(frozen=True, eq=False)
class Mask:
    bits: np.ndarray  # uint8 matrix of {0, 1}, congruent to the weight
    structure: str | tuple[int, int] = "unstructured"

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits)
        if bits.ndim != 2:
            raise ShapeError(f"mask must be 2-D, got shape {bits.shape}")
        if not ((bits == 0) | (bits == 1)).all():
            raise ValueError("mask entries must be 0 or 1")
        object.__setattr__(self, "bits", bits.astype(np.uint8, copy=False))

    @property
    def sparsity(self) -> float:
        return float(1.0 - self.bits.mean())


@dataclass
class PruneConfig:
    criterion: str
    sparsity: float | None = None
    nm: tuple[int, int] | None = None
    init_mode: str = "global"
    seed: int = 0
    epsilon: float = 1e-3
    w_draws: int = 1  # independent weight perturbations per segment

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


def criterion_scores(
    criterion: str, weight: np.ndarray, activations: np.ndarray | None = None
) -> np.ndarray:
    """Nonnegative score matrix of a baseline criterion, congruent to
    ``weight``, for one layer."""
    weight = np.asarray(weight, dtype=np.float64)
    if criterion == "magnitude":
        return np.abs(weight)
    if criterion == "wanda":
        if activations is None:
            raise UsageError("wanda criterion requires captured activations")
        acts = np.asarray(activations, dtype=np.float64)
        if acts.ndim != 2 or acts.shape[0] != weight.shape[1]:
            raise ShapeError(
                f"activations {acts.shape} do not match weight input dim "
                f"{weight.shape[1]}"
            )
        feature_norms = np.linalg.norm(acts, axis=1)
        return np.abs(weight) * feature_norms[None, :]
    raise UsageError(f"unknown criterion {criterion!r}")


def _finite(scores) -> np.ndarray:
    """``scores`` as float64; NumericalError if any entry is NaN or infinite,
    which no ranking can order meaningfully."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise NumericalError(f"{int(np.sum(~np.isfinite(scores)))} non-finite score(s)")
    return scores


def build_mask_unstructured(scores: np.ndarray, s: float) -> Mask:
    """Zero out exactly ``floor(s * N)`` lowest-scoring entries; among equal
    scores, the lowest flat indices first."""
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
    return Mask(bits=bits.reshape(scores.shape), structure="unstructured")


def build_mask_nm(scores: np.ndarray, n: int, m: int) -> Mask:
    """Keep the ``n`` highest-scoring entries in every group of ``m``
    consecutive entries along the input (column) dimension.

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
    return Mask(bits=bits, structure=(n, m))


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


def apply_mask(weight: np.ndarray, mask: Mask) -> np.ndarray:
    weight = np.asarray(weight, dtype=np.float64)
    if weight.shape != mask.bits.shape:
        raise ShapeError(f"weight {weight.shape} vs mask {mask.bits.shape}")
    return weight * mask.bits


def detect_stasis(mask_prev: Mask, mask_next: Mask) -> tuple[bool, int]:
    """(is_stasis, hamming distance) between two masks of one layer."""
    if mask_prev.bits.shape != mask_next.bits.shape:
        raise ShapeError(
            f"masks differ in shape: {mask_prev.bits.shape} vs {mask_next.bits.shape}"
        )
    hamming = int(np.sum(mask_prev.bits != mask_next.bits))
    return hamming == 0, hamming


def _build_mask(scores: np.ndarray, config: PruneConfig) -> Mask:
    if config.sparsity is not None:
        return build_mask_unstructured(scores, config.sparsity)
    return build_mask_nm(scores, *config.nm)


def _vocabulary_inputs(net: Network) -> dict[int, np.ndarray]:
    """Each prunable layer's input on ``model.vocabulary_tokens(net)``, from
    one ``forward_capture``: column ``a`` is the layer's input for token ``a``."""
    _, records = forward_capture(net, vocabulary_tokens(net))
    return {rec.layer_index: rec.input for rec in records}


class ScoredNetwork(Network):
    """A network that does not change while it is scored, so its vocabulary
    inputs are captured once, on first use, and shared by every calibration
    set scored on it. The harness holds its base as one."""

    @cached_property
    def vocabulary_inputs(self) -> dict[int, np.ndarray]:
        return _vocabulary_inputs(self)


def _calibration_inputs(net: Network, calib: CalibrationSet):
    """The vocabulary inputs of ``net`` and every segment's input columns
    (its tokens but the last), each segment's tokens checked first."""
    columns = [check_tokens(net, seg)[:-1] for seg in calib.segments]
    inputs = net.vocabulary_inputs if isinstance(net, ScoredNetwork) else _vocabulary_inputs(net)
    return inputs, columns


def _segment_inputs(net: Network, calib: CalibrationSet):
    """Per-layer inputs of each calibration segment, one segment at a time,
    gathered from the vocabulary inputs. Every segment's tokens are checked
    before the first one is yielded."""
    inputs, columns = _calibration_inputs(net, calib)
    for cols in columns:
        yield {idx: _columns(x, cols) for idx, x in inputs.items()}


def _columns(x: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``x[:, cols]`` in the memory order of ``x``, as ``forward_capture``
    leaves it: the sensitivity noise reductions round differently on C and
    Fortran order, and plain ``x[:, cols]`` is always Fortran order."""
    return np.take(x, cols, axis=1, out=np.empty_like(x, shape=(x.shape[0], len(cols))))


@dataclass(frozen=True, eq=False)
class DatasetScores:
    """What ``score_step`` computes from one calibration set: ``layers``
    maps each prunable layer to its score matrix."""

    corpus_name: str
    n_samples: int
    layers: dict[int, np.ndarray] = field(default_factory=dict)


def scored_network(net: Network, config: PruneConfig, base_net: Network | None = None) -> Network:
    """The network a prune step scores and masks: the base (``base_net``,
    falling back to ``net``) for sensitivity, and for the other criteria
    under global initialization; ``net`` as passed otherwise."""
    if base_net is not None and (config.criterion == "sensitivity" or config.init_mode == "global"):
        return base_net
    return net


def score_step(net: Network, config: PruneConfig, calib: CalibrationSet) -> DatasetScores:
    """The half of a prune step that depends only on the scored network
    ``net``, the criterion's settings and one calibration set; neither the
    importance state nor the sparsity spec enters it. Sensitivity adds its
    terms into zero matrices segment-major, then draw by draw."""
    prunable = net.prunable_indices()
    if config.criterion == "sensitivity":
        importance = init_state(net)
        # every position is one input; weight perturbations are shared
        # across a segment, input perturbations are per token
        for j, seg_inputs in enumerate(_segment_inputs(net, calib)):
            for idx in prunable:
                layer = net.layers[idx]
                w = layer.weight
                x_batch = seg_inputs[idx]
                seed = derive_seed(config.seed, "pert", calib.corpus_name, j, idx)
                rng = np.random.default_rng(seed)
                w_rms = config.epsilon * float(np.sqrt(np.mean(w * w)))
                for _ in range(config.w_draws):
                    delta_w = scaled_gaussian(w.shape, w_rms, rng)
                    delta_x = batch_input_perturbation(x_batch, config.epsilon, rng)
                    grad = batch_gradient_magnitude(layer, x_batch, delta_w, delta_x)
                    accumulate(importance, idx, w, grad)
        return DatasetScores(calib.corpus_name, calib.n_samples, importance.per_layer)
    acts = {}
    if config.criterion == "wanda":  # every segment's columns, in segment order
        inputs, columns = _calibration_inputs(net, calib)
        cols = np.concatenate(columns)
        acts = {idx: _columns(x, cols) for idx, x in inputs.items()}
    scores = DatasetScores(calib.corpus_name, calib.n_samples)
    for idx in prunable:
        weight = net.layers[idx].weight
        scores.layers[idx] = criterion_scores(config.criterion, weight, acts.get(idx))
    return scores


def mask_step(
    net: Network,
    state: ImportanceState | None,
    config: PruneConfig,
    scores: DatasetScores,
) -> tuple[Network, dict[int, Mask], dict]:
    """The half of a prune step that applies one sparsity spec: masks for
    ``net`` (the scored network) from ``scores``, the re-masked network, and
    a report fragment with per-layer sparsity statistics.

    For sensitivity each layer's dataset importance is first added to
    ``state`` and the dataset is marked as seen; the masks then rank the
    state. The state is thus a running sum of per-dataset sums.
    """
    ranked = scores.layers
    if config.criterion == "sensitivity":
        if state is None:
            raise UsageError("sensitivity criterion requires an importance state")
        check_against(state, net)
        for idx, importance in scores.layers.items():
            state.per_layer[idx] += importance
        finish_dataset(state, scores.corpus_name, scores.n_samples)
        ranked = state.per_layer

    prunable = net.prunable_indices()
    masks: dict[int, Mask] = {}
    pruned = net.copy()
    frag: dict = {"corpus": scores.corpus_name, "criterion": config.criterion, "layers": {}}
    for idx in prunable:
        weight = net.layers[idx].weight
        mask = _build_mask(ranked[idx], config)
        masks[idx] = mask
        pruned.layers[idx].weight = apply_mask(weight, mask)
        frag["layers"][idx] = {
            "shape": list(weight.shape),
            "zeros": int(mask.bits.size - mask.bits.sum()),
            "sparsity": mask.sparsity,
        }
    total = sum(masks[i].bits.size for i in prunable)
    zeros = sum(int(masks[i].bits.size - masks[i].bits.sum()) for i in prunable)
    frag["overall_sparsity"] = zeros / total if total else 0.0
    return pruned, masks, frag


def prune_step(
    net: Network,
    state: ImportanceState | None,
    config: PruneConfig,
    calib: CalibrationSet,
    base_net: Network | None = None,
) -> tuple[Network, dict[int, Mask], dict]:
    """One pruning pass on one dataset's calibration set: ``score_step``
    then ``mask_step`` on ``scored_network(net, config, base_net)``. Returns
    the re-masked network, per-layer masks, and a report fragment with
    per-layer sparsity statistics. A sensitivity ``state`` must be the one
    carried across datasets."""
    ref_net = scored_network(net, config, base_net)
    return mask_step(ref_net, state, config, score_step(ref_net, config, calib))


def export_masks(masks: dict[int, Mask], out_dir):
    """Write bit-packed masks plus a JSON summary into ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {}
    payload = bytearray()
    offset = 0
    for idx in sorted(masks):
        mask = masks[idx]
        packed = np.packbits(mask.bits.ravel())
        summary[str(idx)] = {
            "shape": list(mask.bits.shape),
            "structure": list(mask.structure) if isinstance(mask.structure, tuple) else mask.structure,
            "sparsity": mask.sparsity,
            "offset": offset,
            "packed_bytes": len(packed),
        }
        payload.extend(packed.tobytes())
        offset += len(packed)
    (out_dir / "masks.bin").write_bytes(bytes(payload))
    (out_dir / "masks.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    return out_dir / "masks.json"
