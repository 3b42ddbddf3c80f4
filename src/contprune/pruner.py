"""Pruning criteria, threshold automation, mask construction, and the
per-dataset prune step.

Criteria
--------
magnitude    |W|; data-free.
wanda        |W| scaled column-wise by the L2 norm of the corresponding
             input feature over the calibration samples.
sensitivity  the accumulated importance state built from finite-difference
             sensitivity records; this is the continual criterion. Scores
             and gradients are always taken against the base (unmasked)
             weights, so previously pruned positions can re-enter, and the
             final accumulated state is independent of dataset order.

Selection is exact rank-based: the ``floor(s * N)`` lowest-scoring entries
are pruned, ties resolved toward the lowest flat index. This realizes the
percentile-threshold intent while guaranteeing the sparsity exactly even
when scores tie; the literal percentile threshold is kept as a cross-check
utility (``threshold_for_sparsity``).

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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import CalibrationSet
from .errors import ShapeError, UsageError
from .importance import ImportanceState, accumulate, finish_dataset
from .model import Network, forward_capture
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
        bits = np.asarray(self.bits, dtype=np.uint8)
        if bits.ndim != 2:
            raise ShapeError(f"mask must be 2-D, got shape {bits.shape}")
        if not np.isin(bits, (0, 1)).all():
            raise ValueError("mask entries must be 0 or 1")
        object.__setattr__(self, "bits", bits)

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
        if self.epsilon <= 0:
            raise UsageError(f"epsilon must be positive, got {self.epsilon}")

    def spec_label(self) -> str:
        if self.sparsity is not None:
            return f"unstructured-{self.sparsity:g}"
        return f"{self.nm[0]}of{self.nm[1]}"


def criterion_scores(
    criterion: str,
    weight: np.ndarray,
    state: ImportanceState | None = None,
    activations: np.ndarray | None = None,
    layer_index: int | None = None,
) -> np.ndarray:
    """Nonnegative score matrix congruent to ``weight`` for one layer."""
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
    if criterion == "sensitivity":
        if state is None or layer_index is None:
            raise UsageError("sensitivity criterion requires an importance state and layer index")
        scores = state.per_layer.get(layer_index)
        if scores is None:
            raise UsageError(f"importance state does not track layer {layer_index}")
        if scores.shape != weight.shape:
            raise ShapeError(f"state shape {scores.shape} != weight shape {weight.shape}")
        return scores.copy()
    raise UsageError(f"unknown criterion {criterion!r}")


def threshold_for_sparsity(scores: np.ndarray, s: float) -> float:
    """Percentile threshold: the value at rank ``floor(s * N)`` ascending.

    With strict-less masking this prunes at most ``floor(s * N)`` entries;
    ties at the boundary are resolved by the rank-based mask builders, which
    this function cross-checks.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ShapeError("scores must be nonempty")
    if not 0.0 <= s < 1.0:
        raise UsageError(f"sparsity must be in [0, 1), got {s}")
    k = int(math.floor(s * scores.size))
    return float(np.sort(scores.ravel())[k])


def build_mask_unstructured(scores: np.ndarray, s: float) -> Mask:
    """Zero out exactly ``floor(s * N)`` lowest-scoring entries."""
    scores = np.asarray(scores, dtype=np.float64)
    if not 0.0 <= s < 1.0:
        raise UsageError(f"sparsity must be in [0, 1), got {s}")
    k = int(math.floor(s * scores.size))
    bits = np.ones(scores.size, dtype=np.uint8)
    if k > 0:
        order = np.argsort(scores.ravel(), kind="stable")
        bits[order[:k]] = 0
    return Mask(bits=bits.reshape(scores.shape), structure="unstructured")


def build_mask_nm(scores: np.ndarray, n: int, m: int) -> Mask:
    """Keep the ``n`` highest-scoring entries in every group of ``m``
    consecutive entries along the input (column) dimension.

    Ties keep the lowest index. A trailing short group of length r keeps
    ``ceil(n * r / m)`` entries.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ShapeError(f"scores must be 2-D, got {scores.shape}")
    n, m = int(n), int(m)
    if not 0 < n < m:
        raise UsageError(f"need 0 < n < m, got ({n}, {m})")
    rows, cols = scores.shape
    bits = np.zeros_like(scores, dtype=np.uint8)
    full = (cols // m) * m
    if full:
        grouped = scores[:, :full].reshape(rows * (full // m), m)
        # stable argsort of the negation keeps the lowest index first on ties
        order = np.argsort(-grouped, axis=1, kind="stable")
        gbits = np.zeros_like(grouped, dtype=np.uint8)
        np.put_along_axis(gbits, order[:, :n], 1, axis=1)
        bits[:, :full] = gbits.reshape(rows, full)
    rem = cols - full
    if rem:
        keep = math.ceil(n * rem / m)
        tail = scores[:, full:]
        order = np.argsort(-tail, axis=1, kind="stable")
        tbits = np.zeros_like(tail, dtype=np.uint8)
        np.put_along_axis(tbits, order[:, :keep], 1, axis=1)
        bits[:, full:] = tbits
    return Mask(bits=bits, structure=(n, m))


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


def _capture_inputs(net: Network, calib: CalibrationSet):
    """Per-layer inputs of each segment, and the same inputs concatenated."""
    per_segment: list[dict[int, np.ndarray]] = []
    concat: dict[int, list[np.ndarray]] = {}
    for seg in calib.segments:
        _, records = forward_capture(net, seg)
        seg_inputs = {}
        for rec in records:
            seg_inputs[rec.layer_index] = rec.input
            concat.setdefault(rec.layer_index, []).append(rec.input)
        per_segment.append(seg_inputs)
    stacked = {i: np.concatenate(chunks, axis=1) for i, chunks in concat.items()}
    return per_segment, stacked


def prune_step(
    net: Network,
    state: ImportanceState | None,
    config: PruneConfig,
    calib: CalibrationSet,
    base_net: Network | None = None,
) -> tuple[Network, dict[int, Mask], dict]:
    """One pruning pass on one dataset's calibration set.

    Returns the re-masked network, per-layer masks, and a report fragment
    with per-layer sparsity statistics.

    For the sensitivity criterion, captures, sensitivity records, and the
    re-masked weights all come from the base network (``base_net``, falling
    back to ``net``); the importance state must be the one carried across
    datasets. For the other criteria the scored weights are ``net`` as
    passed under sequential initialization, or the restored base under
    global initialization.
    """
    if config.criterion == "sensitivity":
        if state is None:
            raise UsageError("sensitivity criterion requires an importance state")
        ref_net = base_net if base_net is not None else net
    elif config.init_mode == "global" and base_net is not None:
        ref_net = base_net
    else:
        ref_net = net

    prunable = ref_net.prunable_indices()
    need_captures = config.criterion in ("sensitivity", "wanda")
    per_segment: list[dict[int, np.ndarray]] = []
    stacked: dict[int, np.ndarray] = {}
    if need_captures:
        per_segment, stacked = _capture_inputs(ref_net, calib)

    if config.criterion == "sensitivity":
        # every position is one input; weight perturbations are shared
        # across a segment, input perturbations are per token
        for j, seg_inputs in enumerate(per_segment):
            for idx in prunable:
                layer = ref_net.layers[idx]
                w = layer.weight
                x_batch = seg_inputs[idx]
                seed = derive_seed(config.seed, "pert", calib.corpus_name, j, idx)
                rng = np.random.default_rng(seed)
                w_rms = config.epsilon * float(np.sqrt(np.mean(w * w)))
                for _ in range(config.w_draws):
                    delta_w = scaled_gaussian(w.shape, w_rms, rng)
                    delta_x = batch_input_perturbation(x_batch, config.epsilon, rng)
                    contrib = batch_gradient_magnitude(layer, x_batch, delta_w, delta_x)
                    accumulate(state, idx, w, contrib)
        finish_dataset(state, calib.corpus_name, calib.n_samples)

    masks: dict[int, Mask] = {}
    pruned = ref_net.copy()
    frag: dict = {"corpus": calib.corpus_name, "criterion": config.criterion, "layers": {}}
    for idx in prunable:
        weight = ref_net.layers[idx].weight
        scores = criterion_scores(
            config.criterion,
            weight,
            state=state,
            activations=stacked.get(idx),
            layer_index=idx,
        )
        mask = _build_mask(scores, config)
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
