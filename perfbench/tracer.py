"""Per-layer tracing from outside the package.

``install()`` replaces public functions of the ``contprune`` modules with
timing wrappers. Each function is patched under the name its caller looks
up: ``harness`` imports ``perplexity`` and ``prune_step`` by name, so the
wrapper must sit on ``contprune.harness.perplexity``; patching only
``contprune.metrics.perplexity`` would record nothing for a grid run.

Every span records calls, busy time (the wrapped call alone) and self time
(busy time minus the wrapped calls made inside it, wrapper costs included).
A few spans also fingerprint their arguments, so that the number of distinct
argument tuples over the number of calls (``unique_ratio``) measures how much
of the work repeats an earlier call. Nothing here is imported by an untraced
run.
"""
from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

_MULTIPLIERS = np.random.default_rng(0x5EED).integers(1, 2**63, size=1 << 17, dtype=np.uint64)
_MULTIPLIERS |= np.uint64(1)  # odd, so every word affects the hash

# highest percentile first; a tail is reported only with >= 10 samples beyond it
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def fingerprint(*arrays) -> tuple:
    """64-bit linear hash of each array's bytes, with shape and dtype.

    A dot product with fixed random odd multipliers modulo 2**64 is about
    ten times cheaper than SHA-1, which keeps the traced run close to the
    untraced one. Distinct inputs collide with negligible probability.
    """
    parts = []
    for a in arrays:
        a = np.ascontiguousarray(a)
        raw = a.reshape(-1).view(np.uint8)
        pad = (-raw.size) % 8
        if pad:
            raw = np.concatenate([raw, np.zeros(pad, dtype=np.uint8)])
        words = raw.view(np.uint64)
        if words.size > _MULTIPLIERS.size:
            raise ValueError(f"array of {words.size} words is too large to fingerprint")
        parts.append((a.shape, a.dtype.str, int(np.dot(words, _MULTIPLIERS[: words.size]))))
    return tuple(parts)


def network_fingerprint(net) -> tuple:
    arrays = [net.embed]
    for layer in net.layers:
        arrays.extend(a for a in (layer.weight, layer.gain, layer.bias) if a is not None)
    kinds = tuple((layer.kind, layer.activation_kind) for layer in net.layers)
    return (kinds, fingerprint(*arrays))


def tail_percentile(n: int) -> float:
    """Highest listed percentile with at least ten samples beyond it."""
    for pct in _TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


class _Span:
    __slots__ = ("calls", "busy", "self_time", "durations", "keys", "counters")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.durations: list[float] = []
        self.keys: set = set()
        self.counters: dict[str, float] = defaultdict(float)


class Tracer:
    """Span statistics keyed by layer name, plus the patches that feed them."""

    def __init__(self):
        self.spans: dict[str, _Span] = defaultdict(_Span)
        self._stack: list[list[float]] = []

    def wrap(self, fn, name, key=None, count=None):
        """Timing wrapper around ``fn``.

        ``name`` is a span name or a function of the call arguments returning
        one. ``key`` maps the arguments to a hashable fingerprint for
        ``unique_ratio``; ``count`` maps them to a dict of work counters.
        """
        spans, stack = self.spans, self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            t_enter = perf()
            span_name = name(args, kwargs) if callable(name) else name
            children = [0.0]
            stack.append(children)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                span = spans[span_name]
                span.calls += 1
                span.busy += t1 - t0
                span.self_time += t1 - t0 - children[0]
                span.durations.append(t1 - t0)
                if key is not None:
                    span.keys.add(key(args, kwargs))
                if count is not None:
                    for k, v in count(args, kwargs).items():
                        span.counters[k] += v
                if stack:
                    stack[-1][0] += perf() - t_enter

        return wrapper

    def patch(self, module, attr, name, key=None, count=None):
        setattr(module, attr, self.wrap(getattr(module, attr), name, key=key, count=count))

    def summary(self) -> dict:
        """Plain-data statistics per span, as written to a trace file."""
        out = {}
        for name, span in sorted(self.spans.items()):
            durations = sorted(span.durations)
            pct = tail_percentile(len(durations))
            out[name] = {
                "calls": span.calls,
                "busy_s": span.busy,
                "self_s": span.self_time,
                "p50_ms": 1000.0 * float(np.percentile(durations, 50)),
                "tail_pct": pct,
                "tail_ms": 1000.0 * float(np.percentile(durations, pct)),
                "unique": len(span.keys) if span.keys else None,
                "counters": dict(span.counters),
            }
        return out


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def install(tracer: Tracer) -> Tracer:
    """Patch every traced entry point of ``contprune``; returns ``tracer``."""
    from contprune import cli, corpus, harness, metrics, model, pruner, sensitivity, trainer

    def ppl_key(args, kwargs):
        net, corp = args[0], _arg(args, kwargs, 1, "corpus")
        seq_len = _arg(args, kwargs, 2, "seq_len", 128)
        return (network_fingerprint(net), fingerprint(corp.eval_tokens()), seq_len)

    def ppl_count(args, kwargs):
        corp = _arg(args, kwargs, 1, "corpus")
        seq_len = _arg(args, kwargs, 2, "seq_len", 128)
        return {"windows": len(corp.eval_tokens()) // seq_len}

    def tokens_count(args, kwargs):
        return {"positions": len(_arg(args, kwargs, 1, "tokens")) - 1}

    def capture_key(args, kwargs):
        return (network_fingerprint(args[0]), fingerprint(_arg(args, kwargs, 1, "tokens")))

    def kernel_key(args, kwargs):
        layer = args[0]
        x = _arg(args, kwargs, 1, "x_batch")
        dw, dx = _arg(args, kwargs, 2, "delta_w"), _arg(args, kwargs, 3, "delta_x")
        return fingerprint(layer.weight, x, dw, dx)

    def kernel_count(args, kwargs):
        return {"columns": np.shape(_arg(args, kwargs, 1, "x_batch"))[1]}

    def train_count(args, kwargs):
        return {"steps": _arg(args, kwargs, 2, "cfg").steps}

    def prune_name(args, kwargs):
        return f"pruner.prune_step.{_arg(args, kwargs, 2, 'config').criterion}"

    def layer_name(args, kwargs):
        return f"model.layer_forward.{args[0].kind}"

    tracer.patch(cli, "main", "cli")
    for attr in ("run_continual", "run_ablation_sparsity", "run_ablation_samples"):
        tracer.patch(harness, attr, "harness")
    for mod in (harness, metrics):
        tracer.patch(mod, "perplexity", "metrics.perplexity", key=ppl_key, count=ppl_count)
    tracer.patch(harness, "aggregate", "metrics.aggregate")
    tracer.patch(metrics, "forward", "model.forward", count=tokens_count)
    tracer.patch(pruner, "forward_capture", "model.forward_capture",
                 key=capture_key, count=tokens_count)
    for mod in (model, sensitivity):
        tracer.patch(mod, "layer_forward", layer_name)
    for mod, attr in ((model, "save_checkpoint"), (model, "load_checkpoint"),
                      (harness, "load_checkpoint")):
        tracer.patch(mod, attr, "model.checkpoint_io")
    tracer.patch(harness, "prune_step", prune_name)
    tracer.patch(pruner, "prune_step", prune_name)
    for attr in ("build_mask_unstructured", "build_mask_nm"):
        tracer.patch(pruner, attr, "pruner.mask_build")
    tracer.patch(pruner, "batch_gradient_magnitude", "sensitivity.kernel",
                 key=kernel_key, count=kernel_count)
    for attr in ("scaled_gaussian", "batch_input_perturbation"):
        tracer.patch(pruner, attr, "sensitivity.noise")
    tracer.patch(pruner, "accumulate", "importance.accumulate")
    tracer.patch(corpus, "generate_corpora", "corpus.generate_corpora")
    for mod in (corpus, harness):
        tracer.patch(mod, "load_corpus", "corpus.load_corpus")
    tracer.patch(harness, "sample_calibration", "corpus.sample_calibration")
    tracer.patch(trainer, "train", "trainer.train", count=train_count)
    return tracer
