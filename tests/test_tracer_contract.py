"""The benchmark's tracer against the names ``src/`` keeps for it.

``perfbench/tracer.py`` patches functions under the names their callers look
up, among them ``harness.perplexity``, ``sensitivity.layer_forward`` and the
sampled sensitivity reference imported into ``pruner``
(``batch_gradient_magnitude``, ``batch_input_perturbation``,
``scaled_gaussian``), which nothing in ``src/`` calls under those names, and
``harness.prune_step``, ``harness.aggregate`` and ``pruner.accumulate``, which
their modules call and must keep importing under those names. A rename or a
moved import makes ``tracer.install`` fail, or leaves a span that counts
nothing; this test runs ``perfbench/child.py --trace-out`` on a tiny grid to
catch both. Sensitivity scores in closed form, so the kernel and noise spans
stay empty, and each sensitivity step adds one calibration set's token counts
to its state.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_tiny_grid_records_the_pruning_spans(tiny_dir, tiny_model_path, tmp_path):
    trace = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "child.py"), "--trace-out", str(trace), "--",
            "run-grid", "--model", str(tiny_model_path),
            "--corpus", f"prose={tiny_dir / 'prose.bin'}",
            "--corpus", f"numeric={tiny_dir / 'numeric.bin'}",
            "--criteria", "sensitivity,wanda", "--n-samples", "2", "--seq-len", "48",
            "--seed", "1", "--out", str(tmp_path / "runs"),
        ],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(trace.read_text())
    calls = {name: spans.get(name, {}).get("calls", 0) for name in
             ("importance.accumulate", "model.forward_capture", "metrics.aggregate",
              "pruner.mask_build", "pruner.prune_step.sensitivity", "pruner.prune_step.wanda")}
    assert all(calls.values()), calls
    # scoring draws no noise and runs no sampled kernel
    assert spans.get("sensitivity.kernel", {}).get("calls", 0) == 0
    assert spans.get("sensitivity.noise", {}).get("calls", 0) == 0
    # one calibration set's counts added per sensitivity step
    assert calls["importance.accumulate"] == calls["pruner.prune_step.sensitivity"] == 3
    # one report per grid entry: sensitivity and wanda at the default 0.5
    assert calls["metrics.aggregate"] == 2
    # both criteria score only the base network, whose capture is taken once
    assert calls["model.forward_capture"] == 1
    # each distinct step once: sensitivity runs one per set of datasets seen
    # ({a}, {b}, {a, b}), wanda under global initialization one per corpus
    assert calls["pruner.prune_step.wanda"] == 2
