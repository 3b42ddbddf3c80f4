"""Tests of the benchmark itself: metric tables, tracer coverage, and the
refusal to run without the program under test.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))


def analytic_counts(criteria, specs, windows, n_samples, datasets=3, prunable=4) -> dict:
    """Calls one run-grid makes: every ordering prunes once per dataset and then
    evaluates every dataset; the dense row adds one evaluation per dataset."""
    steps = math.factorial(datasets) * datasets
    prune_steps = len(criteria) * len(specs) * steps
    evals = prune_steps * datasets + datasets
    sensitivity_steps = ("sensitivity" in criteria) * len(specs) * steps
    return {
        "metrics.perplexity": evals,
        "pruner.prune_step": prune_steps,
        "model.forward": evals * windows,
        "sensitivity.kernel": sensitivity_steps * n_samples * prunable,
    }


def test_paper_default_grid_counts():
    windows = int(200_000 * 0.2) // 128
    counts = analytic_counts(("sensitivity", "magnitude", "wanda"), (0.5,), windows, 16)
    assert counts == {
        "metrics.perplexity": 165,
        "pruner.prune_step": 54,
        "model.forward": 51_480,
        "sensitivity.kernel": 1_152,
    }


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.fixture(scope="module")
def traced_grid(tmp_path_factory):
    """One traced set-up, then the grid workload untraced and traced."""
    workload = run.WORKLOADS["grid"]
    work = tmp_path_factory.mktemp("grid")
    bench = run.Run(workload, seed=3, trace=True, deadline=time.monotonic() + 170, work=work)
    bench.setup(0, traced=True)
    bench.rep(traced=False)
    bench.rep(traced=True)
    return bench


def test_traced_grid_counts_match_analytic(traced_grid):
    w = traced_grid.workload
    windows = int(run.CORPUS_TOKENS * w.eval_fraction) // 128
    expected = analytic_counts(w.criteria, w.specs, windows, w.n_samples)
    spans = traced_grid.traced[0].trace
    got = {
        "metrics.perplexity": spans["metrics.perplexity"]["calls"],
        "pruner.prune_step": sum(
            st["calls"] for name, st in spans.items() if name.startswith("pruner.prune_step.")
        ),
        "model.forward": spans["model.forward"]["calls"],
        "sensitivity.kernel": spans["sensitivity.kernel"]["calls"],
    }
    assert got == expected
    # captures and sensitivity contributions repeat across orderings: only
    # (dataset, segment) pairs, and (dataset, segment, layer) triples, differ
    assert spans["model.forward_capture"]["unique"] == 3 * w.n_samples
    assert spans["sensitivity.kernel"]["unique"] == 3 * w.n_samples * 4


def test_tracing_leaves_outputs_unchanged(traced_grid):
    # the second run compares its grid.json bytes with the first, untraced one
    assert traced_grid.problems == []
    assert traced_grid.failed == 0


def test_layer_metrics_cover_every_listed_metric(traced_grid):
    metrics, shares = run.layer_metrics(traced_grid)
    assert set(metrics) == set(run.PER_LAYER)
    assert shares["coverage"] >= 0.95
    assert metrics["trainer.train.busy_s"] > 0  # the base checkpoint's training, in set-up


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
