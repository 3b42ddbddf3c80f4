"""The benchmark's own output checks on a tiny grid.

``perfbench/checks.py`` holds the checks the benchmark applies to every
``grid.json`` it makes: the structural ``check_grid`` and ``oracle_cells``,
which rebuilds sampled cells through ``pruner.prune_step`` and scores them
with ``model.forward``. Running both here makes a change that would fail
them fail in Tier-1 first.
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from contprune import cli

ROOT = Path(__file__).resolve().parents[1]


def load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", ROOT / "perfbench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


def test_tiny_grid_passes_the_benchmark_checks(tiny_dir, tiny_model_path, tmp_path):
    out = tmp_path / "runs"
    corpora = [f"--corpus={n}={tiny_dir / f'{n}.bin'}" for n in ("bracket", "numeric", "prose")]
    assert cli.main([
        "run-grid", "--model", str(tiny_model_path), *corpora, "--seed", "5",
        "--n-samples", "4", "--seq-len", "48", "--nm", "2:4", "--out", str(out),
    ]) == 0
    grid = json.loads((out / "grid.json").read_text())
    expected = {
        "criteria": ("sensitivity", "magnitude", "wanda"), "specs": [0.5, (2, 4)],
        "n_samples": 4, "eval_fraction": 0.2, "seed": 5,
    }
    checks = load_checks()
    assert checks.check_grid(grid, expected) == []
    assert checks.oracle_cells(grid, out, expected, 2) == []
