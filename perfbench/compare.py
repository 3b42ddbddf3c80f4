"""Compare two sets of benchmark results, parent against change.

    python3 perfbench/compare.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

Each directory holds the ``.perfbench/results/*-t0.json`` files of one
commit, one file per (workload, seed). Results are compared only when every
file on both sides records the same host facts; otherwise the comparison is
refused (exit 2). For each workload and end-to-end metric it prints both
medians and quartiles and a verdict under the bounds in BENCHMARK.json:

- regression: the change's median is worse than the parent's by more than
  the bound (exit 1);
- unresolved: the parent's own spread is wider than the bound;
- gain: the change wins at least 9 of 10 seed pairs, the medians differ by
  more than the parent's quartile spread, and the change also wins on the
  hold-out seed; without a hold-out pair the gain is reported unconfirmed;
- no change: anything else.

Measure the two commits alternately, one seed of each in turn. Host speed
drifts over minutes, and two sets of the same commit measured one after the
other can differ by more than their quartile spread.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import HOLDOUT_SEED

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load(directory: Path) -> dict[tuple[str, int], dict]:
    results = {}
    for path in sorted(directory.glob("*-t0.json")):
        data = json.loads(path.read_text())
        if data["metrics"]:
            results[(data["workload"], data["seed"])] = data
    return results


def quartiles(values) -> list[float]:
    values = list(values)
    if len(values) < 2:
        return [statistics.median(values)] * 3
    return statistics.quantiles(values, n=4)


def verdict(base: dict[int, float], new: dict[int, float], bound: float, higher: bool) -> str:
    def better(a, b):
        return a > b if higher else a < b

    b_med, n_med = statistics.median(base.values()), statistics.median(new.values())
    worse_by = (b_med - n_med) / b_med if higher else (n_med - b_med) / b_med
    if worse_by > bound:
        return "regression"
    q = quartiles(base.values())
    spread = q[2] - q[0]
    if spread / b_med > bound and not all(better(n, b) for n in new.values() for b in base.values()):
        return "unresolved"
    pairs = [s for s in base if s in new and s != HOLDOUT_SEED]
    wins = sum(better(new[s], base[s]) for s in pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(n_med - b_med) > spread:
        if HOLDOUT_SEED not in base or HOLDOUT_SEED not in new:
            return f"gain, unconfirmed: no hold-out seed {HOLDOUT_SEED} pair"
        if not better(new[HOLDOUT_SEED], base[HOLDOUT_SEED]):
            return f"gain not confirmed on hold-out seed {HOLDOUT_SEED}"
        return "gain"
    return "no change"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    hosts = {json.dumps(r["host"], sort_keys=True) for r in [*base.values(), *new.values()]}
    if len(hosts) != 1:
        print("refusing to compare: results come from different hosts:", file=sys.stderr)
        for host in sorted(hosts):
            print(f"  {host}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    regressions = 0
    for workload in sorted({w for w, _ in base} & {w for w, _ in new}):
        print(f"[{workload}]")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = {s: r["metrics"][name]["value"] for (w, s), r in base.items() if w == workload}
            n = {s: r["metrics"][name]["value"] for (w, s), r in new.items() if w == workload}
            v = verdict(b, n, metric["bound"], metric["better"] == "higher")
            regressions += v == "regression"
            line = []
            for label, vals in (("parent", b), ("change", n)):
                q = quartiles(vals.values())
                line.append(f"{label} {q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] n={len(vals)}")
            print(f"  {name:12s} {metric['unit']:5s} {'; '.join(line)}: {v}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
