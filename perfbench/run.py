"""Benchmark for contprune: end-to-end metrics per workload, or a traced run
with the per-layer breakdown.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program under test is the checkout's
``src/contprune``. Every workload command runs through ``contprune.cli.main``
in a fresh child process with BLAS/OpenMP pinned to one thread. Set-up
(corpus generation, plus the base checkpoint for the grid workloads) is
repeated ``SETUP_REPEATS`` times; one warm-up run of the workload command is
checked but not timed; the command then repeats for as long as another run
still fits in ``--seconds``, and at least ``MIN_REPS`` times. Every run checks
every output, prints each metric by name with its unit, writes a result file
with host facts under ``.perfbench/results/``, and ends with one JSON line.
It exits 1 when an output check fails and 2 when the program under test is
missing.

``--trace 1`` sets up once with tracing, then alternates untraced and traced
runs of the command; the JSON line carries the per-layer metrics, and the
traced/untraced wall ratio gives the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
CHILD = Path(__file__).resolve().parent / "child.py"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

RUN_LIMIT_S = 170.0  # the whole run, set-up and checks included
SETUP_REPEATS = 5
MIN_REPS = 3  # untraced commands per run, so that one slow command cannot set the median
CORPUS_TOKENS = 25_000
BASE_TRAIN_STEPS = 50
ORACLE_CELLS = 1  # rebuilt cells per grid entry
# Gain claims are re-checked on this seed; no tuning run uses it.
HOLDOUT_SEED = 7919


@dataclass(frozen=True)
class Workload:
    """One workload: a ``run-grid`` spec, or a ``train`` step count."""

    name: str
    criteria: tuple[str, ...] = ()
    specs: tuple = ()  # unstructured sparsities (float) and N:M pairs
    n_samples: int = 16
    eval_fraction: float = 0.2
    train_steps: int = 0

    @property
    def is_grid(self) -> bool:
        return bool(self.criteria)

    def command(self, seed: int, out: str) -> list[str]:
        if not self.is_grid:
            return ["train", "--corpora-dir", "setup0/corpora", "--out", f"{out}/model.ckpt",
                    "--seed", str(seed), "--steps", str(self.train_steps),
                    "--batch", "16", "--seq-len", "64"]
        sparsity = [str(s) for s in self.specs if isinstance(s, float)]
        nm = [f"{s[0]}:{s[1]}" for s in self.specs if not isinstance(s, float)]
        return (["run-grid", "--model", "setup0/base.ckpt", "--corpora-dir", "setup0/corpora",
                 "--out", out, "--seed", str(seed), "--criteria", ",".join(self.criteria),
                 "--n-samples", str(self.n_samples), "--eval-fraction", str(self.eval_fraction)]
                + (["--sparsity", ",".join(sparsity)] if sparsity else [])
                + (["--nm", ",".join(nm)] if nm else []))

    def units(self) -> int:
        """Cells evaluated per command (grid cells plus the dense row), or SGD steps."""
        if not self.is_grid:
            return self.train_steps
        return len(self.criteria) * len(self.specs) * 6 * 3 * 3 + 3

    def permutations(self) -> int:
        """Failure units per command: one per (criterion, spec, ordering)."""
        return len(self.criteria) * len(self.specs) * 6 if self.is_grid else 1

    def expected(self, seed: int) -> dict:
        return {"criteria": self.criteria, "specs": self.specs, "n_samples": self.n_samples,
                "eval_fraction": self.eval_fraction, "seed": seed}


WORKLOADS = {
    w.name: w
    for w in (
        # the paper's default grid; dominated by perplexity evaluation
        Workload("grid", criteria=("sensitivity", "magnitude", "wanda"), specs=(0.5,), n_samples=2),
        # calibration and pruning dominate; 2:4 exercises the N:M mask builder
        Workload("calib-heavy", criteria=("sensitivity", "wanda"), specs=(0.5, (2, 4)),
                 n_samples=16, eval_fraction=0.02),
        # the trainer's own forward/backward path at the desk config; run by hand,
        # not listed in BENCHMARK.json (see README: its spread is too wide there)
        Workload("train", train_steps=150),
    )
}


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str
    trace: dict | None = None


@dataclass
class Run:
    """Everything one benchmark invocation measured and found."""

    workload: Workload
    seed: int
    trace: bool
    deadline: float
    work: Path
    setup_s: list[float] = field(default_factory=list)
    setup_traces: list[dict] = field(default_factory=list)
    reps: list[Child] = field(default_factory=list)
    traced: list[Child] = field(default_factory=list)
    warmups: list[Child] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def child(self, args: list[str], trace_name: str | None = None) -> Child:
        """Run one contprune command in a fresh process and wait for it."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run time limit reached")
        trace_path = self.work / f"{trace_name}.trace.json" if trace_name else None
        cmd = [sys.executable, str(CHILD)]
        cmd += ["--trace-out", str(trace_path)] if trace_path else []
        cmd += ["--", *args]
        env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=env, stdout=out, stderr=err)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        result = Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0, out_path.read_text(), err_path.read_text())
        if result.code != 0:
            self.problems.append(f"`contprune {' '.join(args)}` exited {result.code}: "
                                 f"{result.stderr.strip()[-400:]}")
        elif trace_path:
            result.trace = json.loads(trace_path.read_text())
        return result

    def setup(self, index: int, traced: bool) -> None:
        """Corpora, plus the base checkpoint for grid workloads, in ``setup<index>``."""
        name = f"setup{index}"
        t0 = time.perf_counter()
        steps = [["gen-corpora", "--out", f"{name}/corpora", "--tokens", str(CORPUS_TOKENS),
                  "--seed", str(self.seed)]]
        if self.workload.is_grid:
            steps.append(["train", "--corpora-dir", f"{name}/corpora", "--out", f"{name}/base.ckpt",
                          "--seed", str(self.seed), "--steps", str(BASE_TRAIN_STEPS)])
        for k, args in enumerate(steps):
            child = self.child(args, f"{name}-{k}" if traced else None)
            if child.trace:
                self.setup_traces.append(child.trace)
        self.setup_s.append(time.perf_counter() - t0)
        if index > 0:
            first = self.work / "setup0"
            for rel in sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file()):
                if (self.work / name / rel).read_bytes() != (first / rel).read_bytes():
                    self.problems.append(f"set-up output {rel} differs between set-ups of one seed")

    def rep(self, traced: bool, warmup: bool = False) -> Child:
        """One run of the workload command, with its output checks.

        A run that fails any check, a permutation error included, counts all
        of its permutations as failed. A warm-up run is checked but not timed.
        """
        index = len(self.reps) + len(self.traced) + len(self.warmups)
        out = f"rep{index}"
        (self.work / out).mkdir()
        before = len(self.problems)
        child = self.child(self.workload.command(self.seed, out), out if traced else None)
        (self.warmups if warmup else self.traced if traced else self.reps).append(child)
        units = self.workload.permutations()
        self.attempted += units
        if child.code != 0:
            self.failed += units
            return child
        try:
            if self.workload.is_grid:
                self._check_grid(out)
            else:
                self._check_train(out, child.stdout)
        except Exception as exc:  # a check that cannot run is a failed check
            self.problems.append(f"checking {out} raised {type(exc).__name__}: {exc}")
        if len(self.problems) > before:
            self.failed += units
        shutil.rmtree(self.work / out)
        return child

    def _check_grid(self, out: str) -> None:
        raw = (self.work / out / "grid.json").read_bytes()
        grid = json.loads(raw)
        expected = self.workload.expected(self.seed)
        self.problems += checks.check_grid(grid, expected)
        reference = self.work / "grid.reference.json"
        if not reference.exists():
            reference.write_bytes(raw)
            self.problems += checks.oracle_cells(grid, self.work, expected, ORACLE_CELLS)
        elif reference.read_bytes() != raw:
            self.problems.append(f"{out}/grid.json differs from the first run of this seed")

    def _check_train(self, out: str, stdout: str) -> None:
        ckpt = self.work / out / "model.ckpt"
        self.problems += checks.check_train(ckpt, stdout, self.workload.train_steps,
                                            self.work / out / "roundtrip.ckpt")
        reference = self.work / "model.reference.ckpt"
        if not reference.exists():
            shutil.copyfile(ckpt, reference)
        elif reference.read_bytes() != ckpt.read_bytes():
            self.problems.append(f"{out}/model.ckpt differs from the first run of this seed")


def host_facts() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(THREAD_ENV["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# --- metrics -------------------------------------------------------------------

END_TO_END = {  # name -> (unit, better)
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "units_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def _timing(*fields):
    return [(f, "ms" if f.endswith("_ms") else "s", "lower") for f in fields]


_COUNT = ("calls", "count", "lower")
_UNIQUE = ("unique_ratio", "ratio", "higher")
_LAYERS = {  # span -> [(field, unit, better)]
    "metrics.perplexity": [_COUNT, *_timing("busy_s", "p50_ms", "tail_ms"),
                           ("windows", "count", "lower"), _UNIQUE],
    "metrics.aggregate": _timing("busy_s"),
    "model.forward": [_COUNT, *_timing("busy_s"), ("positions", "count", "lower")],
    "model.forward_capture": [_COUNT, *_timing("busy_s"), _UNIQUE],
    "model.layer_forward.linear": _timing("busy_s"),
    "model.layer_forward.activation": _timing("busy_s"),
    "model.layer_forward.layer_norm": _timing("busy_s"),
    "model.checkpoint_io": _timing("busy_s"),
    **{f"pruner.prune_step.{c}": [_COUNT, *_timing("busy_s", "p50_ms")]
       for c in ("sensitivity", "wanda", "magnitude")},
    "pruner.mask_build": _timing("busy_s"),
    "sensitivity.kernel": [_COUNT, *_timing("busy_s"), ("columns", "count", "lower"), _UNIQUE],
    "sensitivity.noise": [_COUNT, *_timing("busy_s")],
    "importance.accumulate": [_COUNT, *_timing("busy_s")],
    "corpus.generate_corpora": _timing("busy_s"),
    "corpus.sample_calibration": [_COUNT, *_timing("busy_s")],
    "corpus.load_corpus": _timing("busy_s"),
    "trainer.train": _timing("busy_s"),
    "harness": _timing("self_s"),
    "cli": _timing("self_s"),
}
_ALIASES = {"sensitivity.kernel.unique_ratio": "sensitivity.contrib.unique_ratio"}
_DERIVED = {
    "trainer.step_ms": ("ms", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.coverage_ratio": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}
PER_LAYER = {
    **{
        _ALIASES.get(f"{span}.{f}", f"{span}.{f}"): (unit, better)
        for span, fields in _LAYERS.items()
        for f, unit, better in fields
    },
    **_DERIVED,
}
UNITS = {**END_TO_END, **PER_LAYER}


def _merge(traces: list[dict]) -> dict:
    """Sum span statistics over several trace files; percentiles come from the last."""
    out: dict[str, dict] = {}
    for trace in traces:
        for name, st in trace.items():
            acc = out.setdefault(name, {**st, "calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                        "unique": None, "counters": {}})
            for k in ("calls", "busy_s", "self_s"):
                acc[k] += st[k]
            if st["unique"] is not None:
                acc["unique"] = (acc["unique"] or 0) + st["unique"]
            for k, v in st["counters"].items():
                acc["counters"][k] = acc["counters"].get(k, 0) + v
            for k in ("p50_ms", "tail_pct", "tail_ms"):
                acc[k] = st[k]
    return out


def _field(spans: dict, span: str, name: str) -> float:
    st = spans.get(span)
    if st is None:
        return 0.0
    if name == "unique_ratio":
        return st["unique"] / st["calls"] if st["unique"] else 0.0
    if name in st["counters"]:
        return st["counters"][name]
    return st.get(name, 0.0)


def _shares(rep: dict) -> dict[str, float]:
    """Shares of one traced command's wall time: the layer each workload is
    built to stress, and the coverage of all layers below cli and harness."""
    wall = rep["cli"]["busy_s"]

    def busy(layer):
        return sum(st["busy_s"] for n, st in rep.items() if n == layer or n.startswith(layer + "."))

    shares = {layer: busy(layer) / wall
              for layer in ("metrics.perplexity", "pruner.prune_step", "trainer.train")}
    orchestration = rep["cli"]["self_s"] + rep.get("harness", {}).get("self_s", 0.0)
    shares["coverage"] = 1.0 - orchestration / wall
    return shares


def layer_metrics(run: Run) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics (median over traced runs; set-up spans included) and
    the dominant-layer shares of the median traced run."""
    traced = [c for c in run.traced if c.trace]
    per_rep = []
    for child in traced:
        spans = _merge(run.setup_traces + [child.trace])
        values = {}
        for span, fields in _LAYERS.items():
            for f, _, _ in fields:
                name = _ALIASES.get(f"{span}.{f}", f"{span}.{f}")
                values[name] = _field(spans, span, f)
        steps = _field(spans, "trainer.train", "steps")
        values["trainer.step_ms"] = 1000.0 * values["trainer.train.busy_s"] / steps if steps else 0.0
        values["trace.wall_s"] = child.trace["cli"]["busy_s"]
        values["trace.coverage_ratio"] = _shares(child.trace)["coverage"]
        per_rep.append(values)
    overhead = (statistics.median(c.wall_s for c in traced)
                / statistics.median(c.wall_s for c in run.reps) - 1.0)
    metrics = {name: statistics.median(v[name] for v in per_rep) for name in per_rep[0]}
    metrics["trace.overhead_ratio"] = overhead
    median_rep = sorted(traced, key=lambda c: c.trace["cli"]["busy_s"])[len(traced) // 2]
    return metrics, _shares(median_rep.trace)


def end_to_end_metrics(run: Run) -> dict[str, float]:
    wall = statistics.median(c.wall_s for c in run.reps)
    return {
        "wall_s": wall,
        "setup_s": statistics.median(run.setup_s),
        "units_per_s": run.workload.units() / wall,
        "peak_rss_mb": statistics.median(c.rss_mb for c in run.reps),
    }


# --- running ------------------------------------------------------------------


def measure(run: Run, seconds: float) -> None:
    for i in range(1 if run.trace else SETUP_REPEATS):
        run.setup(i, traced=run.trace)
    run.rep(traced=False, warmup=True)
    min_reps = 1 if run.trace else MIN_REPS
    t0 = time.monotonic()
    while True:
        run.rep(traced=False)
        if run.trace:
            run.rep(traced=True)
        elapsed = time.monotonic() - t0
        # stop when one more round, at the mean round time so far, would not fit
        if len(run.reps) >= min_reps and elapsed * (len(run.reps) + 1) / len(run.reps) > seconds:
            break


def _print_metrics(title: str, metrics: dict) -> None:
    print(f"{title}:")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6g} {UNITS[name][0]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "contprune" / "cli.py").is_file():
        print(f"error: no program under test at {SRC / 'contprune'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    os.environ.update(THREAD_ENV)  # before numpy loads in this process (oracle checks)
    sys.path.insert(0, str(SRC))

    start = time.monotonic()
    workload = WORKLOADS[args.workload]
    work = OUT / "work" / f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload, args.seed, bool(args.trace), start + RUN_LIMIT_S, work)
    try:
        measure(run, args.seconds)
    except TimeoutError as exc:
        run.problems.append(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    host = host_facts()
    ok = not run.problems and bool(run.reps) and (bool(run.traced) or not run.trace)
    result = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "host": host, "problems": run.problems,
              "setup_s": run.setup_s, "wall_s": [c.wall_s for c in run.reps],
              "cpu_s": [c.cpu_s for c in run.reps],
              "traced_wall_s": [c.wall_s for c in run.traced],
              "peak_rss_mb": [c.rss_mb for c in run.reps]}
    print(f"workload {workload.name}, seed {args.seed}, {len(run.reps)} untraced and "
          f"{len(run.traced)} traced runs after {len(run.warmups)} warm-up, "
          f"{len(run.setup_s)} set-ups")
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    e2e = end_to_end_metrics(run) if run.reps else {}
    if e2e:
        _print_metrics("end-to-end", e2e)
        unit = "cells" if workload.is_grid else "train steps"
        print(f"  (units_per_s counts {unit}; fail_ratio {run.failed}/{run.attempted})")
    layers = {}
    if any(c.trace for c in run.traced) and run.reps:
        layers, shares = layer_metrics(run)
        _print_metrics("per-layer", layers)
        print("shares of traced wall time: "
              + ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items())))
        result["shares"] = shares
        last = next(c for c in reversed(run.traced) if c.trace)
        result["tail_percentiles"] = {n: st["tail_pct"] for n, st in last.trace.items()}
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    result["metrics"] = {n: {"value": v, "unit": UNITS[n][0]}
                         for n, v in {**e2e, **layers}.items()}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{workload.name}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    reported = layers if args.trace else e2e
    print(json.dumps({
        "correct": ok,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {n: {"value": v, "unit": UNITS[n][0]}
                    for n, v in reported.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
