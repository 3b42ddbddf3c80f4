"""Acceptance suite: one test per criterion, printing a pass line each.

The harness-level criteria run through the CLI against the desk-scale
fixtures: three 200k-token synthetic corpora and the trained base
checkpoint, which the session fixtures build with README's walkthrough
commands (`gen-corpora --tokens 200000 --seed 0`, then `train --steps 6000
--seed 0`). The numerical criteria exercise the library directly. Seeds are
pinned throughout.

The gates that read a trained base check that seed-0 base only.
`docs/results.md` ("Gate margins") gives them on seeds 0-4: c06, c07, c08
and the sparsity ablation trend hold on 5 of 5 seeds, c09's bounds hold on
seed 0 only, and c10 and c11 are exact by construction.

Run with `pytest tests/test_acceptance.py -v -s`.
"""
import csv
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from contprune import cli
from contprune import corpus as C
from contprune import importance as I
from contprune import linalg
from contprune import model as M
from contprune import pruner as P
from contprune import sensitivity as S
from contprune.metrics import EvalCell, aggregate
from contprune.seeding import derive_seed

DATA = Path(__file__).parent / "data"
CORPORA = ("bracket", "numeric", "prose")


def _ok(num, name, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: PASS {detail}".rstrip())


@pytest.fixture(scope="module")
def grid_run(desk_dir, desk_model_path, tmp_path_factory):
    """The default desk grid (3 corpora, all 6 permutations, unstructured 0.5)."""
    out = tmp_path_factory.mktemp("acc_grid")
    t0 = time.monotonic()
    rc = cli.main([
        "run-grid",
        "--model", str(desk_model_path),
        "--corpora-dir", str(desk_dir),
        "--out", str(out),
        "--seed", "0",
    ])
    elapsed = time.monotonic() - t0
    assert rc == 0
    return json.loads((out / "grid.json").read_text()), elapsed


def test_c01_penrose_conditions(rng):
    t0 = time.monotonic()
    shapes = [(3, 2), (2, 3), (8, 8), (16, 4)]
    for trial in range(50):
        a = rng.standard_normal(shapes[trial % len(shapes)])
        p = linalg.pseudoinverse(a)
        na, npv = np.linalg.norm(a), np.linalg.norm(p)
        assert np.linalg.norm(a @ p @ a - a) / na < 1e-6
        assert np.linalg.norm(p @ a @ p - p) / npv < 1e-6
        ap, pa = a @ p, p @ a
        assert np.linalg.norm(ap - ap.T) / max(np.linalg.norm(ap), 1e-12) < 1e-6
        assert np.linalg.norm(pa - pa.T) / max(np.linalg.norm(pa), 1e-12) < 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _ok(1, "penrose conditions", f"(50 matrices, {elapsed:.2f}s)")


def test_c02_gradient_correctness(rng):
    t0 = time.monotonic()
    stacks = ["linear", "relu", "tanh"]
    worst = 0.0
    for trial in range(20):
        kind = stacks[trial % 3]
        if kind == "linear":
            out_dim, in_dim = [(4, 3), (6, 4), (5, 5)][trial % 3 % 3]
            post = None
        else:
            out_dim, in_dim = [(4, 6), (5, 5), (3, 7)][trial % 3]
            post = M.activation(kind)
        w = rng.standard_normal((out_dim, in_dim))
        layer = M.linear(w)
        x = rng.standard_normal((in_dim, 1))
        y = S.unit_forward(layer, x, post=post)
        pert = S.make_perturbation(w, x, epsilon=1e-3, seed=derive_seed("c02", trial))
        rec = S.record(layer, x, y, pert, post=post)

        def loss(d):
            r = rec.s_x + d @ rec.dfdw
            return float(np.sum(r * r))

        h = 1e-6
        fd = np.zeros_like(w)
        for i in range(out_dim):
            for j in range(in_dim):
                dp = pert.delta_w.copy()
                dp[i, j] += h
                dm = pert.delta_w.copy()
                dm[i, j] -= h
                fd[i, j] = (loss(dp) - loss(dm)) / (2 * h)
        rel = np.linalg.norm(fd - rec.grad) / np.linalg.norm(fd)
        worst = max(worst, rel)
        assert rel < 1e-4, f"stack {kind}: rel err {rel}"
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _ok(2, "gradient correctness", f"(20 instances, worst rel {worst:.2e}, {elapsed:.2f}s)")


def test_c03_linearity_exactness(rng):
    worst = 0.0
    for trial in range(20):
        w = rng.standard_normal((6, 4))
        x = rng.standard_normal((4, 1))
        layer = M.linear(w)
        pert = S.make_perturbation(w, x, epsilon=10.0 ** -(trial % 6 + 1), seed=trial)
        s_w = S.sensitivity_w(layer, x, w @ x, pert)
        rel = np.linalg.norm(s_w - pert.delta_w @ x) / np.linalg.norm(pert.delta_w @ x)
        worst = max(worst, rel)
        assert rel < 1e-12
        surrogate = S.dfdw_surrogate(layer, x, s_w, pert)
        assert np.array_equal(surrogate, x)
    _ok(3, "linearity exactness", f"(worst rel {worst:.2e})")


def test_c04_exact_sparsity(rng):
    checked = 0
    for s in (0.1, 0.3, 0.5, 0.7, 0.9):
        for trial in range(100):
            r, c = rng.integers(1, 16, size=2)
            if trial % 10 == 0:
                scores = np.full((r, c), 3.7)  # all ties
            else:
                scores = rng.random((r, c))
            mask = P.build_mask_unstructured(scores, s)
            zeros = mask.size - int(mask.sum())
            assert zeros == math.floor(s * scores.size)
            checked += 1
    _ok(4, "exact sparsity", f"({checked} masks incl. all-ties)")


def test_c05_nm_validity(rng):
    for n, m in ((2, 4), (4, 8)):
        for _ in range(100):
            rows = int(rng.integers(1, 10))
            groups = int(rng.integers(1, 8))
            scores = rng.random((rows, groups * m))
            bits = P.build_mask_nm(scores, n, m)
            counts = bits.reshape(rows * groups, m).sum(axis=1)
            assert (counts == n).all()
    bits = P.build_mask_nm(rng.random((64, 128)), 2, 4)
    assert bits.mean() == 0.5
    _ok(5, "n:m validity", "(2:4 and 4:8 over 100 layers each; 2:4 is 50% sparse)")


def test_c06_weight_stasis_reproduction(desk_dir, desk_model_path, tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "stasis"
    rc = cli.main([
        "run-grid",
        "--model", str(desk_model_path),
        "--corpus", f"prose={desk_dir / 'prose.bin'}",
        "--corpus", f"numeric={desk_dir / 'numeric.bin'}",
        "--out", str(out),
        "--seed", "0",
        "--init-mode", "sequential",
    ])
    assert rc == 0
    grids = json.loads((out / "grid.json").read_text())["grids"]
    for criterion in ("magnitude", "wanda"):
        g = grids[f"{criterion}:unstructured-0.5"]
        assert g["ws"] is True, f"{criterion} must freeze under sequential initialization"
        hams = [s["hamming_vs_prev"] for s in g["step_stats"] if s["hamming_vs_prev"] is not None]
        assert hams and all(h == 0 for h in hams)
    g = grids["sensitivity:unstructured-0.5"]
    assert g["ws"] is False
    hams = [s["hamming_vs_prev"] for s in g["step_stats"] if s["hamming_vs_prev"] is not None]
    assert any(h > 0 for h in hams)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _ok(6, "weight stasis reproduction", f"(baselines WS, sensitivity hammings {hams}, {elapsed:.1f}s)")


def test_c07_bwt_ordering(grid_run):
    data, elapsed = grid_run
    assert elapsed < 600.0
    assert data["schema_version"] == 1
    grids = data["grids"]
    sens = grids["sensitivity:unstructured-0.5"]
    assert sens["ws"] is False
    # 3 corpora: 6 permutations x 3 prune steps x 3 eval datasets
    assert len(sens["report"]["cells"]) == 54
    sens_a_bwt = sens["report"]["aggregates"]["a_bwt"]
    # magnitude is data-free, so its masks never move: it reports WS and
    # contributes no numeric backward transfer to compare against
    assert grids["magnitude:unstructured-0.5"]["ws"] is True
    numeric_baselines = {}
    for name in ("magnitude", "wanda"):
        g = grids[f"{name}:unstructured-0.5"]
        if not g["ws"]:
            numeric_baselines[name] = g["report"]["aggregates"]["a_bwt"]
    assert numeric_baselines, "at least one baseline must show measurable forgetting"
    for name, a_bwt in numeric_baselines.items():
        assert sens_a_bwt < a_bwt, f"sensitivity {sens_a_bwt} !< {name} {a_bwt}"
    best = min(numeric_baselines.values())
    assert sens_a_bwt <= 0.25 * best, f"{sens_a_bwt} > 25% of best baseline {best}"
    _ok(7, "bwt ordering", f"(sensitivity {sens_a_bwt:.4f} vs best baseline {best:.4f}, grid {elapsed:.0f}s)")


def test_c08_dense_baseline_sanity(grid_run):
    data, _ = grid_run
    dense = data["dense"]
    assert "a_bwt" not in dense  # dense rows carry no backward transfer
    for key, g in data["grids"].items():
        assert dense["a_ppl"] < g["report"]["aggregates"]["a_ppl"], key
    # a never-pruned model evaluated over the whole schedule has BWT == 0
    perms = [("bracket", "numeric", "prose"), ("prose", "numeric", "bracket")]
    cells = [
        EvalCell(permutation=pi, step=s, eval_dataset=ds, perplexity=dense["per_dataset"][ds])
        for pi in perms for s in (1, 2, 3) for ds in CORPORA
    ]
    report = aggregate(cells, perms, list(CORPORA))
    assert report["aggregates"]["a_bwt"] == 0.0 and report["aggregates"]["m_bwt"] == 0.0
    _ok(8, "dense baseline sanity", f"(dense a-ppl {dense['a_ppl']:.4f} lowest; BWT identically 0)")


def test_c09_sample_efficiency_trend(desk_dir, desk_model_path, tmp_path):
    # its bounds hold on seed 0 only, of seeds 0-4 (docs/results.md, "Gate margins")
    out = tmp_path / "samples"
    rc = cli.main([
        "ablate-samples",
        "--model", str(desk_model_path),
        "--corpora-dir", str(desk_dir),
        "--out", str(out),
        "--seed", "0",
        "--samples-sweep", "16,32,64",
    ])
    assert rc == 0
    rows = list(csv.DictReader((out / "ablation_samples.csv").open()))
    points = {int(r["n_samples"]): (float(r["a_bwt"]), float(r["m_bwt"])) for r in rows}
    assert set(points) == {16, 32, 64}
    a_values = [points[n][0] for n in (16, 32, 64)]
    assert min(a_values) > 0
    assert max(a_values) / min(a_values) < 2.0
    for n, (a, m) in points.items():
        assert m <= 3.0 * a, f"n={n}: max {m} vs mean {a}"
    _ok(9, "sample efficiency trend", f"(a-bwt {a_values}, spread {max(a_values)/min(a_values):.2f}x)")


def test_c10_permutation_invariance_of_importance(desk_model, desk_corpora):
    order = ("bracket", "numeric", "prose")
    calib = {
        name: C.sample_calibration(desk_corpora[name], 16, 128, derive_seed(0, "calib", name))
        for name in order
    }

    def final_state(sequence):
        state = I.init_state(desk_model)
        net = desk_model
        cfg = P.PruneConfig(criterion="sensitivity", sparsity=0.5, init_mode="sequential", seed=0)
        for name in sequence:
            net, _, _ = P.prune_step(net, state, cfg, calib[name], base_net=desk_model)
        return P.score_step(desk_model, cfg, state.counts)  # the final state's importance

    fwd = final_state(order)
    rev = final_state(tuple(reversed(order)))
    worst = 0.0
    for idx in fwd:
        diff = np.max(np.abs(fwd[idx] - rev[idx]))
        worst = max(worst, float(diff))
        assert diff <= 1e-12
    _ok(10, "permutation invariance of importance", f"(worst entry diff {worst:.2e})")


def test_c11_run_grid_determinism(desk_dir, desk_model_path, tmp_path):
    outputs = []
    for run in ("one", "two"):
        out = tmp_path / run
        rc = cli.main([
            "run-grid",
            "--model", str(desk_model_path),
            "--corpus", f"prose={desk_dir / 'prose.bin'}",
            "--corpus", f"numeric={desk_dir / 'numeric.bin'}",
            "--criteria", "sensitivity,wanda",
            "--out", str(out),
            "--seed", "12",
        ])
        assert rc == 0
        outputs.append((out / "grid.json").read_bytes())
    assert outputs[0] == outputs[1]
    _ok(11, "run-grid determinism", f"({len(outputs[0])} byte report, byte-identical)")


def test_sparsity_ablation_trend(desk_dir, desk_model_path, tmp_path):
    """Supporting trend check: baseline forgetting grows with sparsity."""
    out = tmp_path / "sparsity"
    rc = cli.main([
        "ablate-sparsity",
        "--model", str(desk_model_path),
        "--corpora-dir", str(desk_dir),
        "--out", str(out),
        "--seed", "0",
        "--criteria", "wanda",
        "--sparsity-sweep", "0.3,0.7",
    ])
    assert rc == 0
    rows = list(csv.DictReader((out / "ablation_sparsity.csv").open()))
    by_s = {float(r["sparsity"]): float(r["a_bwt"]) for r in rows}
    assert by_s[0.7] >= by_s[0.3]
    print(f"SUPPORTING sparsity trend: PASS (wanda a-bwt 0.3 -> {by_s[0.3]:.4f}, 0.7 -> {by_s[0.7]:.4f})")


def test_c12_aggregate_metric_oracle():
    fixture = json.loads((DATA / "aggregate_fixture.json").read_text())
    cells = [
        EvalCell(
            permutation=tuple(c["permutation"]),
            step=c["step"],
            eval_dataset=c["eval_dataset"],
            perplexity=c["perplexity"],
        )
        for c in fixture["cells"]
    ]
    report = aggregate(cells)
    exp = fixture["expected"]
    assert abs(report["aggregates"]["a_bwt"] - exp["a_bwt"]) <= 1e-12
    assert abs(report["aggregates"]["m_bwt"] - exp["m_bwt"]) <= 1e-12
    assert abs(report["aggregates"]["a_ppl"] - exp["a_ppl"]) <= 1e-12
    assert abs(report["aggregates"]["m_ppl"] - exp["m_ppl"]) <= 1e-12
    for ds, stats in exp["per_dataset"].items():
        for key, val in stats.items():
            assert abs(report["per_dataset"][ds][key] - val) <= 1e-12
    _ok(12, "aggregate metric oracle", "(hand-computed 2x2 fixture to 1e-12)")
