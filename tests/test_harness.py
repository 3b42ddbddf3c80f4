import argparse
import csv
import dataclasses
import hashlib
import io
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from contprune import cli, metrics
from contprune import corpus as C
from contprune import harness as H
from contprune import importance as I
from contprune import model as M
from contprune import pruner as P
from contprune import trainer as T
from contprune.errors import InputError, NumericalError, UsageError
from contprune.seeding import derive_seed

from conftest import paths_from_cells


@pytest.fixture()
def tiny_cfg_kwargs(tiny_dir, tiny_model_path):
    return dict(
        model_path=str(tiny_model_path),
        corpora={n: str(tiny_dir / f"{n}.bin") for n in ("prose", "numeric")},
        seed=5,
        seq_len=48,
        n_samples=4,
    )


def read_csv(path) -> list[list[str]]:
    return list(csv.reader(io.StringIO(path.read_text())))


def main_error(capsys, argv) -> str:
    """The one stderr line of ``cli.main(argv)``, which must exit 1."""
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("contprune: "), err
    return err.rstrip("\n")


def cells_csv_rows(cells) -> list[list[str]]:
    """The data rows the cells CSV must hold for these grid.json cells."""
    return [
        [">".join(c["permutation"]), str(c["step"]), c["pruned_dataset"],
         c["eval_dataset"], repr(c["perplexity"])]
        for c in cells
    ]


class TestConfig:
    def test_missing_paths_rejected(self, tiny_cfg_kwargs):
        bad = dict(tiny_cfg_kwargs)
        bad["model_path"] = "/nonexistent/model.ckpt"
        with pytest.raises(InputError):
            H.ExperimentConfig(**bad, output_dir="x")

    def test_needs_corpora_and_criteria(self, tiny_cfg_kwargs):
        with pytest.raises(UsageError):
            H.ExperimentConfig(**{**tiny_cfg_kwargs, "corpora": {}}, output_dir="x")
        with pytest.raises(UsageError):
            H.ExperimentConfig(**tiny_cfg_kwargs, output_dir="x", criteria=())
        with pytest.raises(UsageError):
            H.ExperimentConfig(**tiny_cfg_kwargs, output_dir="x", ablate_criteria=[])


    def test_sequences_coerced_from_flags_and_json(self, tiny_cfg_kwargs):
        from_flags = H.ExperimentConfig(
            **tiny_cfg_kwargs, criteria="magnitude,wanda", sparsities="0,0.5",
            nm_patterns="2:4,4:8", sparsity_sweep="0.3", samples_sweep="8,16",
        )
        from_json = H.ExperimentConfig(
            **tiny_cfg_kwargs, criteria=["magnitude", "wanda"], sparsities=[0, 0.5],
            nm_patterns=[[2, 4], [4, 8]], sparsity_sweep=[0.3], samples_sweep=[8, 16],
        )
        for cfg in (from_flags, from_json):
            assert cfg.criteria == ("magnitude", "wanda")
            assert cfg.sparsities == (0.0, 0.5) and type(cfg.sparsities[0]) is float
            assert cfg.nm_patterns == ((2, 4), (4, 8))
            assert cfg.sparsity_sweep == (0.3,)
            assert cfg.samples_sweep == (8, 16)

    @pytest.mark.parametrize(
        "field, value, repeated",
        [
            ("criteria", "magnitude,wanda,magnitude", "'magnitude'"),
            ("sparsities", [0.5, "0.50"], "0.5"),
            ("nm_patterns", ["2:4", [2, 4]], r"\(2, 4\)"),
            ("sparsity_sweep", "0.3,0.6,0.3", "0.3"),
            ("samples_sweep", [8, "8"], "8"),
        ],
    )
    def test_repeated_value_rejected(self, tiny_cfg_kwargs, field, value, repeated):
        with pytest.raises(UsageError, match=f"{field} repeats the value {repeated}$"):
            H.ExperimentConfig(**tiny_cfg_kwargs, **{field: value})


def subparser_dests(command: str) -> set[str]:
    """The dests of the flags that ``command``'s subparser registers."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions if not isinstance(a, argparse._HelpAction)}


# the ExperimentConfig fields each grid command's harness entry point ignores:
# ablate-sparsity sweeps sparsity_sweep, ablate-samples sweeps samples_sweep
# over ablate_criteria at 0.5
IGNORED_FIELDS = {
    "run-grid": {"sparsity_sweep", "samples_sweep", "ablate_criteria"},
    "ablate-sparsity": {"sparsities", "nm_patterns", "samples_sweep", "ablate_criteria"},
    "ablate-samples": {"criteria", "n_samples", "sparsities", "nm_patterns", "sparsity_sweep"},
}


class TestNoUnreachableKnobs:
    def test_every_experiment_field_is_a_grid_flag_dest(self):
        dests = set().union(*map(subparser_dests, ("run-grid", "ablate-sparsity", "ablate-samples")))
        fields = {f.name for f in dataclasses.fields(H.ExperimentConfig)} - {"corpora"}
        assert fields - dests == set()

    @pytest.mark.parametrize("command", sorted(IGNORED_FIELDS))
    def test_grid_command_registers_exactly_the_fields_it_reads(self, command):
        fields = {f.name for f in dataclasses.fields(H.ExperimentConfig)} - {"corpora"}
        assert subparser_dests(command) & fields == fields - IGNORED_FIELDS[command]

    def test_every_flag_of_the_other_commands_is_read(self, tiny_dir, tiny_model_path, tmp_path):
        reads: set[str] = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        (tmp_path / "runs").mkdir()
        (tmp_path / "runs" / "grid.json").write_text(
            '{"dense": {"per_dataset": {}, "a_ppl": 1.0, "m_ppl": 1.0}, "grids": {}}'
        )
        model, prose = str(tiny_model_path), str(tiny_dir / "prose.bin")
        argvs = [
            ["gen-corpora", "--out", str(tmp_path / "data"), "--tokens", "2000", "--seed", "1"],
            ["train", "--corpora-dir", str(tiny_dir), "--out", str(tmp_path / "m.ckpt"),
             "--steps", "0", "--dim", "8", "--hidden", "8", "--blocks", "1", "--seed", "0"],
            ["prune", "--model", model, "--corpus-path", prose, "--n-samples", "2",
             "--seq-len", "48", "--seed", "0", "--out", str(tmp_path / "p.ckpt")],
            ["eval", "--model", model, "--corpus-path", prose, "--seq-len", "48"],
            ["report", "--run-dir", str(tmp_path / "runs")],
        ]
        for argv in argvs:
            args = cli.build_parser().parse_args(argv)
            reads.clear()
            assert args.func(Recording(**vars(args))) == 0
            assert subparser_dests(argv[0]) - reads == set(), argv[0]

    def test_every_prune_field_is_set_by_the_harness(self, tiny_cfg_kwargs, monkeypatch):
        cfg = H.ExperimentConfig(**tiny_cfg_kwargs)
        passed: set[str] = set()

        def recording(**kwargs):
            passed.update(kwargs)
            return P.PruneConfig(**kwargs)

        monkeypatch.setattr(H, "PruneConfig", recording)
        H._prune_config(cfg, "sensitivity", 0.5)
        H._prune_config(cfg, "magnitude", (2, 4))
        assert passed == {f.name for f in dataclasses.fields(P.PruneConfig)}

    def test_every_train_field_is_set_by_the_cli(self, tiny_dir, tmp_path, monkeypatch):
        real = T.TrainConfig
        passed: set[str] = set()

        def recording(**kwargs):
            passed.update(kwargs)
            return real(**kwargs)

        monkeypatch.setattr(T, "TrainConfig", recording)
        assert cli.main([
            "train", "--corpora-dir", str(tiny_dir), "--out", str(tmp_path / "m.ckpt"),
            "--steps", "0", "--dim", "8", "--hidden", "8", "--blocks", "1", "--seed", "0",
        ]) == 0
        assert passed == {f.name for f in dataclasses.fields(real)}


class TestNoEffectSettings:
    """``--epsilon`` and ``--w-draws`` change no output byte but their echo
    in ``grid.json``: every scored layer is bare linear, so they only scale
    the importance, and a ranking does not see the scale."""

    @pytest.mark.parametrize("mode", [[], ["--init-mode", "sequential"]],
                             ids=["default-mode", "sequential"])
    def test_run_grid_writes_the_same_files(self, tiny_cfg_kwargs, tmp_path, mode):
        corpora = [f"--corpus={n}={p}" for n, p in tiny_cfg_kwargs["corpora"].items()]
        argv = ["run-grid", "--model", tiny_cfg_kwargs["model_path"], *corpora, "--seed", "5",
                "--seq-len", "48", "--n-samples", "4", "--nm", "2:4", *mode]
        assert cli.main([*argv, "--out", str(tmp_path / "default")]) == 0
        assert cli.main([*argv, "--epsilon", "0.37", "--w-draws", "3",
                         "--out", str(tmp_path / "set")]) == 0
        names = sorted(p.name for p in (tmp_path / "default").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "set").iterdir())
        for name in names:
            want, got = ((tmp_path / run / name).read_bytes() for run in ("default", "set"))
            if name == "grid.json":
                want, got = json.loads(want), json.loads(got)
                assert (got["config"]["epsilon"], got["config"]["w_draws"]) == (0.37, 3)
                got["config"].update(epsilon=want["config"]["epsilon"],
                                     w_draws=want["config"]["w_draws"])
            assert got == want, name


class TestRunContinual:
    def test_cell_counts_and_files(self, tiny_cfg_kwargs, tmp_path):
        cfg = H.ExperimentConfig(**tiny_cfg_kwargs, output_dir=str(tmp_path / "runs"))
        out = H.run_continual(cfg)
        assert out["schema_version"] == 1
        # 2 corpora -> 2 permutations x 2 steps x 2 evals = 8 cells per grid
        for key, g in out["grids"].items():
            assert len(g["report"]["cells"]) == 8, key
            assert g["complete"]
        assert set(out["dense"]["per_dataset"]) == {"prose", "numeric"}
        run_dir = tmp_path / "runs"
        assert (run_dir / "grid.json").exists()
        assert (run_dir / "table.txt").exists()
        assert (run_dir / "table.csv").exists()
        assert (run_dir / "cells_magnitude_unstructured-0.5.csv").exists()

    def test_cells_csv_covers_every_cell(self, tiny_cfg_kwargs, tmp_path):
        cfg = H.ExperimentConfig(
            **tiny_cfg_kwargs, output_dir=str(tmp_path / "runs"), criteria=("magnitude",)
        )
        cells = H.run_continual(cfg)["grids"]["magnitude:unstructured-0.5"]["report"]["cells"]
        rows = read_csv(tmp_path / "runs" / "cells_magnitude_unstructured-0.5.csv")
        assert rows[0] == ["permutation", "step", "pruned_dataset", "eval_dataset", "perplexity"]
        assert rows[1:] == cells_csv_rows(cells)

    def test_dense_row_has_no_bwt_and_table_marks_it(self, tiny_cfg_kwargs, tmp_path):
        cfg = H.ExperimentConfig(**tiny_cfg_kwargs, output_dir=str(tmp_path / "runs"))
        out = H.run_continual(cfg)
        table = H.render_table(out)
        dense_line = next(l for l in table.splitlines() if l.startswith("dense"))
        assert "| -" in dense_line
        assert "a_bwt" not in out["dense"]

    def test_ws_marker_for_magnitude(self, tiny_cfg_kwargs, tmp_path):
        cfg = H.ExperimentConfig(**tiny_cfg_kwargs, output_dir=str(tmp_path / "runs"))
        out = H.run_continual(cfg)
        assert out["grids"]["magnitude:unstructured-0.5"]["ws"] is True
        table = H.render_table(out)
        mag_line = next(l for l in table.splitlines() if l.startswith("magnitude"))
        assert "WS" in mag_line

    def test_rerun_is_byte_identical(self, tiny_cfg_kwargs, tmp_path):
        cfg1 = H.ExperimentConfig(**tiny_cfg_kwargs, output_dir=str(tmp_path / "r1"))
        cfg2 = H.ExperimentConfig(**tiny_cfg_kwargs, output_dir=str(tmp_path / "r2"))
        H.run_continual(cfg1)
        H.run_continual(cfg2)
        for name in ("grid.json", "table.txt", "table.csv", "cells_wanda_unstructured-0.5.csv"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_table_csv_reparses_to_same_aggregates(self, tiny_cfg_kwargs, tmp_path):
        cfg = H.ExperimentConfig(**tiny_cfg_kwargs, output_dir=str(tmp_path / "runs"))
        out = H.run_continual(cfg)
        rows = list(csv.DictReader(io.StringIO((tmp_path / "runs" / "table.csv").read_text())))
        by_key = {f"{r['criterion']}:{r['spec']}": r for r in rows}
        for key, g in out["grids"].items():
            agg = g["report"]["aggregates"]
            row = by_key[key]
            assert float(row["a_ppl"]) == agg["a_ppl"]
            if not g["ws"]:
                assert float(row["a_bwt"]) == agg["a_bwt"]
            else:
                assert row["a_bwt"] == "WS"

    @pytest.mark.parametrize("mode", [None, "sequential"])
    def test_each_serialized_report_re_aggregates_to_itself(self, tiny_cfg_kwargs, tiny_dir,
                                                             tmp_path, mode):
        # all three tiny corpora, so that a step charges backward transfer to two datasets
        corpora = {n: str(tiny_dir / f"{n}.bin") for n in ("bracket", "numeric", "prose")}
        cfg = H.ExperimentConfig(**{**tiny_cfg_kwargs, "corpora": corpora},
                                 output_dir=str(tmp_path / "runs"), init_mode_override=mode)
        H.run_continual(cfg)
        grids = json.loads((tmp_path / "runs" / "grid.json").read_text())["grids"]
        assert len(grids) == 3
        for key, g in grids.items():
            assert len(g["report"]["cells"]) == 54, key
            assert metrics.aggregate(paths_from_cells(g["report"]["cells"])) == g["report"], key

    def test_failed_permutations_are_recorded_not_fatal(self, tiny_cfg_kwargs, tmp_path, monkeypatch):
        cfg = H.ExperimentConfig(
            **tiny_cfg_kwargs, output_dir=str(tmp_path / "runs"), criteria=("magnitude",)
        )
        from contprune import harness as hmod

        real = hmod.perplexities
        calls = {"n": 0}

        def flaky(net, corpora, seq_len):
            calls["n"] += 1
            if calls["n"] == 2:  # the first grid network, after the dense one
                raise NumericalError("synthetic failure")
            return real(net, corpora, seq_len)

        monkeypatch.setattr(hmod, "perplexities", flaky)
        out = H.run_continual(cfg)
        g = out["grids"]["magnitude:unstructured-0.5"]
        assert not g["complete"]
        assert len(g["errors"]) == 1
        assert "synthetic failure" in g["errors"][0]["error"]
        # the other permutation still produced its half of the grid: the
        # failed evaluation was not memoized, so it ran again there
        assert len(g["report"]["cells"]) == 4

    def test_failed_ordering_adds_no_cells(self, tiny_cfg_kwargs, tmp_path, monkeypatch):
        cfg = H.ExperimentConfig(
            **tiny_cfg_kwargs, output_dir=str(tmp_path / "runs"), criteria=("wanda",)
        )
        real = H.score_step
        calls = {"n": 0}

        def flaky(net, config, calib):
            calls["n"] += 1
            # step 1 of the first ordering scores numeric; its step 2, the
            # first score of prose, fails, and the next ordering scores prose
            # anew (wanda reads counts, so each corpus has its own score key)
            if calls["n"] == 2:
                raise NumericalError("synthetic failure")
            return real(net, config, calib)

        monkeypatch.setattr(H, "score_step", flaky)
        g = H.run_continual(cfg)["grids"]["wanda:unstructured-0.5"]
        assert [e["permutation"] for e in g["errors"]] == ["numeric>prose"]
        cells = g["report"]["cells"]
        assert len(cells) == 4
        assert {tuple(c["permutation"]) for c in cells} == {("prose", "numeric")}
        assert {s["permutation"] for s in g["step_stats"]} == {"prose>numeric"}
        assert g["report"]["aggregates"]["a_ppl"] == float(
            np.mean([c["perplexity"] for c in cells])
        )
        rows = read_csv(tmp_path / "runs" / "cells_wanda_unstructured-0.5.csv")
        assert rows[1:] == cells_csv_rows(cells)

    def test_failed_grid_renders_as_error(self, tiny_cfg_kwargs, tmp_path, monkeypatch):
        real = H.score_step

        def failing_wanda(net, config, calib):
            if config.criterion == "wanda":
                raise NumericalError("synthetic failure")
            return real(net, config, calib)

        monkeypatch.setattr(H, "score_step", failing_wanda)
        run_dir = tmp_path / "runs"
        cfg = H.ExperimentConfig(
            **tiny_cfg_kwargs, output_dir=str(run_dir),
            criteria=("magnitude", "wanda"), sparsity_sweep=(0.5,),
        )
        g = H.run_continual(cfg)["grids"]["wanda:unstructured-0.5"]
        assert g["report"] is None and len(g["errors"]) == 2
        table = (run_dir / "table.txt").read_text()
        wanda_line = next(l for l in table.splitlines() if l.startswith("wanda"))
        assert [v.strip() for v in wanda_line.split("|")] == ["wanda", "unstructured-0.5"] + [
            "error"
        ] * 4
        assert "wanda (" not in table  # no per-dataset stats
        assert [r[0] for r in read_csv(run_dir / "table.csv")] == [
            "criterion", "dense", "magnitude"
        ]
        assert not (run_dir / "cells_wanda_unstructured-0.5.csv").exists()

        rows = H.run_ablation_sparsity(cfg)
        assert rows[1] == {
            "criterion": "wanda", "sparsity": 0.5, "a_bwt": None, "m_bwt": None, "error": True
        }
        assert read_csv(run_dir / "ablation_sparsity.csv")[2] == ["wanda", "0.5", "", ""]

    def test_programming_error_ends_the_run(self, tiny_cfg_kwargs, tmp_path, monkeypatch):
        def broken(net, config, calib):
            raise KeyError("not a package error")

        monkeypatch.setattr(H, "score_step", broken)
        cfg = H.ExperimentConfig(
            **tiny_cfg_kwargs, output_dir=str(tmp_path / "runs"), criteria=("magnitude",)
        )
        with pytest.raises(KeyError, match="not a package error"):
            H.run_continual(cfg)
        assert not (tmp_path / "runs").exists()

    def test_init_mode_override_forces_sequential(self, tiny_cfg_kwargs, tmp_path):
        cfg = H.ExperimentConfig(
            **tiny_cfg_kwargs, output_dir=str(tmp_path / "runs"),
            criteria=("wanda",), init_mode_override="sequential",
        )
        out = H.run_continual(cfg)
        assert out["grids"]["wanda:unstructured-0.5"]["ws"] is True


class TestAblations:
    def test_sparsity_sweep_rows(self, tiny_cfg_kwargs, tmp_path):
        cfg = H.ExperimentConfig(
            **tiny_cfg_kwargs, output_dir=str(tmp_path / "runs"),
            criteria=("magnitude", "wanda"), sparsity_sweep=(0.5,),
        )
        rows = H.run_ablation_sparsity(cfg)
        assert len(rows) == 2  # one row per criterion at the single sparsity
        assert {r["criterion"] for r in rows} == {"magnitude", "wanda"}
        text = (tmp_path / "runs" / "ablation_sparsity.csv").read_text()
        assert text.splitlines()[0] == "criterion,sparsity,a_bwt,m_bwt"

    def test_samples_sweep_single_row(self, tiny_cfg_kwargs, tmp_path):
        cfg = H.ExperimentConfig(
            **tiny_cfg_kwargs, output_dir=str(tmp_path / "runs"), samples_sweep=(4,),
        )
        rows = H.run_ablation_samples(cfg)
        assert len(rows) == 1
        assert rows[0]["criterion"] == "sensitivity"
        assert rows[0]["n_samples"] == 4
        assert isinstance(rows[0]["a_bwt"], float)


class TestCli:
    @pytest.mark.parametrize("name", ["prose", "numeric"])
    def test_eval_gives_the_bits_of_the_dense_row(self, tiny_cfg_kwargs, tiny_dir, tmp_path,
                                                  monkeypatch, name):
        # a corpus's perplexity depends on the network and that corpus alone,
        # whichever corpora are evaluated with it
        out = H.run_continual(H.ExperimentConfig(**tiny_cfg_kwargs, criteria=("magnitude",),
                                                 output_dir=str(tmp_path / "runs")))
        dense = json.loads((tmp_path / "runs" / "grid.json").read_text())["dense"]["per_dataset"]
        assert dense == out["dense"]["per_dataset"] and len(dense) == 2
        values = []
        real = metrics.perplexity
        monkeypatch.setattr(metrics, "perplexity",
                            lambda *args, **kwargs: values.append(real(*args, **kwargs)) or values[-1])
        assert cli.main(["eval", "--model", tiny_cfg_kwargs["model_path"],
                         "--corpus-path", str(tiny_dir / f"{name}.bin"), "--seq-len", "48"]) == 0
        assert [v.hex() for v in values] == [dense[name].hex()]

    def test_gen_train_eval_prune_pipeline(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert cli.main(["gen-corpora", "--out", str(data), "--tokens", "12000", "--seed", "1"]) == 0
        model = tmp_path / "m.ckpt"
        assert cli.main([
            "train", "--corpora-dir", str(data), "--out", str(model),
            "--steps", "40", "--batch", "4", "--seq-len", "24",
            "--dim", "16", "--hidden", "24", "--blocks", "1", "--seed", "3",
        ]) == 0
        assert cli.main([
            "eval", "--model", str(model),
            "--corpus-path", str(data / "prose.bin"), "--corpus-name", "prose",
            "--seq-len", "24",
        ]) == 0
        out = capsys.readouterr().out
        assert "perplexity" in out
        pruned = tmp_path / "p.ckpt"
        state = tmp_path / "s.bin"
        assert cli.main([
            "prune", "--model", str(model), "--corpus-path", str(data / "prose.bin"),
            "--corpus-name", "prose", "--criterion", "sensitivity", "--sparsity", "0.5",
            "--n-samples", "2", "--seq-len", "24", "--seed", "0",
            "--out", str(pruned), "--save-state", str(state),
            "--export-masks", str(tmp_path / "masks"),
        ]) == 0
        assert pruned.exists() and state.exists()
        assert (tmp_path / "masks" / "masks.json").exists()

    def test_prune_names_the_corpus_after_its_file(self, tiny_dir, tiny_model_path, tmp_path):
        state = tmp_path / "s.bin"
        for name in ("prose", "numeric"):
            assert cli.main([
                "prune", "--model", str(tiny_model_path),
                "--corpus-path", str(tiny_dir / f"{name}.bin"), "--n-samples", "2",
                "--seq-len", "48", "--seed", "0", "--out", str(tmp_path / f"{name}.ckpt"),
                *(["--state", str(state)] if state.exists() else []), "--save-state", str(state),
            ]) == 0
        assert I.load_state(state).datasets_seen == ["prose", "numeric"]

    def test_prune_gives_the_grid_step_one_networks(self, tiny_dir, tiny_model_path, tmp_path):
        """``prune`` and ``run-grid`` build their PruneConfig and calibration
        seed apart; on one corpus they must prune to the same network."""
        names = ("bracket", "numeric", "prose")
        settings = ["--seed", "5", "--n-samples", "4", "--seq-len", "48"]
        assert cli.main([
            "run-grid", "--model", str(tiny_model_path),
            *(f"--corpus={n}={tiny_dir / f'{n}.bin'}" for n in names),
            "--out", str(tmp_path / "runs"), *settings,
        ]) == 0
        grids = json.loads((tmp_path / "runs" / "grid.json").read_text())["grids"]
        corpora = {n: C.load_corpus(tiny_dir / f"{n}.bin", n) for n in names}
        for criterion in P.CRITERIA:
            out = tmp_path / f"{criterion}.ckpt"
            assert cli.main([
                "prune", "--model", str(tiny_model_path), "--corpus-path", str(tiny_dir / "prose.bin"),
                "--criterion", criterion, "--out", str(out), *settings,
            ]) == 0
            got = metrics.perplexities(M.load_checkpoint(out), corpora, 48)
            cells = grids[f"{criterion}:unstructured-0.5"]["report"]["cells"]
            step_one = [c for c in cells if c["permutation"][0] == "prose" and c["step"] == 1]
            assert len(step_one) == 2 * len(names)  # two orderings start with prose
            for c in step_one:
                assert c["perplexity"] == got[c["eval_dataset"]], (criterion, c)

    def test_prune_continued_on_the_base_gives_the_grid_step_two_network(
        self, tiny_dir, tiny_model_path, tmp_path, capsys
    ):
        """A saved state continues on the base model, not on the pruned
        checkpoint: sensitivity always scores the base, and masking the
        pruned checkpoint would keep its pruned entries at zero. The state
        names its base's sha256, so the pruned checkpoint is refused."""
        names = ("bracket", "numeric", "prose")
        settings = ["--seed", "1", "--n-samples", "2", "--seq-len", "48"]
        assert cli.main([
            "run-grid", "--model", str(tiny_model_path), "--criteria", "sensitivity",
            *(f"--corpus={n}={tiny_dir / f'{n}.bin'}" for n in names),
            "--out", str(tmp_path / "runs"), *settings,
        ]) == 0
        cells = json.loads((tmp_path / "runs" / "grid.json").read_text())[
            "grids"]["sensitivity:unstructured-0.5"]["report"]["cells"]
        step_two = {c["eval_dataset"]: c["perplexity"] for c in cells
                    if c["permutation"] == ["prose", "numeric", "bracket"] and c["step"] == 2}
        state = tmp_path / "s1.bin"

        def prune(corpus, model, out, *extra):
            assert cli.main(["prune", "--model", str(model), "--corpus-path",
                             str(tiny_dir / f"{corpus}.bin"), "--out", str(out),
                             *extra, *settings]) == 0
            return {n: metrics.perplexity(M.load_checkpoint(out), C.load_corpus(
                tiny_dir / f"{n}.bin", n), 48) for n in names}

        prune("prose", tiny_model_path, tmp_path / "p1.ckpt", "--save-state", str(state))
        assert prune("numeric", tiny_model_path, tmp_path / "p2.ckpt", "--state", str(state)) == step_two
        base, pruned = (hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in (Path(tiny_model_path), tmp_path / "p1.ckpt"))
        line = main_error(capsys, [
            "prune", "--model", str(tmp_path / "p1.ckpt"), "--corpus-path",
            str(tiny_dir / "numeric.bin"), "--out", str(tmp_path / "p3.ckpt"),
            "--state", str(state), *settings,
        ])
        assert line == (f"contprune: UsageError: state {state} was built on a model with sha256 "
                        f"{base}, not on {tmp_path / 'p1.ckpt'} (sha256 {pruned})")
        assert not (tmp_path / "p3.ckpt").exists()

    def test_prune_refuses_a_state_that_names_no_base(self, tiny_dir, tiny_model_path, tmp_path, capsys):
        """A state built in-process names no checkpoint (``base_sha256``
        null), so no ``--model`` can continue it."""
        state = tmp_path / "s0.bin"
        I.save_state(I.init_state(M.load_checkpoint(tiny_model_path)), state)
        line = main_error(capsys, [
            "prune", "--model", str(tiny_model_path), "--corpus-path", str(tiny_dir / "prose.bin"),
            "--out", str(tmp_path / "p.ckpt"), "--state", str(state), "--seed", "1",
            "--n-samples", "2", "--seq-len", "48",
        ])
        assert line == (f"contprune: UsageError: state {state} names no base checkpoint "
                        f"(base_sha256 null), so it cannot continue on {tiny_model_path}")
        assert not (tmp_path / "p.ckpt").exists()

    @pytest.mark.parametrize("criterion", P.CRITERIA)
    def test_prune_state_accumulates_for_every_criterion(self, tiny_dir, tiny_model_path, tmp_path,
                                                         criterion):
        """``--state`` and ``--save-state`` give a step a state whatever its
        criterion, and a step with a state is ``prune_step`` on the base."""
        settings = ["--criterion", criterion, "--seed", "1", "--n-samples", "2", "--seq-len", "48"]
        first, second = tmp_path / "s1.bin", tmp_path / "s2.bin"

        def prune(name, *extra):
            assert cli.main(["prune", "--model", str(tiny_model_path), "--corpus-path",
                             str(tiny_dir / f"{name}.bin"), "--out", str(tmp_path / f"{name}.ckpt"),
                             *extra, *settings]) == 0

        prune("prose", "--save-state", str(first))
        prune("numeric", "--state", str(first), "--save-state", str(second),
              "--export-masks", str(tmp_path / "cli"))
        base = M.load_checkpoint(tiny_model_path)
        calibs = [C.sample_calibration(C.load_corpus(tiny_dir / f"{name}.bin", name), 2, 48,
                                       derive_seed(1, "calib", name)) for name in ("prose", "numeric")]
        config = P.PruneConfig(criterion=criterion, sparsity=0.5)
        _, masks, _ = P.prune_step(base, I.load_state(first), config, calibs[1])
        P.export_masks(masks, config, tmp_path / "in-process")
        for name in ("masks.bin", "masks.json"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "in-process" / name).read_bytes()
        state = I.load_state(second)
        assert state.counts.tolist() == sum(
            np.pad(c.counts, (0, base.vocab_size - c.counts.size)) for c in calibs).tolist()
        assert state.datasets_seen == ["prose", "numeric"]

    def test_sensitivity_prune_without_a_state_scores_its_own_counts(
        self, tiny_dir, tiny_model_path, tmp_path, capsys
    ):
        """Without ``--state`` or ``--save-state`` a sensitivity step scores
        its dataset's own counts, the counts a fresh state would hold."""
        written = []
        for name, extra in (("fresh", ["--save-state", str(tmp_path / "s.bin")]), ("none", [])):
            capsys.readouterr()
            assert cli.main(["prune", "--model", str(tiny_model_path), "--corpus-path",
                             str(tiny_dir / "prose.bin"), "--out", str(tmp_path / f"{name}.ckpt"),
                             "--export-masks", str(tmp_path / name), "--seed", "1", "--n-samples",
                             "2", "--seq-len", "48", *extra]) == 0
            written.append([capsys.readouterr().out.encode()] + [
                (tmp_path / rel).read_bytes()
                for rel in (f"{name}.ckpt", f"{name}/masks.bin", f"{name}/masks.json")])
        assert written[0] == written[1]

    @pytest.mark.parametrize("argv, flag", [
        (["prune", "--model", "m", "--corpus-path", "c", "--out", "o", "--seed", "0"],
         ["--init-mode", "global"]),
        (["ablate-sparsity"], ["--nm", "2:4"]),
        (["ablate-samples"], ["--n-samples", "4"]),
    ], ids=["prune-init-mode", "ablate-sparsity-nm", "ablate-samples-n-samples"])
    def test_flag_a_command_would_ignore_is_unrecognized(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv + flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["0", "5"])
    def test_train_refuses_a_corpus_shorter_than_seq_len(self, tmp_path, capsys, steps):
        data = tmp_path / "data"
        assert cli.main(["gen-corpora", "--out", str(data), "--tokens", "2000", "--seed", "1"]) == 0
        (data / "short.bin").write_bytes(bytes(range(65, 85)))  # 16 calibration tokens
        model = tmp_path / "m.ckpt"
        line = main_error(capsys, [
            "train", "--corpora-dir", str(data), "--out", str(model), "--steps", steps,
            "--batch", "2", "--seq-len", "17", "--dim", "8", "--hidden", "12", "--blocks", "1",
            "--seed", "0",
        ])
        assert line == ("contprune: UsageError: corpus 'short' calibration range shorter "
                        "than seq_len=17")
        assert not model.exists()

    def test_train_loss_line_averages_disjoint_ends(self, tmp_path, capsys, monkeypatch):
        # under 100 steps each end averages steps // 2 losses, so the two
        # ends never overlap and the line shows the loss moving
        logged = []
        real = T.train

        def train(net, corpora, cfg, loss_log):
            out = real(net, corpora, cfg, loss_log=loss_log)
            logged.append(list(loss_log))
            return out

        monkeypatch.setattr(T, "train", train)
        data = tmp_path / "data"
        assert cli.main(["gen-corpora", "--out", str(data), "--tokens", "12000", "--seed", "1"]) == 0
        capsys.readouterr()
        assert cli.main([
            "train", "--corpora-dir", str(data), "--out", str(tmp_path / "m.ckpt"),
            "--steps", "7", "--batch", "4", "--seq-len", "24",
            "--dim", "16", "--hidden", "24", "--blocks", "1", "--seed", "3",
        ]) == 0
        (losses,) = logged
        first, last = sum(losses[:3]) / 3, sum(losses[-3:]) / 3
        assert f"{first:.4f}" != f"{last:.4f}"
        assert f"trained 7 steps: loss {first:.4f} -> {last:.4f};" in capsys.readouterr().out

    def test_run_grid_with_config_file_and_flag_override(self, tiny_cfg_kwargs, tmp_path, capsys):
        config = {
            "model_path": tiny_cfg_kwargs["model_path"],
            "corpora": tiny_cfg_kwargs["corpora"],
            "criteria": ["magnitude"],
            "seq_len": 48,
            "n_samples": 4,
            "seed": 1,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "grid"
        rc = cli.main([
            "run-grid", "--config", str(cfg_path),
            "--out", str(out_dir), "--seed", "7",  # flag overrides the file seed
        ])
        assert rc == 0
        written = json.loads((out_dir / "grid.json").read_text())
        assert written["config"]["seed"] == 7
        assert written["config"]["criteria"] == ["magnitude"]
        table = capsys.readouterr().out
        assert "magnitude" in table

    @staticmethod
    def _config_argv(tiny_cfg_kwargs, tmp_path, **values) -> list[str]:
        """``run-grid`` on a config file holding the tiny inputs and ``values``."""
        config = {
            "model_path": tiny_cfg_kwargs["model_path"],
            "corpora": tiny_cfg_kwargs["corpora"],
            "criteria": ["magnitude"],
            "seq_len": 48,
            "n_samples": 4,
            "seed": 1,
            "output_dir": str(tmp_path / "grid"),
            **values,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        return ["run-grid", "--config", str(cfg_path)]

    def _run_grid_from_config(self, tiny_cfg_kwargs, tmp_path, **values):
        assert cli.main(self._config_argv(tiny_cfg_kwargs, tmp_path, **values)) == 0
        return json.loads((tmp_path / "grid" / "grid.json").read_text())

    def test_config_integer_sparsity_and_nm_lists(self, tiny_cfg_kwargs, tmp_path):
        written = self._run_grid_from_config(
            tiny_cfg_kwargs, tmp_path, sparsities=[0], nm_patterns=[[2, 4]]
        )
        assert written["config"]["sparsities"] == [0.0]
        assert sorted(written["grids"]) == ["magnitude:2of4", "magnitude:unstructured-0"]
        for grid in written["grids"].values():
            assert grid["complete"] and not grid["errors"]
        unpruned = written["grids"]["magnitude:unstructured-0"]["report"]["aggregates"]
        assert unpruned["a_ppl"] == pytest.approx(written["dense"]["a_ppl"], rel=1e-12)

    def test_config_integer_sparsity_one_is_a_usage_error(self, tiny_cfg_kwargs, tmp_path, capsys):
        line = main_error(capsys, self._config_argv(tiny_cfg_kwargs, tmp_path, sparsities=[1]))
        assert re.search(r"UsageError: sparsity must be in \[0, 1\), got 1.0", line)

    def test_config_unknown_key_is_named(self, tiny_cfg_kwargs, tmp_path, capsys):
        argv = self._config_argv(tiny_cfg_kwargs, tmp_path, sparsity=[0.5])
        assert re.search(r"UsageError: unknown config key.*: sparsity$", main_error(capsys, argv))

    @pytest.mark.parametrize(
        "command, values, ignored",
        [
            ("ablate-samples",
             {"sparsities": [0.9], "nm_patterns": [[2, 4]], "criteria": ["magnitude"],
              "n_samples": 4},
             "criteria, n_samples, nm_patterns, sparsities"),
            ("run-grid", {"samples_sweep": [2], "ablate_criteria": ["magnitude"]},
             "ablate_criteria, samples_sweep"),
        ],
        ids=["ablate-samples", "run-grid"],
    )
    def test_config_key_the_command_ignores_is_named(
        self, tiny_cfg_kwargs, tmp_path, capsys, command, values, ignored
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(values))
        out = tmp_path / "runs"
        line = main_error(capsys, [
            command, "--config", str(cfg_path), "--model", tiny_cfg_kwargs["model_path"],
            "--corpus", f"prose={tiny_cfg_kwargs['corpora']['prose']}", "--seed", "0",
            "--seq-len", "48", "--out", str(out),
        ] + (["--samples-sweep", "2"] if command == "ablate-samples" else []))
        assert line.endswith(f"UsageError: config key(s) in {cfg_path} that {command} "
                             f"ignores: {ignored}"), line
        assert not out.exists()

    def test_config_sets_the_ablation_criteria(self, tiny_cfg_kwargs, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"ablate_criteria": ["magnitude"]}))
        out = tmp_path / "runs"
        assert cli.main([
            "ablate-samples", "--config", str(cfg_path), "--model", tiny_cfg_kwargs["model_path"],
            "--corpus", f"prose={tiny_cfg_kwargs['corpora']['prose']}",
            "--corpus", f"numeric={tiny_cfg_kwargs['corpora']['numeric']}", "--seed", "0",
            "--seq-len", "48", "--samples-sweep", "2", "--out", str(out),
        ]) == 0
        assert read_csv(out / "ablation_samples.csv") == [
            ["criterion", "n_samples", "a_bwt", "m_bwt"], ["magnitude", "2", "WS", "WS"],
        ]

    @pytest.mark.parametrize(
        "text, match",
        [
            ("[1, 2]", r"config .*cfg\.json must hold a JSON object, got list$"),
            ("{bad", r"cannot read config .*cfg\.json: Expecting property name"),
            ('{"corpora": [1, 2]}', r"corpora must be of type dict, got \[1, 2\]$"),
            ('{"n_samples": "abc"}', r"n_samples must be of type int, got 'abc'$"),
            ('{"n_samples": 4.0}', r"n_samples must be of type int, got 4\.0$"),
            ('{"epsilon": true}', r"epsilon must be of type int or float, got True$"),
            ('{"init_mode_override": 3}',
             r"init_mode_override must be of type str or NoneType, got 3$"),
            ('{"sparsities": 0.5}', r"sparsities must be of type str or list"),
            ('{"sparsities": ["half"]}',
             r"sparsities has an item that does not parse: 'half'$"),
            ('{"nm_patterns": [2]}', r"nm_patterns has an item that does not parse: 2$"),
            ('{"corpora": {"extra": 1}}', r"corpora must map names to paths"),
        ],
        ids=["list", "not-json", "corpora-list", "string-count", "float-count", "bool-number",
             "number-mode", "bare-number-list", "unparsed-item", "unparsed-pair",
             "number-corpus-path"],
    )
    def test_malformed_config_is_named(self, tiny_cfg_kwargs, tmp_path, capsys, text, match):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        line = main_error(capsys, [
            "run-grid", "--config", str(cfg_path), "--model", tiny_cfg_kwargs["model_path"],
            "--corpus", f"prose={tiny_cfg_kwargs['corpora']['prose']}", "--seed", "0",
            "--seq-len", "48", "--out", str(tmp_path / "runs"),
        ])
        assert re.search(f"UsageError: {match}", line), line
        assert not (tmp_path / "runs").exists()

    def test_every_field_has_a_type_check(self):
        checked = [name for name, _, _ in H._FIELDS]
        assert checked == [f.name for f in dataclasses.fields(H.ExperimentConfig)]

    @pytest.mark.parametrize(
        "entries, want",
        [
            (["={prose}", "x={numeric}"], "--corpus '={prose}': a corpus name must be non-empty"),
            (["a>b={prose}", "x={numeric}"],
             "--corpus 'a>b={prose}': a corpus name must be non-empty and hold no '>'"),
            (["a={prose}", "a={numeric}"], "--corpus 'a={numeric}' repeats the name 'a'"),
        ],
        ids=["empty", "angle", "repeated"],
    )
    @pytest.mark.parametrize("command", ["run-grid", "train"])
    def test_bad_corpus_flag_is_named_before_any_work(
        self, tiny_cfg_kwargs, tmp_path, capsys, monkeypatch, command, entries, want
    ):
        monkeypatch.setattr(H, "load_checkpoint", lambda *args: pytest.fail("loaded"))
        monkeypatch.setattr(C, "load_corpus", lambda *args: pytest.fail("loaded"))
        paths = tiny_cfg_kwargs["corpora"]
        argv = [command, "--seed", "0", "--out", str(tmp_path / "out")]
        argv += ["--model", tiny_cfg_kwargs["model_path"]] if command == "run-grid" else []
        for entry in entries:
            argv += ["--corpus", entry.format(**paths)]
        line = main_error(capsys, argv)
        assert line.startswith(f"contprune: UsageError: {want.format(**paths)}"), line
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flagged", [False, True], ids=["alone", "with-corpus"])
    @pytest.mark.parametrize("kind", ["empty", "missing"])
    @pytest.mark.parametrize("command", ["train", "run-grid", "ablate-sparsity", "ablate-samples"])
    def test_corpora_dir_without_corpora_is_named_before_any_work(
        self, tiny_cfg_kwargs, tmp_path, capsys, monkeypatch, command, kind, flagged
    ):
        monkeypatch.setattr(H, "load_checkpoint", lambda *args: pytest.fail("loaded"))
        monkeypatch.setattr(C, "load_corpus", lambda *args: pytest.fail("loaded"))
        corpora_dir = tmp_path / "corpora"
        if kind == "empty":
            corpora_dir.mkdir()
            (corpora_dir / "prose.txt").write_text("not a corpus")
        argv = [command, "--corpora-dir", str(corpora_dir), "--seed", "0",
                "--out", str(tmp_path / "out")]
        argv += ["--model", tiny_cfg_kwargs["model_path"]] if command != "train" else []
        argv += ["--corpus", f"prose={tiny_cfg_kwargs['corpora']['prose']}"] if flagged else []
        line = main_error(capsys, argv)
        assert line == f"contprune: InputError: --corpora-dir {corpora_dir} holds no *.bin corpus"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["", "a>b"], ids=["empty", "angle"])
    def test_bad_corpus_name_in_a_config_file_is_named(self, tiny_cfg_kwargs, tmp_path, capsys,
                                                       name):
        corpora = {name: tiny_cfg_kwargs["corpora"]["prose"]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"corpora": corpora}))
        line = main_error(capsys, [
            "run-grid", "--config", str(cfg_path), "--model", tiny_cfg_kwargs["model_path"],
            "--corpus", f"numeric={tiny_cfg_kwargs['corpora']['numeric']}", "--seed", "0",
            "--out", str(tmp_path / "runs"),
        ])
        assert line == (f"contprune: UsageError: corpora entry {name!r}: a corpus name must be "
                        f"non-empty and hold no '>'")
        assert not (tmp_path / "runs").exists()
        with pytest.raises(UsageError, match=f"corpora entry {re.escape(repr(name))}"):
            H.ExperimentConfig(**{**tiny_cfg_kwargs, "corpora": corpora})

    def test_corpus_flag_overrides_a_directory_stem_and_a_config_entry(
        self, tiny_dir, tiny_cfg_kwargs, tmp_path
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"corpora": {"extra": str(tiny_dir / "prose.bin")}}))
        numeric = str(tiny_dir / "numeric.bin")
        args = cli.build_parser().parse_args([
            "run-grid", "--config", str(cfg_path), "--model", tiny_cfg_kwargs["model_path"],
            "--corpora-dir", str(tiny_dir), "--corpus", f"prose={numeric}",
            "--corpus", f"extra={numeric}", "--seed", "0",
        ])
        corpora = cli._experiment_config(args).corpora
        assert corpora == {"bracket": str(tiny_dir / "bracket.bin"), "numeric": numeric,
                           "prose": numeric, "extra": numeric}

    @pytest.mark.parametrize(
        "argv",
        [
            ["run-grid", "--sparsity", "0.5,1"],
            ["run-grid", "--criteria", "magnitude,bogus"],
            ["ablate-sparsity", "--criteria", "magnitude", "--sparsity-sweep", "0.5,1"],
            ["ablate-samples", "--ablate-criteria", "magnitude", "--samples-sweep", "2,0"],
            ["run-grid", "--criteria", "magnitude", "--sparsity", "0.5,0.5"],
            ["ablate-samples", "--ablate-criteria", "magnitude,magnitude", "--samples-sweep", "2"],
            ["run-grid", "--criteria", "magnitude,sensitivity", "--epsilon", "nan"],
            ["run-grid", "--criteria", "magnitude,sensitivity", "--epsilon", "inf"],
        ],
        ids=["sparsity", "criterion", "sparsity-sweep", "samples-sweep", "repeated-sparsity",
             "repeated-ablate-criteria", "nan-epsilon", "inf-epsilon"],
    )
    def test_bad_later_value_fails_before_any_evaluation(
        self, tiny_cfg_kwargs, tmp_path, monkeypatch, capsys, argv
    ):
        real = H.perplexities
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(H, "perplexities", counting)
        corpora = [f"--corpus={n}={p}" for n, p in tiny_cfg_kwargs["corpora"].items()]
        line = main_error(capsys, [
            *argv, "--model", tiny_cfg_kwargs["model_path"], *corpora,
            "--out", str(tmp_path / "runs"), "--seed", "0", "--seq-len", "48",
        ])
        assert line.startswith("contprune: UsageError: ")
        assert len(calls) == 0
        assert not (tmp_path / "runs").exists()

    def test_out_of_range_eval_token_ends_run_grid_and_fails_every_ablation_grid(
        self, tmp_path, capsys
    ):
        # run-grid evaluates the base on every corpus before any grid, and an
        # ablation row records only that its grid failed, so no command shows
        # which corpus's error an evaluation raises first
        net = M.make_decoder(vocab_size=64, d=8, hidden=8, blocks=1)
        M.save_checkpoint(net, tmp_path / "m.ckpt")
        corpora = []
        for bad, name in enumerate("ab", start=64):
            tokens = (np.arange(1000) % 64).astype(np.uint8)
            tokens[-50] = bad  # the eval split is the last 200 tokens
            (tmp_path / f"{name}.bin").write_bytes(tokens.tobytes())
            corpora.append(f"--corpus={name}={tmp_path / name}.bin")
        argv = ["--model", str(tmp_path / "m.ckpt"), *corpora, "--seed", "0",
                "--seq-len", "16", "--n-samples", "2"]
        line = main_error(capsys, ["run-grid", *argv, "--out", str(tmp_path / "grid")])
        assert line == "contprune: InputError: token id out of range [0, 64): min=0, max=64"
        assert not (tmp_path / "grid" / "grid.json").exists()
        assert cli.main(["ablate-sparsity", *argv, "--criteria", "magnitude,sensitivity",
                         "--sparsity-sweep", "0.3,0.6", "--out", str(tmp_path / "abl")]) == 0
        rows = read_csv(tmp_path / "abl" / "ablation_sparsity.csv")
        assert rows[0] == ["criterion", "sparsity", "a_bwt", "m_bwt"] and len(rows) == 5
        assert all(row[2:] == ["", ""] for row in rows[1:])

    def test_run_grid_requires_seed(self, tiny_cfg_kwargs, tmp_path, capsys):
        line = main_error(capsys, [
            "run-grid", "--model", tiny_cfg_kwargs["model_path"],
            "--corpus", f"prose={tiny_cfg_kwargs['corpora']['prose']}",
            "--out", str(tmp_path / "g"),
        ])
        assert line == "contprune: UsageError: --seed is required"

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["run-grid", "--corpus", "prose={prose}", "--sparsity", "1", "--seed", "0",
              "--out", "{tmp}/runs"],
             r"UsageError: sparsity must be in \[0, 1\), got 1\.0"),
            (["ablate-samples", "--corpus", "prose={prose}", "--samples-sweep", "4,0",
              "--seed", "0", "--out", "{tmp}/runs"],
             r"UsageError: n_samples must be >= 1, got 0"),
            (["prune", "--corpus-path", "{prose}", "--nm", "a:b", "--seed", "0",
              "--out", "{tmp}/p.ckpt"],
             r"UsageError: --nm has an item that does not parse: 'a:b'"),
            (["eval", "--corpus-path", "{tmp}/missing.bin"],
             r"FileNotFoundError: .*missing\.bin'"),
            (["prune", "--corpus-path", "{prose}", "--state", "{model}", "--seed", "0",
              "--out", "{tmp}/p.ckpt"],
             r"FormatError: bad state magic b'DECKPT01'"),
            (["prune", "--corpus-path", "{prose}", "--criterion", "wanda",
              "--state", "{tmp}/missing.bin", "--seed", "0", "--out", "{tmp}/p.ckpt"],
             r"FileNotFoundError: .*missing\.bin'"),
            (["prune", "--corpus-path", "{prose}", "--criterion", "obd", "--seed", "0",
              "--out", "{tmp}/p.ckpt"],
             r"UsageError: criterion must be one of \('sensitivity', 'magnitude', 'wanda'\), "
             r"got 'obd'"),
            (["gen-corpora", "--out", "{tmp}/c", "--tokens", "0"],
             r"UsageError: n_tokens must be >= 1, got 0"),
            (["gen-corpora", "--out", "{tmp}/c", "--tokens", "-5"],
             r"UsageError: n_tokens must be >= 1, got -5"),
            (["gen-corpora", "--out", "{tmp}/c", "--seed", "-1"],
             r"UsageError: seed must be >= 0, got -1"),
            (["train", "--corpus", "prose={prose}", "--steps", "2", "--seed", "-1",
              "--out", "{tmp}/m.ckpt"],
             r"UsageError: seed must be >= 0, got -1"),
            (["train", "--corpus", "prose={prose}", "--dim", "0", "--seed", "0",
              "--out", "{tmp}/m.ckpt"],
             r"UsageError: need d >= 1, hidden >= 1 and blocks >= 0, got d=0, hidden=128, "
             r"blocks=2"),
            (["train", "--corpus", "prose={prose}", "--hidden", "0", "--seed", "0",
              "--out", "{tmp}/m.ckpt"],
             r"UsageError: need d >= 1, hidden >= 1 and blocks >= 0, got d=64, hidden=0, blocks=2"),
            (["train", "--corpus", "prose={prose}", "--blocks", "-1", "--seed", "0",
              "--out", "{tmp}/m.ckpt"],
             r"UsageError: need d >= 1, hidden >= 1 and blocks >= 0, got d=64, hidden=128, "
             r"blocks=-1"),
        ],
        ids=["usage", "zero-samples", "bad-nm", "missing-file", "checkpoint-as-state", "state-wanda",
             "bad-criterion", "zero-tokens", "negative-tokens", "negative-corpora-seed",
             "negative-train-seed", "zero-dim", "zero-hidden", "negative-blocks"],
    )
    def test_failed_command_prints_one_line_and_exits_1(
        self, tiny_cfg_kwargs, tmp_path, capsys, argv, want
    ):
        model = tiny_cfg_kwargs["model_path"]
        paths = {"prose": tiny_cfg_kwargs["corpora"]["prose"], "tmp": tmp_path, "model": model}
        takes_model = argv[0] not in ("gen-corpora", "train")
        argv = [a.format(**paths) for a in argv] + (["--model", model] if takes_model else [])
        assert re.fullmatch(f"contprune: {want}", main_error(capsys, argv))
        if "--out" in argv:
            assert not Path(argv[argv.index("--out") + 1]).exists()

    @pytest.mark.parametrize("flag", [["--criterion", "obd"], ["--sparsity", "1"], ["--nm", "3:4"]])
    def test_prune_names_a_bad_setting_before_loading(self, tmp_path, capsys, flag):
        line = main_error(capsys, ["prune", "--model", str(tmp_path / "missing.ckpt"),
                                   "--corpus-path", str(tmp_path / "missing.bin"), *flag,
                                   "--seed", "0", "--out", str(tmp_path / "p.ckpt")])
        assert line.startswith("contprune: UsageError: "), line

    @pytest.mark.parametrize("kind, want", [
        ("other-vocabulary",
         "ShapeError: state counts 255 tokens, network has a vocabulary of 256"),
        ("version-2", "FormatError: unsupported state version 2"),
    ], ids=["other-vocabulary", "version-2"])
    def test_prune_refuses_a_state_it_cannot_continue(self, tiny_cfg_kwargs, tmp_path, capsys,
                                                       kind, want):
        state = tmp_path / "s.bin"
        if kind == "other-vocabulary":
            other = M.make_decoder(vocab_size=255, d=4, hidden=4, blocks=1)
            I.save_state(I.init_state(other), state)
        else:  # one float64 importance matrix per prunable layer
            blob = json.dumps({"base_sha256": None, "datasets_seen": [], "sample_count": {},
                               "layers": []}).encode()
            state.write_bytes(I.STATE_MAGIC + struct.pack("<II", 2, len(blob)) + blob)
        line = main_error(capsys, [
            "prune", "--model", tiny_cfg_kwargs["model_path"],
            "--corpus-path", tiny_cfg_kwargs["corpora"]["prose"], "--state", str(state),
            "--seed", "0", "--out", str(tmp_path / "p.ckpt"),
        ])
        assert line == f"contprune: {want}"
        assert not (tmp_path / "p.ckpt").exists()

    @pytest.mark.parametrize(
        "argv, written",
        [
            (["prune", "--model", "{model}", "--out", "{tmp}/new/p.ckpt"], ["new/p.ckpt"]),
            (["prune", "--model", "{model}", "--save-state", "{tmp}/new/s.bin",
              "--out", "{tmp}/p.ckpt"], ["p.ckpt", "new/s.bin"]),
            (["train", "--corpus", "prose={prose}", "--steps", "2", "--batch", "2", "--dim", "8",
              "--hidden", "8", "--blocks", "1", "--out", "{tmp}/new/m.ckpt"], ["new/m.ckpt"]),
        ],
        ids=["prune-out", "prune-save-state", "train-out"],
    )
    def test_output_into_a_missing_directory_creates_it(self, tiny_cfg_kwargs, tmp_path, argv,
                                                        written):
        paths = {"prose": tiny_cfg_kwargs["corpora"]["prose"], "tmp": tmp_path,
                 "model": tiny_cfg_kwargs["model_path"]}
        if argv[0] == "prune":
            argv = argv + ["--corpus-path", "{prose}", "--n-samples", "2", "--seq-len", "48"]
        assert cli.main([a.format(**paths) for a in argv] + ["--seed", "0"]) == 0
        for rel in written:
            if rel.endswith(".ckpt"):
                M.load_checkpoint(tmp_path / rel)
            else:
                I.load_state(tmp_path / rel, M.load_checkpoint(paths["model"]))

    def test_other_exceptions_propagate(self, monkeypatch):
        def bug(args):
            raise KeyError("not a package error")

        monkeypatch.setattr(cli, "cmd_report", bug)
        with pytest.raises(KeyError, match="not a package error"):
            cli.main(["report", "--run-dir", "anywhere"])

    @pytest.mark.parametrize("text, want", [
        ("{bad", r"JSONDecodeError: Expecting property name enclosed in double quotes.*"),
        ('{"grids": {}}', r"KeyError: 'dense'"),
    ], ids=["not-json", "no-dense"])
    def test_report_of_a_malformed_grid_is_a_format_error(self, tmp_path, capsys, text, want):
        (tmp_path / "grid.json").write_text(text)
        line = main_error(capsys, ["report", "--run-dir", str(tmp_path)])
        path = re.escape(str(tmp_path / "grid.json"))
        assert re.fullmatch(f"contprune: FormatError: {path} is not a grid report: {want}", line)

    def test_report_rerenders_table(self, tiny_cfg_kwargs, tmp_path, capsys):
        cfg = H.ExperimentConfig(
            **tiny_cfg_kwargs, output_dir=str(tmp_path / "runs"), criteria=("magnitude",)
        )
        H.run_continual(cfg)
        capsys.readouterr()
        assert cli.main(["report", "--run-dir", str(tmp_path / "runs")]) == 0
        out = capsys.readouterr().out
        assert "criterion" in out and "dense" in out
