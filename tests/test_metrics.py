import json
import math
from pathlib import Path

import numpy as np
import pytest

from contprune import corpus as C
from contprune import metrics as X
from contprune import model as M
from contprune.errors import CompletenessError, InputError

DATA = Path(__file__).parent / "data"


def cell(pi, step, ds, ppl):
    return X.EvalCell(permutation=tuple(pi), step=step, eval_dataset=ds, perplexity=ppl)


class TestPerplexity:
    def test_uniform_model_scores_vocab_size(self):
        vocab, d = 256, 8
        net = M.Network(
            layers=[M.linear(np.zeros((d, d)))], vocab_size=vocab, embed=np.zeros((vocab, d))
        )
        corpus = C.Corpus(name="u", tokens=np.arange(2000) % 256)
        assert X.perplexity(net, corpus, seq_len=64) == pytest.approx(256.0, abs=1e-9)

    def test_confident_model_approaches_one(self):
        # logits = alpha^2 * e_token: the model predicts the current token,
        # and the corpus repeats one byte, so predictions are always right
        vocab = 16
        alpha = 40.0
        net = M.Network(layers=[], vocab_size=vocab, embed=alpha * np.eye(vocab))
        corpus = C.Corpus(name="c", tokens=np.full(1000, 5))
        assert X.perplexity(net, corpus, seq_len=50) == pytest.approx(1.0, abs=1e-6)

    def test_matches_scalar_reference_implementation(self, rng):
        net = M.make_decoder(vocab_size=64, d=8, hidden=12, blocks=1, seed=2)
        tokens = rng.integers(0, 64, size=2560)
        corpus = C.Corpus(name="r", tokens=tokens)
        seq_len = 64
        got = X.perplexity(net, corpus, seq_len=seq_len)

        # independent log-likelihood loop over the same windows
        ev = corpus.eval_tokens()
        ppls = []
        for w in range(len(ev) // seq_len):
            window = ev[w * seq_len : (w + 1) * seq_len]
            logits = M.forward(net, window)
            total = 0.0
            for t in range(len(window) - 1):
                row = logits[t]
                z = math.fsum(math.exp(v - row.max()) for v in row)
                logp = row[window[t + 1]] - row.max() - math.log(z)
                total += -logp
            ppls.append(math.exp(total / (len(window) - 1)))
        expected = sum(ppls) / len(ppls)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_eval_split_too_small(self):
        corpus = C.Corpus(name="s", tokens=np.arange(100))
        with pytest.raises(InputError):
            X.perplexity(M.make_decoder(vocab_size=256, d=4, hidden=4, blocks=1), corpus, seq_len=64)

    def test_at_least_one(self, tiny_model, tiny_corpora):
        assert X.perplexity(tiny_model, tiny_corpora["prose"], seq_len=48) >= 1.0


class TestBwtCell:
    def test_equal_inputs_zero(self):
        assert X.bwt_cell(12.5, 12.5) == 0.0

    def test_subtraction(self):
        assert X.bwt_cell(13.1, 12.5) == pytest.approx(0.6)

    def test_negative_not_clamped(self):
        assert X.bwt_cell(11.9, 12.5) == pytest.approx(-0.6)

    def test_grid_produces_bwt_only_for_earlier_datasets(self):
        pi = ("A", "B", "C")
        cells = [cell(pi, s, d, 10.0 + s + 0.1 * i)
                 for s in (1, 2, 3) for i, d in enumerate(pi)]
        report = X.aggregate(cells)
        coords = {(b.step, b.eval_dataset) for b in report.bwt_entries}
        assert coords == {(2, "A"), (3, "A"), (3, "B")}


class TestAggregate:
    def test_all_equal_cells(self):
        pi1, pi2 = ("A", "B"), ("B", "A")
        cells = [cell(p, s, d, 7.5) for p in (pi1, pi2) for s in (1, 2) for d in ("A", "B")]
        report = X.aggregate(cells)
        assert report.a_ppl == report.m_ppl == 7.5
        assert report.a_bwt == report.m_bwt == 0.0

    def test_hand_computed_fixture(self):
        fixture = json.loads((DATA / "aggregate_fixture.json").read_text())
        cells = [
            cell(c["permutation"], c["step"], c["eval_dataset"], c["perplexity"])
            for c in fixture["cells"]
        ]
        report = X.aggregate(cells)
        exp = fixture["expected"]
        assert abs(report.a_bwt - exp["a_bwt"]) <= 1e-12
        assert abs(report.m_bwt - exp["m_bwt"]) <= 1e-12
        assert abs(report.a_ppl - exp["a_ppl"]) <= 1e-12
        assert abs(report.m_ppl - exp["m_ppl"]) <= 1e-12
        for ds, stats in exp["per_dataset"].items():
            for key, val in stats.items():
                assert abs(report.per_dataset[ds][key] - val) <= 1e-12

    def test_missing_cell_is_completeness_error(self):
        fixture = json.loads((DATA / "aggregate_fixture.json").read_text())
        cells = [
            cell(c["permutation"], c["step"], c["eval_dataset"], c["perplexity"])
            for c in fixture["cells"]
        ][:-1]
        with pytest.raises(CompletenessError) as exc:
            X.aggregate(
                cells,
                permutations=[("A", "B"), ("B", "A")],
                datasets=["A", "B"],
            )
        assert "B>A" in str(exc.value) and "step 2" in str(exc.value)

    def test_mean_bounded_by_max(self, rng):
        pi1, pi2 = ("A", "B"), ("B", "A")
        for _ in range(20):
            cells = [
                cell(p, s, d, float(rng.uniform(1, 50)))
                for p in (pi1, pi2) for s in (1, 2) for d in ("A", "B")
            ]
            report = X.aggregate(cells)
            assert report.a_ppl <= report.m_ppl
            assert report.a_bwt <= report.m_bwt

    def test_dense_grid_has_identically_zero_bwt(self):
        # a model that never changes yields equal perplexities at all steps
        pi1, pi2 = ("A", "B"), ("B", "A")
        fixed = {"A": 9.25, "B": 17.5}
        cells = [cell(p, s, d, fixed[d]) for p in (pi1, pi2) for s in (1, 2) for d in ("A", "B")]
        report = X.aggregate(cells)
        assert report.a_bwt == 0.0 and report.m_bwt == 0.0
        assert all(b.value == 0.0 for b in report.bwt_entries)

    def test_single_dataset_has_no_bwt(self):
        report = X.aggregate([cell(("A",), 1, "A", 3.0)])
        assert report.a_bwt is None and report.m_bwt is None


class TestSerialization:
    def fixture_report(self):
        fixture = json.loads((DATA / "aggregate_fixture.json").read_text())
        cells = [
            cell(c["permutation"], c["step"], c["eval_dataset"], c["perplexity"])
            for c in fixture["cells"]
        ]
        return X.aggregate(cells)

    def test_roundtrip_recomputes_identical_aggregates(self):
        # the serialized cells alone carry everything the aggregates need
        report = self.fixture_report()
        data = json.loads(json.dumps(X.report_to_dict(report)))
        back = X.aggregate(
            [cell(c["permutation"], c["step"], c["eval_dataset"], c["perplexity"]) for c in data["cells"]]
        )
        assert back.a_ppl == report.a_ppl
        assert back.m_ppl == report.m_ppl
        assert back.a_bwt == report.a_bwt
        assert back.m_bwt == report.m_bwt
        assert back.per_dataset == report.per_dataset
        assert data["aggregates"] == {
            "a_ppl": report.a_ppl, "m_ppl": report.m_ppl,
            "a_bwt": report.a_bwt, "m_bwt": report.m_bwt,
        }
