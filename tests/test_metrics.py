import json
import math
from pathlib import Path

import numpy as np
import pytest

from contprune import corpus as C
from contprune import metrics as X
from contprune import model as M
from contprune.errors import InputError, NumericalError

from conftest import paths_from_cells, vocabulary_sequence

DATA = Path(__file__).parent / "data"


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


def window_loop_perplexity(net, tokens, seq_len):
    """The reference: one ``forward`` per eval window."""
    ppls = []
    for w in range(len(tokens) // seq_len):
        window = tokens[w * seq_len : (w + 1) * seq_len]
        logits = M.forward(net, window)
        zmax = logits.max(axis=1, keepdims=True)
        logz = zmax[:, 0] + np.log(np.exp(logits - zmax).sum(axis=1))
        logp = logits[np.arange(seq_len - 1), window[1:]] - logz
        ppls.append(np.exp(-logp.mean()))
    return float(np.mean(ppls))


def with_nonfinite_row(monkeypatch, token):
    """Make every row of ``forward`` whose input token is ``token`` infinite."""
    real = X.forward

    def forward(net, tokens):
        logits = real(net, tokens)
        logits[np.asarray(tokens)[:-1] == token] = np.inf
        return logits

    monkeypatch.setattr(X, "forward", forward)


class TestVocabularyTable:
    """``perplexity`` gathers from the rows of the tokens its windows read;
    the window loop over ``model.forward`` is the oracle, and every check of
    that loop holds."""

    @pytest.mark.parametrize("act", ["relu", "gelu", "tanh"])
    def test_matches_window_loop_over_forward(self, rng, act):
        net = M.make_decoder(vocab_size=64, d=8, hidden=12, blocks=2, act=act, seed=4)
        corpus = C.Corpus(name="r", tokens=rng.integers(0, 64, size=3003))
        ev = corpus.eval_tokens()
        seq_len = 37
        assert len(ev) % seq_len != 0
        got = X.perplexity(net, corpus, seq_len=seq_len)
        assert got == pytest.approx(window_loop_perplexity(net, ev, seq_len), rel=1e-12)

    @pytest.mark.parametrize("bad", [-1, 64])
    def test_out_of_range_eval_token_rejected(self, rng, bad):
        # a gather would wrap -1 to the last row instead of failing
        tokens = rng.integers(0, 64, size=2000)
        tokens[-10] = bad
        net = M.make_decoder(vocab_size=64, d=4, hidden=4, blocks=1)
        with pytest.raises(InputError, match="out of range"):
            X.perplexity(net, C.Corpus(name="b", tokens=tokens), seq_len=16)

    @pytest.mark.parametrize("seq_len", [1, 0])
    def test_seq_len_below_two_rejected(self, seq_len):
        net = M.make_decoder(vocab_size=64, d=4, hidden=4, blocks=1)
        corpus = C.Corpus(name="s", tokens=np.arange(1000) % 64)
        with pytest.raises(InputError, match="seq_len"):
            X.perplexity(net, corpus, seq_len=seq_len)

    def test_nonfinite_row_names_the_first_window_reading_it(self, monkeypatch):
        net = M.make_decoder(vocab_size=64, d=4, hidden=4, blocks=1)
        ev = np.zeros(40, dtype=np.int64)
        ev[9] = 7  # last token of window 0: predicted, never read
        ev[22] = 7  # inside window 2
        corpus = C.Corpus(name="n", tokens=np.concatenate([np.zeros(160, np.int64), ev]))
        assert np.array_equal(corpus.eval_tokens(), ev)
        with_nonfinite_row(monkeypatch, 7)
        with pytest.raises(NumericalError, match="window 2 of 'n'"):
            X.perplexity(net, corpus, seq_len=10)

    def test_nonfinite_row_no_window_reads_is_ignored(self, monkeypatch, rng):
        net = M.make_decoder(vocab_size=64, d=4, hidden=4, blocks=1)
        tokens = rng.integers(0, 63, size=2000)
        corpus = C.Corpus(name="i", tokens=tokens)
        want = X.perplexity(net, corpus, seq_len=16)
        with_nonfinite_row(monkeypatch, 63)
        assert X.perplexity(net, corpus, seq_len=16) == want


def per_corpus_loop(net, corpora, seq_len):
    """The reference for ``perplexities``: one ``perplexity`` call per
    corpus, in name order."""
    return {name: X.perplexity(net, corpora[name], seq_len) for name in sorted(corpora)}


def outcome(fn):
    """``fn()``'s value, or the type and message of what it raised."""
    try:
        return fn()
    except Exception as exc:  # compared, never swallowed: both sides must match
        return (type(exc), str(exc))


def eval_windows(corpus, seq_len):
    """The eval split as (n_windows, seq_len) windows, unchecked."""
    ev = corpus.eval_tokens()
    n_windows = len(ev) // seq_len
    return ev[: n_windows * seq_len].astype(np.int64).reshape(n_windows, seq_len)


def gathered_perplexity(logits, rows, windows):
    """Mean window perplexity gathered from ``logits``, whose row ``rows[a]``
    follows token ``a``, with the log-softmax that allocates a second array
    for ``exp`` instead of taking it in place; no checks."""
    zmax = logits.max(axis=1, keepdims=True)
    logz = zmax[:, 0] + np.log(np.exp(logits - zmax).sum(axis=1))
    prev, targets = rows[windows[:, :-1]], windows[:, 1:]
    return float(np.exp(-(logits[prev, targets] - logz[prev]).mean(axis=1)).mean())


def two_temporary_perplexities(net, corpora, seq_len):
    """``perplexities`` from a forward on each corpus's distinct read tokens,
    with the two-temporary log-softmax."""
    out = {}
    for name in sorted(corpora):
        windows = eval_windows(corpora[name], seq_len)
        read = np.unique(windows[:, :-1])
        rows = np.zeros(net.vocab_size, dtype=np.int64)
        rows[read] = np.arange(read.size)
        out[name] = gathered_perplexity(M.forward(net, np.append(read, 0)), rows, windows)
    return out


def full_table_perplexity(net, corpus, seq_len):
    """The reference that reads every window from the full vocabulary table."""
    logits = M.forward(net, vocabulary_sequence(net))
    return gathered_perplexity(logits, np.arange(net.vocab_size), eval_windows(corpus, seq_len))


class TestPerplexities:
    """``perplexities`` runs one forward per corpus, on the tokens its
    windows read, and returns exactly what the per-corpus loop does. It
    checks every corpus's eval windows before any forward, so an InputError
    of any corpus comes ahead of a NumericalError of an earlier one;
    otherwise it raises what the per-corpus loop does."""

    @pytest.fixture()
    def three(self, tiny_dir):
        return {n: C.load_corpus(tiny_dir / f"{n}.bin", n) for n in ("prose", "numeric", "bracket")}

    def test_bit_equal_to_per_corpus_perplexity_with_one_forward_per_corpus(
            self, monkeypatch, tiny_model, three):
        want = per_corpus_loop(tiny_model, three, 48)
        widths = []
        real = X.forward
        monkeypatch.setattr(X, "forward",
                            lambda net, tokens: widths.append(len(tokens) - 1) or real(net, tokens))
        got = X.perplexities(tiny_model, three, 48)
        assert list(got) == ["bracket", "numeric", "prose"]
        assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]
        # one forward per corpus, each on the distinct tokens its windows read
        assert widths == [np.unique(eval_windows(three[n], 48)[:, :-1]).size for n in sorted(three)]

    @pytest.mark.parametrize("masking", ["base", "masked"])
    def test_bit_equal_to_the_two_temporary_log_softmax(self, tiny_model, masked_tiny_model,
                                                        three, masking):
        net = tiny_model if masking == "base" else masked_tiny_model
        want = two_temporary_perplexities(net, three, 48)
        got = X.perplexities(net, three, 48)
        assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]

    @staticmethod
    def corpora_with(evals):
        """Corpora whose eval splits are ``evals`` (name -> 40 tokens)."""
        return {
            name: C.Corpus(name=name, tokens=np.concatenate([np.zeros(160, np.int64), ev]))
            for name, ev in evals.items()
        }

    def test_nonfinite_row_read_by_the_second_corpus_only(self, monkeypatch):
        net = M.make_decoder(vocab_size=64, d=4, hidden=4, blocks=1)
        second = np.zeros(40, dtype=np.int64)
        second[25] = 7  # inside window 2
        corpora = self.corpora_with({"a": np.zeros(40, np.int64) + 3, "b": second})
        with_nonfinite_row(monkeypatch, 7)
        want = outcome(lambda: per_corpus_loop(net, corpora, 10))
        assert want == (NumericalError, "non-finite logits on window 2 of 'b'")
        assert outcome(lambda: X.perplexities(net, corpora, 10)) == want

    @pytest.mark.parametrize("bad_token", [-1, 64])
    def test_bad_token_in_later_corpus_behind_a_nonfinite_row(self, monkeypatch, bad_token):
        net = M.make_decoder(vocab_size=64, d=4, hidden=4, blocks=1)
        first = np.zeros(40, dtype=np.int64)
        first[3] = 7
        later = np.zeros(40, dtype=np.int64)
        later[5] = bad_token
        corpora = self.corpora_with({"a": first, "b": later})
        with_nonfinite_row(monkeypatch, 7)
        assert outcome(lambda: per_corpus_loop(net, corpora, 10)) == (
            NumericalError, "non-finite logits on window 0 of 'a'")
        # the later corpus's token is checked before any table row is read
        want = (InputError, f"token id out of range [0, 64): min={min(bad_token, 0)}, "
                            f"max={max(bad_token, 0)}")
        assert outcome(lambda: X.perplexities(net, corpora, 10)) == want
        # with the earlier corpus clean, the per-corpus loop raises the same
        corpora["a"] = self.corpora_with({"a": np.zeros(40, np.int64)})["a"]
        assert outcome(lambda: per_corpus_loop(net, corpora, 10)) == want
        assert outcome(lambda: X.perplexities(net, corpora, 10)) == want

    @pytest.mark.parametrize("masking", ["base", "masked"])
    @pytest.mark.parametrize("width", [*range(1, 13), 20, 60])
    def test_within_rounding_of_the_full_table(self, tiny_model, masked_tiny_model, masking, width):
        """A forward on ``width`` tokens need not give the bits of the same
        rows of the full vocabulary table: which BLAS kernel a product takes
        depends on its width. On OpenBLAS 0.3.31 with one thread, every
        width taken here gives rows that differ from the table's in their
        last bits at this model's shapes. A perplexity stays within rounding
        of the full-table one."""
        net = tiny_model if masking == "base" else masked_tiny_model
        rng = np.random.default_rng(width)
        read = rng.choice(net.vocab_size, size=width, replace=False)
        ev = rng.permutation(np.resize(read, 480))
        corpus = C.Corpus(name="w", tokens=np.concatenate([np.zeros(1920, np.int64), ev]))
        assert np.unique(eval_windows(corpus, 48)[:, :-1]).size == width
        want = full_table_perplexity(net, corpus, 48)
        assert X.perplexity(net, corpus, 48) == pytest.approx(want, rel=1e-12)


class TestBwtCell:
    def test_equal_inputs_zero(self):
        assert X.bwt_cell(12.5, 12.5) == 0.0

    def test_subtraction(self):
        assert X.bwt_cell(13.1, 12.5) == pytest.approx(0.6)

    def test_negative_not_clamped(self):
        assert X.bwt_cell(11.9, 12.5) == pytest.approx(-0.6)

    def test_grid_produces_bwt_only_for_earlier_datasets(self):
        pi = ("A", "B", "C")
        path = [{d: 10.0 + s + 0.1 * i for i, d in enumerate(pi)} for s in (1, 2, 3)]
        report = X.aggregate({pi: path})
        coords = {(b["step"], b["eval_dataset"]) for b in report["bwt_entries"]}
        assert coords == {(2, "A"), (3, "A"), (3, "B")}


class TestAggregate:
    def test_all_equal_cells(self):
        paths = {pi: [{"A": 7.5, "B": 7.5}] * 2 for pi in (("A", "B"), ("B", "A"))}
        agg = X.aggregate(paths)["aggregates"]
        assert agg["a_ppl"] == agg["m_ppl"] == 7.5
        assert agg["a_bwt"] == agg["m_bwt"] == 0.0

    def test_hand_computed_fixture(self):
        fixture = json.loads((DATA / "aggregate_fixture.json").read_text())
        report = X.aggregate(paths_from_cells(fixture["cells"]))
        agg, exp = report["aggregates"], fixture["expected"]
        assert abs(agg["a_bwt"] - exp["a_bwt"]) <= 1e-12
        assert abs(agg["m_bwt"] - exp["m_bwt"]) <= 1e-12
        assert abs(agg["a_ppl"] - exp["a_ppl"]) <= 1e-12
        assert abs(agg["m_ppl"] - exp["m_ppl"]) <= 1e-12
        for ds, stats in exp["per_dataset"].items():
            for key, val in stats.items():
                assert abs(report["per_dataset"][ds][key] - val) <= 1e-12

    def test_mean_bounded_by_max(self, rng):
        for _ in range(20):
            paths = {pi: [{d: float(rng.uniform(1, 50)) for d in ("A", "B")} for _ in (1, 2)]
                     for pi in (("A", "B"), ("B", "A"))}
            agg = X.aggregate(paths)["aggregates"]
            assert agg["a_ppl"] <= agg["m_ppl"]
            assert agg["a_bwt"] <= agg["m_bwt"]

    def test_dense_grid_has_identically_zero_bwt(self):
        # a model that never changes yields equal perplexities at all steps
        fixed = {"A": 9.25, "B": 17.5}
        report = X.aggregate({pi: [fixed] * 2 for pi in (("A", "B"), ("B", "A"))})
        assert report["aggregates"]["a_bwt"] == 0.0 and report["aggregates"]["m_bwt"] == 0.0
        assert all(b["value"] == 0.0 for b in report["bwt_entries"])

    def test_single_dataset_has_no_bwt(self):
        agg = X.aggregate({("A",): [{"A": 3.0}]})["aggregates"]
        assert agg["a_bwt"] is None and agg["m_bwt"] is None


class TestSerialization:
    def test_roundtrip_recomputes_identical_aggregates(self):
        # the serialized cells alone carry everything the report needs
        fixture = json.loads((DATA / "aggregate_fixture.json").read_text())
        report = X.aggregate(paths_from_cells(fixture["cells"]))
        data = json.loads(json.dumps(report))
        back = X.aggregate(paths_from_cells(data["cells"]))
        assert back == report == data
        # the cells come back in the fixture's order, each naming its step's dataset
        assert [{k: v for k, v in c.items() if k != "pruned_dataset"}
                for c in report["cells"]] == fixture["cells"]
        assert [c["pruned_dataset"] for c in report["cells"]] == [
            c["permutation"][c["step"] - 1] for c in fixture["cells"]]
        agg = report["aggregates"]
        assert back["aggregates"]["a_ppl"] == agg["a_ppl"]
        assert back["aggregates"]["m_ppl"] == agg["m_ppl"]
        assert back["aggregates"]["a_bwt"] == agg["a_bwt"]
        assert back["aggregates"]["m_bwt"] == agg["m_bwt"]
        assert back["per_dataset"] == report["per_dataset"]
        assert data["aggregates"] == {
            "a_ppl": agg["a_ppl"], "m_ppl": agg["m_ppl"],
            "a_bwt": agg["a_bwt"], "m_bwt": agg["m_bwt"],
        }
