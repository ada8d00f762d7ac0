"""Mixture assembly: probabilities and masking."""

import numpy as np
import pytest

import mixlm.mixture as mixture_mod
from mixlm.counts import CountError, accumulate
from mixlm.mixture import (
    ContextDistributions,
    MixtureError,
    context_distributions,
    full_distribution,
    word_probability,
)
from mixlm.smoothing import SmoothingSpec, heuristic_lambda

from helpers import encode, synthetic_lines, toy_corpus


class ArrayColumn:
    """A column given by its support arrays: what the mixture reads of a
    count-store column, without a count store."""

    def __init__(self, words, probs):
        self.words, self.probs = words, probs

    def prob_of(self, word: int) -> float:
        i = int(np.searchsorted(self.words, word))
        return float(self.probs[i]) if i < len(self.words) and self.words[i] == word else 0.0


def sparse(entries: dict) -> ArrayColumn:
    words = np.array(sorted(entries), dtype=np.int64)
    return ArrayColumn(words, np.array([entries[w] for w in words]))


def masked_col() -> ArrayColumn:
    return ArrayColumn(np.zeros(0, dtype=np.int64), np.zeros(0))


def random_dists(rng, n_cols, J, identity=False):
    cols = []
    for _ in range(n_cols):
        support = rng.choice(J, size=rng.integers(1, J + 1), replace=False)
        probs = rng.dirichlet(np.ones(len(support)))
        cols.append(sparse(dict(zip(support.tolist(), probs))))
    return ContextDistributions(cols, J, has_identity_block=identity)


def random_lambda(rng, dists):
    return rng.dirichlet(np.ones(dists.weight_length))


class TestWordProbability:
    def test_identity_columns(self):
        dists = ContextDistributions([sparse({0: 1.0}), sparse({1: 1.0})], 2)
        assert word_probability(dists, np.array([0.3, 0.7]), 1) == pytest.approx(0.7)

    def test_dot_product_by_hand(self):
        dists = ContextDistributions([sparse({3: 0.5, 0: 0.5}), sparse({3: 0.25, 1: 0.75})], 4)
        p = word_probability(dists, np.array([0.5, 0.5]), 3)
        assert p == pytest.approx(0.375)

    def test_masked_column_contributes_nothing(self):
        dists = ContextDistributions([masked_col(), sparse({2: 0.2, 0: 0.8})], 3)
        p = word_probability(dists, np.array([0.0, 1.0]), 2)
        assert p == pytest.approx(0.2)
        # weight on a masked column adds no mass: its support is empty
        lam = np.array([0.5, 0.5])
        assert word_probability(dists, lam, 2) == pytest.approx(0.1)
        assert word_probability(dists, lam, 1) == 0.0
        np.testing.assert_allclose(full_distribution(dists, lam), [0.4, 0.0, 0.1])
        assert [len(c.words) > 0 for c in dists.columns] == [False, True]

    def test_identity_block_entry(self):
        dists = ContextDistributions([sparse({0: 1.0})], 3, has_identity_block=True)
        lam = np.array([0.4, 0.1, 0.2, 0.3])  # count col + 3 identity entries
        assert word_probability(dists, lam, 2) == pytest.approx(0.3)
        assert word_probability(dists, lam, 0) == pytest.approx(0.4 + 0.1)

    def test_word_out_of_range(self):
        dists = ContextDistributions([sparse({0: 1.0})], 2)
        with pytest.raises(MixtureError):
            word_probability(dists, np.array([1.0]), 5)

    def test_weight_length_checked(self):
        dists = ContextDistributions([sparse({0: 1.0})], 2)
        with pytest.raises(MixtureError):
            word_probability(dists, np.array([0.5, 0.5]), 0)

    def test_evaluation_touches_only_column_entries(self, monkeypatch):
        """Per-word cost is K column lookups, independent of J."""
        J = 1000
        rng = np.random.default_rng(0)
        dists = random_dists(rng, 4, J, identity=True)
        lam = random_lambda(rng, dists)
        calls = {"n": 0}
        orig = ArrayColumn.prob_of

        def counting(self, word):
            calls["n"] += 1
            return orig(self, word)

        monkeypatch.setattr(ArrayColumn, "prob_of", counting)
        word_probability(dists, lam, 17)
        assert calls["n"] <= 4


class TestFullDistribution:
    def test_identity_only_recovers_weights(self):
        dists = ContextDistributions([], 4, has_identity_block=True)
        lam = np.array([0.1, 0.2, 0.3, 0.4])
        np.testing.assert_allclose(full_distribution(dists, lam), lam)

    def test_all_mass_on_one_column(self):
        col = sparse({0: 0.25, 2: 0.75})
        dists = ContextDistributions([col, sparse({1: 1.0})], 3)
        np.testing.assert_allclose(full_distribution(dists, np.array([1.0, 0.0])),
                                   [0.25, 0.0, 0.75])

    def test_sums_to_one_fuzzed(self):
        rng = np.random.default_rng(7)
        for trial in range(50):
            dists = random_dists(rng, int(rng.integers(1, 5)), int(rng.integers(2, 12)),
                                 identity=bool(rng.integers(0, 2)))
            lam = random_lambda(rng, dists)
            dense = full_distribution(dists, lam)
            assert dense.sum() == pytest.approx(1.0, abs=1e-6), trial
            assert np.all(dense >= 0)

    def test_agrees_with_word_probability(self):
        rng = np.random.default_rng(8)
        dists = random_dists(rng, 3, 9, identity=True)
        lam = random_lambda(rng, dists)
        dense = full_distribution(dists, lam)
        for w in range(9):
            assert word_probability(dists, lam, w) == pytest.approx(dense[w], abs=1e-12)

    def test_toy_kn_heuristic_mixture_sums_to_one(self):
        corpus = toy_corpus()
        table = accumulate(corpus, 2)
        spec = SmoothingSpec.kn(table, 2)
        a = corpus.vocab.id_of("a")
        view = table.view()
        dists = context_distributions(view, spec, (a,))
        alphas = [spec.fallback(view, (a,))]
        lam = heuristic_lambda(alphas)
        assert full_distribution(dists, lam).sum() == pytest.approx(1.0, abs=1e-9)


class TestContextDistributionsBuilder:
    def test_builds_one_column_per_order(self):
        corpus = encode(synthetic_lines(30, n_words=8, seed=3))
        table = accumulate(corpus, 3)
        spec = SmoothingSpec.kn(table, 3)
        view = table.view()
        ranks, words, _ = view.bulk_ranks(corpus)
        sent = corpus.sentences[0]
        bos = corpus.vocab.bos_id
        ctx = (bos, int(sent[0]))
        dists = context_distributions(view, spec, ctx)
        assert len(dists.columns) == 3
        assert all(len(c.words) for c in dists.columns)  # training context: all observed
        lam = heuristic_lambda([spec.fallback(view, ctx), spec.fallback(view, ctx[1:])])
        assert full_distribution(dists, lam).sum() == pytest.approx(1.0, abs=1e-9)

    def test_unseen_context_masks_high_orders(self):
        corpus = toy_corpus()
        table = accumulate(corpus, 3)
        v = corpus.vocab
        spec = SmoothingSpec.ml(3)
        # context (c, b) never occurs; (b,) alone does
        dists = context_distributions(table.view(), spec, (v.id_of("c"), v.id_of("b")))
        assert [len(c.words) > 0 for c in dists.columns] == [True, True, False]

    def test_out_of_range_context_id_rejected(self):
        """An id past the bos id J (or below 0) would alias another context's column."""
        corpus = encode(["a b a", "a c", "a b", "d a"])
        view = accumulate(corpus, 3).view()
        b = corpus.vocab.id_of("b")
        for bad in (corpus.vocab.bos_id + 3, -1):
            with pytest.raises(CountError, match="context ids"):
                context_distributions(view, SmoothingSpec.ml(3), (bad, b))
