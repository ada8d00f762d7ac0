"""Count features fed to the weighting networks."""

import numpy as np
import pytest

from mixlm.corpus import encode_corpus
from mixlm.counts import accumulate, cv_fold_counts
from mixlm.neural.features import (
    bulk_context_features,
    context_features,
    feature_width,
    normalize_features,
)
from mixlm.smoothing import Discounts, SmoothingSpec

from helpers import encode, fold_out_tables, synthetic_lines, toy_corpus


class TestScalarFeatures:
    def setup_method(self):
        self.corpus = toy_corpus()
        self.v = self.corpus.vocab
        self.table = accumulate(self.corpus, 2)
        self.view = self.table.view()

    def test_toy_bigram_block(self):
        spec = SmoothingSpec.ml(2)
        f = context_features(self.view, (self.v.id_of("a"),), spec)
        # order 1 block: seen, 7 tokens, 4 distinct; order 2 block: c("a")=3, u("a")=3
        np.testing.assert_allclose(
            f, [1.0, np.log(7), np.log(4), 1.0, np.log(3), np.log(3)])

    def test_unigram_block_alone(self):
        spec = SmoothingSpec.ml(2)
        f = context_features(self.view, (), spec)
        np.testing.assert_allclose(f, [1.0, np.log(7), np.log(4)])

    def test_unobserved_context_block_is_zero(self):
        spec = SmoothingSpec.ml(2)
        f = context_features(self.view, (self.v.unk_id,), spec)
        np.testing.assert_allclose(f[3:], [0.0, 0.0, 0.0])
        np.testing.assert_allclose(f[:3], [1.0, np.log(7), np.log(4)])

    def test_discount_feature_added_for_kn(self):
        half = Discounts(0.5, 0.5, 0.5)
        spec = SmoothingSpec(2, (None, half, half))
        f = context_features(self.view, (self.v.id_of("a"),), spec)
        assert len(f) == 8
        # order 1 uses continuation counts: total 6, counts {2,1,1,2} -> kept 6-2*0.5-2*0.5=4
        assert f[3] == pytest.approx(np.log(4.0))
        # order 2 top order uses raw counts: total 3, three singletons -> kept 1.5
        assert f[7] == pytest.approx(np.log(1.5))

    def test_feature_width(self):
        assert feature_width(SmoothingSpec.ml(3)) == 9
        assert feature_width(SmoothingSpec.kn(self.table, 2)) == 8


class TestBulkFeatures:
    ORDER, FOLDS = 3, 4

    def setup_method(self):
        lines = synthetic_lines(40, n_words=9, seed=29)
        self.train = encode(lines)
        self.folded = cv_fold_counts(self.train, self.ORDER, folds=self.FOLDS)
        self.table = self.folded.table
        self.held = encode_corpus(synthetic_lines(6, n_words=9, seed=71), self.train.vocab)

    def _compare(self, spec, corpus, folds_array=None):
        """Bulk rows against scalar features; with folds, of the store counted
        without each position's fold, by context."""
        view = self.folded.view()
        ranks, words, sent_of = view.bulk_ranks(corpus)
        folds = None if folds_array is None else folds_array[sent_of]
        bulk = bulk_context_features(view, spec, ranks, folds=folds)
        if folds is not None:
            rviews = [table.view() for table in fold_out_tables(self.train, self.ORDER,
                                                                self.FOLDS)]
        bos = corpus.vocab.bos_id
        t = 0
        for sent in corpus.sentences:
            padded = [bos] * (self.ORDER - 1) + [int(x) for x in sent]
            for i in range(self.ORDER - 1, len(padded)):
                ctx = tuple(padded[i - self.ORDER + 1:i])
                sview = rviews[folds[t]] if folds is not None else view
                ref = context_features(sview, ctx, spec)
                np.testing.assert_allclose(bulk[t], ref, atol=1e-12, err_msg=str(ctx))
                t += 1

    def test_ml_features_match_scalar(self):
        self._compare(SmoothingSpec.ml(self.ORDER), self.train)

    def test_kn_features_match_scalar_on_held_out(self):
        self._compare(SmoothingSpec.kn(self.table, self.ORDER), self.held)

    def test_fold_views_change_own_fold_features(self):
        """Feature rows must leave out the fold of the position's sentence."""
        spec = SmoothingSpec.ml(self.ORDER)
        self._compare(spec, self.train, folds_array=self.folded.fold_assignment)
        self._compare(SmoothingSpec.kn(self.table, self.ORDER), self.train,
                      folds_array=self.folded.fold_assignment)
        view = self.folded.view()
        ranks, words, sent_of = view.bulk_ranks(self.train)
        folds = self.folded.fold_assignment[sent_of]
        with_cv = bulk_context_features(view, spec, ranks, folds=folds)
        without = bulk_context_features(view, spec, ranks)
        assert np.any(with_cv != without)

    def test_unseen_context_rows_are_zero_blocks(self):
        spec = SmoothingSpec.ml(self.ORDER)
        view = self.folded.view()
        ranks, words, _ = view.bulk_ranks(self.held)
        bulk = bulk_context_features(view, spec, ranks)
        miss = ranks[:, 2] < 0
        if np.any(miss):
            np.testing.assert_array_equal(bulk[miss][:, 6:], 0.0)


class TestNormalization:
    def test_mean_subtraction(self):
        f = np.array([[1.0, 2.0], [3.0, 4.0]])
        mean = f.mean(axis=0)
        out = normalize_features(f, mean)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)

    def test_features_equal_to_mean_become_zero(self):
        mean = np.array([0.5, -1.0])
        np.testing.assert_allclose(normalize_features(mean.copy(), mean), 0.0)

    def test_zero_mean_is_identity(self):
        f = np.array([1.0, 2.0])
        np.testing.assert_array_equal(normalize_features(f, np.zeros(2)), f)

    def test_training_mean_of_normalized_features_is_zero(self):
        corpus = encode(synthetic_lines(30, n_words=8, seed=57))
        table = accumulate(corpus, 3)
        view = table.view()
        spec = SmoothingSpec.kn(table, 3)
        ranks, _, _ = view.bulk_ranks(corpus)
        feats = bulk_context_features(view, spec, ranks)
        mean = feats.mean(axis=0)
        np.testing.assert_allclose(normalize_features(feats, mean).mean(axis=0),
                                   0.0, atol=1e-9)
