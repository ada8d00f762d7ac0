"""Distribution columns, discount estimation, and heuristic interpolation."""

import numpy as np
import pytest

from mixlm.corpus import encode_corpus
from mixlm.counts import ContextStats, accumulate, cv_fold_counts
from mixlm.mixture import context_distributions, full_distribution
from mixlm.smoothing import (
    Discounts,
    SmoothingSpec,
    bulk_column_rows,
    column_terms,
    discounted_distribution,
    discounts_from_count_of_counts,
    heuristic_lambda,
    ml_distribution,
    witten_bell_fallback,
)

from helpers import (PARITY_CASES, encode, fold_out_tables, parity_corpora, parity_id,
                     synthetic_lines, toy_corpus)


def flat(y):
    """One discount for every count level."""
    return Discounts(y, y, y)


def single_discount_spec(table, order):
    """KN with the single discount Y = n1/(n1+2*n2) of each order for every
    count level, given explicitly."""
    ds = [None]
    for n in range(1, order + 1):
        n1, n2, _, _ = table.count_of_counts(n, continuation=n < order)
        ds.append(flat(n1 / (n1 + 2.0 * n2) if n1 else 0.0))
    return SmoothingSpec(order, tuple(ds))


def recursive_prob(view, spec, context, word):
    """Reference: direct recursive interpolation, one order at a time.

    P_1 = column_1(word); P_n = (1-alpha_n)*column_n(word) + alpha_n*P_{n-1}.
    """
    p = spec.column(view, ()).prob_of(word)
    for n in range(2, len(context) + 2):
        ctx = context[len(context) - (n - 1):]
        alpha = spec.fallback(view, ctx)
        p = (1.0 - alpha) * spec.column(view, ctx).prob_of(word) + alpha * p
    return p


def mixture_prob(view, spec, context, word):
    """Same quantity assembled as weighted columns with product-form weights."""
    alphas = [spec.fallback(view, context[len(context) - (n - 1):])
              for n in range(len(context) + 1, 1, -1)]
    lam = heuristic_lambda(alphas)
    cols = [spec.column(view, context[len(context) - (n - 1):]).prob_of(word)
            for n in range(1, len(context) + 2)]
    return float(np.dot(lam, cols))


class TestMLDistribution:
    def setup_method(self):
        self.corpus = toy_corpus()
        self.v = self.corpus.vocab
        self.view = accumulate(self.corpus, 2).view()

    def test_context_a(self):
        a = self.v.id_of("a")
        dist = ml_distribution(self.view, (a,))
        expect = sorted([self.v.id_of("b"), self.v.id_of("c"), self.v.eos_id])
        np.testing.assert_array_equal(dist.words, expect)
        np.testing.assert_allclose(dist.probs, [1 / 3] * 3)

    def test_empty_context(self):
        dist = ml_distribution(self.view, ())
        assert dist.prob_of(self.v.id_of("a")) == pytest.approx(3 / 7)
        assert dist.prob_of(self.v.id_of("b")) == pytest.approx(1 / 7)
        assert dist.prob_of(self.v.eos_id) == pytest.approx(2 / 7)
        assert dist.probs.sum() == pytest.approx(1.0)

    def test_unobserved_context_masked(self):
        dist = ml_distribution(self.view, (self.v.unk_id,))
        assert len(dist.words) == 0
        assert dist.probs.sum() == 0.0


class TestDiscountedDistribution:
    def setup_method(self):
        self.corpus = toy_corpus()
        self.v = self.corpus.vocab
        self.view = accumulate(self.corpus, 2).view()

    def beta(self, context, d):
        """The fallback mass of a context whose order has discount ``d``."""
        order = len(context) + 1
        return SmoothingSpec(order, (None,) + (d,) * order).fallback(self.view, context)

    def test_half_discount_on_singletons(self):
        a = self.v.id_of("a")
        dist = discounted_distribution(self.view, (a,), flat(0.5))
        assert self.beta((a,), flat(0.5)) == pytest.approx(0.5)
        np.testing.assert_allclose(dist.probs, [1 / 3] * 3)

    def test_zero_discount_is_ml(self):
        a = self.v.id_of("a")
        dist = discounted_distribution(self.view, (a,), flat(0.0))
        ml = ml_distribution(self.view, (a,))
        assert self.beta((a,), flat(0.0)) == 0.0
        np.testing.assert_array_equal(dist.words, ml.words)
        np.testing.assert_allclose(dist.probs, ml.probs)

    def test_unobserved_context(self):
        dist = discounted_distribution(self.view, (self.v.unk_id,), flat(0.5))
        assert len(dist.words) == 0 and self.beta((self.v.unk_id,), flat(0.5)) == 1.0

    def test_full_discount_degenerates_to_uniform_over_successors(self):
        a = self.v.id_of("a")
        dist = discounted_distribution(self.view, (a,), flat(1.0))
        assert self.beta((a,), flat(1.0)) == 1.0
        np.testing.assert_allclose(dist.probs, [1 / 3] * 3)
        # the shared arithmetic passes all the mass down, as a scalar and inside an array
        _, alpha = column_terms(flat(1.0), 3.0, ContextStats(3, 3, 0, 0))
        assert alpha == 1.0
        stats = ContextStats(np.array([3, 3]), np.array([3, 1]), np.array([0, 1]), np.array([0, 0]))
        _, alphas = column_terms(flat(1.0), np.array([3.0, 3.0]), stats)
        np.testing.assert_array_equal(alphas, [1.0, 2 / 3])

    def test_oversized_discount_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            Discounts(1.0, 2.0, 5.0)

    @pytest.mark.parametrize("levels", [(1.5, 0.0, 0.0), (0.0, 2.5, 0.0), (0.0, 0.0, 3.5),
                                        (-0.1, 0.0, 0.0)], ids=["d1", "d2", "d3p", "negative"])
    def test_discount_outside_its_level_rejected(self, levels):
        """Each discount lies in [0, its count level], checked on construction,
        whether or not a count of that level is ever read."""
        with pytest.raises(ValueError, match="outside"):
            Discounts(*levels)
        Discounts(1.0, 2.0, 3.0)  # the top of every level is allowed

    def test_oversized_discount_rejected_from_dict(self):
        data = SmoothingSpec.kn(accumulate(self.corpus, 2), 2).to_dict()
        data["discounts"][2] = [0.5, 0.5, 3.5]
        with pytest.raises(ValueError, match="outside"):
            SmoothingSpec.from_dict(data)


class TestKNDistribution:
    def setup_method(self):
        self.corpus = toy_corpus()
        self.v = self.corpus.vocab
        self.view = accumulate(self.corpus, 2).view()
        self.spec = SmoothingSpec(2, (None, flat(0.0), flat(0.0)))

    def test_empty_context_uses_continuation_counts(self):
        dist = self.spec.column(self.view, ())
        # distinct left extensions: a has {<s>, b}, eos has {a, c}, b and c have {a}
        assert dist.prob_of(self.v.id_of("a")) == pytest.approx(2 / 6)
        assert dist.prob_of(self.v.id_of("b")) == pytest.approx(1 / 6)
        assert dist.prob_of(self.v.id_of("c")) == pytest.approx(1 / 6)
        assert dist.prob_of(self.v.eos_id) == pytest.approx(2 / 6)

    def test_zero_discount_top_order_is_ml(self):
        a = self.v.id_of("a")
        got = self.spec.column(self.view, (a,))
        ml = ml_distribution(self.view, (a,))
        np.testing.assert_array_equal(got.words, ml.words)
        np.testing.assert_allclose(got.probs, ml.probs)


def position_contexts(corpus, order):
    """The distinct bos-padded length-(order-1) contexts of a corpus's positions."""
    bos = corpus.vocab.bos_id
    out = set()
    for sent in corpus.sentences:
        padded = [bos] * (order - 1) + [int(x) for x in sent]
        out.update(tuple(padded[i - order + 1:i]) for i in range(order - 1, len(padded)))
    return sorted(out)


class TestSumToOne:
    """Every column and every heuristic mixture is a distribution, on the
    full table and with each fold left out, on training and held-out contexts."""

    @pytest.fixture(autouse=True, params=PARITY_CASES, ids=parity_id)
    def case(self, request):
        self.ORDER, self.FOLDS, seed = request.param
        self.train, self.held = parity_corpora(seed)
        self.folded = cv_fold_counts(self.train, self.ORDER, folds=self.FOLDS)
        table = self.folded.table
        self.specs = [SmoothingSpec.ml(self.ORDER), SmoothingSpec.kn(table, self.ORDER),
                      single_discount_spec(table, self.ORDER)]

    def _check(self, view, contexts, observed=frozenset()):
        """Sums to 1 everywhere; no column masked for an ``observed`` context."""
        for spec in self.specs:
            for ctx in contexts:
                dists = context_distributions(view, spec, ctx)
                assert ctx not in observed or all(len(c.words) for c in dists.columns), (spec, ctx)
                for col in dists.columns:
                    assert np.all(col.probs >= 0), (spec, ctx)
                    assert len(col.words) == 0 or abs(col.probs.sum() - 1.0) <= 1e-9, (spec, ctx)
                lam = heuristic_lambda([spec.fallback(view, ctx[len(ctx) - (n - 1):])
                                        for n in range(self.ORDER, 1, -1)])
                mixed = full_distribution(dists, lam)
                assert np.all(mixed >= 0) and abs(mixed.sum() - 1.0) <= 1e-9, (spec, ctx)

    def test_full_view(self):
        train = position_contexts(self.train, self.ORDER)
        self._check(self.folded.view(), train + position_contexts(self.held, self.ORDER),
                    observed=set(train))

    def test_fold_views(self):
        """The bulk rows of every context over all J words, with one fold left
        out: valid columns sum to 1, masked ones are 0, and so is the heuristic
        mixture a distribution."""
        view = self.folded.view()
        contexts = (position_contexts(self.train, self.ORDER)
                    + position_contexts(self.held, self.ORDER))
        J = view.vocab_size
        chains = np.array([view.rank_chain(ctx) for ctx in contexts])
        ranks, words = np.repeat(chains, J, axis=0), np.tile(np.arange(J), len(contexts))
        for spec in self.specs:
            for f in range(self.FOLDS):
                probs, alphas, valid = bulk_column_rows(view, spec, ranks, words,
                                                        folds=np.full(len(words), f))
                probs = probs.reshape(len(contexts), J, self.ORDER)
                alphas, valid = alphas[::J], valid[::J]  # one row per context
                assert np.all(probs >= 0), (spec, f)
                sums = probs.sum(axis=1)
                assert np.all(np.abs(sums[valid] - 1.0) <= 1e-9), (spec, f)
                assert np.all(probs.transpose(0, 2, 1)[~valid] == 0.0), (spec, f)
                for c, ctx in enumerate(contexts):
                    mixed = probs[c] @ heuristic_lambda(alphas[c, :0:-1])
                    assert np.all(mixed >= 0) and abs(mixed.sum() - 1.0) <= 1e-9, (spec, f, ctx)


class TestLazyColumns:
    """A column's ``prob_of`` (one count lookup) equals its whole-support
    ``probs`` bit for bit, and 0 off the support, for ML and KN columns on
    raw and continuation counts.  Columns read a store in full, so the
    inputs are the full store and each store counted without one fold."""

    @pytest.fixture(autouse=True, params=PARITY_CASES, ids=parity_id)
    def case(self, request):
        self.ORDER, self.FOLDS, seed = request.param
        train, held = parity_corpora(seed)
        self.folded = cv_fold_counts(train, self.ORDER, folds=self.FOLDS)
        self.reduced = fold_out_tables(train, self.ORDER, self.FOLDS)
        longest = position_contexts(train, self.ORDER) + position_contexts(held, self.ORDER)
        self.contexts = sorted({c[k:] for c in longest for k in range(len(c) + 1)})

    def _columns(self, view, context):
        n = len(context) + 1
        yield ml_distribution(view, context)
        for cont in (False, True) if n < self.ORDER else (False,):
            # estimated discounts, and full ones that make all-singleton contexts degenerate
            estimated = discounts_from_count_of_counts(*self.folded.table.count_of_counts(n, cont))
            for d in (estimated, flat(1.0)):
                yield discounted_distribution(view, context, d, cont)

    def test_prob_of_matches_support(self):
        views = [self.folded.view()] + [reduced.view() for reduced in self.reduced]
        for i, view in enumerate(views):  # i - 1 is the fold left out
            for ctx in self.contexts:
                for col in self._columns(view, ctx):
                    support = dict(zip(col.words.tolist(), col.probs.tolist()))
                    assert (col.stats is None) == (not support), ctx  # masked: no support
                    for w in range(view.vocab_size):
                        assert col.prob_of(w) == support.get(w, 0.0), (i - 1, ctx, w)


class TestDiscountEstimation:
    def test_closed_form_by_hand(self):
        # Y = 2/(2+2) = 0.5; d2 hits its clamp ceiling; n3 = 0 sends d3+ to Y
        d = discounts_from_count_of_counts(2, 1, 0, 0)
        assert d.d1 == pytest.approx(0.5)
        assert d.d2 == pytest.approx(2.0)
        assert d.d3p == pytest.approx(0.5)

    def test_toy_unigram_count_of_counts(self):
        # unigram counts a=3, b=1, c=1, eos=2 -> n1=2, n2=1, n3=1, n4=0
        table = accumulate(toy_corpus(), 2)
        d = discounts_from_count_of_counts(*table.count_of_counts(1))
        assert d.d1 == pytest.approx(0.5)  # 1 - 2*0.5*(1/2)
        assert d.d2 == pytest.approx(0.5)  # 2 - 3*0.5*(1/1)
        assert d.d3p == pytest.approx(3.0)  # 3 - 4*0.5*(0/1), clamped range top

    def test_no_singletons_disables_discounting(self):
        corpus = encode(["a a b b", "a b"])
        table = accumulate(corpus, 1)
        assert discounts_from_count_of_counts(*table.count_of_counts(1)) == Discounts(0.0, 0.0, 0.0)

    def test_single_discount_variant(self):
        # Y = n1/(n1+2*n2) = 2/(2+2) on the unigram counts a=3, b=1, c=1, eos=2
        corpus = toy_corpus()
        table = accumulate(corpus, 1)
        spec = single_discount_spec(table, 1)
        assert spec.discounts[1] == flat(0.5)
        view, v = table.view(), corpus.vocab
        col = spec.column(view, ())
        # kept mass 2.5 + 0.5 + 0.5 + 1.5 = 5 of 7
        for word, p in (("a", 0.5), ("b", 0.1), ("c", 0.1), ("</s>", 0.3)):
            assert col.prob_of(v.id_of(word)) == pytest.approx(p)
        assert spec.fallback(view, ()) == pytest.approx(2 / 7)

    def test_discounts_within_levels(self):
        corpus = encode(synthetic_lines(80, n_words=15, seed=13))
        table = accumulate(corpus, 4)
        for n in range(1, 5):
            for cont in ([False, True] if n < 4 else [False]):
                d = discounts_from_count_of_counts(*table.count_of_counts(n, cont))
                assert 0.0 <= d.d1 <= 1.0
                assert 0.0 <= d.d2 <= 2.0
                assert 0.0 <= d.d3p <= 3.0

    def test_applied_matches_count_levels(self):
        d = Discounts(0.1, 0.2, 0.3)
        np.testing.assert_allclose(d.applied(np.array([0, 1, 2, 3, 7])),
                                   [0.0, 0.1, 0.2, 0.3, 0.3])
        assert d.mass(2, 3, 4) == pytest.approx(0.1 * 2 + 0.2 * 3 + 0.3 * 4)


class TestWittenBell:
    def test_toy_context_a(self):
        corpus = toy_corpus()
        table = accumulate(corpus, 2)
        assert witten_bell_fallback(table.view(), (corpus.vocab.id_of("a"),)) == \
            pytest.approx(0.5)

    def test_unobserved_context(self):
        corpus = toy_corpus()
        table = accumulate(corpus, 2)
        assert witten_bell_fallback(table.view(), (corpus.vocab.unk_id,)) == 1.0

    def test_confident_context(self):
        corpus = encode(["a b"] * 100)
        table = accumulate(corpus, 2)
        a = corpus.vocab.id_of("a")
        assert witten_bell_fallback(table.view(), (a,)) == pytest.approx(1 / 101)


class TestHeuristicLambda:
    def test_bigram(self):
        np.testing.assert_allclose(heuristic_lambda([0.5]), [0.5, 0.5])

    def test_full_fallback(self):
        np.testing.assert_allclose(heuristic_lambda([1.0, 1.0]), [1.0, 0.0, 0.0])

    def test_trigram_by_hand(self):
        lam = heuristic_lambda([0.2, 0.5])
        np.testing.assert_allclose(lam, [0.1, 0.1, 0.8])
        assert lam.sum() == pytest.approx(1.0)

    def test_always_sums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            lam = heuristic_lambda(rng.random(size=rng.integers(1, 6)))
            assert lam.sum() == pytest.approx(1.0)
            assert np.all(lam >= 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            heuristic_lambda([1.5])


class TestRecursionEquivalence:
    """Weighted-column assembly must equal direct recursive interpolation."""

    ORDER = 3

    def setup_method(self):
        self.train = encode(synthetic_lines(50, n_words=10, seed=41))
        self.table = accumulate(self.train, self.ORDER)
        self.held = encode_corpus(synthetic_lines(8, n_words=10, seed=90),
                                  self.train.vocab)

    def _check(self, spec):
        view = self.table.view()
        bos = self.train.vocab.bos_id
        for sent in self.held.sentences:
            padded = [bos] * (self.ORDER - 1) + [int(x) for x in sent]
            for i in range(self.ORDER - 1, len(padded)):
                ctx = tuple(padded[i - self.ORDER + 1:i])
                w = padded[i]
                direct = recursive_prob(view, spec, ctx, w)
                mixed = mixture_prob(view, spec, ctx, w)
                assert mixed == pytest.approx(direct, abs=1e-9), (ctx, w)
                assert direct > 0

    def test_witten_bell_ml(self):
        self._check(SmoothingSpec.ml(self.ORDER))

    def test_modified_kn(self):
        self._check(SmoothingSpec.kn(self.table, self.ORDER))

    def test_single_discount_kn(self):
        self._check(single_discount_spec(self.table, self.ORDER))


class TestBulkColumnRows:
    """The vectorized per-position path must match scalar column builders."""

    @pytest.fixture(autouse=True, params=PARITY_CASES, ids=parity_id)
    def case(self, request):
        self.ORDER, self.FOLDS, seed = request.param
        self.train, self.held = parity_corpora(seed)
        self.folded = cv_fold_counts(self.train, self.ORDER, folds=self.FOLDS)
        self.table = self.folded.table

    def _scalar_row(self, view, spec, context, word):
        probs, alphas = [], []
        for n in range(1, self.ORDER + 1):
            ctx = context[len(context) - (n - 1):]
            probs.append(spec.column(view, ctx).prob_of(word))
            alphas.append(spec.fallback(view, ctx))
        return probs, alphas

    def _check(self, spec, corpus, with_folds=False):
        """Bulk rows against the scalar path; with_folds leaves fold i % F out
        of sentence i, and the scalar path then reads the store counted
        without that fold, by context."""
        view = self.folded.view()
        ranks, words, sent_of = view.bulk_ranks(corpus)
        folds = sent_of % self.FOLDS if with_folds else None
        probs, alphas, valid = bulk_column_rows(view, spec, ranks, words, folds=folds)
        if with_folds:
            tables = fold_out_tables(self.train, self.ORDER, self.FOLDS)
            rviews = [table.view() for table in tables]
            for f, rview in enumerate(rviews):
                # one fold for every position equals the reduced store's own bulk rows
                got = bulk_column_rows(view, spec, ranks, words, folds=np.full(len(words), f))
                want = bulk_column_rows(rview, spec, rview.bulk_ranks(corpus)[0], words)
                for part, ref in zip(got, want):
                    np.testing.assert_array_equal(part, ref)
        bos = corpus.vocab.bos_id
        t = 0
        for si, sent in enumerate(corpus.sentences):
            padded = [bos] * (self.ORDER - 1) + [int(x) for x in sent]
            for i in range(self.ORDER - 1, len(padded)):
                ctx = tuple(padded[i - self.ORDER + 1:i])
                sview = rviews[folds[t]] if with_folds else view
                p_ref, a_ref = self._scalar_row(sview, spec, ctx, padded[i])
                assert all(0.0 <= a <= 1.0 for a in a_ref), ctx
                np.testing.assert_array_equal(probs[t], p_ref, err_msg=str(ctx))
                np.testing.assert_array_equal(alphas[t], a_ref, err_msg=str(ctx))
                t += 1
        assert t == len(words)

    def test_ml_on_training_data(self):
        self._check(SmoothingSpec.ml(self.ORDER), self.train)
        self._check(SmoothingSpec.ml(self.ORDER), self.train, with_folds=True)

    def test_kn_on_held_out_data(self):
        spec = SmoothingSpec.kn(self.table, self.ORDER)
        self._check(spec, self.held)
        self._check(SmoothingSpec.ml(self.ORDER), self.held)

    def test_kn_with_fold_views(self):
        spec = SmoothingSpec.kn(self.table, self.ORDER)
        self._check(spec, self.train, with_folds=True)
        self._check(spec, self.held, with_folds=True)

    def test_valid_flags_track_observed_contexts(self):
        spec = SmoothingSpec.kn(self.table, self.ORDER)
        view = self.folded.view()
        ranks, words, _ = view.bulk_ranks(self.held)
        _, alphas, valid = bulk_column_rows(view, spec, ranks, words)
        assert np.all(valid[:, 0]), "unigram context is always observed"
        assert np.all(alphas[~valid] == 1.0)


class TestSmoothingSpecContextLength:
    @pytest.mark.parametrize("family", ["ml", "kn"])
    def test_context_longer_than_order_rejected(self, family):
        """An order-2 spec answers one-word contexts and rejects two-word ones,
        even when the table holds order 3."""
        corpus = toy_corpus()
        table = accumulate(corpus, 3)
        spec = SmoothingSpec.ml(2) if family == "ml" else SmoothingSpec.kn(table, 2)
        view = table.view()
        a, b = corpus.vocab.id_of("a"), corpus.vocab.id_of("b")
        spec.column(view, (a,))
        spec.fallback(view, (a,))
        with pytest.raises(ValueError, match="longer"):
            spec.column(view, (a, b))
        with pytest.raises(ValueError, match="longer"):
            spec.fallback(view, (a, b))


class TestSmoothingSpecSerialization:
    def test_round_trip(self):
        table = accumulate(toy_corpus(), 3)
        spec = SmoothingSpec.kn(table, 3)
        back = SmoothingSpec.from_dict(spec.to_dict())
        assert back == spec

    def test_ml_round_trip(self):
        spec = SmoothingSpec.ml(4)
        assert SmoothingSpec.from_dict(spec.to_dict()) == spec

    def test_validation(self):
        d = flat(0.5)
        for order in (0, "2", 1.0):
            with pytest.raises(ValueError, match="order"):
                SmoothingSpec(order)
        for discounts in ((None, d), (None, d, d, d)):
            with pytest.raises(ValueError, match="one discount entry per order"):
                SmoothingSpec(2, discounts)

    def test_family_follows_discounts(self):
        """The family is read from the discounts and cannot be set apart from them."""
        assert SmoothingSpec(2).family == "ml" == SmoothingSpec.ml(2).family
        spec = SmoothingSpec(2, (None, flat(0.5), flat(0.5)))
        assert spec.family == "kn" and spec.rule(2) == (False, flat(0.5))
        with pytest.raises(AttributeError):
            spec.family = "ml"
        assert SmoothingSpec.from_dict(SmoothingSpec.ml(2).to_dict()).discounts is None

    @pytest.mark.parametrize("data", [
        {"order": 2, "family": "ml"}, {}, {"family": "kn", "discounts": None}, [2],
        {"order": "2"}, {"order": 0}, {"order": 2, "discounts": "x"},
        {"order": 2, "discounts": [[0.5, 0.5, 0.5]] * 3},
        {"order": 2, "discounts": [None, [0.5, 0.5, 0.5]]},
        {"order": 2, "discounts": [None, [0.5, 0.5], [0.5, 0.5, 0.5]]},
        {"order": 1, "discounts": [None, None]}, {"order": 1, "discounts": [None, ["a", 0, 0]]},
    ], ids=["unknown-field", "empty", "no-order", "not-a-dict", "order-text", "order-zero",
            "discounts-text", "no-leading-none", "too-few-orders", "two-numbers",
            "null-order", "text-discount"])
    def test_from_dict_rejects_missing_or_malformed_field(self, data):
        with pytest.raises(ValueError):
            SmoothingSpec.from_dict(data)
