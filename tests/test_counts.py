"""N-gram count store: accumulation, queries, fold views, serialization."""

import io
import struct

import numpy as np
import pytest

from mixlm.corpus import build_vocabulary, encode_corpus
from mixlm.counts import (
    CountError,
    CountTable,
    accumulate,
    cv_fold_counts,
    load_text,
    query,
)

from helpers import (
    TOY_LINES,
    brute_context_stats,
    brute_continuation,
    brute_ngrams,
    drop_fold,
    PARITY_CASES,
    encode,
    parity_corpora,
    parity_id,
    synthetic_lines,
    toy_corpus,
)


def resolve(view, context):
    """Rank of a full context tuple, or -1."""
    chain = view.rank_chain(context)
    return int(chain[len(context)])


class TestToyCounts:
    """Hand-checked values on the two-sentence corpus {"a b a", "a c"}."""

    def setup_method(self):
        self.corpus = toy_corpus()
        self.v = self.corpus.vocab
        self.table = accumulate(self.corpus, order=3)
        self.view = self.table.view()

    def test_unigram_count(self):
        a = self.v.id_of("a")
        c, total, unique = query(self.table, (), a)
        assert c == 3
        assert total == 7  # five words plus two sentence ends
        assert unique == 4  # a, b, c, </s>

    def test_bigram_context_a(self):
        a, b = self.v.id_of("a"), self.v.id_of("b")
        rank = resolve(self.view, (a,))
        s = self.view.stats(2, rank)
        assert (s.total, s.unique) == (3, 3)
        assert self.view.count(2, rank, b) == 1
        words, counts = self.view.successors(2, rank)
        got = {int(w): int(c) for w, c in zip(words, counts)}
        assert got == {b: 1, self.v.id_of("c"): 1, self.v.eos_id: 1}

    def test_six_distinct_bigram_types(self):
        assert len(self.table.orders[2].type_keys) == 6

    def test_continuation_of_a(self):
        # "a" is preceded by <s> and by "b": two distinct left extensions
        a = self.v.id_of("a")
        assert self.view.cont_count(1, 0, a) == 2
        s = self.view.cont_stats(1, 0)
        assert s.total == 6  # six distinct bigram types
        assert s.unique == 4

    def test_unseen_returns_zero(self):
        a, b = self.v.id_of("a"), self.v.id_of("b")
        # context "b" was only ever followed by "a"
        assert query(self.table, (b,), a) == (1, 1, 1)
        assert query(self.table, (b,), b) == (0, 1, 1)
        # unseen context entirely
        assert query(self.table, (b, b), b) == (0, 0, 0)

    def test_context_longer_than_order_rejected(self):
        with pytest.raises(CountError):
            query(self.table, (1, 1, 1), 0)

    def test_count_of_counts(self):
        n1, n2, n3, n4 = self.table.count_of_counts(1)
        # unigram counts: a=3, b=1, c=1, </s>=2
        assert (n1, n2, n3, n4) == (2, 1, 1, 0)


class TestBruteForceEquivalence:
    """The vectorized store must agree with a dict reimplementation."""

    ORDER = 4

    def setup_method(self):
        lines = synthetic_lines(60, n_words=12, seed=7)
        self.corpus = encode(lines)
        self.table = accumulate(self.corpus, self.ORDER)
        self.view = self.table.view()
        self.grams = brute_ngrams(self.corpus, self.ORDER)

    def test_every_stored_type_matches(self):
        for n in range(1, self.ORDER + 1):
            for (ctx, w), c in self.grams[n].items():
                rank = resolve(self.view, ctx)
                assert rank >= 0, f"context {ctx} missing at order {n}"
                assert self.view.count(n, rank, w) == c

    def test_no_spurious_types(self):
        for n in range(1, self.ORDER + 1):
            assert len(self.table.orders[n].type_keys) == len(self.grams[n])

    def test_context_stats_match(self):
        for n in range(1, self.ORDER + 1):
            expected = brute_context_stats(self.grams[n])
            assert len(self.table.orders[n].ctx_codes) == len(expected)
            for ctx, (total, unique, n1, n2, n3p) in expected.items():
                s = self.view.stats(n, resolve(self.view, ctx))
                assert (s.total, s.unique, s.n1, s.n2, s.n3p) == (total, unique, n1, n2, n3p)

    def test_continuation_counts_match(self):
        for n in range(1, self.ORDER):
            cc = brute_continuation(self.grams, n)
            for (ctx, w), c in cc.items():
                rank = resolve(self.view, ctx)
                assert self.view.cont_count(n, rank, w) == c
            assert len(self.table.orders[n].cont_type_keys) == len(cc)

    def test_continuation_stats_match(self):
        for n in range(1, self.ORDER):
            expected = brute_context_stats(brute_continuation(self.grams, n))
            for ctx, (total, unique, n1, n2, n3p) in expected.items():
                s = self.view.cont_stats(n, resolve(self.view, ctx))
                assert (s.total, s.unique, s.n1, s.n2, s.n3p) == (total, unique, n1, n2, n3p)

    def test_successor_slices_match(self):
        for n in range(1, self.ORDER + 1):
            per_ctx = {}
            for (ctx, w), c in self.grams[n].items():
                per_ctx.setdefault(ctx, {})[w] = c
            for ctx, expected in per_ctx.items():
                words, counts = self.view.successors(n, resolve(self.view, ctx))
                assert {int(w): int(c) for w, c in zip(words, counts)} == expected
                assert np.all(np.diff(words) > 0), "successors must come out sorted"

    def test_random_absent_probes_are_zero(self):
        rng = np.random.default_rng(3)
        J = self.corpus.vocab.size
        for _ in range(200):
            n = int(rng.integers(1, self.ORDER + 1))
            ctx = tuple(int(x) for x in rng.integers(0, J, size=n - 1))
            w = int(rng.integers(0, J))
            c, total, unique = query(self.view, ctx, w)
            assert c == self.grams[n].get((ctx, w), 0)
            if (ctx, w) not in self.grams[n] and total == 0:
                assert unique == 0

    def test_global_count_of_counts(self):
        for n in range(1, self.ORDER + 1):
            counts = np.array(sorted(self.grams[n].values()))
            expected = tuple(int(np.sum(counts == k)) for k in (1, 2, 3, 4))
            assert self.table.count_of_counts(n) == expected


class TestBulkQueries:
    def setup_method(self):
        self.train = encode(synthetic_lines(50, n_words=10, seed=11))
        self.table = accumulate(self.train, 3)
        self.view = self.table.view()

    def _check_corpus(self, corpus):
        ranks, words, sent_of = self.view.bulk_ranks(corpus)
        grams = brute_ngrams(corpus, 3)
        # walk positions sequentially and compare the scalar path
        t = 0
        bos = corpus.vocab.bos_id
        for si, sent in enumerate(corpus.sentences):
            padded = [bos, bos] + [int(x) for x in sent]
            for i in range(2, len(padded)):
                assert words[t] == padded[i]
                assert sent_of[t] == si
                for n in range(1, 4):
                    ctx = tuple(padded[i - n + 1:i])
                    assert ranks[t, n - 1] == resolve(self.view, ctx)
                t += 1
        assert t == len(ranks)
        for n in range(1, 4):
            counts = self.view.bulk_counts(n, ranks[:, n - 1], words)
            stats = self.view.bulk_stats(n, ranks[:, n - 1])
            for t in range(len(words)):
                r = int(ranks[t, n - 1])
                if r < 0:
                    assert counts[t] == 0 and stats["total"][t] == 0
                else:
                    assert counts[t] == self.view.count(n, r, int(words[t]))
                    s = self.view.stats(n, r)
                    assert stats["total"][t] == s.total
                    assert stats["unique"][t] == s.unique

    def test_bulk_on_training_corpus(self):
        self._check_corpus(self.train)

    def test_bulk_on_held_out_corpus_with_unseen_contexts(self):
        held = encode_corpus(synthetic_lines(10, n_words=10, seed=99), self.train.vocab)
        self._check_corpus(held)

    def test_rejects_other_vocabulary(self):
        lines = synthetic_lines(50, n_words=10, seed=11)
        larger = encode(synthetic_lines(50, n_words=20, seed=11))
        renamed = encode([line.replace("w", "v") for line in lines])
        assert larger.vocab.size > self.train.vocab.size == renamed.vocab.size
        for other in (larger, renamed):
            with pytest.raises(CountError, match="vocabulary"):
                self.view.bulk_ranks(other)
            with pytest.raises(CountError, match="vocabulary"):
                self.table.dump_text(other.vocab, io.StringIO())

    def test_bulk_continuation_counts(self):
        ranks, words, _ = self.view.bulk_ranks(self.train)
        for n in (1, 2):
            cc = self.view.bulk_counts(n, ranks[:, n - 1], words, continuation=True)
            for t in range(0, len(words), 7):
                r = int(ranks[t, n - 1])
                if r >= 0:
                    assert cc[t] == self.view.cont_count(n, r, int(words[t]))


class TestFoldViews:
    """Leave-one-fold-out views equal stores built on the reduced corpus."""

    @pytest.fixture(autouse=True, params=PARITY_CASES, ids=parity_id)
    def case(self, request):
        self.ORDER, self.FOLDS, seed = request.param
        self.corpus, self.held = parity_corpora(seed)
        self.folded = cv_fold_counts(self.corpus, self.ORDER, folds=self.FOLDS)

    def test_full_view_unaffected(self):
        full = accumulate(self.corpus, self.ORDER)
        got = self.folded.view()
        for n in range(1, self.ORDER + 1):
            np.testing.assert_array_equal(self.folded.table.orders[n].type_keys,
                                          full.orders[n].type_keys)
            np.testing.assert_array_equal(self.folded.table.orders[n].type_counts,
                                          full.orders[n].type_counts)
        assert got.fold is None

    def test_view_equals_reduced_corpus(self):
        for f in range(self.FOLDS):
            view = self.folded.view(f)
            reduced = accumulate(drop_fold(self.corpus, f, self.FOLDS), self.ORDER)
            rview = reduced.view()
            grams = brute_ngrams(self.corpus, self.ORDER)
            for n in range(1, self.ORDER + 1):
                for (ctx, w), _ in grams[n].items():
                    rank = resolve(view, ctx)
                    r2 = resolve(rview, ctx)
                    expect = 0 if r2 < 0 else rview.count(n, r2, w)
                    assert view.count(n, rank, w) == expect, (f, n, ctx, w)
                    s = view.stats(n, rank)
                    if r2 < 0:
                        assert s.total == 0
                    else:
                        s2 = rview.stats(n, r2)
                        assert (s.total, s.unique, s.n1, s.n2, s.n3p) == \
                            (s2.total, s2.unique, s2.n1, s2.n2, s2.n3p), (f, n, ctx)

    def test_view_continuation_equals_reduced_corpus(self):
        for f in range(self.FOLDS):
            view = self.folded.view(f)
            reduced = accumulate(drop_fold(self.corpus, f, self.FOLDS), self.ORDER)
            rview = reduced.view()
            grams = brute_ngrams(self.corpus, self.ORDER)
            for n in range(1, self.ORDER):
                cc_all = brute_continuation(grams, n)
                for (ctx, w) in cc_all:
                    rank = resolve(view, ctx)
                    r2 = resolve(rview, ctx)
                    expect = 0 if r2 < 0 else rview.cont_count(n, r2, w)
                    assert view.cont_count(n, rank, w) == expect, (f, n, ctx, w)
                    s = view.cont_stats(n, rank)
                    if r2 >= 0:
                        s2 = rview.cont_stats(n, r2)
                        assert (s.total, s.unique, s.n1, s.n2, s.n3p) == \
                            (s2.total, s2.unique, s2.n1, s2.n2, s2.n3p), (f, n, ctx)

    def test_view_plus_fold_equals_full(self):
        """Residual identity: view count + own-fold occurrences = full count."""
        full = self.folded.view()
        grams_by_fold = [brute_ngrams(
            type(self.corpus)(sentences=[s for i, s in enumerate(self.corpus.sentences)
                                         if i % self.FOLDS == f], vocab=self.corpus.vocab),
            self.ORDER) for f in range(self.FOLDS)]
        grams = brute_ngrams(self.corpus, self.ORDER)
        for n in range(1, self.ORDER + 1):
            for (ctx, w), c in grams[n].items():
                rank = resolve(full, ctx)
                parts = [self.folded.view(f).count(n, rank, w) for f in range(self.FOLDS)]
                own = [grams_by_fold[f][n].get((ctx, w), 0) for f in range(self.FOLDS)]
                for f in range(self.FOLDS):
                    assert parts[f] + own[f] == c, (f, n, ctx, w)

    def test_bulk_fold_counts_match_scalar(self):
        """Per-position folds and whole fold views, on training and held-out text."""
        view = self.folded.view()
        for corpus in (self.corpus, self.held):
            ranks, words, sent_of = view.bulk_ranks(corpus)
            folds = sent_of % self.FOLDS  # each training sentence's own fold
            for n in range(1, self.ORDER + 1):
                r = ranks[:, n - 1]
                for cont in (False, True) if n < self.ORDER else (False,):
                    counts = view.bulk_counts(n, r, words, folds=folds, continuation=cont)
                    stats = view.bulk_stats(n, r, folds=folds, continuation=cont)
                    for t in range(len(words)):
                        fv = self.folded.view(int(folds[t]))
                        if r[t] < 0:
                            assert counts[t] == 0 and stats["total"][t] == 0
                            continue
                        w = int(words[t])
                        want = fv.cont_count(n, r[t], w) if cont else fv.count(n, r[t], w)
                        s = fv.cont_stats(n, r[t]) if cont else fv.stats(n, r[t])
                        assert counts[t] == want, (n, cont, t)
                        assert [stats[k][t] for k in ("total", "unique", "n1", "n2", "n3p")] \
                            == [s.total, s.unique, s.n1, s.n2, s.n3p], (n, cont, t)
                    for f in range(self.FOLDS):
                        same = np.full(len(words), f)
                        fv = self.folded.view(f)
                        np.testing.assert_array_equal(
                            fv.bulk_counts(n, r, words, continuation=cont),
                            view.bulk_counts(n, r, words, folds=same, continuation=cont))

    def test_fold_validation(self):
        with pytest.raises(CountError):
            self.folded.view(self.FOLDS)
        with pytest.raises(CountError):
            cv_fold_counts(self.corpus, 2, folds=1)
        tiny = encode(["a b", "b a"])
        with pytest.raises(CountError):
            cv_fold_counts(tiny, 2, folds=10)

    def test_folds_property(self):
        views = self.folded.folds
        assert len(views) == self.FOLDS
        assert [v.fold for v in views] == list(range(self.FOLDS))


def assert_tables_equal(a, b):
    """Same header and the same value in every stored array of every order."""
    assert (a.order, a.vocab_size, a.token_count) == (b.order, b.vocab_size, b.token_count)
    for n in range(1, a.order + 1):
        arrays = vars(a.orders[n])
        assert arrays.keys() == vars(b.orders[n]).keys()
        for name, arr in arrays.items():
            other = getattr(b.orders[n], name)
            if arr is None:
                assert other is None, (n, name)
            else:
                np.testing.assert_array_equal(arr, other, err_msg=f"order {n} {name}")


class TestSerialization:
    def setup_method(self):
        self.corpus = encode(synthetic_lines(30, n_words=8, seed=5))
        self.table = accumulate(self.corpus, 3)

    def test_binary_round_trip(self, tmp_path):
        path = str(tmp_path / "counts.bin")
        self.table.save(path)
        loaded = CountTable.load(path)
        assert loaded.vocab_fingerprint == self.table.vocab_fingerprint
        assert_tables_equal(self.table, loaded)

    def test_binary_round_trip_is_bit_exact(self, tmp_path):
        p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        self.table.save(p1)
        CountTable.load(p1).save(p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_rejects_foreign_binary(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTC" + b"\x00" * 64)
        with pytest.raises(CountError):
            CountTable.load(str(path))

    def test_rejects_damaged_binary(self, tmp_path):
        path = tmp_path / "counts.bin"
        self.table.save(str(path))
        data = path.read_bytes()
        (n_records,) = struct.unpack_from("<Q", data, 28)
        damaged = {
            "cut by 8 bytes": data[:-8],
            "cut by 800 bytes": data[:-800],
            "cut inside the header": data[:20],
            "one trailing byte": data + b"\x00",
            "version 1": data[:4] + struct.pack("<I", 1) + data[8:],
            "wrong context count": data[:28] + struct.pack("<Q", n_records + 1) + data[36:],
        }
        for what, bad in damaged.items():
            path.write_bytes(bad)
            with pytest.raises(CountError):
                CountTable.load(str(path))

    def test_text_dump_round_trip(self):
        vocab = self.corpus.vocab
        buf = io.StringIO()
        self.table.dump_text(vocab, buf)
        buf.seek(0)
        assert_tables_equal(self.table, load_text(buf, vocab, order=3))

    def test_text_dump_is_sorted_and_readable(self):
        buf = io.StringIO()
        self.table.dump_text(self.corpus.vocab, buf)
        lines = buf.getvalue().splitlines()
        assert all(len(l.split("\t")) == 3 for l in lines)
        # unigram section first: empty context field
        assert lines[0].split("\t")[0] == ""

    def test_text_load_requires_all_orders(self):
        with pytest.raises(CountError):
            load_text(io.StringIO("a\tb\t1\n"), self.corpus.vocab, order=2)

    def test_text_load_rejects_bad_line(self):
        with pytest.raises(CountError):
            load_text(io.StringIO("only two fields\t1\n"), self.corpus.vocab, order=1)


class TestInputValidation:
    def test_order_zero_rejected(self):
        with pytest.raises(CountError):
            accumulate(toy_corpus(), 0)

    def test_token_count_matches_empty_context_total(self):
        corpus = toy_corpus()
        table = accumulate(corpus, 2)
        assert int(table.orders[1].stats[0, 0]) == corpus.token_count == 7
