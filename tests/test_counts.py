"""N-gram count store: accumulation, queries, fold views, serialization."""

import io
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from mixlm.corpus import build_vocabulary, encode_corpus
from mixlm.counts import (CountError, CountTable, CountView, ContextStats, accumulate,
                          cv_fold_counts)

from helpers import (
    TOY_LINES,
    assert_store_invariants,
    brute_context_stats,
    brute_continuation,
    brute_ngrams,
    PARITY_CASES,
    encode,
    fold_out_tables,
    parity_corpora,
    parity_id,
    synthetic_lines,
    toy_corpus,
)


FINGERPRINT_AT = 32  # magic and header, then the fingerprint's u32 length


def sealed(data):
    """A count file with its trailing checksum recomputed."""
    return data[:-4] + struct.pack("<I", zlib.crc32(data[4:-4]))


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
        assert self.view.rank_chain(()).tolist() == [0]
        assert self.view.count(1, 0, a) == 3
        s = self.view.stats(1, 0)
        assert s.total == 7  # five words plus two sentence ends
        assert s.unique == 4  # a, b, c, </s>

    def test_bigram_context_a(self):
        a, b = self.v.id_of("a"), self.v.id_of("b")
        rank = resolve(self.view, (a,))
        s = self.view.stats(2, rank)
        assert (s.total, s.unique) == (3, 3)
        assert self.view.count(2, rank, b) == 1
        words, counts = self.view.successors(2, rank)
        got = {int(w): int(c) for w, c in zip(words, counts)}
        assert got == {b: 1, self.v.id_of("c"): 1, self.v.eos_id: 1}
        counts[:] = 0  # a copy: the store keeps its counts
        assert self.view.count(2, rank, b) == 1

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
        rank = resolve(self.view, (b,))
        s = self.view.stats(2, rank)
        assert (s.total, s.unique) == (1, 1)
        assert self.view.count(2, rank, a) == 1
        assert self.view.count(2, rank, b) == 0
        # unseen context entirely: its suffix "b" resolves, "b b" does not
        assert self.view.rank_chain((b, b)).tolist() == [0, rank, -1]

    def test_context_longer_than_order_rejected(self):
        with pytest.raises(CountError):
            self.view.rank_chain((1, 1, 1))

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
        contexts = [None] + [{ctx for ctx, _ in self.grams[n]} for n in range(1, self.ORDER + 1)]
        for _ in range(200):
            n = int(rng.integers(1, self.ORDER + 1))
            ctx = tuple(int(x) for x in rng.integers(0, J, size=n - 1))
            w = int(rng.integers(0, J))
            rank = resolve(self.view, ctx)
            assert (rank >= 0) == (ctx in contexts[n])
            if rank >= 0:
                assert self.view.count(n, rank, w) == self.grams[n].get((ctx, w), 0)
                assert self.view.stats(n, rank).unique > 0
            else:
                assert self.view.count(n, rank, w) == 0

    def test_rank_chain_of_long_lived_view_matches_fresh_view(self):
        """One view asked about many contexts, their suffixes and extensions
        in turn gives the chain a fresh view gives for each."""
        rng = np.random.default_rng(17)
        J = self.corpus.vocab.size
        seen = [ctx for ctx, _ in self.grams[self.ORDER]]
        for _ in range(300):
            if rng.random() < 0.7:
                full = seen[int(rng.integers(len(seen)))]
            else:
                full = tuple(int(x) for x in rng.integers(0, J + 1, size=self.ORDER - 1))
            lengths = [range(self.ORDER), range(self.ORDER - 1, -1, -1),
                       rng.permutation(self.ORDER)][int(rng.integers(3))]
            for k in lengths:
                ctx = full[len(full) - k:]
                np.testing.assert_array_equal(self.view.rank_chain(ctx),
                                              CountView(self.table).rank_chain(ctx),
                                              err_msg=str(ctx))

    def test_global_count_of_counts(self):
        for n in range(1, self.ORDER + 1):
            counts = np.array(sorted(self.grams[n].values()))
            expected = tuple(int(np.sum(counts == k)) for k in (1, 2, 3, 4))
            assert self.table.count_of_counts(n) == expected


class TestContextIds:
    """A context symbol must be a word id or the bos id J; any other id would
    alias another context's code."""

    def setup_method(self):
        self.corpus = encode(["a b a", "a c", "a b", "d a"])
        self.view = accumulate(self.corpus, 3).view()
        self.J, self.b = self.corpus.vocab.bos_id, self.corpus.vocab.id_of("b")

    @pytest.mark.parametrize("offset", [1, 3, -7], ids=["J+1", "J+3", "-1"])
    def test_out_of_range_id_rejected(self, offset):
        bad = self.J + offset
        with pytest.raises(CountError, match="context ids must lie in 0..6"):
            self.view.rank_chain((bad,))
        # with its suffix cached, and extending it
        fresh = self.view.rank_chain((self.b,)).tolist()
        with pytest.raises(CountError, match="context ids must lie in 0..6"):
            self.view.rank_chain((bad, self.b))
        assert self.view.rank_chain((self.b,)).tolist() == fresh


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
            assert isinstance(stats, ContextStats)
            for t in range(len(words)):
                r = int(ranks[t, n - 1])
                if r < 0:
                    assert counts[t] == 0 and stats.total[t] == 0
                else:
                    assert counts[t] == self.view.count(n, r, int(words[t]))
                    s = self.view.stats(n, r)
                    assert tuple(int(x[t]) for x in stats) == s
                    assert stats.unique[t] == s.unique

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

    def test_bulk_continuation_counts(self):
        ranks, words, _ = self.view.bulk_ranks(self.train)
        for n in (1, 2):
            cc = self.view.bulk_counts(n, ranks[:, n - 1], words, continuation=True)
            for t in range(0, len(words), 7):
                r = int(ranks[t, n - 1])
                if r >= 0:
                    assert cc[t] == self.view.cont_count(n, r, int(words[t]))


class TestFoldViews:
    """Bulk calls that leave out a fold equal stores counted without it,
    compared context by context."""

    @pytest.fixture(autouse=True, params=PARITY_CASES, ids=parity_id)
    def case(self, request):
        self.ORDER, self.FOLDS, seed = request.param
        self.corpus, self.held = parity_corpora(seed)
        self.folded = cv_fold_counts(self.corpus, self.ORDER, folds=self.FOLDS)
        self.reduced = fold_out_tables(self.corpus, self.ORDER, self.FOLDS)

    def test_full_view_unaffected(self):
        full = accumulate(self.corpus, self.ORDER)
        got = self.folded.view()
        for n in range(1, self.ORDER + 1):
            np.testing.assert_array_equal(self.folded.table.orders[n].type_keys,
                                          full.orders[n].type_keys)
            np.testing.assert_array_equal(self.folded.table.orders[n].type_counts,
                                          full.orders[n].type_counts)
        assert got.fold is None

    def _check_against_reduced(self, continuation):
        """Every (context, word) of the full corpus, with one fold left out
        for all of them, against the store counted without that fold."""
        view = self.folded.view()
        grams = brute_ngrams(self.corpus, self.ORDER)
        top = self.ORDER if continuation else self.ORDER + 1
        for f, reduced in enumerate(self.reduced):
            rview = reduced.view()
            for n in range(1, top):
                pairs = list(brute_continuation(grams, n) if continuation else grams[n])
                ranks = np.array([resolve(view, ctx) for ctx, _ in pairs])
                words = np.array([w for _, w in pairs])
                same = np.full(len(pairs), f)
                counts = view.bulk_counts(n, ranks, words, folds=same, continuation=continuation)
                stats = view.bulk_stats(n, ranks, folds=same, continuation=continuation)
                for t, (ctx, w) in enumerate(pairs):
                    r2 = resolve(rview, ctx)
                    got = tuple(int(x[t]) for x in stats)
                    if r2 < 0:
                        assert counts[t] == 0 and got == (0, 0, 0, 0), (f, n, ctx, w)
                        continue
                    if continuation:
                        want, s2 = rview.cont_count(n, r2, w), rview.cont_stats(n, r2)
                    else:
                        want, s2 = rview.count(n, r2, w), rview.stats(n, r2)
                    assert counts[t] == want, (f, n, ctx, w)
                    assert got == s2 and stats.unique[t] == s2.unique, (f, n, ctx)

    def test_view_equals_reduced_corpus(self):
        self._check_against_reduced(continuation=False)

    def test_view_continuation_equals_reduced_corpus(self):
        self._check_against_reduced(continuation=True)

    def test_view_plus_fold_equals_full(self):
        """Residual identity: count without the fold + own-fold occurrences = full count."""
        view = self.folded.view()
        grams_by_fold = [brute_ngrams(
            type(self.corpus)(sentences=[s for i, s in enumerate(self.corpus.sentences)
                                         if i % self.FOLDS == f], vocab=self.corpus.vocab),
            self.ORDER) for f in range(self.FOLDS)]
        grams = brute_ngrams(self.corpus, self.ORDER)
        for n in range(1, self.ORDER + 1):
            pairs = list(grams[n].items())
            ranks = np.array([resolve(view, ctx) for (ctx, _), _ in pairs])
            words = np.array([w for (_, w), _ in pairs])
            for f in range(self.FOLDS):
                parts = view.bulk_counts(n, ranks, words, folds=np.full(len(pairs), f))
                for t, ((ctx, w), c) in enumerate(pairs):
                    assert parts[t] + grams_by_fold[f][n].get((ctx, w), 0) == c, (f, n, ctx, w)

    def test_bulk_fold_counts_match_scalar(self):
        """Per-position folds, and one fold for every position, on training
        and held-out text: each position reads what the store counted without
        its fold gives its context, through that store's own ranks."""
        view = self.folded.view()
        rviews = [reduced.view() for reduced in self.reduced]
        for corpus in (self.corpus, self.held):
            ranks, words, sent_of = view.bulk_ranks(corpus)
            folds = sent_of % self.FOLDS  # each training sentence's own fold
            rranks = [rv.bulk_ranks(corpus)[0] for rv in rviews]
            for n in range(1, self.ORDER + 1):
                r = ranks[:, n - 1]
                for cont in (False, True) if n < self.ORDER else (False,):
                    counts = view.bulk_counts(n, r, words, folds=folds, continuation=cont)
                    stats = view.bulk_stats(n, r, folds=folds, continuation=cont)
                    for t in range(len(words)):
                        rv, r2 = rviews[folds[t]], int(rranks[folds[t]][t, n - 1])
                        if r2 < 0:
                            assert counts[t] == 0 and stats.total[t] == 0, (n, cont, t)
                            continue
                        w = int(words[t])
                        want = rv.cont_count(n, r2, w) if cont else rv.count(n, r2, w)
                        s = rv.cont_stats(n, r2) if cont else rv.stats(n, r2)
                        assert counts[t] == want, (n, cont, t)
                        assert tuple(int(x[t]) for x in stats) == s, (n, cont, t)
                        assert stats.unique[t] == s.unique, (n, cont, t)
                    for f, rv in enumerate(rviews):
                        same = np.full(len(words), f)
                        r2 = rranks[f][:, n - 1]
                        np.testing.assert_array_equal(
                            view.bulk_counts(n, r, words, folds=same, continuation=cont),
                            rv.bulk_counts(n, r2, words, continuation=cont))
                        np.testing.assert_array_equal(
                            view.bulk_stats(n, r, folds=same, continuation=cont),
                            rv.bulk_stats(n, r2, continuation=cont))

    def test_fold_validation(self):
        view = self.folded.view()
        ranks, words, _ = view.bulk_ranks(self.corpus)
        with pytest.raises(CountError):
            view.bulk_counts(1, ranks[:, 0], words, folds=np.full(len(words), self.FOLDS))
        with pytest.raises(CountError):
            cv_fold_counts(self.corpus, 2, folds=1)
        tiny = encode(["a b", "b a"])
        with pytest.raises(CountError):
            cv_fold_counts(tiny, 2, folds=10)

    def test_store_invariants(self):
        """Counted, folded and file-loaded stores all keep the store invariants."""
        table = accumulate(self.corpus, self.ORDER)
        assert_store_invariants(table)
        assert_store_invariants(self.folded.table, self.folded)
        buf = io.BytesIO()
        table.write_binary(buf)
        buf.seek(0)
        assert_store_invariants(CountTable.read_binary(buf))


class TestPerPositionFolds:
    """Per-position folds name a fold of a view that has fold data."""

    def setup_method(self):
        self.corpus = toy_corpus()  # a b a / a c: 7 positions
        ranks, self.words, _ = accumulate(self.corpus, 2).view().bulk_ranks(self.corpus)
        self.ranks = ranks[:, 1]

    @pytest.mark.parametrize("fold, size", [(2, 7), (-1, 7), (0, 1), (0, 3)],
                             ids=["past-last-fold", "negative", "one-for-all", "too-few"])
    def test_fold_out_of_range_or_length_rejected(self, fold, size):
        view = cv_fold_counts(self.corpus, 2, folds=2).view()
        folds = np.full(size, fold)
        with pytest.raises(CountError, match="one fold in 0..1 for each"):
            view.bulk_stats(2, self.ranks, folds=folds)
        with pytest.raises(CountError, match="one fold in 0..1 for each"):
            view.bulk_counts(2, self.ranks, self.words, folds=folds)

    def test_folds_without_fold_data_rejected(self):
        view = accumulate(self.corpus, 2).view()
        with pytest.raises(CountError, match="without fold data"):
            view.bulk_stats(2, self.ranks, folds=np.zeros(len(self.ranks), dtype=np.int64))


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
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_rejects_foreign_binary(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTC" + b"\x00" * 64)
        with pytest.raises(CountError):
            CountTable.load(str(path))

    def test_rejects_damaged_binary(self, tmp_path):
        path = tmp_path / "counts.bin"
        self.table.save(str(path))
        data = path.read_bytes()
        damaged = {
            "cut by 8 bytes": data[:-8],
            "cut by 800 bytes": data[:-800],
            "cut inside the header": data[:20],
            "one trailing byte": data + b"\x00",
            "version 1": data[:4] + struct.pack("<I", 1) + data[8:],
        }
        for what, bad in damaged.items():
            path.write_bytes(bad)
            with pytest.raises(CountError):
                CountTable.load(str(path))
        # damage behind a valid checksum reaches the checks after it
        (fp_len,) = struct.unpack_from("<I", data, FINGERPRINT_AT - 4)
        behind_checksum = {
            "not ASCII": data[:FINGERPRINT_AT] + b"\xff" + data[FINGERPRINT_AT + 1:],
            "order must be": (data[:8] + struct.pack("<I", 0)
                              + data[12:FINGERPRINT_AT + fp_len] + bytes(4)),
        }
        for message, bad in behind_checksum.items():
            with pytest.raises(CountError, match=message):
                CountTable.read_binary(io.BytesIO(sealed(bad)))

    def test_rejects_every_single_byte_change(self):
        buf = io.BytesIO()
        accumulate(encode(["a b a", "a c", "a b", "d a"]), 3).write_binary(buf)
        data = buf.getvalue()
        accepted = []
        for i in range(len(data)):
            for flip in (0x01, 0xFF):
                bad = bytearray(data)
                bad[i] ^= flip
                try:
                    CountTable.read_binary(io.BytesIO(bytes(bad)))
                except CountError:
                    continue
                accepted.append((i, flip))
        assert not accepted

    def test_rejects_keys_out_of_order_or_range_behind_checksum(self):
        """A file whose checksum is valid still has its arrays checked: an
        order-1 type key past every context, and two keys swapped."""
        buf = io.BytesIO()
        accumulate(encode(["a b a", "a c", "a b", "d a"]), 3).write_binary(buf)
        data = buf.getvalue()
        (fp_len,) = struct.unpack_from("<I", data, FINGERPRINT_AT - 4)
        at = FINGERPRINT_AT + fp_len + 24  # past order 1's context array and key count
        first, second = slice(at, at + 8), slice(at + 8, at + 16)
        oversized = bytearray(data)
        oversized[first] = struct.pack("<q", 1_000_000)
        swapped = bytearray(data)
        swapped[first], swapped[second] = data[second], data[first]
        for bad in (oversized, swapped):
            with pytest.raises(CountError, match="order-1 keys"):
                CountTable.read_binary(io.BytesIO(sealed(bytes(bad))))

    @pytest.mark.parametrize("damage", [
        "contexts unsorted", "suffix rank past the shorter contexts", "key past the contexts",
        "negative key", "zero count", "counts miss the token count"])
    def test_rejects_written_arrays_out_of_order_or_range(self, damage):
        """``write_binary`` seals whatever arrays a table holds; load checks them."""
        table = accumulate(encode(["a b a", "a c", "a b", "d a"]), 3)
        o = table.orders
        if damage == "contexts unsorted":
            o[3].ctx_codes[[0, 1]] = o[3].ctx_codes[[1, 0]]
        elif damage == "suffix rank past the shorter contexts":
            o[3].ctx_codes[-1] = len(o[2].ctx_codes) * table.base
        elif damage == "key past the contexts":
            o[2].type_keys[-1] = len(o[2].ctx_codes) * table.base
        elif damage == "negative key":
            o[1].type_keys[0] = -1
        elif damage == "zero count":  # the sum stays the token count
            o[2].type_counts[[0, 1]] = [o[2].type_counts[:2].sum(), 0]
        else:
            o[2].type_counts[0] += 1
        buf = io.BytesIO()
        table.write_binary(buf)
        buf.seek(0)
        with pytest.raises(CountError, match="order-[123] (keys|counts)"):
            CountTable.read_binary(buf)

    def test_store_arrays_are_direct_attributes(self):
        """The benchmark counts store bytes (``bench/pipeline.store_bytes``)
        and compares loaded tables (``bench/checks.tables_equal``) through
        the arrays ``vars()`` finds on ``orders[n]`` and ``fold_data[n]``:
        every array a view reads must be one of them, and no other."""
        folded = cv_fold_counts(self.corpus, 3, folds=3)
        buf = io.BytesIO()
        self.table.write_binary(buf)
        buf.seek(0)
        for table, folds in ((folded.table, folded), (CountTable.read_binary(buf), None)):
            view = table.view() if folds is None else folds.view()
            for n in range(1, table.order + 1):
                read = [table.orders[n].ctx_codes]
                for continuation in (False, True) if n < table.order else (False,):
                    read += [a for a in view._kind(n, continuation) if a is not None]
                holders = [table.orders[n]] + ([] if folds is None else [folds.fold_data[n]])
                found = [v for h in holders for v in vars(h).values() if v is not None]
                assert all(isinstance(v, np.ndarray) for v in found), n
                assert sorted(map(id, read)) == sorted(map(id, found)), n


class TestInputValidation:
    def test_order_zero_rejected(self):
        with pytest.raises(CountError):
            accumulate(toy_corpus(), 0)

    def test_token_count_matches_empty_context_total(self):
        corpus = toy_corpus()
        table = accumulate(corpus, 2)
        assert int(table.orders[1].stats[0, 0]) == corpus.token_count == 7


def test_store_invariants_catch_damage():
    def damage_type_order(t, f):
        t.orders[2].type_keys[[0, 1]] = t.orders[2].type_keys[[1, 0]]

    def damage_type_count(t, f):
        t.orders[2].type_counts[0] += 1

    def damage_token_count(t, f):
        t.token_count += 1

    def damage_fold_count(t, f):
        fd = f.fold_data[1]
        fd.type_counts[0] = t.orders[1].type_counts[fd.type_keys[0] // f.n_folds] + 1

    def damage_fold_stats(t, f):
        f.fold_data[2].cont_stat_deltas[0, 0] += 100

    folded = cv_fold_counts(toy_corpus(), 3, folds=2)
    assert_store_invariants(folded.table, folded)
    for damage in (damage_type_order, damage_type_count, damage_token_count,
                   damage_fold_count, damage_fold_stats):
        folded = cv_fold_counts(toy_corpus(), 3, folds=2)
        damage(folded.table, folded)
        with pytest.raises(AssertionError):
            assert_store_invariants(folded.table, folded)
