"""N-gram count store: accumulation, queries, fold views, serialization."""

import io
import struct
import zlib

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
    drop_fold,
    PARITY_CASES,
    encode,
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
                            assert counts[t] == 0 and stats.total[t] == 0
                            continue
                        w = int(words[t])
                        want = fv.cont_count(n, r[t], w) if cont else fv.count(n, r[t], w)
                        s = fv.cont_stats(n, r[t]) if cont else fv.stats(n, r[t])
                        assert counts[t] == want, (n, cont, t)
                        assert tuple(int(x[t]) for x in stats) == s, (n, cont, t)
                        assert stats.unique[t] == s.unique, (n, cont, t)
                    for f in range(self.FOLDS):
                        same = np.full(len(words), f)
                        fv = self.folded.view(f)
                        np.testing.assert_array_equal(
                            fv.bulk_counts(n, r, words, continuation=cont),
                            view.bulk_counts(n, r, words, folds=same, continuation=cont))

    def test_fold_validation(self):
        assert [self.folded.view(f).fold for f in range(self.FOLDS)] == list(range(self.FOLDS))
        with pytest.raises(CountError):
            self.folded.view(self.FOLDS)
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
