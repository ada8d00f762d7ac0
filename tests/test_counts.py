"""N-gram count store: accumulation, queries, fold views, serialization."""

import bisect
import hashlib
import struct
import sys
import tracemalloc
import zlib
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import mixlm.counts as mcounts
from mixlm.corpus import EncodedCorpus, Vocabulary, build_vocabulary, encode_corpus
from mixlm.counts import (CountError, CountTable, CountView, ContextStats, accumulate,
                          cv_fold_counts)
from mixlm.neural.features import bulk_context_features
from mixlm.smoothing import SmoothingSpec, bulk_column_rows

from helpers import (
    TOY_LINES,
    assert_store_invariants,
    bench_corpus,
    reference_ngrams,
    brute_context_stats,
    brute_continuation,
    brute_ngrams,
    PARITY_CASES,
    TABLES,
    code_width,
    decoded,
    encode,
    fold_out_tables,
    fold_recount,
    parity_corpora,
    parity_id,
    store_width,
    synthetic_lines,
    tag_width,
    toy_corpus,
)


FINGERPRINT_AT = 32  # magic and header, then the fingerprint's u32 length
# the bytes earlier formats wrote for accumulate(encode(["a b a", "a c"]), 2):
# format 5 held each order's decoded counts at the narrowest width of their
# values, and format 6 each order's types, count codes and count table
OLDER_FORMAT_FILES = {
    5: "4d584354050000000200000005000000000000000700000000000000100000006639346362333362"
       "313033323937633201000000010000000000000000010000000400000000000000000203040100"
       "000004000000000000000203010101000000040000000000000002030405010000000600000000"
       "000000000304080c14010000000600000000000000010101010102ace47e32",
    6: "4d584354060000000200000005000000000000000700000000000000100000006639346362333362"
       "31303332393763320400000001000000000000000000000004000000040000000000000000000000"
       "02000000030000000400000001000000040000000000000001020000040000000300000000000000"
       "01000000020000000300000004000000040000000000000002000000030000000400000005000000"
       "040000000600000000000000000000000300000004000000080000000c0000001400000001000000"
       "06000000000000000000000000010400000002000000000000000100000002000000317c4a64",
}


def sealed(data):
    """A count file with its trailing checksum recomputed."""
    return data[:-4] + struct.pack("<I", zlib.crc32(data[4:-4]))


def first_array_at(data):
    """Offset of the first array (order 1's contexts) in a count file."""
    (fp_len,) = struct.unpack_from("<I", data, FINGERPRINT_AT - 4)
    return FINGERPRINT_AT + fp_len


def recoded(holder, values, name="type_counts"):
    """Give the coded array ``name`` of an order's or a fold's arrays these
    values, coded as a build codes them."""
    codes, table = mcounts._coded(np.asarray(values), getattr(holder, TABLES[name]).dtype)
    setattr(holder, name, codes)
    setattr(holder, TABLES[name], table)


def file_arrays(data):
    """(offset, byte width, element count) of each array of a count file, in
    file order."""
    at, out = first_array_at(data), []
    while at < len(data) - 4:
        width, size = struct.unpack_from("<IQ", data, at)
        out.append((at, width, size))
        at += 12 + width * size
    return out


def file_widths(data):
    """The byte width of each array of a count file, in file order."""
    return [width for _, width, _ in file_arrays(data)]


def written(table):
    """The arrays a count file of ``table`` holds, in file order: the contexts
    of every order, then the top order's type keys, count codes and table."""
    top = table.orders[-1]
    return [od.ctx_codes for od in table.orders[1:]] + [
        top.type_keys, top.type_counts, top.count_table]


def saved(table, tmp_path):
    """The bytes ``save`` writes for ``table``."""
    path = tmp_path / "saved.bin"
    table.save(str(path))
    return path.read_bytes()


def loaded(data, tmp_path):
    """``CountTable.load`` of a file that holds ``data``."""
    path = tmp_path / "loaded.bin"
    path.write_bytes(data)
    return CountTable.load(str(path))


def rewritten(data, at, values, width):
    """A count file whose array at offset ``at`` holds ``values`` at ``width``
    bytes, with its checksum recomputed."""
    old_width, size = struct.unpack_from("<IQ", data, at)
    tail = data[at + 12 + old_width * size:]
    arr = np.asarray(values, dtype=f"<i{width}")
    return sealed(data[:at] + struct.pack("<IQ", width, arr.size) + arr.tobytes() + tail)


def all_int64(monkeypatch, build):
    """What ``build`` returns when every key array and table is int64, as in
    a table past 2**31; the codes keep the widths their tables select."""
    with monkeypatch.context() as m:
        m.setattr(mcounts, "_width", lambda *bounds: np.dtype(np.int64))
        return build()


def widths(table):
    """The width of every array of every order, by order and name."""
    return [{name: arr.dtype for name, arr in vars(od).items() if arr is not None}
            for od in table.orders[1:]]


def scalar_reads(view, n, rank, word, cont):
    """count, stats, then successor words and counts of one context and word."""
    if cont:
        return (view.cont_count(n, rank, word), view.cont_stats(n, rank),
                *view.successors(n, rank, True))
    return view.count(n, rank, word), view.stats(n, rank), *view.successors(n, rank)


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
        assert self.view.rank_chain(()) == (0,)
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
        assert self.view.rank_chain((b, b)) == (0, rank, -1)

    def test_context_longer_than_order_rejected(self):
        with pytest.raises(CountError):
            self.view.rank_chain((1, 1, 1))

    def test_count_of_counts(self):
        n1, n2, n3, n4 = self.table.count_of_counts(1)
        # unigram counts: a=3, b=1, c=1, </s>=2
        assert (n1, n2, n3, n4) == (2, 1, 1, 0)

    @pytest.mark.parametrize("before, ctx", [
        ((), ()), ((), ("a", "b")), (("a", "b"), ("b",)), (("b",), ("a", "b")),
    ], ids=["root", "resolved", "suffix-of-latest", "extends-latest"])
    def test_rank_chain_is_a_tuple_of_ints(self, before, ctx):
        """rank_chain returns the chain the view keeps (or a prefix of it) as
        a tuple of Python ints, which no caller can change, so later lookups
        read what a fresh view reads."""
        ids = lambda words: tuple(self.v.id_of(w) for w in words)
        self.view.rank_chain(ids(before))
        chain = self.view.rank_chain(ids(ctx))
        assert type(chain) is tuple and len(chain) == len(ctx) + 1
        assert all(type(r) is int for r in chain), chain
        for later in ((), ("b",), ("a", "b"), ("b", "a"), ("a",)):
            np.testing.assert_array_equal(self.view.rank_chain(ids(later)),
                                          CountView(self.table).rank_chain(ids(later)),
                                          err_msg=str(later))


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
            # the continuation counts are aligned with the raw types, each at least 1
            assert int((decoded(self.table.orders[n], "cont_type_counts") >= 1).sum()) == len(cc)

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
        fresh = self.view.rank_chain((self.b,))
        with pytest.raises(CountError, match="context ids must lie in 0..6"):
            self.view.rank_chain((bad, self.b))
        assert self.view.rank_chain((self.b,)) == fresh


class TestWordIds:
    """A word id must lie in 0..J-1: past the vocabulary, ``rank * B + word``
    would name a word of the next context (on the toy table, B = 6, word 8
    after rank 0 is word 2 after rank 1), and a negative id one of the rank
    below."""

    BAD = {"-1": lambda J: -1, "J": lambda J: J, "B": lambda J: J + 1, "B+2": lambda J: J + 3}

    def setup_method(self):
        self.folded = cv_fold_counts(toy_corpus(), 3, folds=2)
        self.J = self.folded.table.vocab_size
        assert (self.J, self.folded.table.base) == (5, 6)

    @pytest.mark.parametrize("n, cont", [(1, False), (2, False), (3, False), (1, True),
                                         (2, True)], ids=["1", "2", "3", "cont1", "cont2"])
    @pytest.mark.parametrize("bad", BAD)
    def test_rejected_on_scalar_and_bulk_calls(self, bad, n, cont):
        word = self.BAD[bad](self.J)
        view = self.folded.view()
        count = view.cont_count if cont else view.count
        match = rf"must lie in 0\.\.{self.J - 1}|outside 0\.\.{self.J - 1}"
        for rank in (-1, 0):
            with pytest.raises(CountError, match=match):
                count(n, rank, word)
        ranks, words = np.array([0, 0, -1]), np.array([2, word, 2])
        for folds in (None, np.array([0, 1, 0])):
            with pytest.raises(CountError, match=match):
                view.bulk_counts(n, ranks, words, folds=folds, continuation=cont)

    @pytest.mark.parametrize("cont", [False, True], ids=["raw", "cont"])
    def test_non_integer_ids_rejected(self, cont):
        """A scalar count takes its rank and word through ``operator.index``:
        word 2.5 is not read as word 2, nor rank 0.5 as rank 0, and NumPy
        integers pass."""
        view = self.folded.table.view()
        count = view.cont_count if cont else view.count
        for rank, word in ((0, 2.5), (0, 2.0), (0.5, 2), (np.float64(0), 2)):
            with pytest.raises(CountError, match="must be integers"):
                count(1, rank, word)
        assert count(1, np.int32(0), np.int64(2)) == count(1, 0, 2) > 0


class TestNonIntegerRank:
    """Each scalar read takes its rank through ``operator.index``: rank 0.5,
    or an integral float, raises ``CountError`` instead of reading a row or
    slice that no integer names, and NumPy integers pass."""

    def setup_method(self):
        self.table = accumulate(encode(["a b a", "a c", "a b", "d a"]), 3)
        self.view = self.table.view()

    BAD = (0.5, 1.0, np.float64(1), "1")

    def check(self, read):
        for rank in self.BAD:
            with pytest.raises(CountError, match="must be an integer"):
                read(rank)
        for rank in (np.int64(1), np.int32(-1), np.uint8(0)):
            assert read(rank) == read(int(rank)), rank

    def test_stats(self):
        self.check(lambda rank: self.view.stats(2, rank))

    def test_cont_stats(self):
        self.check(lambda rank: self.view.cont_stats(2, rank))

    @pytest.mark.parametrize("cont", [False, True], ids=["raw", "cont"])
    def test_successors(self, cont):
        """Rank 0.5 once read as rank 0's last successor and rank 1's ones."""
        self.check(lambda rank: [a.tolist() for a in self.view.successors(2, rank, cont)])

    @pytest.mark.parametrize("cont", [False, True], ids=["raw", "cont"])
    def test_count_on_a_miss(self, cont):
        """A word that follows none of the contexts read: a non-integer rank
        raises, and an integer one, NumPy's too, reads 0."""
        count = self.view.cont_count if cont else self.view.count
        word = next(w for w in range(self.table.vocab_size)
                    if all(count(2, r, w) == 0 for r in (-1, 0, 1)))
        for rank in self.BAD:
            with pytest.raises(CountError, match="must be integers"):
                count(2, rank, word)
        for rank in (np.int64(1), np.int32(-1), np.uint8(0)):
            assert count(2, rank, word) == 0, rank


class TestUnobservedRank:
    """Rank -1 names an unobserved context and reads zeros on the scalar and
    bulk paths alike, with and without folds; any other rank outside the
    contexts raises."""

    @pytest.fixture(autouse=True, params=PARITY_CASES, ids=parity_id)
    def case(self, request):
        self.ORDER, self.FOLDS, seed = request.param
        corpus, _ = parity_corpora(seed)
        self.folded = cv_fold_counts(corpus, self.ORDER, folds=self.FOLDS)
        self.J = corpus.vocab.size

    def _kinds(self):
        """(order, continuation) of every stats kind of the store."""
        return [(n, cont) for n in range(1, self.ORDER + 1)
                for cont in ((False, True) if n < self.ORDER else (False,))]

    def _fold_choices(self, size):
        return [None] + [np.full(size, f) for f in range(self.FOLDS)]

    def test_stats_of_rank_minus_one_are_zero(self):
        view, zero = self.folded.view(), ContextStats(0, 0, 0, 0)
        for n, cont in self._kinds():
            scalar = view.cont_stats(n, -1) if cont else view.stats(n, -1)
            assert scalar == zero, (n, cont)
            for folds in self._fold_choices(1):
                bulk = view.bulk_stats(n, np.array([-1]), folds=folds, continuation=cont)
                assert tuple(int(x[0]) for x in bulk) == scalar, (n, cont, folds)

    def test_counts_of_rank_minus_one_are_zero(self):
        view = self.folded.view()
        words = np.arange(self.J)
        ranks = np.full(self.J, -1)
        for n, cont in self._kinds():
            count = view.cont_count if cont else view.count
            assert [count(n, -1, w) for w in range(self.J)] == [0] * self.J, (n, cont)
            for folds in self._fold_choices(self.J):
                got = view.bulk_counts(n, ranks, words, folds=folds, continuation=cont)
                assert got.tolist() == [0] * self.J, (n, cont, folds)

    def test_ranks_outside_the_contexts_rejected(self):
        """Stats, counts and successors alike, scalar and bulk, with and
        without folds, alone and mixed with valid ranks."""
        view = self.folded.view()
        for n, cont in self._kinds():
            n_ctx = len(self.folded.table.orders[n].ctx_codes)
            stats = view.cont_stats if cont else view.stats
            count = view.cont_count if cont else view.count
            scalar = [lambda r: stats(n, r), lambda r: count(n, r, 0),
                      lambda r: view.successors(n, r, cont)]
            for bad in (-2, n_ctx, n_ctx + 5):
                for call in scalar:
                    with pytest.raises(CountError, match=rf"rank {bad} outside -1\.\.{n_ctx - 1}"):
                        call(bad)
                for ranks in (np.array([bad]), np.array([0, bad, -1, n_ctx - 1])):
                    words = np.zeros(len(ranks), dtype=np.int64)
                    for folds in self._fold_choices(len(ranks)):
                        with pytest.raises(CountError, match=rf"-1\.\.{n_ctx - 1}"):
                            view.bulk_stats(n, ranks, folds=folds, continuation=cont)
                        with pytest.raises(CountError, match=rf"-1\.\.{n_ctx - 1}"):
                            view.bulk_counts(n, ranks, words, folds=folds, continuation=cont)
            # the bounds themselves are ranks
            assert stats(n, n_ctx - 1).total > 0
            assert len(view.successors(n, n_ctx - 1, cont)[0]) > 0
            for r in (-1, n_ctx - 1):
                count(n, r, 0)
            ends = np.array([-1, n_ctx - 1])
            view.bulk_stats(n, ends, continuation=cont)
            view.bulk_counts(n, ends, np.zeros(2, dtype=np.int64), continuation=cont)


class TestShuffledPositions:
    """A bulk call answers each position alone: on the positions of a
    shuffled corpus, or in a shuffled order, every result is the unshuffled
    one permuted the same way."""

    @pytest.fixture(autouse=True, params=PARITY_CASES, ids=parity_id)
    def case(self, request):
        self.ORDER, self.FOLDS, seed = request.param
        self.train, self.held = parity_corpora(seed)
        self.folded = cv_fold_counts(self.train, self.ORDER, folds=self.FOLDS)
        self.rng = np.random.default_rng(seed)

    def test_bulk_ranks_of_shuffled_sentences(self):
        view = self.folded.view()
        for corpus in (self.train, self.held):
            ranks, words, sent_of = view.bulk_ranks(corpus)
            order = self.rng.permutation(len(corpus.sentences))
            shuffled = EncodedCorpus([corpus.sentences[i] for i in order], corpus.vocab)
            # the positions of sentence order[0], then of order[1], ...
            perm = np.concatenate([np.flatnonzero(sent_of == i) for i in order])
            got = view.bulk_ranks(shuffled)
            np.testing.assert_array_equal(got[0], ranks[perm])
            np.testing.assert_array_equal(got[1], words[perm])

    def test_bulk_counts_and_stats_of_shuffled_positions(self):
        view = self.folded.view()
        for corpus in (self.train, self.held):
            ranks, words, _ = view.bulk_ranks(corpus)
            perm = self.rng.permutation(len(words))
            fold_choices = [None, self.rng.integers(0, self.FOLDS, len(words))]
            for n in range(1, self.ORDER + 1):
                r = ranks[:, n - 1]
                for cont in (False, True) if n < self.ORDER else (False,):
                    for folds in fold_choices:
                        shuffled_folds = None if folds is None else folds[perm]
                        counts = view.bulk_counts(n, r, words, folds=folds, continuation=cont)
                        np.testing.assert_array_equal(
                            view.bulk_counts(n, r[perm], words[perm], folds=shuffled_folds,
                                             continuation=cont), counts[perm])
                        stats = view.bulk_stats(n, r, folds=folds, continuation=cont)
                        got = view.bulk_stats(n, r[perm], folds=shuffled_folds, continuation=cont)
                        for a, b in zip(got, stats):
                            np.testing.assert_array_equal(a, b[perm])


class TestFind:
    """``_find`` against a per-needle ``bisect`` on the keys: the position of
    the needle cast to the keys' width, clamped to the last key, and a hit
    only where the key equals the unwrapped needle."""

    @staticmethod
    def reference(keys, query):
        width = keys.dtype.itemsize * 8
        sorted_keys = keys.tolist()
        idx, hit = [], []
        for q in query.tolist():
            cast = (q + 2**(width - 1)) % 2**width - 2**(width - 1)  # wraps as astype does
            i = min(bisect.bisect_left(sorted_keys, cast), len(keys) - 1)
            idx.append(i)
            hit.append(sorted_keys[i] == q)
        return idx, hit

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("n_keys", [1, 7, 5000])
    @pytest.mark.parametrize("n_query", [0, 1, 2048])
    def test_matches_bisect(self, dtype, n_keys, n_query):
        rng = np.random.default_rng(n_keys * 31 + n_query)
        base = 9  # a word alphabet, as in rank * B + word keys
        keys = np.unique(rng.integers(0, 40 * n_keys, size=n_keys))
        keys = np.concatenate([keys, keys[-1] + 1 + np.arange(n_keys - len(keys))]).astype(dtype)
        wide = keys.astype(np.int64)
        special = np.concatenate([
            -base + rng.integers(0, base, size=8),  # built from rank -1
            wide[-1] + rng.integers(1, 1000, size=8),  # past the last key
            wide[rng.integers(0, n_keys, size=8)] + 2**32,  # wraps onto a key at int32
        ])
        pool = np.concatenate([wide, wide + 1, special])  # keys, between and past them
        query = rng.permutation(np.concatenate(  # unsorted, with duplicates
            [special, rng.choice(pool, size=max(0, n_query - len(special)))]))[:n_query]
        idx, hit = mcounts._find(keys, query)
        want_idx, want_hit = self.reference(keys, query)
        assert idx.tolist() == want_idx
        assert hit.tolist() == want_hit
        assert len(idx) == n_query and hit.dtype == bool
        if n_query > len(special):
            assert len(np.unique(query)) < n_query and hit.any() and not hit.all()
            if dtype == np.int32:  # some needle wraps onto a key and still misses
                assert (np.isin(query.astype(dtype), keys) & ~hit).any()


class TestRankChainHit:
    """A context that is a suffix of the latest one is answered from the kept
    chain before any id is converted; a miss converts and checks the ids."""

    FORMS = pytest.mark.parametrize(
        "form", [tuple, list, lambda c: tuple(np.int64(x) for x in c)],
        ids=["tuple", "list", "np-int64"])

    def setup_method(self):
        self.corpus = encode(["a b a", "a c", "a b", "d a"])
        self.table = accumulate(self.corpus, 3)
        self.view = self.table.view()
        v = self.corpus.vocab
        self.ctx = (v.id_of("a"), v.id_of("b"))

    @FORMS
    def test_forms_yield_equal_chains(self, form):
        want = CountView(self.table).rank_chain(self.ctx)
        assert want[-1] >= 0
        assert self.view.rank_chain(form(self.ctx)) == want  # a miss
        for k in range(len(self.ctx) + 1):  # hits, on the kept chain
            got = self.view.rank_chain(form(self.ctx[k:]))
            assert got == want[:len(self.ctx) - k + 1]

    def test_suffix_is_answered_without_a_lookup(self, monkeypatch):
        """A suffix of the latest context, in any form, and that context
        itself read a prefix of the kept chain: no context is searched."""
        chain = self.view.rank_chain(self.ctx)
        searched = []
        index = mcounts._index
        monkeypatch.setattr(mcounts, "_index",
                            lambda keys, key: searched.append(key) or index(keys, key))
        for suffix in (self.ctx[1:], (np.int64(self.ctx[1]),), [self.ctx[1]], (), self.ctx):
            assert self.view.rank_chain(suffix) == chain[:len(suffix) + 1], suffix
        assert not searched
        self.view.rank_chain(self.ctx[:1])  # not a suffix: searched
        assert searched

    @pytest.mark.parametrize("form", [tuple, list, lambda c: tuple(map(np.float64, c))],
                             ids=["tuple", "list", "np-float64"])
    def test_non_integer_id_on_a_miss_rejected(self, form):
        """Ids go through ``operator.index`` on a miss: (2.7, 3.2) is not
        read as (2, 3), and neither is an integral float."""
        for ctx in ((2.7, 3.2), (float(self.ctx[1]),), (self.ctx[0], 0.5)):
            with pytest.raises(CountError, match="context ids must be integers"):
                self.view.rank_chain(form(ctx))

    @pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                       reason="ROADMAP item 17: a hit compares ids with the kept context "
                              "by value before converting any, so integral floats pass")
    def test_integral_float_on_a_hit_rejected(self):
        """After a chain for (a, b), the same context as floats raises, as it
        does on a fresh view."""
        floats = tuple(map(float, self.ctx))
        with pytest.raises(CountError, match="context ids must be integers"):
            CountView(self.table).rank_chain(floats)
        self.view.rank_chain(self.ctx)
        with pytest.raises(CountError, match="context ids must be integers"):
            self.view.rank_chain(floats)

    @FORMS
    def test_out_of_range_id_on_a_miss_rejected(self, form):
        self.view.rank_chain(self.ctx)
        bad = self.table.base
        for ctx in ((bad,), (bad, self.ctx[1]), (-1,)):
            with pytest.raises(CountError, match="context ids must lie in"):
                self.view.rank_chain(form(ctx))
        fresh = CountView(self.table).rank_chain(self.ctx[1:])
        assert self.view.rank_chain(self.ctx[1:]) == fresh

    def test_top_order_continuation_raises_every_time(self):
        for _ in range(3):
            with pytest.raises(CountError, match="no continuation counts at order 3"):
                self.view.cont_stats(3, 0)
            with pytest.raises(CountError, match="no continuation counts at order 3"):
                self.view.cont_count(3, 0, 1)
        assert self.view.cont_stats(2, 0) == CountView(self.table).cont_stats(2, 0)


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

    def test_accepted_vocabulary_lets_no_other_pass(self):
        """After accepting the table's vocabulary a view still rejects a
        same-size one, each time, and accepts an equal copy of the table's:
        the check compares fingerprints, the first 16 hex digits of the
        SHA-256 of the newline-joined words."""
        renamed = encode([line.replace("w", "v")
                          for line in synthetic_lines(50, n_words=10, seed=11)])
        assert renamed.vocab.size == self.train.vocab.size
        words = "\n".join(self.train.vocab.id_to_word).encode("utf-8")
        assert self.table.vocab_fingerprint == hashlib.sha256(words).hexdigest()[:16]
        first = self.view.bulk_ranks(self.train)
        for _ in range(2):
            with pytest.raises(CountError, match="vocabulary"):
                self.view.bulk_ranks(renamed)
            for got, want in zip(self.view.bulk_ranks(self.train), first):
                np.testing.assert_array_equal(got, want)
        copy = EncodedCorpus(self.train.sentences, Vocabulary(list(self.train.vocab.id_to_word)))
        for got, want in zip(self.view.bulk_ranks(copy), first):
            np.testing.assert_array_equal(got, want)

    def test_bulk_continuation_counts(self):
        ranks, words, _ = self.view.bulk_ranks(self.train)
        for n in (1, 2):
            cc = self.view.bulk_counts(n, ranks[:, n - 1], words, continuation=True)
            for t in range(0, len(words), 7):
                r = int(ranks[t, n - 1])
                if r >= 0:
                    assert cc[t] == self.view.cont_count(n, r, int(words[t]))


def assert_left_out_equals_recount(folded, corpus, texts):
    """Every bulk count and stats read of each text, with one fold left out
    for every position, equals the store counted without that fold, and
    comes at the store's width."""
    view, order = folded.view(), folded.table.order
    width = folded.table.orders[1].type_keys.dtype
    for f, table in enumerate(fold_out_tables(corpus, order, folded.n_folds)):
        rview = table.view()
        for text in texts:
            ranks, words, _ = view.bulk_ranks(text)
            rranks = rview.bulk_ranks(text)[0]
            same = np.full(len(words), f)
            for n in range(1, order + 1):
                r, r2 = ranks[:, n - 1], rranks[:, n - 1]
                for cont in (False, True) if n < order else (False,):
                    where = f"fold {f} order {n} continuation {cont}"
                    got = view.bulk_counts(n, r, words, same, cont)
                    stats = view.bulk_stats(n, r, same, cont)
                    assert {a.dtype for a in (got, *stats)} == {width}, where
                    np.testing.assert_array_equal(
                        got, rview.bulk_counts(n, r2, words, continuation=cont), err_msg=where)
                    np.testing.assert_array_equal(
                        stats, rview.bulk_stats(n, r2, continuation=cont), err_msg=where)


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
        """The fold build stores every array the build without folds stores,
        with the same values at the same widths."""
        full = accumulate(self.corpus, self.ORDER)
        assert_tables_equal(self.folded.table, full)
        assert widths(self.folded.table) == widths(full)
        assert self.folded.view().fold is None

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

    def test_reads_follow_the_fold_tags(self):
        """Every type and context read with every fold left out: one tagged
        with that fold reads 0, one tagged with another fold its full value,
        and one tagged F its full value less a delta where the fold holds it
        (by a dict recount) and its full value where the fold does not (a
        type queried with a fold it does not occur in).  Rank -1, tagged 0,
        reads 0 either way.  ``_check_against_reduced`` compares the same
        reads with a recount."""
        view, table, F = self.folded.view(), self.folded.table, self.FOLDS
        recount, seen = fold_recount(table, self.corpus, F), set()
        for n in range(1, self.ORDER + 1):
            od, fd = table.orders[n], self.folded.fold_data[n]
            ranks, words = np.divmod(od.type_keys, table.base)
            ctx = np.arange(-1, len(od.ctx_codes))
            # which folds hold each type, and each context after rank -1
            types, contexts = recount[n]
            held_in = [types[:, :, 0] > 0,
                       np.concatenate([np.zeros((1, F), dtype=bool), contexts[:, :, 0, 0] > 0])]
            reads = [("type", np.arange(len(ranks)), fd.type_tags, held_in[0],
                      lambda f: view.bulk_counts(n, ranks, words, folds=f)),
                     ("context", ctx, fd.stat_tags[ctx], held_in[1],
                      lambda f: view.bulk_stats(n, ctx, folds=f).total)]
            for what, ids, tags, held_in, read in reads:
                full = read(None)
                for f in range(F):
                    got = read(np.full(len(ids), f))
                    held = held_in[:, f]
                    cases = {"own": tags == f, "other": (tags < F) & (tags != f),
                             "held": (tags == F) & held, "absent": (tags == F) & ~held}
                    np.testing.assert_array_equal(got[cases["own"]], 0)
                    for case in ("other", "absent"):
                        np.testing.assert_array_equal(got[cases[case]], full[cases[case]])
                    held = cases["held"]
                    assert np.all(got[held] > 0) and np.all(got[held] < full[held])
                    seen |= {(what, case) for case, mask in cases.items() if mask.any()}
                if what == "context":
                    assert tags[0] == 0 and full[0] == 0
        assert ("context", "held") in seen and ("type", "held") in seen
        if self.ORDER > 1:  # order 1 alone: every word of this text is in every fold
            assert {("type", "own"), ("type", "other"), ("context", "own")} <= seen
            # two folds of a tag-F type are all the folds there are
            assert (("type", "absent") in seen) == (F > 2)

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

    def test_store_invariants(self, tmp_path):
        """Counted, folded and file-loaded stores all keep the store invariants."""
        table = accumulate(self.corpus, self.ORDER)
        assert_store_invariants(table)
        assert_store_invariants(self.folded.table, self.folded, self.corpus)
        assert_store_invariants(loaded(saved(table, tmp_path), tmp_path))


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

    @pytest.mark.parametrize("make", [
        lambda n: np.full(n, 0.5), lambda n: [0.0] * n, lambda n: np.zeros(n),
        lambda n: np.zeros(n, dtype=bool), lambda n: ["0"] * n,
    ], ids=["fractional-array", "float-list", "integral-float-array", "bool-array", "text-list"])
    def test_non_integer_folds_rejected(self, make):
        view = cv_fold_counts(self.corpus, 2, folds=2).view()
        folds = make(len(self.ranks))
        with pytest.raises(CountError, match="folds must be integers"):
            view.bulk_stats(2, self.ranks, folds=folds)
        with pytest.raises(CountError, match="folds must be integers"):
            view.bulk_counts(2, self.ranks, self.words, folds=folds)

    def test_integer_list_folds_equal_array_folds(self):
        view = cv_fold_counts(self.corpus, 2, folds=2).view()
        folds = [t % 2 for t in range(len(self.ranks))]
        np.testing.assert_array_equal(view.bulk_counts(2, self.ranks, self.words, folds=folds),
                                      view.bulk_counts(2, self.ranks, self.words,
                                                       folds=np.array(folds)))
        assert all(np.array_equal(x, y) for x, y in
                   zip(view.bulk_stats(2, self.ranks, folds=folds),
                       view.bulk_stats(2, self.ranks, folds=np.array(folds))))

    def test_folds_without_fold_data_rejected(self):
        view = accumulate(self.corpus, 2).view()
        with pytest.raises(CountError, match="without fold data"):
            view.bulk_stats(2, self.ranks, folds=np.zeros(len(self.ranks), dtype=np.int64))


class TestBulkArguments:
    """Bulk calls take ranks, words and folds as 1-D integer arrays of one
    length (lists of ints too); anything else raises ``CountError`` instead
    of broadcasting, truncating a float id or failing on a list."""

    def setup_method(self):
        corpus = toy_corpus()
        self.view = accumulate(corpus, 3).view()
        self.folded = cv_fold_counts(corpus, 3, folds=2).view()

    def test_integer_lists_equal_arrays(self):
        view = self.view
        np.testing.assert_array_equal(view.bulk_counts(2, [1, 0], [2, 2]),
                                      view.bulk_counts(2, np.array([1, 0]), np.array([2, 2])))
        assert all(np.array_equal(x, y) for x, y in
                   zip(view.bulk_stats(2, [1, 0]), view.bulk_stats(2, np.array([1, 0]))))

    @pytest.mark.parametrize("ranks, words, match", [
        ([0, 0, 0], [2], "one word in 0..4 for each of the 3 positions, not 1"),
        ([0], [2, 3, 1], "one word in 0..4 for each of the 1 positions, not 3"),
        ([0, 0], np.array([2.0, 2.9]), "words must be integers"),
        ([0, 0], [True, False], "words must be integers"),
        ([[0, 0]], [2, 2], "ranks must be integers in a 1-D array, not 2-D"),
        (np.array([0.0, 0.0]), [2, 2], "ranks must be integers"),
    ], ids=["one-word-for-three", "three-words-for-one", "float-words", "bool-words",
            "2d-ranks", "float-ranks"])
    def test_bulk_counts_rejects(self, ranks, words, match):
        with pytest.raises(CountError, match=match):
            self.view.bulk_counts(1, ranks, words)

    @pytest.mark.parametrize("ranks", [[True, False], np.zeros((2, 1), dtype=np.int64),
                                       np.array([0.0, 1.0])], ids=["bool", "2d", "float"])
    def test_bulk_stats_rejects(self, ranks):
        with pytest.raises(CountError, match="ranks must be integers"):
            self.view.bulk_stats(2, ranks)

    def test_one_word_does_not_broadcast_past_the_folds(self):
        with pytest.raises(CountError, match="one word in 0..4 for each of the 2 positions"):
            self.folded.bulk_counts(1, [0, 0], [2], folds=[0, 1])


def assert_stats_equal(got, want, where):
    for x, y in zip(got, want, strict=True):
        np.testing.assert_array_equal(x, y, err_msg=str(where))


class TestKeptBulkStats:
    """A view keeps no fold-view ``bulk_stats`` result: every call, of either
    kind and for any positions, reads its own, and equals the same call on
    a fresh view."""

    ORDER, FOLDS = 5, 4

    def setup_method(self):
        corpus = encode(synthetic_lines(60, n_words=12, seed=41))
        self.folded = cv_fold_counts(corpus, self.ORDER, folds=self.FOLDS)
        self.spec = SmoothingSpec.kn(self.folded.table, self.ORDER)
        self.ranks, self.words, sent_of = self.folded.view().bulk_ranks(corpus)
        self.folds = self.folded.fold_assignment[sent_of]

    def variants(self):
        """(name, ranks, words, folds): the positions, other positions, the
        same ranks with other folds, and other ranks with the same folds."""
        r, w, f = self.ranks, self.words, self.folds
        return [("positions", r, w, f), ("every-other", r[::2], w[::2], f[::2]),
                ("folds-only", r, w, (f + 1) % self.FOLDS),
                ("ranks-only", np.roll(r, 1, axis=0), w, f)]

    def fresh(self, order, ranks, folds, cont):
        return self.folded.view().bulk_stats(order, ranks, folds=folds, continuation=cont)

    def test_interleaved_calls_equal_a_fresh_view(self):
        view = self.folded.view()
        calls = [(name, n, cont) for name, *_ in self.variants()
                 for n in range(1, self.ORDER + 1)
                 for cont in ((False, True) if n < self.ORDER else (False,))]
        by_name = {name: (r, f) for name, r, _, f in self.variants()}
        rng = np.random.default_rng(3)
        for i in rng.permutation(len(calls)).tolist() * 2:
            name, n, cont = calls[i]
            r, f = by_name[name]
            got = view.bulk_stats(n, r[:, n - 1], folds=f, continuation=cont)
            assert_stats_equal(got, self.fresh(n, r[:, n - 1], f, cont), calls[i])

    @pytest.mark.parametrize("rows_first", [True, False], ids=["rows-first", "features-first"])
    def test_rows_and_features_equal_a_fresh_view(self, rows_first):
        view = self.folded.view()
        for name, r, w, f in self.variants() * 2:
            calls = [lambda v: bulk_column_rows(v, self.spec, r, w, f),
                     lambda v: (bulk_context_features(v, self.spec, r, f),)]
            for call in calls if rows_first else calls[::-1]:
                for x, y in zip(call(view), call(self.folded.view()), strict=True):
                    np.testing.assert_array_equal(x, y, err_msg=name)

    def test_a_callers_array_changed_in_place_is_read_again(self):
        view = self.folded.view()
        r, f = self.ranks[:, 2].copy(), self.folds.copy()
        view.bulk_stats(3, r, folds=f)
        r[:] = np.roll(r, 3)
        assert_stats_equal(view.bulk_stats(3, r, folds=f), self.fresh(3, r, f, False), "ranks")
        f[:] = (f + 1) % self.FOLDS
        assert_stats_equal(view.bulk_stats(3, r, folds=f), self.fresh(3, r, f, False), "folds")

    def test_writing_into_a_result_changes_no_later_result(self):
        view = self.folded.view()
        r = self.ranks[:, 1]
        for cont in (False, True):
            got = view.bulk_stats(2, r, folds=self.folds, continuation=cont)
            for arr in got:
                arr += 1000
            assert_stats_equal(view.bulk_stats(2, r, folds=self.folds, continuation=cont),
                               self.fresh(2, r, self.folds, cont), cont)
        counts = view.bulk_counts(2, r, self.words, folds=self.folds)
        counts[:] = -1
        np.testing.assert_array_equal(
            view.bulk_counts(2, r, self.words, folds=self.folds),
            self.folded.view().bulk_counts(2, r, self.words, folds=self.folds))

    def test_checks_still_raise_on_a_kept_lookup(self):
        view = self.folded.view()
        r, f = self.ranks[:, 3], self.folds
        n_ctx = len(self.folded.table.orders[4].ctx_codes)
        view.bulk_stats(4, r, folds=f)
        bad = r.copy()
        bad[0] = n_ctx
        with pytest.raises(CountError, match=rf"ranks must lie in -1\.\.{n_ctx - 1}"):
            view.bulk_stats(4, bad, folds=f)
        with pytest.raises(CountError, match=f"one fold in 0..{self.FOLDS - 1} for each"):
            view.bulk_stats(4, r, folds=f + self.FOLDS)
        with pytest.raises(CountError, match=f"one fold in 0..{self.FOLDS - 1} for each"):
            view.bulk_stats(4, r, folds=f[:-1])
        with pytest.raises(CountError, match="folds must be integers"):
            view.bulk_stats(4, r, folds=f.astype(float))

    def test_fold_views_search_the_type_keys_alone(self, monkeypatch):
        """A fold-view ``bulk_stats`` call makes no ``_find`` call, reading
        its positions' tags and cell rows by rank, and a fold-view
        ``bulk_counts`` call exactly one, into the type keys."""
        searched = []
        find = mcounts._find

        def counting(keys, query):
            searched.append(keys)
            return find(keys, query)

        monkeypatch.setattr(mcounts, "_find", counting)
        view, table = self.folded.view(), self.folded.table
        for n in range(1, self.ORDER + 1):
            r = self.ranks[:, n - 1]
            for cont in (False, True) if n < self.ORDER else (False,):
                view.bulk_stats(n, r, folds=self.folds, continuation=cont)
                assert searched == [], (n, cont)
                view.bulk_counts(n, r, self.words, folds=self.folds, continuation=cont)
                assert len(searched) == 1 and searched[0] is table.orders[n].type_keys, (n, cont)
                searched.clear()


class TestStatsRows:
    """Each ``stats``/``cont_stats`` call reads and checks its own rank's row,
    whatever the view read before."""

    ORDER = 3

    def setup_method(self):
        self.table = accumulate(encode(synthetic_lines(30, n_words=9, seed=5)), self.ORDER)

    def kinds(self):
        return [(n, cont) for n in range(1, self.ORDER + 1)
                for cont in ((False, True) if n < self.ORDER else (False,))]

    @staticmethod
    def read(view, n, rank, cont):
        return view.cont_stats(n, rank) if cont else view.stats(n, rank)

    def test_alternating_ranks_read_their_own_rows(self):
        view = self.table.view()
        for n, cont in self.kinds():
            last = len(self.table.orders[n].ctx_codes) - 1
            for rank in (0, last, 0, -1, np.int64(last), last, -1):
                for m, other in self.kinds():  # interleave every other kind
                    self.read(view, m, 0, other)
                want = self.read(self.table.view(), n, rank, cont)
                assert self.read(view, n, rank, cont) == want, (n, cont, rank)

    def test_out_of_range_rank_raises_after_a_kept_read(self):
        view = self.table.view()
        for n, cont in self.kinds():
            n_ctx = len(self.table.orders[n].ctx_codes)
            row = self.read(view, n, n_ctx - 1, cont)
            for bad in (-2, n_ctx, n_ctx + 1):
                with pytest.raises(CountError, match=rf"rank {bad} outside -1\.\.{n_ctx - 1}"):
                    self.read(view, n, bad, cont)
            assert self.read(view, n, n_ctx - 1, cont) == row


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
        assert widths(loaded) == widths(self.table)
        assert_store_invariants(loaded)

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
            "version 4": data[:4] + struct.pack("<I", 4) + data[8:],
        }
        for what, bad in damaged.items():
            path.write_bytes(bad)
            with pytest.raises(CountError):
                CountTable.load(str(path))
        # damage behind a valid checksum reaches the checks after it
        at = first_array_at(data)
        behind_checksum = {
            "not ASCII": data[:FINGERPRINT_AT] + b"\xff" + data[FINGERPRINT_AT + 1:],
            "order must be": data[:8] + struct.pack("<I", 0) + data[12:at] + bytes(4),
            "version 4": data[:4] + struct.pack("<I", 4) + data[8:],
            "width 3": data[:at] + struct.pack("<I", 3) + data[at + 4:],
        }
        for message, bad in behind_checksum.items():
            with pytest.raises(CountError, match=message):
                loaded(sealed(bad), tmp_path)

    def test_rejects_every_single_byte_change(self, tmp_path):
        data = saved(accumulate(encode(["a b a", "a c", "a b", "d a"]), 3), tmp_path)
        accepted = []
        for i in range(len(data)):
            for flip in (0x01, 0xFF):
                bad = bytearray(data)
                bad[i] ^= flip
                try:
                    loaded(bytes(bad), tmp_path)
                except CountError:
                    continue
                accepted.append((i, flip))
        assert not accepted

    def test_rejects_keys_out_of_order_or_range_behind_checksum(self, tmp_path):
        """A file whose checksum is valid still has its arrays checked: a top
        type key past every context, two keys swapped, and a key past the
        store's width, written at the width it needs; and the same at the
        order-2 contexts."""
        table = accumulate(encode(["a b a", "a c", "a b", "d a"]), 3)
        data = saved(table, tmp_path)
        arrays = file_arrays(data)
        assert [width for _, width, _ in arrays] == [4, 4, 4, 4, 1, 4]
        for n, (at, _, _), keys in ((3, arrays[3], table.orders[3].type_keys),
                                    (2, arrays[1], table.orders[2].ctx_codes)):
            first, second = slice(at + 12, at + 16), slice(at + 16, at + 20)
            oversized = bytearray(data)
            oversized[first] = struct.pack("<i", 2**31 - 1)
            swapped = bytearray(data)
            swapped[first], swapped[second] = data[second], data[first]
            for bad in (sealed(bytes(oversized)), sealed(bytes(swapped))):
                with pytest.raises(CountError, match=f"order-{n} keys"):
                    loaded(bad, tmp_path)
            keys = keys.astype(np.int64)
            keys[-1] = 2**31
            got = r"\[4, 4, 4, 8, 1, 4\]" if n == 3 else r"\[4, 8, 4, 4, 1, 4\]"
            with pytest.raises(CountError, match=rf"arrays have widths {got}, "
                                                 r"not \[4, 4, 4, 4, 1, 4\]"):
                loaded(rewritten(data, at, keys, 8), tmp_path)

    @pytest.mark.parametrize("field, value, message", [
        ("version", 3, "version 3"), ("width", 0, "width 0"),
        ("width", 2, r"widths \[2, 4, 4, 4, 1, 4\], not \[4, 4, 4, 4, 1, 4\]"),
        ("width", 16, "width 16")],
        ids=["version-3", "width-0", "width-2", "width-16"])
    def test_rejects_other_version_or_width_behind_checksum(self, field, value, message,
                                                            tmp_path):
        """A version other than 7, a width field other than 1, 2, 4 or 8, and
        an array at another width than the store's (order 1's one context,
        0, at two bytes) do not load."""
        data = saved(self.table, tmp_path)
        at = first_array_at(data)
        assert struct.unpack_from("<II", data, 4) == (7, 3)
        assert struct.unpack_from("<IQi", data, at) == (4, 1, 0)
        if field == "version":
            bad = sealed(data[:4] + struct.pack("<I", value) + data[8:])
        elif value == 2:
            bad = rewritten(data, at, [0], 2)
        else:
            bad = sealed(data[:at] + struct.pack("<I", value) + data[at + 4:])
        with pytest.raises(CountError, match=message):
            loaded(bad, tmp_path)

    def test_rejects_width_its_bounds_do_not_select(self, monkeypatch, tmp_path):
        """A small table written with every key array and table at width 8
        behind a valid checksum: each array must have the width a build of
        that table gives it, so a file reads back at those widths."""
        data = all_int64(monkeypatch, lambda: saved(accumulate(self.corpus, 3), tmp_path))
        assert struct.unpack_from("<I", data, first_array_at(data)) == (8,)
        with pytest.raises(CountError, match=r"arrays have widths \[8, 8, 8, 8, 1, 8\], "
                                             r"not \[4, 4, 4, 4, 1, 4\]"):
            loaded(data, tmp_path)

    @pytest.mark.parametrize("version", sorted(OLDER_FORMAT_FILES))
    def test_rejects_an_older_format_file(self, version, tmp_path):
        """A format-5 or format-6 file is refused by its version although its
        checksum holds; no reader of either is kept.  The bytes are those each
        format wrote for the order-2 table of "a b a / a c"."""
        data = bytes.fromhex(OLDER_FORMAT_FILES[version])
        assert data == sealed(data) and struct.unpack_from("<II", data, 4) == (version, 2)
        fingerprint = encode(["a b a", "a c"]).vocab.fingerprint.encode("ascii")
        assert data[FINGERPRINT_AT:first_array_at(data)] == fingerprint
        with pytest.raises(CountError, match=f"unsupported count-table version {version}"):
            loaded(data, tmp_path)

    @pytest.mark.parametrize("wide", [False, True], ids=["int32", "int64"])
    def test_round_trip_keeps_values_and_widths(self, monkeypatch, tmp_path, wide):
        """A loaded table holds every array of the saved one at its value and
        dtype, at int32 and for a table whose key arrays and tables are all
        int64.  The file holds the contexts of every order, then the top
        order's type keys, count codes and count table, each as the store
        holds it, and nothing else."""
        table = all_int64(monkeypatch, lambda: accumulate(self.corpus, 3)) if wide else self.table
        data = saved(table, tmp_path)
        got = (all_int64(monkeypatch, lambda: loaded(data, tmp_path)) if wide
               else loaded(data, tmp_path))
        assert {d for w in widths(got) for name, d in w.items() if name not in TABLES} == {
            np.dtype(np.int64 if wide else np.int32)}
        assert widths(got) == widths(table)
        assert_tables_equal(table, got)
        arrays = file_arrays(data)
        assert len(arrays) == table.order + 3
        for (at, width, size), want in zip(arrays, written(table)):
            assert (width, size) == (want.itemsize, want.size)
            np.testing.assert_array_equal(
                np.frombuffer(data, want.dtype.newbyteorder("<"), size, at + 12), want)

    @pytest.mark.parametrize("damage", [
        "code past its table", "entry left out", "table out of order", "equal entries",
        "codes wider than their table needs"])
    def test_rejects_count_codes_that_do_not_fit_their_table(self, damage, tmp_path):
        """``save`` seals whatever codes and table the top order holds; ``load``
        takes only codes of the narrowest unsigned width that index every
        entry of a table strictly increasing from 1.  Each damage but the
        first keeps the decoded counts, so their sum still holds."""
        table = accumulate(encode(["a b a", "a c", "a b", "d a"]), 3)
        od = table.orders[3]
        counts, codes = decoded(od, "type_counts"), od.type_counts
        assert len(od.count_table) >= 2 and np.bincount(codes)[0] >= 2
        if damage == "code past its table":  # one of two types of count 1 moves past the end
            codes[np.flatnonzero(codes == 0)[0]] = len(od.count_table)
        elif damage == "entry left out":
            od.count_table = np.append(od.count_table, od.count_table[-1] + 1)
        elif damage == "table out of order":
            od.count_table[[0, 1]] = od.count_table[[1, 0]]
            od.type_counts = np.where(codes < 2, codes ^ 1, codes)
        elif damage == "equal entries":  # one of two types of count 1 reads a second 1
            od.count_table = np.insert(od.count_table, 0, od.count_table[0])
            od.type_counts = codes + 1
            od.type_counts[np.flatnonzero(codes == 0)[0]] = 0
        else:
            od.type_counts = codes.astype(np.uint16)
        if damage != "code past its table":
            np.testing.assert_array_equal(decoded(od, "type_counts"), counts)
        with pytest.raises(CountError, match="order-3 counts are not codes|arrays have widths"):
            loaded(saved(table, tmp_path), tmp_path)

    @pytest.mark.parametrize("damage", [
        "second order-1 context", "negative order-2 context", "order-2 contexts unsorted",
        "contexts unsorted", "suffix rank past the shorter contexts", "last code past the width",
        "key past the contexts", "negative key", "types unsorted", "bos word", "zero count",
        "counts miss the token count"])
    def test_rejects_written_arrays_out_of_order_or_range(self, damage, tmp_path):
        """``save`` seals whatever arrays a table holds; ``load`` checks each
        one it writes: the contexts of every order, and the top order's types
        and counts."""
        table = accumulate(encode(["a b a", "a c", "a b", "d a"]), 3)
        o = table.orders
        if damage == "second order-1 context":
            o[1].ctx_codes = np.array([0, 5], dtype=o[1].ctx_codes.dtype)
        elif damage == "negative order-2 context":
            o[2].ctx_codes[0] = -1
        elif damage == "order-2 contexts unsorted":
            o[2].ctx_codes[[0, 1]] = o[2].ctx_codes[[1, 0]]
        elif damage == "contexts unsorted":
            o[3].ctx_codes[[0, 1]] = o[3].ctx_codes[[1, 0]]
        elif damage == "suffix rank past the shorter contexts":
            o[3].ctx_codes[-1] = len(o[2].ctx_codes) * table.base
        elif damage == "last code past the width":  # its difference wraps to a positive int32
            o[3].ctx_codes[-1] = -2**31
        elif damage == "key past the contexts":
            o[3].type_keys[-1] = len(o[3].ctx_codes) * table.base
        elif damage == "negative key":
            o[3].type_keys[0] = -1
        elif damage == "types unsorted":
            o[3].type_keys[[0, 1]] = o[3].type_keys[[1, 0]]
        elif damage == "bos word":  # still the largest key
            o[3].type_keys[-1] += table.base - 1 - o[3].type_keys[-1] % table.base
        elif damage == "zero count":  # the sum stays the token count
            counts = decoded(o[3], "type_counts")
            recoded(o[3], np.r_[counts[:2].sum(), 0, counts[2:]])
        else:
            counts = decoded(o[3], "type_counts")
            counts[0] += 1
            recoded(o[3], counts)
        data = saved(table, tmp_path)
        n = damage.partition("order-")[2][:1] or "3"
        with pytest.raises(CountError, match=f"order-{n} (keys|counts)"):
            loaded(data, tmp_path)

    def test_rejects_a_context_no_type_names(self, tmp_path):
        """An order-3 context code put into a gap between two of the codes,
        the type keys after it shifted one rank, and sealed behind a valid
        checksum: every array is in order and in range, but the new context
        has no successor, so its distributions would sum to less than 1.  A
        build names every context, and ``load`` refuses the file."""
        table = accumulate(encode(["a b a", "a c", "a b", "d a"]), 3)
        od, base = table.orders[3], table.base
        codes = od.ctx_codes.tolist()
        gap = next(c for c in range(codes[0], codes[-1]) if c not in codes)
        at = int(np.searchsorted(od.ctx_codes, gap))
        od.ctx_codes = np.insert(od.ctx_codes, at, gap)
        od.type_keys[od.type_keys // base >= at] += base
        data = saved(table, tmp_path)
        assert data == sealed(data)
        with pytest.raises(CountError, match="order-3 keys leave a context unnamed"):
            loaded(data, tmp_path)

    def test_store_holds_nothing_but_arrays(self):
        """Every attribute of every order's and fold's arrays, from
        ``accumulate`` and from ``cv_fold_counts``, is an ndarray or None:
        ``bench/pipeline.store_bytes`` sums the ndarrays alone, so no store
        byte may hide in anything else."""
        corpus = encode(synthetic_lines(60, n_words=11, seed=4))
        folded = cv_fold_counts(corpus, 4, folds=3)
        for holder in (*accumulate(corpus, 4).orders[1:], *folded.table.orders[1:],
                       *folded.fold_data[1:]):
            for name, value in vars(holder).items():
                assert value is None or type(value) is np.ndarray, (type(holder), name)

    def test_saved_file_is_pinned(self, tmp_path):
        """The format-7 file of a fixed small corpus, counted to order 4, has
        a pinned SHA-256: a change to any byte a build writes fails here."""
        table = accumulate(encode(synthetic_lines(60, n_words=11, seed=4)), 4)
        assert hashlib.sha256(saved(table, tmp_path)).hexdigest() == (
            "ce79bd5bebb3be0f83cab0f292bfd56c42bd6bc0f968f4c1726859dc51870b4c")

    def test_store_arrays_are_direct_attributes(self, tmp_path):
        """The benchmark counts store bytes (``bench/pipeline.store_bytes``)
        and compares loaded tables (``bench/checks.tables_equal``) through
        the arrays ``vars()`` finds on ``orders[n]`` and ``fold_data[n]``:
        every array a view reads must be one of them, and no other, but the
        rows of fold cells that it derives from the tags; the raw and
        continuation kinds share their key arrays."""
        folded = cv_fold_counts(self.corpus, 3, folds=3)
        from_file = loaded(saved(self.table, tmp_path), tmp_path)
        for table, folds in ((folded.table, folded), (from_file, None)):
            view = table.view() if folds is None else folds.view()
            for n in range(1, table.order + 1):
                read = [table.orders[n].ctx_codes]
                for continuation in (False, True) if n < table.order else (False,):
                    kind = view._kind(n, continuation)
                    assert kind.index.obj is kind.keys, n  # the memoryview reads the keys
                    derived = [kind.type_rows, kind.ctx_rows]
                    if folds is None:
                        assert derived == [None, None], n
                    else:
                        for rows, tags in zip(derived, (kind.type_tags, kind.stat_tags)):
                            assert rows.dtype == kind.keys.dtype, n
                            np.testing.assert_array_equal(rows,
                                                          np.cumsum(tags == 3) * (tags == 3))
                    read += [a for a in kind if isinstance(a, np.ndarray)
                             and not any(a is d for d in derived)]
                holders = [table.orders[n]] + ([] if folds is None else [folds.fold_data[n]])
                found = [v for h in holders for v in vars(h).values() if v is not None]
                assert all(isinstance(v, np.ndarray) for v in found), n
                assert len(set(map(id, found))) == len(found), n
                assert set(map(id, read)) == set(map(id, found)), n

    def test_continuation_kind_reads_the_raw_keys(self):
        """One key set per order: the continuation kind of a view holds the
        raw kind's key arrays, fold tags and cell rows themselves, with and
        without fold data."""
        folded = cv_fold_counts(self.corpus, 3, folds=3)
        for view in (folded.view(), folded.table.view()):
            for n in (1, 2):
                raw, cont = view._kind(n, False), view._kind(n, True)
                for name in ("keys", "index", "type_tags", "type_rows", "stat_tags",
                             "ctx_rows"):
                    assert getattr(cont, name) is getattr(raw, name), (n, name)
                assert cont.counts is not raw.counts and cont.stats is not raw.stats, n


def assert_recounted(table, corpus):
    """At every order, the type count, the counts, continuation counts and
    both kinds of stats of a dict recount of ``corpus``."""
    grams, view = brute_ngrams(corpus, table.order), table.view()
    for n in range(1, table.order + 1):
        assert len(table.orders[n].type_keys) == len(grams[n]), n
        kinds = [(False, grams[n])]
        if n < table.order:
            kinds.append((True, brute_continuation(grams, n)))
        for cont, counts in kinds:
            count, stats = (view.cont_count, view.cont_stats) if cont else (view.count,
                                                                           view.stats)
            for (ctx, w), c in counts.items():
                assert count(n, resolve(view, ctx), w) == c, (n, ctx, w, cont)
            for ctx, (total, _, n1, n2, n3p) in brute_context_stats(counts).items():
                assert stats(n, resolve(view, ctx)) == (total, n1, n2, n3p), (n, ctx, cont)


class TestLoadedStore:
    """A store saved and loaded back, whose lower orders ``load`` derives
    from the contexts of every order and the top order's types."""

    @pytest.fixture(autouse=True, params=PARITY_CASES, ids=parity_id)
    def case(self, request):
        self.order, self.folds, seed = request.param
        self.corpus, _ = parity_corpora(seed)

    def test_equals_the_built_store_and_a_recount(self, tmp_path):
        """Every array at its value and width, and at every order the counts,
        continuation counts and both kinds of stats of a dict recount; order 6
        is longer than many of the sentences, whose contexts are mostly bos."""
        built = cv_fold_counts(self.corpus, self.order, self.folds).table
        got = loaded(saved(built, tmp_path), tmp_path)
        assert_tables_equal(built, got)
        assert widths(got) == widths(built)
        assert_store_invariants(got)
        assert_recounted(got, self.corpus)


def assert_stores_equal(got, want):
    """Equal stores: the same header, and every array of every order and, for
    a ``FoldedCounts``, of every fold at the same value and dtype."""
    if isinstance(want, mcounts.FoldedCounts):
        assert got.n_folds == want.n_folds
        folds = [("fold assignment", got.fold_assignment, want.fold_assignment)] + [
            (f"order {n} folds {name}", getattr(got.fold_data[n], name), arr)
            for n in range(1, want.table.order + 1)
            for name, arr in vars(want.fold_data[n]).items()]
        for where, a, b in folds:
            assert (a is None) == (b is None), where
            if b is not None:
                assert a.dtype == b.dtype, where
                np.testing.assert_array_equal(a, b, err_msg=where)
        got, want = got.table, want.table
    assert_tables_equal(got, want)
    assert widths(got) == widths(want)


class TestReferenceBuild:
    """Every array of ``accumulate`` and ``cv_fold_counts`` equals the store
    built from the per-order context loop (``helpers.reference_ngrams``), on
    the benchmark's seed-1 training corpus and on the parity corpora."""

    @staticmethod
    def check(monkeypatch, corpus, order, folds):
        with monkeypatch.context() as m:
            m.setattr(mcounts, "_ngrams", reference_ngrams)
            want = accumulate(corpus, order), cv_fold_counts(corpus, order, folds)
        assert_stores_equal(accumulate(corpus, order), want[0])
        assert_stores_equal(cv_fold_counts(corpus, order, folds), want[1])

    def test_benchmark_corpus(self, monkeypatch):
        self.check(monkeypatch, bench_corpus(1), 5, 10)

    @pytest.mark.parametrize("case", PARITY_CASES, ids=parity_id)
    def test_parity_corpora(self, monkeypatch, case):
        order, folds, seed = case
        self.check(monkeypatch, parity_corpora(seed)[0], order, folds)


class TestPackingPaths:
    """Order 9 on each side of the 63-bit fit of the packed n-gram key: with
    J = 127 every symbol (a word id or the bos id) takes 7 bits, 63 in all,
    and with J = 128 it takes 8, so the leading symbols are ranked in a
    stage of their own, one ``_unique`` per build.  Both stores, with and
    without folds, agree with a dict recount; and ``_ngrams`` returns what
    the per-order context loop does at every number of stages."""

    ORDER = 9

    @staticmethod
    def stage_sorts(monkeypatch):
        """The names of the callers of ``_unique``, as it is called."""
        calls, unique = [], mcounts._unique
        monkeypatch.setattr(mcounts, "_unique", lambda keys: calls.append(
            sys._getframe(1).f_code.co_name) or unique(keys))
        return calls

    @pytest.mark.parametrize("J, stages", [(127, 0), (128, 1)], ids=["packed", "staged"])
    def test_agrees_with_a_recount(self, monkeypatch, J, stages):
        corpus = encode(synthetic_lines(150, n_words=J + 20, seed=J), max_size=J - 2)
        assert corpus.vocab.size == J
        calls = self.stage_sorts(monkeypatch)
        table, folded = accumulate(corpus, self.ORDER), cv_fold_counts(corpus, self.ORDER, 3)
        assert calls.count("_ngrams") == 2 * stages
        assert_store_invariants(table)
        assert_store_invariants(folded.table, folded, corpus)
        assert_stores_equal(folded.table, table)
        assert_recounted(table, corpus)
        # each fold left out at every position of the text reads what a store
        # counted without that fold reads through its own ranks
        view = folded.view()
        ranks, words, _ = view.bulk_ranks(corpus)
        for f, part in enumerate(fold_out_tables(corpus, self.ORDER, 3)):
            part_view, same = part.view(), np.full(len(words), f)
            part_ranks = part_view.bulk_ranks(corpus)[0]
            for n in range(1, self.ORDER + 1):
                r, pr = ranks[:, n - 1], part_ranks[:, n - 1]
                for cont in (False, True) if n < self.ORDER else (False,):
                    np.testing.assert_array_equal(
                        view.bulk_counts(n, r, words, same, cont),
                        part_view.bulk_counts(n, pr, words, continuation=cont))
                    np.testing.assert_array_equal(
                        view.bulk_stats(n, r, same, cont),
                        part_view.bulk_stats(n, pr, continuation=cont))

    @pytest.mark.parametrize("order, J, stages", [
        (5, 4095, 0), (5, 4096, 1), (9, 128, 1), (13, 128, 2), (3, 2**40, 2)])
    @pytest.mark.parametrize("folds", [None, 3], ids=["counts", "folds"])
    def test_ngrams_equal_the_context_loop(self, monkeypatch, order, J, stages, folds):
        """A stream of 3,000 symbols from six spread over 0..J, J among them,
        so that every symbol bit is used and n-grams repeat; at J = 2**40 a
        rank leaves no room for a whole symbol, and one goes in anyway.  The
        type index of each position, paired with its fold, is compared as a
        multiset, since ``_ngrams`` returns the pairs in key order."""
        rng = np.random.default_rng(order)
        stream = rng.choice(np.append(rng.choice(J, 5, replace=False), J), 3000)
        targets = np.arange(order - 1, len(stream))
        fold = None if folds is None else rng.integers(0, folds, len(targets))
        calls = self.stage_sorts(monkeypatch)
        got = mcounts._ngrams(stream, targets, order, J + 1, fold)
        want = reference_ngrams(stream, targets, order, J + 1, fold)
        assert calls == ["_ngrams"] * stages
        assert len(got[0]) == order
        for g, w in zip([*got[0], *got[1:3]], [*want[0], *want[1:3]]):
            assert g.dtype == np.int64
            np.testing.assert_array_equal(g, w)
        if folds is None:
            assert got[3] is None
        else:
            np.testing.assert_array_equal(
                *(np.sort(ids * folds + f) for ids, f in (got[3], want[3])))


class TestCoded:
    """``_coded`` stores a value array as codes into a table of its sorted
    distinct values, or rows, and ``_unique`` is ``np.unique`` with its
    inverse, whichever of its paths a set of keys takes."""

    @staticmethod
    def check(values, width=np.dtype(np.int32)):
        """Codes and table of ``values`` against ``np.unique``'s."""
        codes, table = mcounts._coded(values, width)
        want, inverse = np.unique(values, axis=0, return_inverse=True)
        assert table.dtype == width and table.shape == (len(want), *values.shape[1:])
        np.testing.assert_array_equal(table, want)
        np.testing.assert_array_equal(codes, inverse.reshape(-1))
        assert codes.dtype == code_width(table)
        np.testing.assert_array_equal(table[codes], values)
        return codes, table

    @staticmethod
    def check_unique(keys):
        got, want = mcounts._unique(keys), np.unique(keys, return_inverse=True)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w.reshape(-1))
        assert got[0].dtype == keys.dtype

    @pytest.mark.parametrize("n_distinct, want", [
        (256, np.uint8), (257, np.uint16), (65_536, np.uint16), (65_537, np.uint32),
        (70_000, np.uint32)])
    @pytest.mark.parametrize("spread", [False, True], ids=["dense", "spread"])
    def test_code_width_by_table_length(self, n_distinct, want, spread):
        """uint8 codes up to 256 distinct values, uint16 up to 65,536 and
        uint32 beyond, built directly from that many values, each repeated
        up to three times in shuffled order: dense values take the lookup
        path and values spread over 2**40 the sort path."""
        rng = np.random.default_rng(n_distinct)
        distinct = (rng.choice(2**40, n_distinct, replace=False) if spread
                    else np.arange(n_distinct) - n_distinct // 3)
        values = rng.permutation(np.repeat(distinct, rng.integers(1, 4, n_distinct)))
        codes, table = self.check(values, np.dtype(np.int64))
        assert codes.dtype == want and len(table) == n_distinct

    def test_rows_with_negative_entries(self):
        """Stat-delta rows: (m, 4) rows with negative entries in every
        column, repeated, and the columns of one row in any order."""
        rng = np.random.default_rng(3)
        rows = rng.integers(-6, 7, size=(500, 4))
        rows[::7] = rows[::7, ::-1]
        codes, table = self.check(rows)
        assert (table < 0).any(axis=0).all()

    @pytest.mark.parametrize("shape", [(0,), (0, 4)])
    def test_empty(self, shape):
        codes, table = self.check(np.zeros(shape, dtype=np.int32))
        assert codes.shape == (0,) and codes.dtype == np.uint8 and table.shape == shape
        self.check_unique(np.zeros(0, dtype=np.int32))

    def test_order1_stats_have_two_rows(self):
        """Order 1 has one context and the all-zero rank -1 row: two table
        rows, the zero row first, so the context reads code 1."""
        table = accumulate(toy_corpus(), 1)
        od = table.orders[1]
        assert od.stats.tolist() == [1, 0]
        assert od.stat_table.tolist() == [[0, 0, 0, 0], [7, 2, 1, 1]]
        assert table.view().stats(1, 0) == (7, 2, 1, 1) and table.view().stats(1, -1) == (0,) * 4

    def test_fallback_when_the_bits_do_not_fit(self, monkeypatch):
        """Rows whose column spans exceed 63 bits together go to ``np.unique``,
        and keys whose bits plus position bits exceed 63 to ``np.argsort``."""
        calls, sorted_ = [], []
        unique, argsort = np.unique, np.argsort
        monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(k) or unique(*a, **k))
        monkeypatch.setattr(np, "argsort", lambda a: sorted_.append(a.tolist()) or argsort(a))
        wide = np.array([[2**40, 0], [0, 2**40], [2**40, 0], [0, 0]], dtype=np.int64)
        self.check(wide, np.dtype(np.int64))  # 41 + 41 bits
        assert calls[0].get("axis") == 0
        calls.clear()
        self.check(wide[:, :1], np.dtype(np.int64))  # 41 bits fit
        assert all(k.get("axis") == 0 for k in calls)  # only the check's own
        keys = np.array([2**62, 5, 2**62, 2**61], dtype=np.int64)  # 63 + 2 bits
        got = mcounts._unique(keys)
        assert sorted_ == [keys.tolist()]
        self.check_unique(keys[1:2])  # one key: no position bits
        self.check_unique(np.array([2**60, 5, 2**60], dtype=np.int64))  # 61 + 2 bits fit
        assert sorted_ == [keys.tolist()]
        assert [a.tolist() for a in got] == [[5, 2**61, 2**62], [2, 0, 2, 1]]

    @pytest.mark.parametrize("keys", [
        np.array([5, 3, 5, 0, 3, 3], dtype=np.int32),  # the lookup path
        np.array([9_000_000, 12, 9_000_000, 7, 12, 8_999_999], dtype=np.int32),  # the sort path
        np.array([4]), np.array([4, 4, 4]), np.array([10**9])])
    def test_unique_equals_numpy(self, keys):
        self.check_unique(keys)

    def test_build_sorts_equal_numpy(self, monkeypatch):
        """Every sort of a build equals ``np.unique`` on the benchmark's seed-1
        training corpus: the one sort of the top order's packed n-grams
        (``np.sort`` in ``accumulate``, ``_runs`` in ``cv_fold_counts``),
        each order's suffix sort in ``_derive`` (``_runs``), every ``_unique``,
        which codes each value array and maps the fold build's pairs, and the
        ``_runs`` of every ``_unique`` that sorts."""
        corpus = bench_corpus(1)
        coded, calls, coding = mcounts._coded, [], []

        def spied(owner, name, check):
            raw = getattr(owner, name)

            def call(keys, *args, **kwargs):
                got = raw(keys, *args, **kwargs)
                calls.append((name, bool(coding)))
                check(keys, got)
                return got
            monkeypatch.setattr(owner, name, call)

        def sorted_keys(keys):
            return np.repeat(*np.unique(keys, return_counts=True))

        def check_runs(keys, got):
            in_order, order, heads = got
            assert np.array_equal(in_order, sorted_keys(keys))
            assert np.array_equal(keys[order], in_order)
            assert np.array_equal(in_order[heads], np.unique(keys))

        def check_unique(keys, got):
            for g, w in zip(got, np.unique(keys, return_inverse=True)):
                np.testing.assert_array_equal(g, w)

        def recorded(values, width):
            coding.append(True)
            try:
                return coded(values, width)
            finally:
                coding.pop()

        spied(np, "sort", lambda keys, got: np.testing.assert_array_equal(got, sorted_keys(keys)))
        spied(np, "argsort",
              lambda keys, got: np.testing.assert_array_equal(keys[got], sorted_keys(keys)))
        spied(mcounts, "_runs", check_runs)
        spied(mcounts, "_unique", check_unique)
        monkeypatch.setattr(mcounts, "_coded", recorded)
        accumulate(corpus, 5)
        # the top sort, the suffix sorts of orders 5 to 2, and the coding of
        # the counts and stats of each kind, 10 of the 18 by sorting
        assert Counter(calls) == {("sort", False): 1, ("_runs", False): 4,
                                  ("_unique", True): 18, ("_runs", True): 10}
        calls.clear()
        cv_fold_counts(corpus, 5, 10)
        # the top sort (``_runs``, by an argsort, as its keys leave no room
        # for the position bits), the suffix sorts, the fold build's maps of
        # the pairs of orders 5 to 2 (2 by sorting) and of the stat cells of
        # orders 5 to 1 (each by a table of the cells, not a sort), and 36
        # codings (19 by sorting)
        assert Counter(calls) == {("argsort", False): 1, ("_runs", False): 7,
                                  ("_unique", False): 9, ("_unique", True): 36,
                                  ("_runs", True): 19}


class TestWidth:
    """One integer width per store for its keys and tables, chosen from its
    bounds alone, for each code array the width its table's length selects,
    and for the fold tags the width F selects."""

    def test_width_at_the_bound(self):
        """int32 at a bound of 2**31 - 1 and int64 at 2**31, from each of the
        three bounds, without building a large table."""
        i32, i64 = np.dtype(np.int32), np.dtype(np.int64)
        # (top-order contexts, B, token count, folds) -> width
        cases = [((2**31 - 1, 1, 10, 1), i32), ((2**31, 1, 10, 1), i64),
                 ((2**28 - 1, 8, 10, 1), i32), ((2**28, 8, 10, 1), i64),
                 ((1, 8, 2**31 - 1, 1), i32), ((1, 8, 2**31, 1), i64),
                 ((1, 8, 2**30 - 1, 2), i32), ((1, 8, 2**30, 2), i64)]
        for (n_ctx, base, tokens, folds), want in cases:
            assert mcounts._width(n_ctx, base, tokens, folds) == want
            orders = [None, SimpleNamespace(ctx_codes=range(n_ctx))]
            table = SimpleNamespace(orders=orders, base=base, token_count=tokens)
            assert store_width(table, folds) == want

    def test_fold_tag_width_at_the_bound(self):
        """The fold tags take the narrowest unsigned width that holds F, at
        each bound of each width and without building a large table: an id
        found in two folds is tagged F and owns cell row 1, one found in the
        last fold alone that fold, and one in no pair 0."""
        for t, wider in ((np.uint8, np.uint16), (np.uint16, np.uint32)):
            top = int(np.iinfo(t).max)
            for n_folds, want in ((top, t), (top + 1, wider)):
                ids = np.array([0, 0, 1], dtype=np.int64)
                folds = np.array([0, n_folds - 1, n_folds - 1], dtype=np.int64)
                tags, cells, mask, n_cells = mcounts._fold_cells(ids, folds, 3, n_folds,
                                                                 np.dtype(np.int32))
                assert tags.dtype == want == tag_width(n_folds), n_folds
                assert tags.tolist() == [n_folds, n_folds - 1, 0], n_folds
                # id 0 owns row 1, after row 0: its pairs' cells are F and 2F - 1
                assert cells.tolist() == [n_folds, 2 * n_folds - 1], n_folds
                assert cells.dtype == np.int32 and n_cells == 2 * n_folds, n_folds
                assert mask.tolist() == [True, True, False], n_folds

    @pytest.mark.parametrize("count", [127, 128, 2**15 - 1, 2**15])
    def test_built_store_codes_each_value_array_at_the_bound(self, count, tmp_path):
        """A type count and a stats total of 127 and 128 (the int8 bound),
        and of 2**15 - 1 and 2**15 (the int16 bound): the word "a" repeated
        ``count`` times counts ``count`` at order 1, and its context "a" has
        ``count`` successors at order 2.  In the store each is a table entry
        at the store's width, whatever its size, and its code is uint8; a
        file holds both orders' contexts and the order-2 types, keys and table
        at the store's width and codes at uint8, and reads back at the same
        widths."""
        table = accumulate(encode([" ".join(["a"] * count)]), 2)
        assert decoded(table.orders[1], "type_counts").max() == count
        assert decoded(table.orders[2], "stats")[:, 0].max() == count
        assert table.orders[1].count_table.dtype == table.orders[2].stat_table.dtype == np.int32
        assert table.orders[1].type_counts.dtype == table.orders[2].stats.dtype == np.uint8
        assert table.orders[2].type_keys.dtype == np.int32
        assert_store_invariants(table)
        path = str(tmp_path / "counts.bin")
        table.save(path)
        assert file_widths(Path(path).read_bytes()) == [4, 4, 4, 1, 4]
        loaded = CountTable.load(path)
        assert widths(loaded) == widths(table)
        assert_tables_equal(table, loaded)

    @pytest.mark.parametrize("largest", [2**15 - 1, 2**15])
    def test_built_store_narrows_by_its_largest_fold(self, largest):
        """The order-1 fold totals are the folds' token counts: table entries
        at the store's width on either side of the int16 bound, with uint8
        codes, whatever the smaller folds hold; every other fold code array
        has the width its table selects, and the tables are int32 either
        way."""
        long = " ".join("abc"[i % 3] for i in range(largest - 1))  # and its end symbol
        corpus = encode([long, "a b"])
        folded = cv_fold_counts(corpus, 2, folds=2)
        # row 0, then the lone context's row: one cell per fold
        assert decoded(folded.fold_data[1], "stat_cells")[:, 0].tolist() == [0, 0, largest, 3]
        assert_store_invariants(folded.table, folded, corpus)
        assert folded.fold_data[1].delta_table.dtype == np.int32
        assert folded.fold_data[1].stat_cells.dtype == np.uint8
        for fd in folded.fold_data[1:]:
            assert fd.count_table.dtype == fd.delta_table.dtype == np.int32
            for name, arr in vars(fd).items():
                assert arr is None or name not in TABLES or arr.dtype == code_width(
                    getattr(fd, TABLES[name])), name

    def test_fold_tags_wider_than_uint8(self):
        """With 256 folds the tag F does not fit uint8: every tag array takes
        uint16, and leaving out each fold, 254 and 255 among them, equals a
        recount."""
        corpus = encode(synthetic_lines(256, n_words=6, seed=9))
        folded = cv_fold_counts(corpus, 3, folds=256)
        assert_store_invariants(folded.table, folded, corpus)
        for fd in folded.fold_data[1:]:
            assert fd.type_tags.dtype == fd.stat_tags.dtype == np.uint16
        assert_left_out_equals_recount(folded, corpus, [corpus])

    def test_cells_past_the_uint16_bound_equal_a_recount(self):
        """A store with more than 65,536 order-2 type cells and order-3 stat
        cells: each position reads cell ``row * F + fold`` past the uint16
        bound, so leaving each fold out equals a recount; a row times F
        computed in a narrower type would wrap onto another id's cell."""
        corpus = encode(synthetic_lines(6000, n_words=400, seed=7))
        folded = cv_fold_counts(corpus, 3, folds=10)
        assert folded.fold_data[2].type_cells.size > 2**16
        assert len(folded.fold_data[3].stat_cells) > 2**16
        assert_left_out_equals_recount(folded, corpus, [corpus])

    def test_order_without_tag_f_types_keeps_row_0_alone(self):
        """Where every type of an order occurs in one fold only, its type
        cells are row 0 alone, one zero cell per fold, coded at uint8 into a
        table holding 0 alone at the store's width; leaving either fold out
        equals a recount, on held-out text with unseen contexts too."""
        corpus = encode(["a b", "c d"])
        folded = cv_fold_counts(corpus, 3, folds=2)
        assert_store_invariants(folded.table, folded, corpus)
        for n in (2, 3):
            fd = folded.fold_data[n]
            assert fd.type_cells.tolist() == [0, 0] and fd.type_cells.dtype == np.uint8, n
            assert fd.count_table.tolist() == [0] and fd.count_table.dtype == np.int32, n
        assert decoded(folded.fold_data[2], "cont_type_cells").tolist() == [0, 0]
        held = encode_corpus(["a d", "b a c", "d"], corpus.vocab)
        assert_left_out_equals_recount(folded, corpus, [corpus, held])

    @pytest.mark.parametrize("narrow", [True, False], ids=["uint8-codes", "uint32-codes"])
    def test_fold_values_of_either_width_equal_a_recount(self, monkeypatch, narrow):
        """Bulk counts and stats with a fold left out equal the store counted
        without it, whether each code array has the width its table selects
        or uint32, and are returned at the store's width either way."""
        corpus, held = parity_corpora(61)
        coded = mcounts._coded
        with monkeypatch.context() as m:
            if not narrow:
                m.setattr(mcounts, "_coded", lambda values, width: (
                    lambda codes, table: (codes.astype(np.uint32), table))(*coded(values, width)))
            folded = cv_fold_counts(corpus, 4, folds=3)
        codes = [arr for h in (*folded.table.orders[1:], *folded.fold_data[1:])
                 for name, arr in vars(h).items() if arr is not None and name in TABLES]
        assert {arr.dtype for arr in codes} == {np.dtype(np.uint8 if narrow else np.uint32)}
        assert folded.table.orders[1].type_keys.dtype == np.int32
        assert_left_out_equals_recount(folded, corpus, [corpus, held])

    def test_int64_store_answers_as_int32(self, monkeypatch, tmp_path):
        """Every scalar and bulk query, with and without folds, and the
        smoothed rows and features built on them, read the same from an int32
        store with narrow value arrays and from one whose every array is
        int64 but its codes and tags; each returns arrays at its own store's
        width, and the int64 store's file loads back at its widths."""
        corpus, held = parity_corpora(23)
        narrow = cv_fold_counts(corpus, 4, folds=3)
        wide = all_int64(monkeypatch, lambda: cv_fold_counts(corpus, 4, folds=3))
        assert store_width(narrow.table, 3) == np.int32
        assert np.dtype(np.uint8) in {d for w in widths(narrow.table) for d in w.values()}
        assert_store_invariants(narrow.table, narrow, corpus)
        holders = [*wide.table.orders[1:], *wide.fold_data[1:]]
        narrowed = {*TABLES, "type_tags", "stat_tags"}  # codes and tags
        assert {a.dtype for h in holders for name, a in vars(h).items()
                if a is not None and name not in narrowed} == {
            np.dtype(np.int64)} == {wide.fold_assignment.dtype}
        for h, other in zip(holders, [*narrow.table.orders[1:], *narrow.fold_data[1:]]):
            for name in narrowed & vars(h).keys():
                assert getattr(h, name) is None or getattr(h, name).dtype == getattr(
                    other, name).dtype, name
        assert_tables_equal(narrow.table, wide.table)
        data = saved(wide.table, tmp_path)
        from_file = all_int64(monkeypatch, lambda: loaded(data, tmp_path))
        assert widths(from_file) == widths(wide.table)
        assert_tables_equal(narrow.table, from_file)

        def same(got, want):  # equal values, each at its own store's width
            assert got.dtype == np.int64 and want.dtype == np.int32
            np.testing.assert_array_equal(got, want)

        spec = SmoothingSpec.kn(narrow.table, 4)
        assert SmoothingSpec.kn(wide.table, 4) == spec
        nv, wv = narrow.view(), wide.view()
        for text in (corpus, held):
            ranks, words, sent_of = nv.bulk_ranks(text)
            for got, want in zip(wv.bulk_ranks(text), (ranks, words, sent_of)):
                np.testing.assert_array_equal(got, want)
            for folds in (None, sent_of % 3):
                for n in range(1, 5):
                    for cont in (False, True) if n < 4 else (False,):
                        r = ranks[:, n - 1]
                        same(wv.bulk_counts(n, r, words, folds, cont),
                             nv.bulk_counts(n, r, words, folds, cont))
                        for got, want in zip(wv.bulk_stats(n, r, folds, cont),
                                             nv.bulk_stats(n, r, folds, cont)):
                            same(got, want)
                for got, want in zip(bulk_column_rows(wv, spec, ranks, words, folds),
                                     bulk_column_rows(nv, spec, ranks, words, folds)):
                    assert got.dtype == want.dtype
                    np.testing.assert_array_equal(got, want)
                got = bulk_context_features(wv, spec, ranks, folds)
                want = bulk_context_features(nv, spec, ranks, folds)
                assert got.dtype == want.dtype == np.float64
                np.testing.assert_array_equal(got, want)
            grams = brute_ngrams(text, 4)
            for n in range(1, 5):
                for ctx, w in grams[n]:
                    chain = nv.rank_chain(ctx)
                    np.testing.assert_array_equal(wv.rank_chain(ctx), chain)
                    r = int(chain[-1])
                    if r < 0:
                        continue
                    for cont in (False, True) if n < 4 else (False,):
                        got, want = (scalar_reads(v, n, r, w, cont) for v in (wv, nv))
                        assert got[:2] == want[:2], (n, ctx, w, cont)
                        for a, b in zip(got[2:], want[2:]):
                            same(a, b)

    def test_rank_past_the_contexts_never_wraps_onto_a_key(self):
        """A bulk query cast to int32 wraps, but only its search does: the key
        of a rank far past the contexts finds nothing, and the count calls
        reject that rank before they search."""
        table = accumulate(encode(["a b c d e", "a c"]), 2)
        assert table.base == 8 and store_width(table) == np.int32
        keys = table.orders[2].type_keys
        rank, word = divmod(int(keys[3]), table.base)
        wrapped = rank + 2**32 // table.base  # the same key modulo 2**32
        _, hit = mcounts._find(keys, np.array([rank, wrapped]) * table.base + word)
        assert hit.tolist() == [True, False]
        view = table.view()
        assert view.count(2, rank, word) == 1
        with pytest.raises(CountError, match=rf"outside -1\.\.{len(table.orders[2].ctx_codes) - 1}"):
            view.count(2, wrapped, word)
        with pytest.raises(CountError, match="ranks must lie in"):
            view.bulk_counts(2, np.array([rank, wrapped]), np.array([word, word]))

    def test_scalar_lookups_copy_no_key_array(self):
        """A scalar lookup on an int32 store allocates far less than the
        smallest key array it searches, so it converts none to int64
        (``searchsorted`` given a Python int copies them on every call)."""
        corpus = encode(synthetic_lines(1500, n_words=1500, seed=3))
        table = accumulate(corpus, 3)
        o = table.orders
        assert store_width(table) == np.int32
        view = table.view()
        first, second = [tuple(int(w) for w in s[:2]) for s in corpus.sentences if len(s) > 2][:2]
        word = int(next(s[2] for s in corpus.sentences if len(s) > 2))
        r3, r2 = int(view.rank_chain(first)[2]), int(view.rank_chain(first)[1])
        calls = {
            "rank_chain miss": (lambda: view.rank_chain(second), [o[2].ctx_codes, o[3].ctx_codes]),
            "stats": (lambda: view.stats(3, r3), [o[3].type_keys]),
            "cont_stats": (lambda: view.cont_stats(2, r2), [o[2].type_keys]),
            "count": (lambda: view.count(3, r3, word), [o[3].type_keys]),
            "cont_count": (lambda: view.cont_count(2, r2, word), [o[2].type_keys]),
            "successors": (lambda: view.successors(3, r3), [o[3].type_keys]),
            "cont successors": (lambda: view.successors(2, r2, True), [o[2].type_keys]),
        }
        for what, (call, searched) in calls.items():
            call()  # the view keeps what it builds on a first read
            view.rank_chain(first)  # the next chain of ``second`` misses the kept one
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            smallest = min(a.nbytes for a in searched)
            assert peak * 4 < smallest, (what, peak, smallest)


class TestOrderOutOfRange:
    """An order outside 1..N raises ``CountError`` on every query that takes one."""

    QUERIES = {
        "stats": lambda t, n: t.view().stats(n, 0),
        "cont_stats": lambda t, n: t.view().cont_stats(n, 0),
        "count": lambda t, n: t.view().count(n, 0, 1),
        "successors": lambda t, n: t.view().successors(n, 0),
        "bulk_stats": lambda t, n: t.view().bulk_stats(n, np.zeros(2, dtype=np.int64)),
        "bulk_counts": lambda t, n: t.view().bulk_counts(n, np.zeros(2, dtype=np.int64),
                                                         np.ones(2, dtype=np.int64)),
        "count_of_counts": lambda t, n: t.count_of_counts(n),
    }

    @pytest.mark.parametrize("order", [0, 4, 7, -1])
    @pytest.mark.parametrize("query", QUERIES)
    def test_rejected(self, query, order):
        table = accumulate(toy_corpus(), 3)
        with pytest.raises(CountError, match=rf"order {order} outside 1\.\.3"):
            self.QUERIES[query](table, order)

    def test_rejection_leaves_the_view_working(self):
        table = accumulate(toy_corpus(), 3)
        view = table.view()
        with pytest.raises(CountError):
            view.stats(4, 0)
        assert view.stats(3, 0) == table.view().stats(3, 0)
        assert table.count_of_counts(3) == accumulate(toy_corpus(), 3).count_of_counts(3)


class TestInputValidation:
    def test_order_zero_rejected(self):
        with pytest.raises(CountError):
            accumulate(toy_corpus(), 0)

    def test_token_count_matches_empty_context_total(self):
        corpus = toy_corpus()
        table = accumulate(corpus, 2)
        assert int(decoded(table.orders[1], "stats")[0, 0]) == corpus.token_count == 7

    @pytest.mark.parametrize("build", [lambda c: accumulate(c, 2.0),
                                       lambda c: cv_fold_counts(c, 2, 2.0),
                                       lambda c: cv_fold_counts(c, "2", 2),
                                       lambda c: cv_fold_counts(c, 2, None)],
                             ids=["float-order", "float-folds", "str-order", "no-folds"])
    def test_non_integer_order_or_folds_rejected(self, build):
        with pytest.raises(CountError, match="must be (an )?integers?, not"):
            build(toy_corpus())

    def test_integral_order_and_folds_are_plain_ints(self):
        """An order or a fold count given as a bool or a NumPy integer is
        taken through ``operator.index``: the store holds plain ints."""
        table = accumulate(toy_corpus(), True)
        assert type(table.order) is int and table.order == 1
        assert_tables_equal(table, accumulate(toy_corpus(), 1))
        folded = cv_fold_counts(toy_corpus(), np.int64(2), np.uint8(2))
        assert type(folded.table.order) is int and type(folded.n_folds) is int
        assert (folded.table.order, folded.n_folds) == (2, 2)


def test_store_invariants_catch_damage():
    def damage_type_order(t, f):
        t.orders[2].type_keys[[0, 1]] = t.orders[2].type_keys[[1, 0]]

    def damage_type_count(t, f):
        counts = decoded(t.orders[2], "type_counts")
        counts[0] += 1
        recoded(t.orders[2], counts)

    def damage_token_count(t, f):
        t.token_count += 1

    def damage_fold_count(t, f):  # the first tag-F type's fold-0 cell, in row 1
        cells = decoded(f.fold_data[1], "type_cells")
        cells[f.n_folds] += 1
        recoded(f.fold_data[1], cells, "type_cells")

    def damage_fold_stats(t, f):
        cells = decoded(f.fold_data[2], "cont_stat_cells")
        cells[f.n_folds, 0] += 100
        recoded(f.fold_data[2], cells, "cont_stat_cells")

    def damage_width(t, f):  # the codes stay right; only the width differs
        f.fold_data[2].cont_stat_cells = f.fold_data[2].cont_stat_cells.astype(np.int64)

    def damage_row_0(t, f):  # the row that every id not tagged F reads
        cells = decoded(f.fold_data[2], "type_cells")
        cells[0] = 1
        recoded(f.fold_data[2], cells, "type_cells")

    def damage_table_width(t, f):  # a table has the store's width
        t.orders[2].stat_table = t.orders[2].stat_table.astype(np.int64)

    def damage_cont_count(t, f):
        cells = decoded(f.fold_data[1], "cont_type_cells")
        cells[f.n_folds] = -1
        recoded(f.fold_data[1], cells, "cont_type_cells")

    def damage_cont_alignment(t, f):  # a row of continuation cells with no raw one
        fd = f.fold_data[1]
        fd.cont_type_cells = np.append(fd.cont_type_cells, fd.cont_type_cells[:f.n_folds])

    def damage_table_alignment(t, f):
        t.orders[2].cont_type_counts = t.orders[2].cont_type_counts[1:]

    def damage_type_tag(t, f):  # a type of one fold tagged with the other
        tags = f.fold_data[2].type_tags
        i = int(np.flatnonzero(tags < f.n_folds)[0])
        tags[i] = 1 - tags[i]

    def damage_stat_tag(t, f):  # a context with a cell row tagged with one fold
        tags = f.fold_data[2].stat_tags
        tags[int(np.flatnonzero(tags == f.n_folds)[0])] = 0

    folded = cv_fold_counts(toy_corpus(), 3, folds=2)
    assert_store_invariants(folded.table, folded, toy_corpus())
    for damage in (damage_type_order, damage_type_count, damage_token_count,
                   damage_fold_count, damage_fold_stats, damage_width, damage_row_0,
                   damage_table_width, damage_cont_count, damage_cont_alignment,
                   damage_table_alignment, damage_type_tag, damage_stat_tag):
        folded = cv_fold_counts(toy_corpus(), 3, folds=2)
        damage(folded.table, folded)
        with pytest.raises(AssertionError):
            assert_store_invariants(folded.table, folded, toy_corpus())
