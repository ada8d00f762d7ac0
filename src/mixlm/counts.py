"""N-gram statistics for orders 1..N over an encoded corpus.

Layout
------
Contexts are interned per order into sorted arrays.  A context of order n
(length n-1) is identified by an int64 code ``suffix_rank * B + leftmost``,
where ``suffix_rank`` is the rank of its length-(n-2) suffix among order-(n-1)
contexts and ``B = J + 1`` (the begin-of-sentence symbol is J).  Ranks stay
below the number of distinct contexts, so codes never overflow regardless of
the order (the sorted-array context encoding of Pauls & Klein 2011).  Every
position is counted with full left bos-padding.

Each order holds raw counts and, below the top order, continuation counts
(distinct single-symbol left extensions, from the order-(n+1) types) in one
layout: sorted ``rank * B + word`` type keys, parallel counts, and an
(n_ctx, 4) stats array of total, n1, n2 and n3p per context.  Successors are
a slice; a (context, word) lookup is two binary searches.  Distinct
successors are not stored: each has a count of at least 1, so their number
is n1 + n2 + n3p, with a fold left out too.  A fold is left out per
position, on the bulk calls only, and never by copying the corpus:
per-(type, fold) count deltas and per-(context, fold) deltas of the four
stats, built once per kind, give ``full - fold`` exactly.

A store is built by ``accumulate`` or ``cv_fold_counts``, queried through
a ``CountView`` and written to disk in one form, binary file format 3:
``MXCT``; version and order (u32); vocabulary size and token count (u64);
the vocabulary fingerprint as a u32 length and ASCII bytes; per order only
what counting produced, ctx_codes, type_keys and type_counts, each as a u64
element count and int64 values; then a CRC32 of every byte after the magic,
all little-endian.  Loading derives the stats and continuation arrays with
``_derive``, the code that builds them after counting.  A file that is cut
short, has trailing bytes, fails its checksum or is malformed raises
``CountError``, and so does text encoded with a vocabulary whose
fingerprint is not the table's.
"""

from __future__ import annotations

import hashlib
import io
import struct
import zlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import EncodedCorpus, Vocabulary

_BIN_MAGIC = b"MXCT"
_BIN_VERSION = 3
_HEADER = struct.Struct("<IIQQ")


class CountError(ValueError):
    pass


def _vocab_fingerprint(vocab: Vocabulary) -> str:
    h = hashlib.sha256("\n".join(vocab.id_to_word).encode("utf-8")).hexdigest()
    return h[:16]


@dataclass
class _OrderData:
    """Arrays for one n-gram order (contexts of length order-1)."""

    ctx_codes: np.ndarray  # sorted int64 context codes
    type_keys: np.ndarray  # sorted rank * B + word
    type_counts: np.ndarray
    # derived from the arrays above by ``_derive``
    stats: np.ndarray | None = None  # (n_ctx, 4): total, n1, n2, n3p
    # continuation counts in the same layout (absent at the top order)
    cont_type_keys: np.ndarray | None = None
    cont_type_counts: np.ndarray | None = None
    cont_stats: np.ndarray | None = None


@dataclass
class _FoldData:
    """Per-order fold-exclusion deltas: value without the fold = full value - delta."""

    type_keys: np.ndarray  # type_index * F + fold
    type_counts: np.ndarray  # occurrences of the type inside the fold
    stat_keys: np.ndarray  # ctx_rank * F + fold
    stat_deltas: np.ndarray  # (m, 4), columns as in the stats arrays
    # continuation counts in the same layout; a continuation type loses one
    # count for each left extension that occurs only inside the fold
    cont_type_keys: np.ndarray | None = None
    cont_type_counts: np.ndarray | None = None
    cont_stat_keys: np.ndarray | None = None
    cont_stat_deltas: np.ndarray | None = None


_NO_FOLDS = _FoldData(None, None, None, None)  # the fold arrays of a table without folds


class CountTable:
    """Immutable n-gram count store for orders 1..N."""

    def __init__(self, order: int, vocab_size: int, orders: list[_OrderData],
                 token_count: int, vocab_fingerprint: str = ""):
        self.order = order
        self.vocab_size = vocab_size
        self.base = vocab_size + 1
        self.orders = orders  # index 0 unused; orders[n] for order n
        self.token_count = token_count
        self.vocab_fingerprint = vocab_fingerprint

    def view(self) -> "CountView":
        return CountView(self)

    def count_of_counts(self, order: int, continuation: bool = False) -> tuple[int, int, int, int]:
        """Global (n1, n2, n3, n4) over type counts at one order."""
        counts = self.view()._kind(order, continuation).counts
        small = counts[counts <= 4]
        cc = np.bincount(small, minlength=5)
        return int(cc[1]), int(cc[2]), int(cc[3]), int(cc[4])

    # -- serialization ---------------------------------------------------

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            self.write_binary(fh)

    @classmethod
    def load(cls, path: str) -> "CountTable":
        with open(path, "rb") as fh:
            return cls.read_binary(fh)

    def write_binary(self, fh: io.BufferedIOBase) -> None:
        fp = self.vocab_fingerprint.encode("ascii")
        parts = [_HEADER.pack(_BIN_VERSION, self.order, self.vocab_size, self.token_count),
                 struct.pack("<I", len(fp)), fp]
        for od in self.orders[1:]:
            for arr in (od.ctx_codes, od.type_keys, od.type_counts):
                parts += [struct.pack("<Q", arr.size),
                          np.ascontiguousarray(arr, dtype="<i8").tobytes()]
        body = b"".join(parts)
        fh.write(_BIN_MAGIC)
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body)))

    @classmethod
    def read_binary(cls, fh: io.BufferedIOBase) -> "CountTable":
        data = memoryview(fh.read())
        end = len(data) - 4  # the checksum follows the last array
        pos = 4

        def read(size: int) -> memoryview:
            nonlocal pos
            if pos + size > end:
                raise CountError("count-table file is truncated")
            pos += size
            return data[pos - size:pos]

        def read_arr() -> np.ndarray:
            (size,) = struct.unpack("<Q", read(8))
            return np.frombuffer(read(size * 8), dtype="<i8").astype(np.int64)

        if data[:4] != _BIN_MAGIC:
            raise CountError("not a count-table file")
        version, order, vocab_size, token_count = _HEADER.unpack(read(_HEADER.size))
        if version != _BIN_VERSION:
            raise CountError(f"unsupported count-table version {version}")
        if zlib.crc32(data[4:end]) != int.from_bytes(data[end:], "little"):
            raise CountError("count-table file is damaged: checksum mismatch")
        if order < 1:
            raise CountError("order must be >= 1")
        (fp_len,) = struct.unpack("<I", read(4))
        try:
            fingerprint = bytes(read(fp_len)).decode("ascii")
        except UnicodeDecodeError:
            raise CountError("vocabulary fingerprint is not ASCII") from None

        orders: list = [None]
        for n in range(1, order + 1):
            ctx_codes, keys, counts = read_arr(), read_arr(), read_arr()
            if len(keys) != len(counts):
                raise CountError(f"order-{n} arrays disagree in length")
            orders.append(_OrderData(ctx_codes, keys, counts))
        if pos != end:
            raise CountError("trailing bytes after the last array")
        del data  # the arrays are copies: free the file's bytes before deriving
        _check_arrays(orders, vocab_size + 1, token_count)
        _derive(orders, vocab_size + 1)
        return cls(order, int(vocab_size), orders, int(token_count), fingerprint)

    def _check_vocab(self, vocab: Vocabulary) -> None:
        """Reject ids from a vocabulary other than the one counted with."""
        if _vocab_fingerprint(vocab) != self.vocab_fingerprint:
            raise CountError("vocabulary does not match the count table's")


def _check_arrays(orders: list, base: int, token_count: int) -> None:
    """Reject loaded keys out of order or naming no context, and counts below 1
    or not summing to the token count: binary searches and ``_derive`` trust them."""
    n_prev = 1  # order 1 has the empty context alone
    for n, od in enumerate(orders[1:], 1):
        for keys, n_groups in ((od.ctx_codes, n_prev), (od.type_keys, len(od.ctx_codes))):
            if len(keys) and not (keys[0] >= 0 and keys[-1] // base < n_groups
                                  and (np.diff(keys) > 0).all()):
                raise CountError(f"order-{n} keys are out of order or range")
        if not ((od.type_counts >= 1).all() and od.type_counts.sum() == token_count):
            raise CountError(f"order-{n} counts are below 1 or miss the token count")
        n_prev = len(od.ctx_codes)


# -- accumulation ---------------------------------------------------------


def _tally(groups: np.ndarray, counts: np.ndarray, n_groups: int) -> np.ndarray:
    """(n_groups, 4) stats of the counts in each group: total, n1, n2, n3p."""
    out = np.empty((n_groups, 4), dtype=np.int64)
    out[:, 0] = np.bincount(groups, weights=counts, minlength=n_groups)
    for j, level in enumerate((counts == 1, counts == 2, counts >= 3), 1):
        out[:, j] = np.bincount(groups[level], minlength=n_groups)
    return out


def _derive(orders: list, base: int) -> list[np.ndarray]:
    """Fill in every order's stats and, below the top order, its continuation
    arrays (from the order-(n+1) raw types), using only ctx_codes, type_keys
    and type_counts.  Counting and loading both end here.

    Returns, per order n, the map from order-(n+1) type index to continuation
    type index (needed for fold-exclusive bookkeeping).
    """
    for od in orders[1:]:
        od.stats = _tally(od.type_keys // base, od.type_counts, len(od.ctx_codes))
    inverses: list = [None] * len(orders)
    for n in range(1, len(orders) - 1):
        hi = orders[n + 1]
        suffix_rank = hi.ctx_codes[hi.type_keys // base] // base
        keys, inverses[n], counts = np.unique(
            suffix_rank * base + hi.type_keys % base, return_inverse=True, return_counts=True)
        od = orders[n]
        od.cont_type_keys, od.cont_type_counts = keys, counts
        od.cont_stats = _tally(keys // base, counts, len(od.ctx_codes))
    return inverses


def _fold_kind(type_keys, type_counts, occurrences, folds, base):
    """Fold arrays of one kind from the ``type_index * F + fold`` key of each
    in-fold occurrence of a type.

    Returns the sorted per-(type, fold) keys and counts, then the sorted
    ``ctx_rank * F + fold`` keys and the (m, 4) stat deltas: the full-table
    stats of the affected types minus their stats without the fold.
    """
    fold_keys, fold_counts = np.unique(occurrences, return_counts=True)
    ti, fold = np.divmod(fold_keys, folds)
    full = type_counts[ti]
    keys, inv = np.unique(type_keys[ti] // base * folds + fold, return_inverse=True)
    deltas = _tally(inv, full, len(keys)) - _tally(inv, full - fold_counts, len(keys))
    return fold_keys, fold_counts, keys, deltas


def _corpus_stream(corpus: EncodedCorpus, order: int):
    """Concatenate bos-padded sentences; return stream, target indices, sentence ids."""
    sents = corpus.sentences
    sent_of = np.repeat(np.arange(len(sents), dtype=np.int64), [len(x) for x in sents])
    targets = np.arange(len(sent_of), dtype=np.int64) + (order - 1) * (sent_of + 1)
    stream = np.full(len(sent_of) + (order - 1) * len(sents), corpus.vocab.bos_id, dtype=np.int64)
    if sents:
        stream[targets] = np.concatenate(sents)
    return stream, targets, sent_of


def accumulate(corpus: EncodedCorpus, order: int) -> CountTable:
    """Count all n-grams of orders 1..order with full bos padding."""
    return _build(corpus, order, folds=None)[0]


def _build(corpus: EncodedCorpus, order: int, folds: int | None):
    if order < 1:
        raise CountError("order must be >= 1")
    if corpus.token_count == 0:
        raise CountError("empty corpus")
    base = corpus.vocab.size + 1
    stream, targets, sent_of = _corpus_stream(corpus, order)
    words = stream[targets]

    orders: list = [None]
    rank = np.zeros(len(targets), dtype=np.int64)
    ctx_codes = np.zeros(1, dtype=np.int64)
    type_inverse: list = [None]
    for n in range(1, order + 1):
        if n > 1:
            left = stream[targets - (n - 1)]
            ctx_codes, rank = np.unique(rank * base + left, return_inverse=True)
        keys, inverse, counts = np.unique(rank * base + words,
                                          return_inverse=True, return_counts=True)
        orders.append(_OrderData(ctx_codes, keys, counts))
        type_inverse.append(inverse)
    cont_inverse = _derive(orders, base)
    table = CountTable(order, corpus.vocab.size, orders, corpus.token_count,
                       _vocab_fingerprint(corpus.vocab))
    if folds is None:
        return table, None

    if folds < 2:
        raise CountError("folds must be >= 2")
    if len(corpus.sentences) < folds:
        raise CountError(f"need at least {folds} sentences for {folds} folds")
    fold_assignment = np.arange(len(corpus.sentences), dtype=np.int64) % folds
    fold_of_t = fold_assignment[sent_of]

    fold_data: list = [None] * (order + 1)
    for n in range(order, 0, -1):
        od = orders[n]
        fd = fold_data[n] = _FoldData(*_fold_kind(
            od.type_keys, od.type_counts, type_inverse[n] * folds + fold_of_t, folds, base))
        if n < order:
            # an order-(n+1) type whose occurrences all sit in one fold is a
            # left extension that leaving the fold out loses
            hi = fold_data[n + 1].type_keys
            excl = hi[np.bincount(hi // folds)[hi // folds] == 1]
            (fd.cont_type_keys, fd.cont_type_counts, fd.cont_stat_keys,
             fd.cont_stat_deltas) = _fold_kind(
                od.cont_type_keys, od.cont_type_counts,
                cont_inverse[n][excl // folds] * folds + excl % folds, folds, base)

    folded = FoldedCounts(table, folds, fold_assignment, fold_data)
    return table, folded


def cv_fold_counts(corpus: EncodedCorpus, order: int, folds: int = 10) -> "FoldedCounts":
    """Accumulate counts with the fold deltas that let bulk calls leave a
    position's fold out (sentence i -> fold i % folds)."""
    return _build(corpus, order, folds=folds)[1]


class FoldedCounts:
    """A count table plus the fold deltas that let its bulk calls leave out
    each position's own fold exactly."""

    def __init__(self, table: CountTable, n_folds: int, fold_assignment: np.ndarray,
                 fold_data: list):
        self.table = table
        self.n_folds = n_folds
        self.fold_assignment = fold_assignment
        self.fold_data = fold_data

    def view(self) -> "CountView":
        return CountView(self.table, self)


def _index(keys: np.ndarray, key) -> int:
    """Position of one key in sorted keys, or -1 when absent."""
    i = int(keys.searchsorted(key))
    return i if i < len(keys) and keys[i] == key else -1


def _find(keys: np.ndarray, query: np.ndarray):
    """Positions of query in non-empty sorted keys (clamped) and which are there."""
    idx = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return idx, keys[idx] == query


def _subtract(out: np.ndarray, keys: np.ndarray, deltas: np.ndarray,
              query: np.ndarray, where: np.ndarray) -> None:
    """out[t] -= deltas[i] for each t in ``where`` with keys[i] == query[t]."""
    if len(keys):
        idx, hit = _find(keys, query)
        hit &= where
        out[hit] -= deltas[idx[hit]]


class ContextStats(NamedTuple):
    """The four stats of a context: ints from ``stats``, arrays (one entry
    per position) from ``bulk_stats``."""

    total: int
    n1: int
    n2: int
    n3p: int

    @property
    def unique(self) -> int:
        """Distinct successors: every one falls in exactly one count level."""
        return self.n1 + self.n2 + self.n3p


class _Kind(NamedTuple):
    """One kind of statistics at one order, with its fold deltas if any."""

    keys: np.ndarray
    counts: np.ndarray
    stats: np.ndarray
    fold_keys: np.ndarray | None
    fold_counts: np.ndarray | None
    stat_keys: np.ndarray | None
    stat_deltas: np.ndarray | None


class CountView:
    """Query interface over a table.  Scalar calls read the full table; bulk
    calls given per-position ``folds`` leave each position's fold out, which
    needs the fold data of a ``FoldedCounts``."""

    fold = None  # always None: bench/spans._mode reads it on every traced bulk call

    def __init__(self, table: CountTable, folded: FoldedCounts | None = None):
        self.table = table
        self.folded = folded
        # the latest context resolved and its rank chain
        self._latest: tuple[tuple[int, ...], np.ndarray] = ((), np.zeros(1, dtype=np.int64))

    @property
    def vocab_size(self) -> int:
        return self.table.vocab_size

    def _kind(self, order: int, continuation: bool) -> _Kind:
        """Raw or continuation arrays of one order: the one place that picks."""
        od = self.table.orders[order]
        fd = self.folded.fold_data[order] if self.folded is not None else _NO_FOLDS
        if not continuation:
            return _Kind(od.type_keys, od.type_counts, od.stats,
                         fd.type_keys, fd.type_counts, fd.stat_keys, fd.stat_deltas)
        if od.cont_type_keys is None:
            raise CountError(f"no continuation counts at order {order}")
        return _Kind(od.cont_type_keys, od.cont_type_counts, od.cont_stats, fd.cont_type_keys,
                     fd.cont_type_counts, fd.cont_stat_keys, fd.cont_stat_deltas)

    # -- context resolution ------------------------------------------------

    def rank_chain(self, context: tuple[int, ...]) -> np.ndarray:
        """Ranks of the length-0..len(context) suffixes of ``context``.

        Entry k is the rank of the last k symbols as an order-(k+1) context,
        or -1 when that context never occurs in the full table.  The view
        keeps only the latest chain: a suffix of the latest context reads a
        prefix of it, and a context that extends the latest one continues it.
        A symbol it has to resolve must be a word id or the bos id J.
        """
        context = tuple(int(c) for c in context)
        if len(context) >= self.table.order:
            raise CountError("context longer than order - 1")
        last, chain = self._latest
        k = len(context)
        if context == last[len(last) - k:]:
            return chain[:k + 1]
        if context[k - len(last):] != last:
            last, chain = (), chain[:1]
        base, orders = self.table.base, self.table.orders
        new = context[:k - len(last)]  # never empty here
        if min(new) < 0 or max(new) >= base:
            raise CountError(f"context ids must lie in 0..{base - 1}")
        out = np.full(k + 1, -1, dtype=np.int64)
        out[:len(chain)] = chain
        rank = int(out[len(last)])
        for i in range(len(last) + 1, k + 1):
            if rank < 0:
                break
            rank = out[i] = _index(orders[i + 1].ctx_codes, rank * base + context[k - i])
        self._latest = (context, out)
        return out

    # -- scalar queries ------------------------------------------------------

    def _stats(self, order: int, rank: int, continuation: bool) -> ContextStats:
        return ContextStats._make(self._kind(order, continuation).stats[rank].tolist())

    def stats(self, order: int, rank: int) -> ContextStats:
        return self._stats(order, rank, False)

    def cont_stats(self, order: int, rank: int) -> ContextStats:
        return self._stats(order, rank, True)

    def _count(self, order: int, rank: int, word: int, continuation: bool) -> int:
        kind = self._kind(order, continuation)
        i = _index(kind.keys, rank * self.table.base + word)
        return 0 if i < 0 else int(kind.counts[i])

    def count(self, order: int, rank: int, word: int) -> int:
        return self._count(order, rank, word, False)

    def cont_count(self, order: int, rank: int, word: int) -> int:
        return self._count(order, rank, word, True)

    def successors(self, order: int, rank: int, continuation: bool = False):
        """(word ids, counts) of a context's successors, as new arrays."""
        kind = self._kind(order, continuation)
        base = self.table.base
        lo, hi = np.searchsorted(kind.keys, [rank * base, (rank + 1) * base])
        return kind.keys[lo:hi] % base, kind.counts[lo:hi].copy()

    # -- bulk queries ----------------------------------------------------

    def bulk_ranks(self, corpus: EncodedCorpus):
        """Per-position context ranks for all orders (PositionIndex arrays).

        Returns (ranks[T, order] int64 with -1 for unseen contexts, words[T],
        sentence index[T]).  Rank columns follow ascending order 1..N.
        """
        table = self.table
        table._check_vocab(corpus.vocab)
        base = table.base
        stream, targets, sent_of = _corpus_stream(corpus, table.order)
        words = stream[targets]
        T = len(targets)
        ranks = np.full((T, table.order), -1, dtype=np.int64)
        ranks[:, 0] = 0
        prev = np.zeros(T, dtype=np.int64)
        alive = np.ones(T, dtype=bool)
        for n in range(2, table.order + 1):
            prev, hit = _find(table.orders[n].ctx_codes, prev * base + stream[targets - (n - 1)])
            alive &= hit
            ranks[alive, n - 1] = prev[alive]
        return ranks, words, sent_of

    def _folds(self, folds: np.ndarray | None, size: int) -> np.ndarray | None:
        """Per-position fold to exclude, or None for full-table values."""
        if folds is None:
            return None
        if self.folded is None:
            raise CountError("per-position folds given to a view without fold data")
        last = self.folded.n_folds - 1
        if len(folds) != size or (size and not (folds.min() >= 0 and folds.max() <= last)):
            raise CountError(f"need one fold in 0..{last} for each of the {size} positions")
        return folds

    def bulk_counts(self, order: int, ranks: np.ndarray, words: np.ndarray,
                    folds: np.ndarray | None = None, continuation: bool = False) -> np.ndarray:
        """Vectorized (context rank, word) -> count, less the occurrences in
        the position's fold when ``folds`` are given; rank -1 yields 0."""
        kind = self._kind(order, continuation)
        valid = ranks >= 0
        idx, hit = _find(kind.keys, np.where(valid, ranks, 0) * self.table.base + words)
        hit &= valid
        out = np.where(hit, kind.counts[idx], 0)
        folds = self._folds(folds, len(ranks))
        if folds is not None:
            _subtract(out, kind.fold_keys, kind.fold_counts,
                      idx * self.folded.n_folds + folds, hit)
        return out

    def bulk_stats(self, order: int, ranks: np.ndarray,
                   folds: np.ndarray | None = None, continuation: bool = False):
        """Vectorized per-context stats as a ``ContextStats`` of arrays; rank -1
        yields zeros."""
        kind = self._kind(order, continuation)
        valid = ranks >= 0
        r = np.where(valid, ranks, 0)
        s = kind.stats[r]
        s[~valid] = 0
        folds = self._folds(folds, len(ranks))
        if folds is not None:
            _subtract(s, kind.stat_keys, kind.stat_deltas, r * self.folded.n_folds + folds, valid)
        return ContextStats._make(s.T)
