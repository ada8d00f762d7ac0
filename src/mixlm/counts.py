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
is n1 + n2 + n3p, in a fold view too.  Fold views never copy the corpus:
per-(type, fold) count deltas and per-(context, fold) deltas of the four
stats, built once per kind, give ``full - fold`` exactly.

File format 2: ``MXCT``; version and order (u32); vocabulary size, token
count and the number of contexts over all orders (u64); the vocabulary
fingerprint as a u32 length and ASCII bytes.  Then per order ctx_codes,
type_keys, type_counts and stats, and below the top order cont_type_keys,
cont_type_counts and cont_stats, each as a u64 element count and int64
values (stats row by row), all little-endian.  A file that is cut short, has
trailing bytes or disagrees with its header raises ``CountError``, and so
does text encoded with a vocabulary whose fingerprint is not the table's.
"""

from __future__ import annotations

import hashlib
import io
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import BOS, EncodedCorpus, Vocabulary

_BIN_MAGIC = b"MXCT"
_BIN_VERSION = 2
_HEADER = struct.Struct("<IIQQQ")
_STATS = ("total", "n1", "n2", "n3p")  # columns of every stats array


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
    stats: np.ndarray  # (n_ctx, 4): total, n1, n2, n3p
    # continuation counts in the same layout (absent at the top order)
    cont_type_keys: np.ndarray | None = None
    cont_type_counts: np.ndarray | None = None
    cont_stats: np.ndarray | None = None


@dataclass
class _FoldData:
    """Per-order fold-exclusion deltas: view value = full value - delta."""

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
        n_records = sum(len(self.orders[n].ctx_codes) for n in range(1, self.order + 1))
        fh.write(_BIN_MAGIC)
        fh.write(_HEADER.pack(_BIN_VERSION, self.order, self.vocab_size,
                              self.token_count, n_records))
        fp = self.vocab_fingerprint.encode("ascii")
        fh.write(struct.pack("<I", len(fp)))
        fh.write(fp)
        for n in range(1, self.order + 1):
            od = self.orders[n]
            arrays = [od.ctx_codes, od.type_keys, od.type_counts, od.stats]
            if n < self.order:
                arrays += [od.cont_type_keys, od.cont_type_counts, od.cont_stats]
            for arr in arrays:
                fh.write(struct.pack("<Q", arr.size))
                fh.write(np.ascontiguousarray(arr, dtype="<i8").tobytes())

    @classmethod
    def read_binary(cls, fh: io.BufferedIOBase) -> "CountTable":
        def read(size: int) -> bytes:
            data = fh.read(size)
            if len(data) != size:
                raise CountError("count-table file is truncated")
            return data

        def read_arr() -> np.ndarray:
            (size,) = struct.unpack("<Q", read(8))
            return np.frombuffer(read(size * 8), dtype="<i8").astype(np.int64)

        if fh.read(4) != _BIN_MAGIC:
            raise CountError("not a count-table file")
        version, order, vocab_size, token_count, n_records = _HEADER.unpack(read(_HEADER.size))
        if version != _BIN_VERSION:
            raise CountError(f"unsupported count-table version {version}")
        (fp_len,) = struct.unpack("<I", read(4))
        fingerprint = read(fp_len).decode("ascii")

        orders: list = [None]
        for n in range(1, order + 1):
            ctx_codes = read_arr()
            kinds = []
            for _ in range(2 if n < order else 1):  # raw, then continuation
                keys, counts, stats = read_arr(), read_arr(), read_arr()
                if len(keys) != len(counts) or len(stats) != 4 * len(ctx_codes):
                    raise CountError(f"order-{n} arrays disagree in length")
                kinds += [keys, counts, stats.reshape(-1, 4)]
            orders.append(_OrderData(ctx_codes, *kinds))
        if sum(len(od.ctx_codes) for od in orders[1:]) != n_records:
            raise CountError("context count disagrees with the header")
        if fh.read(1):
            raise CountError("trailing bytes after the last array")
        return cls(order, int(vocab_size), orders, int(token_count), fingerprint)

    # -- text dump -------------------------------------------------------

    def dump_text(self, vocab: Vocabulary, fh: io.TextIOBase) -> None:
        """One "context TAB word TAB count" line per raw n-gram type, sorted."""
        self._check_vocab(vocab)
        lines = []
        for n in range(1, self.order + 1):
            od = self.orders[n]
            ctx_words = [" ".join(map(vocab.word_of, self.context_tuple(n, r)))
                         for r in range(len(od.ctx_codes))]
            ranks, words = np.divmod(od.type_keys, self.base)
            for r, w, c in zip(ranks.tolist(), words.tolist(), od.type_counts.tolist()):
                lines.append((n, ctx_words[r], vocab.word_of(w), c))
        lines.sort(key=lambda x: (x[0], x[1], x[2]))
        for _, ctx, word, count in lines:
            fh.write(f"{ctx}\t{word}\t{count}\n")

    def _check_vocab(self, vocab: Vocabulary) -> None:
        """Reject ids from a vocabulary other than the one counted with."""
        if _vocab_fingerprint(vocab) != self.vocab_fingerprint:
            raise CountError("vocabulary does not match the count table's")

    def context_tuple(self, order: int, rank: int) -> tuple[int, ...]:
        """Recover the id-sequence of a context from its rank."""
        syms = []
        n, r = order, rank
        while n > 1:
            code = int(self.orders[n].ctx_codes[r])
            syms.append(code % self.base)
            r = code // self.base
            n -= 1
        return tuple(syms)


def load_text(fh: io.TextIOBase, vocab: Vocabulary, order: int) -> CountTable:
    """Ingest a text dump of raw n-gram counts (all orders 1..order required).

    Context statistics and continuation counts are derived from the listed
    types, so the result satisfies the same invariants as a table accumulated
    from a corpus.
    """
    per_order: list[list] = [[] for _ in range(order + 1)]
    for lineno, line in enumerate(fh, 1):
        if not line.strip():
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 3:
            raise CountError(f"line {lineno}: expected 'context\\tword\\tcount'")
        ctx_str, word, count = parts
        ctx_tokens = ctx_str.split() if ctx_str else []
        n = len(ctx_tokens) + 1
        if n > order:
            raise CountError(f"line {lineno}: order {n} exceeds table order {order}")
        ctx_ids = tuple(vocab.bos_id if t == BOS else vocab.id_of(t) for t in ctx_tokens)
        per_order[n].append((ctx_ids, vocab.id_of(word), int(count)))

    base = vocab.size + 1
    rank_of = {(): 0}  # context tuple -> rank among the contexts of its order
    orders: list = [None]
    for n in range(1, order + 1):
        if not per_order[n]:
            raise CountError(f"no order-{n} counts in dump; orders 1..{order} are required")
        contexts, words, counts = zip(*per_order[n])
        if n > 1:
            for ctx in contexts:
                if ctx[1:] not in rank_of:
                    raise CountError(f"context {ctx} lacks its order-{n - 1} suffix in the dump")
            ctx_codes, rank = np.unique([rank_of[c[1:]] * base + c[0] for c in contexts],
                                        return_inverse=True)
            rank_of = dict(zip(contexts, rank.tolist()))
        else:
            ctx_codes, rank = np.zeros(1, dtype=np.int64), np.zeros(len(words), dtype=np.int64)
        keys, inv = np.unique(rank * base + np.array(words), return_inverse=True)
        type_counts = np.bincount(inv, weights=counts).astype(np.int64)
        orders.append(_derive_order(ctx_codes, keys, type_counts, base))
    _attach_continuations(orders, order, base)
    return CountTable(order, vocab.size, orders, int(orders[1].type_counts.sum()),
                      _vocab_fingerprint(vocab))


# -- accumulation ---------------------------------------------------------


def _tally(groups: np.ndarray, counts: np.ndarray, n_groups: int) -> np.ndarray:
    """(n_groups, 4) stats of the counts in each group: total, n1, n2, n3p."""
    out = np.empty((n_groups, 4), dtype=np.int64)
    out[:, 0] = np.bincount(groups, weights=counts, minlength=n_groups)
    for j, level in enumerate((counts == 1, counts == 2, counts >= 3), 1):
        out[:, j] = np.bincount(groups[level], minlength=n_groups)
    return out


def _derive_order(ctx_codes, type_keys, type_counts, base) -> _OrderData:
    return _OrderData(ctx_codes, type_keys, type_counts,
                      _tally(type_keys // base, type_counts, len(ctx_codes)))


def _attach_continuations(orders: list, order: int, base: int) -> list[np.ndarray]:
    """Derive order-n continuation arrays from order-(n+1) raw types.

    Returns, per order n, the map from order-(n+1) type index to continuation
    type index (needed for fold-exclusive bookkeeping).
    """
    inverses: list = [None] * (order + 1)
    for n in range(1, order):
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
    stats of the affected types minus their view stats.
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
        orders.append(_derive_order(ctx_codes, keys, counts, base))
        type_inverse.append(inverse)
    cont_inverse = _attach_continuations(orders, order, base)
    table = CountTable(order, corpus.vocab.size, orders, corpus.token_count,
                       _vocab_fingerprint(corpus.vocab))
    if folds is None:
        return table, None

    if folds < 2:
        raise CountError("folds must be >= 2")
    if len(corpus.sentences) < folds:
        raise CountError(f"need at least {folds} sentences for {folds}-fold views")
    fold_assignment = np.arange(len(corpus.sentences), dtype=np.int64) % folds
    fold_of_t = fold_assignment[sent_of]

    fold_data: list = [None] * (order + 1)
    for n in range(order, 0, -1):
        od = orders[n]
        fd = fold_data[n] = _FoldData(*_fold_kind(
            od.type_keys, od.type_counts, type_inverse[n] * folds + fold_of_t, folds, base))
        if n < order:
            # an order-(n+1) type whose occurrences all sit in one fold is a
            # left extension that the fold's view loses
            hi = fold_data[n + 1].type_keys
            excl = hi[np.bincount(hi // folds)[hi // folds] == 1]
            (fd.cont_type_keys, fd.cont_type_counts, fd.cont_stat_keys,
             fd.cont_stat_deltas) = _fold_kind(
                od.cont_type_keys, od.cont_type_counts,
                cont_inverse[n][excl // folds] * folds + excl % folds, folds, base)

    folded = FoldedCounts(table, folds, fold_assignment, fold_data)
    return table, folded


def cv_fold_counts(corpus: EncodedCorpus, order: int, folds: int = 10) -> "FoldedCounts":
    """Accumulate counts with leave-one-fold-out views (sentence i -> fold i % folds)."""
    return _build(corpus, order, folds=folds)[1]


class FoldedCounts:
    """A count table plus exact leave-one-fold-out views."""

    def __init__(self, table: CountTable, n_folds: int, fold_assignment: np.ndarray,
                 fold_data: list):
        self.table = table
        self.n_folds = n_folds
        self.fold_assignment = fold_assignment
        self.fold_data = fold_data

    def view(self, fold: int | None = None) -> "CountView":
        if fold is not None and not (0 <= fold < self.n_folds):
            raise CountError(f"fold {fold} out of range")
        return CountView(self.table, self, fold)

    @property
    def folds(self) -> list["CountView"]:
        return [self.view(f) for f in range(self.n_folds)]


def _index(keys: np.ndarray, key) -> int:
    """Position of one key in sorted keys, or -1 when absent."""
    i = int(np.searchsorted(keys, key))
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
    """Query interface over a table, optionally excluding one fold's sentences."""

    def __init__(self, table: CountTable, folded: FoldedCounts | None = None,
                 fold: int | None = None):
        self.table = table
        self.folded = folded
        self.fold = fold
        self._chain_memo: dict[tuple[int, ...], np.ndarray] = {}

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

    def _in_view(self, value, keys: np.ndarray, deltas: np.ndarray, index: int):
        """A full-table value at ``index`` less its delta in this view's fold."""
        if self.fold is not None:
            j = _index(keys, index * self.folded.n_folds + self.fold)
            if j >= 0:
                return value - deltas[j]
        return value

    # -- context resolution ------------------------------------------------

    def rank_chain(self, context: tuple[int, ...]) -> np.ndarray:
        """Ranks of the length-0..len(context) suffixes of ``context``.

        Entry k is the rank of the last k symbols as an order-(k+1) context,
        or -1 when that context never occurs in the full table.
        """
        context = tuple(int(c) for c in context)
        if len(context) >= self.table.order:
            raise CountError("context longer than order - 1")
        cached = self._chain_memo.get(context)
        if cached is not None:
            return cached
        base = self.table.base
        chain = np.full(len(context) + 1, -1, dtype=np.int64)
        chain[0] = 0
        rank = 0
        for k in range(1, len(context) + 1):
            rank = _index(self.table.orders[k + 1].ctx_codes,
                          rank * base + context[len(context) - k])
            if rank < 0:
                break
            chain[k] = rank
        self._chain_memo[context] = chain
        return chain

    # -- scalar queries ------------------------------------------------------

    def _stats(self, order: int, rank: int, continuation: bool) -> ContextStats:
        kind = self._kind(order, continuation)
        s = self._in_view(kind.stats[rank], kind.stat_keys, kind.stat_deltas, rank)
        return ContextStats._make(s.tolist())

    def stats(self, order: int, rank: int) -> ContextStats:
        return self._stats(order, rank, False)

    def cont_stats(self, order: int, rank: int) -> ContextStats:
        return self._stats(order, rank, True)

    def _count(self, order: int, rank: int, word: int, continuation: bool) -> int:
        kind = self._kind(order, continuation)
        i = _index(kind.keys, rank * self.table.base + word)
        if i < 0:
            return 0
        return int(self._in_view(kind.counts[i], kind.fold_keys, kind.fold_counts, i))

    def count(self, order: int, rank: int, word: int) -> int:
        return self._count(order, rank, word, False)

    def cont_count(self, order: int, rank: int, word: int) -> int:
        return self._count(order, rank, word, True)

    def successors(self, order: int, rank: int, continuation: bool = False):
        """(word ids, view counts) with zero-count entries removed."""
        kind = self._kind(order, continuation)
        base = self.table.base
        lo, hi = np.searchsorted(kind.keys, [rank * base, (rank + 1) * base])
        words = kind.keys[lo:hi] % base
        vals = kind.counts[lo:hi].copy()
        if self.fold is not None:
            q = np.arange(lo, hi, dtype=np.int64) * self.folded.n_folds + self.fold
            _subtract(vals, kind.fold_keys, kind.fold_counts, q, True)
        keep = vals > 0
        return words[keep], vals[keep]

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
        if folds is None and self.fold is not None:
            return np.full(size, self.fold, dtype=np.int64)
        return folds if self.folded is not None else None

    def bulk_counts(self, order: int, ranks: np.ndarray, words: np.ndarray,
                    folds: np.ndarray | None = None, continuation: bool = False) -> np.ndarray:
        """Vectorized (context rank, word) -> view count; rank -1 yields 0."""
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
        """Vectorized per-context stats -> dict of arrays (total/unique/n1/n2/n3p)."""
        kind = self._kind(order, continuation)
        valid = ranks >= 0
        r = np.where(valid, ranks, 0)
        s = kind.stats[r]
        s[~valid] = 0
        folds = self._folds(folds, len(ranks))
        if folds is not None:
            _subtract(s, kind.stat_keys, kind.stat_deltas, r * self.folded.n_folds + folds, valid)
        out = dict(zip(_STATS, s.T))
        out["unique"] = out["n1"] + out["n2"] + out["n3p"]
        return out


def query(view: CountView | CountTable, context: tuple[int, ...], word: int):
    """(count, context total, unique successors) for one (context, word)."""
    if isinstance(view, CountTable):
        view = view.view()
    chain = view.rank_chain(tuple(context))
    order = len(context) + 1
    rank = int(chain[len(context)])
    if rank < 0:
        return 0, 0, 0
    s = view.stats(order, rank)
    if s.total <= 0:
        return 0, 0, 0
    return view.count(order, rank, word), s.total, s.unique
