"""N-gram statistics for orders 1..N over an encoded corpus.

Layout
------
Contexts are interned per order into sorted arrays.  A context of order n
(length n-1) is identified by an integer code ``suffix_rank * B + leftmost``,
where ``suffix_rank`` is the rank of its length-(n-2) suffix among order-(n-1)
contexts and ``B = J + 1`` (the begin-of-sentence symbol is J).  Ranks stay
below the number of distinct contexts (the sorted-array context encoding of
Pauls & Klein 2011), so every code and type key is below
``len(top-order contexts) * B``, and every fold key below ``token_count * F``
(F = 1 without folds).  The key arrays (contexts, type keys, fold keys) and
the fold assignment share the store's width: int32 when both bounds are
below 2**31, and int64 otherwise.  Every value array (type counts, stats,
continuation counts and stats, and the fold deltas of each) has the
narrowest of int8, int16, int32 and int64 that holds its own minimum and
maximum (``_narrow``).  Their arithmetic never runs narrow: values are
computed at the store's width and narrowed last, a bulk call casts what it
gathers to the store's width or subtracts it into an array of that width,
and a scalar read converts to a Python int.  Every array a query returns
has the store's width.  A bulk query is cast to its keys' width and
searched in sorted order, so that each needle's binary search starts at the
previous needle's position, then its positions are put back in the query's
order; a scalar one is a ``bisect`` over a kept memoryview, so no lookup
converts a key array.
Every position is counted with full left bos-padding.

Each order holds sorted ``rank * B + word`` type keys with parallel raw
counts and, below the top order, parallel continuation counts (distinct
single-symbol left extensions, from the order-(n+1) types): with full
bos-padding every type has a left extension, so both kinds share one key
array.  Each kind has an (n_ctx + 1, 4) stats array of total, n1, n2 and n3p
per context.  Its last row is all zero: rank -1 names an unobserved
context, so it reads zeros by plain indexing, and every key built from it
(-B plus a word or the bos id) is negative and matches nothing.  Successors
are a slice; a (context, word) lookup is two binary searches.  Distinct
successors are not stored: each has a count of at least 1, so their number
is n1 + n2 + n3p, with a fold left out too.

A fold is left out per position, on the bulk calls only, and never by
copying the corpus.  Each order tags every type, and every context, with
the one fold it occurs in, or with F when it occurs in two or more; the
all-zero rank -1 row is tagged 0.  With a fold left out, a value tagged
with that fold is 0 (all its occurrences sit there, and so do all the left
extensions of a type, so its continuation value is 0 too), and one tagged
with another fold is the full value.  Only the tag-F types and contexts
keep per-(type, fold) count deltas and per-(context, fold) deltas of the
four stats, which give ``full - fold`` exactly, and a bulk call searches
those keys for its tag-F positions alone: the delta of a value found in
one fold would be the full value again.  The continuation deltas are stored
against the same keys, 0 where the fold takes nothing: a left extension
found only in one fold puts its type there.

A view looks each context up once however many callers read it (the
context-state reuse of Pauls & Klein 2011 and KenLM), and keeps, besides
the arrays it picks per (order, kind): the latest rank chain; the latest
scalar stats row per (order, kind), with its rank; and per order the latest
fold-view ``bulk_stats`` lookup, that is copies of the positions' ranks and
folds, their search in the stat keys, and the stats of each kind read for
them, which it returns read-only.  A bulk call for equal ranks and folds
(``np.array_equal``, after its checks) reuses that lookup, and any other
call replaces it, so one bulk entry per order and one row per (order,
kind) bound what a view keeps; a new view starts empty.  It also keeps the
vocabulary object ``bulk_ranks`` last accepted, and fingerprints only
another one.

Counting is sorting (as in KenLM and Pauls & Klein 2011), and no sort
computes an inverse that nothing reads.  Each order's context codes are
sorted with their inverse, since each position's context rank builds the
next order's codes; its type keys are sorted with one only in
``cv_fold_counts``, whose fold keys pair each position's type index with its
fold.  ``_derive`` sorts each order's suffix keys for their counts alone:
the continuation deltas read the (suffix type, fold) key of each
order-(n+1) type found in one fold at one of its positions, and search for
those keys in sorted order.  A build keeps no array past its last reader:
the per-position corpus stream, targets, words, context ranks and sentence
ids go once the top order is counted; each type inverse is kept at its
order's key width, which holds inverse * F, and goes once its order's fold
deltas are built; and the stat deltas are tallied over the (type, fold)
pairs of tag-F contexts alone, the only ones stored.

A store is built by ``accumulate`` or ``cv_fold_counts``, queried through
a ``CountView`` and written to disk in one form, binary file format 5:
``MXCT``; version and order (u32); vocabulary size and token count (u64);
the vocabulary fingerprint as a u32 length and ASCII bytes; per order only
what counting produced, ctx_codes, type_keys and type_counts, each as its
byte width W (u32), its element count (u64) and W-byte values, every array
at the narrowest width of its own values; then a CRC32 of every byte after
the magic, all little-endian.  Loading widens the keys to the store's width
and derives the stats and continuation arrays with ``_derive``, the code
that builds them after counting.  A file that is cut short, has trailing
bytes, fails its checksum, is malformed, has a W other than 1, 2, 4 or 8, or
an array wider than its values need raises ``CountError``, and so does text
encoded with a vocabulary whose fingerprint is not the table's.
"""

from __future__ import annotations

import bisect
import hashlib
import io
import struct
import zlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import EncodedCorpus, Vocabulary

_BIN_MAGIC = b"MXCT"
_BIN_VERSION = 5
_HEADER = struct.Struct("<IIQQ")
_ARRAY = struct.Struct("<IQ")  # byte width and element count of one array
_VALUE_TYPES = [np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64)]


class CountError(ValueError):
    pass


def _vocab_fingerprint(vocab: Vocabulary) -> str:
    h = hashlib.sha256("\n".join(vocab.id_to_word).encode("utf-8")).hexdigest()
    return h[:16]


@dataclass
class _OrderData:
    """Arrays for one n-gram order (contexts of length order-1).  The keys
    have the store's width, each value array its own narrowest width."""

    ctx_codes: np.ndarray  # sorted context codes
    type_keys: np.ndarray  # sorted rank * B + word
    type_counts: np.ndarray
    # derived from the arrays above by ``_derive``
    stats: np.ndarray | None = None  # (n_ctx + 1, 4): total, n1, n2, n3p; last row 0
    # continuation counts of the same types, aligned with type_keys, and their
    # stats (absent at the top order)
    cont_type_counts: np.ndarray | None = None
    cont_stats: np.ndarray | None = None


@dataclass
class _FoldData:
    """Per-order fold tags and fold-exclusion deltas (module docstring): a
    value without the fold is 0 where its tag names the fold, the full value
    where it names another, and the full value less the delta where it is F.
    The keys have the store's width, each value array its own narrowest width."""

    type_tags: np.ndarray  # per type: the one fold it occurs in, or F for two or more
    type_keys: np.ndarray  # type_index * F + fold, for each fold a tag-F type occurs in
    type_counts: np.ndarray  # occurrences of the type inside the fold
    stat_tags: np.ndarray  # per context likewise, then 0 for the all-zero rank -1 row
    stat_keys: np.ndarray  # ctx_rank * F + fold, for each fold a tag-F context occurs in
    stat_deltas: np.ndarray  # (m, 4), columns as in the stats arrays
    # continuation deltas aligned with type_keys and stat_keys, 0 where the
    # fold takes nothing: a continuation count loses one for each left
    # extension that occurs only inside the fold
    cont_type_counts: np.ndarray | None = None
    cont_stat_deltas: np.ndarray | None = None


_NO_FOLDS = _FoldData(*[None] * 6)  # the fold arrays of a table without folds


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
                arr = _narrow(arr)
                parts += [_ARRAY.pack(arr.itemsize, arr.size),
                          np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes()]
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

        def read_arr(n: int) -> np.ndarray:
            """One array as a writable copy, at the width its file gives it."""
            width, size = _ARRAY.unpack(read(_ARRAY.size))
            if width not in (1, 2, 4, 8):
                raise CountError(f"unsupported count-table width {width}")
            arr = np.frombuffer(read(size * width), dtype=f"<i{width}").astype(f"=i{width}")
            if _narrow(arr).dtype != arr.dtype:
                raise CountError(f"an order-{n} array of width {width} is wider than its values")
            return arr

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
            ctx_codes, keys, counts = read_arr(n), read_arr(n), read_arr(n)
            if len(keys) != len(counts):
                raise CountError(f"order-{n} arrays disagree in length")
            orders.append(_OrderData(ctx_codes, keys, counts))
        if pos != end:
            raise CountError("trailing bytes after the last array")
        del data  # the arrays are copies: free the file's bytes before deriving
        width = _width(len(orders[-1].ctx_codes), vocab_size + 1, token_count)
        for n, od in enumerate(orders[1:], 1):
            # keys that need more than the store's width lie past its bounds
            if max(od.ctx_codes.itemsize, od.type_keys.itemsize) > width.itemsize:
                raise CountError(f"order-{n} keys are out of order or range")
            od.ctx_codes = od.ctx_codes.astype(width, copy=False)
            od.type_keys = od.type_keys.astype(width, copy=False)
        _check_arrays(orders, vocab_size + 1, token_count)
        _derive(orders, vocab_size + 1)
        return cls(order, int(vocab_size), orders, int(token_count), fingerprint)

    def _check_vocab(self, vocab: Vocabulary) -> None:
        """Reject ids from a vocabulary other than the one counted with."""
        if _vocab_fingerprint(vocab) != self.vocab_fingerprint:
            raise CountError("vocabulary does not match the count table's")


def _check_arrays(orders: list, base: int, token_count: int) -> None:
    """Reject loaded keys out of order, naming no context or the bos id J as a
    word, an order 1 with any context but the empty one, and counts below 1 or
    not summing to the token count: binary searches and ``_derive`` trust them."""
    if orders[1].ctx_codes.tolist() != [0]:
        raise CountError("order-1 keys must be the empty context alone")
    n_prev = 1
    for n, od in enumerate(orders[1:], 1):
        for keys, n_groups in ((od.ctx_codes, n_prev), (od.type_keys, len(od.ctx_codes))):
            if len(keys) and not (keys[0] >= 0 and keys[-1] // base < n_groups
                                  and (keys[1:] > keys[:-1]).all()):
                raise CountError(f"order-{n} keys are out of order or range")
        if not (od.type_keys % base < base - 1).all():
            raise CountError(f"order-{n} keys name the bos id as a word")
        if not ((od.type_counts >= 1).all() and od.type_counts.sum() == token_count):
            raise CountError(f"order-{n} counts are below 1 or miss the token count")
        n_prev = len(od.ctx_codes)


# -- accumulation ---------------------------------------------------------


def _width(top_contexts: int, base: int, token_count: int, folds: int = 1) -> np.dtype:
    """int32 when a table's bounds (module docstring) stay below 2**31, else int64."""
    return np.dtype(np.int32 if max(top_contexts * base, token_count * folds) < 2**31
                    else np.int64)


def _narrow(arr: np.ndarray) -> np.ndarray:
    """``arr`` at the narrowest of int8, int16, int32 and int64 that holds its
    minimum and maximum; ``arr`` itself when it has that width already."""
    lo, hi = (int(arr.min()), int(arr.max())) if arr.size else (0, 0)
    return arr.astype(next(t for t in _VALUE_TYPES
                           if np.iinfo(t).min <= lo and hi <= np.iinfo(t).max), copy=False)


def _tally(groups: np.ndarray, counts: np.ndarray, n_groups: int, width: np.dtype) -> np.ndarray:
    """(n_groups, 4) stats of the counts in each group: total, n1, n2, n3p,
    tallied at ``width`` whatever the counts' own width, so no total wraps.
    The levels take one ``bincount`` over (group, min(count, 3)) cells, whose
    level-0 cells (counts of 0) are dropped."""
    out = np.empty((n_groups, 4), dtype=width)
    out[:, 0] = np.bincount(groups, weights=counts, minlength=n_groups)
    cells = 4 * groups.astype(np.intp) + np.minimum(counts, 3)
    out[:, 1:] = np.bincount(cells, minlength=4 * n_groups).reshape(n_groups, 4)[:, 1:]
    return out


def _derive(orders: list, base: int) -> None:
    """Fill in every order's stats and, below the top order, its continuation
    arrays (from the order-(n+1) raw types), using only ctx_codes, type_keys
    and type_counts.  Counting and loading both end here.  No type is mapped
    to its suffix type's index: the fold deltas read the ones they need off
    the positions.

    The continuation types are the raw ones (module docstring), so their
    counts are aligned with ``type_keys``; types that break this raise.

    Values are tallied at the store's width, the keys', and narrowed last
    (module docstring).
    """
    width = orders[1].type_keys.dtype
    for od in orders[1:]:
        od.stats = _narrow(_tally(od.type_keys // base, od.type_counts,
                                  len(od.ctx_codes) + 1, width))
        od.type_counts = _narrow(od.type_counts)
    for n in range(1, len(orders) - 1):
        hi, od = orders[n + 1], orders[n]
        # each order-(n+1) type's suffix type: its context's suffix rank, then its word
        suffixes = hi.ctx_codes[hi.type_keys // base] // base * base + hi.type_keys % base
        keys, counts = np.unique(suffixes, return_counts=True)
        if not np.array_equal(keys, od.type_keys):
            raise CountError(f"order-{n} types are not the suffixes of the order-{n + 1} types")
        od.cont_stats = _narrow(_tally(keys // base, counts, len(od.ctx_codes) + 1, width))
        od.cont_type_counts = _narrow(counts)


def _stat_deltas(inv: np.ndarray, n_keys: int, full: np.ndarray, drop: np.ndarray) -> np.ndarray:
    """(n_keys, 4) stat deltas of the (type, fold) entries that map to each
    stat key through ``inv``: the stats of their full counts minus those of
    their counts without the fold, at the width of ``drop``.  An entry that
    drops 0 adds 0."""
    width = drop.dtype
    return _tally(inv, full, n_keys, width) - _tally(inv, full - drop, n_keys, width)


def _tags(ids: np.ndarray, folds: np.ndarray, size: int, n_folds: int):
    """One tag per id in 0..size-1 of sorted (id, fold) pairs: the fold of an
    id found in one fold only, ``n_folds`` for an id found in two or more,
    and 0 for an id in no pair; and the mask of the pairs of tag-F ids."""
    multi = np.bincount(ids, minlength=size)[ids] > 1
    tags = np.zeros(size, dtype=folds.dtype)
    tags[ids] = np.where(multi, n_folds, folds)
    return tags, multi


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
    stream, targets, sent_of = _corpus_stream(corpus, order)
    if len(targets) == 0:
        raise CountError("empty corpus")
    if folds is not None and not 2 <= folds <= len(corpus.sentences):
        raise CountError(f"folds must lie in 2..{len(corpus.sentences)}, the sentence count")
    base, T, F = corpus.vocab.size + 1, len(targets), folds or 1
    words = stream[targets]

    # each order sorts in the width its contexts select, never wider than the
    # table's, and keeps its type inverse at that width, which holds
    # inverse * F; only the fold deltas read each position's type index
    built, type_inverse = [], [None]
    rank = np.zeros(len(targets), dtype=np.int64)
    ctx_codes = np.zeros(1, dtype=np.int64)
    for n in range(1, order + 1):
        if n > 1:
            codes = rank * base + stream[targets - (n - 1)]
            ctx_codes, rank = np.unique(codes.astype(_width(len(ctx_codes), base, T, F)),
                                        return_inverse=True)
        key_width = _width(len(ctx_codes), base, T, F)
        codes = (rank * base + words).astype(key_width)
        keys, *inverse, counts = np.unique(codes, return_inverse=folds is not None,
                                           return_counts=True)
        built.append((ctx_codes, keys, counts))
        type_inverse += [i.astype(key_width, copy=False) for i in inverse]
    width = _width(len(ctx_codes), base, T, F)
    fold_of_t = None if folds is None else (sent_of % folds).astype(width)
    del stream, targets, words, rank, sent_of, codes  # every order is counted
    orders = [None] + [_OrderData(*(a.astype(width, copy=False) for a in arrays))
                       for arrays in built]
    _derive(orders, base)
    table = CountTable(order, corpus.vocab.size, orders, T, _vocab_fingerprint(corpus.vocab))
    if folds is None:
        return table, None

    fold_assignment = np.arange(len(corpus.sentences), dtype=width) % folds
    # the values are computed at the store's width and only then narrowed;
    # ``excl`` holds one position of each order-(n+1) type found in one fold
    fold_data: list = [None] * (order + 1)
    excl = None
    for n in range(order, 0, -1):
        od = orders[n]
        inverse = type_inverse.pop()  # order n's: each is freed once its order is done
        pairs = (inverse * folds + fold_of_t).astype(width)
        keys, counts = np.unique(pairs, return_counts=True)
        counts = counts.astype(width)
        ti, fold = np.divmod(keys, folds)
        stat_keys, inv = np.unique(od.type_keys[ti] // base * folds + fold, return_inverse=True)
        type_tags, multi = _tags(ti, fold, len(od.type_keys), folds)
        stat_tags, ctx_multi = _tags(*np.divmod(stat_keys, folds), len(od.ctx_codes) + 1, folds)
        # only the (type, fold) pairs of tag-F contexts have stat deltas to
        # keep: ``inv`` numbers their stat keys among the tag-F ones
        kept = ctx_multi[inv]
        ti, inv = ti[kept], (np.cumsum(ctx_multi) - 1)[inv[kept]]
        stat_keys = stat_keys[ctx_multi]
        fd = fold_data[n] = _FoldData(
            _narrow(type_tags), keys[multi], _narrow(counts[multi]), _narrow(stat_tags), stat_keys,
            _narrow(_stat_deltas(inv, len(stat_keys), od.type_counts[ti], counts[kept])))
        if excl is not None:
            # an order-(n+1) type found in one fold is a left extension that
            # leaving the fold out loses; at any of its positions the order-n
            # (type, fold) key is its suffix type's in that fold
            lost = np.bincount(np.searchsorted(keys, np.sort(pairs[excl])), minlength=len(keys))
            lost = lost.astype(width)
            fd.cont_type_counts = _narrow(lost[multi])
            fd.cont_stat_deltas = _narrow(_stat_deltas(inv, len(stat_keys),
                                                       od.cont_type_counts[ti], lost[kept]))
        if n > 1:
            at = np.empty(len(od.type_keys), dtype=width)
            at[inverse] = np.arange(T, dtype=width)
            excl = at[type_tags < folds]

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


def _index(keys: memoryview, key: int) -> int:
    """Position of one key in sorted keys, or -1 when absent (``searchsorted``
    given a Python int would copy int32 keys to int64 on every call)."""
    i = bisect.bisect_left(keys, key)
    return i if i < len(keys) and keys[i] == key else -1


def _find(keys: np.ndarray, query: np.ndarray):
    """Positions of query in non-empty sorted keys (clamped; searched in the
    keys' width and in sorted order, then put back in the query's order) and
    which are there (compared unwrapped: a needle the cast wraps onto a key
    never hits)."""
    cast = query.astype(keys.dtype, copy=False)
    perm = np.argsort(cast)
    idx = np.empty(len(cast), dtype=np.intp)
    idx[perm] = np.searchsorted(keys, cast[perm])
    np.minimum(idx, len(keys) - 1, out=idx)
    return idx, np.take(keys, idx) == query


def _integers(name: str, values, size: int | None = None, bound: int = 0) -> np.ndarray:
    """Per-position ``values`` as a 1-D integer array (lists of ints too, no
    bools); given ``size``, of that length and each in 0..bound-1; else raise."""
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.dtype.kind not in "iu":
        raise CountError(f"{name}s must be integers in a 1-D array, "
                         f"not {arr.ndim}-D {arr.dtype}")
    if size is None:
        return arr
    need = f"need one {name} in 0..{bound - 1} for each of the {size} positions"
    if len(arr) != size:
        raise CountError(f"{need}, not {len(arr)}")
    if size and not (arr.min() >= 0 and arr.max() < bound):
        raise CountError(f"{need}: some lie outside 0..{bound - 1}")
    return arr


class _Split(NamedTuple):
    """What leaving each position's fold out takes, read from the positions'
    fold tags: ``keep`` is False where the tag names the position's fold,
    and ``idx`` and ``hit`` are the ``_find`` of the (id, fold) keys of the
    positions tagged F, put back at their positions, and 0 and False at
    every other position."""

    keep: np.ndarray
    idx: np.ndarray
    hit: np.ndarray


def _split(tags: np.ndarray, ids: np.ndarray, folds: np.ndarray, n_folds: int,
           keys: np.ndarray) -> _Split:
    """The ``_Split`` of positions with these tags, ids and folds; only the
    ones tagged F are searched in the fold ``keys``, which an order without
    tag-F ids leaves empty."""
    multi = np.flatnonzero(tags == n_folds)
    idx, hit = np.zeros(len(tags), dtype=np.intp), np.zeros(len(tags), dtype=bool)
    if len(multi):
        idx[multi], hit[multi] = _find(keys, ids[multi] * n_folds + folds[multi])
    return _Split(tags != folds, idx, hit)


def _leave_out(out: np.ndarray, deltas: np.ndarray, split: _Split) -> None:
    """``out`` less each position's fold, in place (a whole row when it is
    2-D): zeroed where ``split.keep`` is False, and less the delta found for
    each position tagged F: every position's delta is gathered, zeroed
    unless hit, and subtracted into the wider ``out``; empty deltas have no
    hit.  Zeroing by a product is faster than a masked write or
    ``np.where``, which has no fast path for 1-byte values."""
    row = (slice(None),) if out.ndim == 1 else (slice(None), None)
    out *= split.keep[row]
    if len(deltas):
        taken = np.take(deltas, split.idx, axis=0)
        taken *= split.hit[row]
        out -= taken


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
    """One kind of statistics at one order, with its fold deltas if any; the
    continuation kind reads the raw kind's key arrays."""

    keys: np.ndarray
    counts: np.ndarray
    stats: np.ndarray
    index: memoryview  # the keys again, for scalar lookups
    fold_tags: np.ndarray | None
    fold_keys: np.ndarray | None
    fold_counts: np.ndarray | None
    stat_tags: np.ndarray | None
    stat_keys: np.ndarray | None
    stat_deltas: np.ndarray | None

    def rank(self, rank: int) -> int:
        """``rank`` if it names a context or is -1 (unobserved); else raise."""
        if not -1 <= rank < len(self.stats) - 1:
            raise CountError(f"rank {rank} outside -1..{len(self.stats) - 2}")
        return rank

    def ranks(self, ranks: np.ndarray) -> np.ndarray:
        """``ranks`` if each names a context or is -1; else raise."""
        n_ctx = len(self.stats) - 1
        if len(ranks) and not (ranks.min() >= -1 and ranks.max() < n_ctx):
            raise CountError(f"ranks must lie in -1..{n_ctx - 1}")
        return ranks


class _Lookup(NamedTuple):
    """One order's latest fold-view ``bulk_stats`` positions: copies of their
    ranks and folds, the ``_split`` of their context tags and stat keys, which
    both kinds share, and the read-only stats of each kind read for them so
    far."""

    ranks: np.ndarray
    folds: np.ndarray
    split: _Split
    stats: dict[bool, ContextStats]  # by continuation


class CountView:
    """Query interface over a table.  Scalar calls read the full table; bulk
    calls take ranks, words and folds as 1-D integer arrays (or lists) of one
    length, and given per-position ``folds`` leave each position's fold out,
    which needs the fold data of a ``FoldedCounts``.

    A view keeps, as the module describes: the ``_Kind`` of each (order,
    continuation) it reads; the latest rank chain (``rank_chain``); the
    latest ``stats``/``cont_stats`` row per (order, kind), with its rank; and
    per order the latest fold-view ``bulk_stats`` lookup (``_Lookup``), whose
    stats it returns read-only; and the vocabulary ``bulk_ranks`` last
    accepted.  Nothing else is kept, and a new view starts empty."""

    fold = None  # always None: bench/spans._mode reads it on every traced bulk call

    def __init__(self, table: CountTable, folded: FoldedCounts | None = None):
        self.table = table
        self.folded = folded
        # the latest context resolved and its rank chain, which every suffix of
        # that context reads a prefix of; read-only because rank_chain hands it out
        root = np.zeros(1, dtype=np.int64)
        root.setflags(write=False)
        self._latest: tuple[tuple[int, ...], np.ndarray] = ((), root)
        self._kinds: dict[tuple[int, bool], _Kind] = {}
        self._rows: dict[tuple[int, bool], tuple[int, ContextStats]] = {}
        self._lookups: dict[int, _Lookup] = {}
        self._vocab: Vocabulary | None = None  # the vocabulary bulk_ranks last accepted
        self._contexts = [memoryview(od.ctx_codes) for od in table.orders[1:]]

    @property
    def vocab_size(self) -> int:
        return self.table.vocab_size

    def _kind(self, order: int, continuation: bool) -> _Kind:
        """Raw or continuation arrays of one order, kept per view: the one place that picks."""
        kind = self._kinds.get((order, continuation))
        if kind is None:
            if not 1 <= order <= self.table.order:
                raise CountError(f"order {order} outside 1..{self.table.order}")
            od = self.table.orders[order]
            fd = self.folded.fold_data[order] if self.folded is not None else _NO_FOLDS
            if not continuation:
                kind = _Kind(od.type_keys, od.type_counts, od.stats, memoryview(od.type_keys),
                             fd.type_tags, fd.type_keys, fd.type_counts,
                             fd.stat_tags, fd.stat_keys, fd.stat_deltas)
            elif od.cont_type_counts is None:
                raise CountError(f"no continuation counts at order {order}")
            else:  # the raw kind's keys with the continuation values
                kind = self._kind(order, False)._replace(
                    counts=od.cont_type_counts, stats=od.cont_stats,
                    fold_counts=fd.cont_type_counts, stat_deltas=fd.cont_stat_deltas)
            self._kinds[order, continuation] = kind
        return kind

    # -- context resolution ------------------------------------------------

    def rank_chain(self, context: tuple[int, ...]) -> np.ndarray:
        """Ranks of the length-0..len(context) suffixes of ``context``.

        Entry k is the rank of the last k symbols as an order-(k+1) context,
        or -1 when that context never occurs in the full table: the key a
        longer context builds from rank -1 is negative and finds no context.
        The view keeps only the latest chain: a suffix of the latest context
        reads a prefix of it, and any other context is resolved from the root.
        The returned array is that kept chain, so it is read-only.
        Every symbol of a resolved context must be a word id or the bos id J;
        ids are converted with ``int`` only when the kept chain misses.
        """
        context = tuple(context)
        last, chain = self._latest
        k = len(context)
        if context == last[len(last) - k:]:  # a suffix of the latest: never too long
            return chain[:k + 1]
        if k >= self.table.order:
            raise CountError("context longer than order - 1")
        context = tuple(int(c) for c in context)
        base = self.table.base
        if min(context) < 0 or max(context) >= base:  # never empty here
            raise CountError(f"context ids must lie in 0..{base - 1}")
        out = np.zeros(k + 1, dtype=np.int64)
        rank = 0
        for i in range(1, k + 1):
            rank = out[i] = _index(self._contexts[i], rank * base + context[k - i])
        out.setflags(write=False)
        self._latest = (context, out)
        return out

    # -- scalar queries ------------------------------------------------------

    def _stats(self, order: int, rank: int, continuation: bool) -> ContextStats:
        """One context's stats row, the kept one when ``rank`` is its rank."""
        kept = self._rows.get((order, continuation))
        if kept is not None and kept[0] == rank:
            return kept[1]
        kind = self._kind(order, continuation)
        row = ContextStats._make(kind.stats[kind.rank(rank)].tolist())
        self._rows[order, continuation] = (rank, row)
        return row

    def stats(self, order: int, rank: int) -> ContextStats:
        return self._stats(order, rank, False)

    def cont_stats(self, order: int, rank: int) -> ContextStats:
        return self._stats(order, rank, True)

    def _count(self, order: int, rank: int, word: int, continuation: bool) -> int:
        kind = self._kind(order, continuation)
        if not 0 <= word < self.table.vocab_size:
            raise CountError(f"word {word} outside 0..{self.table.vocab_size - 1}")
        i = _index(kind.index, rank * self.table.base + word)
        if i >= 0:  # a key names a context: only a miss can hide a bad rank
            return int(kind.counts[i])
        kind.rank(rank)
        return 0

    def count(self, order: int, rank: int, word: int) -> int:
        return self._count(order, rank, word, False)

    def cont_count(self, order: int, rank: int, word: int) -> int:
        return self._count(order, rank, word, True)

    def successors(self, order: int, rank: int, continuation: bool = False):
        """(word ids, counts) of a context's successors, as new arrays of the
        store's width."""
        kind = self._kind(order, continuation)
        base = self.table.base
        lo = bisect.bisect_left(kind.index, kind.rank(rank) * base)
        hi = bisect.bisect_left(kind.index, (rank + 1) * base, lo)
        return kind.keys[lo:hi] % base, kind.counts[lo:hi].astype(kind.keys.dtype)

    # -- bulk queries ----------------------------------------------------

    def bulk_ranks(self, corpus: EncodedCorpus):
        """Per-position context ranks for all orders (PositionIndex arrays).

        Returns (ranks[T, order] int64 with -1 for unseen contexts, words[T],
        sentence index[T]).  Rank columns follow ascending order 1..N.  The
        corpus's vocabulary is checked against the table's fingerprint unless
        it is the very object this view accepted last.
        """
        table = self.table
        if corpus.vocab is not self._vocab:
            table._check_vocab(corpus.vocab)
            self._vocab = corpus.vocab
        base = table.base
        stream, targets, sent_of = _corpus_stream(corpus, table.order)
        words = stream[targets]
        T = len(targets)
        ranks = np.zeros((T, table.order), dtype=np.int64)
        for n in range(2, table.order + 1):
            idx, hit = _find(table.orders[n].ctx_codes,
                             ranks[:, n - 2] * base + stream[targets - (n - 1)])
            ranks[:, n - 1] = np.where(hit, idx, -1)
        return ranks, words, sent_of

    def _folds(self, folds, size: int) -> np.ndarray | None:
        """Per-position fold to exclude, or None for full-table values."""
        if folds is None:
            return None
        if self.folded is None:
            raise CountError("per-position folds given to a view without fold data")
        return _integers("fold", folds, size, self.folded.n_folds)

    def bulk_counts(self, order: int, ranks: np.ndarray, words: np.ndarray,
                    folds: np.ndarray | None = None, continuation: bool = False) -> np.ndarray:
        """Vectorized (context rank, word) -> count, less the occurrences in
        the position's fold when ``folds`` are given; rank -1 yields 0, and
        any other rank outside the contexts raises."""
        kind = self._kind(order, continuation)
        ranks = kind.ranks(_integers("rank", ranks))
        words = _integers("word", words, len(ranks), self.table.vocab_size)
        folds = self._folds(folds, len(ranks))
        idx, hit = _find(kind.keys, ranks * self.table.base + words)
        out = np.take(kind.counts, idx).astype(kind.keys.dtype)  # the store's width
        out *= hit
        if folds is not None:
            tags = np.take(kind.fold_tags, idx)
            tags *= hit  # a miss, tagged 0, is not searched: its 0 is kept or zeroed alike
            _leave_out(out, kind.fold_counts,
                       _split(tags, idx, folds, self.folded.n_folds, kind.fold_keys))
        return out

    def bulk_stats(self, order: int, ranks: np.ndarray,
                   folds: np.ndarray | None = None, continuation: bool = False):
        """Vectorized per-context stats as a ``ContextStats`` of arrays; rank -1
        yields zeros, and any other rank outside the contexts raises.

        With ``folds``, the arguments are checked and then compared with the
        order's kept lookup (module docstring): equal ranks and folds reuse
        its stat-key search, and its stats when this kind was read already;
        other positions replace it.  The arrays returned are then the kept
        ones, read-only."""
        kind = self._kind(order, continuation)
        ranks = kind.ranks(_integers("rank", ranks))
        folds = self._folds(folds, len(ranks))
        if folds is None:
            return ContextStats._make(np.take(kind.stats, ranks, axis=0)
                                      .astype(kind.keys.dtype).T)  # the store's width
        kept = self._lookups.get(order)
        if kept is None or not (np.array_equal(ranks, kept.ranks)
                                and np.array_equal(folds, kept.folds)):
            split = _split(np.take(kind.stat_tags, ranks), ranks, folds, self.folded.n_folds,
                           kind.stat_keys)
            kept = self._lookups[order] = _Lookup(ranks.copy(), folds.copy(), split, {})
        stats = kept.stats.get(continuation)
        if stats is None:
            s = np.take(kind.stats, ranks, axis=0).astype(kind.keys.dtype)
            _leave_out(s, kind.stat_deltas, kept.split)
            s.setflags(write=False)
            stats = kept.stats[continuation] = ContextStats._make(s.T)
        return stats
