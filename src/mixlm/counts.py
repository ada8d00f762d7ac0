"""N-gram statistics for orders 1..N over an encoded corpus.

Layout
------
Contexts are interned per order into sorted arrays.  A context of order n
(length n-1) is identified by an integer code ``suffix_rank * B + leftmost``,
where ``suffix_rank`` is the rank of its length-(n-2) suffix among order-(n-1)
contexts and ``B = J + 1`` (the begin-of-sentence symbol is J).  Ranks stay
below the number of distinct contexts (the sorted-array context encoding of
Pauls & Klein 2011), so every code and type key is below
``len(top-order contexts) * B``, and every fold cell index below
``token_count * F`` (F = 1 without folds).  The key arrays, the fold
assignment and a view's rows of fold cells share the store's width: int32
when both bounds are below 2**31, and int64 otherwise.  Every value array
(type counts, stats, continuation counts and stats, and the fold cells of
each) is codes into a table of its sorted distinct values, or rows, at the
store's width (the value-rank encoding of Pauls & Klein 2011): the values
are few, so the codes are uint8 up to 256 entries, uint16 up to 65,536 and
uint32 beyond (``_coded``).  Values are computed wide and coded last.  A bulk read gathers
codes, then table entries, so every array a query returns has the store's
width; a scalar read indexes a memoryview of the codes into the table,
decoded once per view into ints or ``ContextStats`` (the latter by the
first scalar stats read, so a bulk-only view builds none).  A bulk query is
cast to its keys' width and searched in sorted order, so that each needle's
binary search starts at the previous needle's position, then its positions
are put back in the query's order; a scalar one is a ``bisect`` over a kept
memoryview, so no lookup converts a key array.  Every position is counted
with full left bos-padding.

Each order holds sorted ``rank * B + word`` type keys with parallel raw
counts and, below the top order, parallel continuation counts (distinct
single-symbol left extensions, from the order-(n+1) types): with full
bos-padding every type has a left extension, so both kinds share one key
array.  Each kind has (n_ctx + 1, 4) stats of total, n1, n2 and n3p per
context.  The last row is all zero: rank -1 names an unobserved
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
with another fold is the full value.  Only the tag-F ids keep values of
their own, in cells read by position rather than under keys that a search
finds (per-entry values, as in Pauls & Klein 2011): the r-th tag-F id owns
row r of F cells, one per fold, after an all-zero row 0.  Each cell holds
what leaving its fold out takes from the count or from the four stats, 0
in a fold the id does not occur in, and the continuation cells share the
rows.  A bulk read is then one gather,
``full * (tag != fold) - table[cells[row * F + fold]]``, where
``row = cumsum(tags == F) * (tags == F)`` is derived once per view, and a
miss reads row 0.

A view keeps, besides the arrays and cell rows it picks per (order, kind),
the latest rank chain, a tuple of ints whose prefixes answer every suffix
of the latest context (the context-state reuse of Pauls & Klein 2011 and
KenLM).  Every bulk read is made afresh.  A ``rank_chain`` miss and every
scalar read take their ids and ranks through ``operator.index``, so a float
raises.

Counting is sorting (as in KenLM and Pauls & Klein 2011), and no sort
computes an inverse that nothing reads.  A context code orders contexts by
their most recent symbol first, so one sort of every position's whole
n-gram orders every lower order's contexts as its prefixes (``_ngrams``):
a position's ``order`` symbols of ``J.bit_length()`` bits each, the most
recent context symbol in the high bits and the word in the low bits, are one
int64 key when they fit in 63 bits, sorted once.  Wider n-grams (order 5
from J = 4,096 on) are packed in stages: the leading symbols that fit are
replaced by their rank among the distinct ones, which the next symbols
are packed on below, so the last stage's key sorts as the whole n-gram,
at one sort per stage.  The distinct keys are the top order's types in
key order, with their counts, and the contexts of order n are where the
first n - 1 symbols change among them, one pass per order.  Only
``cv_fold_counts`` sorts the last keys with their positions (``_runs``),
whose top-order fold keys pair each position's type index with its fold.
Every lower order follows from the one above, as in the estimator of
Heafield et al. (2013): ``_derive`` sorts the suffix keys of the
order-(n+1) types (``_runs``), and each run of equal keys is an order-n
type, whose raw count is the integer sum of its left extensions' counts
and whose continuation count is the run's length.
``_derive`` returns each sort's order and run heads, through which the
fold build maps each order's (type, fold) pairs and their counts onto the
order below, and takes one left extension from the suffix pair of each type
found in one fold.  A build keeps no array past its last reader: the
per-position corpus stream, targets, keys and sentence ids go once the top
order's types are counted, and the positions' type indices and folds once
its (type, fold) pairs are.  The pairs of tag-F contexts are tallied by
their distinct stat cells: numbered by rows, the cells are few enough for
``_unique`` to look them up in a table rather than sort them.

A store is built by ``accumulate`` or ``cv_fold_counts``, queried through
a ``CountView`` and written to disk in one form, binary file format 7
(``CountTable.save`` and ``load``): ``MXCT``; version and order (u32);
vocabulary size and token count (u64); the vocabulary's ``fingerprint`` as
a u32 length and ASCII bytes; the ctx_codes of every order, then the top
order's type_keys, type_counts and count_table, as the store holds them,
each as its byte width W (u32), its element count (u64) and W-byte values,
unsigned for the codes; then a CRC32 of every byte after the magic, all
little-endian.  The file keeps no array that can be derived from another:
loading checks the arrays it holds and fills in the rest with ``_derive``,
the code that ends counting.  A file that is cut short, has trailing bytes,
fails its checksum, is malformed or holds an array at another width than a
build gives it raises ``CountError``, and so does text encoded with a
vocabulary whose fingerprint is not the table's.
"""

from __future__ import annotations

import bisect
import operator
import struct
import zlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import EncodedCorpus

_BIN_MAGIC = b"MXCT"
_BIN_VERSION = 7
_HEADER = struct.Struct("<IIQQ")
_ARRAY = struct.Struct("<IQ")  # byte width and element count of one array


class CountError(ValueError):
    pass


@dataclass
class _OrderData:
    """Arrays for one n-gram order (contexts of length order-1).  Counting and
    a count file give the contexts of every order and the next three arrays
    of the top order alone; ``_derive`` fills in the rest, and the next three
    of each lower order from the order above.  The keys and the tables have
    the store's width; each value array is codes into the table after it
    (``_coded``)."""

    ctx_codes: np.ndarray  # sorted context codes
    type_keys: np.ndarray | None = None  # sorted rank * B + word
    type_counts: np.ndarray | None = None  # codes into count_table
    count_table: np.ndarray | None = None  # the distinct counts, strictly increasing from 1
    stats: np.ndarray | None = None  # n_ctx + 1 codes: the last, rank -1's, of a zero row
    stat_table: np.ndarray | None = None  # distinct (total, n1, n2, n3p) rows
    # continuation counts of the same types, aligned with type_keys, and their
    # stats (absent at the top order)
    cont_type_counts: np.ndarray | None = None
    cont_count_table: np.ndarray | None = None
    cont_stats: np.ndarray | None = None
    cont_stat_table: np.ndarray | None = None


@dataclass
class _FoldData:
    """Per-order fold tags and fold cells (module docstring): a value without
    the fold is 0 where its tag names the fold, the full value where it
    names another, and the full value less its cell where it is F.  The
    tables have the store's width, the tags the unsigned width of F, and
    each cell array is codes into its table (``_coded_cells``)."""

    type_tags: np.ndarray  # per type: the one fold it occurs in, or F for two or more
    type_cells: np.ndarray  # per type row and fold: the type's occurrences inside the fold
    count_table: np.ndarray
    stat_tags: np.ndarray  # per context likewise, then 0 for the all-zero rank -1 row
    stat_cells: np.ndarray  # per context row and fold: codes into (m, 4) rows as in the stats
    delta_table: np.ndarray
    # continuation cells in the same rows: a continuation count loses one for
    # each left extension that occurs only inside the fold
    cont_type_cells: np.ndarray | None = None
    cont_count_table: np.ndarray | None = None
    cont_stat_cells: np.ndarray | None = None
    cont_delta_table: np.ndarray | None = None


_NO_FOLDS = _FoldData(*[None] * 6)  # the fold arrays of a table without folds


class CountTable:
    """Immutable n-gram count store for orders 1..N."""

    def __init__(self, order: int, vocab_size: int, orders: list[_OrderData],
                 token_count: int, vocab_fingerprint: str):
        self.order = order
        self.vocab_size = vocab_size
        self.base = vocab_size + 1
        self.orders = orders  # index 0 unused; orders[n] for order n
        self.token_count = token_count
        self.vocab_fingerprint = vocab_fingerprint

    def view(self) -> "CountView":
        return CountView(self)

    def count_of_counts(self, order: int, continuation: bool = False) -> tuple[int, int, int, int]:
        """Global (n1, n2, n3, n4) over type counts at one order, from the
        number of types that take each table entry."""
        kind = self.view()._kind(order, continuation)
        per_entry = np.bincount(kind.counts, minlength=len(kind.count_table))
        return tuple(int(per_entry[kind.count_table == k].sum()) for k in range(1, 5))

    # -- serialization ---------------------------------------------------

    def save(self, path: str) -> None:
        fp = self.vocab_fingerprint.encode("ascii")
        parts = [_HEADER.pack(_BIN_VERSION, self.order, self.vocab_size, self.token_count),
                 struct.pack("<I", len(fp)), fp]
        top = self.orders[-1]
        for arr in [od.ctx_codes for od in self.orders[1:]] + [
                top.type_keys, top.type_counts, top.count_table]:
            parts += [_ARRAY.pack(arr.itemsize, arr.size),
                      np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes()]
        body = b"".join(parts)
        with open(path, "wb") as fh:
            fh.writelines((_BIN_MAGIC, body, struct.pack("<I", zlib.crc32(body))))

    @classmethod
    def load(cls, path: str) -> "CountTable":
        with open(path, "rb") as fh:
            data = memoryview(fh.read())
        end = len(data) - 4  # the checksum follows the last array
        pos = 4

        def read(size: int) -> memoryview:
            nonlocal pos
            if pos + size > end:
                raise CountError("count-table file is truncated")
            pos += size
            return data[pos - size:pos]

        def read_arr(sign: str) -> np.ndarray:
            """One array as a writable copy at its file's width, "u" or "i"."""
            width, size = _ARRAY.unpack(read(_ARRAY.size))
            if width not in (1, 2, 4, 8):
                raise CountError(f"unsupported count-table width {width}")
            return np.frombuffer(read(size * width), f"<{sign}{width}").astype(f"{sign}{width}")

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

        orders = [None] + [_OrderData(read_arr("i")) for _ in range(order - 1)]
        orders.append(_OrderData(read_arr("i"), read_arr("i"), read_arr("u"), read_arr("i")))
        if len(orders[-1].type_keys) != len(orders[-1].type_counts):
            raise CountError(f"order-{order} arrays disagree in length")
        if pos != end:
            raise CountError("trailing bytes after the last array")
        del data  # the arrays are copies: free the file's bytes before deriving
        _check_arrays(orders, vocab_size + 1, token_count)
        _derive(orders, vocab_size + 1)
        return cls(order, int(vocab_size), orders, int(token_count), fingerprint)


def _check_arrays(orders: list, base: int, token_count: int) -> None:
    """Reject loaded arrays at other widths than a build gives them, keys out
    of order, naming no context or the bos id J as a word, or leaving a
    context unnamed, an order 1 with any context but the empty one, and
    top-order counts that are not codes of every entry of a table strictly
    increasing from 1 or miss the token count: binary searches and
    ``_derive`` trust them, and every lower order that ``_derive`` fills in
    from them passes the same checks.  A build names every context: each
    order-n context is the suffix of an order-(n+1) one, and each top-order
    context has a successor, so the groups ``keys // B`` of every key array
    run from 0 to the last context they index without a gap."""
    top, n_top = orders[-1], len(orders) - 1
    table, codes = top.count_table, top.type_counts
    width = _width(len(top.ctx_codes), base, token_count).itemsize
    got = [a.itemsize for a in [od.ctx_codes for od in orders[1:]] + [top.type_keys, codes, table]]
    want = [width] * (n_top + 1) + [_code_type(len(table)).itemsize, width]
    if got != want:
        raise CountError(f"arrays have widths {got}, not {want}")
    if orders[1].ctx_codes.tolist() != [0]:
        raise CountError("order-1 keys must be the empty context alone")
    # each key array with its order and the number of groups its keys // B name
    keyed = [(n, orders[n].ctx_codes, len(orders[n - 1].ctx_codes)) for n in range(2, n_top + 1)]
    for n, keys, n_groups in keyed + [(n_top, top.type_keys, len(top.ctx_codes))]:
        if len(keys) and not (keys[0] >= 0 and keys[-1] // base < n_groups
                              and (keys[1:] > keys[:-1]).all()):
            raise CountError(f"order-{n} keys are out of order or range")
        groups = keys // base
        if not (len(keys) and groups[0] == 0 and groups[-1] == n_groups - 1
                and (np.diff(groups) <= 1).all()):
            raise CountError(f"order-{n} keys leave a context unnamed")
    if not (top.type_keys % base < base - 1).all():
        raise CountError(f"order-{n_top} keys name the bos id as a word")
    uses = np.bincount(codes, minlength=len(table))
    if not (len(uses) == len(table) and uses.all() and (np.diff(table, prepend=0) > 0).all()
            and uses @ table == token_count):
        raise CountError(f"order-{n_top} counts are not codes of each entry of a table "
                         "increasing from 1, or miss the token count")


# -- accumulation ---------------------------------------------------------


def _width(top_contexts: int, base: int, token_count: int, folds: int = 1) -> np.dtype:
    """int32 when a table's bounds (module docstring) stay below 2**31, else int64."""
    return np.dtype(np.int32 if max(top_contexts * base, token_count * folds) < 2**31
                    else np.int64)


def _code_type(n: int) -> np.dtype:
    """The narrowest unsigned type of the codes into a table of ``n`` entries."""
    return np.min_scalar_type(max(n - 1, 0))


def _heads(keys: np.ndarray) -> np.ndarray:
    """True at the first of each run of equal keys in sorted ``keys``."""
    heads = np.empty(len(keys), dtype=bool)
    heads[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=heads[1:])
    return heads


def _runs(keys: np.ndarray):
    """(sorted, order, heads) of non-negative integer keys: ``sorted`` is
    ``keys[order]`` and ``heads`` is its ``_heads``.  The keys are packed as
    int64 ``key << b | position`` and sorted once, in place, the low b bits
    then giving the order and the rest the sorted keys, at int64; keys past
    63 - b bits take an ``argsort``."""
    m, top = len(keys), int(keys.max()) if len(keys) else 0
    b = (m - 1).bit_length()
    if top.bit_length() + b > 63:
        order = np.argsort(keys)
        packed = keys[order]
    else:
        packed = keys.astype(np.int64)
        packed <<= b
        packed |= np.arange(m)
        packed.sort()
        order = packed & ((1 << b) - 1)
        packed >>= b
    return packed, order, _heads(packed)


def _unique(keys: np.ndarray):
    """``np.unique(keys, return_inverse=True)`` of non-negative integer keys
    without its argsort: keys up to 4 times their number are looked up in a
    table of the ones present; larger ones are sorted by ``_runs``, and the
    inverse is scattered through its order."""
    m, top = len(keys), int(keys.max()) if len(keys) else 0
    if top <= 4 * m:
        seen = np.zeros(top + 1, dtype=bool)
        seen[keys] = True
        return np.flatnonzero(seen).astype(keys.dtype), np.take(np.cumsum(seen) - 1, keys)
    key, order, heads = _runs(keys)
    return key[heads].astype(keys.dtype), _inverse(order, heads)


def _inverse(order: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Each key's run index among the sorted keys, from the ``order`` and
    ``heads`` of ``_runs``."""
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(heads) - 1
    return inverse


def _coded(values: np.ndarray, width: np.dtype):
    """(codes, table) of a value array: its sorted distinct values, or rows
    when 2-D, at ``width``, and each entry's index among them in the
    narrowest unsigned type.  Rows are packed into one key for ``_unique``,
    each column reduced alone (a 2-D reduction is slower) and less its
    minimum when that is negative; ``np.unique`` takes rows past 63 bits."""
    cols = values.T if values.ndim == 2 else values[None]
    los = [min(int(c.min()), 0) if c.size else 0 for c in cols]
    bits = [(int(c.max()) - lo).bit_length() if c.size else 0 for c, lo in zip(cols, los)]
    if sum(bits) > 63:
        table, inverse = np.unique(values, axis=0, return_inverse=True)
    else:  # a non-negative column goes in as it is: 1-D counts are their own keys
        key = np.subtract(cols[0], los[0], dtype=np.int64) if los[0] else cols[0]
        for c, lo, b in zip(cols[1:], los[1:], bits[1:]):
            key = np.left_shift(key, b, dtype=np.int64)
            key |= np.subtract(c, lo, dtype=np.int64) if lo else c
        key, inverse = _unique(key)
        table = np.empty((len(key), len(cols)), dtype=width)
        for j in reversed(range(len(cols))):  # the last column sits in the low bits
            table[:, j] = (key & ((1 << bits[j]) - 1)) + los[j]
            key >>= bits[j]
    codes = inverse.reshape(-1).astype(_code_type(len(table)))
    return codes, table.astype(width, copy=False).reshape(-1, *values.shape[1:])


def _coded_cells(at: np.ndarray, size: int, values: np.ndarray, width: np.dtype):
    """``_coded`` of ``size`` fold cells that hold ``values`` (counts, or rows
    of stat deltas) at ``at`` and 0 elsewhere: the values are coded after a
    0 (a zero row), which sorts first, as no count is negative and a row of
    deltas with a zero total is zero throughout, so code 0 reads it."""
    zero = np.zeros((1, *values.shape[1:]), dtype=values.dtype)
    codes, table = _coded(np.concatenate([zero, values]), width)
    out = np.zeros(size, dtype=codes.dtype)
    out[at] = codes[1:]
    return out, table


def _tally(groups: np.ndarray, counts: np.ndarray, n_groups: int,
           drop: np.ndarray | None = None) -> np.ndarray:
    """(n_groups, 4) stats of the counts in each group: total, n1, n2, n3p,
    tallied as intp whatever the counts' own width, so no total wraps, and
    laid out column by column, which ``_coded`` reads; given each count's
    ``drop``, what dropping it takes from them instead.  The levels take one
    ``bincount`` over (min(count, 3), group) cells, less one over the counts
    left, and the totals (or drops) overwrite the level-0 column."""
    out = np.bincount(np.minimum(counts, 3).astype(np.intp) * n_groups + groups,
                      minlength=4 * n_groups)
    if drop is not None:
        out -= np.bincount(np.minimum(counts - drop, 3).astype(np.intp) * n_groups + groups,
                           minlength=4 * n_groups)
    out = out.reshape(4, n_groups)
    out[0] = np.bincount(groups, weights=counts if drop is None else drop, minlength=n_groups)
    return out.T


def _derive(orders: list, base: int) -> list:
    """Fill in every order below the top from the order above, and every
    order's stats, reading the contexts of every order and the top order's
    types; counting and loading both end here.  With full bos padding each
    order-n type is the suffix of an order-(n+1) type (module docstring), so
    one sort of the order-(n+1) types' suffix keys (``_runs``) gives each
    order-n type as a run: its key, its raw count (the integer
    ``np.add.reduceat`` of its left extensions' counts, exact at any size)
    and its continuation count (the run's length).  Returns, at index n + 1,
    that sort's order and ``_heads``, which mark the first of each run.
    Values are tallied as intp (the counts at the store's width) and coded
    last, their tables at the keys' width."""
    width, runs = orders[1].ctx_codes.dtype, [None] * len(orders)
    counts = np.take(orders[-1].count_table, orders[-1].type_counts)
    groups, words = np.divmod(orders[-1].type_keys, base)  # each type's context rank and word
    for n in range(len(orders) - 1, 0, -1):
        od = orders[n]
        od.stats, od.stat_table = _coded(_tally(groups, counts, len(od.ctx_codes) + 1), width)
        if n > 1:
            lo = orders[n - 1]
            # each type's suffix type: its context's suffix rank, then its word
            keys, order, heads = _runs(np.take(od.ctx_codes, groups) // base * base + words)
            starts = np.flatnonzero(heads)
            runs[n] = order, heads
            lo.type_keys = keys[starts].astype(width)
            counts = np.add.reduceat(np.take(counts, order), starts)
            extensions = np.diff(starts, append=len(keys))
            groups, words = np.divmod(lo.type_keys, base)
            lo.type_counts, lo.count_table = _coded(counts, width)
            lo.cont_type_counts, lo.cont_count_table = _coded(extensions, width)
            lo.cont_stats, lo.cont_stat_table = _coded(
                _tally(groups, extensions, len(lo.ctx_codes) + 1), width)
    return runs


def _cell_rows(tags: np.ndarray, n_folds: int, width: np.dtype) -> np.ndarray:
    """Each id's row of fold cells, at ``width``: the r-th id tagged F (from 1)
    owns row r, and every other id reads the all-zero row 0.  Row times F
    plus a fold stays below (T / 2 + 1) * F, within the store's bounds."""
    multi = tags == n_folds
    rows = np.cumsum(multi, dtype=width)
    rows *= multi
    return rows


def _fold_cells(ids: np.ndarray, folds: np.ndarray, size: int, n_folds: int, width: np.dtype):
    """(tags, cells, mask, n_cells) of ids 0..size-1 from their (id, fold)
    pairs sorted by id: one unsigned tag per id, the fold of an id found in
    one fold only, ``n_folds`` for one found in two or more (two of its pairs
    side by side differ in fold) and 0 for one in no pair; the cell
    ``row * F + fold`` of each pair of a tag-F id, those pairs' mask, and
    the number of cells, row 0's among them."""
    tags = np.zeros(size, dtype=np.min_scalar_type(n_folds))
    tags[ids] = folds
    tags[ids[1:][(folds[1:] != folds[:-1]) & (ids[1:] == ids[:-1])]] = n_folds
    rows = _cell_rows(tags, n_folds, width)
    at = np.take(rows, ids)
    mask = at > 0
    at *= n_folds
    at += folds
    return tags, at[mask], mask, (int(rows.max(initial=0)) + 1) * n_folds


def _corpus_stream(corpus: EncodedCorpus, order: int):
    """Concatenate bos-padded sentences; return stream, target indices, sentence ids."""
    sents = corpus.sentences
    sent_of = np.repeat(np.arange(len(sents), dtype=np.int64), [len(x) for x in sents])
    targets = np.arange(len(sent_of), dtype=np.int64) + (order - 1) * (sent_of + 1)
    stream = np.full(len(sent_of) + (order - 1) * len(sents), corpus.vocab.bos_id, dtype=np.int64)
    if sents:
        stream[targets] = np.concatenate(sents)
    return stream, targets, sent_of


def _ngrams(stream: np.ndarray, targets: np.ndarray, order: int, base: int,
            fold: np.ndarray | None):
    """Count every position's n-gram by one sort (module docstring): the
    contexts of every order as int64 codes, from order 1's empty one, the top
    order's type keys and counts, and given each position's fold, each
    position's type index and its fold, aligned.  A position's ``order``
    symbols, its most recent context symbol first and its word last, are
    one int64 key when their bits fit in 63, else one key of the last of
    the stages that rank the leading symbols; the contexts of k symbols are
    where the first k symbols change among the sorted types, read from the
    keys of the stage that holds symbol k."""
    bits, lo, symbols, stages = (base - 1).bit_length(), order - 1, (*range(1, order), 0), []
    # an int64 key's room for symbols, less the position bits of ``_runs``
    # when they do not all fit
    room = 63 if order * bits <= 63 else 63 - (len(targets) - 1).bit_length()
    end = min(max(room // bits, 1), order)
    # the key of each stream position from ``lo`` on, shifted in from slices
    # of the stream; each symbol goes in below the ones before it
    key = np.zeros(len(stream) - lo, dtype=np.int64)
    for d in symbols[:end]:
        key <<= bits
        key |= stream[lo - d:len(stream) - d]
    key = np.take(key, targets - lo)
    # the leading symbols that leave no room for the rest are replaced by
    # their rank among the distinct ones, then packed on with the next
    # symbols (one at least), until the key holds them all; each stage keeps
    # the number of symbols it ends at and its distinct keys, which the ranks
    # index
    while end < order:
        distinct, key = _unique(key)
        stages.append((end, distinct))
        key = key.astype(np.int64, copy=False)
        take = max((room - int(key.max()).bit_length()) // bits, 1)
        for d in symbols[end:end + take]:
            key <<= bits
            key |= np.take(stream, targets - d)
        end = min(end + take, order)
    if fold is None:
        key = np.sort(key)
        heads = _heads(key)
    else:
        key, perm, heads = _runs(key)
        fold = np.take(fold, perm)
    starts = np.flatnonzero(heads)
    counts = np.diff(starts, append=len(key))
    pairs = None if fold is None else (np.cumsum(heads) - 1, fold)
    # each type's key at every stage, from the rank in the high bits of
    # the stage after it
    types = np.take(key, starts)
    levels = [(order, types)]
    for end, distinct in reversed(stages):
        after, keys = levels[0]
        levels.insert(0, (end, np.take(distinct, keys >> bits * (after - end))))
    # the contexts of k + 1 symbols are where the first k change; and where
    # they change, they change at every longer prefix too, so each order's
    # suffix ranks count the heads below it
    above, contexts, done = np.zeros(len(counts), dtype=bool), [np.zeros(1, dtype=np.int64)], 0
    above[0] = True
    for end, keys in levels:
        step = keys[1:] ^ keys[:-1]  # zero in the bits of every symbol two types share
        for k in range(done + 1, min(end, order - 1) + 1):
            shift = bits * (end - k)  # where symbol k sits in this stage's keys
            heads = np.ones(len(counts), dtype=bool)
            heads[1:] = step >= 1 << shift
            at = np.flatnonzero(heads)
            contexts.append((np.cumsum(above[at]) - 1) * base
                            + ((np.take(keys, at) >> shift) & ((1 << bits) - 1)))
            above = heads
        done = end
    return contexts, (np.cumsum(above) - 1) * base + (types & ((1 << bits) - 1)), counts, pairs


def accumulate(corpus: EncodedCorpus, order: int) -> CountTable:
    """Count all n-grams of orders 1..order with full bos padding."""
    return _build(corpus, order, folds=None)[0]


def _build(corpus: EncodedCorpus, order: int, folds: int | None):
    try:
        order, folds = operator.index(order), None if folds is None else operator.index(folds)
    except TypeError:
        raise CountError(f"order and folds must be integers, not {order!r}, {folds!r}") from None
    if order < 1:
        raise CountError("order must be >= 1")
    stream, targets, sent_of = _corpus_stream(corpus, order)
    if len(targets) == 0:
        raise CountError("empty corpus")
    if folds is not None and not 2 <= folds <= len(corpus.sentences):
        raise CountError(f"folds must lie in 2..{len(corpus.sentences)}, the sentence count")
    base, T, F = corpus.vocab.size + 1, len(targets), folds or 1
    contexts, keys, counts, pairs = _ngrams(stream, targets, order, base,
                                            None if folds is None else sent_of % folds)
    del stream, targets, sent_of
    width = _width(len(contexts[-1]), base, T, F)
    orders = [None] + [_OrderData(ctx.astype(width, copy=False)) for ctx in contexts[:-1]] + [
        _OrderData(contexts[-1].astype(width, copy=False), keys.astype(width, copy=False),
                   *_coded(counts, width))]
    if folds is not None:  # the top order's (type, fold) pairs and their counts
        keys, counts = np.unique((pairs[0] * folds + pairs[1]).astype(width), return_counts=True)
    del contexts, pairs  # the top order is counted
    runs = _derive(orders, base)
    table = CountTable(order, corpus.vocab.size, orders, T, corpus.vocab.fingerprint)
    if folds is None:
        return table, None

    fold_assignment = np.arange(len(corpus.sentences), dtype=width) % folds
    # the values are computed at the store's width and only then coded; each
    # lower order's pairs come from the order above's through ``_derive``'s runs
    fold_data: list = [None] * (order + 1)
    lost = None  # per pair: the left extensions found in its fold alone
    for n in range(order, 0, -1):
        od = orders[n]
        counts = counts.astype(width)
        # the pairs come sorted by type, and so by context; only the pairs
        # of tag-F types and contexts have cells, where the types' values
        # are put and the stat deltas tallied
        ids, fold = np.divmod(keys, folds)
        type_tags, at, multi, size = _fold_cells(ids, fold, len(od.type_keys), folds, width)
        stat_tags, into, kept, n_cells = _fold_cells(
            np.take(od.type_keys, ids) // base, fold, len(od.ctx_codes) + 1, folds, width)
        # the stat cells' pairs are tallied by the distinct cells among them
        ti, (distinct, inv) = ids[kept], _unique(into)
        fd = fold_data[n] = _FoldData(
            type_tags, *_coded_cells(at, size, counts[multi], width), stat_tags,
            *_coded_cells(distinct, n_cells, _tally(inv, od.count_table[od.type_counts[ti]],
                                                    len(distinct), counts[kept]), width))
        if lost is not None:
            fd.cont_type_cells, fd.cont_count_table = _coded_cells(at, size, lost[multi], width)
            fd.cont_stat_cells, fd.cont_delta_table = _coded_cells(distinct, n_cells, _tally(
                inv, od.cont_count_table[od.cont_type_counts[ti]], len(distinct), lost[kept]),
                width)
        if n > 1:
            # each pair's suffix pair sums its occurrences (as ``_derive``
            # sums counts), and a type found in one fold is a left extension
            # that leaving that fold out takes from its suffix type; each
            # type's suffix type comes from runs[n], the last one left
            keys, up = _unique((_inverse(*runs.pop())[ids] * folds + fold).astype(width))
            counts = np.bincount(up, counts, len(keys))
            lost = np.bincount(up[~multi], minlength=len(keys)).astype(width)

    folded = FoldedCounts(table, folds, fold_assignment, fold_data)
    return table, folded


def cv_fold_counts(corpus: EncodedCorpus, order: int, folds: int = 10) -> "FoldedCounts":
    """Accumulate counts with the fold deltas that let bulk calls leave a
    position's fold out (sentence i -> fold i % folds)."""
    if folds is None:  # which ``_build`` reads as no folds
        raise CountError("folds must be an integer, not None")
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


def _leave_out(out: np.ndarray, tags: np.ndarray, at: np.ndarray, folds: np.ndarray,
               n_folds: int, cells: np.ndarray, table: np.ndarray) -> None:
    """``out`` less each position's fold, in place (a whole row when 2-D):
    zeroed where its tag names the fold, then less the table entry of cell
    ``row * F + fold``, from the rows that ``at`` holds and gives up.
    Zeroing by a product is faster than a masked write or ``np.where``."""
    row = (slice(None),) if out.ndim == 1 else (slice(None), None)
    out *= (tags != folds)[row]
    at *= n_folds
    at += folds
    out -= np.take(table, np.take(cells, at), axis=0)


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
    """One kind of statistics at one order, with its fold cells if any; the
    continuation kind reads the raw kind's keys, fold tags and the cell rows
    the view derives from them (``_cell_rows``).  Each value array is codes
    with their table; a scalar read takes a code from a memoryview and its
    value from the table decoded once: the counts when the kind is built,
    the stats by the first scalar stats read (``_stat_values``)."""

    keys: np.ndarray
    index: memoryview  # the keys again, for scalar lookups
    type_tags: np.ndarray | None
    type_rows: np.ndarray | None
    stat_tags: np.ndarray | None
    ctx_rows: np.ndarray | None
    counts: np.ndarray
    count_table: np.ndarray
    count_codes: memoryview
    count_values: list[int]
    stats: np.ndarray
    stat_table: np.ndarray
    stat_codes: memoryview
    stat_values: list[ContextStats]  # empty until ``_stat_values`` fills it
    type_cells: np.ndarray | None
    type_cell_table: np.ndarray | None
    stat_cells: np.ndarray | None
    stat_cell_table: np.ndarray | None

    def rank(self, rank: int) -> int:
        """``rank`` as an int if it names a context or is -1 (unobserved); else raise."""
        try:
            rank = operator.index(rank)
        except TypeError:
            raise CountError(f"rank {rank!r} must be an integer") from None
        if not -1 <= rank < len(self.stats) - 1:
            raise CountError(f"rank {rank} outside -1..{len(self.stats) - 2}")
        return rank

    def ranks(self, ranks: np.ndarray) -> np.ndarray:
        """``ranks`` if each names a context or is -1; else raise."""
        n_ctx = len(self.stats) - 1
        if len(ranks) and not (ranks.min() >= -1 and ranks.max() < n_ctx):
            raise CountError(f"ranks must lie in -1..{n_ctx - 1}")
        return ranks


def _stat_values(kind: _Kind) -> list[ContextStats]:
    """A kind's stats table as ``ContextStats``, filled in by the first scalar
    read: building them costs more than a bulk-only view ever reads."""
    kind.stat_values.extend(map(ContextStats._make, kind.stat_table.tolist()))
    return kind.stat_values


class CountView:
    """Query interface over a table.  Scalar calls read the full table; bulk
    calls take ranks, words and folds as 1-D integer arrays (or lists) of one
    length, and given per-position ``folds`` leave each position's fold out,
    which needs the fold data of a ``FoldedCounts``.

    A view keeps the ``_Kind`` of each (order, continuation) it reads, with
    the rows of fold cells it derives for it, and the latest rank chain
    (module docstring); a new view starts empty."""

    fold = None  # always None: bench/spans._mode reads it on every traced bulk call

    def __init__(self, table: CountTable, folded: FoldedCounts | None = None):
        self.table = table
        self.folded = folded
        self._latest = ((), (0,))  # the latest context resolved and its rank chain
        self._kinds: dict[tuple[int, bool], _Kind] = {}
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
            od, c = self.table.orders[order], "cont_" if continuation else ""
            fd = self.folded.fold_data[order] if self.folded is not None else _NO_FOLDS
            if continuation and od.cont_type_counts is None:
                raise CountError(f"no continuation counts at order {order}")
            # the continuation kind: the raw kind's keys, tags and rows with
            # the cont_ values
            if continuation:
                shared = self._kind(order, False)[:6]
            else:
                rows = [None if tags is None else
                        _cell_rows(tags, self.folded.n_folds, od.type_keys.dtype)
                        for tags in (fd.type_tags, fd.stat_tags)]
                shared = (od.type_keys, memoryview(od.type_keys), fd.type_tags, rows[0],
                          fd.stat_tags, rows[1])
            counts, count_table, stats, stat_table = (
                getattr(od, c + a) for a in ("type_counts", "count_table", "stats", "stat_table"))
            kind = _Kind(*shared, counts, count_table, memoryview(counts), count_table.tolist(),
                         stats, stat_table, memoryview(stats), [],
                         *(getattr(fd, c + a) for a in ("type_cells", "count_table",
                                                        "stat_cells", "delta_table")))
            self._kinds[order, continuation] = kind
        return kind

    # -- context resolution ------------------------------------------------

    def rank_chain(self, context: tuple[int, ...]) -> tuple[int, ...]:
        """Ranks of the length-0..len(context) suffixes of ``context``, as a
        tuple of ints.

        Entry k is the rank of the last k symbols as an order-(k+1) context,
        or -1 when that context never occurs in the full table: the key a
        longer context builds from rank -1 is negative and finds no context.
        The view keeps only the latest chain: a suffix of the latest context
        reads a prefix of it, and any other context is resolved from the root.
        Every symbol of a resolved context must be a word id or the bos id J;
        ids go through ``operator.index`` only when the kept chain misses.
        """
        context = tuple(context)
        last, chain = self._latest
        k = len(context)
        if context == last[len(last) - k:]:  # a suffix of the latest: never too long
            return chain[:k + 1]
        if k >= self.table.order:
            raise CountError("context longer than order - 1")
        try:
            context = tuple(map(operator.index, context))
        except TypeError:
            raise CountError(f"context ids must be integers, not {context}") from None
        base = self.table.base
        if min(context) < 0 or max(context) >= base:  # never empty here
            raise CountError(f"context ids must lie in 0..{base - 1}")
        chain = (0,)
        for i in range(1, k + 1):
            chain += (_index(self._contexts[i], chain[-1] * base + context[k - i]),)
        self._latest = (context, chain)
        return chain

    # -- scalar queries ------------------------------------------------------

    def stats(self, order: int, rank: int) -> ContextStats:
        kind = self._kind(order, False)
        return (kind.stat_values or _stat_values(kind))[kind.stat_codes[kind.rank(rank)]]

    def cont_stats(self, order: int, rank: int) -> ContextStats:
        kind = self._kind(order, True)
        return (kind.stat_values or _stat_values(kind))[kind.stat_codes[kind.rank(rank)]]

    def _count(self, order: int, rank: int, word: int, continuation: bool) -> int:
        kind = self._kind(order, continuation)
        try:
            rank, word = operator.index(rank), operator.index(word)
        except TypeError:
            raise CountError(f"rank {rank!r} and word {word!r} must be integers") from None
        if not 0 <= word < self.table.vocab_size:
            raise CountError(f"word {word} outside 0..{self.table.vocab_size - 1}")
        i = _index(kind.index, rank * self.table.base + word)
        if i >= 0:  # a key names a context: only a miss can hide a bad rank
            return kind.count_values[kind.count_codes[i]]
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
        base, rank = self.table.base, kind.rank(rank)
        lo = bisect.bisect_left(kind.index, rank * base)
        hi = bisect.bisect_left(kind.index, (rank + 1) * base, lo)
        return kind.keys[lo:hi] % base, kind.count_table[kind.counts[lo:hi]]

    # -- bulk queries ----------------------------------------------------

    def bulk_ranks(self, corpus: EncodedCorpus):
        """Per-position context ranks for all orders (PositionIndex arrays).

        Returns (ranks[T, order] int64 with -1 for unseen contexts, words[T],
        sentence index[T]).  Rank columns follow ascending order 1..N.  A
        corpus whose vocabulary fingerprint is not the table's raises.
        """
        table = self.table
        if corpus.vocab.fingerprint != table.vocab_fingerprint:
            raise CountError("vocabulary does not match the count table's")
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
        out = np.take(kind.count_table, np.take(kind.counts, idx))  # the store's width
        out *= hit
        if folds is not None:
            rows = np.take(kind.type_rows, idx)
            rows *= hit  # a miss reads row 0: its 0 is kept or zeroed alike
            _leave_out(out, np.take(kind.type_tags, idx), rows, folds, self.folded.n_folds,
                       kind.type_cells, kind.type_cell_table)
        return out

    def bulk_stats(self, order: int, ranks: np.ndarray,
                   folds: np.ndarray | None = None, continuation: bool = False):
        """Vectorized per-context stats as a ``ContextStats`` of arrays; rank -1
        yields zeros, and any other rank outside the contexts raises.  With
        ``folds``, each position's stats are read from its context's tag and
        cell row, with no search (module docstring)."""
        kind = self._kind(order, continuation)
        ranks = kind.ranks(_integers("rank", ranks))
        folds = self._folds(folds, len(ranks))
        s = np.take(kind.stat_table, np.take(kind.stats, ranks), axis=0)  # the store's width
        if folds is not None:
            _leave_out(s, np.take(kind.stat_tags, ranks), np.take(kind.ctx_rows, ranks), folds,
                       self.folded.n_folds, kind.stat_cells, kind.stat_cell_table)
        return ContextStats._make(s.T)
