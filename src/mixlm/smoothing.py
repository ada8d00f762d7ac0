"""Per-order word distributions and heuristic interpolation coefficients.

Each n-gram order contributes one probability distribution over the
vocabulary ("column") for a given context, and a fallback mass alpha that a
heuristic interpolation passes to lower orders.  ``column_terms`` computes
both, on scalars and arrays alike: maximum-likelihood columns divide raw
counts by the context total (Witten-Bell alpha); discounted columns subtract
a count-level discount and renormalize (alpha is the removed mass).
``SmoothingSpec.rule`` picks per order: Kneser-Ney discounts continuation
counts (distinct left extensions) below the top order.

A column is a lazy view of one context in the count store: ``prob_of``
reads one count per word, and the whole support is listed only when asked.
Columns for unobserved contexts are "masked": all-zero, flagged invalid, and
paired with a zero interpolation weight, so they never contribute mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .counts import ContextStats, CountTable, CountView

# below this surviving mass, a discounted column degenerates to the d->max
# limit (uniform over observed successors) instead of dividing by ~0
_MIN_KEEP = 1e-12


@dataclass(frozen=True)
class Discounts:
    """Count-level absolute discounts (counts of 1, 2, 3 or more), each in [0, level]."""

    d1: float
    d2: float
    d3p: float

    def __post_init__(self):
        if not (0.0 <= self.d1 <= 1.0 and 0.0 <= self.d2 <= 2.0 and 0.0 <= self.d3p <= 3.0):
            raise ValueError(f"discounts {self.as_tuple()} outside 0 <= d(c) <= c")
        object.__setattr__(self, "_levels", np.array([0.0, self.d1, self.d2, self.d3p]))

    def applied(self, counts: np.ndarray) -> np.ndarray:
        """Discount subtracted from each non-negative count (0 for zero counts)."""
        return self._levels[np.minimum(counts, 3)]

    def mass(self, n1, n2, n3p) -> float | np.ndarray:
        """Total subtracted mass for a context with the given count-of-counts."""
        return self.d1 * n1 + self.d2 * n2 + self.d3p * n3p

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.d1, self.d2, self.d3p)


def discounts_from_count_of_counts(n1: int, n2: int, n3: int, n4: int) -> Discounts:
    """Closed-form modified-KN discounts from global count-of-counts.

    Y = n1/(n1+2*n2); each count level gets its own discount (d1 = 1-2Y*n2/n1,
    d2 = 2-3Y*n3/n2, d3+ = 3-4Y*n4/n3; Chen & Goodman 1999), clamped to
    [0, level] and falling back to Y when its denominator is empty.  With no
    singletons at all, discounting is disabled.
    """
    if n1 == 0:
        return Discounts(0.0, 0.0, 0.0)
    y = n1 / (n1 + 2.0 * n2)

    def level(i: int, num: int, den: int) -> float:
        d = i - (i + 1.0) * y * num / den if den > 0 else y
        return float(min(max(d, 0.0), float(i)))

    return Discounts(level(1, n2, n1), level(2, n3, n2), level(3, n4, n3))


def column_terms(d: Discounts | None, total, stats: ContextStats, counts=None):
    """(p, alpha) of observed contexts (total > 0), on scalars or arrays.

    p (None without counts) is c/total for ML and c - d(c) over the kept mass
    with discounts; alpha is u/(total+u) (Witten-Bell) for ML and the removed
    mass fraction with discounts.  When discounting removes all the mass, p
    is uniform over observed successors and alpha is 1.
    """
    if d is None:
        u = stats.unique
        return (None if counts is None else counts / total), u / (total + u)
    removed = d.mass(stats.n1, stats.n2, stats.n3p) / total
    keep_total = 1.0 - removed
    degenerate = keep_total <= _MIN_KEEP
    alpha = np.where(degenerate, 1.0, removed)
    if counts is None:
        return None, alpha
    kept = counts - d.applied(counts)
    p = np.where(degenerate, (counts > 0) / stats.unique,
                 kept / (total * np.maximum(keep_total, _MIN_KEEP)))
    return p, alpha


@dataclass
class Column:
    """One context's column: ``prob_of`` reads one count and applies
    ``column_terms``, as ``bulk_column_rows`` does; ``words`` and ``probs``
    list the support from ``successors``.  It reads the full table: only
    ``bulk_column_rows`` leaves a fold out, per position.
    A masked column has no stats and gives 0; every other one sums to 1."""

    view: CountView
    order: int
    rank: int
    stats: ContextStats | None
    continuation: bool = False
    discounts: Discounts | None = None

    def _probs(self, counts):
        return column_terms(self.discounts, float(self.stats.total), self.stats, counts)[0]

    def prob_of(self, word: int) -> float:
        if self.stats is None:
            return 0.0
        count = self.view.cont_count if self.continuation else self.view.count
        return float(self._probs(count(self.order, self.rank, word)))

    @cached_property
    def _support(self) -> tuple[np.ndarray, np.ndarray]:
        if self.stats is None:
            return np.zeros(0, dtype=np.int64), np.zeros(0)
        words, counts = self.view.successors(self.order, self.rank, self.continuation)
        return words, self._probs(counts)

    words = property(lambda self: self._support[0])
    probs = property(lambda self: self._support[1])


def _observed(view: CountView, context, continuation: bool = False):
    """(order, rank, stats) of a context; stats is None when its column is masked."""
    order = len(context) + 1
    rank = int(view.rank_chain(context)[len(context)])
    if rank < 0:
        return order, rank, None
    s = view.cont_stats(order, rank) if continuation else view.stats(order, rank)
    return order, rank, s if s.total > 0 else None


def ml_distribution(view: CountView, context) -> Column:
    """Relative-frequency estimate c(context,w)/c(context); masked if unseen."""
    return Column(view, *_observed(view, context))


def discounted_distribution(view: CountView, context, d: Discounts,
                            continuation: bool = False) -> Column:
    """Normalized absolute-discounted distribution (``column_terms``); masked
    for an unobserved context."""
    return Column(view, *_observed(view, context, continuation), continuation, d)


@dataclass(frozen=True)
class SmoothingSpec:
    """Which column family to build per order, with frozen discounts.

    Without discounts the family is "ml" (relative frequencies, Witten-Bell
    fallback); with them it is "kn" (discounted counts, continuation counts
    below the top order).  Discounts are stored per order so that estimates
    never drift between training and evaluation: ``kn`` estimates
    modified-KN discounts on a table, and the constructor takes explicit
    ``Discounts``.
    """

    order: int
    discounts: tuple | None = None  # index by order; [0] unused

    def __post_init__(self):
        if not (isinstance(self.order, int) and self.order >= 1):
            raise ValueError(f"smoothing order must be an int >= 1, not {self.order!r}")
        if self.discounts is not None and len(self.discounts) != self.order + 1:
            raise ValueError("kn smoothing needs one discount entry per order")

    @property
    def family(self) -> str:
        return "ml" if self.discounts is None else "kn"

    @classmethod
    def ml(cls, order: int) -> "SmoothingSpec":
        return cls(order)

    @classmethod
    def kn(cls, table: CountTable, order: int) -> "SmoothingSpec":
        """Modified-KN discounts per order, estimated on a count table."""
        ds = [discounts_from_count_of_counts(*table.count_of_counts(n, n < order))
              for n in range(1, order + 1)]
        return cls(order, (None, *ds))

    def rule(self, order: int) -> tuple[bool, Discounts | None]:
        """(continuation counts?, discounts or None for ML) of one order's column."""
        if self.discounts is None:
            return False, None
        return order < self.order, self.discounts[order]

    def _order_of(self, context) -> int:
        """The order of a context's column, at most the spec's order."""
        order = len(context) + 1
        if order > self.order:
            raise ValueError("context longer than the smoothing order supports")
        return order

    def column(self, view: CountView, context) -> Column:
        """The column of one context, as ``rule`` picks it for its order."""
        continuation, d = self.rule(self._order_of(context))
        if d is None:
            return ml_distribution(view, context)
        return discounted_distribution(view, context, d, continuation)

    def fallback(self, view: CountView, context) -> float:
        """Interpolation coefficient toward lower orders for this context."""
        continuation, d = self.rule(self._order_of(context))
        if d is None:
            return witten_bell_fallback(view, context)
        return _alpha(view, context, continuation, d)

    def to_dict(self) -> dict:
        out = {"order": self.order}
        if self.discounts is not None:
            out["discounts"] = [None] + [list(d.as_tuple()) for d in self.discounts[1:]]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SmoothingSpec":
        """The spec ``to_dict`` wrote; ``ValueError`` for a missing, unknown
        or malformed field."""
        try:
            ds = data.get("discounts")
            if data.keys() - {"discounts"} == {"order"} and (ds is None or ds[0] is None):
                return cls(data["order"], ds and (None, *(Discounts(*d) for d in ds[1:])))
        except (AttributeError, IndexError, TypeError):
            pass
        raise ValueError(f"not a smoothing spec: {data!r}")


def _alpha(view: CountView, context, continuation: bool, d: Discounts | None) -> float:
    """Fallback mass of one context's column; 1 for a masked column."""
    s = _observed(view, context, continuation)[2]
    return 1.0 if s is None else float(column_terms(d, float(s.total), s)[1])


def witten_bell_fallback(view: CountView, context) -> float:
    """Witten-Bell fallback of one context; 1 for a masked column."""
    return _alpha(view, context, False, None)


def heuristic_lambda(alphas) -> np.ndarray:
    """Turn per-order fallback coefficients into mixture weights.

    ``alphas`` lists the fallback mass at orders N..2 (highest first).  The
    weight of order n is the mass kept at n times the mass passed down by
    every higher order; the unigram keeps whatever reaches it.  Output is
    ordered lowest order first and sums to 1.
    """
    lam = []
    passed = 1.0
    for alpha in map(float, alphas):  # orders N, N-1, ..., 2
        if alpha < 0.0 or alpha > 1.0:
            raise ValueError("fallback coefficients must lie in [0, 1]")
        lam.append((1.0 - alpha) * passed)
        passed *= alpha
    lam.append(passed)  # unigram never falls back
    return np.array(lam[::-1])


# -- vectorized evaluation over corpus positions ---------------------------


def bulk_column_rows(view: CountView, spec: SmoothingSpec, ranks: np.ndarray,
                     words: np.ndarray, folds: np.ndarray | None = None):
    """Per-position probabilities and fallbacks for every order at once.

    For T positions, returns (probs, alphas, valid), each of shape (T, order):
    probs[t, n-1] is column n's probability of the target word at position t,
    alphas[t, n-1] the fallback coefficient of context t at order n, and
    valid[t, n-1] False exactly when that context is unobserved (masked
    column, alpha forced to 1).  Agrees with the scalar builders entrywise.
    """
    shape = (len(words), spec.order)
    probs = np.zeros(shape)
    alphas = np.ones(shape)
    valid = np.zeros(shape, dtype=bool)
    for n in range(1, spec.order + 1):
        r = ranks[:, n - 1]
        cont, d = spec.rule(n)
        stats = view.bulk_stats(n, r, folds=folds, continuation=cont)
        ok = stats.total > 0
        valid[:, n - 1] = ok
        total = np.where(ok, stats.total, 1).astype(np.float64)
        counts = view.bulk_counts(n, r, words, folds=folds, continuation=cont)
        with np.errstate(divide="ignore", invalid="ignore"):
            p, a = column_terms(d, total, stats, counts)
        probs[:, n - 1] = np.where(ok, p, 0.0)
        alphas[:, n - 1] = np.where(ok, a, 1.0)
    return probs, alphas, valid
