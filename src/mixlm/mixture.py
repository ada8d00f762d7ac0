"""Combining per-order word distributions with interpolation weights.

A model's belief about the next word is a weighted sum of probability
columns: count-based columns (one per n-gram order) and, optionally, an
implicit identity block in which weight entry N+j is itself the probability
of word j.  The identity block is never stored; its contribution is read
straight out of the weight vector.

Weights live on the simplex.  A column for an unobserved context is masked:
it gives 0 to every word, so it adds no mass whatever weight it gets.  The
network's ``OutputLayer`` zeroes the weights of masked columns and
renormalises over the rest.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .smoothing import Column, SmoothingSpec


class MixtureError(ValueError):
    pass


@dataclass
class ContextDistributions:
    """The column set available for one context.

    ``columns`` holds the count-based distributions (lowest order first).
    When ``has_identity_block`` is true, weight entries beyond the count
    columns address the identity block: entry N+j adds directly to word j.
    """

    columns: list[Column]
    vocab_size: int
    has_identity_block: bool = False

    @property
    def weight_length(self) -> int:
        n = len(self.columns)
        return n + self.vocab_size if self.has_identity_block else n


def context_distributions(view, spec: SmoothingSpec, context,
                          identity: bool = False) -> ContextDistributions:
    """Build the per-order column set for a context (lowest order first).

    One ``rank_chain`` call resolves the context and all its suffixes, then
    each order's stats are read once, of the kind ``spec.rule`` picks for
    it.  Ids must be integers.  The view keeps the chain, so a later
    ``spec.fallback`` of any suffix reads its rank without a lookup.
    """
    try:
        context = tuple(map(operator.index, context))
    except TypeError:
        raise MixtureError(f"context ids must be integers, not {context!r}") from None
    spec._order_of(context)  # a context too long for the spec raises before any lookup
    cols = []
    for n, rank in enumerate(view.rank_chain(context), 1):
        continuation, d = spec.rule(n)
        s = view.cont_stats(n, rank) if continuation else view.stats(n, rank)
        cols.append(Column(view, n, rank, s if s.total > 0 else None, continuation, d))
    return ContextDistributions(cols, view.vocab_size, has_identity_block=identity)


def word_probability(dists: ContextDistributions, lam: np.ndarray, word: int) -> float:
    """p(word) = sum_k lam_k * column_k[word]; touches only K entries, never J."""
    try:
        word = operator.index(word)
    except TypeError:
        raise MixtureError(f"word id must be an integer, not {word!r}") from None
    if not 0 <= word < dists.vocab_size:
        raise MixtureError(f"word id {word} outside vocabulary of {dists.vocab_size}")
    if len(lam) != dists.weight_length:
        raise MixtureError(f"weight vector has length {len(lam)}, "
                           f"expected {dists.weight_length}")
    n = len(dists.columns)
    p = np.dot(lam[:n], np.array([c.prob_of(word) for c in dists.columns]))
    if dists.has_identity_block:
        p += lam[n + word]
    return float(p)


def full_distribution(dists: ContextDistributions, lam: np.ndarray) -> np.ndarray:
    """Dense mixture over the whole vocabulary: ``word_probability`` of
    every word, so it sums the path a scalar query takes."""
    return np.array([word_probability(dists, lam, w) for w in range(dists.vocab_size)])
