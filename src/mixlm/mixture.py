"""Combining per-order word distributions with interpolation weights.

A model's belief about the next word is a weighted sum of probability
columns: count-based columns (one per n-gram order) and, optionally, an
implicit identity block in which weight entry N+j is itself the probability
of word j.  The identity block is never stored; its contribution is read
straight out of the weight vector.

Weights live on the simplex.  A column for an unobserved context is masked:
its support is empty, so it adds no mass whatever weight it gets.  The
network's ``OutputLayer`` zeroes the weights of masked columns and
renormalises over the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .smoothing import SmoothingSpec, SparseDistribution

# Interpolation weight vectors are plain float arrays; length is the number
# of count columns, plus the vocabulary size when an identity block is used.
MixtureWeights = np.ndarray


class MixtureError(ValueError):
    pass


@dataclass
class ContextDistributions:
    """The column set available for one context.

    ``columns`` holds the count-based distributions (lowest order first).
    When ``has_identity_block`` is true, weight entries beyond the count
    columns address the identity block: entry N+j adds directly to word j.
    """

    columns: list[SparseDistribution]
    vocab_size: int
    has_identity_block: bool = False

    @property
    def mask(self) -> np.ndarray:
        """Valid (observed-context) count columns: those with support."""
        return np.array([not c.masked for c in self.columns], dtype=bool)

    @property
    def weight_length(self) -> int:
        n = len(self.columns)
        return n + self.vocab_size if self.has_identity_block else n

    def row(self, word: int) -> np.ndarray:
        """Count-column probabilities of one word (the word's matrix row)."""
        return np.array([c.prob_of(word) for c in self.columns])


def context_distributions(view, spec: SmoothingSpec, context,
                          identity: bool = False) -> ContextDistributions:
    """Build the per-order column set for a context (lowest order first)."""
    context = tuple(int(c) for c in context)
    cols = [spec.column(view, context[len(context) - (n - 1):])
            for n in range(1, len(context) + 2)]
    return ContextDistributions(cols, view.vocab_size, has_identity_block=identity)


def _check_weights(dists: ContextDistributions, lam: MixtureWeights) -> None:
    if len(lam) != dists.weight_length:
        raise MixtureError(f"weight vector has length {len(lam)}, "
                           f"expected {dists.weight_length}")


def word_probability(dists: ContextDistributions, lam: MixtureWeights, word: int) -> float:
    """p(word) = sum_k lam_k * column_k[word]; touches only K entries, never J."""
    word = int(word)
    if not 0 <= word < dists.vocab_size:
        raise MixtureError(f"word id {word} outside vocabulary of {dists.vocab_size}")
    _check_weights(dists, lam)
    n = len(dists.columns)
    p = np.dot(lam[:n], dists.row(word))
    if dists.has_identity_block:
        p += lam[n + word]
    return float(p)


def full_distribution(dists: ContextDistributions, lam: MixtureWeights) -> np.ndarray:
    """Dense mixture over the whole vocabulary."""
    _check_weights(dists, lam)
    n = len(dists.columns)
    out = np.zeros(dists.vocab_size)
    for k, col in enumerate(dists.columns):
        out[col.words] += lam[k] * col.probs
    if dists.has_identity_block:
        out += lam[n:]
    return out
