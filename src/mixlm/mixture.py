"""Combining per-order word distributions with interpolation weights.

A model's belief about the next word is a weighted sum of probability
columns: count-based columns (one per n-gram order) and, optionally, an
implicit identity block in which weight entry N+j is itself the probability
of word j.  The identity block is never stored; its contribution is read
straight out of the weight vector.

Weights live on the simplex.  Columns for unobserved contexts are masked and
must carry zero weight; ``mask_and_renormalize`` rescales a proposed weight
vector onto the valid columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    ``mask`` flags valid (observed-context) count columns.
    """

    columns: list[SparseDistribution]
    vocab_size: int
    has_identity_block: bool = False
    mask: np.ndarray = None
    context: tuple = ()  # for diagnostics only

    def __post_init__(self):
        if self.mask is None:
            self.mask = np.array([not c.masked for c in self.columns])
        if len(self.mask) != len(self.columns):
            raise MixtureError("mask length must match column count")

    @property
    def n_count_columns(self) -> int:
        return len(self.columns)

    @property
    def weight_length(self) -> int:
        n = len(self.columns)
        return n + self.vocab_size if self.has_identity_block else n

    def full_mask(self) -> np.ndarray:
        """Validity bits over the whole weight vector (identity always valid)."""
        if not self.has_identity_block:
            return self.mask.copy()
        return np.concatenate([self.mask, np.ones(self.vocab_size, dtype=bool)])

    def row(self, word: int) -> np.ndarray:
        """Count-column probabilities of one word (the word's matrix row)."""
        return np.array([c.prob_of(word) for c in self.columns])


def context_distributions(view, spec: SmoothingSpec, context,
                          identity: bool = False) -> ContextDistributions:
    """Build the per-order column set for a context (lowest order first)."""
    context = tuple(int(c) for c in context)
    cols = [spec.column(view, context[len(context) - (n - 1):])
            for n in range(1, len(context) + 2)]
    return ContextDistributions(cols, view.vocab_size,
                                has_identity_block=identity, context=context)


def _check_word(dists: ContextDistributions, word: int) -> int:
    word = int(word)
    if not 0 <= word < dists.vocab_size:
        raise MixtureError(f"word id {word} outside vocabulary of {dists.vocab_size}")
    return word


def word_probability(dists: ContextDistributions, lam: MixtureWeights, word: int) -> float:
    """p(word) = sum_k lam_k * column_k[word]; touches only K entries, never J."""
    word = _check_word(dists, word)
    if len(lam) != dists.weight_length:
        raise MixtureError(f"weight vector has length {len(lam)}, "
                           f"expected {dists.weight_length}")
    n = dists.n_count_columns
    p = 0.0
    for k, col in enumerate(dists.columns):
        if dists.mask[k] and lam[k] != 0.0:
            p += lam[k] * col.prob_of(word)
    if dists.has_identity_block:
        p += lam[n + word]
    return float(p)


def full_distribution(dists: ContextDistributions, lam: MixtureWeights) -> np.ndarray:
    """Dense mixture over the whole vocabulary."""
    if len(lam) != dists.weight_length:
        raise MixtureError(f"weight vector has length {len(lam)}, "
                           f"expected {dists.weight_length}")
    n = dists.n_count_columns
    out = np.zeros(dists.vocab_size)
    for k, col in enumerate(dists.columns):
        if dists.mask[k] and lam[k] != 0.0 and not col.masked:
            out[col.words] += lam[k] * col.probs
    if dists.has_identity_block:
        out += lam[n:]
    return out


def nll_and_lambda_gradient(dists: ContextDistributions, lam: MixtureWeights,
                            word: int):
    """Negative log-likelihood of one word and its gradient in the weights.

    d(-log p)/d lam_k = -column_k[word] / p; for the identity block the only
    nonzero entry is -1/p at the word's own position.  A zero probability is
    reported as an error (it means every weighted column missed the word,
    which cannot happen when the unigram column or identity entry has mass).
    """
    word = _check_word(dists, word)
    n = dists.n_count_columns
    row = dists.row(word) * dists.mask
    p = float(np.dot(lam[:n], row))
    if dists.has_identity_block:
        p += lam[n + word]
    if p <= 0.0:
        raise MixtureError(
            f"zero probability event: word {word} under context {dists.context}")
    grad = np.zeros(dists.weight_length)
    grad[:n] = -row / p
    if dists.has_identity_block:
        grad[n + word] = -1.0 / p
    return -np.log(p), grad


def mask_and_renormalize(lam_raw: np.ndarray, mask: np.ndarray) -> MixtureWeights:
    """Zero the weights of invalid columns and rescale the rest to sum to 1."""
    lam_raw = np.asarray(lam_raw, dtype=np.float64)
    if len(lam_raw) != len(mask):
        raise MixtureError("mask length must match weight length")
    kept = np.where(mask, lam_raw, 0.0)
    total = kept.sum()
    if total <= 0.0:
        raise MixtureError("no weight left after masking invalid columns")
    return kept / total

