"""Count-derived input features describing a context to the weighting network.

For each order n = 1..N (lowest first) the feature block is:

    [observed in {0,1},  log c(context_n),  log u(context_n)]

plus, for discounted (Kneser-Ney) configurations, the log of the total count
mass surviving discounting (using continuation counts at the orders where the
column does).  Blocks for unobserved contexts are all zero.  Features are
centered by subtracting the training-set mean, which is stored with the
model so evaluation matches training exactly.
"""

from __future__ import annotations

import numpy as np

from ..counts import CountView
from ..smoothing import SmoothingSpec, check_ranks


def feature_width(spec: SmoothingSpec) -> int:
    """Length of the count-feature vector for a full-length context."""
    return spec.order * (4 if spec.family == "kn" else 3)


def bulk_context_features(view: CountView, spec: SmoothingSpec, ranks: np.ndarray,
                          folds: np.ndarray | None = None) -> np.ndarray:
    """Feature rows of T positions, from their context ranks (T, order), one
    block per order as the module describes; with ``folds``, each position's
    fold is left out."""
    check_ranks(ranks, spec)
    out = np.zeros((ranks.shape[0], feature_width(spec)))
    per_block = out.shape[1] // spec.order
    for n in range(1, spec.order + 1):
        r = ranks[:, n - 1]
        s = view.bulk_stats(n, r, folds=folds)
        ok = s.total > 0
        at = (n - 1) * per_block
        # log(1) = 0 fills the masked entries
        out[:, at] = ok
        out[:, at + 1] = np.log(np.where(ok, s.total, 1))
        out[:, at + 2] = np.log(np.where(ok, s.unique, 1))
        cont, d = spec.rule(n)
        if d is not None:
            use = view.bulk_stats(n, r, folds=folds, continuation=True) if cont else s
            kept = use.total - d.mass(use.n1, use.n2, use.n3p)
            good = ok & (use.total > 0) & (kept > 0)
            out[:, at + 3] = np.log(np.where(good, kept, 1.0))
    return out


def normalize_features(features: np.ndarray, training_mean: np.ndarray) -> np.ndarray:
    """Center features with the mean captured on the training set."""
    return features - training_mean
