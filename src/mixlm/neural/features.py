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
from ..smoothing import SmoothingSpec


def feature_width(spec: SmoothingSpec) -> int:
    """Length of the count-feature vector for a full-length context."""
    return spec.order * (4 if spec.family == "kn" else 3)


def context_features(view: CountView, context, spec: SmoothingSpec) -> np.ndarray:
    """Feature vector for one context (orders 1..len(context)+1 concatenated)."""
    chain = view.rank_chain(context)
    ranks = np.full((1, spec.order), -1, dtype=np.int64)
    ranks[0, :len(chain)] = chain
    width = len(chain) * feature_width(spec) // spec.order
    return bulk_context_features(view, spec, ranks)[0, :width]


def bulk_context_features(view: CountView, spec: SmoothingSpec, ranks: np.ndarray,
                          folds: np.ndarray | None = None) -> np.ndarray:
    """Vectorized ``context_features`` over positions; ranks is (T, order)."""
    out = np.zeros((ranks.shape[0], feature_width(spec)))
    per_block = out.shape[1] // spec.order
    for n in range(1, spec.order + 1):
        r = ranks[:, n - 1]
        s = view.bulk_stats(n, r, folds=folds)
        ok = s.total > 0
        at = (n - 1) * per_block
        out[ok, at] = 1.0
        out[ok, at + 1] = np.log(s.total[ok])
        out[ok, at + 2] = np.log(s.unique[ok])
        if spec.family == "kn":
            if spec.uses_continuation(n):
                use = view.bulk_stats(n, r, folds=folds, continuation=True)
            else:
                use = s
            kept = use.total - spec.discounts[n].mass(use.n1, use.n2, use.n3p)
            good = ok & (use.total > 0) & (kept > 0)
            out[good, at + 3] = np.log(kept[good])
    return out


def normalize_features(features: np.ndarray, training_mean: np.ndarray) -> np.ndarray:
    """Center features with the mean captured on the training set."""
    return features - training_mean
