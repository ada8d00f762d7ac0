"""Dict-based recount of the corpus, independent of ``counts`` and ``smoothing``.

Only the contexts the checks ask about are tallied, so memory stays small.
Column formulas follow the definitions: ML is c(ctx, w)/c(ctx) with the
Witten-Bell fallback u/(c+u); KN discounts each successor's count (the
number of distinct left extensions below the top order) by the count-level
discount and renormalizes the kept mass.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

MIN_KEEP = 1e-12  # same limit as the library: below it a column is uniform


def positions(sentences, bos: int, order: int) -> tuple[list, list]:
    """(context tuple of length order-1, word) at every target of the sentences."""
    contexts, words = [], []
    for sent in sentences:
        padded = (bos,) * (order - 1) + tuple(int(x) for x in sent)
        for i in range(order - 1, len(padded)):
            contexts.append(padded[i - order + 1:i])
            words.append(padded[i])
    return contexts, words


class Recount:
    """Raw and continuation counts of the needed contexts, optionally
    leaving out the sentences of one fold (sentence i sits in fold i % folds)."""

    def __init__(self, sentences, bos: int, order: int, contexts, skip_fold=None, folds=None):
        self.order = order
        needed = [set() for _ in range(order + 1)]
        for ctx in contexts:
            for n in range(1, order + 1):
                needed[n].add(tuple(ctx[len(ctx) - (n - 1):]) if n > 1 else ())
        self.raw = [defaultdict(Counter) for _ in range(order + 1)]
        self.left = [defaultdict(lambda: defaultdict(set)) for _ in range(order + 1)]
        for si, sent in enumerate(sentences):
            if skip_fold is not None and si % folds == skip_fold:
                continue
            padded = (bos,) * (order - 1) + tuple(int(x) for x in sent)
            for i in range(order - 1, len(padded)):
                w = padded[i]
                for n in range(1, order + 1):
                    ctx = padded[i - n + 1:i]
                    if ctx in needed[n]:
                        self.raw[n][ctx][w] += 1
                        if n < order:
                            self.left[n][ctx][w].add(padded[i - n])

    def successors(self, n: int, ctx: tuple, continuation: bool) -> dict:
        if continuation:
            return {w: len(v) for w, v in self.left[n].get(ctx, {}).items()}
        return dict(self.raw[n].get(ctx, {}))


def discounts(sentences, bos: int, order: int) -> list:
    """Modified-KN discounts (d1, d2, d3+) of every order, index 0 unused.

    Counts-of-counts run over the whole text: raw n-gram counts at the top
    order, continuation counts (distinct left extensions, read off the
    distinct (n+1)-grams) below it.  Y = n1/(n1 + 2 n2) and
    d_k = k - (k+1) Y n_(k+1)/n_k, clamped to [0, k] (Y when n_k is 0)."""
    raw = [Counter() for _ in range(order + 1)]
    for sent in sentences:
        padded = (bos,) * (order - 1) + tuple(int(x) for x in sent)
        for i in range(order - 1, len(padded)):
            for n in range(1, order + 1):
                raw[n][padded[i - n + 1:i + 1]] += 1
    out: list = [None]
    for n in range(1, order + 1):
        counts = raw[n] if n == order else Counter(g[1:] for g in raw[n + 1])
        cc = Counter(c for c in counts.values() if c <= 4)
        if cc[1] == 0:
            out.append((0.0, 0.0, 0.0))
            continue
        y = cc[1] / (cc[1] + 2.0 * cc[2])
        out.append(tuple(min(max(k - (k + 1.0) * y * cc[k + 1] / cc[k], 0.0), float(k))
                         if cc[k] else y for k in (1, 2, 3)))
    return out


def _discount(c: int, d) -> float:
    if c >= 3:
        return d[2]
    return (0.0, d[0], d[1])[c]


def columns(rc: Recount, family: str, order: int, discounts, contexts, words):
    """(probs, alphas, valid), each (T, order), for context/word pairs.

    ``discounts[n]`` is the (d1, d2, d3+) triple of order n (KN only)."""
    T = len(words)
    probs = np.zeros((T, order))
    alphas = np.ones((T, order))
    valid = np.zeros((T, order), dtype=bool)
    memo: dict = {}
    for t, (ctx, w) in enumerate(zip(contexts, words)):
        for n in range(1, order + 1):
            sub = tuple(ctx[len(ctx) - (n - 1):])
            if (n, sub) not in memo:
                succ = rc.successors(n, sub, family == "kn" and n < order)
                total = sum(succ.values())
                removed = 0.0
                if family == "kn" and total:
                    removed = sum(_discount(x, discounts[n]) for x in succ.values())
                memo[n, sub] = succ, total, removed
            succ, total, removed = memo[n, sub]
            if total == 0:
                continue
            valid[t, n - 1] = True
            c = succ.get(w, 0)
            u = len(succ)
            if family == "ml":
                probs[t, n - 1] = c / total
                alphas[t, n - 1] = u / (total + u)
            elif 1.0 - removed / total <= MIN_KEEP:
                probs[t, n - 1] = (c > 0) / u
            else:
                probs[t, n - 1] = (c - _discount(c, discounts[n])) / (total - removed)
                alphas[t, n - 1] = min(max(removed / total, 0.0), 1.0)
    return probs, alphas, valid


def interpolate(probs: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Heuristic interpolation: order n keeps (1 - alpha_n) of what reaches it."""
    T, N = probs.shape
    out = np.zeros(T)
    passed = np.ones(T)
    for n in range(N, 1, -1):
        out += (1.0 - alphas[:, n - 1]) * passed * probs[:, n - 1]
        passed = passed * alphas[:, n - 1]
    return out + passed * probs[:, 0]
