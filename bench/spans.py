"""In-memory spans around the library calls the benchmark makes.

``Tracer.install`` replaces functions and methods of mixlm with wrappers that
record (name, parent, start, end) and puts the originals back on
``uninstall``; untraced runs never install anything.  A span's self time is
its duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

from mixlm import corpus as mcorpus
from mixlm import counts as mcounts
from mixlm import mixture as mmixture
from mixlm import smoothing as msmoothing
from mixlm.neural import features as mfeatures
from mixlm.neural import layers as mlayers
from mixlm.neural import optim as moptim
from mixlm.neural import tensor as mtensor

import pipeline


def _mode(args, kwargs, at: int) -> str:
    """"fold" when a bulk call reads leave-one-fold-out statistics."""
    folds = kwargs.get("folds", args[at] if len(args) > at else None)
    return "fold" if folds is not None or args[0].fold is not None else "full"


# (owner, attribute, span name or function of the call's arguments)
_TARGETS = [
    (mcorpus, "build_vocabulary", "corpus.build_vocabulary"),
    (mcorpus, "encode_corpus", "corpus.encode_corpus"),
    (mcounts, "accumulate", "counts.accumulate"),
    (mcounts, "cv_fold_counts", "counts.cv_fold_counts"),
    (mcounts.CountTable, "save", "counts.save"),
    (mcounts.CountTable, "load", "counts.load"),
    (mcounts.CountView, "bulk_ranks", "counts.bulk_ranks"),
    (mcounts.CountView, "bulk_stats", "counts.bulk_stats"),
    (mcounts.CountView, "bulk_counts", "counts.bulk_counts"),
    (mcounts.CountView, "rank_chain", "counts.rank_chain"),
    (mcounts.CountView, "stats", "counts.stats"),
    (mcounts.CountView, "cont_stats", "counts.cont_stats"),
    (mcounts.CountView, "count", "counts.count"),
    (mcounts.CountView, "cont_count", "counts.cont_count"),
    (mcounts.CountView, "successors", "counts.successors"),
    (msmoothing.SmoothingSpec, "kn", "smoothing.discounts"),
    (msmoothing.SmoothingSpec, "ml", "smoothing.discounts"),
    (msmoothing.SmoothingSpec, "column", "smoothing.column"),
    (msmoothing.SmoothingSpec, "fallback", "smoothing.fallback"),
    (msmoothing, "ml_distribution", "smoothing.ml_distribution"),
    (msmoothing, "discounted_distribution", "smoothing.discounted_distribution"),
    (msmoothing, "witten_bell_fallback", "smoothing.witten_bell_fallback"),
    (msmoothing, "heuristic_lambda", "smoothing.heuristic_lambda"),
    (msmoothing, "bulk_column_rows",
     lambda a, k: "smoothing.bulk_column_rows." + _mode(a, k, 4)),
    (mmixture, "context_distributions", "mixture.context_distributions"),
    (mmixture, "word_probability", "mixture.word_probability"),
    (mfeatures, "bulk_context_features",
     lambda a, k: "neural.features." + _mode(a, k, 3)),
    (mlayers.FeedForward, "__call__", "neural.layers.FeedForward"),
    (mlayers.LSTM, "step", "neural.layers.LSTM"),
    (mlayers.OutputLayer, "__call__", "neural.layers.OutputLayer"),
    (mtensor.Tensor, "backward", "neural.backward"),
    (moptim.Adam, "step", "neural.optim.step"),
]

# scalar methods counted per query
SCALAR_COUNTS = ("counts.rank_chain", "counts.stats", "counts.cont_stats", "counts.count",
                 "counts.cont_count", "counts.successors")
SCALAR_SMOOTHING = ("smoothing.column", "smoothing.fallback", "smoothing.ml_distribution",
                    "smoothing.discounted_distribution", "smoothing.witten_bell_fallback",
                    "smoothing.heuristic_lambda")
SCALAR_MIXTURE = ("mixture.context_distributions", "mixture.word_probability")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of: list[int] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self._stack: list[int] = []
        self._saved: list = []
        self.graph_sizes: list[int] = []
        self.ranked = 0  # positions returned by bulk_ranks

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, name)

    def graph(self, loss) -> None:
        self.graph_sizes.append(pipeline.graph_nodes(loss))

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self
        named = callable(name)
        counts_positions = fn.__name__ == "bulk_ranks"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer._open(name(args, kwargs) if named else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if counts_positions:
                tracer.ranked += len(out[1])
            return out

        return traced

    def install(self) -> None:
        for owner, attr, name in _TARGETS:
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, name)))
            else:
                setattr(owner, attr, self._wrap(raw, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- summary ---------------------------------------------------------

    def totals(self):
        """Per span name: (calls, inclusive ns, self ns)."""
        start = np.array(self.start, dtype=np.int64)
        dur = np.array(self.end, dtype=np.int64) - start
        parent = np.array(self.parent, dtype=np.int64)
        names = np.array(self.name_of, dtype=np.int64)
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        calls = defaultdict(int)
        incl = defaultdict(int)
        own = defaultdict(int)
        k = len(self.names)
        for nid, c, i, o in zip(range(k), np.bincount(names, minlength=k),
                                np.bincount(names, weights=dur, minlength=k),
                                np.bincount(names, weights=dur - child, minlength=k)):
            calls[self.names[nid]] = int(c)
            incl[self.names[nid]] = float(i)
            own[self.names[nid]] = float(o)
        return calls, incl, own

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), name=np.array(self.name_of),
                            parent=np.array(self.parent), start_ns=np.array(self.start),
                            end_ns=np.array(self.end))


class _Span:
    __slots__ = ("tracer", "name", "i")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.i = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.i)
        return False
