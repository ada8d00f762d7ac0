"""The benchmark's tracer can wrap every library function it names.

``bench/run.py --trace 1`` wraps library functions and methods by name
(``bench/spans.py``); a rename in the library would break it.  These tests
install and remove the wrappers so such a rename fails here instead, and
check through them which count-layer calls a scalar query makes.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import pipeline  # noqa: E402
import spans  # noqa: E402
from mixlm.counts import accumulate  # noqa: E402
from mixlm.smoothing import SmoothingSpec  # noqa: E402

from helpers import toy_corpus  # noqa: E402


def test_tracer_installs_and_uninstalls():
    originals = [owner.__dict__[attr] for owner, attr, _ in spans._TARGETS]
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert all(owner.__dict__[attr] is not raw
                   for (owner, attr, _), raw in zip(spans._TARGETS, originals))
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is raw
               for (owner, attr, _), raw in zip(spans._TARGETS, originals))


def test_scalar_query_reads_one_count_per_observed_column():
    """p(w | h) reads one count per observed column and lists no successors."""
    corpus = toy_corpus()  # a b a / a c
    table = accumulate(corpus, 3)
    a, b, c = (corpus.vocab.id_of(w) for w in "abc")
    # (a, b), (b,) and () are observed; (c, b) is not, so its column is masked
    for context, observed in (((a, b), 3), ((c, b), 2)):
        for spec in (SmoothingSpec.ml(3), SmoothingSpec.kn(table, 3)):
            tracer = spans.Tracer()
            tracer.install()
            try:
                pipeline.scalar_query(table.view(), spec, context, a)
            finally:
                tracer.uninstall()
            calls = tracer.totals()[0]
            assert calls["counts.successors"] == 0, spec.family
            assert calls["counts.count"] + calls["counts.cont_count"] == observed, spec.family
