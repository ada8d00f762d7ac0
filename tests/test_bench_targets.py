"""The benchmark's tracer can wrap every library function it names.

``bench/run.py --trace 1`` wraps library functions and methods by name
(``bench/spans.py``); a rename in the library would break it.  This test
installs and removes the wrappers so such a rename fails here instead.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402


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
