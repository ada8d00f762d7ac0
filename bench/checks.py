"""Correctness checks run after every benchmark run, outside timed regions.

Each check raises ``CheckFailed`` naming what differs; ``test_checks.py``
shows that each one fires on a perturbed input.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9


class CheckFailed(Exception):
    pass


def close(what: str, got, want, tol: float = TOL) -> None:
    """Entrywise |got - want| <= tol, shapes equal."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape} != {want.shape}")
    err = np.abs(got - want)
    if not np.all(np.isfinite(got) == np.isfinite(want)) or np.nanmax(err, initial=0.0) > tol:
        i = int(np.nanargmax(np.where(np.isfinite(err), err, np.inf)))
        raise CheckFailed(f"{what}: entry {np.unravel_index(i, got.shape)} is "
                          f"{got.flat[i]!r}, expected {want.flat[i]!r}")


def columns(what: str, got, want, tol: float = TOL) -> None:
    """(probs, alphas, valid) triples agree."""
    if not np.array_equal(got[2], want[2]):
        raise CheckFailed(f"{what}: masked columns differ at "
                          f"{np.argwhere(got[2] != want[2])[:3].tolist()}")
    close(f"{what} probabilities", got[0], want[0], tol)
    close(f"{what} fallbacks", got[1], want[1], tol)


def simplex(what: str, lam: np.ndarray, mask: np.ndarray, tol: float = TOL) -> None:
    """Every row is non-negative, sums to 1 and is 0 where masked."""
    if np.any(lam < 0):
        raise CheckFailed(f"{what}: negative weight")
    worst = float(np.max(np.abs(lam.sum(axis=1) - 1.0), initial=0.0))
    if worst > tol:
        raise CheckFailed(f"{what}: a row sums to 1 {worst:+.3g}")
    if np.any(lam[~mask] != 0):
        raise CheckFailed(f"{what}: weight on a masked column")


def sums_to_one(what: str, dense: np.ndarray, tol: float = TOL) -> None:
    close(what + " total mass", np.asarray(dense).sum(axis=-1),
          np.ones(np.asarray(dense).shape[:-1]), tol)


def beats(what: str, ppl: float, baseline: float) -> None:
    """``ppl`` is finite and strictly below ``baseline``."""
    if not np.isfinite(ppl) or not ppl < baseline:
        raise CheckFailed(f"{what}: {ppl!r} is not below {baseline!r}")


def repeats(what: str, values) -> None:
    """Every value equals the first, bit for bit."""
    first = np.asarray(values[0])
    for v in values[1:]:
        if not np.array_equal(np.asarray(v), first, equal_nan=True):
            raise CheckFailed(f"{what}: a repeat differs from the first")


def tables_equal(a, b) -> None:
    """Two count tables hold the same header and arrays."""
    for attr in ("order", "vocab_size", "token_count", "vocab_fingerprint"):
        if getattr(a, attr) != getattr(b, attr):
            raise CheckFailed(f"loaded table: {attr} differs")
    for n in range(1, a.order + 1):
        for name, arr in vars(a.orders[n]).items():
            other = getattr(b.orders[n], name)
            if (arr is None) != (other is None) or (
                    arr is not None and not np.array_equal(arr, other)):
                raise CheckFailed(f"loaded table: order {n} {name} differs")
