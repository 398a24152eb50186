"""Euclidean distances that neither underflow nor overflow."""

from __future__ import annotations

import numpy as np

_TINY = np.finfo(np.float64).tiny


def euclidean_norms(diff) -> np.ndarray:
    """Euclidean norm of each row of ``diff`` (shape ``(n, d)`` → ``(n,)``).

    Computed as ``sqrt(sum(diff**2))``, so ordinary inputs get exactly
    that expression's bits.  Rows whose sum of squares is subnormal, zero
    or infinite (components below ~1e-154 or above ~1e154) are recomputed
    in the max-scaled form ``m * sqrt(sum((diff / m)**2))``, with ``m``
    the row's largest magnitude, so tiny gaps stay positive and huge ones
    finite, and distances keep their order, as ``math.dist`` does.
    """
    diff = np.asarray(diff, dtype=np.float64)
    with np.errstate(over="ignore"):  # an infinite row is recomputed below
        sq = (diff**2).sum(axis=1)
    out = np.sqrt(sq)
    bad = (sq < _TINY) | np.isinf(sq)
    if bad.any():
        rows = np.abs(diff[bad])
        m = rows.max(axis=1)
        safe = np.where(m > 0, m, 1.0)
        out[bad] = m * np.sqrt(((rows / safe[:, None]) ** 2).sum(axis=1))
    return out
