"""Correlation statistics used by the reliability audit; fsum_rows, the
one exact row sum that the composite and the simulation's defenses use;
and normalize_batch, the one min-max routine.

pearson and spearman return None (undefined) when either input has zero
variance; callers decide how to report that. Results snap to exactly +/-1.0
for perfectly collinear inputs, which also serves as the [-1, 1] clamp.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from mdqs.errors import LengthMismatch, TooFewSamples


def fsum_rows(terms: np.ndarray) -> list[float]:
    """Each row's exact sum, rounded once (math.fsum); a row holding NaN
    sums to NaN. numpy's products are the IEEE products Python forms, so a
    row of products sums to the scalar path's bits."""
    return [math.fsum(row) for row in terms.tolist()]


def _paired_arrays(x: Sequence[float], y: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    ax = np.asarray(x, dtype=np.float64)
    ay = np.asarray(y, dtype=np.float64)
    if ax.ndim != 1 or ay.ndim != 1:
        raise ValueError("inputs must be one-dimensional")
    if ax.shape[0] != ay.shape[0]:
        raise LengthMismatch(ax.shape[0], ay.shape[0])
    if ax.shape[0] < 2:
        raise TooFewSamples(f"need at least 2 paired values, got {ax.shape[0]}")
    if not (np.isfinite(ax).all() and np.isfinite(ay).all()):
        raise ValueError("inputs must be finite")
    return ax, ay


def _centred(a: np.ndarray) -> np.ndarray:
    """`a` minus its mean, after scaling by the power of two that brings it
    under 1 in magnitude, so a huge finite input cannot overflow a sum or a
    square. Short of underflow the scaling is exact: the correlation keeps
    its bits."""
    a = np.ldexp(a, -int(np.frexp(np.abs(a).max())[1]))
    return a - a.mean()


def pearson(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Product-moment correlation, or None if either side is constant.

    Its sums are BLAS dot products. BLAS splits one longer than 10,000
    elements across its threads, so above 10,000 pairs the last bits of
    the result follow the thread count: the `mdqs` CLI runs with one
    OpenBLAS thread unless OPENBLAS_NUM_THREADS says otherwise.
    """
    ax, ay = _paired_arrays(x, y)
    dx = _centred(ax)
    dy = _centred(ay)
    var_x = float(np.dot(dx, dx))
    var_y = float(np.dot(dy, dy))
    if var_x == 0.0 or var_y == 0.0:
        return None
    cov = float(np.dot(dx, dy))
    prod = var_x * var_y
    if cov * cov >= prod:
        return math.copysign(1.0, cov)
    return cov / math.sqrt(prod)


def average_ranks(x: Sequence[float]) -> np.ndarray:
    """1-based ranks with ties averaged (fractional ranks).

    A stable argsort, then one averaged rank per run of equal sorted values:
    the group at sorted positions start..end gets (start + end + 2) / 2. This
    is the "average" method of scipy.stats.rankdata.
    """
    ax = np.asarray(x, dtype=np.float64)
    order = np.argsort(ax, kind="stable")
    ordered = ax[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], ax.shape[0]) - 1
    ranks = np.empty(ax.shape[0], dtype=np.float64)
    ranks[order] = np.repeat((starts + ends + 2) / 2.0, ends - starts + 1)
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Rank correlation: pearson over fractional ranks."""
    ax, ay = _paired_arrays(x, y)
    return pearson(average_ranks(ax), average_ranks(ay))


def rank_normalize(x: Sequence[float]) -> np.ndarray:
    """Map values onto [0, 1] by empirical CDF position, ties averaged.

    A monotone transform: preserves Spearman correlations exactly.
    """
    ax = np.asarray(x, dtype=np.float64)
    n = ax.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.float64)
    if n == 1:
        return np.array([0.5])
    return (average_ranks(ax) - 1.0) / (n - 1.0)


def normalize_batch(
    values: Sequence[float], stats: tuple[float, float] | None = None
) -> list[float]:
    """Min-max normalize one column over its own range, or over frozen
    stats=(min, max) with anything outside clipped to [0, 1]. A zero range
    maps everything to 0.5; a frozen min above its max is a ValueError."""
    vals = [float(v) for v in values]
    if not vals:
        return []
    if any(not math.isfinite(v) for v in vals):
        raise ValueError("cannot normalize non-finite values")
    lo, hi = (min(vals), max(vals)) if stats is None else stats
    if lo > hi:
        raise ValueError(f"frozen stats need min <= max, got {stats!r}")
    if hi == lo:
        return [0.5] * len(vals)
    # on halves, so a range wider than the largest float cannot overflow;
    # halving is exact short of underflow, so the results keep their bits
    lo, span = lo / 2, hi / 2 - lo / 2
    scores = [(v / 2 - lo) / span for v in vals]
    # only frozen stats clip, so a batch column keeps its exact bits, -0.0 too
    return scores if stats is None else [min(1.0, max(0.0, z)) for z in scores]
