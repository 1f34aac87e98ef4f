"""Correlation statistics used by the reliability audit.

pearson and spearman return None (undefined) when either input has zero
variance; callers decide how to report that. Results snap to exactly +/-1.0
for perfectly collinear inputs, which also serves as the [-1, 1] clamp.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from mdqs.errors import LengthMismatch, TooFewSamples


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


def pearson(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Product-moment correlation, or None if either side is constant."""
    ax, ay = _paired_arrays(x, y)
    dx = ax - ax.mean()
    dy = ay - ay.mean()
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
