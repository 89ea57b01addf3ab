"""Indicator comparison helpers: correlations and top-k rankings."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import core, indicators
from .errors import DegenerateInput

TIE_TOLERANCE = 1e-9
"""Relative gap below which two neighbouring sorted values rank as tied.

Scores of mirror-image journals can differ in the last bits after a solve;
counting them as distinct would make rank correlations depend on rounding.
"""


def _clean_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise DegenerateInput("inputs must be equal-length vectors")
    if x.size < 2:
        raise DegenerateInput("need at least two points")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DegenerateInput("inputs must be finite")
    return x, y


def pearson(x, y) -> float:
    """Product-moment correlation, two-pass (mean-subtracted) formula."""
    x, y = _clean_pair(x, y)
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(dx @ dx)
    sy = float(dy @ dy)
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInput("zero variance input")
    return float((dx @ dy) / np.sqrt(sx * sy))


def average_ranks(values) -> np.ndarray:
    """Ranks starting at 1, ties replaced by the mean of their rank run.

    A run is a stretch of sorted values whose neighbours differ by at most
    TIE_TOLERANCE times the larger of their magnitudes.
    """
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    low, high = ordered[:-1], ordered[1:]
    with np.errstate(invalid="ignore"):
        gap = high - low
    close = np.isfinite(gap) & (gap <= TIE_TOLERANCE * np.maximum(np.abs(low), np.abs(high)))
    new_run = np.ones(values.size, dtype=bool)
    # Equal infinities tie too, though their gap is NaN.
    new_run[1:] = ~(close | (high == low))
    starts = np.flatnonzero(new_run)
    lengths = np.diff(np.append(starts, values.size))
    ranks = np.empty(values.size, dtype=float)
    # A run at zero-based start s of length k holds ranks s + 1 .. s + k.
    ranks[order] = np.repeat(starts + 0.5 * (lengths + 1), lengths)
    return ranks


def spearman(x, y) -> float:
    """Rank correlation: Pearson of average-rank vectors."""
    x, y = _clean_pair(x, y)
    return pearson(average_ranks(x), average_ranks(y))


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Pairwise Pearson and Spearman grids with exact symmetry and unit diagonal."""

    labels: tuple[str, ...]
    pearson: np.ndarray
    spearman: np.ndarray


def correlation_table(vectors: Sequence[indicators.IndicatorVector]) -> CorrelationMatrix:
    """Full correlation grids over a list of indicator vectors."""
    if len(vectors) < 2:
        raise DegenerateInput("need at least two indicator vectors")
    length = vectors[0].n
    if any(v.n != length for v in vectors):
        raise DegenerateInput("indicator vectors must have equal length")
    labels = tuple(v.label() for v in vectors)
    ranks = [average_ranks(v.values) for v in vectors]
    m = len(vectors)
    p = np.eye(m)
    s = np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            p[i, j] = p[j, i] = pearson(vectors[i].values, vectors[j].values)
            s[i, j] = s[j, i] = pearson(ranks[i], ranks[j])
    p.flags.writeable = False
    s.flags.writeable = False
    return CorrelationMatrix(labels, p, s)


def top_k(
    journals: core.JournalSet, indicator: indicators.IndicatorVector, k: int
) -> list[tuple[str, float]]:
    """Best k journals by score, descending; ties broken by id ascending."""
    if indicator.n != journals.n:
        raise ValueError("indicator length must match the journal set")
    if not 0 <= k <= journals.n:
        raise ValueError(f"k must lie in [0, {journals.n}]")
    ids = journals.ids
    order = sorted(range(journals.n), key=lambda i: (-indicator.values[i], ids[i]))
    return [(ids[i], float(indicator.values[i])) for i in order[:k]]
