"""Indicator comparison helpers: correlations and top-k rankings."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import core, indicators
from .errors import DegenerateInput, quote

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


def _correlations(rows: np.ndarray) -> np.ndarray:
    """Pearson grid of the rows of a finite (m, n) array, n >= 2.

    Each row is divided by its largest magnitude, which leaves its
    correlations unchanged but keeps the squares and products in range for
    values near the overflow or underflow threshold. The centred rows d give
    one Gram product G = d @ d.T and the grid G_ij / sqrt(G_ii G_jj),
    clipped to [-1, 1] against rounding; its upper triangle is mirrored and
    its diagonal set to 1, so the grid is exactly symmetric whatever order
    the product summed in. Raises DegenerateInput for a constant row.
    """
    peak = np.abs(rows).max(axis=1, keepdims=True)
    peak[peak == 0.0] = 1.0  # an all-zero row stays zero and is caught below
    centred = rows / peak
    centred -= centred.mean(axis=1, keepdims=True)
    gram = centred @ centred.T
    square = np.diag(gram)
    if np.any(square == 0.0):
        raise DegenerateInput("zero variance input")
    grid = gram / np.sqrt(np.outer(square, square))
    np.clip(grid, -1.0, 1.0, out=grid)
    upper = np.triu_indices(len(grid), 1)
    grid.T[upper] = grid[upper]
    np.fill_diagonal(grid, 1.0)
    return grid


def pearson(x, y) -> float:
    """Product-moment correlation, two-pass (mean-subtracted) formula: the
    two-row case of the grid that ``correlation_table`` builds, each vector
    scaled by its largest magnitude first."""
    x, y = _clean_pair(x, y)
    return float(_correlations(np.stack([x, y]))[0, 1])


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
    """Full correlation grids over a list of indicator vectors.

    The values, and their ``average_ranks``, are stacked into one array
    each, and each grid comes from one centred Gram product, as in
    ``pearson``: every entry equals the pairwise ``pearson`` or ``spearman``
    call up to the products' summation order. Raises DegenerateInput for
    fewer than two vectors, unequal lengths, fewer than two journals or a
    constant vector.
    """
    if len(vectors) < 2:
        raise DegenerateInput("need at least two indicator vectors")
    length = vectors[0].n
    if any(v.n != length for v in vectors):
        raise DegenerateInput("indicator vectors must have equal length")
    if length < 2:
        raise DegenerateInput("need at least two points")
    labels = tuple(v.label() for v in vectors)
    values = np.stack([v.values for v in vectors])
    ranks = np.stack([average_ranks(row) for row in values])
    p = _correlations(values)
    s = _correlations(ranks)
    p.flags.writeable = False
    s.flags.writeable = False
    return CorrelationMatrix(labels, p, s)


def ranked(ids: Sequence[str], values) -> list[int]:
    """Positions of the values, best first, in the order that ``top_k`` gives."""
    # Python's string order: numpy's fixed-width strings drop trailing NULs,
    # so "J1" and "J1\x00" would compare equal.
    id_rank = np.empty(len(ids), dtype=np.intp)
    id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return np.lexsort((id_rank, -average_ranks(values))).tolist()


def top_k(
    journals: core.JournalSet, indicator: indicators.IndicatorVector, k: int
) -> list[tuple[str, float]]:
    """Best k journals by score, descending, in the one tie rule of every
    ranking (``ranked``): scores within TIE_TOLERANCE tie, as in the rank
    correlations, and tied journals go by id ascending, then by position.

    Raises TypeError unless ``k`` is an integer (bool is not one), and
    ValueError unless 0 <= k <= n.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise TypeError(f"k must be an integer, got {type(k).__name__} {quote(str(k))}")
    if indicator.n != journals.n:
        raise ValueError("indicator length must match the journal set")
    if not 0 <= k <= journals.n:
        raise ValueError(f"k must lie in [0, {journals.n}]")
    ids, values = journals.ids, indicator.values
    return [(ids[i], float(values[i])) for i in ranked(ids, values)[:k]]
