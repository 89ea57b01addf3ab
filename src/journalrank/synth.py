"""Canonical demo fixtures and seeded random instance generators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CitationMatrix, FieldPartition, Journal, JournalSet
from .errors import GenerationFailed

# Reference scores for the bundled two-field example (first coverage
# scenario), used by the demo command and golden-file tests.
TWO_FIELD_EXPECTED_IPP = (5.500, 5.500, 0.055, 0.055, 5.500, 5.500, 0.055, 0.055)
TWO_FIELD_EXPECTED_AF = (44.000, 44.000, 0.440, 0.440, 44.000, 44.000, 0.440, 0.440)
# Same instance with the last journal missing from the database.
TWO_FIELD_DROP8_EXPECTED_IPP = (5.513, 5.513, 0.055, 0.055, 5.490, 5.490, 0.055)
TWO_FIELD_DROP8_EXPECTED_AF = (42.938, 42.938, 0.429, 0.429, 34.063, 34.063, 0.341)
NEAR_DECOMPOSABLE_EXPECTED_DELTA = 0.003


def two_field_example() -> tuple[JournalSet, CitationMatrix]:
    """Eight journals in two symmetric fields, each publishing 100 articles
    per period.

    Journals 1, 2, 5, 6 are frequently cited, journals 3, 4, 7, 8 rarely.
    Fields {1..4} and {5..8} exchange only a small share of citations, which
    makes the instance the standard playground for coverage and field
    sensitivity checks.
    """
    field1_row = [1000, 1000, 10, 10, 100, 100, 1, 1]
    field2_row = [100, 100, 1, 1, 1000, 1000, 10, 10]
    counts = np.array([field1_row] * 4 + [field2_row] * 4, dtype=float)
    journals = JournalSet(tuple(Journal(f"J{i + 1}", None, 100, 100) for i in range(8)))
    return journals, CitationMatrix(counts)


def two_field_partition() -> FieldPartition:
    """The natural field split of ``two_field_example``: {1..4} vs {5..8}."""
    return FieldPartition((1, 1, 1, 1, 2, 2, 2, 2))


def near_decomposable_example() -> tuple[JournalSet, CitationMatrix, FieldPartition]:
    """Two single-journal fields that almost never cite each other.

    The citation matrix is [[999, 1], [3, 997]] with 100 articles per
    journal and period. Cross-field leakage is at most 0.3% of either
    journal's references, yet the recursive influence scores of the two
    journals differ threefold; the instance shows how sensitive recursive
    scores are on a nearly decomposable matrix.
    """
    journals = JournalSet((Journal("J1", None, 100, 100), Journal("J2", None, 100, 100)))
    counts = np.array([[999.0, 1.0], [3.0, 997.0]])
    return journals, CitationMatrix(counts), FieldPartition((1, 2))


@dataclass(frozen=True)
class BlockModelSpec:
    """Parameters for the two-field random citation generator.

    Per-pair citation counts are Poisson with mean ``within_mean`` inside a
    field and ``cross_mean`` across fields; ``within_mean_2`` optionally
    gives the second field a different self-citation level (asymmetric
    fields shift weight between fields as damping grows). Earlier-period
    article counts vary uniformly around ``articles_t1`` and are mirrored
    between the two fields, so the fields always publish the same article
    total; later-period counts are ``eta`` times the earlier ones. The PRNG
    is numpy's default (PCG64) seeded with ``seed``, so instances are
    reproducible everywhere.
    """

    journals_per_field: int
    within_mean: float = 20.0
    cross_mean: float = 2.0
    articles_t1: int = 100
    eta: float = 1.0
    seed: int = 0
    within_mean_2: float | None = None

    def __post_init__(self):
        for name in ("journals_per_field", "articles_t1"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
        means = (self.within_mean, self.cross_mean, self.within_mean_2, self.eta)
        if not all(np.isfinite(value) for value in means if value is not None):
            raise ValueError("means and eta must be finite")
        if self.journals_per_field < 1:
            raise ValueError("need at least one journal per field")
        if not self.within_mean > self.cross_mean >= 0:
            raise ValueError("need within_mean > cross_mean >= 0")
        if self.within_mean_2 is not None and not self.within_mean_2 > self.cross_mean:
            raise ValueError("need within_mean_2 > cross_mean")
        if self.articles_t1 <= 0:
            raise ValueError("articles_t1 must be positive")
        if self.eta <= 0:
            raise ValueError("eta must be positive")


_MAX_ATTEMPTS = 50
# Rows per Poisson draw in block_model: the draw's int64 block is the only
# memory it holds beside the counts.
_BLOCK_ROWS = 128


def block_model(spec: BlockModelSpec) -> tuple[JournalSet, CitationMatrix, FieldPartition]:
    """Draw a random two-field instance, retrying until it is irreducible.

    With ``cross_mean == 0`` a single bridge citation in each direction is
    forced so the fields stay connected. Raises GenerationFailed when no
    attempt within the retry budget produces an irreducible matrix with all
    journals citing.

    Each attempt draws the article counts, then the citation counts cell by
    cell in row-major order, the order of one ``rng.poisson`` call on the
    full n x n matrix of means, so an instance and the generator state a
    retry continues from depend only on the spec. The counts are drawn
    straight into the float64 matrix a few rows at a time, so an attempt
    holds the counts plus one block of rows, never an n x n matrix of means.
    """
    rng = np.random.default_rng(spec.seed)
    m = spec.journals_per_field
    n = 2 * m
    base = spec.articles_t1
    low = max(1, base // 2)
    high = base + base // 2
    within_2 = spec.within_mean if spec.within_mean_2 is None else spec.within_mean_2

    for _ in range(_MAX_ATTEMPTS):
        field_a1 = rng.integers(low, high + 1, size=m)
        a1 = np.concatenate([field_a1, field_a1])
        a2 = np.rint(spec.eta * a1).astype(int)

        counts = np.empty((n, n))
        for start, within in ((0, spec.within_mean), (m, within_2)):
            mean_row = np.full(n, spec.cross_mean)
            mean_row[start:start + m] = within
            for lo in range(start, start + m, _BLOCK_ROWS):
                hi = min(lo + _BLOCK_ROWS, start + m)
                counts[lo:hi] = rng.poisson(mean_row, size=(hi - lo, n))
        if spec.cross_mean == 0:
            counts[0, m] = max(counts[0, m], 1.0)
            counts[m, 0] = max(counts[m, 0], 1.0)

        # counts is a fresh C-ordered float64 array that nothing else holds,
        # so the matrix takes it over instead of copying it.
        matrix = CitationMatrix._adopt(counts)
        if np.any(matrix.row_sums == 0) or not matrix.irreducible:
            del counts, matrix  # freed before the next attempt allocates its own
            continue
        journals = JournalSet(
            tuple(
                Journal(f"J{i + 1:03d}", None, int(a1[i]), int(a2[i]))
                for i in range(n)
            )
        )
        partition = FieldPartition((1,) * m + (2,) * m)
        return journals, matrix, partition

    raise GenerationFailed(
        f"no irreducible instance after {_MAX_ATTEMPTS} attempts for {spec}"
    )
