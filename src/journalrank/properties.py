"""Field-insensitivity and coverage-sensitivity analysis.

Two stability notions for per-article indicators, which provably cannot
hold together:

* field insensitivity: with two fields that leak at most a fraction delta
  of their citations to each other, each field's article-weighted mean
  score stays within (1 +/- delta) of the overall mean;
* insignificant-journal insensitivity: removing a rarely cited journal
  barely moves the surviving journals' scores.

The audience factor has the first property (when later-period article
counts are proportional to earlier-period ones) and the recursive
per-article influence has the second; the damping parameter of the
stationary family trades one off against the other. The field split,
``FieldPartition``, is part of the data model in ``core``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, indicators, spectral
from .core import FieldPartition
from .errors import NotIrreducible, PreconditionViolated, ZeroArticles, ZeroArticlesT2, ZeroOutgoing, quote

_BOUND_SLACK = 1e-12
_ETA_TOLERANCE = 1e-12
# An endpoint check passes when its ratios spread by less than this.
_ENDPOINT_SPREAD = 1e-9


@dataclass(frozen=True)
class FieldInsensitivityReport:
    """Outcome of the two-field mean-score comparison.

    delta is the tight leakage bound; bounds_hold says, per field, whether
    the article-weighted field mean stays within (1 +/- delta) of the
    overall mean. eta is the constant later/earlier article ratio when one
    exists, else None. balanced records the equal-field-size assumption;
    when False the bounds are still reported but are informational only.
    """

    delta: float
    field_means: tuple[float, float]
    overall_mean: float
    bounds_hold: tuple[bool, bool]
    balanced: bool
    eta: float | None


@dataclass(frozen=True, eq=False)
class LeaveOneOutReport:
    """Indicator values before/after removing one journal, aligned on survivors.

    relative_change is NaN where the before value is zero; those positions
    are listed in zero_before and excluded from max_relative_change.
    """

    dropped: int
    before: np.ndarray
    after: np.ndarray
    relative_change: np.ndarray
    max_relative_change: float
    zero_before: tuple[int, ...]


@dataclass(frozen=True)
class ProportionalityReport:
    """Spread of the per-journal ratio between two indicator vectors."""

    ratio_min: float
    ratio_max: float
    spread: float
    passed: bool

    @property
    def constant(self) -> float:
        return 0.5 * (self.ratio_min + self.ratio_max)


def min_delta(matrix: core.CitationMatrix, partition: FieldPartition) -> float:
    """Smallest leakage fraction delta compatible with the partition.

    delta is the largest share of any journal's outgoing citations that
    leaves its own field. Zero means block-diagonal citation traffic.
    Runs ``core.require_citing`` on the matrix.
    """
    if partition.n != matrix.n:
        raise ValueError("partition length must match the matrix")
    sums = core.require_citing(matrix)
    rows, cols, values = matrix.nonzeros
    labels = np.array(partition.field_of)
    own = np.bincount(rows, weights=np.where(labels[rows] == labels[cols], values, 0.0), minlength=matrix.n)
    cross = sums - own
    return float(np.max(cross / sums))


def _weighted_mean(values: np.ndarray, weights: np.ndarray) -> float:
    total = weights.sum()
    if total <= 0:
        raise PreconditionViolated("weighted mean needs positive article counts")
    return float((values * weights).sum() / total)


def field_insensitivity_check(
    journals: core.JournalSet,
    matrix: core.CitationMatrix,
    partition: FieldPartition,
    indicator: indicators.IndicatorVector,
) -> FieldInsensitivityReport:
    """Compare article-weighted field means of an indicator to the overall mean.

    Uses the tight delta from ``min_delta``. The bound predicates carry a
    small floating-point slack so exact-equality cases count as holding.
    """
    core.require_citing(matrix, journals)
    if indicator.n != journals.n:
        raise ValueError("indicator length must match the journal set")
    delta = min_delta(matrix, partition)
    a1 = journals.articles_t1
    values = indicator.values
    mean1 = _weighted_mean(values[partition.j1], a1[partition.j1])
    mean2 = _weighted_mean(values[partition.j2], a1[partition.j2])
    overall = _weighted_mean(values, a1)
    lower = (1.0 - delta) * overall
    upper = (1.0 + delta) * overall
    slack = _BOUND_SLACK * max(1.0, abs(overall))
    holds = tuple(bool(lower - slack <= mean <= upper + slack) for mean in (mean1, mean2))
    return FieldInsensitivityReport(
        delta=delta,
        field_means=(mean1, mean2),
        overall_mean=overall,
        bounds_hold=holds,
        balanced=partition.is_balanced(journals),
        eta=_article_ratio(journals),
    )


def _article_ratio(journals: core.JournalSet) -> float | None:
    """The constant later/earlier article ratio eta, or None when there is none.

    The per-journal ratios a2 / a1 count as one constant when their spread is
    at most _ETA_TOLERANCE times the largest ratio; a journal without
    earlier-period articles has no ratio.
    """
    a1 = journals.articles_t1
    if not np.all(a1 > 0):
        return None
    ratios = journals.articles_t2 / a1
    high = float(ratios.max())
    if high - float(ratios.min()) > _ETA_TOLERANCE * high:
        return None
    return float(ratios.mean())


def leave_one_out(
    journals: core.JournalSet,
    matrix: core.CitationMatrix,
    dropped: int,
    kind: str,
    **params,
) -> LeaveOneOutReport:
    """Recompute an indicator after removing one journal and report the shift.

    ``params`` are passed to ``indicators.compute`` for both instances: the
    kind's parameters (as listed in ``indicators.KINDS``) and ``solver``.
    The reduced instance comes from ``core.drop_journal``, which adjusts the
    parent's non-zero count and negative-cell fact for the drop; its row
    sums, referencing rates, stationary vector and irreducibility are fresh.
    An error the reduced instance raises keeps its type, gives journal
    indices in the full instance and names the dropped journal. Needs at
    least three journals after the drop so that recursive indicators stay
    meaningful.
    """
    full = _full_values(journals, matrix, kind, params)
    return _drop_report(journals, matrix, dropped, kind, full, params)


def leave_one_out_sweep(
    journals: core.JournalSet,
    matrix: core.CitationMatrix,
    kind: str,
    **params,
) -> list[LeaveOneOutReport]:
    """``leave_one_out`` for every journal in index order, with the same ``params``.

    The full instance is solved once for all drops, so a sweep costs n + 1
    indicator computations rather than 2n; each report equals the one
    ``leave_one_out`` gives for the same journal.
    """
    full = _full_values(journals, matrix, kind, params)
    return [_drop_report(journals, matrix, dropped, kind, full, params) for dropped in range(journals.n)]


def _full_values(journals: core.JournalSet, matrix: core.CitationMatrix, kind: str, params: dict) -> np.ndarray:
    if journals.n - 1 < 3:
        raise ValueError("need at least four journals to study a drop")
    return indicators.compute(kind, journals, matrix, **params).values


def _drop_report(
    journals: core.JournalSet,
    matrix: core.CitationMatrix,
    dropped: int,
    kind: str,
    full_values: np.ndarray,
    params: dict,
) -> LeaveOneOutReport:
    reduced_journals, reduced_matrix = core.drop_journal(journals, matrix, dropped)
    try:
        after = indicators.compute(kind, reduced_journals, reduced_matrix, **params).values
    except (ZeroArticles, ZeroArticlesT2, ZeroOutgoing, NotIrreducible) as err:
        # The same error, naming journals by their indices in the full instance.
        full = np.delete(np.arange(journals.n), dropped).tolist()
        if isinstance(err, NotIrreducible):
            mapped = NotIrreducible([[full[i] for i in c] for c in err.components])
        else:
            mapped = type(err)(full[err.index], err.journal_id)
        mapped.args = (f"{mapped} once journal {quote(journals.journals[dropped].id)} (index {dropped}) is dropped",)
        raise mapped from None
    before = np.delete(full_values, dropped)
    with np.errstate(divide="ignore", invalid="ignore"):
        relative = np.where(before > 0, np.abs(after - before) / before, np.nan)
    zero_before = tuple(int(i) for i in np.flatnonzero(before == 0))
    defined = relative[np.isfinite(relative)]
    max_change = float(defined.max()) if defined.size else 0.0
    relative.flags.writeable = False
    before.flags.writeable = False
    return LeaveOneOutReport(
        dropped=dropped,
        before=before,
        after=after,
        relative_change=relative,
        max_relative_change=max_change,
        zero_before=zero_before,
    )


def _ratio_report(numerator: np.ndarray, denominator: np.ndarray) -> ProportionalityReport:
    if np.any(denominator <= 0):
        raise PreconditionViolated("proportionality needs strictly positive scores")
    ratios = numerator / denominator
    low, high = float(ratios.min()), float(ratios.max())
    spread = high / low - 1.0
    return ProportionalityReport(low, high, spread, spread < _ENDPOINT_SPREAD)


def af_endpoint_check(
    journals: core.JournalSet,
    matrix: core.CitationMatrix,
    solver: spectral.SolverConfig | None = None,
) -> ProportionalityReport:
    """Verify the audience factor matches the undamped per-article stationary score
    up to one constant.

    Requires the later-period article counts to be one fixed multiple of the
    earlier-period counts; raises PreconditionViolated otherwise.
    """
    if np.any(journals.articles_t1 <= 0):
        raise PreconditionViolated("all journals need earlier-period articles")
    if _article_ratio(journals) is None:
        raise PreconditionViolated(
            "later-period article counts are not proportional to earlier-period counts"
        )
    af = indicators.audience_factor(journals, matrix)
    ai0 = indicators.article_influence(journals, matrix, alpha=0.0, solver=solver)
    return _ratio_report(af.values, ai0.values)


def ipp_endpoint_check(
    journals: core.JournalSet,
    matrix: core.CitationMatrix,
    solver: spectral.SolverConfig | None = None,
) -> ProportionalityReport:
    """Verify the per-article influence matches the fully damped per-article
    stationary score up to one constant. Requires an irreducible matrix."""
    ipp = indicators.influence_per_publication(journals, matrix, solver)
    ai1 = indicators.article_influence(journals, matrix, alpha=1.0, solver=solver)
    return _ratio_report(ipp.values, ai1.values)
