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

import contextvars
import os
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import core, indicators, spectral
from .core import FieldPartition
from .errors import NotIrreducible, PreconditionViolated, ZeroArticles, ZeroArticlesT2, ZeroOutgoing, quote

_BOUND_SLACK = 1e-12
_ETA_TOLERANCE = 1e-12
# An endpoint check passes when its ratios spread by less than this.
_ENDPOINT_SPREAD = 1e-9
# Bytes a CitationMatrix must store (its dense counts, or a sparse one's
# non-zeros) before _drop_reports splits the solves of a solved kind over two
# threads. Measured with BLAS pinned to one thread on two
# x86-64 vCPUs, median per-call time of AI(0.85) and SJR, in turn ->
# overlapped: on block_model's dense fields (within_mean 0.4) at n = 500,
# 2.0 MB, 3.2 -> 3.6-4.4 ms, a loss; at n = 520, 2.2 MB, 3.1 -> 2.6 ms; n =
# 560, 2.5 MB, 3.5-4.0 -> 2.9-3.2 ms; n = 660, 3.5 MB, 5.7-6.0 -> 4.5-4.9 ms;
# n = 1000, 8 MB, 14.3-14.6 -> 9.1-9.2 ms. On sparse fields: n = 1500, 0.6
# MB, 5.0-5.1 -> 5.7 ms, a loss; n = 2000, 2.6 MB, 17.5-19.4 -> 16.7-19.3
# ms, level; n = 2400, 3.7 MB, 24.6-25.5 -> 17.3-17.4 ms. A kind that solves
# nothing (IF, AF) is one product, too short to repay the helper thread: AF
# on the dense fields read 0.8-1.6 -> 1.1-1.8 ms at 2.0-5.1 MB, 2.1 -> 2.2
# ms at 8 MB. Forced direct, AI(0.85) and SJR on the dense fields read 26 ->
# 14.5 ms at n = 560 and 82 -> 44 ms at n = 1000.
OVERLAP_BYTES = 2_500_000


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
    a1 = core.require_articles(journals, 1)
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
    earlier-period articles has no ratio. The counts pass the article gate.
    """
    a1 = core.require_articles(journals, 1)
    if not a1.all():
        return None
    ratios = core.require_articles(journals, 2) / a1
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
    The reduced instance comes from ``core.drop_journal``; its row sums,
    referencing rates, stationary vector and irreducibility are fresh. An
    error the reduced instance raises keeps its type, gives journal indices
    in the full instance and names the dropped journal. Needs at least three
    journals after the drop so that recursive indicators stay meaningful.
    The two instances may be solved side by side, by ``_drop_reports``'s rule.
    """
    return _drop_reports(journals, matrix, (dropped,), kind, params)[0]


def leave_one_out_sweep(
    journals: core.JournalSet,
    matrix: core.CitationMatrix,
    kind: str,
    **params,
) -> list[LeaveOneOutReport]:
    """``leave_one_out`` for every journal in index order, with the same ``params``.

    The full instance is solved once for all drops, so a sweep costs n + 1
    indicator computations rather than 2n. Each report, and the error of
    the first failing drop, is the one ``leave_one_out`` gives for it.
    """
    return _drop_reports(journals, matrix, range(journals.n), kind, params)


def _drop_reports(journals, matrix, drops, kind: str, params: dict) -> list[LeaveOneOutReport]:
    """Solve the full instance, then the reduced one of each journal in
    ``drops``, and report each drop, or raise the first failing solve's error.

    The one place that splits the solves over two threads. That pays
    (``_overlap_pays``) when the matrix stores at least ``OVERLAP_BYTES``,
    the kind solves a stationary vector, numpy's BLAS is pinned to one
    thread (its own thread variable, else ``OMP_NUM_THREADS``, says 1) and
    the process may run on two CPUs or more, since the dense products
    release the interpreter lock. A helper thread then takes the full
    instance and every second solve after it, the caller the rest. Once a
    solve fails neither thread starts a later one, while every earlier one
    still runs, so the reports, or the error, are bitwise the in-turn ones;
    an interrupt is raised whatever failed before it. The helper is joined
    before the call returns or raises, and runs in a copy of the caller's
    context: on numpy 2 the caller's ``np.errstate`` holds there, below
    numpy 2 numpy's defaults do.
    """
    solves = [partial(_full_values, journals, matrix, kind, params)]
    solves += [partial(_reduced_values, journals, matrix, dropped, kind, params) for dropped in drops]
    results: list = [None] * len(solves)
    failed: list[int] = []  # the indices of the failed solves

    def run(first: int, step: int) -> None:
        i = first
        try:
            for i in range(first, len(solves), step):
                if failed and min(failed) < i:
                    return
                results[i] = solves[i]()
        except BaseException as err:  # raised below, in the caller's thread
            results[i] = err
            failed.append(i)

    if not _overlap_pays(matrix, kind):
        run(0, 1)
    else:
        helper = threading.Thread(target=contextvars.copy_context().run, args=(run, 0, 2))
        helper.start()
        try:
            run(1, 2)
        finally:
            helper.join()
    if failed:
        errors = [results[i] for i in sorted(failed)]
        raise next((err for err in errors if not isinstance(err, Exception)), errors[0])
    full, *reduced = results
    return [_drop_report(dropped, full, after) for dropped, after in zip(drops, reduced)]


def _overlap_pays(matrix: core.CitationMatrix, kind: str) -> bool:
    """Whether ``_drop_reports`` splits its solves over two threads."""
    stored = sum(array.nbytes for array in matrix.nonzeros) if matrix.sparse else matrix.counts.nbytes
    if stored < OVERLAP_BYTES:
        return False
    # An unknown kind goes in turn, to the error indicators.compute gives it.
    spec = indicators.KINDS.get(kind.lower())
    return spec is not None and spec.solved and _blas_pinned(_blas_name(), os.environ) and _cpus() > 1


def _cpus() -> int:
    """CPUs this process may run on: with one, the helper thread only takes
    turns with the caller (AI(0.85) at n = 1000 read 17.5 ms in turn and
    19.0 ms overlapped under ``taskset -c 0``)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _blas_name() -> str | None:
    """The name numpy gives its BLAS, or None where numpy (before 1.26) names none."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return None


def _blas_pinned(blas: str | None, environ) -> bool:
    """Whether the thread variable that BLAS ``blas`` reads says 1: OpenBLAS's
    or MKL's own variable, else OMP_NUM_THREADS. An unknown BLAS counts as
    not pinned. A BLAS not pinned spreads each dense product over the cores
    already, and a second solving thread would only compete with it."""
    name = (blas or "").lower()
    own = "OPENBLAS_NUM_THREADS" if "openblas" in name else "MKL_NUM_THREADS" if "mkl" in name else None
    if own is None:
        return False
    return (environ.get(own) or environ.get("OMP_NUM_THREADS", "")).strip() == "1"


def _full_values(journals: core.JournalSet, matrix: core.CitationMatrix, kind: str, params: dict) -> np.ndarray:
    if journals.n - 1 < 3:
        raise ValueError("need at least four journals to study a drop")
    return indicators.compute(kind, journals, matrix, **params).values


def _reduced_values(
    journals: core.JournalSet, matrix: core.CitationMatrix, dropped: int, kind: str, params: dict
) -> np.ndarray:
    reduced_journals, reduced_matrix = core.drop_journal(journals, matrix, dropped)
    try:
        return indicators.compute(kind, reduced_journals, reduced_matrix, **params).values
    except (ZeroArticles, ZeroArticlesT2, ZeroOutgoing, NotIrreducible) as err:
        # The same error, naming journals by their indices in the full instance.
        full = np.delete(np.arange(journals.n), dropped).tolist()
        if isinstance(err, NotIrreducible):
            mapped = NotIrreducible([[full[i] for i in c] for c in err.components])
        else:
            mapped = type(err)(full[err.index], err.journal_id)
        mapped.args = (f"{mapped} once journal {quote(journals.journals[dropped].id)} (index {dropped}) is dropped",)
        raise mapped from None


def _drop_report(dropped: int, full_values: np.ndarray, after: np.ndarray) -> LeaveOneOutReport:
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
    if not core.require_articles(journals, 1).all():
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
