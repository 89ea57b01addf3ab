import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import journalrank as jr
from journalrank import core, properties, spectral
from journalrank.core import CitationMatrix, Journal, JournalSet
from journalrank.errors import NotIrreducible, PreconditionViolated, ZeroArticles, ZeroOutgoing
from journalrank.spectral import SolverConfig

from conftest import counted_solves, make_block
from exact import EXACT_RTOL, exact_scores

DIRECT = SolverConfig(method="direct")


def add_insignificant_journal(journals, matrix, partition, seed, cross_mean, within_mean):
    """Append to field 2 a journal that cites normally but is almost never
    cited: one incoming citation keeps the graph strongly connected."""
    rng = np.random.default_rng(seed + 5000)
    n = journals.n
    m = n // 2
    new_row = np.concatenate(
        [rng.poisson(cross_mean, size=m), rng.poisson(within_mean, size=m), [0.0]]
    ).astype(float)
    if new_row.sum() == 0:
        new_row[n - 1] = 1.0
    counts = np.zeros((n + 1, n + 1))
    counts[:n, :n] = matrix.counts
    counts[n, :] = new_row
    counts[m, n] = 1.0
    eta = journals.articles_t2[0] / journals.articles_t1[0]
    new_a1 = 20
    extended = JournalSet(journals.journals + (Journal("NEW", None, new_a1, int(eta * new_a1)),))
    return extended, CitationMatrix(counts), jr.FieldPartition(partition.field_of + (2,))


class TestFieldPartition:
    def test_requires_both_fields(self):
        with pytest.raises(ValueError):
            jr.FieldPartition((1, 1, 1))
        with pytest.raises(ValueError):
            jr.FieldPartition((1, 2, 3))

    def test_balanced_flag(self, two_field):
        journals, _ = two_field
        assert jr.two_field_partition().is_balanced(journals)
        lopsided = jr.FieldPartition((1, 1, 1, 2, 2, 2, 2, 2))
        assert not lopsided.is_balanced(journals)

    @pytest.mark.parametrize("label", (True, np.True_, 1.5, 1.0))
    def test_bool_and_non_integer_labels_rejected(self, label):
        with pytest.raises(ValueError, match="^field labels must be integers$"):
            jr.FieldPartition((label, 2))

    def test_numpy_integer_labels_accepted(self):
        assert jr.FieldPartition(tuple(np.array([1, 2]))).field_of == (1, 2)


class TestMinDelta:
    def test_near_decomposable_is_three_permille(self, near_decomposable):
        _, matrix, partition = near_decomposable
        assert jr.min_delta(matrix, partition) == 0.003

    def test_block_diagonal_gives_zero(self):
        matrix = CitationMatrix(np.array([[3.0, 1.0, 0.0], [2.0, 5.0, 0.0], [0.0, 0.0, 4.0]]))
        partition = jr.FieldPartition((1, 1, 2))
        assert jr.min_delta(matrix, partition) == 0.0

    def test_two_field_fixture(self, two_field):
        _, matrix = two_field
        delta = jr.min_delta(matrix, jr.two_field_partition())
        # Every row sends 100 + 100 + 1 + 1 = 202 of its 2222 citations
        # across the field boundary.
        assert delta == pytest.approx(202 / 2222, abs=1e-15)

    def test_dangling_row_rejected(self):
        matrix = CitationMatrix(np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(ZeroOutgoing):
            jr.min_delta(matrix, jr.FieldPartition((1, 2)))

    @pytest.mark.parametrize("layout", ("dense", "sparse"))
    @pytest.mark.parametrize(
        "counts, message",
        (
            ([[1.0, np.inf], [1.0, 1.0]], "matrix cell (0, 1) is not finite"),
            ([[1.0, np.nan], [1.0, 1.0]], "matrix cell (0, 1) is not finite"),
            ([[1.0, -1.0], [1.0, 1.0]], "matrix cell (0, 1) is negative"),
            ([[1.0, 1.0], [-1.0, np.nan]], "matrix cell (1, 0) is negative"),
            ([[1.0, 1.0], [1e308, 1e308]], "citations made by matrix index 1 sum beyond the float range"),
        ),
    )
    def test_unsound_cells_rejected_in_validates_words(self, monkeypatch, layout, counts, message):
        # The negative cell of [[1, -1], [1, 1]] would otherwise leave row 0
        # summing to 0, a dangling journal; an infinite cell gave nan.
        monkeypatch.setattr(core, "SPARSE_DENSITY", {"dense": 0.0, "sparse": 2.0}[layout])
        matrix = CitationMatrix(np.array(counts))
        assert matrix.sparse is (layout == "sparse")
        with pytest.raises(ValueError) as err:
            jr.min_delta(matrix, jr.FieldPartition((1, 2)))
        assert str(err.value) == message

    def test_partition_of_another_length_rejected(self, two_field):
        _, matrix = two_field
        with pytest.raises(ValueError, match="^partition length must match the matrix$"):
            jr.min_delta(matrix, jr.FieldPartition((1, 1, 2)))

    def test_zeroing_cross_field_entries_never_increases_delta(self):
        for seed in range(5):
            journals, matrix, partition = make_block(seed, m=3)
            base = jr.min_delta(matrix, partition)
            labels = np.array(partition.field_of)
            cross_cells = np.argwhere(
                (labels[:, None] != labels[None, :]) & (matrix.counts > 0)
            )
            for i, j in cross_cells[:10]:
                counts = matrix.counts.copy()
                counts[i, j] = 0.0
                reduced = CitationMatrix(counts)
                if np.any(reduced.row_sums == 0):
                    continue
                assert jr.min_delta(reduced, partition) <= base + 1e-15


class TestFieldInsensitivityCheck:
    def test_audience_factor_on_symmetric_fixture(self, two_field):
        journals, matrix = two_field
        report = jr.field_insensitivity_check(
            journals, matrix, jr.two_field_partition(), jr.audience_factor(journals, matrix)
        )
        assert report.bounds_hold == (True, True)
        assert report.balanced
        assert report.eta == 1.0
        assert report.field_means[0] == pytest.approx(report.overall_mean, rel=1e-12)
        assert report.field_means[1] == pytest.approx(report.overall_mean, rel=1e-12)

    def test_size_mismatch_rejected(self):
        journals = JournalSet(tuple(Journal(f"J{k}", None, 10, 10) for k in range(4)))
        counts = np.arange(1.0, 26.0).reshape(5, 5)
        indicator = jr.impact_factor(journals, CitationMatrix(counts[:4, :4]))
        partition = jr.FieldPartition((1, 1, 2, 2, 2))
        for row_sum in (1.0, 0.0):
            counts[4] = row_sum
            with pytest.raises(ValueError, match="^journal set has 4 journals but matrix is 5x5$"):
                jr.field_insensitivity_check(journals, CitationMatrix(counts), partition, indicator)

    def test_recursive_influence_breaks_bounds_on_near_decomposable(self, near_decomposable):
        journals, matrix, partition = near_decomposable
        ipp = jr.influence_per_publication(journals, matrix)
        report = jr.field_insensitivity_check(journals, matrix, partition, ipp)
        assert report.delta == 0.003
        assert report.field_means == pytest.approx((7.5, 2.5), abs=1e-12)
        assert report.overall_mean == pytest.approx(5.0, abs=1e-12)
        assert report.bounds_hold[0] is False
        assert report.balanced

    def test_unbalanced_partition_is_informational(self, two_field):
        journals, matrix = two_field
        partition = jr.FieldPartition((1, 1, 1, 2, 2, 2, 2, 2))
        report = jr.field_insensitivity_check(
            journals, matrix, partition, jr.audience_factor(journals, matrix)
        )
        assert report.balanced is False
        assert isinstance(report.bounds_hold[0], bool)

    def test_eta_absent_when_article_growth_varies(self):
        journals = JournalSet(
            (
                Journal("a", None, 10, 10),
                Journal("b", None, 10, 30),
            )
        )
        matrix = CitationMatrix(np.array([[5.0, 1.0], [1.0, 5.0]]))
        report = jr.field_insensitivity_check(
            journals, matrix, jr.FieldPartition((1, 2)), jr.impact_factor(journals, matrix)
        )
        assert report.eta is None

    def test_eta_absent_when_a_journal_has_no_earlier_articles(self, two_field):
        journals, matrix = two_field
        journals = JournalSet((Journal("J1", None, 0, 100),) + journals.journals[1:])
        iw = jr.influence_weights(journals, matrix)
        report = jr.field_insensitivity_check(journals, matrix, jr.two_field_partition(), iw)
        assert report.eta is None

    def test_indicator_of_another_length_rejected(self, two_field):
        journals, matrix = two_field
        with pytest.raises(ValueError, match="^indicator length must match the journal set$"):
            jr.field_insensitivity_check(journals, matrix, jr.two_field_partition(), jr.IndicatorVector("IF", np.ones(7)))

    def test_field_without_earlier_articles_rejected(self, two_field):
        journals, matrix = two_field
        journals = JournalSet(
            tuple(Journal(j.id, None, 0 if k < 4 else 100, 100) for k, j in enumerate(journals.journals))
        )
        iw = jr.influence_weights(journals, matrix)
        with pytest.raises(PreconditionViolated, match="^weighted mean needs positive article counts$"):
            jr.field_insensitivity_check(journals, matrix, jr.two_field_partition(), iw)

    @pytest.mark.parametrize(
        "a1, a2, message",
        (
            (np.nan, 100, "articles_t1 of journal 'J3' is not finite"),
            (-50, 100, "articles_t1 of journal 'J3' is negative"),
            (1, np.nan, "articles_t2 of journal 'J3' is not finite"),
            (1, np.inf, "articles_t2 of journal 'J3' is not finite"),
        ),
    )
    def test_bad_article_count_named_in_validates_words(self, two_field, a1, a2, message):
        # The earlier-period counts weight the field means, which a NaN would
        # make NaN and a negative count skew; the later-period ones give eta,
        # which a NaN or infinite count would make NaN or infinite.
        journals, matrix = two_field
        iw = jr.influence_weights(journals, matrix)
        journals = JournalSet(journals.journals[:2] + (Journal("J3", None, a1, a2),) + journals.journals[3:])
        with pytest.raises(ValueError, match=f"^{message}$"):
            jr.field_insensitivity_check(journals, matrix, jr.two_field_partition(), iw)

    def test_both_checks_share_one_proportionality_rule(self):
        # Ratios 0.5 and 0.5 + 8e-13 spread by more than 1e-12 times the
        # largest ratio, so neither check may treat them as one constant.
        journals = JournalSet(
            tuple(
                Journal(f"J{k}", None, 10**12, 5e11 + (0.8 if k % 2 else 0.0)) for k in range(4)
            )
        )
        matrix = CitationMatrix(np.full((4, 4), 3.0) + np.eye(4))
        partition = jr.FieldPartition((1, 1, 2, 2))
        report = jr.field_insensitivity_check(journals, matrix, partition, jr.impact_factor(journals, matrix))
        assert report.eta is None
        with pytest.raises(PreconditionViolated, match="not proportional"):
            jr.af_endpoint_check(journals, matrix)


def sparse_ring(seed, n):
    """An n-journal instance below SPARSE_DENSITY in which journal i cites
    i + 1 and i + 2 (mod n), plus a few extra cells: every drop leaves each
    survivor citing and the pattern strongly connected."""
    rng = np.random.default_rng(seed)
    counts = np.zeros((n, n))
    rows = np.arange(n)
    for step in (1, 2):
        counts[rows, (rows + step) % n] = rng.integers(1, 50, size=n)
    counts[rng.integers(0, n, size=n), rng.integers(0, n, size=n)] += rng.integers(1, 50, size=n)
    a1 = rng.integers(20, 200, size=n)
    journals = JournalSet(tuple(Journal(f"J{k:02d}", None, int(a1[k]), int(a1[k])) for k in range(n)))
    return journals, CitationMatrix(counts)


def fresh_drop(journals, matrix, index):
    """drop_journal as a fresh CitationMatrix of the deleted counts."""
    kept = tuple(j for k, j in enumerate(journals.journals) if k != index)
    return JournalSet(kept), CitationMatrix(np.delete(np.delete(matrix.counts, index, 0), index, 1))


def assert_same_report(report, expected):
    assert report.dropped == expected.dropped
    for name in ("before", "after", "relative_change"):
        assert getattr(report, name).tobytes() == getattr(expected, name).tobytes(), name
    assert report.max_relative_change == expected.max_relative_change
    assert report.zero_before == expected.zero_before


class TestLeaveOneOut:
    def test_recursive_influence_is_stable_without_the_minor_journal(self, two_field):
        journals, matrix = two_field
        report = jr.leave_one_out(journals, matrix, 7, "ipp")
        np.testing.assert_allclose(
            report.before, [5.5, 5.5, 0.055, 0.055, 5.5, 5.5, 0.055], atol=5e-4
        )
        np.testing.assert_allclose(
            report.after, [5.513, 5.513, 0.055, 0.055, 5.490, 5.490, 0.055], atol=5e-4
        )
        assert report.max_relative_change < 0.01
        assert report.zero_before == ()

    def test_audience_factor_shifts_with_the_minor_journal(self, two_field):
        journals, matrix = two_field
        report = jr.leave_one_out(journals, matrix, 7, "af")
        # Journals sharing the dropped journal's field lose almost a quarter
        # of their score; the other field barely moves.
        np.testing.assert_allclose(report.relative_change[4:], 0.226, atol=5e-4)
        np.testing.assert_allclose(report.relative_change[:4], 0.0241, atol=5e-4)

    def test_zero_scores_reported_separately(self):
        journals = JournalSet(
            tuple(Journal(x, None, 10, 10) for x in "abcd")
        )
        counts = np.array(
            [
                [5.0, 2.0, 1.0, 0.0],
                [2.0, 5.0, 1.0, 0.0],
                [1.0, 1.0, 5.0, 0.0],
                [1.0, 1.0, 1.0, 0.0],
            ]
        )
        report = jr.leave_one_out(journals, CitationMatrix(counts), 0, "if")
        assert report.zero_before == (2,)
        assert np.isnan(report.relative_change[2])
        assert np.isfinite(report.max_relative_change)

    def test_uncited_negligible_journal_changes_bounded_by_its_citation_share(self):
        # Journal X receives nothing and cites very little. Removing it
        # shifts each survivor's impact factor by exactly X's share of that
        # survivor's incoming citations (recomputed independently here).
        rng = np.random.default_rng(17)
        base = rng.integers(5, 40, size=(4, 4)).astype(float)
        counts = np.zeros((5, 5))
        counts[:4, :4] = base
        counts[4, :4] = [1.0, 0.0, 1.0, 0.0]  # negligible outgoing row
        journals = JournalSet(tuple(Journal(x, None, 10, 10) for x in "abcdX"))
        matrix = CitationMatrix(counts)
        report = jr.leave_one_out(journals, matrix, 4, "if")
        incoming = matrix.counts[:, :4].sum(axis=0)
        share_of_incoming = matrix.counts[4, :4] / incoming
        np.testing.assert_allclose(report.relative_change, share_of_incoming, atol=1e-12)
        assert report.max_relative_change <= matrix.row_sums[4] / incoming.min()

    def test_needs_four_journals(self, near_decomposable):
        journals, matrix, _ = near_decomposable
        with pytest.raises(ValueError):
            jr.leave_one_out(journals, matrix, 0, "if")

    def test_sweep_is_deterministic(self, two_field):
        journals, matrix = two_field
        first = [
            jr.leave_one_out(journals, matrix, i, "ipp").max_relative_change
            for i in range(journals.n)
        ]
        second = [
            jr.leave_one_out(journals, matrix, i, "ipp").max_relative_change
            for i in range(journals.n)
        ]
        assert first == second

    @pytest.mark.parametrize(
        "kind, params",
        [("ipp", {}), ("ai", {"alpha": 0.85}), ("sjr", {}), ("af", {}), ("if", {})],
    )
    def test_sweep_reports_equal_single_drops_bitwise(self, kind, params):
        journals, matrix, _ = make_block(seed=31, m=5)
        reports = properties.leave_one_out_sweep(journals, matrix, kind, **params)
        assert [r.dropped for r in reports] == list(range(journals.n))
        for report in reports:
            assert_same_report(report, jr.leave_one_out(journals, matrix, report.dropped, kind, **params))

    @pytest.mark.parametrize("kind, params", [("ipp", {}), ("ai", {"alpha": 0.85}), ("af", {})])
    def test_sparse_drops_equal_freshly_built_reduced_matrices(self, kind, params, monkeypatch):
        # The parent already holds its non-zeros and every reduced matrix
        # solves on the sparse path; the reports must not differ from those
        # on matrices built from the deleted counts.
        journals, matrix = sparse_ring(seed=7, n=70)
        assert matrix.nonzero_count < core.SPARSE_DENSITY * matrix.n**2
        matrix.nonzeros
        reports = properties.leave_one_out_sweep(journals, matrix, kind, **params)
        drops = (*range(0, journals.n, 6), journals.n - 1)
        singles = [jr.leave_one_out(journals, matrix, k, kind, **params) for k in drops]
        with monkeypatch.context() as patch:
            patch.setattr(core, "drop_journal", fresh_drop)
            fresh = [jr.leave_one_out(journals, matrix, k, kind, **params) for k in drops]
        for k, single, expected in zip(drops, singles, fresh):
            assert_same_report(reports[k], expected)
            assert_same_report(single, expected)

    def test_sweep_needs_four_journals(self, near_decomposable):
        journals, matrix, _ = near_decomposable
        with pytest.raises(ValueError):
            properties.leave_one_out_sweep(journals, matrix, "if")

    def test_reduced_dangling_journal_is_named_by_its_full_index(self):
        journals, matrix, _ = jr.block_model(jr.BlockModelSpec(30, 0.12, 0.01, seed=0))
        with pytest.raises(ZeroOutgoing) as caught:
            properties.leave_one_out_sweep(journals, matrix, "af")
        err = caught.value
        assert (err.index, err.journal_id) == (28, "J029") == (journals.index_of("J029"), "J029")
        assert str(err) == "journal 'J029' (index 28) has no outgoing citations once journal 'J007' (index 6) is dropped"

    def test_reduced_components_are_in_full_indices(self):
        # A 5-cycle with self-citations: every drop cuts it into a path.
        counts = np.eye(5) + np.roll(np.eye(5), 1, axis=1)
        journals = JournalSet(tuple(Journal(f"J{k}", None, 3, 3) for k in range(5)))
        for dropped in (0, 2):
            with pytest.raises(NotIrreducible) as caught:
                jr.leave_one_out(journals, CitationMatrix(counts), dropped, "ipp")
            err = caught.value
            assert sorted(i for c in err.components for i in c) == [k for k in range(5) if k != dropped]
            assert str(err) == (
                f"citation matrix is not irreducible (4 strongly connected components) "
                f"once journal 'J{dropped}' (index {dropped}) is dropped"
            )
        with pytest.raises(NotIrreducible) as caught:
            properties.leave_one_out_sweep(journals, CitationMatrix(counts), "ipp")
        assert sorted(caught.value.components) == [[1], [2], [3], [4]]


# Every KINDS entry with its parameters, the power path forced so that the
# overlapped halves solve as an above-cut instance would.
OVERLAP_KINDS = [
    ("if", {}),
    ("af", {}),
    ("iw", {}),
    ("ipp", {}),
    ("ef", {"alpha": 0.85}),
    ("ai", {"alpha": 0.85}),
    ("wpr", {"beta": 0.9, "gamma": 0.05}),
    ("sjr", {}),
]
POWER = SolverConfig(method="power")


@pytest.fixture
def started(monkeypatch):
    """Counts the threads started; the original start runs."""
    calls = []
    original = threading.Thread.start

    def start(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return calls


@pytest.fixture
def overlapped(monkeypatch, started):
    """Turn the overlap on for every instance and solved kind, whatever BLAS
    and CPU count; IF and AF stay in turn unless the kind rule is patched too."""
    monkeypatch.setattr(properties, "OVERLAP_BYTES", 0)
    monkeypatch.setattr(properties, "_blas_pinned", lambda blas, environ: True)
    monkeypatch.setattr(properties, "_cpus", lambda: 2)
    return started


def in_turn(call):
    """``call()`` with the overlap off, its report or the error it raised."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(properties, "_overlap_pays", lambda matrix, kind: False)
        try:
            return call()
        except Exception as err:
            return err


def assert_same_outcome(call, started, overlaps=True):
    """``call()`` gives the in-turn outcome bitwise, a report or a sweep's
    list of them, or raises the in-turn error."""
    expected = in_turn(call)
    threads = threading.active_count()
    before = len(started)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as caught:
            call()
        assert str(caught.value) == str(expected)
        assert type(caught.value) is type(expected)
        outcome = caught.value
    else:
        outcome = call()
        if isinstance(expected, list):
            assert len(outcome) == len(expected)
            for report, want in zip(outcome, expected):
                assert_same_report(report, want)
        else:
            assert_same_report(outcome, expected)
    assert threading.active_count() == threads
    assert len(started) == before + overlaps
    return outcome


class TestOverlappedLeaveOneOut:
    @pytest.mark.parametrize("instance", ["dense", "sparse"])
    @pytest.mark.parametrize("kind, params", OVERLAP_KINDS)
    def test_reports_equal_the_in_turn_ones_bitwise(self, overlapped, monkeypatch, instance, kind, params):
        if not jr.indicators.KINDS[kind].solved:
            # IF and AF are one product each and run in turn for real.
            monkeypatch.setattr(properties, "_overlap_pays", lambda matrix, kind: True)
        if instance == "dense":
            journals, matrix, _ = make_block(seed=31, m=6)
        else:
            journals, matrix = sparse_ring(seed=7, n=70)
            assert matrix.sparse
        for dropped in (0, journals.n // 2, journals.n - 1):
            call = lambda: jr.leave_one_out(journals, matrix, dropped, kind, solver=POWER, **params)
            assert isinstance(assert_same_outcome(call, overlapped), properties.LeaveOneOutReport)
        assert all(not thread.is_alive() for thread in overlapped)

    @pytest.mark.parametrize("dropped", ["3", True, np.bool_(False), 12, -1, 3.0])
    def test_bad_index_raises_the_in_turn_error(self, overlapped, dropped):
        journals, matrix, _ = make_block(seed=31, m=6)
        err = assert_same_outcome(lambda: jr.leave_one_out(journals, matrix, dropped, "ipp"), overlapped)
        assert isinstance(err, (TypeError, IndexError))

    @pytest.mark.parametrize("dropped", [0, 2, 4, "sweep"])
    def test_full_instance_error_wins(self, overlapped, dropped):
        # Journal 2 cites nothing: the full instance raises ZeroOutgoing for
        # it, and so does every reduced one that keeps it (at index 1 or 2).
        journals, matrix, _ = make_block(seed=31, m=6)
        counts = np.array(matrix.counts)
        counts[2] = 0.0
        dangling = CitationMatrix(counts)
        if dropped == "sweep":
            call = lambda: properties.leave_one_out_sweep(journals, dangling, "ai")
        else:
            call = lambda: jr.leave_one_out(journals, dangling, dropped, "ai")
        err = assert_same_outcome(call, overlapped)
        assert isinstance(err, ZeroOutgoing)
        assert (err.index, str(err)) == (2, "journal 'J003' (index 2) has no outgoing citations")

    def test_full_instance_error_wins_over_a_bad_index(self, overlapped):
        journals, matrix, _ = make_block(seed=31, m=6)
        counts = np.array(matrix.counts)
        counts[5] = 0.0
        err = assert_same_outcome(lambda: jr.leave_one_out(journals, CitationMatrix(counts), 99, "sjr"), overlapped)
        assert isinstance(err, ZeroOutgoing)

    def test_reduced_dangling_journal_is_named_by_its_full_index(self, overlapped, monkeypatch):
        monkeypatch.setattr(properties, "_overlap_pays", lambda matrix, kind: True)
        journals, matrix, _ = jr.block_model(jr.BlockModelSpec(30, 0.12, 0.01, seed=0))
        for kind in ("af", "ai"):
            err = assert_same_outcome(lambda: jr.leave_one_out(journals, matrix, 6, kind), overlapped)
            assert isinstance(err, ZeroOutgoing)
            assert str(err) == (
                "journal 'J029' (index 28) has no outgoing citations once journal 'J007' (index 6) is dropped"
            )

    def test_reduced_components_are_in_full_indices(self, overlapped):
        counts = np.eye(5) + np.roll(np.eye(5), 1, axis=1)
        journals = JournalSet(tuple(Journal(f"J{k}", None, 3, 3) for k in range(5)))
        for dropped in (0, 2, 4):
            err = assert_same_outcome(
                lambda: jr.leave_one_out(journals, CitationMatrix(counts), dropped, "ipp"), overlapped
            )
            assert isinstance(err, NotIrreducible)
            assert sorted(i for c in err.components for i in c) == [k for k in range(5) if k != dropped]

    def test_sweep_starts_one_helper(self, overlapped):
        journals, matrix, _ = make_block(seed=31, m=5)
        reports = assert_same_outcome(lambda: properties.leave_one_out_sweep(journals, matrix, "ipp"), overlapped)
        assert len(overlapped) == 1
        for report in reports[:3]:
            assert_same_report(report, in_turn(lambda: jr.leave_one_out(journals, matrix, report.dropped, "ipp")))

    @pytest.mark.parametrize("instance", ["dense", "sparse"])
    @pytest.mark.parametrize("kind, params", OVERLAP_KINDS)
    def test_sweeps_equal_the_in_turn_ones_bitwise(self, overlapped, monkeypatch, instance, kind, params):
        if not jr.indicators.KINDS[kind].solved:
            monkeypatch.setattr(properties, "_overlap_pays", lambda matrix, kind: True)
        if instance == "dense":
            journals, matrix, _ = make_block(seed=31, m=6)
        else:
            journals, matrix = sparse_ring(seed=7, n=70)
            assert matrix.sparse
        call = lambda: properties.leave_one_out_sweep(journals, matrix, kind, solver=POWER, **params)
        reports = assert_same_outcome(call, overlapped)
        assert [r.dropped for r in reports] == list(range(journals.n))
        assert all(not thread.is_alive() for thread in overlapped)

    @pytest.mark.parametrize("kind, params", [("ipp", {}), ("ai", {"alpha": 0.85}), ("sjr", {})])
    def test_forced_direct_overlaps(self, overlapped, kind, params):
        journals, matrix, _ = make_block(seed=31, m=6)
        for call in (
            lambda: jr.leave_one_out(journals, matrix, 3, kind, solver=DIRECT, **params),
            lambda: properties.leave_one_out_sweep(journals, matrix, kind, solver=DIRECT, **params),
        ):
            assert_same_outcome(call, overlapped)

    @pytest.mark.parametrize("kind", ["if", "af"])
    def test_unsolved_kinds_run_in_turn(self, overlapped, kind):
        journals, matrix, _ = make_block(seed=31, m=6)
        assert_same_outcome(lambda: jr.leave_one_out(journals, matrix, 3, kind), overlapped, overlaps=False)
        assert_same_outcome(lambda: properties.leave_one_out_sweep(journals, matrix, kind), overlapped, overlaps=False)

    # On this instance drops 6, 14, 37, 49 and 58 leave a survivor citing
    # nothing. The caller solves the even drops, the helper the odd ones.
    @pytest.mark.parametrize(
        "waits, until, begun",
        [
            # Drop 6 fails while the helper waits at drop 5: drop 5 still
            # runs, and neither thread starts drop 7 or any later one.
            (5, 6, set(range(7))),
            # Drop 37 fails on the helper while the caller waits at drop 6;
            # drop 6 then fails and its error wins.
            (6, 37, {0, 2, 4, 6} | set(range(1, 38, 2))),
        ],
    )
    def test_sweep_raises_the_first_failing_drops_error(self, overlapped, monkeypatch, waits, until, begun):
        journals, matrix, _ = jr.block_model(jr.BlockModelSpec(30, 0.12, 0.01, seed=0))
        call = lambda: properties.leave_one_out_sweep(journals, matrix, "ai")
        expected = in_turn(call)
        assert str(expected) == (
            "journal 'J029' (index 28) has no outgoing citations once journal 'J007' (index 6) is dropped"
        )
        seen, failed = [], threading.Event()
        reduced = properties._reduced_values

        def spy(journals, matrix, dropped, kind, params):
            seen.append(dropped)
            if dropped == waits:
                assert failed.wait(30), f"drop {until} did not fail"
            try:
                return reduced(journals, matrix, dropped, kind, params)
            except ZeroOutgoing:
                if dropped == until:
                    failed.set()
                raise

        monkeypatch.setattr(properties, "_reduced_values", spy)
        threads = threading.active_count()
        with pytest.raises(ZeroOutgoing) as caught:
            call()
        assert (caught.value.index, str(caught.value)) == (28, str(expected))
        assert set(seen) == begun and len(seen) == len(begun)
        assert threading.active_count() == threads and len(overlapped) == 1

    def test_first_error_under_frequent_thread_switches(self, overlapped):
        journals, matrix, _ = jr.block_model(jr.BlockModelSpec(30, 0.12, 0.01, seed=0))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                assert_same_outcome(lambda: properties.leave_one_out_sweep(journals, matrix, "ai"), overlapped)
        finally:
            sys.setswitchinterval(interval)

    def test_interrupt_wins_over_an_earlier_error(self, overlapped, monkeypatch):
        # The helper's drop 1 fails once the caller's drop 2 has started,
        # and drop 2 is interrupted.
        reduced, interrupting = properties._reduced_values, threading.Event()

        def spy(journals, matrix, dropped, kind, params):
            if dropped == 1:
                assert interrupting.wait(30), "drop 2 did not start"
                raise ValueError("drop 1 fails")
            if dropped == 2:
                interrupting.set()
                raise KeyboardInterrupt
            return reduced(journals, matrix, dropped, kind, params)

        monkeypatch.setattr(properties, "_reduced_values", spy)
        journals, matrix, _ = make_block(seed=31, m=6)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            properties.leave_one_out_sweep(journals, matrix, "ipp")
        assert threading.active_count() == threads
        assert len(overlapped) == 1 and not overlapped[0].is_alive()

    @pytest.mark.skipif(
        int(np.__version__.split(".")[0]) < 2,
        reason="below numpy 2 np.errstate is kept per thread, so the helper runs under numpy's defaults",
    )
    def test_callers_errstate_applies_in_the_helper(self, overlapped, monkeypatch):
        seen = []
        compute = jr.indicators.compute

        def spy(kind, journals, matrix, **params):
            seen.append((threading.current_thread() is threading.main_thread(), np.geterr()["invalid"]))
            return compute(kind, journals, matrix, **params)

        monkeypatch.setattr(jr.indicators, "compute", spy)
        journals, matrix, _ = make_block(seed=31, m=6)
        with np.errstate(all="raise"):
            jr.leave_one_out(journals, matrix, 3, "ai")
        assert sorted(seen) == [(False, "raise"), (True, "raise")]


@pytest.fixture(scope="module")
def dense_fields():
    """block_model's dense 100-journal fields, with their integral counts and
    with the same counts times uniform(0.5, 1.5)."""
    journals, matrix, _ = jr.block_model(jr.BlockModelSpec(50, within_mean=0.4, cross_mean=0.02, seed=3))
    scaled = matrix.counts * np.random.default_rng(5).uniform(0.5, 1.5, size=matrix.counts.shape)
    return {"integral": (journals, matrix), "scaled": (journals, CitationMatrix(scaled))}


def assert_fresh_drops_error(call, monkeypatch):
    """``call()`` raises the error it raises on freshly built reduced
    matrices, in type and text; returns both errors."""
    with pytest.raises(Exception) as masked:
        call()
    with monkeypatch.context() as patch:
        patch.setattr(core, "mask_journal", fresh_drop)
        with pytest.raises(Exception) as copied:
            call()
    assert type(masked.value) is type(copied.value)
    assert str(masked.value) == str(copied.value)
    return masked.value, copied.value


class TestMaskedLeaveOneOut:
    """A dense parent's drops read its counts through the dropped index
    (``core.mask_journal``): the reports lie within rounding of those on a
    fresh copy, the errors are the copy's, and no counts are copied."""

    @pytest.mark.parametrize("counts", ["integral", "scaled"])
    @pytest.mark.parametrize("method", ["auto", "power"])
    @pytest.mark.parametrize("kind, params", OVERLAP_KINDS)
    def test_reports_lie_near_a_fresh_copys(self, dense_fields, counts, method, kind, params):
        journals, matrix = dense_fields[counts]
        solver = SolverConfig(method=method)
        for dropped in (0, journals.n // 2, journals.n - 1):
            assert isinstance(core.mask_journal(journals, matrix, dropped)[1], core.MaskedMatrix)
            report = jr.leave_one_out(journals, matrix, dropped, kind, solver=solver, **params)
            expected = jr.compute(kind, *fresh_drop(journals, matrix, dropped), solver=solver, **params).values
            np.testing.assert_allclose(report.after, expected, rtol=1e-12, atol=0)

    def test_small_instance_matches_the_exact_scores(self):
        journals, matrix, _ = make_block(seed=5, m=5)
        dropped = 3
        assert isinstance(core.mask_journal(journals, matrix, dropped)[1], core.MaskedMatrix)
        reduced_journals, reduced = fresh_drop(journals, matrix, dropped)
        for kind, params in OVERLAP_KINDS:
            after = jr.leave_one_out(journals, matrix, dropped, kind, **params).after
            defaults = dict(jr.indicators.KINDS[kind].params)
            exact = exact_scores(kind, reduced_journals, reduced.counts, **(defaults | params))
            np.testing.assert_allclose(after, [float(v) for v in exact], rtol=EXACT_RTOL, atol=0, err_msg=kind)

    @pytest.mark.parametrize("counts", ["integral", "scaled"])
    @pytest.mark.parametrize("kind", ["af", "ai"])
    def test_survivor_citing_only_the_dropped_journal(self, dense_fields, monkeypatch, counts, kind):
        journals, matrix = dense_fields[counts]
        cited = np.array(matrix.counts)
        cited[7] = 0.0
        cited[7, 60] = 5.3
        dangling = CitationMatrix(cited)
        assert isinstance(core.mask_journal(journals, dangling, 60)[1], core.MaskedMatrix)
        err, _ = assert_fresh_drops_error(lambda: jr.leave_one_out(journals, dangling, 60, kind), monkeypatch)
        assert isinstance(err, ZeroOutgoing) and err.index == 7

    @pytest.mark.parametrize("dropped", [0, 2, 4])
    def test_reducible_reduced_instance(self, monkeypatch, dropped):
        # A 5-cycle with self-citations: every drop cuts it into a path.
        journals = JournalSet(tuple(Journal(f"J{k}", None, 3, 3) for k in range(5)))
        matrix = CitationMatrix(np.eye(5) + np.roll(np.eye(5), 1, axis=1))
        assert isinstance(core.mask_journal(journals, matrix, dropped)[1], core.MaskedMatrix)
        err, copied = assert_fresh_drops_error(lambda: jr.leave_one_out(journals, matrix, dropped, "ipp"), monkeypatch)
        assert isinstance(err, NotIrreducible) and err.components == copied.components
        assert sorted(i for c in err.components for i in c) == [k for k in range(5) if k != dropped]

    @pytest.mark.parametrize("kind, params", [("ef", {}), ("wpr", {"beta": 0.9, "gamma": 0.1})])
    def test_survivors_without_articles(self, dense_fields, monkeypatch, kind, params):
        # Only the dropped journal published in the earlier period, so the
        # survivors' article share has no total.
        journals, matrix = dense_fields["integral"]
        alone = JournalSet(tuple(Journal(j.id, None, 50 * (k == 30), 10) for k, j in enumerate(journals.journals)))
        call = lambda: jr.leave_one_out(alone, matrix, 30, kind, **params)
        err, _ = assert_fresh_drops_error(call, monkeypatch)
        assert isinstance(err, ZeroArticles) and err.index == 0

    def test_a_dense_drop_copies_no_counts(self):
        journals, matrix, _ = jr.block_model(jr.BlockModelSpec(300, within_mean=0.4, cross_mean=0.02, seed=3))
        assert not matrix.sparse
        jr.leave_one_out(journals, matrix, 0, "ai", alpha=0.85)
        tracemalloc.start()
        try:
            jr.leave_one_out(journals, matrix, 417, "ai", alpha=0.85)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (journals.n - 1) ** 2


def dense_instance(n):
    """n journals citing each other, 8 n**2 bytes of dense counts."""
    counts = np.add.outer(np.arange(n) % 7, np.arange(n) % 5) + 1.0
    return JournalSet(tuple(Journal(f"J{k:04d}", None, 10 + k % 3, 10 + k % 3) for k in range(n))), CitationMatrix(counts)


class TestWhenTheHalvesOverlap:
    THREE = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

    @pytest.mark.parametrize(
        "blas, environ, pinned",
        [
            ("scipy-openblas", {}, False),
            ("mkl", {}, False),
            ("scipy-openblas", THREE, True),
            ("openblas", THREE, True),
            ("mkl", THREE, True),
            ("scipy-openblas", {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "4"}, False),
            ("mkl", {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "4"}, True),
            ("openblas", {"OMP_NUM_THREADS": "1"}, True),
            ("mkl", {"MKL_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
            ("accelerate", THREE, False),
            (None, THREE, False),
        ],
    )
    def test_pinned_blas_rule(self, blas, environ, pinned):
        assert properties._blas_pinned(blas, environ) is pinned

    def test_one_cpu_runs_in_turn(self, monkeypatch, started):
        monkeypatch.setattr(properties, "OVERLAP_BYTES", 0)
        monkeypatch.setattr(properties, "_blas_pinned", lambda blas, environ: True)
        journals, matrix, _ = make_block(seed=31, m=6)
        for cpus in (1, 2):
            monkeypatch.setattr(properties, "_cpus", lambda: cpus)
            assert_same_outcome(lambda: jr.leave_one_out(journals, matrix, 3, "ipp"), started, cpus > 1)

    def test_cut_is_at_least_overlap_bytes(self, monkeypatch, started):
        monkeypatch.setattr(properties, "_blas_pinned", lambda blas, environ: True)
        monkeypatch.setattr(properties, "_cpus", lambda: 2)
        journals, matrix, _ = make_block(seed=31, m=6)
        for cut, overlaps in ((matrix.counts.nbytes + 1, False), (matrix.counts.nbytes, True)):
            monkeypatch.setattr(properties, "OVERLAP_BYTES", cut)
            assert_same_outcome(lambda: jr.leave_one_out(journals, matrix, 3, "ipp"), started, overlaps)

    def test_real_rule_around_the_real_cut(self, started):
        # Run in turn just below the cut; just above it, overlapped exactly
        # when this process's BLAS is pinned, as in CI's pinned step, and it
        # has two CPUs.
        pinned = properties._blas_pinned(properties._blas_name(), os.environ) and properties._cpus() > 1
        if "openblas" in str(properties._blas_name()).lower() and os.environ.get("OPENBLAS_NUM_THREADS") == "1":
            assert pinned
        side = int(np.ceil(np.sqrt(properties.OVERLAP_BYTES / 8)))
        for n, overlaps in ((side - 1, False), (side, pinned)):
            journals, matrix = dense_instance(n)
            assert (matrix.counts.nbytes >= properties.OVERLAP_BYTES) is (n == side)
            assert_same_outcome(lambda: jr.leave_one_out(journals, matrix, n - 1, "ai"), started, overlaps)


class TestEndpointChecks:
    def test_audience_endpoint_on_fixture(self, two_field):
        journals, matrix = two_field
        report = jr.af_endpoint_check(journals, matrix)
        assert report.passed and report.spread < 1e-9

    def test_audience_endpoint_absorbs_constant_growth(self, two_field):
        # Uniformly tripling the later-period counts cancels out of the
        # citation weights (journal rate and overall rate shrink together),
        # so the check still passes with the same constant.
        journals, matrix = two_field
        tripled = JournalSet(
            tuple(Journal(j.id, j.name, j.articles_t1, 3 * j.articles_t2) for j in journals.journals)
        )
        base = jr.af_endpoint_check(journals, matrix)
        grown = jr.af_endpoint_check(tripled, matrix)
        assert grown.passed
        assert grown.constant == pytest.approx(base.constant, rel=1e-9)

    def test_audience_endpoint_requires_proportional_growth(self, two_field):
        journals, matrix = two_field
        tweaked = JournalSet(
            (Journal("J1", None, 100, 117),) + journals.journals[1:]
        )
        with pytest.raises(PreconditionViolated):
            jr.af_endpoint_check(tweaked, matrix)

    def test_audience_endpoint_requires_earlier_articles(self, two_field):
        journals, matrix = two_field
        tweaked = JournalSet((Journal("J1", None, 0, 100),) + journals.journals[1:])
        with pytest.raises(PreconditionViolated, match="^all journals need earlier-period articles$"):
            jr.af_endpoint_check(tweaked, matrix)

    @pytest.mark.parametrize(
        "a1, a2, message",
        (
            (np.nan, 1, "articles_t1 of journal 'J3' is not finite"),
            (-1, 1, "articles_t1 of journal 'J3' is negative"),
            (1, np.nan, "articles_t2 of journal 'J3' is not finite"),
            (1, -1, "articles_t2 of journal 'J3' is negative"),
        ),
    )
    def test_audience_endpoint_names_a_bad_article_count(self, two_field, a1, a2, message):
        # A NaN earlier-period count must not read as disproportionate growth.
        journals, matrix = two_field
        journals = JournalSet(journals.journals[:2] + (Journal("J3", None, a1, a2),) + journals.journals[3:])
        with pytest.raises(ValueError, match=f"^{message}$"):
            jr.af_endpoint_check(journals, matrix)

    def test_audience_endpoint_requires_every_journal_cited(self):
        journals = JournalSet(tuple(Journal(i, None, 10, 10) for i in "abc"))
        matrix = CitationMatrix(np.array([[4.0, 1.0, 0.0], [2.0, 3.0, 0.0], [1.0, 1.0, 0.0]]))
        with pytest.raises(PreconditionViolated, match="^proportionality needs strictly positive scores$"):
            jr.af_endpoint_check(journals, matrix)

    def test_influence_endpoint_on_fixture_and_counterexample(self, two_field, near_decomposable):
        journals, matrix = two_field
        assert jr.ipp_endpoint_check(journals, matrix).passed
        js2, cm2, _ = near_decomposable
        report = jr.ipp_endpoint_check(js2, cm2)
        assert report.passed

    def test_influence_endpoint_solves_the_undamped_vector_once(self, monkeypatch):
        # IPP and AI(1) read one alpha = 1 vector, here on the power path.
        journals, matrix, _ = make_block(seed=3, m=200, within=0.025, cross=0.0025)
        assert matrix.sparse and matrix.n > spectral.DIRECT_LIMIT
        solves = counted_solves(monkeypatch)
        assert jr.ipp_endpoint_check(journals, matrix).passed
        assert solves == [(1.0, SolverConfig())]

    def test_influence_endpoint_requires_irreducibility(self):
        journals = JournalSet((Journal("a", None, 5, 5), Journal("b", None, 5, 5)))
        matrix = CitationMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(NotIrreducible):
            jr.ipp_endpoint_check(journals, matrix)

    @pytest.mark.parametrize("seed", range(10))
    def test_both_endpoints_on_random_instances(self, seed):
        eta = (1.0, 2.0, 3.0)[seed % 3]
        journals, matrix, _ = make_block(seed, m=5, eta=eta)
        assert jr.af_endpoint_check(journals, matrix, DIRECT).passed
        assert jr.ipp_endpoint_check(journals, matrix, DIRECT).passed


class TestMutualExclusivity:
    @pytest.mark.parametrize("seed", range(6))
    def test_each_indicator_keeps_its_own_property(self, seed):
        # Adding one rarely cited journal: the audience factor keeps its
        # field-mean guarantee on the modified instance, while the recursive
        # per-article influence of the incumbents barely moves. Counts are at
        # the bundled example's scale.
        eta = (1.0, 2.0, 3.0)[seed % 3]
        journals, matrix, partition = make_block(
            seed, m=4, within=250.0, cross=25.0, eta=eta
        )
        extended, extended_matrix, extended_partition = add_insignificant_journal(
            journals, matrix, partition, seed, cross_mean=25.0, within_mean=250.0
        )
        assert jr.structure(extended_matrix).irreducible

        af_report = jr.field_insensitivity_check(
            extended,
            extended_matrix,
            extended_partition,
            jr.audience_factor(extended, extended_matrix),
        )
        assert all(af_report.bounds_hold)

        before = jr.influence_per_publication(journals, matrix, DIRECT).values
        after = jr.influence_per_publication(extended, extended_matrix, DIRECT).values[: journals.n]
        assert np.max(np.abs(after - before) / before) <= 0.02
