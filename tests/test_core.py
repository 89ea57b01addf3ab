import copy
import time
import tracemalloc

import numpy as np
import pytest

import journalrank as jr
from journalrank import core
from journalrank.errors import IndexOutOfRange, NotIrreducible, ValidationError


def journals_of(*triples):
    return jr.JournalSet(tuple(jr.Journal(i, None, a1, a2) for i, a1, a2 in triples))


class TestValidate:
    def test_two_field_fixture_is_valid(self, two_field):
        journals, matrix = two_field
        assert jr.validate(journals, matrix) == (journals, matrix)

    def test_dimension_mismatch(self):
        journals = journals_of(("a", 1, 1), ("b", 1, 1), ("c", 1, 1))
        matrix = jr.CitationMatrix(np.ones((2, 2)))
        with pytest.raises(ValidationError) as err:
            jr.validate(journals, matrix)
        assert [i.code for i in err.value.issues] == ["DimensionMismatch"]

    def test_negative_cell_is_located(self):
        journals = journals_of(("a", 1, 1), ("b", 1, 1))
        matrix = jr.CitationMatrix(np.array([[-1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(ValidationError) as err:
            jr.validate(journals, matrix)
        (issue,) = err.value.issues
        assert issue.code == "NegativeCount"
        assert issue.cell == (0, 0)

    @pytest.mark.parametrize(
        "counts, expected",
        [
            ([[1e308, 1e308], [3.0, 4.0]], [("citations made by journal 'a' sum beyond the float range", "a")]),
            ([[1e308, 0.0], [1e308, 1.0]], [("citations received by journal 'a' sum beyond the float range", "a")]),
            ([[1e308, 0.0], [0.0, 1e308]], [("the matrix's citations sum beyond the float range", None)]),
            (
                [[1e308, 1e308], [1e308, 1.0]],
                [
                    ("citations made by journal 'a' sum beyond the float range", "a"),
                    ("citations received by journal 'a' sum beyond the float range", "a"),
                ],
            ),
        ],
        ids=["row", "column", "total", "row_and_column"],
    )
    def test_sums_beyond_the_float_range_are_reported(self, counts, expected):
        # Every cell is finite; only their sums overflow. Building the matrix
        # and validating it raise no overflow warning (warnings are errors here).
        journals = journals_of(("a", 1, 1), ("b", 1, 1))
        matrix = jr.CitationMatrix(np.array(counts))
        with pytest.raises(ValidationError) as err:
            jr.validate(journals, matrix)
        assert [(i.code, i.message, i.journal) for i in err.value.issues] == [("SumOverflow", *e) for e in expected]

    def test_article_counts_summing_beyond_the_float_range_are_reported(self):
        # Each count is finite; only each period's sum overflows.
        journals = journals_of(("a", 1e308, 1), ("b", 1e308, 1e308), ("c", 1, 1e308))
        with pytest.raises(ValidationError) as err:
            jr.validate(journals, jr.CitationMatrix(np.ones((3, 3))))
        assert [(i.code, i.message, i.journal) for i in err.value.issues] == [
            ("SumOverflow", f"articles_t{period} counts sum beyond the float range", None) for period in (1, 2)
        ]

    @pytest.mark.parametrize("bad", [np.inf, -1.0])
    def test_unsound_article_counts_report_no_overflowing_sum(self, bad):
        journals = journals_of(("a", 1e308, 1), ("b", 1e308, 1), ("c", bad, 1))
        with pytest.raises(ValidationError) as err:
            jr.validate(journals, jr.CitationMatrix(np.ones((3, 3))))
        assert [i.code for i in err.value.issues] == ["NegativeCount" if bad < 0 else "NonFiniteCount"]

    def test_overflowing_sum_of_a_mismatched_matrix_is_named_by_index(self):
        journals = journals_of(("a", 1, 1))
        matrix = jr.CitationMatrix(np.array([[1.0, 0.0], [1e308, 1e308]]))
        with pytest.raises(ValidationError) as err:
            jr.validate(journals, matrix)
        assert [(i.code, i.message, i.journal) for i in err.value.issues] == [
            ("DimensionMismatch", "journal set has 1 journals but matrix is 2x2", None),
            ("SumOverflow", "citations made by matrix index 1 sum beyond the float range", None),
        ]

    def test_bad_cells_are_reported_before_overflowing_sums(self):
        journals = journals_of(("a", 1, 1), ("b", 1, 1))
        matrix = jr.CitationMatrix(np.array([[1e308, 1e308], [np.nan, 4.0]]))
        with pytest.raises(ValidationError) as err:
            jr.validate(journals, matrix)
        assert [(i.code, i.cell) for i in err.value.issues] == [("NonFiniteCount", (1, 0))]

    @pytest.mark.parametrize(
        "value, code, what",
        [
            (np.nan, "NonFiniteCount", "is not finite"),
            (np.inf, "NonFiniteCount", "is not finite"),
            (-np.inf, "NonFiniteCount", "is not finite"),
            (-2.0, "NegativeCount", "is negative"),
        ],
        ids=["nan", "inf", "minus_inf", "negative"],
    )
    def test_bad_cell_records(self, value, code, what):
        journals = journals_of(("a", 1, 1), ("b", 1, 1))
        counts = np.ones((2, 2))
        counts[1, 0] = value
        with pytest.raises(ValidationError) as err:
            jr.validate(journals, jr.CitationMatrix(counts))
        assert [(i.code, i.message, i.cell) for i in err.value.issues] == [(code, f"matrix cell (1, 0) {what}", (1, 0))]
        assert err.value.issue_count == 1

    def test_duplicate_and_empty_ids(self):
        journals = journals_of(("a", 1, 1), ("a", 1, 1), ("", 1, 1))
        matrix = jr.CitationMatrix(np.ones((3, 3)))
        with pytest.raises(ValidationError) as err:
            jr.validate(journals, matrix)
        codes = sorted(i.code for i in err.value.issues)
        assert codes == ["DuplicateId", "EmptyId"]

    def test_all_violations_reported_together(self):
        journals = journals_of(("a", -1, 1), ("a", 1, 1))
        matrix = jr.CitationMatrix(np.array([[1.0, -2.0], [np.nan, 4.0]]))
        with pytest.raises(ValidationError) as err:
            jr.validate(journals, matrix)
        codes = sorted(i.code for i in err.value.issues)
        assert codes == ["DuplicateId", "NegativeCount", "NegativeCount", "NonFiniteCount"]
        assert err.value.issue_count == 4
        assert str(err.value) == (
            "4 validation issue(s): articles_t1 of journal 'a' is negative; "
            "journal id 'a' appears at indices 0 and 1; matrix cell (1, 0) is not finite; "
            "matrix cell (0, 1) is negative"
        )

    def test_long_ids_are_quoted_to_forty_characters(self):
        long_id = "L" * 5000
        shown = f"{'L' * 40!r}… (5000 characters)"
        journals = journals_of((long_id, -1, float("nan")), (long_id, 1, 1))
        with pytest.raises(ValidationError) as err:
            jr.validate(journals, jr.CitationMatrix(np.ones((2, 2))))
        assert [(i.code, i.message, i.journal) for i in err.value.issues] == [
            ("NegativeCount", f"articles_t1 of journal {shown} is negative", long_id),
            ("NonFiniteCount", f"articles_t2 of journal {shown} is not finite", long_id),
            ("DuplicateId", f"journal id {shown} appears at indices 0 and 1", long_id),
        ]
        with pytest.raises(KeyError, match="unknown journal id 'L+'… \\(5001 characters\\)"):
            journals.index_of(long_id + "!")

    def test_huge_violation_is_counted_not_listed(self):
        n = 1000
        journals = journals_of(*((f"J{k}", 1, 1) for k in range(n)))
        counts = -np.ones((n, n))
        counts[0, 0] = np.nan
        start = time.perf_counter()
        with pytest.raises(ValidationError) as err:
            jr.validate(journals, jr.CitationMatrix(counts))
        # One Issue per cell took about 4 s for this input (2-vCPU x86-64 VM)
        # and built a 36 MB message.
        assert time.perf_counter() - start < 1.0
        cap = core.MAX_ISSUES_PER_CODE
        issues = err.value.issues
        assert [i.code for i in issues] == ["NonFiniteCount"] + ["NegativeCount"] * cap
        assert [i.cell for i in issues[1:4]] == [(0, 1), (0, 2), (0, 3)]
        assert err.value.issue_count == n * n
        message = str(err.value)
        assert message.startswith(f"{n * n} validation issue(s): matrix cell (0, 0) is not finite; ")
        assert message.endswith(f"; … and {n * n - 1 - cap} more")
        assert len(message) < 100 * (cap + 1)

    def test_cap_is_per_code_and_shared_by_journals_and_cells(self):
        cap = core.MAX_ISSUES_PER_CODE
        n = cap + 5
        journals = journals_of(*((f"J{k}", -1, 1) for k in range(n)))
        counts = np.ones((n, n))
        counts[2, 3] = -1.0
        with pytest.raises(ValidationError) as err:
            jr.validate(journals, jr.CitationMatrix(counts))
        issues = err.value.issues
        assert len(issues) == cap
        assert all(i.code == "NegativeCount" and i.cell is None for i in issues)
        assert err.value.issue_count == n + 1


class TestStructure:
    def test_two_field_fixture(self, two_field):
        _, matrix = two_field
        report = jr.structure(matrix)
        assert report.irreducible

    def test_two_field_reachability_oracle(self, two_field):
        # Exhaustive reachability (Floyd-Warshall closure) as an independent
        # check of the strong-connectivity verdict.
        _, matrix = two_field
        reach = matrix.counts > 0
        n = matrix.n
        for k in range(n):
            reach = reach | (reach[:, [k]] & reach[[k], :])
        assert bool(reach.all())
        assert jr.structure(matrix).irreducible

    def test_pure_cycle_periodic(self):
        report = jr.structure(jr.CitationMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert report.irreducible

    def test_disconnected_self_loops(self):
        report = jr.structure(jr.CitationMatrix(np.array([[1.0, 0.0], [0.0, 1.0]])))
        assert not report.irreducible

    def test_dangling_and_zero_columns(self):
        counts = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        report = jr.structure(jr.CitationMatrix(counts))
        assert not report.irreducible
        # The dangling, uncited journal is a component of its own.
        assert [2] in core.strongly_connected_components(counts)

    def test_single_journal_conventions(self):
        assert jr.structure(jr.CitationMatrix(np.array([[3.0]]))).irreducible
        assert not jr.structure(jr.CitationMatrix(np.array([[0.0]]))).irreducible

    def test_pattern_only_dependence(self, two_field):
        # Rescaling entries by arbitrary positive factors leaves the report alone.
        _, matrix = two_field
        rng = np.random.default_rng(7)
        scaled = matrix.counts * rng.uniform(0.1, 10.0, size=matrix.counts.shape)
        assert jr.structure(jr.CitationMatrix(scaled)) == jr.structure(matrix)

    def test_dag_has_no_cycles_hence_not_aperiodic(self):
        report = jr.structure(jr.CitationMatrix(np.array([[0.0, 1.0], [0.0, 0.0]])))
        assert not report.irreducible


class TestIsIrreducible:
    @pytest.mark.parametrize(
        "counts, expected",
        [
            ([[3.0]], True),
            ([[0.0]], False),
            ([[0.0, 1.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], False),  # DAG
            ([[1.0, 2.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 2.0], [0.0, 0.0, 2.0, 1.0]], False),
            ([[0.0, 1.0], [1.0, 0.0]], True),  # periodic 2-cycle
            ([[0.0, 1.0], [0.0, 1.0]], False),  # journal 0 reaches all, nobody reaches it
            ([[1.0, 0.0], [1.0, 0.0]], False),  # all reach journal 0, it reaches nobody
            (np.zeros((0, 0)), False),
        ],
        ids=["single_self_loop", "single_no_loop", "dag", "two_blocks", "two_cycle", "source", "sink", "empty"],
    )
    def test_edge_cases_match_structure(self, counts, expected):
        matrix = jr.CitationMatrix(np.array(counts))
        assert matrix.irreducible is expected
        assert jr.structure(matrix).irreducible is expected
        if expected:
            assert core.require_irreducible(matrix) is None
        else:
            with pytest.raises(NotIrreducible) as err:
                core.require_irreducible(matrix)
            assert err.value.components == (core.strongly_connected_components(matrix) or None)

    def test_matches_tarjan_on_seeded_random_graphs(self):
        rng = np.random.default_rng(11)
        verdicts = []
        for _ in range(300):
            n = int(rng.integers(1, 40))
            density = rng.uniform(0.01, 0.3)
            counts = (rng.random((n, n)) < density) * rng.integers(1, 5, size=(n, n)).astype(float)
            verdict = jr.CitationMatrix(counts).irreducible
            assert verdict == jr.structure(counts).irreducible, counts
            verdicts.append(verdict)
        assert 30 <= sum(verdicts) <= 270

    @pytest.mark.parametrize("density", (0.0, 2.0), ids=("dense", "sparse"))
    def test_components_match_scipy_on_seeded_random_patterns(self, density, monkeypatch):
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        monkeypatch.setattr(core, "SPARSE_DENSITY", density)
        rng = np.random.default_rng(29)
        verdicts = []
        for trial in range(200):
            n = 1 if trial < 10 else int(rng.integers(2, 40))
            counts = (rng.random((n, n)) < rng.uniform(0.02, 0.4)) * rng.integers(1, 5, size=(n, n)).astype(float)
            counts[np.diag_indices(n)] = rng.random(n) < 0.3  # self-loops
            if trial % 4 == 0:
                counts[rng.random(n) < 0.1] = 0.0  # zero rows
            # Negative and NaN cells are stored non-zeros, but no links.
            counts[rng.random((n, n)) < 0.02] = rng.choice((-1.0, np.nan))
            matrix = jr.CitationMatrix(counts)
            assert matrix.sparse is (density > 0)
            count, labels = csgraph.connected_components((counts > 0).astype(float), connection="strong")
            expected = sorted(np.flatnonzero(labels == k).tolist() for k in range(count))
            assert sorted(map(sorted, core.strongly_connected_components(matrix))) == expected
            assert matrix.irreducible == (count == 1 and (n > 1 or counts[0, 0] > 0))
            assert matrix.sparse is ("counts" not in matrix.__dict__)
            verdicts.append(matrix.irreducible)
        assert 40 <= sum(verdicts) <= 160


def flat_nonzeros(counts):
    """The non-zero triplets as the scan of the float cells finds them."""
    flat = np.flatnonzero(counts)
    rows, cols = np.divmod(flat, counts.shape[0])
    return rows, cols, counts.ravel()[flat]


class TestNonzeros:
    @pytest.mark.parametrize(
        "cell",
        [np.nan, np.inf, -np.inf, -0.0, -2.5, 0.0, 3.0],
        ids=["nan", "inf", "-inf", "-0.0", "negative", "zero", "positive"],
    )
    @pytest.mark.parametrize("density", (0.0, 2.0), ids=("dense", "sparse"))
    def test_mask_scan_finds_the_float_scan_triplets(self, cell, density, monkeypatch):
        monkeypatch.setattr(core, "SPARSE_DENSITY", density)
        counts = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        counts[1, 1] = cell
        expected = flat_nonzeros(counts)
        matrix = jr.CitationMatrix(counts)
        assert matrix.sparse is (density > 0)
        for found in (core._nonzeros(counts), matrix.nonzeros):
            for a, e in zip(found, expected):
                assert a.dtype == e.dtype and a.tobytes() == e.tobytes()
        assert matrix.nonzero_count == expected[0].size


@pytest.fixture(scope="module")
def split_fields():
    """A 4000-journal instance stored sparse, and its matrix without the two
    bridge citations between the fields: every journal still cites inside
    its field, but the fields no longer reach each other."""
    journals, matrix, _ = jr.block_model(jr.BlockModelSpec(2000, within_mean=0.02, cross_mean=0.0, seed=1))
    rows, cols, values = matrix.nonzeros
    inside = (rows < 2000) == (cols < 2000)
    split = core.CitationMatrix._adopt((rows[inside], cols[inside], values[inside]), n=4000)
    assert matrix.sparse and split.sparse and np.all(split.row_sums > 0)
    return journals, matrix, split


def peak_while_raising(error, call):
    """The peak memory traced while call() raises error, and the error."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        with pytest.raises(error) as err:
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before, err.value


class TestSparseFailurePaths:
    """The failure paths of a sparse-stored matrix read its non-zeros: the
    dense counts alone of this instance would take 122 MiB."""

    def test_components_of_split_fields(self, split_fields):
        journals, _, split = split_fields
        peak, err = peak_while_raising(NotIrreducible, lambda: jr.compute("ipp", journals, split))
        assert sorted(map(sorted, err.components)) == [list(range(2000)), list(range(2000, 4000))]
        assert peak <= 16 * 2**20
        assert "counts" not in split.__dict__

    def test_validate_a_negative_cell(self, split_fields):
        journals, matrix, _ = split_fields
        rows, cols, values = (array.copy() for array in matrix.nonzeros)
        values[1234] = -1.0
        negative = core.CitationMatrix._adopt((rows, cols, values), n=matrix.n)
        peak, err = peak_while_raising(ValidationError, lambda: jr.validate(journals, negative))
        assert [(i.code, i.cell) for i in err.issues] == [("NegativeCount", (int(rows[1234]), int(cols[1234])))]
        assert peak <= 16 * 2**20
        assert "counts" not in negative.__dict__


class TestDropJournal:
    def test_drop_last_journal_row_sums(self, two_field):
        journals, matrix = two_field
        reduced_journals, reduced_matrix = jr.drop_journal(journals, matrix, 7)
        assert reduced_journals.n == 7
        np.testing.assert_array_equal(
            reduced_matrix.row_sums, [2221, 2221, 2221, 2221, 2212, 2212, 2212]
        )
        # original untouched
        np.testing.assert_array_equal(matrix.row_sums, [2222] * 8)
        assert journals.n == 8

    def test_drop_revalidates(self, two_field):
        journals, matrix = two_field
        assert jr.validate(*jr.drop_journal(journals, matrix, 3))

    def test_minimal_case_keeps_self_count(self):
        journals = journals_of(("a", 1, 1), ("b", 1, 1))
        matrix = jr.CitationMatrix(np.array([[5.0, 2.0], [3.0, 7.0]]))
        kept_journals, kept_matrix = jr.drop_journal(journals, matrix, 0)
        assert kept_journals.ids == ("b",)
        np.testing.assert_array_equal(kept_matrix.counts, [[7.0]])

    def test_index_out_of_range(self, two_field):
        journals, matrix = two_field
        with pytest.raises(IndexOutOfRange):
            jr.drop_journal(journals, matrix, 8)

    def test_only_journal_cannot_be_dropped(self):
        journals = journals_of(("a", 1, 1))
        with pytest.raises(ValueError, match="^cannot drop the only journal$"):
            jr.drop_journal(journals, jr.CitationMatrix(np.array([[3.0]])), 0)

    @pytest.mark.parametrize(
        "index, shown", [(1.5, "float '1.5'"), (True, "bool 'True'"), (np.True_, "bool 'True'"), ("3", "str '3'")]
    )
    def test_non_integer_index_rejected(self, two_field, index, shown):
        journals, matrix = two_field
        with pytest.raises(TypeError, match=f"^journal index must be an integer, got {shown}$"):
            jr.drop_journal(journals, matrix, index)

    def test_numpy_integer_index_accepted(self, two_field):
        journals, matrix = two_field
        reduced_journals, reduced_matrix = jr.drop_journal(journals, matrix, np.int64(2))
        assert reduced_journals.ids == ("J1", "J2", "J4", "J5", "J6", "J7", "J8")
        np.testing.assert_array_equal(reduced_matrix.counts, np.delete(np.delete(matrix.counts, 2, 0), 2, 1))

    def test_structure_after_drop_matches_is_irreducible(self, two_field):
        journals, matrix = two_field
        for index in range(journals.n):
            _, reduced = jr.drop_journal(journals, matrix, index)
            assert jr.structure(reduced).irreducible == reduced.irreducible


class TestInvariants:
    def test_row_sum_total_matches_grand_total(self, zoo):
        for _, _, matrix in zoo:
            assert matrix.row_sums.sum() == pytest.approx(matrix.counts.sum(), rel=1e-12)

    def test_matrix_is_immutable(self, two_field):
        _, matrix = two_field
        with pytest.raises(ValueError):
            matrix.counts[0, 0] = 1.0

    def test_array_copy_is_writable(self, two_field):
        _, matrix = two_field
        copy = np.array(matrix, copy=True)
        copy[0, 0] = -1.0
        assert copy.flags.writeable
        assert matrix.counts[0, 0] == 1000.0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            jr.CitationMatrix(np.ones((2, 3)))

    def test_index_of(self, two_field):
        journals, _ = two_field
        assert journals.index_of("J3") == 2
        with pytest.raises(KeyError):
            journals.index_of("nope")

    def test_array_holding_values_compare_and_hash_by_identity(self, two_field):
        # A field-by-field __eq__ compares arrays, which have no single truth
        # value, so == and `in` would raise ValueError and hash() TypeError.
        journals, matrix = two_field
        vector = jr.impact_factor(journals, matrix)
        values = (
            matrix,
            vector,
            jr.leave_one_out(journals, matrix, 7, "if"),
            jr.correlation_table([vector, jr.audience_factor(journals, matrix)]),
        )
        for value in values:
            twin = copy.copy(value)
            assert value == value and value != twin
            assert value in [twin, value] and twin not in [value]
            assert hash(value) == hash(value)
