import csv

import numpy as np
import pytest

import journalrank as jr
from journalrank import dataio
from journalrank.errors import ValidationError

from conftest import make_block


def roundtrip(tmp_path, journals, matrix):
    dataio.write_journals(tmp_path / "journals.csv", journals)
    dataio.write_matrix(tmp_path / "matrix.csv", journals, matrix)
    first_j = (tmp_path / "journals.csv").read_bytes()
    first_m = (tmp_path / "matrix.csv").read_bytes()
    read_journals = dataio.read_journals(tmp_path / "journals.csv")
    read_matrix = dataio.read_matrix(tmp_path / "matrix.csv", read_journals)
    dataio.write_journals(tmp_path / "journals2.csv", read_journals)
    dataio.write_matrix(tmp_path / "matrix2.csv", read_journals, read_matrix)
    assert (tmp_path / "journals2.csv").read_bytes() == first_j
    assert (tmp_path / "matrix2.csv").read_bytes() == first_m
    return read_journals, read_matrix


class TestRoundTrip:
    def test_two_field_fixture(self, tmp_path, two_field):
        journals, matrix = two_field
        read_journals, read_matrix = roundtrip(tmp_path, journals, matrix)
        assert read_journals == journals
        np.testing.assert_array_equal(read_matrix.counts, matrix.counts)

    def test_block_model_instance(self, tmp_path):
        journals, matrix, _ = make_block(seed=13, m=6)
        read_journals, read_matrix = roundtrip(tmp_path, journals, matrix)
        assert read_journals.ids == journals.ids
        np.testing.assert_array_equal(read_matrix.counts, matrix.counts)

    def test_names_with_commas_survive(self, tmp_path):
        journals = jr.JournalSet(
            (
                jr.Journal("a", "Annals, Series A", 5, 5),
                jr.Journal("b", None, 5, 5),
            )
        )
        matrix = jr.CitationMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
        read_journals, _ = roundtrip(tmp_path, journals, matrix)
        assert read_journals.journals[0].name == "Annals, Series A"
        assert read_journals.journals[1].name is None


class TestMatrixHeaderContract:
    def test_corner_cell_literal(self, tmp_path, two_field):
        journals, matrix = two_field
        dataio.write_matrix(tmp_path / "m.csv", journals, matrix)
        first_line = (tmp_path / "m.csv").read_text().splitlines()[0]
        assert first_line.startswith("citing\\cited,J1,")

    def test_header_id_mismatch_rejected(self, tmp_path, two_field):
        journals, matrix = two_field
        dataio.write_matrix(tmp_path / "m.csv", journals, matrix)
        text = (tmp_path / "m.csv").read_text().replace("citing\\cited,J1", "citing\\cited,XX")
        (tmp_path / "bad.csv").write_text(text)
        with pytest.raises(ValidationError) as err:
            dataio.read_matrix(tmp_path / "bad.csv", journals)
        assert err.value.issues[0].code == "HeaderMismatch"

    def test_row_label_order_enforced(self, tmp_path, two_field):
        journals, matrix = two_field
        dataio.write_matrix(tmp_path / "m.csv", journals, matrix)
        lines = (tmp_path / "m.csv").read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError):
            dataio.read_matrix(tmp_path / "bad.csv", journals)

    def test_non_integer_count_rejected(self, tmp_path, two_field):
        journals, matrix = two_field
        dataio.write_matrix(tmp_path / "m.csv", journals, matrix)
        text = (tmp_path / "m.csv").read_text().replace("J1,1000", "J1,10.5x")
        (tmp_path / "bad.csv").write_text(text)
        with pytest.raises(ValidationError) as err:
            dataio.read_matrix(tmp_path / "bad.csv", journals)
        (issue,) = err.value.issues
        assert issue.code == "NonIntegerCount"
        assert issue.message == "citation count ('J1' -> 'J1') is not an integer: '10.5x'"


class TestJournalsFile:
    def test_header_enforced(self, tmp_path):
        (tmp_path / "j.csv").write_text("journal,articles\nJ1,5\n")
        with pytest.raises(ValidationError):
            dataio.read_journals(tmp_path / "j.csv")

    def test_counts_must_be_integers(self, tmp_path):
        (tmp_path / "j.csv").write_text("id,name,articles_t1,articles_t2\nJ1,,ten,10\n")
        with pytest.raises(ValidationError):
            dataio.read_journals(tmp_path / "j.csv")


class TestPartitionFile:
    def test_roundtrip_and_validation(self, tmp_path, two_field):
        journals, _ = two_field
        partition = jr.two_field_partition()
        dataio.write_partition(tmp_path / "p.csv", journals, partition)
        read = dataio.read_partition(tmp_path / "p.csv", journals)
        assert read == partition

    def test_must_cover_journal_set(self, tmp_path, two_field):
        journals, _ = two_field
        (tmp_path / "p.csv").write_text("id,field\nJ1,1\nJ2,2\n")
        with pytest.raises(ValidationError):
            dataio.read_partition(tmp_path / "p.csv", journals)

    def test_duplicate_id_rejected(self, tmp_path, two_field):
        journals, _ = two_field
        rows = ["id,field", "J1,1"] + [f"{i},2" for i in journals.ids]
        (tmp_path / "p.csv").write_text("\n".join(rows) + "\n")
        with pytest.raises(ValidationError) as err:
            dataio.read_partition(tmp_path / "p.csv", journals)
        (issue,) = err.value.issues
        assert (issue.code, issue.journal) == ("DuplicateId", "J1")
        assert issue.message == "journal 'J1' assigned twice"

    def test_field_labels_restricted(self, tmp_path, two_field):
        journals, _ = two_field
        rows = ["id,field"] + [f"{i},3" for i in journals.ids]
        (tmp_path / "p.csv").write_text("\n".join(rows) + "\n")
        with pytest.raises(ValidationError):
            dataio.read_partition(tmp_path / "p.csv", journals)


def write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def abc_journals():
    return jr.JournalSet(tuple(jr.Journal(i, None, 5, 5) for i in "abc"))


def read_cells(tmp_path, cells):
    """Read a 3x3 matrix.csv whose data cells are ``cells`` (row-major)."""
    rows = [["citing\\cited", "a", "b", "c"]]
    rows += [[ident] + list(cells[3 * k : 3 * k + 3]) for k, ident in enumerate("abc")]
    write_rows(tmp_path / "m.csv", rows)
    return dataio.read_matrix(tmp_path / "m.csv", abc_journals())


def read_cells_per_cell(cells):
    """The per-cell reference reader: int() on each cell in row-major order."""
    counts = np.zeros((3, 3))
    for k, cell in enumerate(cells):
        try:
            counts[divmod(k, 3)] = int(cell)
        except ValueError:
            row, col = divmod(k, 3)
            return ("abc"[row], "abc"[col], cell)
    return counts


class TestCountCells:
    @pytest.mark.parametrize(
        "cell", ["+3", " 4", "1_000", "\u0663", "-0", "99999999999999999999", "9223372036854775808"]
    )
    def test_int_syntax_accepted(self, tmp_path, cell):
        matrix = read_cells(tmp_path, ["1", cell, "2", cell, "3", "4", "5", "6", cell])
        for position in ((0, 1), (1, 0), (2, 2)):
            assert matrix.counts[position] == float(int(cell))
        assert matrix.counts[0, 0] == 1.0 and matrix.counts[2, 1] == 6.0

    @pytest.mark.parametrize("cell", ["1.5", "1e3", "nan", "", "0x10", "1__0", "ten"])
    def test_bad_cell_after_good_ones_is_named(self, tmp_path, cell):
        with pytest.raises(ValidationError) as err:
            read_cells(tmp_path, ["1", "2", "3", "4", "5", cell, "7", "8", "9"])
        (issue,) = err.value.issues
        assert issue.code == "NonIntegerCount"
        assert issue.message == f"citation count ('b' -> 'c') is not an integer: {cell!r}"

    def test_long_bad_cell_is_quoted_in_part(self, tmp_path):
        for cell, quoted in (("y" * 40, repr("y" * 40)), ("y" * 41, f"{'y' * 40!r}… (41 characters)")):
            with pytest.raises(ValidationError) as err:
                read_cells(tmp_path, ["1", "2", "3", "4", "5", cell, "7", "8", "9"])
            assert err.value.issues[0].message == f"citation count ('b' -> 'c') is not an integer: {quoted}"

    @pytest.mark.parametrize(
        "cell", ["9" * 5000, "-" + "9" * 5000, " +" + "\u0663" * 5000], ids=["digits", "negative", "arabic_indic"]
    )
    def test_digits_beyond_the_int_conversion_cap_are_too_large(self, tmp_path, cell):
        with pytest.raises(ValidationError) as err:
            read_cells(tmp_path, ["1", "2", "3", "4", "5", cell, "7", "8", "9"])
        (issue,) = err.value.issues
        assert issue.code == "CountTooLarge"
        assert issue.message == "citation count ('b' -> 'c') has 5000 digits, too large for a float"

    def test_first_bad_cell_in_row_major_order_is_reported(self, tmp_path):
        cells = ["1", "2", "3", "4", "99999999999999999999", "x", "7", "y", "9"]
        with pytest.raises(ValidationError) as err:
            read_cells(tmp_path, cells)
        assert err.value.issues[0].message == "citation count ('b' -> 'c') is not an integer: 'x'"
        cells[5] = "5"
        with pytest.raises(ValidationError) as err:
            read_cells(tmp_path, cells)
        assert err.value.issues[0].message == "citation count ('c' -> 'b') is not an integer: 'y'"

    def test_bad_cell_is_reported_before_a_later_bad_row(self, tmp_path):
        rows = [["citing\\cited", "a", "b", "c"], ["a", "1", "z", "3"], ["b", "1", "2"], ["c", "1", "2", "3"]]
        write_rows(tmp_path / "m.csv", rows)
        with pytest.raises(ValidationError) as err:
            dataio.read_matrix(tmp_path / "m.csv", abc_journals())
        assert err.value.issues[0].code == "NonIntegerCount"

    def test_matches_per_cell_reader_on_random_cells(self, tmp_path):
        pool = ["0", "7", "-3", "+3", " 4", "1_000", "\u0663", "-0", "12345678901234567890123", "9223372036854775807",
                "-9223372036854775808", "1.5", "", "nan", "1e3", "x"]
        # Good cells four times as likely as bad ones, so that some files read through.
        weights = np.array([4.0] * 11 + [1.0] * 5)
        rng = np.random.default_rng(5)
        for _ in range(150):
            picks = rng.choice(len(pool), size=9, p=weights / weights.sum())
            cells = [pool[k] for k in picks]
            expected = read_cells_per_cell(cells)
            if isinstance(expected, tuple):
                with pytest.raises(ValidationError) as err:
                    read_cells(tmp_path, cells)
                row, col, text = expected
                assert err.value.issues[0].message == (
                    f"citation count ({row!r} -> {col!r}) is not an integer: {text!r}"
                )
            else:
                np.testing.assert_array_equal(read_cells(tmp_path, cells).counts, expected)


def write_matrix_per_cell(path, ids, counts):
    """The per-cell reference writer."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["citing\\cited"] + list(ids))
        for ident, row in zip(ids, counts):
            cells = [str(int(v)) if float(v).is_integer() else repr(float(v)) for v in row]
            writer.writerow([ident] + cells)


class TestWriteMatrix:
    @pytest.mark.parametrize(
        "counts",
        [
            [[1.0, 2.0], [3.0, 4.0]],
            [[-0.0, 2.0], [0.0, -7.0]],
            [[1.5, 2.0], [3.0, 4.0]],
            [[np.nan, -np.inf], [np.inf, 2.0]],
            [[2.0**63, 1.0], [-(2.0**63), 1e300]],
            [[2.0**63 - 1024, 1.0], [-(2.0**63) + 1024, 2.0**53 + 2]],
            [[0.0, 0.0], [0.0, 0.0]],
        ],
        ids=["integral", "negative-zero", "non-integral", "non-finite", "beyond-int64", "int64-edge", "zeros"],
    )
    def test_bytes_match_per_cell_writer(self, tmp_path, counts):
        ids = ['a,"b"', "say \"hi\", then"]
        journals = jr.JournalSet(tuple(jr.Journal(i, None, 1, 1) for i in ids))
        matrix = jr.CitationMatrix(np.array(counts))
        dataio.write_matrix(tmp_path / "fast.csv", journals, matrix)
        write_matrix_per_cell(tmp_path / "reference.csv", ids, matrix.counts)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_block_model_bytes_match_per_cell_writer(self, tmp_path):
        journals, matrix, _ = make_block(seed=21, m=12)
        dataio.write_matrix(tmp_path / "fast.csv", journals, matrix)
        write_matrix_per_cell(tmp_path / "reference.csv", journals.ids, matrix.counts)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_non_integral_matrix_does_not_read_back(self, tmp_path):
        journals = abc_journals()
        counts = np.ones((3, 3))
        counts[1, 2] = 1.5
        dataio.write_matrix(tmp_path / "m.csv", journals, jr.CitationMatrix(counts))
        with pytest.raises(ValidationError) as err:
            dataio.read_matrix(tmp_path / "m.csv", journals)
        (issue,) = err.value.issues
        assert issue.code == "NonIntegerCount"
        assert issue.message == "citation count ('b' -> 'c') is not an integer: '1.5'"
