import csv

import numpy as np
import pytest

import journalrank as jr
from journalrank import core, dataio
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


    def test_round_trip_holds_up_to_the_csv_field_limit(self, tmp_path):
        # The csv module reads fields of at most 131072 characters.
        matrix = jr.CitationMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
        longest = jr.JournalSet((jr.Journal("i" * 131_072, "n" * 131_072, 5, 5), jr.Journal("b", None, 5, 5)))
        read_journals, _ = roundtrip(tmp_path, longest, matrix)
        assert read_journals == longest
        too_long = jr.JournalSet((jr.Journal("i" * 131_073, None, 5, 5), jr.Journal("b", None, 5, 5)))
        dataio.write_journals(tmp_path / "long.csv", too_long)
        with pytest.raises(ValidationError) as info:
            dataio.read_journals(tmp_path / "long.csv")
        (issue,) = info.value.issues
        assert (issue.code, issue.message) == (
            "MalformedCsv",
            f"{tmp_path / 'long.csv'}, line 2: field larger than field limit (131072)",
        )


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

    @pytest.mark.parametrize(
        "body, code, message",
        [
            ("J1,,5,5\nJ2,,5\n", "BadRow", "journals row has 3 fields, expected 4"),
            ("", "EmptyFile", "journals file lists no journals"),
        ],
    )
    def test_bad_rows_and_empty_file(self, tmp_path, body, code, message):
        (tmp_path / "j.csv").write_text("id,name,articles_t1,articles_t2\n" + body)
        with pytest.raises(ValidationError) as err:
            dataio.read_journals(tmp_path / "j.csv")
        (issue,) = err.value.issues
        assert (issue.code, issue.message) == (code, message)


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

    @pytest.mark.parametrize(
        "listed, missing, extra",
        [
            (["J1", "J2", "J3", "X"], "['J4', 'J5', 'J6', 'J7', 'J8']", "['X']"),
            (["J1"], "['J2', 'J3', 'J4', 'J5', 'J6', … 7 in all]", "[]"),
            (["J1", "J2", *"ABCDEF"], "['J3', 'J4', 'J5', 'J6', 'J7', … 6 in all]", "['A', 'B', 'C', 'D', 'E', … 6 in all]"),
        ],
        ids=["five_missing", "seven_missing", "six_of_each"],
    )
    def test_mismatch_lists_at_most_five_ids_of_each_kind(self, tmp_path, two_field, listed, missing, extra):
        journals, _ = two_field
        (tmp_path / "p.csv").write_text("\n".join(["id,field"] + [f"{i},1" for i in listed]) + "\n")
        with pytest.raises(ValidationError) as err:
            dataio.read_partition(tmp_path / "p.csv", journals)
        (issue,) = err.value.issues
        assert issue.message == f"partition must cover the journal set exactly (missing {missing}, extra {extra})"

    def test_long_ids_are_quoted_to_forty_characters(self, tmp_path, two_field):
        journals, _ = two_field
        long_id = "L" * 5000
        shown = f"{'L' * 40!r}… (5000 characters)"
        for rows, code, message in (
            ([f"{long_id},{'3' * 5000}"], "BadField", f"field of {shown} must be 1 or 2, got {'3' * 40!r}… (5000 characters)"),
            ([f"{long_id},1", f"{long_id},2"], "DuplicateId", f"journal {shown} assigned twice"),
        ):
            (tmp_path / "p.csv").write_text("\n".join(["id,field"] + rows) + "\n")
            with pytest.raises(ValidationError) as err:
                dataio.read_partition(tmp_path / "p.csv", journals)
            (issue,) = err.value.issues
            assert (issue.code, issue.message) == (code, message)
            if code == "DuplicateId":
                assert issue.journal == long_id

    def test_field_labels_restricted(self, tmp_path, two_field):
        journals, _ = two_field
        rows = ["id,field"] + [f"{i},3" for i in journals.ids]
        (tmp_path / "p.csv").write_text("\n".join(rows) + "\n")
        with pytest.raises(ValidationError):
            dataio.read_partition(tmp_path / "p.csv", journals)

    @pytest.mark.parametrize(
        "text, code, message",
        [
            ("journal,field\nJ1,1\n", "BadHeader", "partition file must start with 'id,field'"),
            ("id,field\nJ1,1,2\n", "BadRow", "partition row has 3 fields, expected 2"),
        ],
    )
    def test_bad_header_and_bad_row(self, tmp_path, two_field, text, code, message):
        journals, _ = two_field
        (tmp_path / "p.csv").write_text(text)
        with pytest.raises(ValidationError) as err:
            dataio.read_partition(tmp_path / "p.csv", journals)
        (issue,) = err.value.issues
        assert (issue.code, issue.message) == (code, message)


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
        pool = ["0", "7", "007", "123456789012345", "-3", "+3", " 4", "1_000", "\u0663", "-0",
                "1234567890123456", "12345678901234567890123", "9223372036854775807", "-9223372036854775808",
                "1.5", "", "nan", "1e3", "x"]
        # Good cells four times as likely as bad ones, so that some files read through.
        weights = np.array([4.0] * 14 + [1.0] * 5)
        rng = np.random.default_rng(5)
        bulk = 0
        for trial in range(200):
            # Every fourth file holds plain cells (the first four) only, which the bulk path reads.
            size = 4 if trial % 4 == 0 else len(pool)
            picks = rng.choice(size, size=9, p=weights[:size] / weights[:size].sum())
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
            bulk += read_both(tmp_path / "m.csv", abc_journals())
        assert bulk >= 50


def read_outcome(read, *args):
    """The counts' bytes a reader returns, or the code and message of each issue it raises."""
    try:
        return read(*args).counts.tobytes()
    except ValidationError as exc:
        return [(issue.code, issue.message) for issue in exc.issues]


def read_both(path, journals):
    """Whether the file at ``path`` reads through the bulk path, after checking
    that ``read_matrix`` gives what the csv path gives, counts or errors."""
    data = path.read_bytes()
    assert read_outcome(dataio.read_matrix, path, journals) == read_outcome(
        dataio._read_matrix_csv, path, data, journals
    )
    return dataio._read_plain_counts(data, journals.ids) is not None


PLAIN = b"citing\\cited,a,b,c\na,1,2,3\nb,4,5,6\nc,7,8,9\n"


class TestBulkPath:
    @pytest.mark.parametrize(
        "data, plain",
        [
            (PLAIN, True),
            (PLAIN.replace(b",5,", b",0005,").replace(b",1,", b",00,"), True),
            (PLAIN.replace(b",5,", b",999999999999999,"), True),
            (PLAIN.replace(b",5,", b",9999999999999999,"), False),
            (PLAIN.replace(b",5,", b",12345678901234567890,"), False),
            (PLAIN.replace(b",5,", b",+5,"), False),
            (PLAIN.replace(b",5,", b",-5,"), False),
            (PLAIN.replace(b",5,", b", 5,"), False),
            (PLAIN.replace(b",5,", b",5 ,"), False),
            (PLAIN.replace(b",5,", b",1_000,"), False),
            (PLAIN.replace(b",5,", ",\u0665,".encode()), False),
            (PLAIN.replace(b",5,", b',"5",'), False),
            (PLAIN.replace(b",5,", b",,"), False),
            (PLAIN.replace(b",5,", b",x,"), False),
            (PLAIN.replace(b",5,", b",5.0,"), False),
            (PLAIN.replace(b"\nb,", b'\n"b",'), False),
            (PLAIN.replace(b",a,", b',"a",'), False),
            (PLAIN.replace(b"\n", b"\r\n"), False),
            (PLAIN.replace(b"\n", b"\r"), False),
            (PLAIN.replace(b"\nb,", b"\n\nb,"), False),
            (PLAIN + b"\n", False),
            (PLAIN.replace(b",6\n", b"\n"), False),
            (PLAIN.replace(b",6\n", b",6,\n"), False),
            (PLAIN.replace(b",6\n", b",6,7\n"), False),
            (PLAIN.replace(b"\nb,", b"\nB,"), False),
            (PLAIN.replace(b",b,c", b",c,b"), False),
            (PLAIN.replace(b"citing", b"Citing"), False),
            (PLAIN[:-1], True),
            (PLAIN.rsplit(b"\n", 2)[0] + b"\n", False),
            (b"\xef\xbb\xbf" + PLAIN, False),
            (PLAIN.replace(b",9\n", b",\xff\n"), False),
            (PLAIN.replace(b",5,", b",5\x00,"), False),
            (b"", False),
        ],
    )
    def test_three_by_three_reads_as_the_csv_path_does(self, tmp_path, data, plain):
        (tmp_path / "m.csv").write_bytes(data)
        assert read_both(tmp_path / "m.csv", abc_journals()) == plain

    @pytest.mark.parametrize(
        "data, plain",
        [
            (b"citing\\cited,a\na,5\n", True),
            (b"citing\\cited,a\na,5", True),
            (b"citing\\cited,a\na,0\n", True),
            (b"citing\\cited,a\na,\n", False),
            (b"citing\\cited,a\na\n", False),
            (b"citing\\cited,a\r\na,5\r\n", False),
            (b'"citing\\cited","a"\n"a","5"\n', False),
        ],
    )
    def test_one_by_one_reads_as_the_csv_path_does(self, tmp_path, data, plain):
        (tmp_path / "m.csv").write_bytes(data)
        journals = jr.JournalSet((jr.Journal("a", None, 5, 5),))
        assert read_both(tmp_path / "m.csv", journals) == plain

    @pytest.mark.parametrize(
        "ids, header",
        [
            (["a,b", "c"], b"a,b,c"),
            (["\u00e9", "c"], "\u00e9,c".encode()),
            (["\u00e9", "c"], "\u00e9,c".encode("latin-1")),
            (["", "c"], b",c"),
            (["a b", "c"], b"a b,c"),
            (['"a"', "c"], b'"a",c'),
            (['a"b', "c"], b'a"b,c'),
            (["a\r", "c"], b"a\r,c"),
            (["a\x00", "c"], b"a\x00,c"),
        ],
    )
    def test_ids_read_as_the_csv_path_reads_them(self, tmp_path, ids, header):
        journals = jr.JournalSet(tuple(jr.Journal(i, None, 5, 5) for i in ids))
        rows = [b"citing\\cited," + header] + [i.encode("utf-8") + b",1,2" for i in ids]
        (tmp_path / "m.csv").write_bytes(b"\n".join(rows) + b"\n")
        read_both(tmp_path / "m.csv", journals)

    def test_an_id_beyond_the_csv_field_limit_is_left_to_the_csv_path(self, tmp_path):
        journals = jr.JournalSet((jr.Journal("i" * 131_073, None, 5, 5), jr.Journal("b", None, 5, 5)))
        dataio.write_matrix(tmp_path / "m.csv", journals, jr.CitationMatrix(np.ones((2, 2))))
        assert not read_both(tmp_path / "m.csv", journals)
        with pytest.raises(ValidationError) as err:
            dataio.read_matrix(tmp_path / "m.csv", journals)
        assert err.value.issues[0].code == "MalformedCsv"

    def test_block_model_export_reads_in_bulk(self, tmp_path):
        journals, matrix, _ = make_block(seed=21, m=12)
        dataio.write_matrix(tmp_path / "m.csv", journals, matrix)
        assert read_both(tmp_path / "m.csv", journals)
        read = dataio.read_matrix(tmp_path / "m.csv", journals)
        assert read.counts.tobytes() == matrix.counts.tobytes()
        assert (read.negative_cell, read.nonzero_count) == (None, matrix.nonzero_count)
        assert read.row_sums.tobytes() == matrix.row_sums.tobytes()


class TestNotUtf8:
    @pytest.mark.parametrize(
        "name, data, line, detail",
        [
            ("journals", b"id,name,articles_t1,articles_t2\nJ1,,5,5\nJ\xe9,,5,5\n", 3,
             "byte 0xe9 is not UTF-8 (invalid continuation byte)"),
            ("matrix", b"citing\\cited,a\r\na,\xff\r\n", 2, "byte 0xff is not UTF-8 (invalid start byte)"),
            ("matrix", b"citing\\cited,a\na,5\xe9", 2, "byte 0xe9 is not UTF-8 (unexpected end of data)"),
            ("partition", b"id,field\n\xc3\x28,1\n", 2, "byte 0xc3 is not UTF-8 (invalid continuation byte)"),
        ],
    )
    def test_names_the_file_and_line(self, tmp_path, name, data, line, detail):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(data)
        journals = jr.JournalSet((jr.Journal("a", None, 5, 5),))
        read = {
            "journals": lambda: dataio.read_journals(path),
            "matrix": lambda: dataio.read_matrix(path, journals),
            "partition": lambda: dataio.read_partition(path, journals),
        }[name]
        with pytest.raises(ValidationError) as err:
            read()
        (issue,) = err.value.issues
        assert (issue.code, issue.message) == ("MalformedCsv", f"{path}, line {line}: {detail}")

    def test_line_is_counted_in_the_file_not_the_decoder_buffer(self, tmp_path):
        journals = jr.JournalSet(tuple(jr.Journal(f"J{k}", None, 5, 5) for k in range(3000)))
        dataio.write_matrix(tmp_path / "m.csv", journals, jr.CitationMatrix(np.ones((3000, 3000))))
        data = (tmp_path / "m.csv").read_bytes()
        (tmp_path / "m.csv").write_bytes(data[:-2] + b"\xff\n")
        with pytest.raises(ValidationError) as err:
            dataio.read_matrix(tmp_path / "m.csv", journals)
        assert err.value.issues[0].message == (
            f"{tmp_path / 'm.csv'}, line 3001: byte 0xff is not UTF-8 (invalid start byte)"
        )


def write_matrix_per_cell(path, ids, counts):
    """The per-cell reference writer, in the files' dialect."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = dataio.csv_writer(handle, ids)
        writer.writerow(["citing\\cited"] + list(ids))
        for ident, row in zip(ids, counts):
            cells = [str(int(v)) if float(v).is_integer() else repr(float(v)) for v in row]
            writer.writerow([ident] + cells)


WRITE_CASES = {
    "integral": [[1.0, 2.0], [3.0, 4.0]],
    "negative-zero": [[-0.0, 2.0], [0.0, -7.0]],
    "non-integral": [[1.5, 2.0], [3.0, 4.0]],
    "non-finite": [[np.nan, -np.inf], [np.inf, 2.0]],
    "beyond-int64": [[2.0**63, 1.0], [-(2.0**63), 1e300]],
    "int64-edge": [[2.0**63 - 1024, 1.0], [-(2.0**63) + 1024, 2.0**53 + 2]],
    "zeros": [[0.0, 0.0], [0.0, 0.0]],
}


class TestWriteMatrix:
    @pytest.mark.parametrize("counts", list(WRITE_CASES.values()), ids=list(WRITE_CASES))
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

    @pytest.mark.parametrize(
        "counts",
        [*WRITE_CASES.values(), make_block(seed=21, m=12)[1].counts],
        ids=[*WRITE_CASES, "block_model"],
    )
    def test_sparse_storage_writes_the_dense_bytes_without_densifying(self, tmp_path, counts, monkeypatch):
        n = len(counts)
        journals = jr.JournalSet(tuple(jr.Journal(f"J{k}", None, 1, 1) for k in range(n)))
        written = {}
        for layout, density in (("dense", 0.0), ("sparse", 2.0)):
            monkeypatch.setattr(core, "SPARSE_DENSITY", density)
            matrix = jr.CitationMatrix(np.array(counts))
            dataio.write_matrix(tmp_path / f"{layout}.csv", journals, matrix)
            assert matrix.sparse is (layout == "sparse")
            assert ("counts" in matrix.__dict__) is (layout == "dense")
            written[layout] = (tmp_path / f"{layout}.csv").read_bytes()
        assert written["sparse"] == written["dense"]

    @pytest.mark.parametrize("ids, size", [(["a", "b"], 3), (["a", "b", "c"], 2)])
    def test_size_mismatch_raises_before_the_file_is_opened(self, tmp_path, ids, size):
        journals = jr.JournalSet(tuple(jr.Journal(i, None, 1, 1) for i in ids))
        matrix = jr.CitationMatrix(np.ones((size, size)))
        (tmp_path / "m.csv").write_bytes(b"old")
        with pytest.raises(ValueError) as err:
            dataio.write_matrix(tmp_path / "m.csv", journals, matrix)
        assert str(err.value) == f"journal set has {len(ids)} journals but matrix is {size}x{size}"
        assert str(err.value) == core.size_mismatch(journals, matrix)
        assert (tmp_path / "m.csv").read_bytes() == b"old"

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


B = dataio._BLOCK_ROWS
BLOCK_SIZES = [1, B - 1, B, B + 1, 2 * B + 3]
# Ids of each style, the last one made special: a comma and quotes (quoted
# by the minimal dialect) or a carriage return (every field quoted).
ID_STYLES = {"plain": None, "quoted": 'say "hi", then', "carriage": "a\rb"}
# Cells that a plain file cannot hold: negative, negative zero, 16 digits,
# and the largest int64 a float64 holds, after a 15-digit one that it can.
SPECIAL_CELLS = [10.0**15 - 1, -12345.0, -0.0, 10.0**15 + 1, 2.0**63 - 1024]


def block_instance(n, id_style, special):
    """Journals J0..J(n-1) and multi-digit counts, with the special cells in
    rows on both sides of each block boundary when ``special``."""
    ids = [f"J{k}" for k in range(n)]
    if ID_STYLES[id_style]:
        ids[-1] = ID_STYLES[id_style]
    counts = np.random.default_rng(n).integers(0, 10**6, size=(n, n)).astype(float)
    if special:
        for row, value in zip([0, B - 1, B, 2 * B, n - 1], SPECIAL_CELLS):
            counts[row % n, (7 * row) % n] = value
    return jr.JournalSet(tuple(jr.Journal(i, None, 1, 1) for i in ids)), counts


class TestBlocks:
    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    @pytest.mark.parametrize("special", [False, True], ids=["plain-cells", "special-cells"])
    @pytest.mark.parametrize("id_style", list(ID_STYLES))
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_write_and_read_across_block_boundaries(self, tmp_path, monkeypatch, n, id_style, special, layout):
        journals, counts = block_instance(n, id_style, special)
        monkeypatch.setattr(core, "SPARSE_DENSITY", 2.0 if layout == "sparse" else 0.0)
        matrix = jr.CitationMatrix(counts)
        assert matrix.sparse is (layout == "sparse")
        dataio.write_matrix(tmp_path / "m.csv", journals, matrix)
        assert ("counts" in matrix.__dict__) is (layout == "dense")
        write_matrix_per_cell(tmp_path / "reference.csv", journals.ids, counts)
        assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        assert read_both(tmp_path / "m.csv", journals) is (id_style == "plain" and not special)
        np.testing.assert_array_equal(dataio.read_matrix(tmp_path / "m.csv", journals).counts, counts)

    @pytest.mark.parametrize("row", [B - 1, 2 * B + 1], ids=["boundary", "last-block"])
    @pytest.mark.parametrize(
        "fault, plain",
        [
            ("short-then-long", False),
            ("empty-cell", False),
            ("sixteen-digits", False),
            ("joined-rows", False),
            ("no-final-line-feed", True),
        ],
    )
    def test_near_plain_files_read_as_the_csv_path_does(self, tmp_path, row, fault, plain):
        # Row ``row`` is the last of block 0, or sits in the last block; the
        # fault touches it and the row after it, which opens block 1 or ends the file.
        journals, counts = block_instance(2 * B + 3, "plain", False)
        dataio.write_matrix(tmp_path / "m.csv", journals, jr.CitationMatrix(counts))
        lines = (tmp_path / "m.csv").read_bytes().split(b"\n")
        line = 1 + row
        if fault == "short-then-long":
            lines[line] = lines[line].rsplit(b",", 1)[0]
            lines[line + 1] += b",7"
        elif fault == "empty-cell":
            lines[line] = lines[line].rsplit(b",", 1)[0] + b","
        elif fault == "sixteen-digits":
            lines[line] += b"0" * 16
        elif fault == "joined-rows":
            lines[line : line + 2] = [lines[line] + lines[line + 1]]
        data = b"\n".join(lines)
        (tmp_path / "m.csv").write_bytes(data[:-1] if fault == "no-final-line-feed" else data)
        assert read_both(tmp_path / "m.csv", journals) is plain
