import csv
import io
import json

import numpy as np
import pytest

import journalrank as jr
from journalrank import core, dataio, indicators, properties
from journalrank.cli import main

# Golden CSV for the bundled two-field dataset at display precision 3.
GOLDEN_IPP = """id,value
J1,5.500
J2,5.500
J3,0.055
J4,0.055
J5,5.500
J6,5.500
J7,0.055
J8,0.055
"""

GOLDEN_AF = """id,value
J1,44.000
J2,44.000
J3,0.440
J4,0.440
J5,44.000
J6,44.000
J7,0.440
J8,0.440
"""

GOLDEN_DROP8_IPP = """id,before,after,relative_change
J1,5.500,5.513,0.002
J2,5.500,5.513,0.002
J3,0.055,0.055,0.002
J4,0.055,0.055,0.002
J5,5.500,5.490,0.002
J6,5.500,5.490,0.002
J7,0.055,0.055,0.002
"""


@pytest.fixture()
def dataset(tmp_path):
    journals, matrix = jr.two_field_example()
    dataio.write_journals(tmp_path / "journals.csv", journals)
    dataio.write_matrix(tmp_path / "matrix.csv", journals, matrix)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def base_args(dataset):
    return ["--journals", str(dataset / "journals.csv"), "--matrix", str(dataset / "matrix.csv")]


def export(tmp_path, journals, matrix, partition=None):
    """Write the dataset files into tmp_path and return the CLI arguments naming them."""
    dataio.write_journals(tmp_path / "journals.csv", journals)
    dataio.write_matrix(tmp_path / "matrix.csv", journals, matrix)
    if partition is None:
        return base_args(tmp_path)
    dataio.write_partition(tmp_path / "partition.csv", journals, partition)
    return base_args(tmp_path) + ["--partition", str(tmp_path / "partition.csv")]


def csv_rows(out):
    return list(csv.reader(io.StringIO(out, newline="")))


class TestCompute:
    def test_ipp_golden_output(self, capsys, dataset):
        code, out, _ = run(
            capsys, "compute", *base_args(dataset), "--indicator", "ipp", "--precision", "3"
        )
        assert code == 0
        assert out == GOLDEN_IPP

    def test_af_golden_output(self, capsys, dataset):
        code, out, _ = run(
            capsys, "compute", *base_args(dataset), "--indicator", "af", "--precision", "3"
        )
        assert code == 0
        assert out == GOLDEN_AF

    def test_json_payload_and_total_mass(self, capsys, dataset):
        code, out, _ = run(
            capsys,
            "compute",
            *base_args(dataset),
            "--indicator",
            "ai",
            "--alpha",
            "0.85",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["indicator"] == "ai"
        assert payload["params"] == {"alpha": 0.85}
        assert set(payload["solver"]) == {"iterations", "residual", "method_used"}
        values = payload["values"]
        assert set(values) == set(f"J{i}" for i in range(1, 9))
        # Per-article scores times articles, times 100, recover the total
        # stationary mass of 100.
        total = 100.0 * sum(values[f"J{i}"] * 100 for i in range(1, 9))
        assert total == pytest.approx(100.0, abs=1e-9)

    def test_alpha_defaults_to_085(self, capsys, dataset):
        code, out, _ = run(
            capsys, "compute", *base_args(dataset), "--indicator", "ai", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["params"]["alpha"] == 0.85

    def test_param_flag_mismatch_is_validation_failure(self, capsys, dataset):
        code, _, err = run(
            capsys, "compute", *base_args(dataset), "--indicator", "if", "--alpha", "0.5"
        )
        assert code == 1
        record = json.loads(err)
        assert record["error"] == "ValueError"
        assert record["message"] == "indicator 'if' takes no parameters"

    def test_nan_beta_names_beta_and_gamma(self, capsys, dataset):
        code, _, err = run(
            capsys, "compute", *base_args(dataset), "--indicator", "wpr", "--beta", "nan", "--gamma", "0.05"
        )
        assert code == 1
        record = json.loads(err)
        assert record["error"] == "ValueError"
        assert record["message"] == "need beta >= 0, gamma >= 0 and beta + gamma <= 1"

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "compute",
            "--journals",
            str(tmp_path / "none.csv"),
            "--matrix",
            str(tmp_path / "none2.csv"),
            "--indicator",
            "if",
        )
        assert code == 1
        assert json.loads(err)["error"] in ("FileNotFoundError", "OSError")

    def test_invalid_matrix_reports_issue_records(self, capsys, tmp_path):
        journals = jr.JournalSet((jr.Journal("a", None, 5, 5), jr.Journal("b", None, 5, 5)))
        dataio.write_journals(tmp_path / "journals.csv", journals)
        (tmp_path / "matrix.csv").write_text("citing\\cited,a,b\na,1,2\nb,3,-4\n")
        code, _, err = run(
            capsys,
            "compute",
            "--journals",
            str(tmp_path / "journals.csv"),
            "--matrix",
            str(tmp_path / "matrix.csv"),
            "--indicator",
            "if",
        )
        assert code == 1
        record = json.loads(err)
        assert record["error"] == "ValidationError"
        assert record["issues"][0]["code"] == "NegativeCount"
        assert record["issues"][0]["cell"] == [1, 1]
        assert err == (
            '{"error": "ValidationError", "message": "1 validation issue(s): matrix cell (1, 1) is negative", '
            '"issues": [{"code": "NegativeCount", "message": "matrix cell (1, 1) is negative", '
            '"journal": null, "cell": [1, 1]}]}\n'
        )

    @pytest.mark.parametrize("bad_file", ["matrix", "journals"])
    def test_count_beyond_float_range_is_a_validation_record(self, capsys, tmp_path, bad_file):
        huge = "9" * 400
        a2 = huge if bad_file == "journals" else "5"
        cell = huge if bad_file == "matrix" else "2"
        (tmp_path / "journals.csv").write_text(f"id,name,articles_t1,articles_t2\na,,5,{a2}\nb,,5,5\n")
        (tmp_path / "matrix.csv").write_text(f"citing\\cited,a,b\na,1,{cell}\nb,3,4\n")
        code, out, err = run(
            capsys,
            "compute",
            "--journals",
            str(tmp_path / "journals.csv"),
            "--matrix",
            str(tmp_path / "matrix.csv"),
            "--indicator",
            "if",
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "ValidationError"
        (issue,) = record["issues"]
        assert issue["code"] == "CountTooLarge"
        where = "articles_t2 of 'a'" if bad_file == "journals" else "citation count ('a' -> 'b')"
        assert issue["message"] == f"{where} has 400 digits, too large for a float"

    @pytest.mark.parametrize("kind", ["ipp", "if"])
    def test_row_sum_beyond_float_range_is_a_validation_record(self, capsys, tmp_path, kind):
        # Each cell, 1e308, is a float; their row sum is not.
        huge = "1" + "0" * 308
        (tmp_path / "journals.csv").write_text("id,name,articles_t1,articles_t2\na,,10,10\nb,,10,10\n")
        (tmp_path / "matrix.csv").write_text(f"citing\\cited,a,b\na,{huge},{huge}\nb,1,1\n")
        code, out, err = run(capsys, "compute", *base_args(tmp_path), "--indicator", kind)
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "ValidationError",
            "message": "1 validation issue(s): citations made by journal 'a' sum beyond the float range",
            "issues": [
                {
                    "code": "SumOverflow",
                    "message": "citations made by journal 'a' sum beyond the float range",
                    "journal": "a",
                    "cell": None,
                }
            ],
        }

    @pytest.mark.parametrize("bad_file", ["matrix", "journals"])
    def test_file_not_in_utf8_is_a_validation_record(self, capsys, tmp_path, bad_file):
        ident = b"J\xe9" if bad_file == "journals" else b"b"
        cell = b"\xff" if bad_file == "matrix" else b"4"
        (tmp_path / "journals.csv").write_bytes(b"id,name,articles_t1,articles_t2\na,,5,5\n" + ident + b",,5,5\n")
        (tmp_path / "matrix.csv").write_bytes(b"citing\\cited,a,b\na,1,2\nb,3," + cell + b"\n")
        path = tmp_path / f"{bad_file}.csv"
        code, out, err = run(
            capsys,
            "compute",
            "--journals",
            str(tmp_path / "journals.csv"),
            "--matrix",
            str(tmp_path / "matrix.csv"),
            "--indicator",
            "if",
        )
        assert (code, out) == (1, "")
        detail = "byte 0xff is not UTF-8 (invalid start byte)" if bad_file == "matrix" else (
            "byte 0xe9 is not UTF-8 (invalid continuation byte)"
        )
        message = f"{path}, line 3: {detail}"
        assert json.loads(err) == {
            "error": "ValidationError",
            "message": f"1 validation issue(s): {message}",
            "issues": [{"code": "MalformedCsv", "message": message, "journal": None, "cell": None}],
        }

    @pytest.mark.parametrize(
        "cell, code, detail",
        [
            ("9" * 5000, "CountTooLarge", "has 5000 digits, too large for a float"),
            ("x" * 5000, "NonIntegerCount", f"is not an integer: {'x' * 40!r}… (5000 characters)"),
        ],
        ids=["digits", "junk"],
    )
    def test_long_count_cell_gives_a_bounded_record(self, capsys, tmp_path, cell, code, detail):
        (tmp_path / "journals.csv").write_text("id,name,articles_t1,articles_t2\na,,5,5\nb,,5,5\n")
        (tmp_path / "matrix.csv").write_text(f"citing\\cited,a,b\na,1,{cell}\nb,3,4\n")
        code_, out, err = run(
            capsys,
            "compute",
            "--journals",
            str(tmp_path / "journals.csv"),
            "--matrix",
            str(tmp_path / "matrix.csv"),
            "--indicator",
            "if",
        )
        assert (code_, out) == (1, "")
        assert len(err.encode()) < 1000
        (issue,) = json.loads(err)["issues"]
        assert issue["code"] == code
        assert issue["message"] == f"citation count ('a' -> 'b') {detail}"

    @pytest.mark.parametrize("fault", ["article_count", "row_label", "zero_articles"])
    def test_long_journal_id_gives_a_bounded_record(self, capsys, tmp_path, fault):
        long_id = "L" * 5000
        a1 = {"article_count": "x", "zero_articles": "0"}.get(fault, "5")
        label = "M" * 5000 if fault == "row_label" else long_id
        (tmp_path / "journals.csv").write_text(f"id,name,articles_t1,articles_t2\n{long_id},,{a1},5\nb,,5,5\n")
        (tmp_path / "matrix.csv").write_text(f"citing\\cited,{long_id},b\n{label},1,2\nb,3,4\n")
        code, out, err = run(
            capsys,
            "compute",
            "--journals",
            str(tmp_path / "journals.csv"),
            "--matrix",
            str(tmp_path / "matrix.csv"),
            "--indicator",
            "if",
        )
        assert (code, out) == (1, "")
        assert len(err.encode()) < 1000
        shown = f"{'L' * 40!r}… (5000 characters)"
        message = json.loads(err)["message"]
        if fault == "article_count":
            assert message.endswith(f"articles_t1 of {shown} is not an integer: 'x'")
        elif fault == "row_label":
            assert message.endswith(f"matrix row 0 is labelled {'M' * 40!r}… (5000 characters), expected {shown}")
        else:
            assert message == f"journal {shown} (index 0) published no articles in the earlier period"

    def test_huge_invalid_matrix_gives_a_bounded_record(self, capsys, tmp_path):
        n = 300
        ids = [f"J{k}" for k in range(n)]
        journals = jr.JournalSet(tuple(jr.Journal(i, None, 5, 5) for i in ids))
        dataio.write_journals(tmp_path / "journals.csv", journals)
        dataio.write_matrix(tmp_path / "matrix.csv", journals, jr.CitationMatrix(-np.ones((n, n))))
        code, _, err = run(
            capsys,
            "compute",
            "--journals",
            str(tmp_path / "journals.csv"),
            "--matrix",
            str(tmp_path / "matrix.csv"),
            "--indicator",
            "if",
        )
        assert code == 1
        record = json.loads(err)
        assert record["issue_count"] == n * n
        assert len(record["issues"]) == core.MAX_ISSUES_PER_CODE
        assert record["message"].endswith(f"… and {n * n - core.MAX_ISSUES_PER_CODE} more")
        assert len(err) < 10_000

    def test_non_convergence_exits_two(self, capsys, dataset):
        code, _, err = run(
            capsys,
            "compute",
            *base_args(dataset),
            "--indicator",
            "ai",
            "--alpha",
            "1",
            "--method",
            "power",
            "--max-iterations",
            "1",
        )
        assert code == 2
        record = json.loads(err)
        assert record["error"] == "NoConvergence"
        assert record["iterations"] == 1

    def test_infinite_tolerance_is_a_validation_error(self, capsys, dataset):
        # Any first step meets an infinite tolerance.
        argv = ("compute", *base_args(dataset), "--indicator", "ai", "--method", "power", "--tolerance", "inf")
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "ValueError", "message": "tolerance must be positive and finite"}

    def test_not_irreducible_lists_components(self, capsys, tmp_path):
        journals = jr.JournalSet((jr.Journal("a", None, 5, 5), jr.Journal("b", None, 5, 5)))
        matrix = jr.CitationMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        dataio.write_journals(tmp_path / "journals.csv", journals)
        dataio.write_matrix(tmp_path / "matrix.csv", journals, matrix)
        code, _, err = run(
            capsys,
            "compute",
            "--journals",
            str(tmp_path / "journals.csv"),
            "--matrix",
            str(tmp_path / "matrix.csv"),
            "--indicator",
            "ipp",
        )
        assert code == 1
        record = json.loads(err)
        assert record["error"] == "NotIrreducible"
        assert sorted(map(sorted, record["components"])) == [[0], [1]]

    def test_indicator_choices_are_the_kinds_table(self, capsys, dataset):
        assert tuple(indicators.KINDS) == ("if", "af", "iw", "ipp", "ef", "ai", "wpr", "sjr")
        for command in ("compute", "sensitivity", "field-check"):
            code, out, _ = run(capsys, command, "--help")
            assert code == 0
            assert "{if,af,iw,ipp,ef,ai,wpr,sjr}" in out
        for kind in ("IF", "nope", "ai:0.5"):
            code, out, err = run(capsys, "compute", *base_args(dataset), "--indicator", kind)
            assert (code, out) == (1, "")
            assert "invalid choice" in err

    @pytest.mark.parametrize("output", (["--format", "csv"], ["--format", "json"]))
    def test_negative_precision_is_a_usage_error(self, capsys, dataset, output):
        code, out, err = run(
            capsys, "compute", *base_args(dataset), "--indicator", "if", *output, "--precision", "-1"
        )
        assert (code, out) == (1, "")
        assert "--precision: must be a non-negative integer" in err

    @pytest.mark.parametrize(
        "command, ids",
        [
            (["compute"], ["a\rb", "c", "d", "e"]),
            (["sensitivity", "--drop", "d"], ["a\rb", "c", "e"]),
            (["sensitivity", "--sweep"], ["a\rb", "c", "d", "e"]),
        ],
        ids=["compute", "drop", "sweep"],
    )
    def test_carriage_return_id_reads_back_as_one_row(self, capsys, tmp_path, command, ids):
        journals = jr.JournalSet(tuple(jr.Journal(i, None, 5, 5) for i in ("a\rb", "c", "d", "e")))
        matrix = jr.CitationMatrix(np.arange(1.0, 17.0).reshape(4, 4))
        files = export(tmp_path, journals, matrix)
        code, out, err = run(capsys, command[0], *files, "--indicator", "if", *command[1:])
        assert (code, err) == (0, "")
        rows = csv_rows(out)
        assert all(len(row) == len(rows[0]) for row in rows)
        assert sorted(row[0] for row in rows[1:]) == sorted(ids)

    @pytest.mark.parametrize("bad_file", ["journals", "matrix", "partition"])
    def test_oversized_field_is_a_malformed_csv_record(self, capsys, tmp_path, bad_file):
        huge = "x" * 200_000
        files = export(tmp_path, *jr.two_field_example(), jr.two_field_partition())
        path = tmp_path / f"{bad_file}.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[2].replace("J2", huge, 1)
        path.write_text("".join(lines))
        code, out, err = run(capsys, "field-check", *files, "--indicator", "if")
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "ValidationError"
        (issue,) = record["issues"]
        assert issue["code"] == "MalformedCsv"
        assert issue["message"] == f"{path}, line 3: field larger than field limit (131072)"

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_bad_usage_exits_one(self, capsys):
        assert run(capsys, "compute", "--indicator", "zz")[0] == 1


class TestCorrelate:
    def test_grid_layout_and_oracle(self, capsys, tmp_path):
        journals, matrix, _ = jr.block_model(jr.BlockModelSpec(journals_per_field=10, seed=21))
        dataio.write_journals(tmp_path / "journals.csv", journals)
        dataio.write_matrix(tmp_path / "matrix.csv", journals, matrix)
        code, out, _ = run(
            capsys,
            "correlate",
            "--journals",
            str(tmp_path / "journals.csv"),
            "--matrix",
            str(tmp_path / "matrix.csv"),
            "--indicators",
            "if,af,ai:0.85",
            "--precision",
            "6",
        )
        assert code == 0
        lines = [line.split(",") for line in out.strip().splitlines()]
        assert lines[0] == ["indicator", "IF", "AF", "AI(0.85)"]
        grid = np.array([[float(cell) for cell in row[1:]] for row in lines[1:]])
        np.testing.assert_array_equal(np.diag(grid), 1.0)
        vectors = [
            jr.impact_factor(journals, matrix),
            jr.audience_factor(journals, matrix),
            jr.article_influence(journals, matrix, alpha=0.85),
        ]
        table = jr.correlation_table(vectors)
        for i in range(3):
            for j in range(3):
                if i > j:
                    assert grid[i, j] == pytest.approx(table.pearson[i, j], abs=5e-7)
                elif i < j:
                    assert grid[i, j] == pytest.approx(table.spearman[i, j], abs=5e-7)

    def test_beta_gamma_tokens(self, capsys, dataset):
        code, out, _ = run(
            capsys,
            "correlate",
            *base_args(dataset),
            "--indicators",
            "if,wpr:0.9:0.05,sjr",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["labels"] == ["IF", "WPR(0.9,0.05)", "SJR(0.9,0.0999)"]

    def test_mirror_journals_tie_in_spearman(self, capsys, dataset):
        # J1/J2 and J5/J6 mirror each other, but AI(0.85) gives them scores
        # one ulp apart; IPP is proportional to AI(1), so every rank
        # correlation on the two-field example is exactly one.
        code, out, _ = run(
            capsys, "correlate", *base_args(dataset), "--indicators", "if,af,ai:0,ai:0.85,ai:1,ipp"
        )
        assert code == 0
        rows = [line.split(",")[1:] for line in out.strip().splitlines()[1:]]
        assert rows == [["1.000"] * 6] * 6

    def test_single_indicator_rejected(self, capsys, dataset):
        code, _, err = run(capsys, "correlate", *base_args(dataset), "--indicators", "if")
        assert code == 1
        assert json.loads(err)["error"] == "ValueError"
        assert json.loads(err)["message"] == "need at least two indicators to correlate"
        cases = (
            ("if:3,af", "if:3"),
            ("ai:1:2,if", "ai:1:2"),
            ("wpr:0.9,af", "wpr:0.9"),
            ("if,wpr:0.9,0.05", "wpr:0.9"),  # the comma form of the parameters is gone
        )
        for tokens, bad in cases:
            code, out, err = run(capsys, "correlate", *base_args(dataset), "--indicators", tokens)
            assert (code, out) == (1, "")
            assert json.loads(err) == {
                "error": "ValueError",
                "message": f"bad parameters in indicator token {bad!r}",
            }

    def test_unknown_kind_is_named_with_or_without_parameters(self, capsys, dataset):
        for tokens in ("nope,if", "nope:1,if", "Nope:1:2,if"):
            code, out, err = run(capsys, "correlate", *base_args(dataset), "--indicators", tokens)
            assert (code, out) == (1, "")
            assert json.loads(err) == {"error": "ValueError", "message": "unknown indicator kind 'nope'"}

    def test_non_numeric_parameter_is_a_bad_token(self, capsys, dataset):
        code, out, err = run(capsys, "correlate", *base_args(dataset), "--indicators", "ai:x,if")
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "ValueError", "message": "bad indicator token 'ai:x'"}

    def test_all_kinds_grid_lies_within_one(self, capsys, dataset):
        tokens = "if,af,iw,ipp,ef,ai,wpr:0.9:0.05,sjr"
        code, out, _ = run(capsys, "correlate", *base_args(dataset), "--indicators", tokens, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        for name in ("pearson", "spearman"):
            grid = np.array(payload[name])
            assert grid.shape == (8, 8)
            assert np.all((-1.0 <= grid) & (grid <= 1.0)), name


class TestSensitivity:
    def test_drop_matches_reference_scenario(self, capsys, dataset):
        code, out, _ = run(
            capsys,
            "sensitivity",
            *base_args(dataset),
            "--indicator",
            "ipp",
            "--drop",
            "J8",
            "--precision",
            "3",
        )
        assert code == 0
        assert out == GOLDEN_DROP8_IPP

    def test_sweep_is_deterministic_and_ranked(self, capsys, dataset):
        code, first, _ = run(
            capsys, "sensitivity", *base_args(dataset), "--indicator", "af", "--sweep"
        )
        assert code == 0
        code, second, _ = run(
            capsys, "sensitivity", *base_args(dataset), "--indicator", "af", "--sweep"
        )
        assert code == 0
        assert first == second
        rows = [line.split(",") for line in first.strip().splitlines()[1:]]
        changes = [float(value) for _, value in rows]
        assert changes == sorted(changes, reverse=True)
        assert len(rows) == 8

    def test_uncited_journal_has_an_empty_relative_change(self, capsys, tmp_path):
        # F is never cited: its IF is 0 before and after, so its relative change is undefined.
        journals = jr.JournalSet(tuple(jr.Journal(i, None, 5, 5) for i in "ABCDEF"))
        counts = np.arange(1.0, 37.0).reshape(6, 6)
        counts[:, 5] = 0
        files = export(tmp_path, journals, jr.CitationMatrix(counts))
        args = ["sensitivity", *files, "--indicator", "if", "--drop", "C"]
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert out.splitlines()[-1] == "F,0.000,0.000,"
        code, out, _ = run(capsys, *args, "--format", "json")
        assert code == 0
        assert json.loads(out)["relative_change"]["F"] is None

    def test_unknown_drop_id(self, capsys, dataset):
        code, _, err = run(
            capsys, "sensitivity", *base_args(dataset), "--indicator", "ipp", "--drop", "nope"
        )
        assert code == 1
        assert json.loads(err)["error"] == "KeyError"
        assert json.loads(err) == {"error": "KeyError", "message": "unknown journal id 'nope'"}


class TestFieldCheck:
    def test_near_decomposable_report(self, capsys, tmp_path):
        journals, matrix, partition = jr.near_decomposable_example()
        dataio.write_journals(tmp_path / "journals.csv", journals)
        dataio.write_matrix(tmp_path / "matrix.csv", journals, matrix)
        dataio.write_partition(tmp_path / "partition.csv", journals, partition)
        code, out, _ = run(
            capsys,
            "field-check",
            "--journals",
            str(tmp_path / "journals.csv"),
            "--matrix",
            str(tmp_path / "matrix.csv"),
            "--partition",
            str(tmp_path / "partition.csv"),
            "--indicator",
            "ipp",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["delta"] == 0.003
        assert payload["bounds_hold"][0] is False
        assert payload["field_means"][0] == pytest.approx(7.5, abs=1e-9)
        assert payload["balanced"] is True


    @pytest.mark.parametrize("precision", [0, 2, 8])
    def test_json_honours_precision(self, capsys, tmp_path, precision):
        journals, matrix, partition = jr.block_model(jr.BlockModelSpec(journals_per_field=5, seed=3))
        files = export(tmp_path, journals, matrix, partition)
        args = ["field-check", *files, "--indicator", "ipp", "--format", "json"]
        code, out, _ = run(capsys, *args)
        assert code == 0
        full = json.loads(out)
        report = properties.field_insensitivity_check(
            journals, matrix, partition, indicators.influence_per_publication(journals, matrix)
        )
        # The means carry more decimals than the precision asked for.
        assert full["field_means"] == list(report.field_means)
        assert all(round(mean, 8) != mean for mean in report.field_means)
        code, out, _ = run(capsys, *args, "--precision", str(precision))
        assert code == 0
        assert json.loads(out) == {
            "delta": round(report.delta, max(precision, 6)),
            "field_means": [round(mean, precision) for mean in report.field_means],
            "overall_mean": round(report.overall_mean, precision),
            "bounds_hold": list(report.bounds_hold),
            "balanced": report.balanced,
            "eta": round(report.eta, precision),
        }

    def test_uneven_article_ratios_leave_eta_empty(self, capsys, tmp_path):
        journals = jr.JournalSet(tuple(jr.Journal(i, None, 10, 10 + k) for k, i in enumerate("ABCD")))
        matrix = jr.CitationMatrix(np.arange(1.0, 17.0).reshape(4, 4))
        files = export(tmp_path, journals, matrix, jr.FieldPartition((1, 1, 2, 2)))
        code, out, _ = run(capsys, "field-check", *files, "--indicator", "if")
        assert code == 0
        assert csv_rows(out)[1][-2:] == ["true", ""]
        code, out, _ = run(capsys, "field-check", *files, "--indicator", "if", "--format", "json")
        assert json.loads(out)["eta"] is None

    @pytest.mark.parametrize("kind", ["if", "af", "ipp"])
    def test_dangling_journal_is_named_by_id(self, capsys, tmp_path, kind):
        journals = jr.JournalSet(tuple(jr.Journal(i, None, 10, 10) for i in "ABCD"))
        counts = np.arange(1.0, 17.0).reshape(4, 4)
        counts[1] = 0.0
        files = export(tmp_path, journals, jr.CitationMatrix(counts), jr.FieldPartition((1, 1, 2, 2)))
        code, out, err = run(capsys, "field-check", *files, "--indicator", kind)
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "ZeroOutgoing",
            "message": "journal 'B' (index 1) has no outgoing citations",
        }


class TestDemo:
    def test_export_reingests_identically(self, capsys, tmp_path):
        code, out, _ = run(capsys, "demo", "table1", "--export", str(tmp_path / "out"))
        assert code == 0
        journals = dataio.read_journals(tmp_path / "out" / "journals.csv")
        matrix = dataio.read_matrix(tmp_path / "out" / "matrix.csv", journals)
        reference_journals, reference_matrix = jr.two_field_example()
        assert journals == reference_journals
        np.testing.assert_array_equal(matrix.counts, reference_matrix.counts)

    def test_printed_scores_match_reference(self, capsys, tmp_path):
        _, out, _ = run(capsys, "demo", "table1", "--export", str(tmp_path / "out"))
        rows = [line.split() for line in out.splitlines()[2:] if line.strip()]
        for row, expected_ipp, expected_af in zip(
            rows, jr.synth.TWO_FIELD_EXPECTED_IPP, jr.synth.TWO_FIELD_EXPECTED_AF
        ):
            assert row[1] == row[2] == f"{expected_ipp:.3f}"
            assert row[3] == row[4] == f"{expected_af:.3f}"

    def test_counterexample_reports_delta(self, capsys, tmp_path):
        code, out, _ = run(capsys, "demo", "counterexample", "--export", str(tmp_path / "ce"))
        assert code == 0
        assert "computed 0.003" in out
        assert "within (1±delta) bounds: no" in out
        journals = dataio.read_journals(tmp_path / "ce" / "journals.csv")
        matrix = dataio.read_matrix(tmp_path / "ce" / "matrix.csv", journals)
        assert jr.min_delta(matrix, jr.FieldPartition((1, 2))) == 0.003
