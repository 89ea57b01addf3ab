"""Golden CSV bytes of the CLI on the bundled two-field (table1) export.

``golden/table1_cli.txt`` holds one block per invocation: a line
``$ journalrank <arguments>`` naming the command without its file paths,
then the exact stdout. Every command writing CSV is covered, at the default
precision and at ``--precision 12``. The JSON cases pin the encoder's bytes at
``--precision 12``: unrounded values and the solver's residual differ in their
last digits between BLAS kernels, so the residual is written as ``…`` in the
file and masked in the output.

Mirror journals tie in exact arithmetic. af's closed form keeps their
changes bitwise equal, while the ipp solve leaves them some 1e-14 apart; the
sweep ranks changes within ``analysis.TIE_TOLERANCE`` as ties and orders
them by id, so both sweeps are pinned.

Every numeric CSV cell but correlate's, whose values involve square roots,
is also computed in exact arithmetic (``exact.py``): each prints its exact
value rounded, except the cells ``DECIMAL_TIES`` lists, whose exact value
sits halfway between two printed neighbours.
"""

import csv
import functools
import io
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import journalrank as jr
from journalrank import dataio
from journalrank.cli import main
from journalrank.indicators import KINDS

from exact import exact_scores

GOLDEN = Path(__file__).parent / "golden" / "table1_cli.txt"
PROMPT = "$ journalrank "

_COMMANDS = [
    *(f"compute --indicator {kind}" for kind in ("if", "af", "iw", "ipp", "ef", "ai")),
    "compute --indicator wpr --beta 0.9 --gamma 0.05",
    "compute --indicator sjr",
    "correlate --indicators if,af,iw,ipp,ef,ai,wpr:0.9:0.05,sjr",
    "sensitivity --indicator ipp --drop J8",
    "sensitivity --indicator af --drop J8",
    "sensitivity --indicator af --sweep",
    "sensitivity --indicator ipp --sweep",
    "field-check --indicator af",
    "field-check --indicator ipp",
]
_JSON_COMMANDS = [
    "compute --indicator iw",
    "compute --indicator ipp",
    "correlate --indicators if,af,iw,ipp,ef,ai,wpr:0.9:0.05,sjr",
    "sensitivity --indicator ipp --drop J8",
    "sensitivity --indicator ipp --sweep",
    "field-check --indicator af",
]
CASES = [command + suffix for command in _COMMANDS for suffix in ("", " --precision 12")] + [
    command + " --format json --precision 12" for command in _JSON_COMMANDS
]
RESIDUAL = re.compile(r'("residual": )[^,}]+')


def mask_residual(text: str) -> str:
    return RESIDUAL.sub(r"\1…", text)


def read_golden() -> dict[str, str]:
    blocks: dict[str, list[str]] = {}
    for line in GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith(PROMPT):
            lines = blocks[line[len(PROMPT) :].rstrip("\n")] = []
        else:
            lines.append(line)
    return {case: "".join(lines) for case, lines in blocks.items()}


@pytest.fixture(scope="module")
def golden():
    return read_golden()


@pytest.fixture(scope="module")
def table1(tmp_path_factory):
    out = tmp_path_factory.mktemp("table1")
    journals, matrix = jr.two_field_example()
    dataio.write_journals(out / "journals.csv", journals)
    dataio.write_matrix(out / "matrix.csv", journals, matrix)
    dataio.write_partition(out / "partition.csv", journals, jr.two_field_partition())
    return out


def test_golden_file_lists_every_case(golden):
    assert list(golden) == CASES


@pytest.mark.parametrize("case", CASES)
def test_csv_stdout_matches_golden(capsys, golden, table1, case):
    command, *rest = case.split()
    files = ["--journals", str(table1 / "journals.csv"), "--matrix", str(table1 / "matrix.csv")]
    if command == "field-check":
        files += ["--partition", str(table1 / "partition.csv")]
    assert main([command, *files, *rest]) == 0
    captured = capsys.readouterr()
    assert (mask_residual(captured.out), captured.err) == (golden[case], "")


# The cells of the CSV cases above whose exact value sits on a decimal tie at
# the precision they are printed at, as (case, row id, column); field-check
# prints one row, without an id. A float there prints either neighbour by
# last-bit luck: on OpenBLAS's Sandybridge kernel the field-check ipp means
# print 2.777,2.778, where the file holds 2.777,2.777 (exactly 2.7775).
DECIMAL_TIES = [
    ("field-check --indicator ipp", None, "field1_mean"),
    ("field-check --indicator ipp", None, "field2_mean"),
    ("field-check --indicator ipp", None, "overall_mean"),
]


def _options(words: list[str]) -> dict[str, str]:
    options: dict[str, str] = {}
    for word in words:
        if word.startswith("--"):
            flag = options[word] = word
        else:
            options[flag] = word
    return options


@functools.lru_cache
def exact_cells(command: str) -> dict[tuple[str | None, str], tuple[Fraction, int]]:
    """Every numeric CSV cell of a compute, sensitivity or field-check case,
    in exact arithmetic from the table1 counts, keyed by (row id, column),
    with the decimals it is printed at. Parameters take the decimal values
    the command line gives them, or the kind's defaults."""
    name, *words = command.split()
    options = _options(words)
    journals, matrix = jr.two_field_example()
    counts = matrix.counts.astype(int)
    ids, n = journals.ids, journals.n
    kind = options["--indicator"]
    params = {key: Fraction(options.get(f"--{key}", repr(v))) for key, v in KINDS[kind].params.items()}
    digits = int(options.get("--precision", 3))

    def scores(dropped=None):
        kept = [i for i in range(n) if i != dropped]
        reduced = jr.JournalSet(tuple(journals.journals[i] for i in kept))
        return exact_scores(kind, reduced, counts[np.ix_(kept, kept)], **params)

    full = scores()

    def drop(k):  # the survivors' ids, before, after and relative change
        before, after = full[:k] + full[k + 1 :], scores(k)
        return ids[:k] + ids[k + 1 :], before, after, [abs(a - b) / b for a, b in zip(after, before)]

    if name == "compute":
        return {(i, "value"): (v, digits) for i, v in zip(ids, full)}
    if name == "sensitivity" and "--sweep" in options:
        return {(ids[k], "max_relative_change"): (max(drop(k)[3]), digits) for k in range(n)}
    if name == "sensitivity":
        survivors, *columns = drop(ids.index(options["--drop"]))
        header = ("before", "after", "relative_change")
        return {(i, h): (v, digits) for h, values in zip(header, columns) for i, v in zip(survivors, values)}
    fields = np.array(jr.two_field_partition().field_of)
    a1 = [Fraction(j.articles_t1) for j in journals.journals]

    def mean(members):
        return sum(full[i] * a1[i] for i in members) / sum(a1[i] for i in members)

    # delta: the largest share of a journal's references that leave its field.
    leaks = [Fraction(int(row[fields != fields[i]].sum()), int(row.sum())) for i, row in enumerate(counts)]
    (eta,) = {Fraction(j.articles_t2) / Fraction(j.articles_t1) for j in journals.journals}
    cells = [
        ("delta", max(leaks), max(digits, 6)),
        ("field1_mean", mean([i for i in range(n) if fields[i] == 1]), digits),
        ("field2_mean", mean([i for i in range(n) if fields[i] == 2]), digits),
        ("overall_mean", mean(range(n)), digits),
        ("eta", eta, digits),
    ]
    return {(None, column): (value, places) for column, value, places in cells}


def on_tie(value: Fraction, digits: int) -> bool:
    """Whether value lies exactly halfway between two numbers of digits decimals."""
    doubled = 2 * value * 10**digits
    return doubled.denominator == 1 and doubled.numerator % 2 == 1


def printed(value: Fraction, digits: int) -> str:
    """A non-negative value off any tie, rounded to digits decimals as %f prints it."""
    text = str(round(value * 10**digits)).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}" if digits else text


EXACT_CASES = [case for case in CASES if "json" not in case and not case.startswith("correlate")]


def golden_cells(text: str) -> dict[tuple[str | None, str], str]:
    header, *rows = csv.reader(io.StringIO(text))
    if header[0] == "delta":  # field-check: one row, no id
        return {(None, column): cell for column, cell in zip(header, rows[0])}
    return {(row[0], column): cell for row in rows for column, cell in zip(header[1:], row[1:])}


def test_golden_cells_print_their_exact_values(golden):
    for case in EXACT_CASES:
        cells = golden_cells(golden[case])
        exact = exact_cells(case)
        assert set(exact) == {key for key, cell in cells.items() if cell not in ("true", "false")}, case
        for key, (value, digits) in exact.items():
            if not on_tie(value, digits):
                assert cells[key] == printed(value, digits), (case, key)


def test_decimal_ties_in_the_golden_file():
    ties = [
        (case, *key)
        for case in EXACT_CASES
        for key, (value, digits) in exact_cells(case).items()
        if on_tie(value, digits)
    ]
    assert ties == DECIMAL_TIES
