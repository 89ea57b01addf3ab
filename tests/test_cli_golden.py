"""Golden CSV bytes of the CLI on the bundled two-field (table1) export.

``golden/table1_cli.txt`` holds one block per invocation: a line
``$ journalrank <arguments>`` naming the command without its file paths,
then the exact stdout. Every command writing CSV is covered, at the default
precision and at ``--precision 12``.

Mirror journals tie in exact arithmetic. af's closed form keeps their
changes bitwise equal, while the ipp solve leaves them some 1e-14 apart; the
sweep ranks changes within ``analysis.TIE_TOLERANCE`` as ties and orders
them by id, so both sweeps are pinned.
"""

from pathlib import Path

import pytest

import journalrank as jr
from journalrank import dataio
from journalrank.cli import main

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
CASES = [command + suffix for command in _COMMANDS for suffix in ("", " --precision 12")]


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
    assert (captured.out, captured.err) == (golden[case], "")
