"""Seeded inputs, one operation and its output check for each workload.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned. Inputs come from
``journalrank.synth.block_model`` with the run's seed; the program under
test receives only those inputs. Module functions are looked up at call
time (``indicators.compute``, not an imported name), so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from journalrank import analysis, core, dataio, indicators, properties, synth

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RATIO_SPREAD_LIMIT = 1e-9
RTOL = 1e-9
CLI_TIMEOUT_S = 120


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(actual, expected, what: str) -> None:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    _require(
        actual.shape == expected.shape and np.allclose(actual, expected, rtol=RTOL, atol=0.0),
        f"{what} differs from the reference",
    )


def _printed_close(texts, expected, precision: int, what: str) -> None:
    """Values printed with ``precision`` decimals match the reference to that precision."""
    expected = np.asarray(expected, dtype=float)
    _require(len(texts) == expected.size, f"{what}: {len(texts)} values for {expected.size} expected")
    printed = np.array([float(t) for t in texts])
    slack = 0.5 * 10.0**-precision * (1 + 1e-9) + RTOL * np.abs(expected)
    _require(bool(np.all(np.abs(printed - expected) <= slack)), f"{what} differs from the reference")


def _ratio_spread(numerator: np.ndarray, denominator: np.ndarray) -> float:
    ratios = numerator / denominator
    return float(ratios.max() / ratios.min() - 1.0)


@dataclass(frozen=True)
class Size:
    """Block-model parameters of a workload's instance (n = 2 * journals_per_field)."""

    journals_per_field: int
    within_mean: float
    cross_mean: float


def preflight() -> None:
    """Refuse to measure a library that misses the bundled reference scores.

    Checks IPP and AF of ``two_field_example`` and of its variant without
    journal J8 against the published three-decimal values.
    """
    journals, matrix = synth.two_field_example()
    cases = (
        ("two_field", journals, matrix, synth.TWO_FIELD_EXPECTED_IPP, synth.TWO_FIELD_EXPECTED_AF),
        (
            "two_field without J8",
            *core.drop_journal(journals, matrix, 7),
            synth.TWO_FIELD_DROP8_EXPECTED_IPP,
            synth.TWO_FIELD_DROP8_EXPECTED_AF,
        ),
    )
    for label, js, cm, expected_ipp, expected_af in cases:
        for kind, expected in (("ipp", expected_ipp), ("af", expected_af)):
            values = indicators.compute(kind, js, cm).values
            _printed_close([str(float(v)) for v in values], expected, 3, f"preflight {kind} on {label}")


class Workload:
    """Set-up (timed), check references (untimed) and one op of a workload.

    ``setup`` is what a user of the program pays before the first op: draw
    the instance, write its files, warm up. ``references`` computes what the
    output checks compare against; it is the benchmark's own work and is
    not part of ``setup_s``.
    """

    name: str
    default_size: Size
    cycle = 1  # ops in one round of distinct operations
    runs_children = False  # the work happens in child processes

    def __init__(self, seed: int, size: Size | None = None, workdir: Path | None = None):
        self.seed = seed
        self.size = size or self.default_size
        self.workdir = workdir
        self.tracer = None
        self.matrix_csv_bytes = 0

    def setup(self) -> None:
        spec = synth.BlockModelSpec(
            self.size.journals_per_field,
            within_mean=self.size.within_mean,
            cross_mean=self.size.cross_mean,
            seed=self.seed,
        )
        self.journals, self.matrix, _ = synth.block_model(spec)
        self.rng = np.random.default_rng((self.seed, 1))
        self.prepare()

    def prepare(self) -> None:
        raise NotImplementedError

    def references(self) -> None:
        pass

    def op(self, index: int) -> None:
        raise NotImplementedError

    def instance(self) -> dict:
        n = self.matrix.n
        nnz = int(np.count_nonzero(self.matrix.counts))
        return {
            "n": n,
            "nnz": nnz,
            "density": nnz / (n * n),
            "matrix_csv_bytes": self.matrix_csv_bytes or None,
        }


DAMPING_ALPHAS = (0.0, 0.25, 0.5, 0.85, 0.99, 1.0)
DAMPING_OTHERS = (
    ("if", {}),
    ("af", {}),
    ("ipp", {}),
    ("sjr", {}),
    ("wpr", {"beta": 1.0, "gamma": 0.0}),
)
TOP_K = 20


class DampingSweep(Workload):
    """The paper's whole indicator family, re-solved on one sparse instance per op."""

    name = "damping_sweep"
    default_size = Size(750, 0.02, 0.002)

    def family(self):
        js, cm = self.journals, self.matrix
        vectors = [indicators.compute("ai", js, cm, alpha=a) for a in DAMPING_ALPHAS]
        vectors += [indicators.compute(kind, js, cm, **params) for kind, params in DAMPING_OTHERS]
        table = analysis.correlation_table(vectors)
        top = analysis.top_k(js, vectors[DAMPING_ALPHAS.index(0.85)], min(TOP_K, js.n))
        return vectors, table, top

    def prepare(self) -> None:
        # Warm-up: one solve touches BLAS and the shares once. A full op
        # would triple the set-up time; the first timed op becomes the
        # reference that later ops must reproduce.
        indicators.compute("ai", self.journals, self.matrix, alpha=0.85)
        self.reference = None

    def op(self, index: int) -> None:
        result = self.family()
        self.check(result)
        if self.reference is None:
            self.reference = result
            return
        vectors, table, top = result
        ref_vectors, ref_table, ref_top = self.reference
        for vector, ref in zip(vectors, ref_vectors):
            _close(vector.values, ref.values, vector.label())
        _close(table.pearson, ref_table.pearson, "pearson table")
        _close(table.spearman, ref_table.spearman, "spearman table")
        _require([i for i, _ in top] == [i for i, _ in ref_top], "top-k ranking differs")

    def check(self, result) -> None:
        vectors, table, top = result
        by_label = {v.label(): v.values for v in vectors}
        a1 = self.journals.articles_t1
        for alpha in DAMPING_ALPHAS:
            # EF = 100 * a1 * AI, and EF sums to 100.
            ef_total = 100.0 * float((by_label[f"AI({alpha:g})"] * a1).sum())
            _require(abs(ef_total - 100.0) <= 1e-6, f"EF({alpha:g}) sums to {ef_total!r}, not 100")
        spread = _ratio_spread(by_label["AF"], by_label["AI(0)"])
        _require(spread < RATIO_SPREAD_LIMIT, f"AF/AI(0) ratio spread {spread:.3g}")
        spread = _ratio_spread(by_label["IPP"], by_label["AI(1)"])
        _require(spread < RATIO_SPREAD_LIMIT, f"IPP/AI(1) ratio spread {spread:.3g}")
        _require(len(table.labels) == len(vectors), "correlation table lost a row")
        _require(len(top) == min(TOP_K, self.journals.n), "top-k returned the wrong count")


LOO_KINDS = (("ai", {"alpha": 0.85}), ("sjr", {}), ("af", {}))


class LooSweep(Workload):
    """Leave-one-out of one seeded journal per op on a dense instance."""

    name = "loo_sweep"
    default_size = Size(500, 0.4, 0.02)

    def prepare(self) -> None:
        self.drops = self.rng.permutation(self.journals.n)
        for kind, params in LOO_KINDS:
            properties.leave_one_out(self.journals, self.matrix, int(self.drops[-1]), kind, **params)

    def references(self) -> None:
        js, cm = self.journals, self.matrix
        self.full = {kind: indicators.compute(kind, js, cm, **params).values for kind, params in LOO_KINDS}

    def op(self, index: int) -> None:
        dropped = int(self.drops[index % len(self.drops)])
        for kind, params in LOO_KINDS:
            report = properties.leave_one_out(self.journals, self.matrix, dropped, kind, **params)
            _require(report.dropped == dropped, f"{kind}: report names the wrong journal")
            _close(report.before, np.delete(self.full[kind], dropped), f"{kind} before")
            after = np.asarray(report.after)
            _require(after.shape == (self.journals.n - 1,), f"{kind}: after has shape {after.shape}")
            _require(bool(np.all(np.isfinite(after)) and np.all(after >= 0)), f"{kind}: after is not a score vector")


CLI_CYCLE = (
    ("compute", "--indicator", "if"),
    ("compute", "--indicator", "af"),
    ("compute", "--indicator", "ai", "--alpha", "0.85", "--format", "json"),
    ("compute", "--indicator", "sjr", "--precision", "12"),
    ("compute", "--indicator", "ipp", "--format", "json"),
    ("correlate", "--indicators", "if,af,ai:0.85,ipp"),
    ("sensitivity", "--indicator", "ipp", "--format", "json", "--drop"),
)
# Three of the seven commands (ipp, correlate, sensitivity) solve the alpha=1
# system and run core.structure, so they cost about half again as much as
# the rest. That puts the slow block at the top 3/7 of the latencies and
# keeps the median away from the boundary between the two blocks.
CLI_DROPS = 4
CLI_CORRELATE = (("if", {}), ("af", {}), ("ai", {"alpha": 0.85}), ("ipp", {}))


def _flag(argv, name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


class CliFiles(Workload):
    """The real CLI as a subprocess on CSV files, one child at a time."""

    name = "cli_files"
    default_size = Size(500, 0.4, 0.02)
    cycle = len(CLI_CYCLE)
    runs_children = True

    def prepare(self) -> None:
        js, cm = self.journals, self.matrix
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.journals_csv = self.workdir / "journals.csv"
        self.matrix_csv = self.workdir / "matrix.csv"
        dataio.write_journals(self.journals_csv, js)
        dataio.write_matrix(self.matrix_csv, js, cm)
        self.matrix_csv_bytes = self.matrix_csv.stat().st_size
        picks = self.rng.choice(js.n, size=min(CLI_DROPS, js.n), replace=False)
        self.drop_indices = [int(k) for k in picks]
        self.drops = [js.ids[k] for k in self.drop_indices]
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        warm = self.run(self.argv(0))
        _require(warm.returncode == 0, f"warm-up exited {warm.returncode}: {warm.stderr.strip()[:300]}")

    def references(self) -> None:
        js, cm = self.journals, self.matrix
        kinds = {"if": {}, "af": {}, "ai": {"alpha": 0.85}, "sjr": {}, "ipp": {}}
        vectors = {kind: indicators.compute(kind, js, cm, **params) for kind, params in kinds.items()}
        self.reference = {kind: v.values for kind, v in vectors.items()}
        self.table = analysis.correlation_table([vectors[kind] for kind, _ in CLI_CORRELATE])
        self.loo = {js.ids[k]: properties.leave_one_out(js, cm, k, "ipp") for k in self.drop_indices}

    def argv(self, index: int) -> list[str]:
        args = list(CLI_CYCLE[index % len(CLI_CYCLE)])
        if args[0] == "sensitivity":
            args.append(self.drops[(index // len(CLI_CYCLE)) % len(self.drops)])
        return args + ["--journals", str(self.journals_csv), "--matrix", str(self.matrix_csv)]

    def run(self, argv, spans: Path | None = None) -> subprocess.CompletedProcess:
        if spans is None:
            command = [sys.executable, "-m", "journalrank.cli", *argv]
        else:
            command = [sys.executable, str(HERE / "cli_child.py"), str(spans), *argv]
        return subprocess.run(
            command,
            cwd=self.workdir,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )

    def op(self, index: int) -> None:
        argv = self.argv(index)
        if self.tracer is None:
            done = self.run(argv)
        else:
            spans = self.workdir / "spans.json"
            spans.unlink(missing_ok=True)
            done = self.run(argv, spans)
            if spans.exists():
                self.tracer.merge(spans, index)
        _require(done.returncode == 0, f"{argv[0]} exited {done.returncode}: {done.stderr.strip()[:300]}")
        self.check(argv, done.stdout)

    def check(self, argv, stdout: str) -> None:
        ids = list(self.journals.ids)
        fmt = _flag(argv, "--format", "csv")
        precision = int(_flag(argv, "--precision", 3))
        if argv[0] == "compute":
            kind = _flag(argv, "--indicator")
            if fmt == "json":
                payload = json.loads(stdout)
                _require(payload["indicator"] == kind, "json names the wrong indicator")
                _require(list(payload["values"]) == ids, "json ids differ")
                _close(list(payload["values"].values()), self.reference[kind], f"cli {kind}")
            else:
                rows = list(csv.reader(io.StringIO(stdout)))
                _require(rows[0] == ["id", "value"], "csv header differs")
                _require([r[0] for r in rows[1:]] == ids, "csv ids differ")
                _printed_close([r[1] for r in rows[1:]], self.reference[kind], precision, f"cli {kind}")
        elif argv[0] == "correlate":
            rows = list(csv.reader(io.StringIO(stdout)))
            labels = list(self.table.labels)
            _require(rows[0] == ["indicator"] + labels, "correlate header differs")
            _require([r[0] for r in rows[1:]] == labels, "correlate rows differ")
            lower = np.tril(self.table.pearson, -1)
            upper = np.triu(self.table.spearman, 1)
            expected = lower + upper + np.eye(len(labels))
            _printed_close([c for r in rows[1:] for c in r[1:]], expected.ravel(), precision, "cli correlate")
        else:
            dropped = _flag(argv, "--drop")
            report = self.loo[dropped]
            payload = json.loads(stdout)
            survivors = [i for i in ids if i != dropped]
            _require(payload["dropped"] == dropped, "sensitivity names the wrong journal")
            for key in ("before", "after"):
                _require(list(payload[key]) == survivors, f"sensitivity {key} ids differ")
                _close(list(payload[key].values()), getattr(report, key), f"cli sensitivity {key}")
            changes = [np.nan if v is None else v for v in payload["relative_change"].values()]
            _require(
                np.allclose(changes, report.relative_change, rtol=RTOL, atol=0.0, equal_nan=True),
                "cli sensitivity relative_change differs from the reference",
            )


WORKLOADS = {cls.name: cls for cls in (CliFiles, DampingSweep, LooSweep)}
