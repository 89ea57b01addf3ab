"""Command-line front end.

Subcommands: ``compute`` (one indicator to CSV/JSON), ``correlate``
(pairwise Pearson/Spearman grid), ``sensitivity`` (leave-one-out),
``field-check`` (two-field mean comparison), and ``demo`` (bundled
datasets with reference scores).

Exit codes: 0 on success, 1 for validation or precondition failures
(including bad usage), 2 when the iterative solver fails to converge.
Failures print a one-line JSON error record to stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import analysis, core, dataio, indicators, properties, synth
from .errors import JournalRankError, NoConvergence, NotIrreducible, ValidationError
from .spectral import SolverConfig

_DEFAULT_PRECISION = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="journalrank",
        description="Journal performance indicators from citation matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dataset_args(p):
        p.add_argument("--journals", required=True, help="journals.csv path")
        p.add_argument("--matrix", required=True, help="matrix.csv path")

    def add_solver_args(p):
        p.add_argument("--method", choices=("auto", "direct", "power"), default="auto")
        p.add_argument("--tolerance", type=float, default=1e-12)
        p.add_argument("--max-iterations", type=int, default=100_000)

    def add_output_args(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--precision", type=int, default=None, help="display decimals (csv default 3; json default full)")

    def add_param_args(p):
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--gamma", type=float, default=None)

    kinds = tuple(indicators.KINDS)

    p_compute = sub.add_parser("compute", help="compute one indicator")
    add_dataset_args(p_compute)
    p_compute.add_argument("--indicator", required=True, choices=kinds)
    add_param_args(p_compute)
    add_solver_args(p_compute)
    add_output_args(p_compute)

    p_corr = sub.add_parser("correlate", help="correlation grid over several indicators")
    add_dataset_args(p_corr)
    p_corr.add_argument(
        "--indicators",
        required=True,
        help="comma-separated list, e.g. if,af,ai:0,ai:0.85,wpr:0.9,0",
    )
    add_solver_args(p_corr)
    add_output_args(p_corr)

    p_sens = sub.add_parser("sensitivity", help="leave-one-out shifts of an indicator")
    add_dataset_args(p_sens)
    p_sens.add_argument("--indicator", required=True, choices=kinds)
    group = p_sens.add_mutually_exclusive_group(required=True)
    group.add_argument("--drop", help="journal id to remove")
    group.add_argument("--sweep", action="store_true", help="remove every journal in turn")
    add_param_args(p_sens)
    add_solver_args(p_sens)
    add_output_args(p_sens)

    p_field = sub.add_parser("field-check", help="two-field mean comparison for an indicator")
    add_dataset_args(p_field)
    p_field.add_argument("--partition", required=True, help="partition.csv path (id,field)")
    p_field.add_argument("--indicator", required=True, choices=kinds)
    add_param_args(p_field)
    add_solver_args(p_field)
    add_output_args(p_field)

    p_demo = sub.add_parser("demo", help="export a bundled dataset and check reference scores")
    p_demo.add_argument("dataset", choices=("table1", "counterexample"))
    p_demo.add_argument("--export", required=True, help="directory for journals.csv and matrix.csv")

    return parser


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        tolerance=args.tolerance, max_iterations=args.max_iterations, method=args.method
    )


def _load_dataset(args) -> tuple[core.JournalSet, core.CitationMatrix]:
    journals = dataio.read_journals(args.journals)
    matrix = dataio.read_matrix(args.matrix, journals)
    return core.validate(journals, matrix)


def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}f}"


def _round(value: float, precision: int | None) -> float:
    return float(value) if precision is None else round(float(value), precision)


def _emit(args, header, rows, payload) -> int:
    """Write one command's result: header and rows as CSV, or payload as JSON.

    Rows are lazy, so their display formatting runs only for CSV output.
    """
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        json.dump(payload, sys.stdout)
        sys.stdout.write("\n")
    return 0


def _csv_precision(args) -> int:
    return _DEFAULT_PRECISION if args.precision is None else args.precision


def _indicator_params(args) -> dict:
    return dict(alpha=args.alpha, beta=args.beta, gamma=args.gamma, solver=_solver_config(args))


def _compute(args, journals, matrix) -> indicators.IndicatorVector:
    return indicators.compute(args.indicator, journals, matrix, **_indicator_params(args))


def _cmd_compute(args) -> int:
    journals, matrix = _load_dataset(args)
    vector = _compute(args, journals, matrix)
    precision = _csv_precision(args)
    rows = ([ident, _fmt(value, precision)] for ident, value in zip(journals.ids, vector.values))
    payload = {
        "indicator": args.indicator,
        "params": dict(vector.params),
        "values": {
            ident: _round(value, args.precision) for ident, value in zip(journals.ids, vector.values)
        },
        "solver": None if vector.solver is None else dataclasses.asdict(vector.solver),
    }
    return _emit(args, ["id", "value"], rows, payload)


def _parse_indicator_token(token: str):
    """One correlate token: kind, or kind:p1[,p2] with the kind's parameters in order."""
    name, _, param_text = token.strip().partition(":")
    name = name.lower()
    if not param_text:
        return name, {}
    try:
        numbers = [float(p) for p in param_text.split(",")]
    except ValueError:
        raise ValueError(f"bad indicator token {token!r}") from None
    names = tuple(indicators.KINDS[name].params) if name in indicators.KINDS else ()
    if len(numbers) != len(names):
        raise ValueError(f"bad parameters in indicator token {token!r}")
    return name, dict(zip(names, numbers))


def _cmd_correlate(args) -> int:
    journals, matrix = _load_dataset(args)
    solver = _solver_config(args)
    tokens = [t for t in args.indicators.split(",") if t.strip()]
    # Re-join beta,gamma pairs split by the comma separator: a token that is
    # a bare number belongs to the previous token.
    merged: list[str] = []
    for token in tokens:
        if merged and _is_number(token):
            merged[-1] = merged[-1] + "," + token
        else:
            merged.append(token)
    if len(merged) < 2:
        raise ValueError("need at least two indicators to correlate")
    vectors = []
    for token in merged:
        name, params = _parse_indicator_token(token)
        vectors.append(indicators.compute(name, journals, matrix, solver=solver, **params))
    table = analysis.correlation_table(vectors)
    precision = _csv_precision(args)
    labels = list(table.labels)
    # Pearson below the diagonal, Spearman above, 1 on it.
    rows = (
        [label]
        + [
            _fmt(1.0 if i == j else table.pearson[i, j] if i > j else table.spearman[i, j], precision)
            for j in range(len(labels))
        ]
        for i, label in enumerate(labels)
    )
    payload = {
        "labels": labels,
        "pearson": [[_round(v, args.precision) for v in row] for row in table.pearson],
        "spearman": [[_round(v, args.precision) for v in row] for row in table.spearman],
    }
    return _emit(args, ["indicator"] + labels, rows, payload)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _cmd_sensitivity(args) -> int:
    journals, matrix = _load_dataset(args)
    precision = _csv_precision(args)
    params = _indicator_params(args)

    if args.sweep:
        reports = properties.leave_one_out_sweep(journals, matrix, args.indicator, **params)
        results = [(journals.ids[r.dropped], r.max_relative_change) for r in reports]
        results.sort(key=lambda item: (-item[1], item[0]))
        rows = ([ident, _fmt(change, precision)] for ident, change in results)
        payload = {
            "sweep": [
                {"dropped": ident, "max_relative_change": _round(change, args.precision)}
                for ident, change in results
            ]
        }
        return _emit(args, ["dropped_id", "max_relative_change"], rows, payload)

    drop_index = journals.index_of(args.drop)
    report = properties.leave_one_out(journals, matrix, drop_index, args.indicator, **params)
    survivor_ids = [ident for k, ident in enumerate(journals.ids) if k != drop_index]
    rows = (
        [
            ident,
            _fmt(before, precision),
            _fmt(after, precision),
            "" if math.isnan(rel) else _fmt(rel, precision),
        ]
        for ident, before, after, rel in zip(
            survivor_ids, report.before, report.after, report.relative_change
        )
    )
    payload = {
        "dropped": args.drop,
        "before": {i: _round(v, args.precision) for i, v in zip(survivor_ids, report.before)},
        "after": {i: _round(v, args.precision) for i, v in zip(survivor_ids, report.after)},
        "relative_change": {
            i: (None if math.isnan(v) else _round(v, args.precision))
            for i, v in zip(survivor_ids, report.relative_change)
        },
        "max_relative_change": _round(report.max_relative_change, args.precision),
    }
    return _emit(args, ["id", "before", "after", "relative_change"], rows, payload)


def _cmd_field_check(args) -> int:
    journals, matrix = _load_dataset(args)
    partition = dataio.read_partition(args.partition, journals)
    vector = _compute(args, journals, matrix)
    report = properties.field_insensitivity_check(journals, matrix, partition, vector)
    precision = _csv_precision(args)
    header = [
        "delta",
        "field1_mean",
        "field2_mean",
        "overall_mean",
        "bounds_hold_1",
        "bounds_hold_2",
        "balanced",
        "eta",
    ]
    rows = (
        [
            _fmt(r.delta, max(precision, 6)),
            _fmt(r.field_means[0], precision),
            _fmt(r.field_means[1], precision),
            _fmt(r.overall_mean, precision),
            str(r.bounds_hold[0]).lower(),
            str(r.bounds_hold[1]).lower(),
            str(r.balanced).lower(),
            "" if r.eta is None else _fmt(r.eta, precision),
        ]
        for r in (report,)
    )
    payload = {
        "delta": report.delta,
        "field_means": list(report.field_means),
        "overall_mean": report.overall_mean,
        "bounds_hold": list(report.bounds_hold),
        "balanced": report.balanced,
        "eta": report.eta,
    }
    return _emit(args, header, rows, payload)


def _cmd_demo(args) -> int:
    out_dir = Path(args.export)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.dataset == "table1":
        journals, matrix = synth.two_field_example()
    else:
        journals, matrix, partition = synth.near_decomposable_example()
    dataio.write_journals(out_dir / "journals.csv", journals)
    dataio.write_matrix(out_dir / "matrix.csv", journals, matrix)
    print(f"wrote {out_dir / 'journals.csv'} and {out_dir / 'matrix.csv'}")

    if args.dataset == "table1":
        ipp = indicators.influence_per_publication(journals, matrix)
        af = indicators.audience_factor(journals, matrix)
        print("journal  ipp_ref  ipp      af_ref   af")
        for k, ident in enumerate(journals.ids):
            print(
                f"{ident:<9}"
                f"{synth.TWO_FIELD_EXPECTED_IPP[k]:<9.3f}"
                f"{ipp.values[k]:<9.3f}"
                f"{synth.TWO_FIELD_EXPECTED_AF[k]:<9.3f}"
                f"{af.values[k]:<9.3f}"
            )
    else:
        delta = properties.min_delta(matrix, partition)
        ipp = indicators.influence_per_publication(journals, matrix)
        report = properties.field_insensitivity_check(journals, matrix, partition, ipp)
        print(
            f"min cross-field share delta: reference "
            f"{synth.NEAR_DECOMPOSABLE_EXPECTED_DELTA:.3f}, computed {delta:.3f}"
        )
        print(
            "ipp: "
            + " ".join(f"{i}={v:.3f}" for i, v in zip(journals.ids, ipp.values))
            + f" (ratio {ipp.values[0] / ipp.values[1]:.3f})"
        )
        held = "yes" if all(report.bounds_hold) else "no"
        print(
            f"field means {report.field_means[0]:.3f} / {report.field_means[1]:.3f}, "
            f"overall {report.overall_mean:.3f}, within (1±delta) bounds: {held}"
        )
    return 0


_COMMANDS = {
    "compute": _cmd_compute,
    "correlate": _cmd_correlate,
    "sensitivity": _cmd_sensitivity,
    "field-check": _cmd_field_check,
    "demo": _cmd_demo,
}


def _error_record(exc: Exception) -> dict:
    record: dict = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ValidationError):
        record["issues"] = [
            {"code": i.code, "message": i.message, "journal": i.journal, "cell": i.cell}
            for i in exc.issues
        ]
        if exc.issue_count > len(exc.issues):
            record["issue_count"] = exc.issue_count
    if isinstance(exc, NotIrreducible) and exc.components is not None:
        record["components"] = exc.components
    if isinstance(exc, NoConvergence):
        record["iterations"] = exc.iterations
        record["residual"] = exc.residual
    return record


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; usage errors are
        # validation failures here and exit code 2 is reserved for solver
        # non-convergence.
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except (JournalRankError, ValueError, KeyError, OSError) as exc:
        json.dump(_error_record(exc), sys.stderr)
        sys.stderr.write("\n")
        return 2 if isinstance(exc, NoConvergence) else 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
