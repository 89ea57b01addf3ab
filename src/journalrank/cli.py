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
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, core, dataio, indicators, properties, synth
from .errors import JournalRankError, NoConvergence, NotIrreducible, ValidationError
from .spectral import METHODS, SolverConfig

_DEFAULT_PRECISION = 3
# Every kind's parameter names, in the order of the KINDS table.
_PARAM_NAMES = tuple(dict.fromkeys(name for kind in indicators.KINDS.values() for name in kind.params))


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
        defaults = SolverConfig()
        p.add_argument("--method", choices=METHODS, default=defaults.method)
        p.add_argument("--tolerance", type=float, default=defaults.tolerance)
        p.add_argument("--max-iterations", type=int, default=defaults.max_iterations)

    def add_output_args(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument(
            "--precision",
            type=_precision,
            default=None,
            help="display decimals, 0 or more (csv default 3; json default full)",
        )

    def add_param_args(p):
        for name in _PARAM_NAMES:
            p.add_argument(f"--{name}", type=float, default=None)

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
        help="comma-separated kind[:p1[:p2]] tokens, parameters in the kind's order, "
        "e.g. if,af,ai:0,ai:0.85,wpr:0.9:0.05",
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


def _precision(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        tolerance=args.tolerance, max_iterations=args.max_iterations, method=args.method
    )


def _load_dataset(args) -> tuple[core.JournalSet, core.CitationMatrix]:
    journals = dataio.read_journals(args.journals)
    matrix = dataio.read_matrix(args.matrix, journals)
    return core.validate(journals, matrix)


def _round(value: float | None, precision: int | None) -> float | None:
    """A JSON number: None or NaN as None (null), else rounded when ``precision`` is given."""
    if value is None or math.isnan(value):
        return None
    return float(value) if precision is None else round(float(value), precision)


def _cell(value, precision: int) -> str:
    """A CSV cell: text as is, a bool as true/false, None or NaN empty, else ``precision`` decimals."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(value).lower()
    if value is None or math.isnan(value):
        return ""
    return f"{value:.{precision}f}"


def _emit(args, header, rows, payload) -> int:
    """Write one command's result as CSV, the raw rows' values made cells by ``_cell`` and
    written in the files' dialect (``dataio.csv_writer``), or as the JSON payload."""
    if args.format == "csv":
        precision = _csv_precision(args)
        table = [header] + [[_cell(value, precision) for value in row] for row in rows]
        dataio.csv_writer(sys.stdout, [text for row in table for text in row]).writerows(table)
    else:
        # json.dumps runs the C encoder; json.dump always writes through the Python one.
        sys.stdout.write(json.dumps(payload) + "\n")
    return 0


def _csv_precision(args) -> int:
    return _DEFAULT_PRECISION if args.precision is None else args.precision


def _indicator_params(args) -> dict:
    return {name: getattr(args, name) for name in _PARAM_NAMES} | {"solver": _solver_config(args)}


def _compute(args, journals, matrix) -> indicators.IndicatorVector:
    return indicators.compute(args.indicator, journals, matrix, **_indicator_params(args))


def _cmd_compute(args) -> int:
    journals, matrix = _load_dataset(args)
    vector = _compute(args, journals, matrix)
    rows = zip(journals.ids, vector.values)
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
    """One correlate token: kind[:p1[:p2]], the kind's parameters in order."""
    name, *fields = token.strip().split(":")
    name = name.lower()
    try:
        numbers = [float(f) for f in fields]
    except ValueError:
        raise ValueError(f"bad indicator token {token!r}") from None
    if name not in indicators.KINDS:
        raise ValueError(f"unknown indicator kind {name!r}")
    names = tuple(indicators.KINDS[name].params)
    if numbers and len(numbers) != len(names):
        raise ValueError(f"bad parameters in indicator token {token!r}")
    return name, dict(zip(names, numbers))


def _cmd_correlate(args) -> int:
    journals, matrix = _load_dataset(args)
    solver = _solver_config(args)
    tokens = [t for t in args.indicators.split(",") if t.strip()]
    if len(tokens) < 2:
        raise ValueError("need at least two indicators to correlate")
    parsed = [_parse_indicator_token(token) for token in tokens]
    vectors = [indicators.compute(name, journals, matrix, solver=solver, **params) for name, params in parsed]
    table = analysis.correlation_table(vectors)
    labels = list(table.labels)
    # Pearson below the diagonal, Spearman on and above it (its diagonal is 1).
    grid = np.where(np.tri(len(labels), k=-1, dtype=bool), table.pearson, table.spearman)
    rows = ([label, *row] for label, row in zip(labels, grid))
    payload = {
        "labels": labels,
        "pearson": [[_round(v, args.precision) for v in row] for row in table.pearson],
        "spearman": [[_round(v, args.precision) for v in row] for row in table.spearman],
    }
    return _emit(args, ["indicator"] + labels, rows, payload)


def _cmd_sensitivity(args) -> int:
    journals, matrix = _load_dataset(args)
    params = _indicator_params(args)

    if args.sweep:
        reports = properties.leave_one_out_sweep(journals, matrix, args.indicator, **params)
        ids, changes = journals.ids, [r.max_relative_change for r in reports]
        # top_k's tie rule, so solver noise cannot order journals that tie.
        results = [(ids[k], changes[k]) for k in analysis.ranked(ids, changes)]
        payload = {
            "sweep": [
                {"dropped": ident, "max_relative_change": _round(change, args.precision)}
                for ident, change in results
            ]
        }
        return _emit(args, ["dropped_id", "max_relative_change"], results, payload)

    drop_index = journals.index_of(args.drop)
    report = properties.leave_one_out(journals, matrix, drop_index, args.indicator, **params)
    survivor_ids = [ident for k, ident in enumerate(journals.ids) if k != drop_index]
    rows = zip(survivor_ids, report.before, report.after, report.relative_change)
    payload = {
        "dropped": args.drop,
        "before": {i: _round(v, args.precision) for i, v in zip(survivor_ids, report.before)},
        "after": {i: _round(v, args.precision) for i, v in zip(survivor_ids, report.after)},
        "relative_change": {
            i: _round(v, args.precision) for i, v in zip(survivor_ids, report.relative_change)
        },
        "max_relative_change": _round(report.max_relative_change, args.precision),
    }
    return _emit(args, ["id", "before", "after", "relative_change"], rows, payload)


def _cmd_field_check(args) -> int:
    journals, matrix = _load_dataset(args)
    partition = dataio.read_partition(args.partition, journals)
    vector = _compute(args, journals, matrix)
    report = properties.field_insensitivity_check(journals, matrix, partition, vector)
    # delta keeps at least 6 decimals, so a small leakage bound is not rounded away.
    delta_digits = max(_csv_precision(args), 6)
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
    row = [
        f"{report.delta:.{delta_digits}f}",
        *report.field_means,
        report.overall_mean,
        *report.bounds_hold,
        report.balanced,
        report.eta,
    ]
    payload = dataclasses.asdict(report) | {
        "delta": _round(report.delta, None if args.precision is None else delta_digits),
        "field_means": [_round(mean, args.precision) for mean in report.field_means],
        "overall_mean": _round(report.overall_mean, args.precision),
        "eta": _round(report.eta, args.precision),
    }
    return _emit(args, header, [row], payload)


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
    # str() of a KeyError is the repr of its message.
    message = str(exc.args[0]) if isinstance(exc, KeyError) and exc.args else str(exc)
    record: dict = {"error": type(exc).__name__, "message": message}
    if isinstance(exc, ValidationError):
        record["issues"] = [dataclasses.asdict(issue) for issue in exc.issues]
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
        sys.stderr.write(json.dumps(_error_record(exc)) + "\n")
        return 2 if isinstance(exc, NoConvergence) else 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
