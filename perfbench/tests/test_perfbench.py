"""Tests of the benchmark itself, on tiny instances.

Run with:  python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from journalrank import indicators, properties  # noqa: E402

TINY = {
    "cli_files": workloads.Size(6, 8.0, 1.0),
    "damping_sweep": workloads.Size(40, 2.0, 0.3),
    "loo_sweep": workloads.Size(20, 6.0, 0.5),
}
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def bench(capsys, workload, seed=1, trace=0, seconds=0.2):
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        sizes=TINY,
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(capsys, workload, trace):
    result, report = bench(capsys, workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert f"{name} {metric['value']!r} {metric['unit']}" in report


def test_workload_names_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def test_trace_confirms_the_layer_map(capsys):
    sweep, _ = bench(capsys, "damping_sweep", trace=1)
    loo, _ = bench(capsys, "loo_sweep", trace=1)
    assert sweep["metrics"]["core.structure.calls"]["value"] == 3.0
    assert loo["metrics"]["core.structure.calls"]["value"] == 0.0
    for result in (sweep, loo):
        assert result["metrics"]["dataio.read_matrix.calls"]["value"] == 0.0
        assert result["metrics"]["tracing_overhead"]["value"] > 0


def test_traced_cli_records_spans_from_the_child(capsys):
    result, _ = bench(capsys, "cli_files", trace=1, seconds=0.5)
    metrics = result["metrics"]
    assert metrics["cli.main.calls"]["value"] == 1.0
    assert metrics["dataio.read_matrix.calls"]["value"] == 1.0
    assert metrics["dataio.read_matrix.mb_per_s"]["value"] > 0


def test_wrong_indicator_output_counts_as_failure(monkeypatch):
    workload = workloads.DampingSweep(2, TINY["damping_sweep"])
    workload.setup()
    workload.references()
    original = indicators.compute

    def skewed(kind, *args, **kwargs):
        vector = original(kind, *args, **kwargs)
        if kind != "ipp":
            return vector
        values = vector.values.copy()
        values[0] *= 1.001
        return indicators.IndicatorVector(vector.kind, values, vector.params, vector.solver)

    monkeypatch.setattr(indicators, "compute", skewed)
    loop = run.Loop().run(workload, 0.1)
    assert loop.attempted >= 1 and loop.failed == loop.attempted
    assert loop.latencies == []
    assert "IPP/AI(1) ratio spread" in loop.first_failure


def test_wrong_leave_one_out_counts_as_failure(monkeypatch):
    workload = workloads.LooSweep(3, TINY["loo_sweep"])
    workload.setup()
    workload.references()
    original = properties.leave_one_out

    def skewed(*args, **kwargs):
        report = original(*args, **kwargs)
        before = report.before.copy()
        before[-1] *= 1.001
        return properties.LeaveOneOutReport(
            report.dropped, before, report.after, report.relative_change,
            report.max_relative_change, report.zero_before,
        )

    monkeypatch.setattr(properties, "leave_one_out", skewed)
    loop = run.Loop().run(workload, 0.1)
    assert loop.attempted >= 1 and loop.failed == loop.attempted
    assert "before differs" in loop.first_failure


def test_wrong_cli_output_fails_its_check(tmp_path):
    workload = workloads.CliFiles(4, TINY["cli_files"], tmp_path)
    workload.setup()
    workload.references()
    argv = workload.argv(0)
    good = "id,value\n" + "".join(
        f"{i},{v:.3f}\n" for i, v in zip(workload.journals.ids, workload.reference["if"])
    )
    workload.check(argv, good)
    with pytest.raises(workloads.CheckFailed):
        workload.check(argv, good.replace(",", ",9", 2))


def test_seed_changes_inputs_but_not_metric_names(capsys):
    first = workloads.LooSweep(1, TINY["loo_sweep"])
    second = workloads.LooSweep(2, TINY["loo_sweep"])
    first.setup()
    second.setup()
    assert not np.array_equal(first.matrix.counts, second.matrix.counts)
    again = workloads.LooSweep(1, TINY["loo_sweep"])
    again.setup()
    assert np.array_equal(first.matrix.counts, again.matrix.counts)
    names = [set(bench(capsys, "loo_sweep", seed=s)[0]["metrics"]) for s in (1, 2)]
    assert names[0] == names[1]


def test_tail_is_the_highest_level_with_ten_samples_beyond():
    assert run.tail(list(range(10000)))[0] == 99.9
    assert run.tail(list(range(1000)))[0] == 99.0
    assert run.tail(list(range(999)))[0] == 90.0
    assert run.tail(list(range(100)))[0] == 90.0
    assert run.tail(list(range(99)))[0] == 50.0
    assert run.tail([1.0, 2.0, 3.0]) == (50.0, 2.0)


def test_absent_function_is_reported_not_fatal(monkeypatch):
    from journalrank import core

    monkeypatch.delattr(core, "structure")
    spans = tracer.Tracer()
    spans.install()
    try:
        assert spans.absent == ["core.structure"]
    finally:
        spans.uninstall()
    metrics = tracer.layer_metrics(spans, 1, 0)
    assert metrics["core.structure.calls"] == (0.0, "calls/op")


def test_run_refuses_without_the_package(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "loo_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 2
