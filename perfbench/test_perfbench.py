"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q      # about two minutes

The shortest real run of every workload must pass its check, the tracer's
self times must partition each pass, and tracing must leave the package
exactly as it found it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import batchbandit  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from batchbandit import cli, core, search, strategy_eval  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_shortest_run_of_each_workload_passes_its_check(workload):
    code, line = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert code == 0
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    units = {k: v["unit"] for k, v in line["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    code, line = bench("--workload", "crosscheck", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert code == 0 and line["correct"]
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    # computed from the configs: eps = 0.01 and 0.005 lattices, plus the eps = 0.02 export
    assert metrics["dp.rows"] == 5047 + 20097 + 1272
    assert metrics["core.convolve.calls"] == 2 * metrics["dp.rows"]
    assert metrics["dp.solve.calls"] == 3 and metrics["pde.solve.calls"] == 6
    assert metrics["pde.cells"] == 6 * 500497 * 145
    assert metrics["strategy_io.file_bytes"] > 10_000_000


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, line = bench("--workload", "minimax_dp", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0 and line is None


def test_reference_gate_catches_a_moved_risk():
    assert workloads.compare({"r": [0.5, 0.25]}, {"r": [0.5, 0.25]}) == []
    assert workloads.compare({"r": [0.5, 0.25 + 1e-11]}, {"r": [0.5, 0.25]})


def _tiny_calls(tmp_path):
    """One cheap call into every traced layer."""
    grid = core.UGrid(2.0, 0.1)
    curve = search.scan(1.0, 2.0, 0.5, backend="dp", epsilon=0.1, grid=grid)
    refined = search.refine(curve, 0.3)
    search.saddle_check(1.5, 0.1, grid=grid, d_values=[1.0, 2.0])
    search.scan(1.5, 1.5, 0.5, backend="pde", epsilon=0.01, grid=grid)
    table = tmp_path / "strategy.csv"
    argv = ["--epsilon", "0.1", "--d", "1.5", "--u-max", "2.0", "--du", "0.1"]
    assert cli.main(["export-strategy", *argv, "--out", str(table)]) == 0
    for model in ("bernoulli", "gaussian"):
        assert cli.main(["simulate", "--strategy", str(table), "--t", "1000", "--m", "100",
                         "--d", "1.5", "--reps", "50", "--model", model,
                         "--out", str(tmp_path / f"{model}.json")]) == 0
    return refined


def test_traced_self_times_partition_the_pass(tmp_path):
    tracer = tracing.Tracer()
    with tracer, tracer.root("pass", 0):
        refined = _tiny_calls(tmp_path)
    assert tracer.absent == []
    spans = tracer.spans
    seen = {s[tracing.NAME] for s in spans} | {k for s in spans for k in s[tracing.AGG]}
    assert seen >= set(tracing.TARGETS)

    total_self = 0.0
    for i, span in enumerate(spans):
        dur = span[tracing.END] - span[tracing.START]
        children = [c for c in spans if c[tracing.PARENT] == i]
        child_self = sum(c[tracing.END] - c[tracing.START] - c[tracing.CHILD_S]
                         for c in children)
        assert 0.0 <= span[tracing.CHILD_S] <= dur
        assert child_self <= dur
        total_self += dur - span[tracing.CHILD_S]
        for count, busy, self_s in span[tracing.AGG].values():
            assert count > 0 and 0.0 <= self_s <= busy <= dur
            total_self += self_s
    root = spans[0]
    assert total_self == pytest.approx(root[tracing.END] - root[tracing.START], abs=1e-6)

    metrics, _ = tracing.pass_metrics(spans, 0, 0)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_s"}
    assert metrics["search.refine.evaluations"] == refined.evaluations
    # scan 3 + refine + saddle 1 + export 1 dp solves, eps = 0.1: rows 3 + ... + 10
    assert metrics["dp.rows"] == (5 + refined.evaluations) * sum(range(3, 11))


def _package_state():
    state = {}
    for name, module in list(sys.modules.items()):
        if name == "batchbandit" or name.startswith("batchbandit."):
            state.update({(name, k): v for k, v in vars(module).items()})
    state["from_table"] = vars(strategy_eval.EvalStrategy)["from_table"]
    return state


def test_tracer_restores_every_attribute_even_after_an_error():
    before = _package_state()
    targets = dict(tracing.TARGETS, **{"gone.fn": ("batchbandit.core", "no_such_fn", False, None)})
    tracer = tracing.Tracer(targets)
    with pytest.raises(core.ConfigurationError):
        with tracer, tracer.root("pass", 0):
            assert search.scan is not before[("batchbandit.search", "scan")]
            search.scan(2.0, 1.0, 0.5, epsilon=0.1)  # d_min > d_max raises inside a span
    after = _package_state()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert batchbandit.scan is search.scan
    assert tracer.absent == ["gone.fn"]
    assert tracer.spans[-1][tracing.NAME] == "search.scan" and tracer.spans[-1][tracing.END] > 0
