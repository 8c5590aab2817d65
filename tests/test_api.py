"""Public surface: __all__, and what the benchmark's tracer
(perfbench/tracer.py) relies on: the names it wraps, the arguments it reads
and the core functions it counts work with.  Deleting one fails here, not
only in the slower benchmark self-tests."""

import importlib.util
from pathlib import Path

import batchbandit
import batchbandit.cli  # noqa: F401  (the tracer wraps cli.main)
from batchbandit import cli, dp, pde, search, simulate, strategy_eval
from batchbandit.core import SymmetricPrior, UGrid

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_all_is_sorted_unique_and_resolves():
    names = batchbandit.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(batchbandit, n)] == []


def test_every_traced_name_exists():
    tracer = load_tracer().Tracer()
    with tracer:
        pass
    assert tracer.absent == []


def test_the_tracer_reads_the_arguments_of_every_call_it_describes():
    tracing = load_tracer()
    grid = UGrid(2.0, 0.1)
    prior = SymmetricPrior.two_point(1.5)
    tracer = tracing.Tracer()
    with tracer, tracer.root("pass", 0):
        table = dp.solve_invariant(dp.DpConfig(0.1, prior, grid)).strategy
        pde.solve_pde(pde.PdeConfig(0.1, prior, UGrid(2.0, 0.5)))
        strategy_eval.evaluate(strategy_eval.EvalStrategy.from_table(table), prior)
        trial = simulate.BatchTrialConfig(1000, 100, 0.5, 1.5, replications=50, seed=0)
        simulate.simulate_bernoulli(trial, table)
        simulate.simulate_gaussian(10, 1.5, table, 50, 0)
    described = {layer for layer, (_, _, _, info) in tracing.TARGETS.items() if info}
    facts = {s[tracing.NAME]: s[tracing.INFO] for s in tracer.spans}
    assert described <= set(facts)
    assert [layer for layer in described if facts[layer] is None] == []
    # the work counts are computed through core.transition_variance and gaussian_kernel
    metrics, _ = tracing.pass_metrics(tracer.spans, 0, 0)
    assert metrics["core.convolve.computed_macs"] > 0
    # the benchmark pins these call counts: two convolutions per dp and evaluate
    # row, one loss profile per diagonal of each of the three sweeps
    rows = sum(K + 1 for K in range(2, 10))  # eps = 0.1: diagonals K = 9 .. 2
    assert metrics["dp.rows"] == rows
    assert metrics["core.convolve.calls"] == 2 * (rows + rows)
    assert metrics["core.loss_profile.calls"] == 3 * 8


def test_a_tiny_pass_reaches_every_traced_layer(tmp_path):
    # the calls the benchmark's workloads make, on a tiny lattice; a layer a
    # refactor takes off their path (say saddle_check's evaluate) fails here
    tracing = load_tracer()
    grid = UGrid(2.0, 0.1)
    tracer = tracing.Tracer()
    with tracer, tracer.root("pass", 0):
        curve = search.scan(1.0, 2.0, 0.5, backend="dp", epsilon=0.1, grid=grid)
        search.refine(curve, 0.3)
        search.saddle_check(1.5, 0.1, grid=grid, d_values=[1.0, 2.0])
        search.scan(1.5, 1.5, 0.5, backend="pde", epsilon=0.01, grid=grid)
        table = tmp_path / "strategy.csv"
        argv = ["--epsilon", "0.1", "--d", "1.5", "--u-max", "2.0", "--du", "0.1"]
        assert cli.main(["export-strategy", *argv, "--out", str(table)]) == 0
        for model in ("bernoulli", "gaussian"):
            assert cli.main(["simulate", "--strategy", str(table), "--t", "1000", "--m", "100",
                             "--d", "1.5", "--reps", "50", "--model", model,
                             "--out", str(tmp_path / f"{model}.json")]) == 0
    assert tracer.absent == []
    spans = tracer.spans
    seen = {s[tracing.NAME] for s in spans} | {k for s in spans for k in s[tracing.AGG]}
    assert sorted(set(tracing.TARGETS) - seen) == []
