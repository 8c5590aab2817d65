"""Public surface: __all__, and what the benchmark's tracer
(perfbench/tracer.py) relies on: the names it wraps, the arguments it reads
and the core functions it counts work with.  Deleting one fails here, not
only in the slower benchmark self-tests."""

import importlib.util
from pathlib import Path

import batchbandit
import batchbandit.cli  # noqa: F401  (the tracer wraps cli.main)
from batchbandit import dp, pde, simulate, strategy_eval
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
        pde.solve_pde(pde.PdeConfig(0.1, prior, du=0.5, u_max=2.0))
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
