"""Worst-case gap search: scan, refinement, saddle certification."""

import math

import numpy as np
import pytest

from batchbandit import search
from batchbandit.core import ConfigurationError, InternalError, SymmetricPrior, UGrid
from batchbandit.dp import DpConfig, solve_invariant
from batchbandit.search import (
    RefineResult,
    ScanCurve,
    ScanPoint,
    golden_section_max,
    refine,
    saddle_check,
    scan,
)
from batchbandit.strategy_eval import EvalStrategy, evaluate, frozen_losses

EPS = 0.1
GRID = UGrid(3.0, 0.02)


def test_scan_values_match_solver_bitwise():
    curve = scan(0.8, 2.0, 0.4, backend="dp", epsilon=EPS, grid=GRID)
    for p in curve.points:
        out = solve_invariant(
            DpConfig(EPS, SymmetricPrior.two_point(p.d), GRID), keep_strategy=False
        )
        assert p.risk == out.bayes_risk


def test_scan_single_point_range():
    curve = scan(1.6, 1.6, 0.5, backend="dp", epsilon=EPS, grid=GRID)
    assert len(curve.points) == 1
    assert curve.points[0].d == 1.6


def test_scan_covers_both_endpoints():
    curve = scan(0.5, 2.5, 0.25, backend="dp", epsilon=0.25, grid=UGrid(2.0, 0.05))
    assert curve.points[0].d == 0.5
    assert curve.points[-1].d == pytest.approx(2.5, abs=1e-9)
    assert len(curve.points) == 9


def test_scan_validates_range():
    with pytest.raises(ConfigurationError):
        scan(0.0, 1.0, 0.1, epsilon=EPS, grid=GRID)
    with pytest.raises(ConfigurationError):
        scan(2.0, 1.0, 0.1, epsilon=EPS, grid=GRID)
    with pytest.raises(ConfigurationError):
        scan(1.0, 2.0, 0.0, epsilon=EPS, grid=GRID)
    with pytest.raises(ConfigurationError):
        scan(1.0, 2.0, 0.1, backend="fem", epsilon=EPS, grid=GRID)


@pytest.mark.parametrize(
    "d_min, d_max, step",
    [
        (1.0, 2.0, 1e-20),  # stalls at d_min: 1.0 + 1e-20 == 1.0
        (1.0, 2.0, 1.5e-16),  # advances below 2.0, stalls there: 2.0 + 1.5e-16 == 2.0
        (1.0, 1.0 + 2**-52, 2**-53),  # d_max + step > d_max, yet 1.0 + step ties to 1.0
    ],
)
def test_d_range_refuses_a_step_that_cannot_advance(d_min, d_max, step):
    with pytest.raises(ConfigurationError, match="step must be positive and move every gap"):
        search.d_range(d_min, d_max, step)


def test_d_range_counts_its_gaps_before_building_them():
    assert len(search.d_range(0.2, 20.0, 0.2)) == 100  # figure1's default range
    want = rf"1000001 gaps in \[1.0, 2.0\], > {search.MAX_GAPS}"
    with pytest.raises(ConfigurationError, match=want):
        search.d_range(1.0, 2.0, 1e-6)


@pytest.mark.parametrize("backend", ["dp", "pde"])
def test_d_range_refuses_a_top_gap_whose_squared_rate_overflows(monkeypatch, backend):
    # the gaps below 1e154 are admissible: refused before any of them is solved
    monkeypatch.setattr(search, "solve_invariant", None)
    monkeypatch.setattr(search, "solve_pde", None)
    with pytest.raises(ConfigurationError, match=r"2\*w\^2 overflows"):
        scan(0.5, 1e154, 1e153, backend=backend, epsilon=EPS, grid=GRID)
    assert search.d_range(0.5, 9e153, 1e153)[-1] == 9e153


def test_risk_vanishes_with_the_gap():
    curve = scan(0.01, 1.6, 0.2, backend="dp", epsilon=EPS, grid=GRID)
    assert curve.points[0].risk < 0.02
    assert curve.points[0].risk == min(p.risk for p in curve.points)


def test_golden_section_recovers_analytic_maximum():
    x, y, evals = golden_section_max(lambda x: -((x - 0.7) ** 2), 0.0, 2.0, 1e-5)
    assert x == pytest.approx(0.7, abs=1e-4)
    assert y == pytest.approx(0.0, abs=1e-8)
    assert evals > 10


@pytest.mark.parametrize("tolerance", [0.0, -1.0, math.nan])
def test_golden_section_rejects_a_tolerance_that_is_not_positive(tolerance):
    with pytest.raises(ConfigurationError, match="tolerance"):
        golden_section_max(lambda x: -x * x, -1.0, 1.0, tolerance)


def test_golden_section_stops_at_the_brackets_float_resolution():
    calls = []

    def f(x):
        calls.append(x)
        if len(calls) > 200:
            raise RuntimeError("golden section kept probing past the float resolution")
        return -((x - 0.7) ** 2)

    x, y, evals = golden_section_max(f, 0.0, 2.0, 1e-300)
    assert evals == len(calls) <= 200
    assert x == pytest.approx(0.7, abs=1e-12)


def test_refine_recovers_injected_concave_maximum(monkeypatch):
    f = lambda d: 1.0 - (d - 1.37) ** 2
    monkeypatch.setattr(search, "_risk_fn", lambda backend, epsilon, grid: f)
    points = tuple(ScanPoint(d=d, risk=f(d)) for d in np.arange(0.5, 2.51, 0.25))
    curve = ScanCurve(backend="dp", epsilon=EPS, grid=GRID, points=points)
    res = refine(curve, tolerance=1e-4)
    assert not res.boundary
    assert res.d_star == pytest.approx(1.37, abs=1e-3)
    assert res.risk_star >= max(p.risk for p in points)


def test_refine_flags_boundary_maximum():
    # past the worst gap the curve only falls, so the scan maximum sits on
    # the left edge of this window
    curve = scan(2.0, 3.0, 0.5, backend="dp", epsilon=0.02)
    res = refine(curve)
    assert res.boundary
    assert res.d_star == 2.0
    assert res.evaluations == 0


@pytest.fixture(scope="module")
def worst_gap():
    """The headline search at eps = 0.02: the scan and its refinement."""
    curve = scan(0.5, 2.5, 0.25, backend="dp", epsilon=0.02)
    return curve, refine(curve, tolerance=0.01)


def test_refine_locates_worst_gap(worst_gap):
    curve, res = worst_gap
    assert not res.boundary
    assert 1.5 < res.d_star < 1.75
    assert res.risk_star == pytest.approx(0.65, abs=0.02)
    assert res.risk_star >= curve.best().risk


def test_saddle_check_passes_at_the_worst_gap(worst_gap):
    _, res = worst_gap
    ds = np.r_[np.arange(0.4, 16.1, 0.8), [18.0, 20.0]]
    report = saddle_check(res.d_star, 0.02, d_values=ds)
    assert report.passed
    assert report.passed == (report.max_within_cutoff <= report.risk_star + report.tolerance)
    # far beyond the cutoff the forced initial stage dominates the loss
    assert report.exceedances
    assert all(r.d > 16.0 for r in report.exceedances)
    far = report.rows[-1]
    assert far.d == 20.0
    assert far.loss > 0.66
    assert far.loss - far.loss_no_initial == pytest.approx(2.0 * 0.02 * 20.0, abs=1e-12)


def test_saddle_check_reports_off_saddle_freeze():
    # freezing the strategy at a clearly sub-worst gap must break the
    # saddle inequality somewhere in the sweep
    report = saddle_check(0.4, EPS, grid=GRID, d_values=[0.4, 1.6, 2.4])
    assert not report.passed
    assert report.passed == (report.max_within_cutoff <= report.risk_star + report.tolerance)


def test_saddle_rows_match_the_backward_sweep_and_anchor_d_star():
    report = saddle_check(1.6, EPS, grid=GRID, d_values=[0.4, 0.8, 2.4, 6.0, 18.0])
    frozen = EvalStrategy.from_table(
        solve_invariant(DpConfig(EPS, SymmetricPrior.two_point(1.6), GRID)).strategy
    )
    assert [r.d for r in report.rows] == [0.4, 0.8, 1.6, 2.4, 6.0, 18.0]
    for r in report.rows:
        ev = evaluate(frozen, SymmetricPrior.two_point(r.d))
        assert abs(r.loss - ev.total_loss) <= 1e-13
        assert abs(r.loss_no_initial - ev.loss_no_initial) <= 1e-13
        # Python floats, so that reports and flags built on them serialize as JSON
        assert type(r.loss) is float and type(r.loss_no_initial) is float
    # the d_star row is the backward sweep's, which reproduces the solver's risk
    assert report.rows[2].loss == report.risk_star


def test_saddle_check_refuses_a_forward_sweep_that_drifts_from_the_anchor(monkeypatch):
    def drifted(strategy, gaps):
        total, no_initial = frozen_losses(strategy, gaps)
        return total + 1e-9, no_initial + 1e-9

    monkeypatch.setattr(search, "frozen_losses", drifted)
    with pytest.raises(InternalError, match="backward sweep"):
        saddle_check(1.6, EPS, grid=GRID, d_values=[0.8])


@pytest.mark.parametrize("d", [0.0, -1.0, math.nan, math.inf])
def test_saddle_check_refuses_a_bad_gap_before_the_solve(monkeypatch, d):
    monkeypatch.setattr(search, "solve_invariant", None)
    with pytest.raises(ConfigurationError, match="positive and finite"):
        saddle_check(1.6, EPS, grid=GRID, d_values=[0.8, d])


def test_saddle_check_needs_a_gap_within_the_cutoff(monkeypatch):
    monkeypatch.setattr(search, "solve_invariant", None)
    with pytest.raises(ConfigurationError, match="cutoff 16.0"):
        saddle_check(18.0, EPS, grid=UGrid(2.0, 0.1), d_values=[20.0])


def test_saddle_certificate_bounds_multi_atom_priors(worst_gap):
    # a frozen strategy's loss is linear in the prior, so a dense saddle
    # pass bounds the Bayes risk of every symmetric prior on its gaps
    _, res = worst_gap
    report = saddle_check(res.d_star, 0.02, d_values=np.arange(0.05, 15.8, 0.05))
    assert report.passed
    assert report.max_within_cutoff <= res.risk_star + 1e-3
    frozen = EvalStrategy.from_table(
        solve_invariant(DpConfig(0.02, SymmetricPrior.two_point(res.d_star))).strategy
    )
    two_atoms = SymmetricPrior(((1.0, 0.5), (2.2, 0.5)))
    (at_1, at_2), (no_init_1, no_init_2) = frozen_losses(frozen, [1.0, 2.2])
    mixed = 0.5 * (no_init_1 + no_init_2) + 2.0 * 0.02 * two_atoms.mean_w
    assert abs(mixed - 0.5 * (at_1 + at_2)) <= 1e-15
    assert abs(mixed - evaluate(frozen, two_atoms).total_loss) <= 1e-12
    bayes = solve_invariant(DpConfig(0.02, two_atoms), keep_strategy=False).bayes_risk
    assert bayes <= mixed <= res.risk_star
