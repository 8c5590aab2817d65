"""Worst-case gap search: scan, refinement, saddle certification."""

import math

import numpy as np
import pytest

from batchbandit.core import ConfigurationError, SymmetricPrior, UGrid
from batchbandit.dp import DpConfig, solve_invariant
from batchbandit.search import (
    RefineResult,
    ScanCurve,
    ScanPoint,
    golden_section_max,
    refine,
    saddle_check,
    scan,
    search_multi_atom,
)

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


def test_risk_vanishes_with_the_gap():
    curve = scan(0.01, 1.6, 0.2, backend="dp", epsilon=EPS, grid=GRID)
    assert curve.points[0].risk < 0.02
    assert curve.points[0].risk == min(p.risk for p in curve.points)


def test_golden_section_recovers_analytic_maximum():
    x, y, evals = golden_section_max(lambda x: -((x - 0.7) ** 2), 0.0, 2.0, 1e-5)
    assert x == pytest.approx(0.7, abs=1e-4)
    assert y == pytest.approx(0.0, abs=1e-8)
    assert evals > 10


def test_refine_recovers_injected_concave_maximum():
    f = lambda d: 1.0 - (d - 1.37) ** 2
    points = tuple(ScanPoint(d=d, risk=f(d)) for d in np.arange(0.5, 2.51, 0.25))
    curve = ScanCurve(backend="dp", epsilon=EPS, grid=GRID, points=points)
    res = refine(curve, tolerance=1e-4, risk_fn=f)
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


def test_refine_locates_worst_gap():
    curve = scan(0.5, 2.5, 0.25, backend="dp", epsilon=0.02)
    res = refine(curve, tolerance=0.01)
    assert not res.boundary
    assert 1.5 < res.d_star < 1.75
    assert res.risk_star == pytest.approx(0.65, abs=0.02)
    assert res.risk_star >= curve.best().risk


def test_saddle_check_passes_at_the_worst_gap():
    curve = scan(0.5, 2.5, 0.25, backend="dp", epsilon=0.02)
    res = refine(curve, tolerance=0.01)
    ds = np.r_[np.arange(0.4, 16.1, 0.8), [18.0, 20.0]]
    report = saddle_check(res.d_star, 0.02, d_values=ds)
    assert report.passed
    # evaluating the frozen argmin table reruns the solve pipeline exactly
    assert report.equality_gap == pytest.approx(0.0, abs=1e-12)
    assert report.max_within_cutoff <= report.risk_star + report.tolerance
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
    assert report.max_within_cutoff > report.risk_star + report.tolerance


def test_multi_atom_ascent_never_regresses():
    res = search_multi_atom(0.02, 2, sweeps=1, w_bounds=(0.5, 2.5), tolerance=0.05)
    # the ascent starts from atoms 1.0 and 2.2 with equal mass
    start = SymmetricPrior(((1.0, 0.5), (2.2, 0.5)))
    start_risk = solve_invariant(DpConfig(0.02, start), keep_strategy=False).bayes_risk
    assert res.risk >= start_risk - 1e-12
    assert res.evaluations > 0
    assert math.isclose(sum(p for _, p in res.prior.atoms), 1.0, abs_tol=1e-9)
    two_point = refine(scan(0.5, 2.5, 0.25, backend="dp", epsilon=0.02), tolerance=0.01)
    # spreading mass across atom pairs should not beat the two-point family,
    # but the ascent must land in its neighborhood
    assert res.risk <= two_point.risk_star + 1e-6
    assert res.risk >= two_point.risk_star - 0.005
