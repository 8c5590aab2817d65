"""Explicit scheme for the diffusion limit."""

import numpy as np
import pytest

from batchbandit.core import ConfigurationError, SymmetricPrior, UGrid, loss_profile
from batchbandit.dp import DpConfig, solve_invariant
from batchbandit.pde import PdeConfig, solve_pde


def test_rejects_unstable_step_pairing():
    prior = SymmetricPrior.two_point(1.57)
    # du^2 = 0.000529 < eps: the monotone explicit step breaks down
    with pytest.raises(ConfigurationError):
        PdeConfig(0.001, prior, du=0.023)
    PdeConfig(0.001, prior, du=0.032)


def test_rejects_bad_epsilon():
    prior = SymmetricPrior.two_point(1.0)
    with pytest.raises(ConfigurationError):
        PdeConfig(0.3, prior, du=0.6)
    with pytest.raises(ConfigurationError):
        PdeConfig(0.0, prior)
    with pytest.raises(ConfigurationError):
        PdeConfig(0.6, prior, du=0.8)


def test_degenerate_two_packet_horizon_is_closed_form():
    sol = solve_pde(PdeConfig(0.5, SymmetricPrior.two_point(1.3), du=0.75, u_max=2.25))
    assert sol.limit_risk == pytest.approx(1.3, abs=1e-15)
    assert sol.limit_risk_no_initial == 0.0


def test_penultimate_diagonal_is_one_step_loss():
    eps, du = 0.25, 0.5
    prior = SymmetricPrior.two_point(1.1)
    sol = solve_pde(PdeConfig(eps, prior, du=du, u_max=2.0), keep_values=True)
    grid = UGrid(2.0, du)
    u = grid.points
    for k1, k2 in ((1, 2), (2, 1), (0, 3), (3, 0)):
        want = eps * np.minimum(
            loss_profile(prior, 1, u, k1 * eps, k2 * eps),
            loss_profile(prior, 2, u, k1 * eps, k2 * eps),
        )
        want[0] = want[-1] = 0.0
        np.testing.assert_allclose(sol.slices[(k1, k2)], want, atol=1e-14)


def test_keep_values_retains_every_diagonal():
    sol = solve_pde(PdeConfig(0.25, SymmetricPrior.two_point(1.0), du=0.5), keep_values=True)
    assert len(sol.slices) == 12  # sum of K+1 over K = 2..4
    for row in sol.slices.values():
        assert np.isfinite(row).all()
        assert (row >= 0.0).all()


def test_matches_exact_solver_as_eps_shrinks():
    prior = SymmetricPrior.two_point(1.6)
    diffs = {}
    for eps, du in ((0.01, 0.1), (0.002, 0.0448)):
        dp = solve_invariant(DpConfig(eps, prior), keep_strategy=False).bayes_risk
        pde = solve_pde(PdeConfig(eps, prior, du=du)).limit_risk
        diffs[eps] = abs(dp - pde)
    assert diffs[0.01] < 2e-3
    assert diffs[0.002] < 1e-3
    assert diffs[0.002] < diffs[0.01]


def test_limit_value_slice_is_symmetric():
    sol = solve_pde(PdeConfig(0.004, SymmetricPrior(((0.8, 0.3), (1.9, 0.7))), du=0.0633))
    row = sol.slices[(1, 1)]
    np.testing.assert_allclose(row, row[::-1], atol=1e-12)


def test_limit_risk_near_its_published_level():
    # the well-resolved value at the worst-case gap is about 0.637; a
    # moderate eps lands close to it
    sol = solve_pde(PdeConfig(0.004, SymmetricPrior.two_point(1.57), du=0.0633))
    assert 0.632 < sol.limit_risk < 0.648


def test_risk_decomposition_and_bounds():
    prior = SymmetricPrior(((0.6, 0.4), (2.1, 0.6)))
    sol = solve_pde(PdeConfig(0.004, prior, du=0.0633))
    want = 2.0 * 0.004 * prior.mean_w
    assert sol.limit_risk - sol.limit_risk_no_initial == pytest.approx(want, abs=1e-15)
    assert 0.0 <= sol.limit_risk
    for d in (0.3, 1.57, 5.0):
        s = solve_pde(PdeConfig(0.01, SymmetricPrior.two_point(d), du=0.1001))
        assert 0.0 <= s.limit_risk <= d + 0.01
