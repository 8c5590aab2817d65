"""Backward-recursion solver against an independent oracle and closed forms."""

import numpy as np
import pytest

from batchbandit.core import ConfigurationError, SymmetricPrior, UGrid
from batchbandit.dp import DpConfig, solve_invariant

# The brute-force backward-quadrature oracle lives in dp_oracle.py so the
# acceptance suite can run the same comparison.
from dp_oracle import ORACLE_GRID, oracle_value


@pytest.mark.parametrize("n_packets", [2, 3, 4])
@pytest.mark.parametrize("atoms", [((1.1, 1.0),), ((0.7, 0.4), (1.8, 0.6))])
def test_solver_matches_oracle_at_every_state(n_packets, atoms):
    eps = 1.0 / n_packets
    grid = ORACLE_GRID
    prior = SymmetricPrior(atoms)
    out = solve_invariant(DpConfig(eps, prior, grid), keep_values=True)
    for (k1, k2), row in out.slices.items():
        want = oracle_value(atoms, eps, grid.u_max, n_packets, k1, k2, grid.points)
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-4)


def test_oracle_agreement_is_well_under_tolerance():
    # the 1e-4 bound in the acceptance gate is loose on purpose
    grid = ORACLE_GRID
    prior = SymmetricPrior.two_point(1.1)
    out = solve_invariant(DpConfig(0.25, prior, grid), keep_values=True)
    row = out.slices[(1, 1)]
    want = oracle_value(((1.1, 1.0),), 0.25, grid.u_max, 4, 1, 1, grid.points)
    np.testing.assert_allclose(row, want, rtol=0, atol=2e-5)


# ---------------------------------------------------------------------------
# Closed forms and structure.
# ---------------------------------------------------------------------------


def test_pure_initial_stage_closed_form():
    # 1/eps = 2: both batches are forced, the risk is the initial term alone
    out = solve_invariant(DpConfig(0.5, SymmetricPrior.two_point(1.0), UGrid(2.0, 0.05)))
    assert out.bayes_risk == pytest.approx(1.0, abs=1e-12)
    assert out.bayes_risk_no_initial == 0.0
    assert np.all(out.slices[(1, 1)] == 0.0)


def test_vanishing_gap_risk_vanishes():
    out = solve_invariant(DpConfig(0.25, SymmetricPrior.two_point(1e-9), UGrid(2.0, 0.05)))
    assert 0.0 <= out.bayes_risk <= 1e-6


def test_initial_stage_decomposition_is_exact():
    prior = SymmetricPrior.two_point(1.6)
    out = solve_invariant(DpConfig(0.1, prior, UGrid(3.0, 0.02)))
    assert out.bayes_risk - out.bayes_risk_no_initial == pytest.approx(
        2.0 * 0.1 * 1.6, abs=1e-15
    )


def test_worst_point_risk_matches_published_value():
    out = solve_invariant(DpConfig(0.02, SymmetricPrior.two_point(1.6)), keep_strategy=False)
    assert out.bayes_risk == pytest.approx(0.65, abs=0.02)


def test_risk_monotone_in_batch_fraction():
    risks = {
        eps: solve_invariant(
            DpConfig(eps, SymmetricPrior.two_point(1.6)), keep_strategy=False
        ).bayes_risk
        for eps in (0.04, 0.02, 0.01)
    }
    assert risks[0.04] > risks[0.02] > risks[0.01]
    assert risks[0.04] - risks[0.02] > 1e-4
    assert risks[0.02] - risks[0.01] > 1e-4


def test_terminal_zeros_nonnegativity_and_finiteness():
    cfg = DpConfig(0.1, SymmetricPrior.two_point(1.6), UGrid(3.0, 0.02))
    out = solve_invariant(cfg, keep_values=True)
    P = cfg.n_packets
    seen_terminal = 0
    for (k1, k2), row in out.slices.items():
        assert np.all(np.isfinite(row))
        assert np.all(row >= 0.0)
        if k1 + k2 == P:
            assert np.all(row == 0.0)
            seen_terminal += 1
    assert seen_terminal == P + 1


def test_arm_swap_symmetry_of_values():
    out = solve_invariant(
        DpConfig(0.125, SymmetricPrior(((0.8, 0.3), (1.6, 0.7))), UGrid(3.0, 0.02)),
        keep_values=True,
    )
    for (k1, k2), row in out.slices.items():
        mirrored = out.slices[(k2, k1)]
        np.testing.assert_allclose(row, mirrored[::-1], rtol=0, atol=1e-9)


def test_tie_break_and_sign_convention():
    # 3 batches: the two penultimate slices coincide row-for-row, so the
    # value comparison at (1, 1, u=0) is an exact tie and must resolve to 1
    grid = UGrid(2.0, 0.05)
    out = solve_invariant(DpConfig(1.0 / 3.0, SymmetricPrior.two_point(1.2), grid))
    st = out.strategy
    center = grid.n_half
    assert st.arm1[1, 1, center]
    # large positive u favors arm 1, large negative favors arm 2
    assert st.arm1[1, 1, -1]
    assert not st.arm1[1, 1, 0]
    assert st.arm1[1, 1, grid.nearest_index(1.9)]
    assert not st.arm1[1, 1, grid.nearest_index(-1.9)]


def test_strategy_symmetry_modulo_exact_ties():
    cfg = DpConfig(0.125, SymmetricPrior.two_point(1.3), UGrid(3.0, 0.02))
    out = solve_invariant(cfg, keep_values=True)
    P = cfg.n_packets
    for (k1, k2) in out.slices:
        if not (2 <= k1 + k2 <= P - 1):
            continue
        a = out.strategy.arm1[k1, k2]
        b = out.strategy.arm1[k2, k1][::-1]
        disagree = a != ~b  # the mirrored state plays the other arm
        if np.any(disagree):
            # disagreements are only allowed at exact value ties
            row = out.slices[(k1, k2)]
            mirrored = out.slices[(k2, k1)][::-1]
            assert np.allclose(row[disagree], mirrored[disagree], atol=1e-12)


def test_config_validation():
    prior = SymmetricPrior.two_point(1.0)
    with pytest.raises(ConfigurationError):
        DpConfig(0.3, prior)  # 1/eps not an integer
    with pytest.raises(ConfigurationError):
        DpConfig(0.6, prior)  # fewer than 2 batches
    with pytest.raises(ConfigurationError):
        DpConfig(0.0, prior)
    with pytest.raises(ConfigurationError):
        DpConfig(0.25, prior, UGrid(4.0, 2.0))  # grid cannot resolve any kernel
    # the widest kernel, at K = 3, has 3 sigma = 3*sqrt(0.1875) ~ 1.299
    DpConfig(0.25, prior, UGrid(4.0, 1.29))
    with pytest.raises(ConfigurationError, match="cannot resolve any kernel"):
        DpConfig(0.25, prior, UGrid(4.0, 1.31))
