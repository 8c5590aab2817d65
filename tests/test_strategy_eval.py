"""Expected-loss recursion for fixed deterministic strategies."""

import numpy as np
import pytest

from batchbandit.core import ConfigurationError, SymmetricPrior, UGrid, packet_count
from batchbandit.dp import DpConfig, StrategyTable, solve_invariant
from batchbandit.strategy_eval import EvalStrategy, evaluate, risk_curve


def sign_rule(epsilon: float, grid: UGrid) -> EvalStrategy:
    """Play the arm the statistic currently favors: arm 1 where u >= 0."""
    P = packet_count(epsilon)
    arm1 = np.broadcast_to(grid.points >= 0.0, (P + 1, P + 1, grid.n_points))
    return EvalStrategy(epsilon=epsilon, grid=grid, arm1=arm1)


def test_optimal_strategy_reproduces_bayes_risk():
    cfg = DpConfig(0.1, SymmetricPrior.two_point(1.6), UGrid(3.0, 0.02))
    out = solve_invariant(cfg)
    ev = evaluate(EvalStrategy.from_table(out.strategy), cfg.prior)
    assert ev.total_loss == out.bayes_risk
    assert ev.loss_no_initial == out.bayes_risk_no_initial


def test_always_first_arm_loses_exactly_d():
    # the one-step loss of the steady arm is a martingale under its own
    # transition kernel, so the total collapses to d in closed form
    for d in (0.5, 1.0, 2.0):
        st = EvalStrategy.constant(1, epsilon=0.02, grid=UGrid())
        ev = evaluate(st, SymmetricPrior.two_point(d))
        assert ev.total_loss == pytest.approx(d, abs=0.01)


def test_always_second_arm_is_symmetric():
    prior = SymmetricPrior.two_point(1.3)
    grid = UGrid(3.0, 0.02)
    one = evaluate(EvalStrategy.constant(1, epsilon=0.1, grid=grid), prior)
    two = evaluate(EvalStrategy.constant(2, epsilon=0.1, grid=grid), prior)
    assert one.total_loss == pytest.approx(two.total_loss, rel=1e-12)


def test_no_strategy_beats_the_bayes_risk():
    prior = SymmetricPrior.two_point(1.6)
    grid = UGrid(3.0, 0.02)
    eps = 0.1
    bayes = solve_invariant(DpConfig(eps, prior, grid), keep_strategy=False).bayes_risk
    candidates = [
        EvalStrategy.constant(1, epsilon=eps, grid=grid),
        EvalStrategy.constant(2, epsilon=eps, grid=grid),
        sign_rule(eps, grid),
    ]
    for st in candidates:
        assert evaluate(st, prior).total_loss >= bayes - 1e-6


def test_sign_threshold_strategy_is_nearly_optimal():
    # picking the arm the statistic currently favors is a strong heuristic;
    # it must sit above the Bayes risk but nowhere near the always-1 loss
    prior = SymmetricPrior.two_point(1.6)
    grid = UGrid(3.0, 0.02)
    bayes = solve_invariant(DpConfig(0.1, prior, grid), keep_strategy=False).bayes_risk
    loss = evaluate(sign_rule(0.1, grid), prior).total_loss
    assert bayes - 1e-6 <= loss <= bayes + 0.2


def test_initial_stage_term_is_exact():
    prior = SymmetricPrior(((0.9, 0.35), (2.2, 0.65)))
    st = EvalStrategy.constant(1, epsilon=0.125, grid=UGrid(3.0, 0.02))
    ev = evaluate(st, prior)
    want = 2.0 * 0.125 * prior.mean_w
    assert ev.total_loss - ev.loss_no_initial == pytest.approx(want, abs=1e-15)


def test_frozen_minimax_strategy_grows_past_the_saddle():
    # with the strategy frozen at the minimax point, the forced initial
    # stage costs 2*eps*d, which dominates for large d
    out = solve_invariant(DpConfig(0.02, SymmetricPrior.two_point(1.6)))
    frozen = EvalStrategy.from_table(out.strategy)
    far = evaluate(frozen, SymmetricPrior.two_point(20.0))
    assert far.total_loss > 0.66
    assert far.total_loss - far.loss_no_initial == pytest.approx(0.8, abs=1e-12)


def test_risk_curve_with_reoptimized_strategy():
    rows = risk_curve([0.5, 1.0], 0.25, grid=UGrid(2.0, 0.05))
    assert [r.d for r in rows] == [0.5, 1.0]
    for r in rows:
        assert r.expected_loss == r.bayes_risk
        assert r.expected_loss_no_init == r.bayes_risk_no_init
        assert r.bayes_risk >= r.bayes_risk_no_init


def test_risk_curve_with_frozen_strategy_dominates_bayes():
    grid = UGrid(3.0, 0.02)
    out = solve_invariant(DpConfig(0.1, SymmetricPrior.two_point(1.6), grid))
    frozen = EvalStrategy.from_table(out.strategy)
    rows = risk_curve([0.8, 1.6, 3.0], 0.1, grid=grid, strategy=frozen)
    for r in rows:
        assert r.expected_loss >= r.bayes_risk - 1e-9
        assert r.expected_loss_no_init >= r.bayes_risk_no_init - 1e-9
    # at the freeze point the strategy is the Bayes-optimal one
    mid = rows[1]
    assert mid.expected_loss == pytest.approx(mid.bayes_risk, abs=1e-9)


def test_risk_curve_rejects_mismatched_strategy():
    st = EvalStrategy.constant(1, epsilon=0.25, grid=UGrid(2.0, 0.05))
    with pytest.raises(ConfigurationError):
        risk_curve([1.0], 0.1, grid=UGrid(2.0, 0.05), strategy=st)
    with pytest.raises(ConfigurationError):
        risk_curve([1.0], 0.25, grid=UGrid(3.0, 0.05), strategy=st)


def test_strategy_lattice_must_be_a_bool_array_of_the_lattice_shape():
    grid = UGrid(2.0, 0.05)
    shape = (5, 5, grid.n_points)  # epsilon = 0.25
    bad = [
        np.ones((4, 5, grid.n_points), dtype=bool),
        np.ones(shape, dtype=np.int8),
        np.ones(shape),
        [[[True] * grid.n_points] * 5] * 5,
    ]
    for arm1 in bad:
        for cls in (StrategyTable, EvalStrategy):
            with pytest.raises(ConfigurationError, match="arm1"):
                cls(epsilon=0.25, grid=grid, arm1=arm1)
    with pytest.raises(ConfigurationError, match="arm must be 1 or 2"):
        EvalStrategy.constant(0, epsilon=0.25, grid=grid)


def test_from_table_shares_the_solver_lattice():
    cfg = DpConfig(0.25, SymmetricPrior.two_point(1.0), UGrid(2.0, 0.05))
    table = solve_invariant(cfg).strategy
    view = EvalStrategy.from_table(table)
    assert view.arm1 is table.arm1
    assert (view.epsilon, view.grid) == (table.epsilon, table.grid)


def test_flipping_a_fraction_of_decisions_costs_extra():
    prior = SymmetricPrior.two_point(1.6)
    grid = UGrid(3.0, 0.02)
    out = solve_invariant(DpConfig(0.1, prior, grid))
    # tweak flips a fixed tenth of the states (every tenth grid point) to the
    # other arm, anti the other nine tenths
    tenth = np.zeros(grid.n_points, dtype=bool)
    tenth[::10] = True
    tweak = EvalStrategy(epsilon=0.1, grid=grid, arm1=out.strategy.arm1 ^ tenth)
    anti = EvalStrategy(epsilon=0.1, grid=grid, arm1=out.strategy.arm1 ^ ~tenth)
    loss_tweak = evaluate(tweak, prior).total_loss
    loss_anti = evaluate(anti, prior).total_loss
    assert loss_tweak > out.bayes_risk + 0.05
    assert loss_anti > loss_tweak + 0.5
