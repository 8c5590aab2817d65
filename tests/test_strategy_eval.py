"""Expected-loss recursion for fixed (possibly randomized) strategies."""

import numpy as np
import pytest

from batchbandit.core import ConfigurationError, SymmetricPrior, UGrid
from batchbandit.dp import DpConfig, solve_invariant
from batchbandit.strategy_eval import EvalStrategy, evaluate, risk_curve


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
        st = EvalStrategy.constant(1.0, epsilon=0.02, grid=UGrid())
        ev = evaluate(st, SymmetricPrior.two_point(d))
        assert ev.total_loss == pytest.approx(d, abs=0.01)


def test_always_second_arm_is_symmetric():
    prior = SymmetricPrior.two_point(1.3)
    grid = UGrid(3.0, 0.02)
    one = evaluate(EvalStrategy.constant(1.0, epsilon=0.1, grid=grid), prior)
    two = evaluate(EvalStrategy.constant(0.0, epsilon=0.1, grid=grid), prior)
    assert one.total_loss == pytest.approx(two.total_loss, rel=1e-12)


def test_no_strategy_beats_the_bayes_risk():
    prior = SymmetricPrior.two_point(1.6)
    grid = UGrid(3.0, 0.02)
    eps = 0.1
    bayes = solve_invariant(DpConfig(eps, prior, grid), keep_strategy=False).bayes_risk
    candidates = [
        EvalStrategy.constant(1.0, epsilon=eps, grid=grid),
        EvalStrategy.constant(0.5, epsilon=eps, grid=grid),
        EvalStrategy.from_function(
            lambda u, t1, t2: (u >= 0.0).astype(float), epsilon=eps, grid=grid
        ),
        EvalStrategy.from_function(
            lambda u, t1, t2: np.clip(0.5 + u / (2.0 * (1.0 - t1 - t2 + 1e-9)), 0.0, 1.0),
            epsilon=eps,
            grid=grid,
        ),
    ]
    for st in candidates:
        assert evaluate(st, prior).total_loss >= bayes - 1e-6


def test_sign_threshold_strategy_is_nearly_optimal():
    # picking the arm the statistic currently favors is a strong heuristic;
    # it must sit above the Bayes risk but nowhere near the always-1 loss
    prior = SymmetricPrior.two_point(1.6)
    grid = UGrid(3.0, 0.02)
    bayes = solve_invariant(DpConfig(0.1, prior, grid), keep_strategy=False).bayes_risk
    st = EvalStrategy.from_function(
        lambda u, t1, t2: (u >= 0.0).astype(float), epsilon=0.1, grid=grid
    )
    loss = evaluate(st, prior).total_loss
    assert bayes - 1e-6 <= loss <= bayes + 0.2


def test_initial_stage_term_is_exact():
    prior = SymmetricPrior(((0.9, 0.35), (2.2, 0.65)))
    st = EvalStrategy.constant(1.0, epsilon=0.125, grid=UGrid(3.0, 0.02))
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
    st = EvalStrategy.constant(1.0, epsilon=0.25, grid=UGrid(2.0, 0.05))
    with pytest.raises(ConfigurationError):
        risk_curve([1.0], 0.1, grid=UGrid(2.0, 0.05), strategy=st)
    with pytest.raises(ConfigurationError):
        risk_curve([1.0], 0.25, grid=UGrid(3.0, 0.05), strategy=st)


def test_eval_strategy_validation():
    grid = UGrid(2.0, 0.05)
    with pytest.raises(ConfigurationError):
        EvalStrategy.constant(1.5, epsilon=0.25, grid=grid)
    with pytest.raises(ConfigurationError):
        EvalStrategy.from_function(
            lambda u, t1, t2: np.full(u.shape, np.nan), epsilon=0.25, grid=grid
        )


def test_constant_randomization_still_loses_d():
    # the martingale argument is insensitive to the mixing weight, so any
    # state-independent randomization costs exactly d
    prior = SymmetricPrior.two_point(1.2)
    half = evaluate(EvalStrategy.constant(0.5, epsilon=0.1, grid=UGrid(3.0, 0.02)), prior)
    assert half.total_loss == pytest.approx(1.2, abs=1e-3)


def test_flipping_a_fraction_of_decisions_costs_extra():
    prior = SymmetricPrior.two_point(1.6)
    grid = UGrid(3.0, 0.02)
    out = solve_invariant(DpConfig(0.1, prior, grid))
    opt = EvalStrategy.from_table(out.strategy)
    tweak = EvalStrategy(epsilon=0.1, grid=grid, sigma1=0.9 * opt.sigma1 + 0.1 * (1.0 - opt.sigma1))
    anti = EvalStrategy(epsilon=0.1, grid=grid, sigma1=0.1 * opt.sigma1 + 0.9 * (1.0 - opt.sigma1))
    loss_tweak = evaluate(tweak, prior).total_loss
    loss_anti = evaluate(anti, prior).total_loss
    assert loss_tweak > out.bayes_risk + 0.05
    assert loss_anti > loss_tweak + 0.5
