"""Expected-loss recursion for fixed deterministic strategies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchbandit import strategy_eval
from batchbandit.core import ConfigurationError, SymmetricPrior, UGrid, packet_count
from batchbandit.dp import DpConfig, StrategyTable, solve_invariant
from batchbandit.strategy_eval import EvalStrategy, evaluate, frozen_losses, risk_curve


def sign_rule(epsilon: float, grid: UGrid) -> EvalStrategy:
    """Play the arm the statistic currently favors: arm 1 where u >= 0."""
    P = packet_count(epsilon)
    arm1 = np.broadcast_to(grid.points >= 0.0, (P + 1, P + 1, grid.n_points))
    return EvalStrategy(epsilon=epsilon, grid=grid, arm1=arm1)


def steady(arm: int, epsilon: float, grid: UGrid) -> EvalStrategy:
    """Play the same arm (1 or 2) in every state."""
    P = packet_count(epsilon)
    arm1 = np.full((P + 1, P + 1, grid.n_points), arm == 1)
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
        st = steady(1, 0.02, UGrid())
        ev = evaluate(st, SymmetricPrior.two_point(d))
        assert ev.total_loss == pytest.approx(d, abs=0.01)


def test_always_second_arm_is_symmetric():
    prior = SymmetricPrior.two_point(1.3)
    grid = UGrid(3.0, 0.02)
    one = evaluate(steady(1, 0.1, grid), prior)
    two = evaluate(steady(2, 0.1, grid), prior)
    assert one.total_loss == pytest.approx(two.total_loss, rel=1e-12)


def test_no_strategy_beats_the_bayes_risk():
    prior = SymmetricPrior.two_point(1.6)
    grid = UGrid(3.0, 0.02)
    eps = 0.1
    bayes = solve_invariant(DpConfig(eps, prior, grid), keep_strategy=False).bayes_risk
    candidates = [
        steady(1, eps, grid),
        steady(2, eps, grid),
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
    st = steady(1, 0.125, UGrid(3.0, 0.02))
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


def test_risk_curve_with_frozen_strategy_dominates_bayes():
    grid = UGrid(3.0, 0.02)
    out = solve_invariant(DpConfig(0.1, SymmetricPrior.two_point(1.6), grid))
    table, rows = risk_curve([0.8, 1.6, 3.0], 0.1, grid=grid, freeze_d=1.6)
    assert (table.arm1 == out.strategy.arm1).all()
    assert [r.d for r in rows] == [0.8, 1.6, 3.0]
    for r in rows:
        assert r.expected_loss >= r.bayes_risk - 1e-9
        assert r.expected_loss_no_init >= r.bayes_risk_no_init - 1e-9
    # at the freeze point the strategy is the Bayes-optimal one
    mid = rows[1]
    assert mid.expected_loss == pytest.approx(mid.bayes_risk, abs=1e-9)


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


@settings(max_examples=40, deadline=None)
@given(
    eps=st.sampled_from((0.5, 0.25, 0.2, 0.125, 0.1)),
    seed=st.integers(0, 2**32 - 1),
    priors=st.lists(
        st.lists(
            st.tuples(st.floats(0.05, 6.0), st.floats(0.1, 1.0)),
            min_size=1,
            max_size=3,
            unique_by=lambda a: a[0],
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_forward_sweep_matches_the_backward_sweep(eps, seed, priors):
    grid = UGrid(2.0, 0.1)
    P = packet_count(eps)
    arm1 = np.random.default_rng(seed).random((P + 1, P + 1, grid.n_points)) < 0.5
    table = EvalStrategy(epsilon=eps, grid=grid, arm1=arm1)
    priors = [
        SymmetricPrior(tuple((w, m / sum(m for _, m in atoms)) for w, m in atoms))
        for atoms in priors
    ]
    results = frozen_losses(table, priors)
    assert len(results) == len(priors)
    for prior, got in zip(priors, results):
        want = evaluate(table, prior)
        # Python floats, so that results and flags built on them serialize as JSON
        assert type(got.total_loss) is float and type(got.loss_no_initial) is float
        assert abs(got.total_loss - want.total_loss) <= 1e-13
        assert abs(got.loss_no_initial - want.loss_no_initial) <= 1e-13
        initial = 2.0 * eps * prior.mean_w
        assert got.total_loss - got.loss_no_initial == pytest.approx(initial, abs=1e-15)


def test_forward_sweep_of_the_steady_arm_loses_d():
    st1 = steady(1, 0.02, UGrid())
    ds = (0.5, 1.0, 2.0)
    results = frozen_losses(st1, [SymmetricPrior.two_point(d) for d in ds])
    for d, ev in zip(ds, results):
        assert ev.total_loss == pytest.approx(d, abs=0.01)


def test_risk_curve_evaluates_a_frozen_strategy_in_one_forward_sweep(monkeypatch):
    grid = UGrid(3.0, 0.02)
    frozen = EvalStrategy.from_table(
        solve_invariant(DpConfig(0.1, SymmetricPrior.two_point(1.6), grid)).strategy
    )
    want = [evaluate(frozen, SymmetricPrior.two_point(d)) for d in (0.8, 1.6, 3.0)]
    calls = []

    def spy(strategy, priors):
        calls.append(len(priors))
        return frozen_losses(strategy, priors)

    monkeypatch.setattr(strategy_eval, "frozen_losses", spy)
    monkeypatch.setattr(strategy_eval, "evaluate", None)  # the backward sweep is not used
    _, rows = risk_curve([0.8, 1.6, 3.0], 0.1, grid=grid, freeze_d=1.6)
    assert calls == [3]
    for r, ev in zip(rows, want):
        assert abs(r.expected_loss - ev.total_loss) <= 1e-13
        assert abs(r.expected_loss_no_init - ev.loss_no_initial) <= 1e-13


@pytest.mark.parametrize(
    "d_values, freeze_d, match",
    [
        ([1.0, 2.0], -1.0, "positive"),
        ([1.0], float("nan"), "positive"),
        ([], None, "at least one"),
    ],
)
def test_risk_curve_refuses_bad_gaps_before_any_solve(monkeypatch, d_values, freeze_d, match):
    monkeypatch.setattr(strategy_eval, "solve_invariant", None)
    with pytest.raises(ConfigurationError, match=match):
        risk_curve(d_values, 0.1, freeze_d=freeze_d)
