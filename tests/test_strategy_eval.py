"""Expected-loss recursion for fixed deterministic strategies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchbandit import strategy_eval
from batchbandit.core import ConfigurationError, SymmetricPrior, UGrid, packet_count
from batchbandit.dp import DpConfig, StrategyTable, _states, solve_invariant
from batchbandit.strategy_eval import EvalStrategy, evaluate, frozen_losses, risk_curve


def sign_rule(epsilon: float, grid: UGrid) -> EvalStrategy:
    """Play the arm the statistic currently favors: arm 1 where u >= 0."""
    states = len(list(_states(packet_count(epsilon))))
    arm1 = np.broadcast_to(grid.points >= 0.0, (states, grid.n_points))
    return EvalStrategy(epsilon=epsilon, grid=grid, arm1=arm1)


def steady(arm: int, epsilon: float, grid: UGrid) -> EvalStrategy:
    """Play the same arm (1 or 2) in every state."""
    states = len(list(_states(packet_count(epsilon))))
    arm1 = np.full((states, grid.n_points), arm == 1)
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


def test_risk_curve_freezes_at_the_first_local_maximum_by_default():
    # at eps = 0.02 the forced stage 2*eps*d lifts the Bayes risk at d = 20
    # above the interior maximum near 1.6; the default freeze stays there
    _, rows = risk_curve([1.6, 8.0, 20.0], 0.02)
    assert [round(r.bayes_risk, 4) for r in rows] == [0.6516, 0.3913, 0.8]
    assert rows[0].expected_loss == pytest.approx(rows[0].bayes_risk, abs=1e-12)


def test_strategy_lattice_must_be_a_bool_array_of_the_lattice_shape():
    grid = UGrid(2.0, 0.05)
    shape = (7, grid.n_points)  # epsilon = 0.25: the 3 + 4 states of diagonals 2 and 3
    misshapen = [
        np.ones((8, grid.n_points), dtype=bool),
        np.ones((7, grid.n_points + 1), dtype=bool),
        np.ones((5, 5, grid.n_points), dtype=bool),  # the (P + 1, P + 1, n_u) block
        np.ones(7 * grid.n_points, dtype=bool),
    ]
    mistyped = [np.ones(shape, dtype=np.int8), np.ones(shape), [[True] * grid.n_points] * 7]
    for arm1, match in [(a, r"\(states, n_u\) is \(7, 81\)") for a in misshapen] + [
        (a, "arm1 must be a bool array") for a in mistyped
    ]:
        for cls in (StrategyTable, EvalStrategy):
            with pytest.raises(ConfigurationError, match=match):
                cls(epsilon=0.25, grid=grid, arm1=arm1)
    assert StrategyTable(epsilon=0.25, grid=grid, arm1=np.ones(shape, dtype=bool)).n_packets == 4


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
    states = len(list(_states(packet_count(eps))))
    arm1 = np.random.default_rng(seed).random((states, grid.n_points)) < 0.5
    table = EvalStrategy(epsilon=eps, grid=grid, arm1=arm1)
    priors = [
        SymmetricPrior(tuple((w, m / sum(m for _, m in atoms)) for w, m in atoms))
        for atoms in priors
    ]
    gaps = sorted({w for prior in priors for w, _ in prior.atoms})
    total, no_initial = frozen_losses(table, gaps)
    assert total.shape == no_initial.shape == (len(gaps),)
    assert total - no_initial == pytest.approx(2.0 * eps * np.array(gaps), abs=1e-15)
    # a multi-atom prior's loss is the linear combination of its gaps' losses
    for prior in priors:
        want = evaluate(table, prior)
        got_total, got_no_initial = mixed_loss(prior, eps, gaps, no_initial)
        assert abs(got_total - want.total_loss) <= 1e-13
        assert abs(got_no_initial - want.loss_no_initial) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(
    eps=st.sampled_from((0.5, 0.25, 0.2, 0.125, 0.1, 0.05)),
    seed=st.integers(0, 2**32 - 1),
    gaps=st.lists(st.floats(0.05, 2000.0), min_size=1, max_size=6, unique=True),
)
def test_forward_sweep_matches_the_backward_sweep_at_clipped_gaps(eps, seed, gaps):
    # 2*w*u_max reaches 8000, far past EXP_CLIP: the u-factor's clip must
    # leave the losses those of the clipped loss profile
    grid = UGrid(2.0, 0.1)
    states = len(list(_states(packet_count(eps))))
    arm1 = np.random.default_rng(seed).random((states, grid.n_points)) < 0.5
    table = EvalStrategy(epsilon=eps, grid=grid, arm1=arm1)
    total, no_initial = frozen_losses(table, gaps)
    for w, got_total, got_no_initial in zip(gaps, total.tolist(), no_initial.tolist()):
        want = evaluate(table, SymmetricPrior.two_point(w))
        assert abs(got_total - want.total_loss) <= 1e-13 * max(1.0, want.total_loss)
        assert abs(got_no_initial - want.loss_no_initial) <= 1e-13 * max(
            1.0, want.loss_no_initial
        )


def mixed_loss(prior, eps, gaps, no_initial):
    """sum_i pi_i L0(w_i) + 2*eps*mean_w and sum_i pi_i L0(w_i), L0 the
    per-gap losses without the forced stage."""
    at = dict(zip(gaps, no_initial.tolist()))
    no_init = sum(p * at[w] for w, p in prior.atoms)
    return no_init + 2.0 * eps * prior.mean_w, no_init


def test_forward_sweep_of_the_steady_arm_loses_d():
    st1 = steady(1, 0.02, UGrid())
    ds = (0.5, 1.0, 2.0)
    total, _ = frozen_losses(st1, ds)
    for d, loss in zip(ds, total):
        assert loss == pytest.approx(d, abs=0.01)


@pytest.mark.parametrize("gap", [0.0, -1.0, np.nan, np.inf, 9.5e153])
def test_forward_sweep_refuses_a_gap_that_is_not_positive_and_finite(gap):
    with pytest.raises(ConfigurationError, match="positive and finite"):
        frozen_losses(steady(1, 0.5, UGrid(1.0, 0.5)), [1.0, gap])


@pytest.mark.parametrize("gaps", [1.0, [[1.0, 2.0]]], ids=["scalar", "nested-list"])
def test_forward_sweep_refuses_gaps_that_are_not_a_1d_sequence(gaps):
    # ten packets: the sweep reaches its per-diagonal weighing
    with pytest.raises(ConfigurationError, match="1-D"):
        frozen_losses(steady(1, 0.1, UGrid(1.0, 0.5)), gaps)


@pytest.mark.parametrize(
    "priors",
    [
        # the saddle check's 43 default gaps with d_star = 1.63
        [
            SymmetricPrior.two_point(d)
            for d in [*np.arange(0.4, 16.0 + 1e-9, 0.4), 18.0, 20.0, 1.63]
        ],
        [SymmetricPrior(((0.7, 0.4), (1.8, 0.6)))],
        # 2*w*u_max = 800 and 960 > EXP_CLIP: the loss profile's clip acts at t1 = 0
        [
            SymmetricPrior.two_point(100.0),
            SymmetricPrior.two_point(120.0),
            SymmetricPrior(((1.6, 0.5), (100.0, 0.5))),
        ],
    ],
    ids=["saddle-gaps", "multi-atom", "clipped"],
)
def test_factored_forward_sweep_matches_evaluate(priors):
    eps, grid = 0.1, UGrid(4.0, 0.02)
    frozen = EvalStrategy.from_table(
        solve_invariant(DpConfig(eps, SymmetricPrior.two_point(1.6), grid)).strategy
    )
    gaps = sorted({w for prior in priors for w, _ in prior.atoms})
    total, no_initial = frozen_losses(frozen, gaps)
    assert total - no_initial == pytest.approx(2.0 * eps * np.array(gaps), abs=1e-15)
    for prior in priors:
        want = evaluate(frozen, prior)
        got_total, got_no_initial = mixed_loss(prior, eps, gaps, no_initial)
        assert abs(got_total - want.total_loss) <= 1e-12
        assert abs(got_no_initial - want.loss_no_initial) <= 1e-12


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
