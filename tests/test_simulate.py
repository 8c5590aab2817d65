"""Monte-Carlo drivers: reproducibility, normalization bridge, CLT checks."""

import math

import numpy as np
import pytest

from batchbandit.core import ConfigurationError, SymmetricPrior, UGrid
from batchbandit.dp import DpConfig, StrategyTable, solve_invariant
from batchbandit.simulate import (
    BatchTrialConfig,
    simulate_bernoulli,
    simulate_gaussian,
)
from batchbandit.strategy_eval import EvalStrategy, evaluate


@pytest.fixture(scope="module")
def table50():
    out = solve_invariant(DpConfig(0.02, SymmetricPrior.two_point(1.6)))
    return out.strategy


@pytest.fixture(scope="module")
def expected_loss_16(table50):
    return evaluate(EvalStrategy.from_table(table50), SymmetricPrior.two_point(1.6))


def ones_table(n_packets: int, grid: UGrid) -> StrategyTable:
    arm1 = np.ones((n_packets + 1, n_packets + 1, grid.n_points), dtype=bool)
    return StrategyTable(epsilon=1.0 / n_packets, grid=grid, arm1=arm1)


def test_identical_seeds_reproduce_bitwise(table50):
    cfg = BatchTrialConfig(5000, 100, 0.5, 1.6, replications=3000, seed=11)
    a = simulate_bernoulli(cfg, table50)
    b = simulate_bernoulli(cfg, table50)
    assert a.normalized_loss_mean == b.normalized_loss_mean
    assert a.standard_error == b.standard_error
    g1 = simulate_gaussian(50, 1.6, table50, 3000, seed=11)
    g2 = simulate_gaussian(50, 1.6, table50, 3000, seed=11)
    assert g1.normalized_loss_mean == g2.normalized_loss_mean


def test_seeded_means_are_pinned(table50):
    # values recorded before the two models shared one lockstep driver; any
    # change in the order of random draws moves them
    cfg = BatchTrialConfig(5000, 100, 0.5, 1.6, replications=3000, seed=11)
    assert simulate_bernoulli(cfg, table50).normalized_loss_mean == 0.6746517818680364
    g = simulate_gaussian(50, 1.6, table50, 3000, seed=11)
    assert g.normalized_loss_mean == 0.6716062723495017


def test_different_seeds_differ(table50):
    g1 = simulate_gaussian(50, 1.6, table50, 3000, seed=1)
    g2 = simulate_gaussian(50, 1.6, table50, 3000, seed=2)
    assert g1.normalized_loss_mean != g2.normalized_loss_mean


def test_gaussian_mean_matches_expected_loss(table50, expected_loss_16):
    res = simulate_gaussian(50, 1.6, table50, 20000, seed=5)
    gap = abs(res.normalized_loss_mean - expected_loss_16.total_loss)
    assert gap <= 3.0 * res.standard_error


def test_bernoulli_mean_matches_expected_loss(table50, expected_loss_16):
    cfg = BatchTrialConfig(5000, 100, 0.5, 1.6, replications=20000, seed=7)
    res = simulate_bernoulli(cfg, table50)
    gap = abs(res.normalized_loss_mean - expected_loss_16.total_loss)
    assert gap <= 3.0 * res.standard_error


def test_bernoulli_and_gaussian_agree(table50):
    cfg = BatchTrialConfig(5000, 100, 0.5, 1.6, replications=20000, seed=13)
    bern = simulate_bernoulli(cfg, table50)
    gaus = simulate_gaussian(50, 1.6, table50, 20000, seed=17)
    combined = math.hypot(bern.standard_error, gaus.standard_error)
    assert abs(bern.normalized_loss_mean - gaus.normalized_loss_mean) <= 3.0 * combined


def test_zero_gap_loss_is_pure_noise(table50):
    cfg = BatchTrialConfig(5000, 100, 0.5, 0.0, replications=10000, seed=3)
    res = simulate_bernoulli(cfg, table50)
    assert abs(res.normalized_loss_mean) <= 3.0 * res.standard_error
    g = simulate_gaussian(50, 0.0, table50, 10000, seed=3)
    assert abs(g.normalized_loss_mean) <= 3.0 * g.standard_error


def test_doubling_replications_shrinks_se(table50):
    se1 = simulate_gaussian(50, 1.6, table50, 20000, seed=21).standard_error
    se2 = simulate_gaussian(50, 1.6, table50, 40000, seed=22).standard_error
    assert 0.6 <= se2 / se1 <= 0.85


def test_forced_initial_stage_appears_in_the_loss(table50):
    # with arm 1 fixed as the best and a strategy that always plays it, the
    # only loss is the forced second packet on the bad arm: 2*d/N
    grid = table50.grid
    oracle = ones_table(50, grid)
    forced = simulate_gaussian(50, 1.6, oracle, 20000, seed=29, orientation=1)
    want = 2.0 * 1.6 / 50.0
    assert abs(forced.normalized_loss_mean - want) <= 3.0 * forced.standard_error


def test_per_item_draws_agree_with_binomial_counts():
    out = solve_invariant(DpConfig(0.05, SymmetricPrior.two_point(1.6)))
    base = dict(n_items=1000, batch_size=50, p=0.4, d=1.6, replications=4000)
    per_packet = simulate_bernoulli(BatchTrialConfig(**base, seed=41), out.strategy)
    per_item = simulate_bernoulli(
        BatchTrialConfig(**base, seed=43, per_item=True), out.strategy
    )
    combined = math.hypot(per_packet.standard_error, per_item.standard_error)
    gap = abs(per_packet.normalized_loss_mean - per_item.normalized_loss_mean)
    assert gap <= 3.0 * combined


def test_normalization_bridge_is_exact():
    cfg = BatchTrialConfig(5000, 100, 0.5, 1.6, replications=1, seed=0)
    N, M = cfg.n_packets, cfg.batch_size
    # packet means (M/D)**0.5 * p_arm; their gap is 2*d/sqrt(N)
    gap = math.sqrt(M / cfg.D) * ((cfg.p + cfg.delta) - (cfg.p - cfg.delta))
    assert gap == pytest.approx(2.0 * cfg.d / math.sqrt(N), abs=1e-12)
    assert cfg.D == pytest.approx(0.25, abs=1e-15)


def test_config_validation(table50):
    with pytest.raises(ConfigurationError):
        BatchTrialConfig(5001, 100, 0.5, 1.6, replications=10, seed=0)
    with pytest.raises(ConfigurationError):
        BatchTrialConfig(100, 100, 0.5, 1.6, replications=10, seed=0)
    with pytest.raises(ConfigurationError):
        BatchTrialConfig(5000, 100, 1.2, 1.6, replications=10, seed=0)
    with pytest.raises(ConfigurationError):
        BatchTrialConfig(5000, 100, 0.5, -1.0, replications=10, seed=0)
    with pytest.raises(ConfigurationError):
        BatchTrialConfig(5000, 100, 0.01, 50.0, replications=10, seed=0)
    with pytest.raises(ConfigurationError):
        BatchTrialConfig(5000, 100, 0.5, 1.6, replications=0, seed=0)
    with pytest.raises(ConfigurationError):
        BatchTrialConfig(5000, 100, 0.5, 1.6, replications=10, seed=0, orientation=5)
    with pytest.raises(ConfigurationError):
        cfg = BatchTrialConfig(5000, 200, 0.5, 1.6, replications=10, seed=0)
        simulate_bernoulli(cfg, table50)
    with pytest.raises(ConfigurationError):
        simulate_gaussian(25, 1.6, table50, 10, seed=0)
    with pytest.raises(ConfigurationError):
        simulate_gaussian(50, -0.5, table50, 10, seed=0)

