"""Expected loss of a fixed strategy on the invariant scale.

The solver's backward sweep (dp.backward_sweep through the same
dp.gaussian_step), but instead of the argmin each slice plays the arm the
strategy's table picks.  That is the same selection the argmin makes, so
evaluating the solver's own table reproduces its Bayes risk bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, SymmetricPrior, UGrid, packet_count
from .dp import DpConfig, StrategyTable, backward_sweep, gaussian_step, solve_invariant


class EvalStrategy(StrategyTable):
    """The strategy table evaluate() plays; see StrategyTable."""

    @classmethod
    def from_table(cls, table: StrategyTable) -> "EvalStrategy":
        """The solver's table, sharing its arm-1 lattice (no copy)."""
        return cls(epsilon=table.epsilon, grid=table.grid, arm1=table.arm1)

    @classmethod
    def constant(cls, arm: int, *, epsilon: float, grid: UGrid) -> "EvalStrategy":
        """Play the same arm (1 or 2) in every state."""
        if arm not in (1, 2):
            raise ConfigurationError(f"arm must be 1 or 2, got {arm}")
        P = packet_count(epsilon)
        arm1 = np.full((P + 1, P + 1, grid.n_points), arm == 1)
        return cls(epsilon=epsilon, grid=grid, arm1=arm1)


@dataclass(frozen=True)
class EvalResult:
    total_loss: float
    loss_no_initial: float


def evaluate(strategy: EvalStrategy, prior: SymmetricPrior) -> EvalResult:
    """Normalized expected loss of the strategy under the given prior,
    with and without the forced turn-by-turn initial stage."""
    eps, grid = strategy.epsilon, strategy.grid

    def play(K, l1, l2):
        k1 = np.arange(K + 1)
        return np.where(strategy.arm1[k1, K - k1], l1, l2)

    _, total, no_initial = backward_sweep(
        eps, strategy.n_packets, grid, prior, gaussian_step(eps, grid, play)
    )
    return EvalResult(total_loss=total, loss_no_initial=no_initial)


@dataclass(frozen=True)
class RiskCurveRow:
    d: float
    bayes_risk: float
    expected_loss: float
    bayes_risk_no_init: float
    expected_loss_no_init: float


def risk_curve(
    d_values,
    epsilon: float,
    *,
    grid: UGrid | None = None,
    strategy: EvalStrategy | None = None,
) -> list[RiskCurveRow]:
    """Bayes risk and strategy loss across two-point priors.

    With strategy=None the second pair of columns repeats the Bayes risk of
    the per-d optimal strategy; a fixed strategy is evaluated as-is against
    every prior (it must live on the same epsilon and grid).
    """
    g = grid if grid is not None else UGrid()
    if strategy is not None:
        if strategy.epsilon != epsilon:
            raise ConfigurationError(
                f"strategy epsilon {strategy.epsilon} does not match {epsilon}"
            )
        if strategy.grid != g:
            raise ConfigurationError("strategy grid does not match the requested grid")
    rows = []
    for d in d_values:
        prior = SymmetricPrior.two_point(float(d))
        out = solve_invariant(DpConfig(epsilon, prior, g), keep_strategy=False)
        if strategy is None:
            exp_total, exp_no_init = out.bayes_risk, out.bayes_risk_no_initial
        else:
            ev = evaluate(strategy, prior)
            exp_total, exp_no_init = ev.total_loss, ev.loss_no_initial
        rows.append(
            RiskCurveRow(
                d=float(d),
                bayes_risk=out.bayes_risk,
                expected_loss=exp_total,
                bayes_risk_no_init=out.bayes_risk_no_initial,
                expected_loss_no_init=exp_no_init,
            )
        )
    return rows
