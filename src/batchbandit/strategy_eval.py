"""Expected loss of a fixed strategy on the invariant scale.

The solver's backward sweep (dp.backward_sweep with the same Gaussian
expectations), but instead of the argmin each slice blends the two action
losses with the strategy's probability of the first arm.  Pure
probabilities (0 or 1) short-circuit through the corresponding branch, so
evaluating the solver's own argmin table reproduces its Bayes risk bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ConfigurationError, SymmetricPrior, UGrid, packet_count
from .dp import (
    DpConfig,
    StrategyTable,
    backward_sweep,
    gaussian_expectations,
    solve_invariant,
)


@dataclass(frozen=True, eq=False)
class EvalStrategy:
    """Probability of playing arm 1 on the decision lattice.

    sigma1[k1, k2, i] is the probability at grid point i of the diagonal
    states 2 <= k1 + k2 <= n_packets - 1; entries off the lattice are unused.
    The first two batches are always forced turn-by-turn and are not part
    of the table.
    """

    epsilon: float
    grid: UGrid
    sigma1: np.ndarray = field(repr=False)

    def __post_init__(self):
        P = packet_count(self.epsilon)
        want = (P + 1, P + 1, self.grid.n_points)
        if self.sigma1.shape != want:
            raise ConfigurationError(
                f"sigma1 has shape {self.sigma1.shape}, the lattice needs {want}"
            )
        for K in range(2, P):
            block = self.sigma1[: K + 1][np.arange(K + 1), np.arange(K, -1, -1)]
            if not np.isfinite(block).all():
                raise ConfigurationError(f"strategy is not finite on diagonal {K}")
            if (block < 0.0).any() or (block > 1.0).any():
                raise ConfigurationError(
                    f"strategy leaves [0, 1] on diagonal {K}"
                )

    @property
    def n_packets(self) -> int:
        return round(1.0 / self.epsilon)

    @classmethod
    def from_table(cls, table: StrategyTable) -> "EvalStrategy":
        """Deterministic strategy from a solver action table; sigma1 is the
        boolean mask of action 1, an eighth of the size of a float copy."""
        return cls(epsilon=table.epsilon, grid=table.grid, sigma1=table.actions == 1)

    @classmethod
    def constant(cls, p: float, *, epsilon: float, grid: UGrid) -> "EvalStrategy":
        """Play arm 1 with the same probability p in every state."""
        P = packet_count(epsilon)
        sigma = np.full((P + 1, P + 1, grid.n_points), float(p))
        return cls(epsilon=epsilon, grid=grid, sigma1=sigma)

    @classmethod
    def from_function(cls, fn, *, epsilon: float, grid: UGrid) -> "EvalStrategy":
        """Tabulate fn(u, t1, t2) -> probability of arm 1 over the lattice.

        fn receives the full u-grid as an array and either a scalar or a
        matching array is accepted back.
        """
        P = packet_count(epsilon)
        sigma = np.zeros((P + 1, P + 1, grid.n_points))
        for K in range(2, P):
            for k1 in range(K + 1):
                row = np.asarray(fn(grid.points, k1 * epsilon, (K - k1) * epsilon), float)
                sigma[k1, K - k1] = np.broadcast_to(row, (grid.n_points,))
        return cls(epsilon=epsilon, grid=grid, sigma1=sigma)


@dataclass(frozen=True)
class EvalResult:
    total_loss: float
    loss_no_initial: float


def evaluate(strategy: EvalStrategy, prior: SymmetricPrior) -> EvalResult:
    """Normalized expected loss of the strategy under the given prior,
    with and without the forced turn-by-turn initial stage."""
    eps, grid = strategy.epsilon, strategy.grid

    def blend(K, l1, l2):
        k1 = np.arange(K + 1)
        s = strategy.sigma1[k1, K - k1]
        return np.where(s >= 1.0, l1, np.where(s <= 0.0, l2, s * l1 + (1.0 - s) * l2))

    _, total, no_initial = backward_sweep(
        eps, strategy.n_packets, grid, prior, gaussian_expectations(eps, grid), blend
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
