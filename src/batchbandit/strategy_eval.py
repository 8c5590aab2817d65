"""Expected loss of a fixed strategy on the invariant scale.

evaluate is the solver's backward sweep (dp.backward_sweep through the same
dp.gaussian_step), but instead of the argmin each slice plays the arm the
strategy's table picks.  That is the same selection the argmin makes, so
evaluating the solver's own table reproduces its Bayes risk bit for bit.

frozen_losses evaluates one table under many priors with one forward sweep.
The transitions are prior-free: the kernels depend only on (eps, grid, K)
and the played arm only on the table, so a prior enters only through its
one-step loss profile g, and the loss is linear in it.  Unrolling the
backward recursion V_K = eps*g_played + T V_{K+1} against the adjoint T*
gives, with rho_2 the N(0, eps/2) weights on row (1, 1) that the risk
assembly integrates against and rho_{K+1} = T* rho_K,

    <rho_2, V_2> = sum_K <rho_K, eps*g_played on diagonal K>,

the density of the state reached on each diagonal weighed by the loss
played there, for every prior alike.  The kernels are bitwise symmetric
Gaussian weights, so the adjoint of a Dirichlet-0 convolution is the same
convolution: the backward sweep's own core.convolve_zero_padded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigurationError,
    InternalError,
    SymmetricPrior,
    UGrid,
    centered_gaussian_weights,
    convolve_zero_padded,
    loss_profile,
)
from .dp import (
    DpConfig,
    StrategyTable,
    backward_sweep,
    diagonal_kernels,
    gaussian_step,
    solve_invariant,
)


class EvalStrategy(StrategyTable):
    """The strategy table evaluate() plays; see StrategyTable."""

    @classmethod
    def from_table(cls, table: StrategyTable) -> "EvalStrategy":
        """The solver's table, sharing its arm-1 lattice (no copy)."""
        return cls(epsilon=table.epsilon, grid=table.grid, arm1=table.arm1)


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

    _, total, no_initial = backward_sweep(eps, grid, prior, gaussian_step(eps, grid, play))
    return EvalResult(total_loss=total, loss_no_initial=no_initial)


def frozen_losses(strategy: StrategyTable, priors) -> list[EvalResult]:
    """evaluate(strategy, prior) for every prior, from one forward sweep of
    the state density; agrees with evaluate to rounding (about 1e-16).

    On diagonal K the density of row k1 splits by the table's arm: the arm-1
    part moves to row k1 + 1 of diagonal K + 1 through kernel K - k1, the
    arm-2 part stays on row k1 through kernel k1.  The played mass folds onto
    the rows k1 <= K/2 (g1 is equal on rows k1 and K - k1, and g2 is g1
    mirrored in u), where each prior's half-row loss profile weighs it.  At
    most two diagonals of density are alive at once.
    """
    eps, grid, P = strategy.epsilon, strategy.grid, strategy.n_packets
    priors = list(priors)
    u = grid.points
    # the statistic after the two forced batches: N(0, eps/2) on row (1, 1),
    # the weights the backward sweep's risk assembly integrates against
    idx, weights = centered_gaussian_weights(grid, 0.5 * eps)
    # one diagonal-sized buffer each for the density, its successor and the
    # arm-1 part, reused: fresh arrays of a size growing with K on every
    # diagonal raised the process's peak RSS
    buf = np.zeros((3, P + 1, u.size))
    rho = buf[0, :3]
    rho[1, idx] = weights
    acc = np.zeros(len(priors))
    for K in range(2, P):
        k1 = np.arange(K + 1)
        arm1 = strategy.arm1[k1, K - k1]
        on1, on2 = np.multiply(rho, arm1, out=buf[2, : K + 1]), rho
        np.putmask(on2, arm1, 0.0)  # the arm-2 part, in place
        if K + 1 < P:  # mass reaching the terminal diagonal adds nothing
            kernels = diagonal_kernels(eps, grid, K)
            rho = buf[1 - K % 2, : K + 2]
            rho.fill(0.0)
            for r in range(K + 1):
                rho[r + 1] += convolve_zero_padded(on1[r], kernels[K - r])
                rho[r] += convolve_zero_padded(on2[r], kernels[r])
        played = on1  # folded in place onto the rows k1 <= K/2
        played += on2[:, ::-1]
        H = K // 2 + 1
        played[: K - H + 1] += played[H:][::-1]
        j = np.arange(H)
        for i, prior in enumerate(priors):
            acc[i] += np.vdot(played[:H], loss_profile(prior, u, j * eps, (K - j) * eps))
    acc *= eps
    if not np.isfinite(acc).all():
        raise InternalError("non-finite loss in the forward sweep")
    return [
        EvalResult(total_loss=float(a + 2.0 * eps * p.mean_w), loss_no_initial=float(a))
        for a, p in zip(acc, priors)
    ]


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
    freeze_d: float | None = None,
) -> tuple[StrategyTable, list[RiskCurveRow]]:
    """Bayes risk and frozen-strategy loss across two-point priors.

    One Bayes solve per d gives the Bayes columns.  The strategy is then
    frozen at freeze_d, by default at the first d of largest Bayes risk, and
    played against every prior through one frozen_losses sweep.  Returns the
    frozen table and one row per d.  Every prior, freeze_d's included, is
    validated before the first solve.
    """
    g = grid if grid is not None else UGrid()
    ds = [float(d) for d in d_values]
    if not ds:
        raise ConfigurationError("risk_curve needs at least one gap d")
    priors = [SymmetricPrior.two_point(d) for d in ds]
    frozen_at = None if freeze_d is None else SymmetricPrior.two_point(freeze_d)
    bayes = [
        solve_invariant(DpConfig(epsilon, prior, g), keep_strategy=False) for prior in priors
    ]
    if frozen_at is None:  # the first maximum, as scan's best()
        frozen_at = priors[max(range(len(ds)), key=lambda i: bayes[i].bayes_risk)]
    table = solve_invariant(DpConfig(epsilon, frozen_at, g)).strategy
    played = frozen_losses(EvalStrategy.from_table(table), priors)
    rows = [
        RiskCurveRow(
            d=d,
            bayes_risk=out.bayes_risk,
            expected_loss=ev.total_loss,
            bayes_risk_no_init=out.bayes_risk_no_initial,
            expected_loss_no_init=ev.loss_no_initial,
        )
        for d, out, ev in zip(ds, bayes, played)
    ]
    return table, rows
