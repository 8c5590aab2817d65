"""Expected loss of a fixed strategy on the invariant scale.

evaluate is the table-keeping solver's backward sweep (dp.backward_sweep
through the same dp.gaussian_step), but instead of the argmin each slice plays the arm the
strategy's table picks.  That is the same selection the argmin makes, so
evaluating the solver's own table reproduces its Bayes risk bit for bit.

frozen_losses evaluates one table at many gaps with one forward sweep.
The transitions are prior-free: the kernels depend only on (eps, grid, K)
and the played arm only on the table, so a gap enters only through its
one-step loss profile g, and the loss is linear in it.  Unrolling the
backward recursion V_K = eps*g_played + T V_{K+1} against the adjoint T*
gives, with rho_2 the N(0, eps/2) weights on row (1, 1) that the risk
assembly integrates against and rho_{K+1} = T* rho_K,

    <rho_2, V_2> = sum_K <rho_K, eps*g_played on diagonal K>,

the density of the state reached on each diagonal weighed by the loss
played there, for every gap alike.  The kernels are bitwise symmetric
Gaussian weights, so the adjoint of a Dirichlet-0 convolution is the same
convolution: the backward sweep's own core.convolve_zero_padded.

The loss weighs each diagonal's played density, folded onto the rows
j = k1 <= K/2, for all gaps at once.  Each gap w adds

    w * sum_j C[j] * (played[j] @ E),   E = exp(-2*u*w),   C[j] = exp(-2*tau_j*w^2),

the profile's exponential factored into a part in u, built once per call,
and a part in tau_j = t1*t2/t, built once per diagonal, so one matrix
product of the played rows with every gap's E replaces a loss profile per
gap.  E's exponent is clipped at core.EXP_CLIP, as the profile clips its
own, so E is finite at every gap.  The clip acts only where 2*w*u_max
exceeds it, and there only on states that carry no mass (row k1 = 0 is
never reached) or too little to show; below it nothing changes, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EXP_CLIP,
    ConfigurationError,
    InternalError,
    SymmetricPrior,
    UGrid,
    centered_gaussian_weights,
    convolve_zero_padded,
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
        """The solver's table, sharing its arm-1 array (no copy)."""
        return cls(epsilon=table.epsilon, grid=table.grid, arm1=table.arm1)


@dataclass(frozen=True)
class EvalResult:
    total_loss: float
    loss_no_initial: float


def evaluate(strategy: EvalStrategy, prior: SymmetricPrior) -> EvalResult:
    """Normalized expected loss of the strategy under the given prior,
    with and without the forced turn-by-turn initial stage."""
    eps, grid = strategy.epsilon, strategy.grid

    def play(K, c0, l1, l2):
        return strategy.diagonal(K)[c0 : c0 + len(l1)]

    total, no_initial = backward_sweep(eps, grid, prior, gaussian_step(eps, grid, prior, play))
    return EvalResult(total_loss=total, loss_no_initial=no_initial)


def frozen_losses(strategy: StrategyTable, gaps) -> tuple[np.ndarray, np.ndarray]:
    """The table's loss under the two-point prior at each positive gap w,
    from one forward sweep of the state density: two arrays, the loss with
    the forced initial stage (2*eps*w) and without it.  Each entry agrees
    with evaluate at that gap to rounding, relative to max(1, loss), at any
    gap SymmetricPrior allows.

    On diagonal K the density of row k1 splits by the table's arm: the arm-1
    part moves to row k1 + 1 of diagonal K + 1 through kernel K - k1, the
    arm-2 part stays on row k1 through kernel k1.  The played mass folds onto
    the rows k1 <= K/2 (g1 is equal on rows k1 and K - k1, and g2 is g1
    mirrored in u), where every gap's loss weighs it at once (see the module
    docstring).  One diagonal of density is alive: the rows go from the
    last down, each overwritten by diagonal K + 1's once it is read.
    """
    eps, grid, P = strategy.epsilon, strategy.grid, strategy.n_packets
    u = grid.points
    w = np.array(gaps, dtype=float)
    with np.errstate(over="ignore"):  # SymmetricPrior's rule: 2*w^2 finite
        if w.ndim != 1 or not (np.isfinite(2.0 * w * w) & (w > 0.0)).all():
            raise ConfigurationError("gaps must be 1-D, each positive and finite, 2*w^2 finite")
    # exp(-2*u*w), factored out of every diagonal, clipped as the loss
    # profile clips its exponent: finite at every gap
    e_u = np.exp(np.minimum(np.multiply.outer(u, -2.0 * w), EXP_CLIP))
    sums = np.zeros(w.size)
    # the statistic after the two forced batches: N(0, eps/2) on row (1, 1),
    # the weights the backward sweep's risk assembly integrates against
    idx, weights = centered_gaussian_weights(grid, 0.5 * eps)
    # the density by k1 and the played mass folded onto the rows k1 <= K/2,
    # reused: buffers of a diagonal's size for the successor density and the
    # arm-1 part raised minimax_dp's peak RSS by about 0.8 MB
    rho = np.zeros((P + 1, u.size))
    rho[1, idx] = weights
    folded = np.empty((P // 2 + 1, u.size))
    for K in range(2, P):
        arm1 = strategy.diagonal(K)
        H = K // 2 + 1
        # mass reaching the terminal diagonal adds nothing
        kernels = diagonal_kernels(eps, grid, K) if K + 1 < P else None
        for r in range(K, -1, -1):
            on1, on2 = rho[r] * arm1[r], rho[r]
            np.putmask(on2, arm1[r], 0.0)  # the arm-2 part, in place
            played = on1 + on2[::-1]
            if r >= H:  # row r folds onto row K - r, which comes later
                folded[K - r] = played
            elif r <= K - H:
                folded[r] += played
            else:  # the middle row of an even K
                folded[r] = played
            if kernels is not None:
                # row r + 1 holds K + 1's row already; row r is read
                rho[r + 1] += convolve_zero_padded(on1, kernels[K - r])
                rho[r] = convolve_zero_padded(on2, kernels[r])
        j = np.arange(H)
        t1, t2 = j * eps, (K - j) * eps
        tau = t1 * t2 / (t1 + t2)
        e_tau = np.exp(np.multiply.outer(tau, -2.0 * w * w))
        sums += np.einsum("ja,ja->a", e_tau, folded[:H] @ e_u)
    no_initial = w * sums * eps  # w times each gap's weighed exponentials, times eps
    if not np.isfinite(no_initial).all():
        raise InternalError("non-finite loss in the forward sweep")
    return no_initial + 2.0 * eps * w, no_initial


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
    grid: UGrid = UGrid(),
    freeze_d: float | None = None,
) -> tuple[StrategyTable, list[RiskCurveRow]]:
    """Bayes risk and frozen-strategy loss across two-point priors.

    One Bayes solve per d gives the Bayes columns.  The strategy is then
    frozen at freeze_d, by default at the first local maximum of the Bayes
    column (the first d whose risk is not below the next one's, else the
    last d; the largest risk can sit at the far end, as the forced stage
    costs 2*eps*d), and played at every d through one frozen_losses
    sweep.  Returns the frozen table and one row per d.
    Every prior, freeze_d's included, is validated before the first solve.
    """
    ds = [float(d) for d in d_values]
    if not ds:
        raise ConfigurationError("risk_curve needs at least one gap d")
    priors = [SymmetricPrior.two_point(d) for d in ds]
    frozen_at = None if freeze_d is None else SymmetricPrior.two_point(freeze_d)
    bayes = [
        solve_invariant(DpConfig(epsilon, prior, grid), keep_strategy=False) for prior in priors
    ]
    if frozen_at is None:
        risks = [out.bayes_risk for out in bayes] + [-np.inf]
        frozen_at = priors[next(i for i in range(len(ds)) if risks[i] >= risks[i + 1])]
    table = solve_invariant(DpConfig(epsilon, frozen_at, grid)).strategy
    loss, loss_no_init = frozen_losses(table, ds)
    rows = [
        RiskCurveRow(
            d=d,
            bayes_risk=out.bayes_risk,
            expected_loss=total,
            bayes_risk_no_init=out.bayes_risk_no_initial,
            expected_loss_no_init=no_init,
        )
        for d, out, total, no_init in zip(ds, bayes, loss.tolist(), loss_no_init.tolist())
    ]
    return table, rows
