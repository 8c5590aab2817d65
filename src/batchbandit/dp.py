"""Backward recursion for the batched bandit on the invariant scale.

States live on the lattice (k1, k2, u): k_l batches processed on arm l,
u on a uniform grid.  The value r(u, t1, t2) of the optimally controlled
remainder satisfies

    r = min_l [ eps * g_l(u, t1, t2) + E r(u - x, ..t_l + eps..) ],

with g_l the prior-weighted one-step loss and x a centered Gaussian of
variance eps*t_other^2/(t*(t+eps)).  Terminal diagonal t1 + t2 = 1 is zero.
The sweep walks anti-diagonals k1 + k2 = K from 1/eps down to 2 keeping two
slices in memory; the first two batches are forced turn-by-turn, so the
Bayes risk assembles from the slice (eps, eps):

    risk = 2*eps*sum_i pi_i w_i + E_{N(0, eps/2)} r(u, eps, eps).

Convolutions use discrete Gaussian weights at grid offsets (no interpolation)
with Dirichlet-0 reads beyond +-u_max.

backward_sweep is the one implementation of that walk.  It takes the
successor expectation and the combination of the two action values as
callbacks: solve_invariant convolves and takes the argmin, recording the
actions as it goes; pde.solve_pde swaps in a 3-tap stencil;
strategy_eval.evaluate convolves and blends by a fixed strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ConfigurationError,
    InternalError,
    SymmetricPrior,
    UGrid,
    centered_gaussian_expectation,
    convolve_zero_padded,
    gaussian_kernel,
    loss_profile,
    packet_count,
)


@dataclass(frozen=True)
class DpConfig:
    """Solver configuration: batch fraction, prior and u-grid."""

    epsilon: float
    prior: SymmetricPrior
    grid: UGrid = field(default_factory=UGrid)

    def __post_init__(self):
        P = packet_count(self.epsilon)
        # the transition variance eps*t/(t+eps) grows with t, so the last
        # interior diagonal K = P - 1 has the widest kernel
        eps, t = self.epsilon, (P - 1) * self.epsilon
        if P > 2 and self.grid.du > 3.0 * math.sqrt(eps * t * t / (t * (t + eps))):
            raise ConfigurationError(
                f"du={self.grid.du} exceeds 3x the largest transition sigma at every "
                "interior stage; the grid cannot resolve any kernel"
            )

    @property
    def n_packets(self) -> int:
        return round(1.0 / self.epsilon)


@dataclass
class StrategyTable:
    """argmin actions on the decision lattice 2 <= k1 + k2 <= n_packets - 1.

    actions[k1, k2, i] is 1 or 2 (0 marks states outside the lattice).
    Value ties resolve to action 1.  The two initial batches are forced
    turn-by-turn: arm 1 first, then the unplayed arm.  Construction checks
    the lattice shape and that every decision state is defined; n_packets
    follows from epsilon.
    """

    epsilon: float
    grid: UGrid
    actions: np.ndarray
    n_packets: int = field(init=False)

    def __post_init__(self):
        P = self.n_packets = packet_count(self.epsilon)
        want = (P + 1, P + 1, self.grid.n_points)
        if self.actions.shape != want:
            raise ConfigurationError(
                f"actions have shape {self.actions.shape}, the lattice needs {want}"
            )
        for K in range(2, P):
            k1 = np.arange(K + 1)
            undefined = (self.actions[k1, K - k1] == 0).any(axis=1)
            if undefined.any():
                i = int(np.argmax(undefined))
                raise ConfigurationError(f"strategy is undefined at state ({i}, {K - i})")


@dataclass
class SolveOutput:
    """Result of solve_invariant.

    slices maps (k1, k2) to the value row over the u-grid: every diagonal
    from 2 to n_packets with keep_values, otherwise only (1, 1), which is
    all the risk assembly needs.  strategy is None with keep_strategy=False.
    """

    slices: dict[tuple[int, int], np.ndarray]
    strategy: StrategyTable | None
    bayes_risk: float
    bayes_risk_no_initial: float


def backward_sweep(
    epsilon: float,
    n_packets: int,
    grid: UGrid,
    prior: SymmetricPrior,
    expect,
    combine,
    *,
    keep_values: bool = False,
) -> tuple[dict[tuple[int, int], np.ndarray], float, float]:
    """Walk the anti-diagonals K = n_packets - 1 .. 2 back from the zero
    terminal diagonal; returns (slices, total risk, risk without the initial
    stage).

    Rows of diagonal K are indexed by k1 (t1 = k1*eps, t2 = (K - k1)*eps).
    Each step fills l1 = eps*g1 and l2 = eps*g2 from one loss_profile call,
    lets expect(K, succ, l1, l2) add the expectations of the successor
    diagonal succ in place, and takes the diagonal's values from
    combine(K, l1, l2).  slices holds every diagonal with keep_values,
    otherwise only (1, 1).
    """
    u = grid.points
    succ = np.zeros((n_packets + 1, u.size))
    slices: dict[tuple[int, int], np.ndarray] = {}
    if keep_values:
        slices.update(((k1, n_packets - k1), succ[k1]) for k1 in range(n_packets + 1))
    for K in range(n_packets - 1, 1, -1):
        k1 = np.arange(K + 1)
        l1 = loss_profile(prior, 1, u, k1 * epsilon, (K - k1) * epsilon)
        l1 *= epsilon
        l2 = l1[:, ::-1].copy()  # sign flip in u swaps the actions
        expect(K, succ, l1, l2)
        cur = combine(K, l1, l2)
        if np.isnan(cur).any():
            raise InternalError(f"NaN in value slice at diagonal {K}")
        if keep_values:
            slices.update(((i, K - i), cur[i]) for i in range(K + 1))
        succ = cur
    # after the loop succ is diagonal 2 (or the terminal one when P == 2);
    # its row 1 is the (eps, eps) slice the risk assembly needs
    slices.setdefault((1, 1), succ[1])
    return (slices, *_assemble(succ[1], grid, epsilon, prior))


def gaussian_expectations(epsilon: float, grid: UGrid):
    """backward_sweep's expect for the exact recursion: each row adds its two
    successor rows convolved with the transition kernels."""

    def expect(K, succ, l1, l2):
        t = K * epsilon
        # kernel for a j-batch opposite arm; the same set serves both actions
        kernels = [
            gaussian_kernel(epsilon * (j * epsilon) ** 2 / (t * (t + epsilon)), grid)
            for j in range(K + 1)
        ]
        for k1 in range(K + 1):
            l1[k1] += convolve_zero_padded(succ[k1 + 1], kernels[K - k1])
            l2[k1] += convolve_zero_padded(succ[k1], kernels[k1])

    return expect


def solve_invariant(
    config: DpConfig, *, keep_values: bool = False, keep_strategy: bool = True
) -> SolveOutput:
    """Backward sweep over all anti-diagonals; returns the value slices, the
    strategy and the assembled Bayes risk.

    keep_values retains every slice (table-level diagnostics); the default
    keeps only (1, 1).  keep_strategy=False drops the action table for
    memory-lean risk sweeps.
    """
    P = config.n_packets
    grid, prior, eps = config.grid, config.prior, config.epsilon
    actions = np.zeros((P + 1, P + 1, grid.n_points), dtype=np.int8) if keep_strategy else None

    def argmin(K, l1, l2):
        take1 = l1 <= l2  # value ties resolve to action 1
        if actions is not None:
            k1 = np.arange(K + 1)
            actions[k1, K - k1] = np.where(take1, 1, 2)
        return np.where(take1, l1, l2)

    slices, total, no_initial = backward_sweep(
        eps, P, grid, prior, gaussian_expectations(eps, grid), argmin, keep_values=keep_values
    )
    strategy = StrategyTable(epsilon=eps, grid=grid, actions=actions) if keep_strategy else None
    return SolveOutput(
        slices=slices, strategy=strategy, bayes_risk=total, bayes_risk_no_initial=no_initial
    )


def _assemble(
    row: np.ndarray, grid: UGrid, epsilon: float, prior: SymmetricPrior
) -> tuple[float, float]:
    no_initial = centered_gaussian_expectation(row, grid, 0.5 * epsilon)
    total = no_initial + 2.0 * epsilon * prior.mean_w
    if not (math.isfinite(total) and total >= 0.0):
        raise InternalError(f"assembled risk is not a nonnegative number: {total}")
    return total, no_initial

