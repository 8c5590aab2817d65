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

backward_sweep is the one implementation of that walk, with one callback
per diagonal, step(K, succ, half).  gaussian_step convolves for
solve_invariant, which takes the argmin and records it as the StrategyTable's
arm-1 mask, and for strategy_eval.evaluate, which plays the arm a fixed
table picks; pde.solve_pde steps a 3-tap stencil on half the rows.
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
    centered_gaussian_weights,
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
        return packet_count(self.epsilon)


@dataclass(frozen=True, eq=False)
class StrategyTable:
    """Deterministic strategy on the decision lattice 2 <= k1 + k2 <= n_packets - 1.

    arm1[k1, k2, i] is True where arm 1 is played at grid point i of state
    (k1, k2); entries off the lattice are unused.  The solver's table holds
    its argmin, with value ties resolved to arm 1.  The two initial batches
    are forced turn-by-turn (arm 1 first, then the unplayed arm) and are not
    part of the table.  Construction checks the lattice shape and the bool
    dtype; n_packets follows from epsilon.
    """

    epsilon: float
    grid: UGrid
    arm1: np.ndarray = field(repr=False)

    def __post_init__(self):
        P = packet_count(self.epsilon)
        want = (P + 1, P + 1, self.grid.n_points)
        if not (isinstance(self.arm1, np.ndarray) and self.arm1.dtype == bool):
            raise ConfigurationError("arm1 must be a bool array")
        if self.arm1.shape != want:
            raise ConfigurationError(f"arm1 has shape {self.arm1.shape}, the lattice needs {want}")

    @property
    def n_packets(self) -> int:
        return packet_count(self.epsilon)


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
    grid: UGrid,
    prior: SymmetricPrior,
    step,
    *,
    keep_values: bool = False,
) -> tuple[dict[tuple[int, int], np.ndarray], float, float]:
    """Walk the anti-diagonals K = n_packets - 1 .. 2, n_packets = 1/epsilon,
    back from the zero terminal diagonal; returns (slices, total risk, risk
    without the initial stage).

    Rows of diagonal K are indexed by k1 (t1 = k1*eps, t2 = (K - k1)*eps).
    half = eps*g1 covers the rows k1 <= K/2 only: g1 depends on (t1, t2) only
    through tau = t1*t2/t, bitwise the same on rows k1 and K - k1, and g2 is
    g1 mirrored in u.  step(K, succ, half) may overwrite half; it returns the
    K + 1 rows of diagonal K, or fewer when rows k1 > K/2 mirror rows K - k1.
    slices holds every diagonal with keep_values (a mirror as a reversed
    view), otherwise only (1, 1).
    """
    n_packets = packet_count(epsilon)
    u = grid.points
    succ = np.zeros((n_packets + 1, u.size))
    slices: dict[tuple[int, int], np.ndarray] = {}
    if keep_values:
        slices.update(((k1, n_packets - k1), succ[k1]) for k1 in range(n_packets + 1))
    for K in range(n_packets - 1, 1, -1):
        j = np.arange(K // 2 + 1)
        half = loss_profile(prior, u, j * epsilon, (K - j) * epsilon)
        half *= epsilon
        cur = step(K, succ, half)
        if np.isnan(cur).any():
            raise InternalError(f"NaN in value slice at diagonal {K}")
        if keep_values:
            own = K + 1 if len(cur) == K + 1 else K // 2 + 1  # the rows not mirrored
            for i in range(K + 1):
                slices[(i, K - i)] = cur[i] if i < own else cur[K - i, ::-1]
        succ = cur
    # after the loop succ is diagonal 2 (or the terminal one when P == 2);
    # its row 1 is the (eps, eps) slice the risk assembly needs
    slices.setdefault((1, 1), succ[1])
    idx, weights = centered_gaussian_weights(grid, 0.5 * epsilon)
    no_initial = float(np.dot(weights, succ[1][idx]))
    total = no_initial + 2.0 * epsilon * prior.mean_w
    if not (math.isfinite(total) and total >= 0.0):
        raise InternalError(f"assembled risk is not a nonnegative number: {total}")
    return slices, total, no_initial


def diagonal_kernels(epsilon: float, grid: UGrid, K: int) -> list[np.ndarray]:
    """Transition kernels from diagonal K to K + 1, indexed by j, the batches
    on the arm not played: arm 1 moves row k1 through kernel K - k1, arm 2
    through kernel k1, so the one set serves both actions."""
    t = K * epsilon
    return [
        gaussian_kernel(epsilon * (j * epsilon) ** 2 / (t * (t + epsilon)), grid)
        for j in range(K + 1)
    ]


def gaussian_step(epsilon: float, grid: UGrid, combine):
    """backward_sweep's step for the exact recursion: both actions' rows add
    their successor rows convolved with the transition kernels, and
    combine(K, l1, l2) turns the two action values into the diagonal's."""

    def step(K, succ, half):
        kernels = diagonal_kernels(epsilon, grid, K)
        k1 = np.arange(K + 1)
        l1 = half[np.minimum(k1, K - k1)]
        l2 = l1[:, ::-1].copy()  # sign flip in u swaps the actions
        for k1 in range(K + 1):
            l1[k1] += convolve_zero_padded(succ[k1 + 1], kernels[K - k1])
            l2[k1] += convolve_zero_padded(succ[k1], kernels[k1])
        return combine(K, l1, l2)

    return step


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
    arm1 = np.zeros((P + 1, P + 1, grid.n_points), dtype=bool) if keep_strategy else None

    def argmin(K, l1, l2):
        take1 = l1 <= l2  # value ties resolve to action 1
        if arm1 is not None:
            k1 = np.arange(K + 1)
            arm1[k1, K - k1] = take1
        return np.where(take1, l1, l2)

    slices, total, no_initial = backward_sweep(
        eps, grid, prior, gaussian_step(eps, grid, argmin), keep_values=keep_values
    )
    strategy = StrategyTable(epsilon=eps, grid=grid, arm1=arm1) if keep_strategy else None
    return SolveOutput(
        slices=slices, strategy=strategy, bayes_risk=total, bayes_risk_no_initial=no_initial
    )
