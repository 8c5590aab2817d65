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
per diagonal, step(K, succ), which builds the diagonal's one-step losses
itself.  The recursion is arm-swap symmetric, r(u, k1, k2) = r(-u, k2, k1),
so a sweep that returns only values needs the rows k1 <= K/2 alone.
half_step keeps that contract, with the one mirrored row an odd diagonal
hands on, in two buffers that alternate by diagonal; min_step,
solve_invariant's step when it keeps no table, and pde.solve_pde's 3-tap
stencil both go through it, at half the work of a full diagonal.
gaussian_step steps every row, for the sweeps that decide per state:
solve_invariant with a table, which records the argmin as the
StrategyTable's arm-1 mask, and strategy_eval.evaluate, which plays the arm
a fixed table picks.  Those rows k1 > K/2 differ from the mirrors of the
rows k1 < K/2 in the convolution's rounding, and at near-tie cells the
table's decision follows that rounding, so the full sweep keeps them as
computed.  gaussian_step and min_step take the loss rows from
core.loss_profile (_half_losses); they, and strategy_eval.frozen_losses,
take each diagonal's transition kernels from _LatticeKernels, which holds
one lattice's kernels while sweeps on it follow one another.
"""

from __future__ import annotations

import math
import os
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


def _states(P: int):
    """The decision states 2 <= k1 + k2 <= P - 1 in table order (by k1 + k2, then k1), lazily."""
    return ((k1, K - k1) for K in range(2, P) for k1 in range(K + 1))


def _first_row(K: int) -> int:
    """The table row of state (0, K), after diagonals 2 .. K - 1; _first_row(P) counts them all."""
    return K * (K + 1) // 2 - 3


@dataclass(frozen=True, eq=False)
class StrategyTable:
    """Deterministic strategy on the decision lattice 2 <= k1 + k2 <= n_packets - 1.

    arm1 is a (states, n_u) bool array, True where arm 1 is played: one row
    per decision state in _states order (the CSV's), diagonal(K) viewing the
    rows of diagonal K by k1.  The solver's table holds its argmin, value ties
    resolved to arm 1.  The two initial batches are forced turn-by-turn (arm 1
    first, then the unplayed arm) and are not part of the table.
    """

    epsilon: float
    grid: UGrid
    arm1: np.ndarray = field(repr=False)

    def __post_init__(self):
        want = (_first_row(packet_count(self.epsilon)), self.grid.n_points)
        if not (isinstance(self.arm1, np.ndarray) and self.arm1.dtype == bool):
            raise ConfigurationError("arm1 must be a bool array")
        if self.arm1.shape != want:
            raise ConfigurationError(f"arm1 has shape {self.arm1.shape}, (states, n_u) is {want}")

    @property
    def n_packets(self) -> int:
        return packet_count(self.epsilon)

    def diagonal(self, K: int) -> np.ndarray:
        """The K + 1 rows of diagonal K, 2 <= K <= n_packets - 1, indexed by k1 (a view)."""
        return self.arm1[_first_row(K) : _first_row(K + 1)]


@dataclass
class SolveOutput:
    """Result of solve_invariant; strategy is None with keep_strategy=False."""

    strategy: StrategyTable | None
    bayes_risk: float
    bayes_risk_no_initial: float


def _check_memory(need: int, what: str) -> None:
    """Refuse, before it is allocated, what exceeds the machine's physical memory."""
    if hasattr(os, "sysconf") and need > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise ConfigurationError(f"{what} needs about {need:.3g} bytes, over physical memory")


def backward_sweep(epsilon: float, grid: UGrid, prior: SymmetricPrior, step) -> tuple[float, float]:
    """Walk the anti-diagonals K = n_packets - 1 .. 2, n_packets = 1/epsilon,
    back from the zero terminal diagonal; returns (total risk, risk without
    the initial stage).

    Rows of diagonal K are indexed by k1 (t1 = k1*eps, t2 = (K - k1)*eps).
    step(K, succ) reads succ, the rows diagonal K + 1's step returned, and
    returns the rows of diagonal K that the next step reads, the first ones
    by k1 (a row k1 left out is row K - k1 mirrored in u).  It must leave
    succ as it is, and may write the rows it returns into a buffer it
    reuses two diagonals later.  A grid whose sweep buffers (about four
    (n_packets + 1) x n_u float blocks) exceed physical memory is refused
    first.
    """
    n_packets = packet_count(epsilon)
    _check_memory(4 * (n_packets + 1) * grid.n_points * 8, "the sweep")
    succ = np.zeros((n_packets + 1, grid.n_points))
    for K in range(n_packets - 1, 1, -1):
        succ = step(K, succ)
        if math.isnan(succ.min()):  # min propagates a NaN
            raise InternalError(f"NaN in value slice at diagonal {K}")
    # after the loop succ is diagonal 2 (or the terminal one when P == 2);
    # its row 1 is the (eps, eps) slice the risk assembly needs
    idx, weights = centered_gaussian_weights(grid, 0.5 * epsilon)
    no_initial = float(np.dot(weights, succ[1][idx]))
    total = no_initial + 2.0 * epsilon * prior.mean_w
    if not (math.isfinite(total) and total >= 0.0):
        raise InternalError(f"assembled risk is not a nonnegative number: {total}")
    return total, no_initial


def _half_losses(epsilon: float, grid: UGrid, prior: SymmetricPrior, K: int) -> np.ndarray:
    """eps*g1 on the rows k1 <= K/2 of diagonal K.  g1 depends on (t1, t2)
    only through tau = t1*t2/t, bitwise the same on rows k1 and K - k1, and
    g2 is g1 mirrored in u, so these rows give both actions' losses on the
    whole diagonal.  The grid's points are built here, inside the sweep: a
    grid too large for memory is refused by backward_sweep first."""
    j = np.arange(K // 2 + 1)
    half = loss_profile(prior, grid.points, j * epsilon, (K - j) * epsilon)
    half *= epsilon
    return half


def diagonal_kernels(epsilon: float, grid: UGrid, K: int) -> list[np.ndarray]:
    """Transition kernels from diagonal K to K + 1, indexed by j, the batches
    on the arm not played: arm 1 moves row k1 through kernel K - k1, arm 2
    through kernel k1, so the one set serves both actions."""
    t = K * epsilon
    return [
        gaussian_kernel(epsilon * (j * epsilon) ** 2 / (t * (t + epsilon)), grid)
        for j in range(K + 1)
    ]


class _LatticeKernels:
    """The diagonal_kernels of one lattice (epsilon, grid), shared by the
    sweeps on it.

    A sweep on a lattice other than the last one swept builds each
    diagonal's kernels and drops them, and releases what was kept; a second
    consecutive sweep on a lattice keeps its kernels for the sweeps after
    it.  So at most one lattice's kernels are held (0.87 MB at eps = 0.02
    on the default grid), and a lattice swept once, as a fine Richardson
    solve is, holds none.
    """

    def __init__(self):
        self.lattice = None
        self.kept = None

    def for_sweep(self, epsilon: float, grid: UGrid):
        """kernels(K), diagonal K's kernels, for one sweep on this lattice."""
        lattice = (epsilon, grid.u_max, grid.du)
        if lattice != self.lattice:
            self.lattice, self.kept = lattice, None
            return lambda K: diagonal_kernels(epsilon, grid, K)
        if self.kept is None:
            self.kept = {}
        kept = self.kept

        def kernels(K):
            if K not in kept:
                kept[K] = diagonal_kernels(epsilon, grid, K)
            return kept[K]

        return kernels


_KERNELS = _LatticeKernels()


def _action_values(kernels, K: int, succ, l1):
    """The two actions' values on rows 0 .. len(l1) - 1 of diagonal K, from
    l1 holding eps*g1 there: l1 adds the successor rows arm 1 reaches, and
    l2, l1 mirrored in u, those arm 2 reaches.  l1 is overwritten."""
    l2 = l1[:, ::-1].copy()  # sign flip in u swaps the actions
    for k1 in range(len(l1)):
        l1[k1] += convolve_zero_padded(succ[k1 + 1], kernels[K - k1])
        l2[k1] += convolve_zero_padded(succ[k1], kernels[k1])
    return l1, l2


def gaussian_step(epsilon: float, grid: UGrid, prior: SymmetricPrior, combine):
    """backward_sweep's step for the exact recursion on every row of each
    diagonal: both actions' rows add their successor rows convolved with the
    transition kernels, and combine(K, l1, l2) turns the two action values
    into the diagonal's.  Each call is one sweep on the lattice for
    _LatticeKernels."""
    lattice_kernels = _KERNELS.for_sweep(epsilon, grid)

    def step(K, succ):
        k1 = np.arange(K + 1)
        l1 = _half_losses(epsilon, grid, prior, K)[np.minimum(k1, K - k1)]
        return combine(K, *_action_values(lattice_kernels(K), K, succ, l1))

    return step


def half_step(fill):
    """backward_sweep's step from fill(K, succ, out), which writes the
    values of the rows k1 <= K/2 of diagonal K into out.  For odd K the step
    also returns row K//2 + 1, the one row left out that the next diagonal
    reads, as row K//2 mirrored in u.  The rows go to two buffers that
    alternate by diagonal, one per parity of K, each allocated at its first
    diagonal, the largest of its parity; out is a C-contiguous leading block
    of one.  The second buffer is allocated after the sweep has released
    the terminal diagonal, so it can take that memory: one block for both
    raised the peak RSS of repeated solves."""
    buffers = {}

    def step(K, succ):
        H = K // 2 + 1
        if K % 2 not in buffers:
            buffers[K % 2] = np.empty((H + 1, succ.shape[1]))
        cur = buffers[K % 2][: H + K % 2]
        fill(K, succ, cur[:H])
        if K % 2:
            cur[H] = cur[H - 1, ::-1]
        return cur

    return step


def min_step(epsilon: float, grid: UGrid, prior: SymmetricPrior):
    """backward_sweep's step for the exact recursion's values alone: the
    plain minimum of the two actions on the rows k1 <= K/2 (half_step).
    Each call is one sweep on the lattice for _LatticeKernels."""
    lattice_kernels = _KERNELS.for_sweep(epsilon, grid)

    def fill(K, succ, out):
        half = _half_losses(epsilon, grid, prior, K)
        np.minimum(*_action_values(lattice_kernels(K), K, succ, half), out=out)

    return half_step(fill)


def solve_invariant(config: DpConfig, *, keep_strategy: bool = True) -> SolveOutput:
    """Backward sweep over all anti-diagonals; returns the strategy and the
    assembled Bayes risk.

    keep_strategy=False drops the action table and steps only the rows
    k1 <= K/2 of each diagonal (min_step), half the convolutions; its risk
    agrees with the table-keeping sweep's to rounding.  With the table every
    row is stepped: the rows k1 > K/2 round differently from the mirrors of
    the rows k1 < K/2, and the table's near-tie cells follow the rows as
    computed, value ties resolved to arm 1.
    """
    grid, prior, eps = config.grid, config.prior, config.epsilon
    if not keep_strategy:
        total, no_initial = backward_sweep(eps, grid, prior, min_step(eps, grid, prior))
        return SolveOutput(strategy=None, bayes_risk=total, bayes_risk_no_initial=no_initial)
    shape = (_first_row(config.n_packets), grid.n_points)
    _check_memory(math.prod(shape), "the action table")
    strategy = StrategyTable(epsilon=eps, grid=grid, arm1=np.zeros(shape, dtype=bool))

    def argmin(K, l1, l2):
        take1 = l1 <= l2  # value ties resolve to action 1
        strategy.diagonal(K)[:] = take1
        return np.where(take1, l1, l2)

    total, no_initial = backward_sweep(eps, grid, prior, gaussian_step(eps, grid, prior, argmin))
    return SolveOutput(strategy=strategy, bayes_risk=total, bayes_risk_no_initial=no_initial)
