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

min_step convolves by batched real FFTs: the successor rows are
transformed once per chunk of rows, multiplied by the real spectra of the
diagonal's kernels and transformed back, and its loss rows are the
factored ones (core.loss_u_factors, core.loss_tau_factors).  Its values
agree with the direct convolution's to rounding, which is relative to a
row's largest value rather than to each cell's.

gaussian_step steps every row, for the sweeps that decide per state:
solve_invariant with a table, which records the argmin as the
StrategyTable's arm-1 mask, and strategy_eval.evaluate, which plays the arm
a fixed table picks.  Those rows k1 > K/2 differ from the mirrors of the
rows k1 < K/2 in the convolution's rounding, and at near-tie cells the
table's decision follows that rounding, so the full sweep keeps them as
computed.  gaussian_step convolves each row directly
(core.convolve_zero_padded) and takes the loss rows from core.loss_profile
(_half_losses), so the tables and the risks pinned on them do not move.
It, min_step and strategy_eval.frozen_losses take each diagonal's
transition kernels from _LatticeKernels, which holds one lattice's kernels
while sweeps on it follow one another.
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
    loss_tau_factors,
    loss_u_factors,
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


def _fft_length(n: int, h: int) -> int:
    """The smallest 5-smooth N >= max(n + h, 2h + 1): a row of n points
    zero-padded to N and convolved circularly with a centred kernel of
    half-width h or less wraps nothing into its n outputs."""
    N = max(n + h, 2 * h + 1)
    while True:
        r = N
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return N
        N += 1


# rows per batched transform in min_step: bounds its work arrays (about
# 0.9 MB on the default grid) whatever the diagonal's length
_FFT_ROWS = 16


def _wrapped(kernels, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the kernels go in rows of length N, one row each, centred at
    index 0 and wrapped: flat indices into a C-contiguous block of such
    rows, and the kernels' weights laid end to end in the same order."""
    sizes = np.array([k.size for k in kernels])
    weights = np.concatenate(kernels)
    centres = np.repeat(np.cumsum(sizes) - sizes // 2 - 1, sizes)
    rows = np.repeat(np.arange(len(kernels)) * N, sizes)
    return rows + (np.arange(weights.size) - centres) % N, weights


class _LatticeKernels:
    """The diagonal_kernels of one lattice (epsilon, grid), shared by the
    sweeps on it.

    A sweep on a lattice other than the last one swept builds each
    diagonal's kernels and drops them, and releases what was kept; a second
    consecutive sweep on a lattice keeps its kernels for the sweeps after
    it.  So at most one lattice's kernels are held (0.87 MB at eps = 0.02
    on the default grid), and a lattice swept once, as a fine Richardson
    solve is, holds none.  Their spectra are not kept: keeping arm 1's
    (2.3 MB at eps = 0.02) saved min_step 3 ms a solve and raised the
    worst-case search's peak RSS by 11 %, 34.6 to 38.4 MB.
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


def gaussian_step(epsilon: float, grid: UGrid, prior: SymmetricPrior, combine):
    """backward_sweep's step for the exact recursion on every row of each
    diagonal: both actions' rows add their successor rows convolved with the
    transition kernels, and combine(K, l1, l2) turns the two action values
    into the diagonal's.  Each call is one sweep on the lattice for
    _LatticeKernels."""
    lattice_kernels = _KERNELS.for_sweep(epsilon, grid)

    def step(K, succ):
        kernels = lattice_kernels(K)
        j = np.arange(K + 1)
        # l1 holds eps*g1, l2 its mirror in u (the sign flip swaps the actions),
        # each then adding the successor rows its arm reaches
        l1 = _half_losses(epsilon, grid, prior, K)[np.minimum(j, K - j)]
        l2 = l1[:, ::-1].copy()
        for k1 in range(K + 1):
            l1[k1] += convolve_zero_padded(succ[k1 + 1], kernels[K - k1])
            l2[k1] += convolve_zero_padded(succ[k1], kernels[k1])
        return combine(K, l1, l2)

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

    Both actions' convolutions go through one transform length N per
    lattice, set by its widest kernel, the last of diagonal P - 1, the
    first one swept (_fft_length).  In chunks of _FFT_ROWS rows, the
    successor rows a chunk reads are zero-padded to N and transformed once,
    the chunk's kernels for both arms are transformed in one batch, and each
    arm's products with the kernels' real spectra are transformed back.  The
    loss rows are the factored ones, core.loss_tau_factors times
    core.loss_u_factors.  The factors and the chunk's work arrays are built
    at the first diagonal, after the sweep's memory check, and reused.  The
    values agree with gaussian_step's to rounding (the risk within 1e-15 at
    eps = 0.02, 1.1e-14 at eps = 0.005).  Each call is one sweep on the
    lattice for _LatticeKernels."""
    lattice_kernels = _KERNELS.for_sweep(epsilon, grid)
    n, C = grid.n_points, _FFT_ROWS
    work = None

    def fill(K, succ, out):
        nonlocal work
        kernels = lattice_kernels(K)
        if work is None:
            N = _fft_length(n, kernels[-1].size // 2)
            F = N // 2 + 1
            work = (
                N,
                *loss_u_factors(prior, grid),
                np.zeros((C + 1, N)),  # the successor rows; columns n .. N - 1 stay 0
                np.zeros((2 * C, N)),  # the kernels; zero but for the taps written
                np.empty((C + 1, F), complex),
                np.empty((2 * C, F), complex),
                np.empty((C, N)),
                np.empty((C, n)),
            )
        N, e_u, e_u_mirror, rows, taps, spec, kspec, back, a2 = work
        e_tau = loss_tau_factors(prior, epsilon, K, len(out))
        for c0 in range(0, len(out), C):
            c1 = min(c0 + C, len(out))
            m = c1 - c0
            # arm 1 moves row k1 to row k1 + 1 through kernel K - k1; arm 2
            # keeps it, through kernel k1
            rows[: m + 1, :n] = succ[c0 : c1 + 1]
            np.fft.rfft(rows[: m + 1], out=spec[: m + 1])
            at, weights = _wrapped(kernels[K - c0 : K - c1 : -1] + kernels[c0:c1], N)
            np.put(taps, at, weights)
            np.fft.rfft(taps[: 2 * m], out=kspec[: 2 * m])
            np.put(taps, at, 0.0)
            # a symmetric kernel's spectrum is real: its imaginary rounding is
            # dropped, and the products are the real spectra's, bit for bit
            kspec[: 2 * m].imag = 0.0
            kspec[:m] *= spec[1 : m + 1]
            kspec[m : 2 * m] *= spec[:m]
            np.fft.irfft(kspec[:m], N, out=back[:m])
            a1 = np.einsum("aj,au->ju", e_tau[:, c0:c1], e_u, out=out[c0:c1])
            a1 += back[:m, :n]
            np.fft.irfft(kspec[m : 2 * m], N, out=back[:m])
            np.einsum("aj,au->ju", e_tau[:, c0:c1], e_u_mirror, out=a2[:m])
            a2[:m] += back[:m, :n]
            np.minimum(a1, a2[:m], out=a1)

    return half_step(fill)


def solve_invariant(config: DpConfig, *, keep_strategy: bool = True) -> SolveOutput:
    """Backward sweep over all anti-diagonals; returns the strategy and the
    assembled Bayes risk.

    keep_strategy=False drops the action table and steps only the rows
    k1 <= K/2 of each diagonal (min_step), convolved by batched FFTs; its
    risk agrees with the table-keeping sweep's to rounding.  With the table
    every row is stepped: the rows k1 > K/2 round differently from the
    mirrors of the rows k1 < K/2, and the table's near-tie cells follow the
    rows as computed, value ties resolved to arm 1.
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
