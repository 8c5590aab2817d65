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
row's largest value rather than to each cell's.  From a lattice's second
consecutive sweep on, its spectra are kept if they fit in _SPECTRA_BYTES
(_LatticeKernels), and later value sweeps transform no kernel.

gaussian_step steps every row, for the sweeps that decide per state:
solve_invariant with a table, which records the argmin as the
StrategyTable's arm-1 mask, and strategy_eval.evaluate, which plays the arm
a fixed table picks.  Those rows k1 > K/2 differ from the mirrors of the
rows k1 < K/2 in the convolution's rounding, and at near-tie cells the
table's decision follows that rounding, so the full sweep keeps them as
computed.  gaussian_step convolves each row directly
(core.convolve_zero_padded) and takes the loss rows from core.loss_profile
(_half_losses), so the tables and the risks pinned on them do not move.
It and strategy_eval.frozen_losses build each diagonal's transition
kernels (diagonal_kernels); gaussian_step works through chunks of rows in
place, so it allocates nothing of a diagonal's size per diagonal.
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
    gaussian_kernels,
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
    by k1 (a row k1 left out is row K - k1 mirrored in u).  It may write
    the rows it returns into a buffer it reuses two diagonals later
    (half_step), or over the rows of succ it reads no more, returning a
    leading block of succ (gaussian_step).  A grid whose sweep buffers
    (about four (n_packets + 1) x n_u float blocks) exceed physical memory
    is refused first.
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
    variances = [epsilon * (j * epsilon) ** 2 / (t * (t + epsilon)) for j in range(K + 1)]
    return gaussian_kernels(variances, grid)


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


# rows per chunk in the sweeps' steps: bounds their work arrays (min_step's
# about 0.6 MB on the default grid, gaussian_step's 0.2 MB) whatever the
# diagonal's length
_CHUNK_ROWS = 16

# the bytes of kernel spectra one lattice may keep: a lattice whose spectra
# exceed it keeps none.  eps = 0.02 on the default grid needs 4.59 MB
# (1,272 kernels of 451 real coefficients) and is kept; eps = 0.01
# (17.5 MB) and finer are not, and sweep as a lattice swept once does.
# Over 10 alternating pairs of 55 s runs on a 2-core VM, minimax_dp's
# peak RSS read 39.19 MB with the eps = 0.02 spectra kept against 36.09 MB
# with its 0.87 MB of taps kept, and its pass 0.356 s against 0.464 s.
_SPECTRA_BYTES = 5 << 20


def _wrapped(kernels, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the kernels go in rows of length N, one row each, centred at
    index 0 and wrapped: flat indices into a C-contiguous block of such
    rows, and the kernels' weights laid end to end in the same order."""
    sizes = np.array([k.size for k in kernels])
    weights = np.concatenate(kernels)
    centres = np.repeat(np.cumsum(sizes) - sizes // 2 - 1, sizes)
    rows = np.repeat(np.arange(len(kernels)) * N, sizes)
    return rows + (np.arange(weights.size) - centres) % N, weights


def _kernel_spectra(kernels, N: int, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The spectra of the kernels, each centred and wrapped (_wrapped) in
    one of the leading rows of length N of rows, which it overwrites, into
    the leading rows of out.  A symmetric kernel's spectrum is real: its
    imaginary rounding is dropped, so a product with it is the real
    spectrum's, bit for bit."""
    m = len(kernels)
    at, weights = _wrapped(kernels, N)
    rows[:m] = 0.0
    np.put(rows, at, weights)
    np.fft.rfft(rows[:m], out=out[:m])
    out[:m].imag = 0.0
    return out[:m]


class _LatticeKernels:
    """What the sweeps on one lattice (epsilon, grid) keep while they follow
    one another: the real spectra of its kernels at the lattice's transform
    length N, the form min_step multiplies by, in one block laid out as a
    StrategyTable's rows (diagonal K's from _first_row(K) on, by j as
    diagonal_kernels returns them).

    A sweep on a lattice other than the last one swept releases the
    spectra.  The first value sweep from a lattice's second consecutive
    sweep on keeps them all, if they fit in _SPECTRA_BYTES, and every later
    value sweep on it reads them and builds and transforms no kernel; a
    lattice swept once, as a fine Richardson solve is, keeps none.  The
    decision sweeps (gaussian_step, frozen_losses) build each diagonal's
    taps and drop them, and leave the spectra in place.  No taps are kept.

    The trade, measured on minimax_dp's eps = 0.02 search (20 value sweeps
    and three decision sweeps a pass): the 4.59 MB of spectra, in place of
    the 0.87 MB of taps kept before, cut a value sweep from about 16 ms to
    11 ms and add 4-7 ms to each decision sweep for its kernels, and
    raise the process's peak RSS by 8.6 % (see _SPECTRA_BYTES).
    """

    def __init__(self):
        self.lattice = None
        self.N = None
        self.spectra = None

    def for_sweep(self, epsilon: float, grid: UGrid) -> bool:
        """Count one sweep on the lattice (epsilon, grid), releasing another
        lattice's spectra: True from its second consecutive sweep on."""
        lattice = (epsilon, grid.u_max, grid.du)
        if lattice == self.lattice:
            return True
        self.lattice, self.spectra = lattice, None
        return False

    def keep(self, epsilon: float, grid: UGrid, P: int, N: int, rows, out) -> None:
        """Keep the spectra of the diagonals 2 .. P - 1 at length N, if they
        fit in _SPECTRA_BYTES, transformed in batches through rows and out
        (_kernel_spectra); rows is left zero."""
        F = N // 2 + 1
        if _first_row(P) * F * 8 > _SPECTRA_BYTES:
            return
        spectra = np.empty((_first_row(P), F))
        for K in range(2, P):
            kernels = diagonal_kernels(epsilon, grid, K)
            for r0 in range(0, K + 1, len(rows)):
                batch = kernels[r0 : r0 + len(rows)]
                r = _first_row(K) + r0
                spectra[r : r + len(batch)] = _kernel_spectra(batch, N, rows, out).real
        rows.fill(0.0)
        self.N, self.spectra = N, spectra

    def rows(self, K: int) -> np.ndarray:
        """Diagonal K's kept spectra."""
        return self.spectra[_first_row(K) : _first_row(K + 1)]


_KERNELS = _LatticeKernels()


def gaussian_step(epsilon: float, grid: UGrid, prior: SymmetricPrior, choose):
    """backward_sweep's step for the exact recursion on every row of each
    diagonal: both actions' rows add their successor rows convolved with the
    transition kernels, and choose(K, c0, l1, l2) returns the bool rows
    c0 .. c0 + len(l1) - 1 of diagonal K, True where arm 1 is played; the
    step's rows are l1 there and l2 elsewhere.

    The rows go in chunks of _CHUNK_ROWS through one work array built at
    the first diagonal.  Row k1 reads the successor rows k1 and k1 + 1, so
    each chunk's rows overwrite the successor rows below it, which no later
    chunk reads, and the step returns a leading block of succ: a sweep
    allocates no rows of a diagonal's size beyond backward_sweep's own.
    Each call is one sweep on the lattice for _LatticeKernels."""
    _KERNELS.for_sweep(epsilon, grid)
    work = None

    def step(K, succ):
        nonlocal work
        if work is None:
            work = np.empty((2, _CHUNK_ROWS, succ.shape[1]))
        kernels = diagonal_kernels(epsilon, grid, K)
        half = _half_losses(epsilon, grid, prior, K)
        for c0 in range(0, K + 1, _CHUNK_ROWS):
            c1 = min(c0 + _CHUNK_ROWS, K + 1)
            l1, l2 = work[:, : c1 - c0]
            j = np.arange(c0, c1)
            # l1 holds eps*g1, l2 its mirror in u (the sign flip swaps the
            # actions), each then adding the successor rows its arm reaches
            np.take(half, np.minimum(j, K - j), axis=0, out=l1, mode="clip")
            np.copyto(l2, l1[:, ::-1])
            for k1 in range(c0, c1):
                l1[k1 - c0] += convolve_zero_padded(succ[k1 + 1], kernels[K - k1])
                l2[k1 - c0] += convolve_zero_padded(succ[k1], kernels[k1])
            np.copyto(l2, l1, where=choose(K, c0, l1, l2))
            succ[c0:c1] = l2
        return succ[: K + 1]

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
    first one swept (_fft_length).  In chunks of _CHUNK_ROWS rows, the
    successor rows a chunk reads are zero-padded to N and transformed once,
    multiplied by the real spectra of the chunk's kernels for each arm and
    transformed back.  Arm 1 moves row k1 to row k1 + 1 through kernel
    K - k1 and arm 2 keeps it, through kernel k1, so the chunk of rows
    c0 .. c1 - 1 reads the spectra K - c0 down to K - c1 + 1, then
    c0 .. c1 - 1.  Where the lattice keeps its spectra (_LatticeKernels)
    they are read; elsewhere each arm's kernels are placed centred and
    wrapped and transformed in one batch (_kernel_spectra), in the rows
    that held the successor rows once those are transformed.  The loss rows
    are the factored ones, core.loss_tau_factors times core.loss_u_factors.
    The factors, the work arrays and the kept spectra are built at the
    first diagonal, after the sweep's memory check, and reused.  The values
    agree with gaussian_step's to rounding (the risk within 1e-15 at
    eps = 0.02, 1.1e-14 at eps = 0.005).  A kept spectrum is bitwise the
    one transformed per chunk, so a lattice's sweeps give bitwise equal
    risks whether or not it is kept.  Each call is one sweep on the lattice
    for _LatticeKernels."""
    keep = _KERNELS.for_sweep(epsilon, grid)
    n, C = grid.n_points, _CHUNK_ROWS
    work = None

    def fill(K, succ, out):
        nonlocal work
        kernels = None
        if work is None:
            if _KERNELS.spectra is None:
                kernels = diagonal_kernels(epsilon, grid, K)
                N = _fft_length(n, kernels[-1].size // 2)
            else:
                N = _KERNELS.N
            F = N // 2 + 1
            work = (
                N,
                *loss_u_factors(prior, grid),
                np.zeros((C + 1, N)),  # successor rows zero-padded to N, or kernels
                np.empty((C + 1, F), complex),
                np.empty((C, F), complex),
                np.empty((C, n)),
            )
            if keep and _KERNELS.spectra is None:
                _KERNELS.keep(epsilon, grid, K + 1, N, work[3], work[4])
        N, e_u, e_u_mirror, rows, spec, prod, a2 = work
        kept = None if _KERNELS.spectra is None else _KERNELS.rows(K)
        if kept is None and kernels is None:
            kernels = diagonal_kernels(epsilon, grid, K)

        def convolved(js, succ_spec):
            """The successor rows whose spectra are succ_spec, each through
            diagonal K's kernel js: kept spectra, or transformed here."""
            m = len(succ_spec)
            if kept is None:
                kspec = _kernel_spectra(kernels[js], N, rows, prod)
            else:
                kspec = kept[js]
            np.multiply(succ_spec, kspec, out=prod[:m])
            return np.fft.irfft(prod[:m], N, out=rows[:m])[:, :n]

        e_tau = loss_tau_factors(prior, epsilon, K, len(out))
        for c0 in range(0, len(out), C):
            c1 = min(c0 + C, len(out))
            m = c1 - c0
            rows[: m + 1, :n] = succ[c0 : c1 + 1]
            np.fft.rfft(rows[: m + 1], out=spec[: m + 1])
            a1 = np.einsum("aj,au->ju", e_tau[:, c0:c1], e_u, out=out[c0:c1])
            a1 += convolved(slice(K - c0, K - c1, -1), spec[1 : m + 1])
            np.einsum("aj,au->ju", e_tau[:, c0:c1], e_u_mirror, out=a2[:m])
            a2[:m] += convolved(slice(c0, c1), spec[:m])
            np.minimum(a1, a2[:m], out=a1)
            rows[:m, n:] = 0.0  # zero-padding for the next chunk's successor rows

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

    def argmin(K, c0, l1, l2):  # value ties resolve to action 1
        return np.less_equal(l1, l2, out=strategy.diagonal(K)[c0 : c0 + len(l1)])

    total, no_initial = backward_sweep(eps, grid, prior, gaussian_step(eps, grid, prior, argmin))
    return SolveOutput(strategy=strategy, bayes_risk=total, bayes_risk_no_initial=no_initial)
