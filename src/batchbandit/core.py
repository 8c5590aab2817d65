"""Core types and primitives for the batched Gaussian two-armed bandit.

Two arms produce unit-variance normal packet incomes whose means differ by an
unknown gap.  After n1 + n2 processed fractions the whole history is
compressed into the sufficient statistic

    u  = (X1*n2 - X2*n1) / (n1 + n2) * N**-0.5,   t_l = n_l / N,

where X_l is the cumulative income on arm l and N the item horizon.  Priors
on the scaled half-gap w are symmetric and discrete: mass pi_i/2 at +-w_i.
All solvers in this package operate on the invariant scale (u, t1, t2) with
batch fraction epsilon = M/N and map back to item units by a sqrt(N) factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# exp() arguments are clipped here: the loss profile's, whose clipped branch
# is never the minimum of the two actions (so the clip cannot flip a
# decision), and those of the forward sweep's u-factor exp(-2*u*w)
EXP_CLIP = 700.0


class ConfigurationError(ValueError):
    """Invalid configuration or input file (CLI exit code 2)."""


class InternalError(RuntimeError):
    """Numerical corruption on valid input, e.g. NaN (CLI exit code 1)."""


def as_float(value, what: str) -> float:
    """float(value), where an integer beyond float range (a JSON input can
    hold one) is a ConfigurationError rather than an OverflowError."""
    try:
        return float(value)
    except OverflowError:
        raise ConfigurationError(f"{what} is beyond float range") from None


@dataclass(frozen=True)
class SymmetricPrior:
    """Symmetric discrete prior on the scaled half-gap.

    atoms: tuple of (w_i, pi_i) with w_i > 0 distinct and sum(pi_i) = 1,
    meaning mass pi_i/2 at +w_i and pi_i/2 at -w_i.  2*w_i^2, the one-step
    loss's decay rate in tau, must be finite: past it the loss is NaN.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        atoms = tuple(
            (as_float(w, "atom position"), as_float(p, "atom weight")) for w, p in self.atoms
        )
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ConfigurationError("prior needs at least one atom")
        ws = [w for w, _ in atoms]
        if any(not math.isfinite(w) or w <= 0.0 for w in ws):
            raise ConfigurationError("atom positions must be positive and finite")
        if any(not math.isfinite(2.0 * w * w) for w in ws):
            raise ConfigurationError(f"atom position {max(ws):.6g} is too large: 2*w^2 overflows")
        if len(set(ws)) != len(ws):
            raise ConfigurationError("atom positions must be distinct")
        if not all(0.0 < p < math.inf for _, p in atoms):  # NaN fails too
            raise ConfigurationError("atom weights must be positive and finite")
        total = sum(p for _, p in atoms)
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(f"atom weights must sum to 1, got {total}")

    @classmethod
    def two_point(cls, d: float) -> "SymmetricPrior":
        """Prior concentrated at +-d with equal mass."""
        return cls(((d, 1.0),))

    @property
    def mean_w(self) -> float:
        """sum_i pi_i w_i; the initial turn-by-turn stage costs 2*eps times this."""
        return float(np.dot([w for w, _ in self.atoms], [p for _, p in self.atoms]))


@dataclass(frozen=True)
class UGrid:
    """Uniform symmetric grid on the history statistic u.

    u_max snaps up to the nearest multiple of du, so the grid always contains
    0 and the requested range.  Reads beyond +-u_max are treated as 0 by the
    solvers (Dirichlet truncation).
    """

    u_max: float = 4.0
    du: float = 0.01

    def __post_init__(self):
        du, u_max = as_float(self.du, "du"), as_float(self.u_max, "u_max")
        if not (du > 0.0 and math.isfinite(du)):
            raise ConfigurationError("du must be positive and finite")
        if not (u_max > 0.0 and math.isfinite(u_max)):
            raise ConfigurationError("u_max must be positive and finite")
        if not math.isfinite(self.u_max / self.du):
            raise ConfigurationError(f"u_max / du overflows: {self.u_max} / {self.du}")
        n_half = int(round(self.u_max / self.du))
        if abs(n_half * self.du - self.u_max) > 1e-9 * max(1.0, self.u_max):
            n_half = int(math.ceil(self.u_max / self.du - 1e-12))
        if n_half < 1:
            n_half = 1
        if (2 * n_half + 1) * np.dtype(float).itemsize > np.iinfo(np.intp).max:
            raise ConfigurationError(
                f"u_max / du = {self.u_max / self.du:.3g} gives more grid points "
                "than one float array can hold"
            )
        object.__setattr__(self, "u_max", n_half * self.du)

    @property
    def n_half(self) -> int:
        return int(round(self.u_max / self.du))

    @property
    def n_points(self) -> int:
        return 2 * self.n_half + 1

    @cached_property
    def points(self) -> np.ndarray:
        return self.du * np.arange(-self.n_half, self.n_half + 1)

    def nearest_index(self, u):
        """Nearest grid index; ties at midpoints round toward u = 0, values
        beyond the range clamp to the edge."""
        x = np.asarray(u, dtype=float) / self.du
        rel = np.where(x >= 0.0, np.ceil(x - 0.5), np.floor(x + 0.5))
        rel = np.clip(rel, -self.n_half, self.n_half)
        idx = (rel + self.n_half).astype(np.int64)
        if np.ndim(u) == 0:
            return int(idx)
        return idx


def packet_count(epsilon: float) -> int:
    """Number of packets 1/epsilon of a batch fraction in (0, 0.5]; anything
    else, a non-integer 1/epsilon included, is a ConfigurationError."""
    if not (0.0 < epsilon <= 0.5):
        raise ConfigurationError(f"epsilon must lie in (0, 0.5], got {epsilon}")
    n = round(1.0 / epsilon)
    if abs(n * epsilon - 1.0) > 1e-9:
        raise ConfigurationError(f"1/epsilon must be an integer, got 1/{epsilon}")
    return n


def loss_profile(prior: SymmetricPrior, u, t1, t2) -> np.ndarray:
    """Prior-weighted one-step loss of arm 1 over a row of u values.

    g_1(u, t1, t2) = sum_i pi_i w_i exp(-2*u*w_i - 2*w_i^2*t1*t2/t) with
    t = t1 + t2.  Arm 2's loss is the same profile at -u, bitwise: the
    sign flip of u is exact.  Scalar t1, t2 give one row; equal-length
    arrays give one row per (t1, t2) pair, e.g. a whole anti-diagonal.
    Exponents are clipped at EXP_CLIP to keep the losing branch finite for
    extreme u*w products, and lower where an atom's p*w would lift its term
    past e**709 / n_atoms: the sum then stays below the float maximum.
    """
    t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
    t = t1 + t2
    if (t <= 0.0).any():
        raise ValueError("state precedes any observation (t1 + t2 = 0)")
    tau = t1 * t2 / t
    if tau.ndim:
        tau = tau[:, None]
    u = np.asarray(u, dtype=float)
    out, n = None, len(prior.atoms)
    for w, p in prior.atoms:  # one temporary per atom; the first (>= 0) becomes the sum
        term = np.asarray(-2.0 * w * u - 2.0 * w * w * tau)  # scalar inputs stay 0-d
        clip = min(EXP_CLIP, 709.0 - math.log(n * p) - math.log(w))
        np.exp(np.minimum(term, clip, out=term), out=term)
        term *= p * w
        out = term if out is None else np.add(out, term, out=out)
    return out


def transition_variance(epsilon: float, t1: float, t2: float, action: int) -> float:
    """Variance of the u increment when `action` processes one more batch.

    Action 1 moves u by a centered Gaussian of variance eps*t2^2/(t*(t+eps));
    action 2 swaps in t1^2.
    """
    if action not in (1, 2):
        raise ValueError(f"action must be 1 or 2, got {action}")
    t = t1 + t2
    if t <= 0.0:
        raise ValueError("state precedes any observation (t1 + t2 = 0)")
    other = t2 if action == 1 else t1
    return epsilon * other * other / (t * (t + epsilon))


def gaussian_kernel(variance: float, grid: UGrid) -> np.ndarray:
    """Discrete centered Gaussian weights at grid offsets, truncated at 6 sigma
    and renormalized to sum 1.

    A standard deviation below du/2 cannot be resolved by the grid and
    degenerates to the delta kernel [1.0]; convolution is then an identity.
    """
    if not (variance >= 0.0 and math.isfinite(variance)):
        raise ValueError(f"variance must be nonnegative and finite, got {variance}")
    sigma = math.sqrt(variance)
    if sigma < 0.5 * grid.du:
        return np.ones(1)
    half = int(math.ceil(6.0 * sigma / grid.du))
    offsets = grid.du * np.arange(-half, half + 1)
    w = np.exp(-0.5 * (offsets / sigma) ** 2)
    return w / w.sum()


def convolve_zero_padded(values: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Convolution against a centered kernel with Dirichlet-0 reads beyond the
    ends of `values`; offsets are grid-aligned so no interpolation happens.

    The kernel must be odd-length and symmetric, as gaussian_kernel's weights
    are bitwise.  np.convolve(values, kernel) is then the correlation
    against the kernel itself, and the "same" mode of np.correlate computes
    only the values.size middle outputs of it, each with the same products
    in the same order: bitwise the full convolution's middle.  A kernel
    longer than the row makes "same" return the kernel's length, so it takes
    the full convolution's slice.
    """
    if kernel.size > values.size:
        half = kernel.size // 2
        return np.convolve(values, kernel)[half : half + values.size]
    return np.correlate(values, kernel, "same")


def centered_gaussian_weights(grid: UGrid, variance: float) -> tuple[np.ndarray, np.ndarray]:
    """Grid indices and kernel weights of the centered Gaussian of the given
    variance; mass falling beyond the grid is dropped."""
    kern = gaussian_kernel(variance, grid)
    half = kern.size // 2
    idx = grid.n_half + np.arange(-half, half + 1)
    valid = (idx >= 0) & (idx < grid.n_points)
    return idx[valid], kern[valid]
