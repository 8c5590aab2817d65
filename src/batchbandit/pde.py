"""Diffusion limit of the batched bandit recursion.

As the batch fraction eps shrinks, the Gaussian transition collapses to a
second-order term and the value satisfies a degenerate parabolic equation on
(u, t1, t2).  The explicit scheme marches the same anti-diagonal lattice as
the exact solver but replaces the convolution with a discrete Laplacian:

    r_l = eps * g_l + r' + eps * c_l * D2_u r',   c_l = t_other^2 / (2 t (t + eps)),

with Dirichlet 0 beyond +-u_max.  The scheme is monotone iff eps <= du^2
(worst case c_l = 1/2), which the configuration enforces; coarser u-grids
are the price of small eps here, the exact solver has no such coupling.
The march is dp.backward_sweep with one step: the stencil, then a plain
minimum of the two actions pinned to 0 at +-u_max.

The step computes only the H = K//2 + 1 rows k1 <= K/2 of each diagonal and
mirrors the rest by arm-swap symmetry, r(u, k1, k2) = r(-u, k2, k1), exact
for the scheme: the u-grid is symmetric about 0, and tau = t1*t2/t, hence
the one-step loss, and c_l are symmetric in (t1, t2).  dp.half_step, which
the exact solver's value-only sweep also uses, hands the step its output
rows in one of two buffers that alternate by diagonal and, for odd K,
returns row H, the one mirrored row the next diagonal reads.  A
full-lattice march differs from the mirrors only in the Laplacian's
rounding, at the last bit.

Every large array operation of the step runs over one contiguous span.
Both actions share one second difference of the successor rows 0 .. H,
taken over those rows laid end to end as one flat array: its edge
columns, u = +-u_max, mix the last point of one row with the first of the
next, and the Dirichlet-0 pin overwrites them.  The per-row coefficient
c_l multiplies the rows by einsum, and the two actions' values are built
in work arrays made at the first diagonal, after the sweep's memory check, and
reused, so no later diagonal allocates an array of its size.
The loss is never formed cell by cell: over the atoms (w, p),

    eps * g_1(u, tau) = sum (eps * e^{-2 w^2 tau}) * (p w e^{-2 w u}),

a factor in tau per row times a factor in u built once per solve, and
g_2's u-factor is that one mirrored, so no row is read reversed.  The
u-factor's exponent takes core.loss_profile's per-atom cap, core.exp_caps,
min(EXP_CLIP, 709 - log(n_atoms*p) - log(w)), so the losing branch stays
finite at any gap SymmetricPrior allows.  The factoring rounds differently
from loss_profile, by about 1e-16 in the risk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, SymmetricPrior, UGrid, exp_caps, packet_count
from .dp import backward_sweep, half_step


# the scheme's default grid, (u_max, du) as given (UGrid snaps u_max to 2.304):
# it resolves the limit risk to about 1e-2 and stays monotone down to eps = 0.001
DEFAULT_GRID = (2.3, 0.032)


@dataclass(frozen=True)
class PdeConfig:
    """Scheme configuration: batch fraction, prior and u-grid.

    grid defaults to the scheme's default grid, UGrid(*DEFAULT_GRID), which
    search and the CLI also use; its du must satisfy eps <= du^2.
    """

    epsilon: float
    prior: SymmetricPrior
    grid: UGrid = UGrid(*DEFAULT_GRID)

    def __post_init__(self):
        packet_count(self.epsilon)
        du = self.grid.du
        if self.epsilon > du * du * (1.0 + 1e-12):
            raise ConfigurationError(
                f"explicit scheme is unstable: eps={self.epsilon} exceeds "
                f"du^2={du * du}; refine eps or coarsen du"
            )


@dataclass(frozen=True)
class PdeSolution:
    """Limit risk with and without the initial stage."""

    limit_risk: float
    limit_risk_no_initial: float


def _u_factors(prior: SymmetricPrior, grid: UGrid) -> tuple[np.ndarray, np.ndarray]:
    """p*w*exp(-2*w*u) per atom over the grid, action 1's loss factor in u,
    and its mirror in u, action 2's.  The exponent takes loss_profile's
    per-atom cap, so the factors stay finite."""
    w, p = (np.array(col) for col in zip(*prior.atoms))
    clip = np.array(exp_caps(prior))[:, None]
    e_u = (p * w)[:, None] * np.exp(np.minimum(np.multiply.outer(-2.0 * w, grid.points), clip))
    return e_u, e_u[:, ::-1].copy()


def solve_pde(config: PdeConfig) -> PdeSolution:
    """March the explicit scheme backward and assemble the limit risk."""
    eps, prior, grid = config.epsilon, config.prior, config.grid
    inv_du2 = 1.0 / (grid.du * grid.du)
    n = grid.n_points
    w = np.array([w for w, _ in prior.atoms])
    e_u = e_u_mirror = flat = lap = None

    def fill(K, succ, out):
        nonlocal e_u, e_u_mirror, flat, lap
        H = len(out)
        if flat is None:
            # built at the first diagonal, the largest, after backward_sweep's
            # memory check, and reused by every diagonal: flat holds the
            # second difference of the successor rows laid end to end, then
            # action 1's values; lap one action's Laplacian term at a time
            e_u, e_u_mirror = _u_factors(prior, grid)
            flat, lap = np.empty((H + 1) * n), np.empty((H, n))
        t = K * eps
        tj = np.arange(K + 1) * eps  # c_l of a j-batch opposite arm: j = K - k1 (arm 1), k1
        c = (eps * inv_du2) * (tj * tj / (2.0 * t * (t + eps)))
        # eps*exp(-2*w^2*tau) per atom on rows k1 <= K/2, tau = t1*t2/t
        e_tau = eps * np.exp(np.multiply.outer(-2.0 * w * w, tj[:H] * tj[K : K - H : -1] / t))
        x = succ[: H + 1].ravel()
        D = flat[: (H + 1) * n]
        D[0] = D[-1] = 0.0
        np.multiply(x[1:-1], -2.0, out=D[1:-1])  # rounded as (x[i-1] - 2 x[i]) + x[i+1]
        D[1:-1] += x[:-2]
        D[1:-1] += x[2:]
        D = D.reshape(H + 1, n)  # its edge columns mix two rows; the pin overwrites them
        # action 2 keeps row k1 and sees the loss mirrored in u
        np.einsum("aj,au->ju", e_tau, e_u_mirror, out=out)
        out += succ[:H]
        out += np.einsum("ju,j->ju", D[:H], c[:H], out=lap[:H])
        lap1 = np.einsum("ju,j->ju", D[1:], c[K : K - H : -1], out=lap[:H])
        # action 1 moves to row k1 + 1; its values overwrite the spent D
        a1 = np.einsum("aj,au->ju", e_tau, e_u, out=flat[: H * n].reshape(H, n))
        a1 += succ[1 : H + 1]
        a1 += lap1
        np.minimum(a1, out, out=out)
        out[:, 0] = 0.0
        out[:, -1] = 0.0

    total, no_initial = backward_sweep(eps, grid, prior, half_step(fill))
    return PdeSolution(limit_risk=total, limit_risk_no_initial=no_initial)
