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
the one-step loss, and c_l are symmetric in (t1, t2).  Both actions share
one second difference of the successor rows 0 .. H.  dp.half_step, which
the exact solver's value-only sweep also uses, allocates the rows and, for
odd K, returns row H, the one mirrored row the next diagonal reads.  A
full-lattice march differs from the mirrors only in the Laplacian's
rounding, at the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, SymmetricPrior, UGrid, packet_count
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


def solve_pde(config: PdeConfig) -> PdeSolution:
    """March the explicit scheme backward and assemble the limit risk."""
    eps, prior, grid = config.epsilon, config.prior, config.grid
    inv_du2 = 1.0 / (grid.du * grid.du)

    def fill(K, succ, half, out):
        H = len(out)
        t = K * eps
        tj = np.arange(K + 1) * eps  # c_l of a j-batch opposite arm: j = K - k1 (arm 1), k1
        c = ((eps * inv_du2) * (tj * tj / (2.0 * t * (t + eps))))[:, None]
        x = succ[: H + 1]
        d2 = x[:, 1:-1] * -2.0  # rounded as (x[i-1] - 2 x[i]) + x[i+1]
        d2 += x[:, :-2]
        d2 += x[:, 2:]
        r2 = np.add(half[:, ::-1], x[:H], out=out)  # sign flip in u swaps the actions
        lap = d2[:H] * c[:H]
        r2[:, 1:-1] += lap
        half += x[1:]
        half[:, 1:-1] += np.multiply(d2[1:], c[K : K - H : -1], out=lap)
        np.minimum(half, r2, out=r2)
        r2[:, [0, -1]] = 0.0

    total, no_initial = backward_sweep(eps, grid, prior, half_step(fill))
    return PdeSolution(limit_risk=total, limit_risk_no_initial=no_initial)
