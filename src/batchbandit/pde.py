"""Diffusion limit of the batched bandit recursion.

As the batch fraction eps shrinks, the Gaussian transition collapses to a
second-order term and the value satisfies a degenerate parabolic equation on
(u, t1, t2).  The explicit scheme marches the same anti-diagonal lattice as
the exact solver but replaces the convolution with a discrete Laplacian:

    r_l = eps * g_l + r' + eps * c_l * D2_u r',   c_l = t_other^2 / (2 t (t + eps)),

with Dirichlet 0 beyond +-u_max.  The scheme is monotone iff eps <= du^2
(worst case c_l = 1/2), which the configuration enforces; coarser u-grids
are the price of small eps here, the exact solver has no such coupling.
The march is dp.backward_sweep with the stencil as its expectation and a
plain minimum, pinned to 0 at +-u_max, as its combination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, SymmetricPrior, UGrid, packet_count
from .dp import ValueTable, backward_sweep


@dataclass(frozen=True)
class PdeConfig:
    """Scheme configuration.

    The du and u_max defaults are the scheme's default grid, which search
    and the CLI read from here: it resolves the limit risk to about 1e-2 and
    keeps the scheme monotone down to eps = 0.001.
    """

    epsilon: float
    prior: SymmetricPrior
    du: float = 0.032
    u_max: float = 2.3

    def __post_init__(self):
        packet_count(self.epsilon)
        if self.epsilon > self.du * self.du * (1.0 + 1e-12):
            raise ConfigurationError(
                f"explicit scheme is unstable: eps={self.epsilon} exceeds "
                f"du^2={self.du * self.du}; refine eps or coarsen du"
            )

    @property
    def n_packets(self) -> int:
        return round(1.0 / self.epsilon)

    @property
    def grid(self) -> UGrid:
        return UGrid(self.u_max, self.du)


@dataclass(frozen=True)
class PdeSolution:
    config: PdeConfig
    limit_risk: float
    limit_risk_no_initial: float
    value: ValueTable


def solve_pde(config: PdeConfig, *, keep_values: bool = False) -> PdeSolution:
    """March the explicit scheme backward and assemble the limit risk.

    keep_values retains every diagonal slice; at small eps that is a large
    table (about n_packets^2 / 2 rows), so keep it for coarse lattices only.
    """
    P = config.n_packets
    eps, prior, grid = config.epsilon, config.prior, config.grid
    inv_du2 = 1.0 / (grid.du * grid.du)

    def stencil(K, succ, l1, l2):
        t = K * eps
        k1 = np.arange(K + 1)
        t1 = k1 * eps
        t2 = (K - k1) * eps
        c1 = (t2 * t2 / (2.0 * t * (t + eps)))[:, None]
        c2 = (t1 * t1 / (2.0 * t * (t + eps)))[:, None]
        up, keep = succ[1 : K + 2], succ[: K + 1]
        l1 += up
        l2 += keep
        l1[:, 1:-1] += (eps * inv_du2) * c1 * (up[:, :-2] - 2.0 * up[:, 1:-1] + up[:, 2:])
        l2[:, 1:-1] += (eps * inv_du2) * c2 * (keep[:, :-2] - 2.0 * keep[:, 1:-1] + keep[:, 2:])

    def minimum(K, l1, l2):
        cur = np.minimum(l1, l2)
        cur[:, 0] = 0.0
        cur[:, -1] = 0.0
        return cur

    slices, total, no_initial = backward_sweep(
        eps, P, grid, prior, stencil, minimum, keep_values=keep_values
    )
    value = ValueTable(epsilon=eps, grid=grid, n_packets=P, prior=prior, slices=slices)
    return PdeSolution(
        config=config, limit_risk=total, limit_risk_no_initial=no_initial, value=value
    )
