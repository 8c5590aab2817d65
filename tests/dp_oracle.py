"""Brute-force backward-quadrature oracle for the batched value recursion.

No code shared with the solver: the one-step loss, the transition variance
and the quadrature are written out directly.  It mirrors the solver's
documented Dirichlet-0 truncation at +-u_max (reads outside the grid are
zero), but integrates successors by a dense trapezoid rule over +-8 sigma
instead of discrete kernel weights.  Practical for horizons of up to
4 batches (one quadrature level).

swept_rows reads the value rows a solver computes, for the tests that
compare them against this oracle or against each other.
"""

import math
import sys

import numpy as np

from batchbandit.core import UGrid, packet_count


def oracle_g(atoms, ell, u, t1, t2):
    t = t1 + t2
    out = np.zeros_like(np.asarray(u, dtype=float))
    for w, p in atoms:
        out = out + p * w * np.exp((-1.0) ** ell * 2.0 * u * w - 2.0 * w * w * t1 * t2 / t)
    return out


def oracle_value(atoms, eps, u_max, n_packets, k1, k2, u):
    u = np.asarray(u, dtype=float)
    K = k1 + k2
    if K >= n_packets:
        return np.zeros_like(u)
    inside = np.abs(u) <= u_max + 1e-12
    t1, t2, t = k1 * eps, k2 * eps, K * eps
    if K == n_packets - 1:
        # terminal successors contribute nothing
        r = eps * np.minimum(oracle_g(atoms, 1, u, t1, t2), oracle_g(atoms, 2, u, t1, t2))
        return np.where(inside, r, 0.0)
    best = None
    for ell, succ in ((1, (k1 + 1, k2)), (2, (k1, k2 + 1))):
        other = t2 if ell == 1 else t1
        var = eps * other * other / (t * (t + eps))
        if var == 0.0:
            cont = oracle_value(atoms, eps, u_max, n_packets, *succ, u)
        else:
            sd = math.sqrt(var)
            xs = np.linspace(-8.0 * sd, 8.0 * sd, 4001)
            dens = np.exp(-0.5 * (xs / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
            shifted = (u[:, None] - xs[None, :]).ravel()
            succ_vals = oracle_value(atoms, eps, u_max, n_packets, *succ, shifted)
            cont = np.trapezoid(succ_vals.reshape(u.size, xs.size) * dens[None, :], xs, axis=1)
        cand = eps * oracle_g(atoms, ell, u, t1, t2) + cont
        best = cand if best is None else np.minimum(best, cand)
    return np.where(inside, best, 0.0)


# horizons of 2-4 batches keep the oracle to at most one quadrature level;
# the default grid keeps the solver's kink and truncation errors well under
# the 1e-4 gate (coarser grids inflate the O(du^2) kink error at u = 0)
ORACLE_GRID = UGrid(4.0, 0.01)


def swept_rows(solve, config, **kwargs):
    """Run solve(config, **kwargs), solve_invariant or solve_pde, recording
    the value rows its backward sweep computes; returns (out, rows), rows mapping
    (k1, k2) to the row over the u-grid for every diagonal 2 .. n_packets.

    For this one call the solver module's backward_sweep is wrapped so that
    each row its step returns is copied as the step made it (a step may
    reuse its buffers two diagonals later); a row k1 the step leaves out is
    row K - k1 reversed, the arm-swap mirror the sweep's step contract
    states.  The terminal diagonal is the one the first step reads;
    with two packets no step runs and the rows are the zero terminal
    diagonal the sweep starts from.
    """
    module = sys.modules[solve.__module__]
    sweep = module.backward_sweep
    P = packet_count(config.epsilon)
    rows = {}

    def record(K, cur):
        for k1 in range(K + 1):
            rows[(k1, K - k1)] = (cur[k1] if k1 < len(cur) else cur[K - k1, ::-1]).copy()

    def recording_sweep(epsilon, grid, prior, step):
        def recording_step(K, succ):
            if K == P - 1:
                record(P, succ)
            cur = step(K, succ)
            record(K, cur)
            return cur

        return sweep(epsilon, grid, prior, recording_step)

    module.backward_sweep = recording_sweep
    try:
        out = solve(config, **kwargs)
    finally:
        module.backward_sweep = sweep
    if P == 2:
        record(2, np.zeros((3, config.grid.n_points)))
    return out, rows
