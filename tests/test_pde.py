"""Explicit scheme for the diffusion limit."""

import math

import numpy as np
import pytest

from batchbandit import core, dp
from batchbandit.core import ConfigurationError, SymmetricPrior, UGrid, loss_profile
from batchbandit.dp import DpConfig, solve_invariant
from batchbandit.pde import PdeConfig, solve_pde
from dp_oracle import swept_rows


TWO_ATOM = SymmetricPrior(((0.7, 0.4), (1.8, 0.6)))


def full_lattice_march(atoms, eps, du, u_max):
    """The explicit scheme written out over all K + 1 rows of every
    diagonal, sharing no code with the solver; returns {(k1, k2): row} for
    the diagonals 2 .. n_packets.  The loss is computed per cell, unfactored,
    its exponent capped where the losing branch would overflow, at
    min(700, 709 - log(n_atoms*p) - log(w)) per atom."""
    P = round(1.0 / eps)
    n = round(u_max / du)
    u = du * np.arange(-n, n + 1)

    def g(sign, t1, t2):
        tau = t1 * t2 / (t1 + t2)
        caps = [min(700.0, 709.0 - math.log(len(atoms) * p) - math.log(w)) for w, p in atoms]
        return sum(p * w * np.exp(np.minimum(sign * 2.0 * w * u - 2.0 * w * w * tau, cap))
                   for (w, p), cap in zip(atoms, caps))

    rows = {(k1, P - k1): np.zeros(u.size) for k1 in range(P + 1)}
    for K in range(P - 1, 1, -1):
        t = K * eps
        for k1 in range(K + 1):
            k2 = K - k1
            best = None
            for sign, succ, other in ((-1.0, (k1 + 1, k2), k2 * eps), (1.0, (k1, k2 + 1), k1 * eps)):
                r = rows[succ]
                a = eps * other * other / (2.0 * t * (t + eps)) / (du * du)
                cand = eps * g(sign, k1 * eps, k2 * eps) + r
                cand[1:-1] += a * (r[:-2] - 2.0 * r[1:-1] + r[2:])
                best = cand if best is None else np.minimum(best, cand)
            best[0] = best[-1] = 0.0  # Dirichlet 0 at +-u_max
            rows[(k1, k2)] = best
    return rows


@pytest.mark.parametrize(
    "prior,eps,du,u_max",
    [
        (TWO_ATOM, 0.05, 0.25, 2.0),  # diagonals K = 2 .. 19, odd and even
        (SymmetricPrior.two_point(1.6), 0.1, 0.32, 2.24),
        (TWO_ATOM, 0.25, 0.5, 2.0),  # K = 3 and 2
        # large gaps: the loss rows span hundreds of orders of magnitude, and
        # past 2*w*u of 700 the losing branch's exponent is capped
        (SymmetricPrior.two_point(60.0), 0.05, 0.25, 2.0),
        (SymmetricPrior.two_point(1e150), 0.1, 0.32, 2.24),
        (SymmetricPrior(((0.7, 0.4), (250.0, 0.6))), 0.05, 0.25, 2.0),
    ],
)
def test_half_lattice_matches_the_full_lattice_march(prior, eps, du, u_max):
    # every row within 1e-13 relative to max(1, |value|) of the march's
    _, rows = swept_rows(solve_pde, PdeConfig(eps, prior, UGrid(u_max, du)))
    want = full_lattice_march(prior.atoms, eps, du, u_max)
    assert sorted(rows) == sorted(want)
    for state, row in want.items():
        assert np.all(np.abs(rows[state] - row) <= 1e-13 * np.maximum(1.0, np.abs(row))), state
    for (k1, k2), row in rows.items():
        if k1 != k2:
            assert np.array_equal(row, rows[(k2, k1)][::-1]), (k1, k2)


def test_the_march_calls_no_loss_profile(monkeypatch):
    # the scheme builds its loss rows from a factor in u and one in tau; a
    # change that brings the per-cell loss profile back into the march fails here
    def spy(*args, **kwargs):
        raise AssertionError("loss_profile called")

    monkeypatch.setattr(core, "loss_profile", spy)
    monkeypatch.setattr(dp, "loss_profile", spy)
    with pytest.raises(AssertionError, match="loss_profile called"):  # the spy is on the dp's path
        solve_invariant(DpConfig(0.25, TWO_ATOM, UGrid(2.0, 0.5)))  # a table-keeping solve
    sol = solve_pde(PdeConfig(0.05, TWO_ATOM, UGrid(2.0, 0.25)))
    assert sol.limit_risk > 0.0


def test_rejects_unstable_step_pairing():
    prior = SymmetricPrior.two_point(1.57)
    # du^2 = 0.000529 < eps: the monotone explicit step breaks down
    with pytest.raises(ConfigurationError):
        PdeConfig(0.001, prior, UGrid(2.3, 0.023))
    PdeConfig(0.001, prior, UGrid(2.3, 0.032))


def test_rejects_bad_epsilon():
    prior = SymmetricPrior.two_point(1.0)
    with pytest.raises(ConfigurationError):
        PdeConfig(0.3, prior, UGrid(2.3, 0.6))
    with pytest.raises(ConfigurationError):
        PdeConfig(0.0, prior)
    with pytest.raises(ConfigurationError):
        PdeConfig(0.6, prior, UGrid(2.3, 0.8))


def test_degenerate_two_packet_horizon_is_closed_form():
    sol = solve_pde(PdeConfig(0.5, SymmetricPrior.two_point(1.3), UGrid(2.25, 0.75)))
    assert sol.limit_risk == pytest.approx(1.3, abs=1e-15)
    assert sol.limit_risk_no_initial == 0.0


def test_penultimate_diagonal_is_one_step_loss():
    eps, du = 0.25, 0.5
    prior = SymmetricPrior.two_point(1.1)
    grid = UGrid(2.0, du)
    _, rows = swept_rows(solve_pde, PdeConfig(eps, prior, grid))
    u = grid.points
    for k1, k2 in ((1, 2), (2, 1), (0, 3), (3, 0)):
        want = eps * np.minimum(
            loss_profile(prior, u, k1 * eps, k2 * eps),
            loss_profile(prior, -u, k1 * eps, k2 * eps),
        )
        want[0] = want[-1] = 0.0
        np.testing.assert_allclose(rows[(k1, k2)], want, atol=1e-14)


def test_matches_exact_solver_as_eps_shrinks():
    prior = SymmetricPrior.two_point(1.6)
    diffs = {}
    for eps, du in ((0.01, 0.1), (0.002, 0.0448)):
        dp = solve_invariant(DpConfig(eps, prior), keep_strategy=False).bayes_risk
        pde = solve_pde(PdeConfig(eps, prior, UGrid(2.3, du))).limit_risk
        diffs[eps] = abs(dp - pde)
    assert diffs[0.01] < 2e-3
    assert diffs[0.002] < 1e-3
    assert diffs[0.002] < diffs[0.01]


def test_limit_value_slice_is_symmetric():
    prior = SymmetricPrior(((0.8, 0.3), (1.9, 0.7)))
    _, rows = swept_rows(solve_pde, PdeConfig(0.004, prior, UGrid(2.3, 0.0633)))
    row = rows[(1, 1)]
    np.testing.assert_allclose(row, row[::-1], atol=1e-12)


def test_limit_risk_near_its_published_level():
    # the well-resolved value at the worst-case gap is about 0.637; a
    # moderate eps lands close to it
    sol = solve_pde(PdeConfig(0.004, SymmetricPrior.two_point(1.57), UGrid(2.3, 0.0633)))
    assert 0.632 < sol.limit_risk < 0.648


def test_risk_decomposition_and_bounds():
    prior = SymmetricPrior(((0.6, 0.4), (2.1, 0.6)))
    sol = solve_pde(PdeConfig(0.004, prior, UGrid(2.3, 0.0633)))
    want = 2.0 * 0.004 * prior.mean_w
    assert sol.limit_risk - sol.limit_risk_no_initial == pytest.approx(want, abs=1e-15)
    assert 0.0 <= sol.limit_risk
    for d in (0.3, 1.57, 5.0):
        s = solve_pde(PdeConfig(0.01, SymmetricPrior.two_point(d), UGrid(2.3, 0.1001)))
        assert 0.0 <= s.limit_risk <= d + 0.01
