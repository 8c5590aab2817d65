"""Core types, grids, kernels and the one-step loss."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from batchbandit.core import (
    EXP_CLIP,
    ConfigurationError,
    SymmetricPrior,
    UGrid,
    gaussian_kernel,
    loss_profile,
    transition_variance,
)


def smeared_loss_oracle(atoms, ell, u, t1, t2, sigma=1e-5):
    """Independent quadrature oracle for the one-step loss.

    Replaces the point mass pi/2 at +w_i by a narrow Gaussian of width sigma
    and integrates 2*w*exp((-1)^ell*2*u*w - 2*w^2*t1*t2/t) over w > 0 with a
    dense trapezoid rule.  The mirrored mass at -w_i lies outside the domain.
    """
    t = t1 + t2
    total = 0.0
    for w0, p in atoms:
        ws = np.linspace(w0 - 8.0 * sigma, w0 + 8.0 * sigma, 4001)
        dens = np.exp(-0.5 * ((ws - w0) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
        integrand = 2.0 * ws * np.exp((-1.0) ** ell * 2.0 * u * ws - 2.0 * ws * ws * t1 * t2 / t)
        total += 0.5 * p * float(np.trapezoid(integrand * dens, ws))
    return total


class TestOneStepLoss:
    def test_frozen_single_atom_value(self):
        prior = SymmetricPrior.two_point(1.6)
        want = pytest.approx(0.4448596807251106, rel=1e-12)
        assert float(loss_profile(prior, 0.0, 0.5, 0.5)) == want
        # at u = 0 both actions look identical
        assert float(loss_profile(prior, -0.0, 0.5, 0.5)) == want

    @pytest.mark.parametrize(
        "atoms,ell,u,t1,t2,expected",
        [
            ([(1.6, 1.0)], 1, 0.3, 0.1, 0.4, 0.40673379626862227),
            ([(1.6, 1.0)], 2, 0.3, 0.1, 0.4, 2.774314332405237),
            ([(0.8, 0.25), (2.0, 0.75)], 1, 0.5, 0.5, 0.5, 0.09272941725770917),
        ],
    )
    def test_frozen_values(self, atoms, ell, u, t1, t2, expected):
        prior = SymmetricPrior(tuple(atoms))
        got = float(loss_profile(prior, u if ell == 1 else -u, t1, t2))
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "atoms,ell,u,t1,t2",
        [
            ([(1.6, 1.0)], 1, 0.0, 0.5, 0.5),
            ([(1.6, 1.0)], 1, 0.3, 0.1, 0.4),
            ([(1.6, 1.0)], 2, -0.7, 0.3, 0.2),
            ([(0.8, 0.25), (2.0, 0.75)], 1, 0.5, 0.5, 0.5),
            ([(0.5, 0.5), (1.0, 0.3), (3.0, 0.2)], 2, 1.2, 0.04, 0.02),
        ],
    )
    def test_matches_quadrature_oracle(self, atoms, ell, u, t1, t2):
        prior = SymmetricPrior(tuple(atoms))
        got = float(loss_profile(prior, u if ell == 1 else -u, t1, t2))
        want = smeared_loss_oracle(atoms, ell, u, t1, t2)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-9)

    def test_vanishing_gap_gives_vanishing_loss(self):
        prior = SymmetricPrior.two_point(1e-9)
        assert float(loss_profile(prior, 0.0, 0.5, 0.5)) <= 1e-8

    @settings(max_examples=60, deadline=None)
    @given(
        u=st.floats(-3.0, 3.0),
        t1=st.floats(0.01, 0.5),
        t2=st.floats(0.01, 0.5),
        d=st.floats(0.05, 4.0),
    )
    def test_action_swap_mirrors_u(self, u, t1, t2, d):
        # arm 2's loss is arm 1's at -u: the pair sums to the closed form
        # 2 d exp(-2 d^2 tau) cosh(2 u d) of the two-point prior
        prior = SymmetricPrior.two_point(d)
        a = float(loss_profile(prior, u, t1, t2))
        b = float(loss_profile(prior, -u, t1, t2))
        want = 2.0 * d * math.exp(-2.0 * d * d * t1 * t2 / (t1 + t2)) * math.cosh(2.0 * u * d)
        assert a + b == pytest.approx(want, rel=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(
        ws=st.lists(st.floats(0.05, 4.0), min_size=1, max_size=3, unique=True),
        t1=st.floats(0.001, 0.5),
        t2=st.floats(0.001, 0.5),
        n_packets=st.integers(3, 1000),
        frac=st.floats(0.0, 1.0),
    )
    def test_arm_swap_leaves_the_loss_row_bitwise_equal(self, ws, t1, t2, n_packets, frac):
        # backward_sweep computes rows k1 <= K/2 of a diagonal and copies
        # them to rows K - k1, which needs these to be equal bit for bit
        prior = SymmetricPrior(tuple((w, 1.0 / len(ws)) for w in ws))
        u = UGrid(4.0, 0.1).points
        assert np.array_equal(loss_profile(prior, u, t1, t2), loss_profile(prior, u, t2, t1))
        eps = 1.0 / n_packets
        K = 2 + round(frac * (n_packets - 3))
        k1 = np.arange(K + 1)
        rows = loss_profile(prior, u, k1 * eps, (K - k1) * eps)
        assert np.array_equal(rows, rows[::-1])

    def test_strictly_decreasing_in_overlap(self):
        # larger t1*t2/t means better-separated posteriors, hence lower loss
        prior = SymmetricPrior.two_point(1.3)
        u = 0.4  # (-1)^1 * u <= 0 branch
        losses = [float(loss_profile(prior, u, s, s)) for s in (0.05, 0.1, 0.2, 0.3, 0.45)]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_rejects_unobserved_state(self):
        prior = SymmetricPrior.two_point(1.0)
        with pytest.raises(ValueError):
            loss_profile(prior, 0.0, 0.0, 0.0)

    def test_profile_matches_scalar(self):
        prior = SymmetricPrior(((0.8, 0.25), (2.0, 0.75)))
        grid = UGrid(1.0, 0.25)
        row = loss_profile(prior, -grid.points, 0.3, 0.2)
        for i, u in enumerate(grid.points):
            scalar = float(loss_profile(prior, -u, 0.3, 0.2))
            assert row[i] == pytest.approx(scalar, rel=1e-14)

    @settings(max_examples=80, deadline=None)
    @given(
        ws=st.lists(st.floats(0.05, 4.0), min_size=1, max_size=3, unique=True),
        masses=st.lists(st.floats(0.1, 1.0), min_size=3, max_size=3),
        ell=st.sampled_from((1, 2)),
        u=st.floats(-300.0, 300.0),
        t1=st.lists(st.floats(0.001, 0.5), min_size=1, max_size=4),
        t2=st.floats(0.001, 0.5),
        rows=st.booleans(),
    )
    @example([4.0], [1.0, 1.0, 1.0], 1, -300.0, [0.001], 0.001, False)  # 2*w*|u| > EXP_CLIP
    @example([0.5, 4.0, 2.0], [0.2, 0.3, 0.5], 2, 300.0, [0.1, 0.3], 0.2, True)
    def test_matches_the_plain_formula_bitwise(self, ws, masses, ell, u, t1, t2, rows):
        total = sum(masses[: len(ws)])
        prior = SymmetricPrior(tuple((w, m / total) for w, m in zip(ws, masses)))
        if rows:  # a block of rows over a u-row, as the sweeps call it
            args = (np.linspace(-u, u, 7), np.array(t1), np.full(len(t1), t2))
        else:
            args = (u, t1[0], t2)
        sign = -2.0 if ell == 1 else 2.0
        x, a, b = (np.asarray(v, dtype=float) for v in args)
        tau = a * b / (a + b)
        if tau.ndim:
            tau = tau[:, None]
        want = sum(
            (p * w) * np.exp(np.minimum(sign * w * x - 2.0 * w * w * tau, EXP_CLIP))
            for w, p in prior.atoms
        )
        got = loss_profile(prior, args[0] if ell == 1 else -args[0], *args[1:])
        assert got.shape == np.shape(want)
        assert np.array_equal(got, want)

    def test_scalar_inputs_give_a_0d_array(self):
        for atoms in (((1.6, 1.0),), ((0.8, 0.25), (2.0, 0.75))):
            got = loss_profile(SymmetricPrior(atoms), 0.3, 0.1, 0.4)
            assert isinstance(got, np.ndarray) and got.shape == ()


class TestGaussianKernel:
    def test_frozen_variance_formula(self):
        assert transition_variance(0.02, 0.25, 0.25, action=1) == pytest.approx(
            0.004807692307692308, rel=1e-12
        )
        # action 2 uses the t1 weight instead
        assert transition_variance(0.02, 0.1, 0.4, action=2) == pytest.approx(
            0.02 * 0.1**2 / (0.5 * 0.52), rel=1e-12
        )

    @settings(max_examples=80, deadline=None)
    @given(variance=st.floats(1e-8, 4.0), du=st.sampled_from([0.005, 0.01, 0.05, 0.2]))
    def test_normalized_symmetric_nonnegative(self, variance, du):
        grid = UGrid(4.0, du)
        k = gaussian_kernel(variance, grid)
        assert k.size % 2 == 1
        assert abs(float(k.sum()) - 1.0) <= 1e-12
        assert np.all(k >= 0.0)
        assert np.allclose(k, k[::-1], rtol=0, atol=0)

    def test_center_weight_approaches_density(self):
        grid = UGrid(0.1, 0.001)
        k = gaussian_kernel(1.0, grid)
        center = k.size // 2
        assert k[center] / grid.du == pytest.approx(0.3989422804014327, rel=1e-6)

    def test_subgrid_variance_degenerates_to_delta(self):
        grid = UGrid(4.0, 0.01)
        k = gaussian_kernel((0.4 * grid.du) ** 2, grid)
        assert k.shape == (1,)
        assert k[0] == 1.0
        k0 = gaussian_kernel(0.0, grid)
        assert k0.shape == (1,)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            gaussian_kernel(-1e-9, UGrid(4.0, 0.01))


class TestUGrid:
    def test_symmetric_contains_zero(self):
        grid = UGrid(4.0, 0.01)
        pts = grid.points
        assert pts.size == 801
        assert pts[grid.n_half] == 0.0
        assert np.allclose(pts, -pts[::-1], rtol=0, atol=0)

    def test_snaps_u_max_up_to_grid_multiple(self):
        grid = UGrid(2.3, 0.032)
        assert grid.n_half == 72
        assert grid.u_max == pytest.approx(2.304, rel=1e-12)
        assert grid.points.size == 145

    def test_nearest_index_ties_round_toward_zero(self):
        grid = UGrid(1.0, 0.1)
        c = grid.n_half
        assert grid.nearest_index(0.0) == c
        assert grid.nearest_index(0.15) == c + 1  # midpoint 0.15 -> 0.1
        assert grid.nearest_index(-0.15) == c - 1
        assert grid.nearest_index(0.151) == c + 2
        assert grid.nearest_index(5.0) == 2 * c  # clamps at the edge
        assert grid.nearest_index(-5.0) == 0
        idx = grid.nearest_index(np.array([0.0, 0.26, -0.26]))
        assert list(idx) == [c, c + 3, c - 3]

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            UGrid(1.0, 0.0)
        with pytest.raises(ValueError):
            UGrid(0.0, 0.1)

    def test_rejects_a_point_count_that_overflows(self):
        with pytest.raises(ConfigurationError, match="overflows"):
            UGrid(1e308, 1e-300)


class TestPrior:
    def test_two_point_and_mean(self):
        prior = SymmetricPrior.two_point(1.6)
        assert prior.atoms == ((1.6, 1.0),)
        assert prior.mean_w == pytest.approx(1.6)
        multi = SymmetricPrior(((0.8, 0.25), (2.0, 0.75)))
        assert multi.mean_w == pytest.approx(0.25 * 0.8 + 0.75 * 2.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SymmetricPrior(((1.0, 0.5), (2.0, 0.4)))  # weights sum to 0.9
        with pytest.raises(ConfigurationError):
            SymmetricPrior(((-1.0, 1.0),))
        with pytest.raises(ConfigurationError):
            SymmetricPrior(((1.0, 0.5), (1.0, 0.5)))  # duplicate position
        with pytest.raises(ConfigurationError):
            SymmetricPrior(((2.0, 1.0),), c=1.5)  # atom beyond support bound
        with pytest.raises(ConfigurationError):
            SymmetricPrior(())

    @pytest.mark.parametrize(
        "atoms", [((1.0, math.nan),), ((1.0, math.inf),), ((1.0, 0.5), (2.0, math.nan))]
    )
    def test_rejects_a_weight_that_is_not_finite(self, atoms):
        # abs(nan - 1) > 1e-9 is False: the sum check alone lets NaN through
        with pytest.raises(ConfigurationError, match="positive and finite"):
            SymmetricPrior(atoms)

    def test_support_bound_accepts_atom_at_c(self):
        prior = SymmetricPrior(((1.5, 1.0),), c=1.5)
        assert prior.c == 1.5

