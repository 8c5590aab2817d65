"""Core types, grids, kernels and the one-step loss."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchbandit.core import (
    ConfigurationError,
    InvariantState,
    SymmetricPrior,
    UGrid,
    gaussian_kernel,
    loss_profile,
    one_step_loss,
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
        s = InvariantState(u=0.0, t1=0.5, t2=0.5)
        assert one_step_loss(prior, 1, s) == pytest.approx(0.4448596807251106, rel=1e-12)
        # at u = 0 both actions look identical
        assert one_step_loss(prior, 2, s) == pytest.approx(0.4448596807251106, rel=1e-12)

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
        got = one_step_loss(prior, ell, InvariantState(u=u, t1=t1, t2=t2))
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
        got = one_step_loss(prior, ell, InvariantState(u=u, t1=t1, t2=t2))
        want = smeared_loss_oracle(atoms, ell, u, t1, t2)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-9)

    def test_vanishing_gap_gives_vanishing_loss(self):
        prior = SymmetricPrior.two_point(1e-9)
        s = InvariantState(u=0.0, t1=0.5, t2=0.5)
        assert one_step_loss(prior, 1, s) <= 1e-8

    @settings(max_examples=60, deadline=None)
    @given(
        u=st.floats(-3.0, 3.0),
        t1=st.floats(0.01, 0.5),
        t2=st.floats(0.01, 0.5),
        d=st.floats(0.05, 4.0),
    )
    def test_action_swap_mirrors_u(self, u, t1, t2, d):
        prior = SymmetricPrior.two_point(d)
        a = one_step_loss(prior, 1, InvariantState(u=u, t1=t1, t2=t2))
        b = one_step_loss(prior, 2, InvariantState(u=-u, t1=t1, t2=t2))
        assert a == pytest.approx(b, rel=1e-13)

    def test_strictly_decreasing_in_overlap(self):
        # larger t1*t2/t means better-separated posteriors, hence lower loss
        prior = SymmetricPrior.two_point(1.3)
        u = 0.4  # (-1)^1 * u <= 0 branch
        losses = [
            one_step_loss(prior, 1, InvariantState(u=u, t1=s, t2=s))
            for s in (0.05, 0.1, 0.2, 0.3, 0.45)
        ]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_rejects_unobserved_state_and_bad_action(self):
        prior = SymmetricPrior.two_point(1.0)
        with pytest.raises(ValueError):
            one_step_loss(prior, 1, InvariantState(u=0.0, t1=0.0, t2=0.0))
        with pytest.raises(ValueError):
            one_step_loss(prior, 3, InvariantState(u=0.0, t1=0.5, t2=0.5))

    def test_profile_matches_scalar(self):
        prior = SymmetricPrior(((0.8, 0.25), (2.0, 0.75)))
        grid = UGrid(1.0, 0.25)
        row = loss_profile(prior, 2, grid.points, 0.3, 0.2)
        for i, u in enumerate(grid.points):
            s = InvariantState(u=float(u), t1=0.3, t2=0.2)
            assert row[i] == pytest.approx(one_step_loss(prior, 2, s), rel=1e-14)


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

    def test_support_bound_accepts_atom_at_c(self):
        prior = SymmetricPrior(((1.5, 1.0),), c=1.5)
        assert prior.c == 1.5


class TestStates:
    def test_invariant_state_validation(self):
        InvariantState(u=0.3, t1=0.5, t2=0.5)
        with pytest.raises(ValueError):
            InvariantState(u=0.0, t1=0.7, t2=0.4)
        with pytest.raises(ValueError):
            InvariantState(u=0.0, t1=-0.1, t2=0.4)
        with pytest.raises(ValueError):
            InvariantState(u=math.nan, t1=0.5, t2=0.5)
