"""End-to-end acceptance gate: headline numbers, exact identities, invariants.

One test per criterion so `pytest -v tests/test_acceptance.py` prints one
pass/fail line each; run with -s to also see the measured values.  Module
fixtures share the two expensive worst-case sweeps.
"""

import json
import time

import numpy as np
import pytest

from batchbandit.cli import main
from batchbandit.core import SymmetricPrior, UGrid, gaussian_kernel
from batchbandit.dp import DpConfig, _states, solve_invariant
from batchbandit.pde import PdeConfig, solve_pde
from batchbandit.search import refine, saddle_check, scan
from batchbandit.simulate import BatchTrialConfig, simulate_bernoulli, simulate_gaussian
from batchbandit.strategy_eval import EvalStrategy, evaluate

from dp_oracle import ORACLE_GRID, oracle_value, swept_rows

EPS = 0.02  # headline batch fraction: 50 packets


@pytest.fixture(scope="module")
def dp_worst(tmp_path_factory):
    """Criterion-1 sweep through the CLI, shared with criteria 3 and 5."""
    out = tmp_path_factory.mktemp("acceptance") / "search.json"
    t0 = time.perf_counter()
    rc = main(
        [
            "search",
            "--backend",
            "dp",
            "--epsilon",
            str(EPS),
            "--d-min",
            "0.5",
            "--d-max",
            "2.5",
            "--step",
            "0.25",
            "--out",
            str(out),
        ]
    )
    elapsed = time.perf_counter() - t0
    assert rc == 0
    summary = json.loads(out.read_text())
    summary["elapsed"] = elapsed
    return summary


@pytest.fixture(scope="module")
def pde_worst():
    """Criterion-2 sweep of the diffusion-limit risk, shared with 3 and 4."""
    t0 = time.perf_counter()
    curve = scan(0.5, 2.5, 0.25, backend="pde", epsilon=0.001)
    res = refine(curve, tolerance=0.01)
    return {"res": res, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def frozen_minimax(dp_worst):
    """Strategy table frozen at the scanned worst d, plus its eval view."""
    table = solve_invariant(
        DpConfig(EPS, SymmetricPrior.two_point(dp_worst["d_star"]))
    ).strategy
    return EvalStrategy.from_table(table), table


def test_c01_worst_case_risk_at_fifty_packets(dp_worst):
    assert dp_worst["risk_star"] == pytest.approx(0.65, abs=0.02)
    assert dp_worst["d_star"] == pytest.approx(1.6, abs=0.1)
    assert not dp_worst["boundary"]
    assert dp_worst["elapsed"] < 120.0
    print(
        f"criterion 1 PASS: eps={EPS} max risk {dp_worst['risk_star']:.6f} "
        f"at d={dp_worst['d_star']:.4f} ({dp_worst['elapsed']:.1f}s)"
    )


def test_c02_limiting_risk_from_diffusion_scheme(pde_worst):
    res = pde_worst["res"]
    assert res.risk_star == pytest.approx(0.637, abs=0.01)
    assert res.d_star == pytest.approx(1.57, abs=0.1)
    assert not res.boundary
    assert pde_worst["elapsed"] < 600.0
    print(
        f"criterion 2 PASS: limit max risk {res.risk_star:.6f} "
        f"at d={res.d_star:.4f} ({pde_worst['elapsed']:.1f}s)"
    )


def test_c03_fifty_packet_penalty_over_the_limit(dp_worst, pde_worst):
    ratio = dp_worst["risk_star"] / pde_worst["res"].risk_star
    assert ratio == pytest.approx(1.02, abs=0.01)
    print(f"criterion 3 PASS: batching penalty ratio {ratio:.4f}")


def test_c04_limiting_risk_inside_known_envelope(pde_worst):
    risk = pde_worst["res"].risk_star
    assert 0.612 <= risk <= 0.752
    print(f"criterion 4 PASS: {risk:.6f} within [0.612, 0.752]")


def test_c05_frozen_strategy_saddle_property(dp_worst):
    report = saddle_check(dp_worst["d_star"], EPS)
    assert report.passed
    assert report.max_within_cutoff <= 0.65 + 0.01
    # the frozen strategy's loss at d_star is the solver's Bayes risk, exactly
    at_star = next(r for r in report.rows if r.d == report.d_star)
    assert at_star.loss == report.risk_star
    far = next(r for r in report.rows if r.d == 20.0)
    assert far.loss > 0.66
    print(
        f"criterion 5 PASS: loss <= {report.max_within_cutoff:.6f} up to d=16, "
        f"loss(d*) = risk* = {at_star.loss:.6f}, loss(20)={far.loss:.4f}"
    )


def test_c06_initial_stage_identity_is_exact():
    rng = np.random.default_rng(20260814)
    eps_pool = [0.5, 0.25, 0.2, 0.125, 0.1, 0.05, 0.04, 0.025]
    grid = UGrid(2.5, 0.05)
    worst = 0.0
    for _ in range(20):
        eps = float(rng.choice(eps_pool))
        d = float(10.0 ** rng.uniform(-1.0, 1.0))
        out = solve_invariant(DpConfig(eps, SymmetricPrior.two_point(d), grid))
        gap = abs((out.bayes_risk - out.bayes_risk_no_initial) - 2.0 * eps * d)
        assert gap <= 1e-12
        worst = max(worst, gap)
    print(f"criterion 6 PASS: 20 random configs, worst deviation {worst:.2e}")


def test_c07_solver_matches_quadrature_oracle_everywhere():
    worst = 0.0
    for n_packets in (2, 3, 4):
        eps = 1.0 / n_packets
        for atoms in (((1.1, 1.0),), ((0.7, 0.4), (1.8, 0.6))):
            _, rows = swept_rows(
                solve_invariant, DpConfig(eps, SymmetricPrior(atoms), ORACLE_GRID)
            )
            for (k1, k2), row in rows.items():
                want = oracle_value(
                    atoms, eps, ORACLE_GRID.u_max, n_packets, k1, k2, ORACLE_GRID.points
                )
                np.testing.assert_allclose(row, want, rtol=0, atol=1e-4)
                worst = max(worst, float(np.max(np.abs(row - want))))
    print(f"criterion 7 PASS: every state within 1e-4 (worst {worst:.2e})")


def test_c08_always_first_arm_loses_the_gap():
    grid = UGrid()
    arm1 = np.full((len(list(_states(round(1.0 / EPS)))), grid.n_points), True)
    always1 = EvalStrategy(epsilon=EPS, grid=grid, arm1=arm1)
    for d in (0.5, 1.0, 2.0):
        loss = evaluate(always1, SymmetricPrior.two_point(d)).total_loss
        assert loss == pytest.approx(d, abs=0.01)
    print("criterion 8 PASS: constant arm-1 loss equals d within 0.01")


def test_c09_monte_carlo_reproduces_eval_losses(frozen_minimax):
    view, table = frozen_minimax
    t0 = time.perf_counter()
    pulls = []
    for d, seed in ((0.8, 101), (1.6, 102), (3.0, 103), (8.0, 104)):
        expected = evaluate(view, SymmetricPrior.two_point(d)).total_loss
        cfg = BatchTrialConfig(
            n_items=5000, batch_size=100, p=0.5, d=d, replications=100_000, seed=seed
        )
        res = simulate_bernoulli(cfg, table)
        gap = abs(res.normalized_loss_mean - expected)
        assert gap <= 3.0 * res.standard_error
        pulls.append(gap / res.standard_error)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(
        "criterion 9 PASS: |sim - eval| in standard errors: "
        + ", ".join(f"{z:.2f}" for z in pulls)
        + f" ({elapsed:.1f}s)"
    )


def test_c10_structural_property_suite(frozen_minimax):
    prior = SymmetricPrior(((0.7, 0.4), (1.8, 0.6)))

    # arm-swap symmetry, nonnegativity and terminal zeros of the dp surface
    cfg = DpConfig(0.125, prior, UGrid(2.0, 0.05))
    _, rows = swept_rows(solve_invariant, cfg)
    for (k1, k2), row in rows.items():
        np.testing.assert_allclose(
            row, rows[(k2, k1)][::-1], rtol=0, atol=1e-9
        )
        assert np.all(row >= 0.0)
    P = cfg.n_packets
    for k1 in range(P + 1):
        assert np.all(rows[(k1, P - k1)] == 0.0)

    # the same three for the diffusion scheme
    pcfg = PdeConfig(0.01, prior, UGrid(2.0, 0.1001))
    _, prows = swept_rows(solve_pde, pcfg)
    for (k1, k2), row in prows.items():
        np.testing.assert_allclose(
            row, prows[(k2, k1)][::-1], rtol=0, atol=1e-9
        )
        assert np.all(row >= 0.0)
    Pp = round(1.0 / pcfg.epsilon)
    for k1 in range(Pp + 1):
        assert np.all(prows[(k1, Pp - k1)] == 0.0)

    # coarser batching can only hurt
    risks = [
        solve_invariant(
            DpConfig(e, SymmetricPrior.two_point(1.6), UGrid(3.0, 0.02))
        ).bayes_risk
        for e in (0.01, 0.02, 0.04)
    ]
    assert risks[0] < risks[1] < risks[2]

    # transition kernels are normalized densities
    grid = UGrid()
    for var in (1e-8, 1e-4, 0.01, 0.25, 1.0):
        k = gaussian_kernel(var, grid)
        assert k.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(k >= 0.0)

    # a fixed seed reproduces the simulation bit for bit
    _, table = frozen_minimax
    a = simulate_gaussian(50, 1.6, table, 2000, 7)
    b = simulate_gaussian(50, 1.6, table, 2000, 7)
    c = simulate_gaussian(50, 1.6, table, 2000, 8)
    assert a.normalized_loss_mean == b.normalized_loss_mean
    assert a.standard_error == b.standard_error
    assert c.normalized_loss_mean != a.normalized_loss_mean

    print("criterion 10 PASS: symmetry, monotonicity, kernels, terminals, seeds")
