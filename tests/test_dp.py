"""Backward-recursion solver against an independent oracle and closed forms."""

import tracemalloc

import numpy as np
import pytest

from batchbandit import dp
from batchbandit.core import ConfigurationError, SymmetricPrior, UGrid
from batchbandit.dp import DpConfig, diagonal_kernels, solve_invariant

# The brute-force backward-quadrature oracle lives in dp_oracle.py so the
# acceptance suite can run the same comparison.
from dp_oracle import ORACLE_GRID, oracle_value, swept_rows


@pytest.mark.parametrize("n_packets", [2, 3, 4])
@pytest.mark.parametrize("atoms", [((1.1, 1.0),), ((0.7, 0.4), (1.8, 0.6))])
def test_solver_matches_oracle_at_every_state(n_packets, atoms):
    eps = 1.0 / n_packets
    grid = ORACLE_GRID
    prior = SymmetricPrior(atoms)
    _, rows = swept_rows(solve_invariant, DpConfig(eps, prior, grid))
    for (k1, k2), row in rows.items():
        want = oracle_value(atoms, eps, grid.u_max, n_packets, k1, k2, grid.points)
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-4)


def test_oracle_agreement_is_well_under_tolerance():
    # the 1e-4 bound in the acceptance gate is loose on purpose
    grid = ORACLE_GRID
    prior = SymmetricPrior.two_point(1.1)
    _, rows = swept_rows(solve_invariant, DpConfig(0.25, prior, grid))
    row = rows[(1, 1)]
    want = oracle_value(((1.1, 1.0),), 0.25, grid.u_max, 4, 1, 1, grid.points)
    np.testing.assert_allclose(row, want, rtol=0, atol=2e-5)


# ---------------------------------------------------------------------------
# Closed forms and structure.
# ---------------------------------------------------------------------------


def test_pure_initial_stage_closed_form():
    # 1/eps = 2: both batches are forced, the risk is the initial term alone
    out, rows = swept_rows(
        solve_invariant, DpConfig(0.5, SymmetricPrior.two_point(1.0), UGrid(2.0, 0.05))
    )
    assert out.bayes_risk == pytest.approx(1.0, abs=1e-12)
    assert out.bayes_risk_no_initial == 0.0
    assert np.all(rows[(1, 1)] == 0.0)


def test_vanishing_gap_risk_vanishes():
    out = solve_invariant(DpConfig(0.25, SymmetricPrior.two_point(1e-9), UGrid(2.0, 0.05)))
    assert 0.0 <= out.bayes_risk <= 1e-6


def test_initial_stage_decomposition_is_exact():
    prior = SymmetricPrior.two_point(1.6)
    out = solve_invariant(DpConfig(0.1, prior, UGrid(3.0, 0.02)))
    assert out.bayes_risk - out.bayes_risk_no_initial == pytest.approx(
        2.0 * 0.1 * 1.6, abs=1e-15
    )


def test_worst_point_risk_matches_published_value():
    out = solve_invariant(DpConfig(0.02, SymmetricPrior.two_point(1.6)), keep_strategy=False)
    assert out.bayes_risk == pytest.approx(0.65, abs=0.02)


def test_risk_monotone_in_batch_fraction():
    risks = {
        eps: solve_invariant(
            DpConfig(eps, SymmetricPrior.two_point(1.6)), keep_strategy=False
        ).bayes_risk
        for eps in (0.04, 0.02, 0.01)
    }
    assert risks[0.04] > risks[0.02] > risks[0.01]
    assert risks[0.04] - risks[0.02] > 1e-4
    assert risks[0.02] - risks[0.01] > 1e-4


def test_terminal_zeros_nonnegativity_and_finiteness():
    cfg = DpConfig(0.1, SymmetricPrior.two_point(1.6), UGrid(3.0, 0.02))
    _, rows = swept_rows(solve_invariant, cfg)
    P = cfg.n_packets
    seen_terminal = 0
    for (k1, k2), row in rows.items():
        assert np.all(np.isfinite(row))
        assert np.all(row >= 0.0)
        if k1 + k2 == P:
            assert np.all(row == 0.0)
            seen_terminal += 1
    assert seen_terminal == P + 1


def test_arm_swap_symmetry_of_values():
    _, rows = swept_rows(
        solve_invariant,
        DpConfig(0.125, SymmetricPrior(((0.8, 0.3), (1.6, 0.7))), UGrid(3.0, 0.02)),
    )
    for (k1, k2), row in rows.items():
        mirrored = rows[(k2, k1)]
        np.testing.assert_allclose(row, mirrored[::-1], rtol=0, atol=1e-9)


@pytest.mark.parametrize(
    "eps, prior",
    [(1.0 / P, SymmetricPrior.two_point(1.6)) for P in (2, 3, 4, 5, 10, 50)]
    + [(0.1, SymmetricPrior(((0.7, 0.4), (1.8, 0.6)))), (0.02, SymmetricPrior.two_point(8.0))],
    ids=["P2", "P3", "P4", "P5", "P10", "P50", "P10-two-atom", "P50-gap8"],
)
def test_value_only_sweep_rows_match_the_table_keeping_sweep(eps, prior):
    # the value-only sweep steps the rows k1 <= K/2 and mirrors the rest; the
    # table-keeping sweep steps every row, so the two agree to rounding
    cfg = DpConfig(eps, prior)
    full, want = swept_rows(solve_invariant, cfg)
    half, got = swept_rows(solve_invariant, cfg, keep_strategy=False)
    assert half.strategy is None and got.keys() == want.keys()
    for state, row in want.items():
        assert np.all(np.abs(got[state] - row) <= 1e-14 * np.maximum(1.0, np.abs(row))), state
    assert abs(half.bayes_risk - full.bayes_risk) <= 1e-15
    assert abs(half.bayes_risk_no_initial - full.bayes_risk_no_initial) <= 1e-15


@pytest.mark.parametrize("keep_strategy, calls", [(False, 0), (True, 2544)])
def test_convolutions_per_sweep(monkeypatch, keep_strategy, calls):
    # two per row of each interior diagonal K = 2 .. 49 with a table; without
    # one the sweep convolves by its batched transforms and makes no call
    rows = [K + 1 for K in range(2, 50)] if keep_strategy else []
    assert 2 * sum(rows) == calls
    counted = []
    real = dp.convolve_zero_padded
    monkeypatch.setattr(dp, "convolve_zero_padded", lambda *a: counted.append(1) or real(*a))
    cfg = DpConfig(0.02, SymmetricPrior.two_point(1.6), UGrid(2.0, 0.05))
    solve_invariant(cfg, keep_strategy=keep_strategy)
    assert len(counted) == calls


def test_tie_break_and_sign_convention():
    # 3 batches: the two penultimate slices coincide row-for-row, so the
    # value comparison at (1, 1, u=0) is an exact tie and must resolve to 1
    grid = UGrid(2.0, 0.05)
    out = solve_invariant(DpConfig(1.0 / 3.0, SymmetricPrior.two_point(1.2), grid))
    st = out.strategy.diagonal(2)[1]  # state (1, 1)
    center = grid.n_half
    assert st[center]
    # large positive u favors arm 1, large negative favors arm 2
    assert st[-1]
    assert not st[0]
    assert st[grid.nearest_index(1.9)]
    assert not st[grid.nearest_index(-1.9)]


def test_strategy_symmetry_modulo_exact_ties():
    cfg = DpConfig(0.125, SymmetricPrior.two_point(1.3), UGrid(3.0, 0.02))
    out, rows = swept_rows(solve_invariant, cfg)
    P = cfg.n_packets
    for (k1, k2) in rows:
        if not (2 <= k1 + k2 <= P - 1):
            continue
        a = out.strategy.diagonal(k1 + k2)[k1]
        b = out.strategy.diagonal(k1 + k2)[k2][::-1]
        disagree = a != ~b  # the mirrored state plays the other arm
        if np.any(disagree):
            # disagreements are only allowed at exact value ties
            row = rows[(k1, k2)]
            mirrored = rows[(k2, k1)][::-1]
            assert np.allclose(row[disagree], mirrored[disagree], atol=1e-12)


def test_config_validation():
    prior = SymmetricPrior.two_point(1.0)
    with pytest.raises(ConfigurationError):
        DpConfig(0.3, prior)  # 1/eps not an integer
    with pytest.raises(ConfigurationError):
        DpConfig(0.6, prior)  # fewer than 2 batches
    with pytest.raises(ConfigurationError):
        DpConfig(0.0, prior)
    with pytest.raises(ConfigurationError):
        DpConfig(0.25, prior, UGrid(4.0, 2.0))  # grid cannot resolve any kernel
    # the widest kernel, at K = 3, has 3 sigma = 3*sqrt(0.1875) ~ 1.299
    DpConfig(0.25, prior, UGrid(4.0, 1.29))
    with pytest.raises(ConfigurationError, match="cannot resolve any kernel"):
        DpConfig(0.25, prior, UGrid(4.0, 1.31))


@pytest.mark.parametrize("eps, states", [(0.1, 52), (0.25, 7), (0.5, 0)])
def test_diagonal_views_cover_the_table_once_in_state_order(eps, states):
    grid = UGrid(2.0, 0.5)
    table = dp.StrategyTable(eps, grid, np.zeros((states, grid.n_points), dtype=bool))
    P, base, row_bytes = table.n_packets, table.arm1.ctypes.data, table.arm1.strides[0]
    rows, order = [], []
    for K in range(2, P):
        view = table.diagonal(K)
        assert view.shape == (K + 1, grid.n_points) and view.base is table.arm1
        rows += [(view[k1].ctypes.data - base) // row_bytes for k1 in range(K + 1)]
        order += [(k1, K - k1) for k1 in range(K + 1)]
    assert rows == list(range(states))
    assert order == list(dp._states(P))


def test_action_table_memory_check_asks_for_the_bytes_it_builds(monkeypatch):
    asked = {}
    monkeypatch.setattr(dp, "_check_memory", lambda need, what: asked.setdefault(what, need))
    out = solve_invariant(DpConfig(0.1, SymmetricPrior.two_point(1.6), UGrid(2.0, 0.05)))
    assert asked["the action table"] == out.strategy.arm1.nbytes == 52 * 81


# ---------------------------------------------------------------------------
# Transition kernels shared by the sweeps on one lattice.
# ---------------------------------------------------------------------------


def _retained_bytes(*configs) -> list[int]:
    """Traced bytes still allocated after each of the configs' solves, in order."""
    retained = []
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for cfg in configs:
            solve_invariant(cfg, keep_strategy=False)
            retained.append(tracemalloc.get_traced_memory()[0] - before)
    finally:
        tracemalloc.stop()
    return retained


def _fresh_spectra(epsilon, grid, K, N) -> np.ndarray:
    """Diagonal K's kernels, each centred at index 0 of a zero row of
    length N and wrapped, transformed together: their real spectra."""
    kernels = diagonal_kernels(epsilon, grid, K)
    taps = np.zeros((K + 1, N))
    for j, kernel in enumerate(kernels):
        half = kernel.size // 2
        taps[j, np.arange(-half, half + 1) % N] = kernel
    return np.fft.rfft(taps).real


def test_kernels_kept_from_the_second_sweep_on_are_the_fresh_ones():
    grid = UGrid(3.0, 0.02)
    cfgs = [DpConfig(0.1, SymmetricPrior.two_point(d), grid) for d in (1.2, 1.6, 2.0)]
    other = DpConfig(0.25, SymmetricPrior.two_point(1.0), grid)
    fresh_risks = []
    for cfg in cfgs:  # each solve the first on its lattice: nothing kept
        solve_invariant(other, keep_strategy=False)
        fresh_risks.append(solve_invariant(cfg, keep_strategy=False).bayes_risk)
        assert dp._KERNELS.spectra is None
    # the second solve keeps its kernels' spectra, the third runs on them
    assert [solve_invariant(c, keep_strategy=False).bayes_risk for c in cfgs] == fresh_risks
    N = dp._fft_length(grid.n_points, diagonal_kernels(0.1, grid, 9)[-1].size // 2)
    assert dp._KERNELS.N == N
    assert dp._KERNELS.spectra.shape == (dp._first_row(10), N // 2 + 1)
    for K in range(2, 10):
        assert dp._KERNELS.rows(K).tobytes() == _fresh_spectra(0.1, grid, K, N).tobytes()


def test_one_sweep_on_a_new_lattice_retains_nothing():
    prior = SymmetricPrior.two_point(1.6)
    grid, other = UGrid(3.0, 0.015), UGrid(2.0, 0.05)
    grid.points, other.points  # cached before tracing
    solve_invariant(DpConfig(0.25, prior, other))
    (retained,) = _retained_bytes(DpConfig(0.02, prior, grid))
    assert retained < 100_000


def test_a_lattice_swept_once_releases_the_kernels_kept_before_it():
    # the crosscheck pattern: eps = 0.02 solves keep their lattice's kernel
    # spectra (4.59 MB: 1,272 kernels of 451 coefficients), the one fine
    # Richardson solve keeps none and frees them
    prior = SymmetricPrior.two_point(1.6)
    grid = UGrid()
    grid.points
    coarse, fine = DpConfig(0.02, prior, grid), DpConfig(0.005, prior, grid)
    solve_invariant(DpConfig(0.25, prior, grid), keep_strategy=False)  # another lattice
    first, second, third, after_fine = _retained_bytes(coarse, coarse, coarse, fine)
    assert first < 100_000 and second > 4_500_000
    assert abs(third - second) < 100_000  # the third sweep reuses them
    assert after_fine < 100_000


# ---------------------------------------------------------------------------
# The value-only sweep's batched transforms.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "cfg, bound",
    [
        (DpConfig(0.25, SymmetricPrior.two_point(1.6), UGrid(2.0, 0.5)), 1e-15),
        (DpConfig(0.02, SymmetricPrior(((0.7, 0.4), (1.8, 0.6)))), 1e-15),
        (DpConfig(0.02, SymmetricPrior.two_point(60.0)), 1e-15),
        (DpConfig(0.02, SymmetricPrior.two_point(2e4)), 1e-15),
        (DpConfig(0.02, SymmetricPrior.two_point(9.4e153)), 1e-15),
        # four times the diagonals, each adding its transforms' rounding (5.6e-15)
        (DpConfig(0.01, SymmetricPrior.two_point(1.6)), 1e-13),
    ],
    ids=["kernel-longer-than-row", "two-atom", "gap60", "gap2e4", "gap9.4e153", "eps0.01"],
)
def test_value_sweep_risks_match_the_table_keeping_sweep(cfg, bound):
    if cfg.grid.n_points == 9:  # the widest kernel, at K = 3, has 13 points
        assert diagonal_kernels(cfg.epsilon, cfg.grid, 3)[-1].size > cfg.grid.n_points
    full = solve_invariant(cfg)
    half = solve_invariant(cfg, keep_strategy=False)
    scale = max(1.0, abs(full.bayes_risk))
    assert abs(half.bayes_risk - full.bayes_risk) <= bound * scale
    assert abs(half.bayes_risk_no_initial - full.bayes_risk_no_initial) <= bound * scale


def test_fft_length_wraps_nothing_into_a_row():
    # the widest kernel of eps = 0.02 on the default grid spans 84 points a side
    assert diagonal_kernels(0.02, UGrid(), 49)[-1].size == 2 * 84 + 1
    assert dp._fft_length(801, 84) == 900  # 5-smooth, >= 801 + 84
    assert dp._fft_length(9, 6) == 15  # >= 2*6 + 1 > 9 + 6
    assert dp._fft_length(9, 0) == 9


def test_first_and_later_value_sweeps_give_bitwise_equal_risks():
    # the first sweep on a lattice builds its kernels per diagonal, the
    # second keeps them and the third reads them; a decision sweep between
    # leaves them as they are
    prior = SymmetricPrior.two_point(1.6)
    cfg = DpConfig(0.05, prior, UGrid(3.0, 0.02))
    solve_invariant(DpConfig(0.25, prior, cfg.grid), keep_strategy=False)  # another lattice
    risks = [solve_invariant(cfg, keep_strategy=False) for _ in range(3)]
    solve_invariant(cfg)
    risks.append(solve_invariant(cfg, keep_strategy=False))
    assert len({(r.bayes_risk, r.bayes_risk_no_initial) for r in risks}) == 1


def test_a_value_only_solve_at_eps_0_005_peaks_under_4_mib():
    # the sweep's rows (about 2.6 MB on the default grid) and the transforms'
    # work arrays, sized for 16 rows: for a whole diagonal, 101 rows, they
    # would take 5.5 MB
    prior, grid = SymmetricPrior.two_point(1.6), UGrid()
    grid.points
    solve_invariant(DpConfig(0.25, prior, grid), keep_strategy=False)  # another lattice
    tracemalloc.start()
    try:
        solve_invariant(DpConfig(0.005, prior, grid), keep_strategy=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_value_and_decision_sweeps_on_one_lattice_keep_only_its_kernels():
    # the transforms' work arrays live for one sweep: what a lattice's
    # sweeps leave behind is its kernels' spectra, which a decision sweep
    # neither adds to nor moves
    prior, grid = SymmetricPrior.two_point(1.6), UGrid(3.0, 0.02)
    grid.points
    cfg = DpConfig(0.1, prior, grid)
    solve_invariant(DpConfig(0.25, prior, grid), keep_strategy=False)  # another lattice
    retained, stores = [], []
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for keep_strategy in (False, False, True):  # the second keeps the spectra
            solve_invariant(cfg, keep_strategy=keep_strategy)
            retained.append(tracemalloc.get_traced_memory()[0] - before)
            stores.append(dp._KERNELS.spectra)
    finally:
        tracemalloc.stop()
    assert stores[1] is stores[2]
    N = dp._KERNELS.N
    spectra_bytes = stores[2].nbytes
    assert spectra_bytes == dp._first_row(10) * (N // 2 + 1) * 8
    assert retained[0] < 20_000
    assert all(spectra_bytes < r < spectra_bytes + 20_000 for r in retained[1:])
    assert abs(retained[2] - retained[1]) < 20_000
    for K in range(2, 10):
        assert dp._KERNELS.rows(K).tobytes() == _fresh_spectra(0.1, grid, K, N).tobytes()


def test_a_lattice_keeps_all_its_spectra_or_none(monkeypatch):
    # the spectra of eps = 0.05's diagonals 2 .. 19 are kept under a cap of
    # their bytes and not at all one byte below it; the first, second and
    # third sweeps' risks are bitwise equal either way
    prior, grid = SymmetricPrior.two_point(1.6), UGrid(3.0, 0.02)
    cfg = DpConfig(0.05, prior, grid)
    N = dp._fft_length(grid.n_points, diagonal_kernels(0.05, grid, 19)[-1].size // 2)
    whole = dp._first_row(20) * (N // 2 + 1) * 8
    risks = []
    for cap, kept in ((whole, whole), (whole - 1, None)):
        monkeypatch.setattr(dp, "_SPECTRA_BYTES", cap)
        solve_invariant(DpConfig(0.25, prior, grid), keep_strategy=False)  # another lattice
        for _ in range(3):
            r = solve_invariant(cfg, keep_strategy=False)
            risks.append((r.bayes_risk, r.bayes_risk_no_initial))
        spectra = dp._KERNELS.spectra
        assert (None if spectra is None else spectra.nbytes) == kept
    assert len(set(risks)) == 1


def test_a_kept_lattice_places_no_kernel(monkeypatch):
    # _wrapped places the kernels a chunk transforms: the first sweep on a
    # lattice places m kernels for arm 1, then m for arm 2, per chunk of
    # m <= 16 rows; once the second has kept the spectra, a sweep places none
    prior, grid = SymmetricPrior.two_point(1.6), UGrid(3.0, 0.02)
    cfg = DpConfig(0.05, prior, grid)
    solve_invariant(DpConfig(0.25, prior, grid), keep_strategy=False)  # another lattice
    placed = []
    wrapped = dp._wrapped

    def spy(kernels, n):
        placed.append(len(kernels))
        return wrapped(kernels, n)

    monkeypatch.setattr(dp, "_wrapped", spy)
    solve_invariant(cfg, keep_strategy=False)
    chunks = [min(16, K // 2 + 1 - c0) for K in range(19, 1, -1) for c0 in range(0, K // 2 + 1, 16)]
    assert placed == [m for m in chunks for _ in "12"]
    solve_invariant(cfg, keep_strategy=False)  # keeps the spectra
    assert dp._KERNELS.spectra is not None
    placed.clear()
    solve_invariant(cfg, keep_strategy=False)
    assert placed == []
