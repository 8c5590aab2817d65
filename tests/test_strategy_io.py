"""Strategy table CSV round-trip and malformed-file diagnostics."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from batchbandit.core import SymmetricPrior, UGrid
from batchbandit.dp import DpConfig, StrategyTable, solve_invariant
from batchbandit.strategy_io import (
    STRATEGY_FORMAT_VERSION,
    StrategyFormatError,
    load_strategy,
    save_strategy,
)

EPS = 0.1
GRID = UGrid(2.0, 0.05)


@pytest.fixture(scope="module")
def solved():
    return solve_invariant(DpConfig(EPS, SymmetricPrior.two_point(1.6), GRID))


def test_round_trip_is_exact(solved, tmp_path):
    path = tmp_path / "s.csv"
    save_strategy(solved.strategy, path, SymmetricPrior.two_point(1.6))
    assert path.exists()
    assert (tmp_path / "s.meta.json").exists()
    loaded = load_strategy(path)
    assert loaded.epsilon == EPS
    assert loaded.grid == GRID
    assert loaded.n_packets == solved.strategy.n_packets
    assert np.array_equal(loaded.arm1, solved.strategy.arm1)


def test_meta_records_the_run(solved, tmp_path):
    path = tmp_path / "s.csv"
    prior = SymmetricPrior(((0.9, 0.25), (1.7, 0.75)))
    save_strategy(solved.strategy, path, prior)
    meta = json.loads((tmp_path / "s.meta.json").read_text())
    assert meta["format_version"] == STRATEGY_FORMAT_VERSION
    assert meta["epsilon"] == EPS
    assert meta["grid"]["du"] == 0.05
    assert meta["prior"]["atoms"] == [[0.9, 0.25], [1.7, 0.75]]
    assert meta["tie_break"] == "prefer-action-1"
    assert "initial_stage" in meta


def test_no_decision_states_round_trips(tmp_path):
    table = StrategyTable(epsilon=0.5, grid=GRID, arm1=np.zeros((3, 3, GRID.n_points), dtype=bool))
    path = tmp_path / "tiny.csv"
    save_strategy(table, path, SymmetricPrior.two_point(1.0))
    loaded = load_strategy(path)
    assert loaded.n_packets == 2
    assert not loaded.arm1.any()


# sha256 of the format-v1 bytes of three tables; a change to the writer must not alter them.
V1_SHA256 = {
    "solved": "af574bd15187ccecc54daaa8eb82dbff9943ee99250d8e107f9be712ee427fb7",
    "random": "56fc22e49b165e6b9fecdb9a00d7f2e3f5c00d4c7411a74536912d6f8da33d03",
    "no-decision-states": "7c4c60ed13aa25cfc60369c643d64622de92d370d813cd44c6548ea1abc07045",
}


def test_saved_bytes_are_format_v1(solved, tmp_path):
    P, n_u = solved.strategy.n_packets, GRID.n_points
    k_sum = np.add.outer(np.arange(P + 1), np.arange(P + 1))
    decision = ((k_sum >= 2) & (k_sum <= P - 1))[:, :, None]
    arm1 = (np.random.default_rng(7).random((P + 1, P + 1, n_u)) < 0.5) & decision
    assert all(0 < arm1[k1, K - k1].sum() < n_u for K in range(2, P) for k1 in range(K + 1))
    tables = {
        "solved": solved.strategy,
        "random": StrategyTable(epsilon=EPS, grid=GRID, arm1=arm1),
        "no-decision-states": StrategyTable(
            epsilon=0.5, grid=GRID, arm1=np.zeros((3, 3, n_u), dtype=bool)
        ),
    }
    for name, table in tables.items():
        path = tmp_path / f"{name}.csv"
        save_strategy(table, path, SymmetricPrior.two_point(1.6))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == V1_SHA256[name], name
        assert np.array_equal(load_strategy(path).arm1, table.arm1), name


def _saved(solved, tmp_path):
    path = tmp_path / "s.csv"
    save_strategy(solved.strategy, path, SymmetricPrior.two_point(1.6))
    return path


def test_non_integer_field_names_line_and_field(solved, tmp_path):
    path = _saved(solved, tmp_path)
    lines = path.read_text().splitlines()
    lines[4] = lines[4].rsplit(",", 1)[0] + ",oops"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StrategyFormatError, match=r"line 5.*field 4"):
        load_strategy(path)


def test_wrong_field_count(solved, tmp_path):
    path = _saved(solved, tmp_path)
    lines = path.read_text().splitlines()
    lines[2] = "1,2,3"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StrategyFormatError, match="line 3"):
        load_strategy(path)


def test_bad_action_value(solved, tmp_path):
    path = _saved(solved, tmp_path)
    lines = path.read_text().splitlines()
    parts = lines[10].split(",")
    parts[3] = "7"
    lines[10] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StrategyFormatError, match=r"line 11.*action"):
        load_strategy(path)


def test_duplicate_row(solved, tmp_path):
    # the repeat replaces a row, so the count holds and the order check finds it
    path = _saved(solved, tmp_path)
    lines = path.read_text().splitlines()
    lines[9] = lines[4]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StrategyFormatError, match=r"line 10: .* out of writer order"):
        load_strategy(path)


def test_appended_row_is_refused_by_the_count(solved, tmp_path):
    path = _saved(solved, tmp_path)
    lines = path.read_text().splitlines()
    lines.append(lines[1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StrategyFormatError, match=rf"line {len(lines)}: .*lattice needs"):
        load_strategy(path)


@pytest.mark.parametrize("n", [1, GRID.n_points], ids=["two-rows-of-one-state", "two-states"])
def test_rows_out_of_writer_order_are_refused(solved, tmp_path, n):
    # swap two adjacent blocks of n rows: two grid points of a state, or two states
    path = _saved(solved, tmp_path)
    lines = path.read_text().splitlines()
    first, second, end = 1 + n, 1 + 2 * n, 1 + 3 * n
    lines[first:second], lines[second:end] = lines[second:end], lines[first:second]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StrategyFormatError, match=rf"line {first + 1}: .* out of writer order"):
        load_strategy(path)


def test_missing_row(solved, tmp_path):
    path = _saved(solved, tmp_path)
    lines = path.read_text().splitlines()
    del lines[7]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StrategyFormatError, match="lattice needs"):
        load_strategy(path)


def test_load_peaks_near_the_parsed_rows(tmp_path):
    # the headline table (eps 0.02, default grid, 1,018,944 rows): beyond the
    # parsed int64 rows the loader builds only bool masks and the lattice
    table = solve_invariant(DpConfig(0.02, SymmetricPrior.two_point(1.6))).strategy
    path = tmp_path / "s.csv"
    save_strategy(table, path, SymmetricPrior.two_point(1.6))
    n_rows = table.grid.n_points * (table.n_packets * (table.n_packets + 1) // 2 - 3)
    tracemalloc.start()
    try:
        loaded = load_strategy(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.arm1, table.arm1)
    assert peak < 1.5 * n_rows * 4 * 8


def test_sidecar_claiming_a_far_larger_lattice_is_refused_before_allocating_it(
    solved, tmp_path
):
    path = _saved(solved, tmp_path)
    meta_path = tmp_path / "s.meta.json"
    meta = dict(json.loads(meta_path.read_text()), epsilon=1e-3, n_packets=1000)
    meta_path.write_text(json.dumps(meta))
    lattice_bytes = 1001**2 * GRID.n_points  # the bool arm-1 lattice alone
    tracemalloc.start()
    try:
        with pytest.raises(StrategyFormatError, match="lattice needs"):
            load_strategy(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < lattice_bytes / 10


def test_wrong_header(solved, tmp_path):
    path = _saved(solved, tmp_path)
    lines = path.read_text().splitlines()
    lines[0] = "a,b,c,d"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StrategyFormatError, match="header"):
        load_strategy(path)


def test_missing_meta_sidecar(solved, tmp_path):
    path = _saved(solved, tmp_path)
    (tmp_path / "s.meta.json").unlink()
    with pytest.raises(StrategyFormatError, match="metadata"):
        load_strategy(path)


def test_bad_format_version(solved, tmp_path):
    path = _saved(solved, tmp_path)
    meta_path = tmp_path / "s.meta.json"
    meta = json.loads(meta_path.read_text())
    meta["format_version"] = 99
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(StrategyFormatError, match="format_version"):
        load_strategy(path)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda meta: dict(meta, grid=dict(meta["grid"], u_max="abc")),
        lambda meta: dict(meta, n_packets=float("inf")),
        lambda meta: dict(meta, grid=dict(meta["grid"], u_max=1e308, du=1e-300)),
        lambda meta: [meta],
    ],
    ids=["non-numeric-grid", "infinite-packet-count", "overflowing-grid", "list-sidecar"],
)
def test_malformed_sidecar_is_a_format_error_naming_it(solved, tmp_path, mutate):
    path = _saved(solved, tmp_path)
    meta_path = tmp_path / "s.meta.json"
    meta_path.write_text(json.dumps(mutate(json.loads(meta_path.read_text()))))
    with pytest.raises(StrategyFormatError, match=r"s\.meta\.json"):
        load_strategy(path)


def test_inconsistent_epsilon_and_packets(solved, tmp_path):
    path = _saved(solved, tmp_path)
    meta_path = tmp_path / "s.meta.json"
    meta = json.loads(meta_path.read_text())
    meta["n_packets"] = 12
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(StrategyFormatError, match="packets"):
        load_strategy(path)


def test_missing_file():
    with pytest.raises(StrategyFormatError, match="no such"):
        load_strategy("/nonexistent/s.csv")
