"""Strategy table CSV round-trip and malformed-file diagnostics."""

import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchbandit.core import SymmetricPrior, UGrid
from batchbandit.dp import DpConfig, StrategyTable, _states, solve_invariant
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
    table = StrategyTable(epsilon=0.5, grid=GRID, arm1=np.zeros((0, GRID.n_points), dtype=bool))
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
    # the draws of the (P + 1, P + 1, n_u) block the pinned bytes were made from
    block = np.random.default_rng(7).random((P + 1, P + 1, n_u)) < 0.5
    arm1 = np.array([block[k1, k2] for k1, k2 in _states(P)])
    assert all(0 < row.sum() < n_u for row in arm1)
    tables = {
        "solved": solved.strategy,
        "random": StrategyTable(epsilon=EPS, grid=GRID, arm1=arm1),
        "no-decision-states": StrategyTable(
            epsilon=0.5, grid=GRID, arm1=np.zeros((0, n_u), dtype=bool)
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
    want = r"line 5: expected '0,2,3,1' or '0,2,3,2', got '0,2,3,oops'"
    with pytest.raises(StrategyFormatError, match=want):
        load_strategy(path)


def test_wrong_field_count(solved, tmp_path):
    path = _saved(solved, tmp_path)
    lines = path.read_text().splitlines()
    lines[2] = "1,2,3"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StrategyFormatError, match=r"line 3: expected .*, got '1,2,3'"):
        load_strategy(path)


def test_bad_action_value(solved, tmp_path):
    path = _saved(solved, tmp_path)
    lines = path.read_text().splitlines()
    parts = lines[10].split(",")
    parts[3] = "7"
    lines[10] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    want = r"line 11: expected '0,2,9,1' or '0,2,9,2', got '0,2,9,7'"
    with pytest.raises(StrategyFormatError, match=want):
        load_strategy(path)


def test_duplicate_row(solved, tmp_path):
    # the repeat replaces a row: the count holds, the bytes differ
    path = _saved(solved, tmp_path)
    lines = path.read_text().splitlines()
    lines[9] = lines[4]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StrategyFormatError, match=r"line 10: expected '0,2,8,1' or '0,2,8,2'"):
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
    with pytest.raises(StrategyFormatError, match=rf"line {first + 1}: expected "):
        load_strategy(path)


def test_missing_row(solved, tmp_path):
    # found where it is missing, not by a count at the end
    path = _saved(solved, tmp_path)
    lines = path.read_text().splitlines()
    del lines[7]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StrategyFormatError, match=r"line 8: expected '0,2,6,1' or '0,2,6,2'"):
        load_strategy(path)


def test_blank_line_is_refused_at_its_own_line(solved, tmp_path):
    # a loader that skips blank lines would name the bad action, as line 11
    path = _saved(solved, tmp_path)
    lines = path.read_text().splitlines()
    lines[10] = lines[10][:-1] + "7"
    lines.insert(3, "")
    path.write_text("\n".join(lines) + "\n")
    want = r"line 4: expected '0,2,2,1' or '0,2,2,2', got ''"
    with pytest.raises(StrategyFormatError, match=want):
        load_strategy(path)


@pytest.mark.parametrize(
    "edit, line",
    [
        (lambda lines: lines.insert(3, "  "), 4),
        (lambda lines: lines.append(""), None),
        (lambda lines: lines.__setitem__(5, lines[5].replace(",", ", ")), 6),
        (lambda lines: lines.__setitem__(6, lines[6] + "\r"), 7),
        (lambda lines: lines.__setitem__(0, lines[0] + "\r"), 1),
    ],
    ids=["whitespace-line", "trailing-blank-line", "spaces", "crlf-row", "crlf-header"],
)
def test_text_the_writer_never_gives_is_refused_at_its_line(solved, tmp_path, edit, line):
    path = _saved(solved, tmp_path)
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StrategyFormatError, match=f"line {line or len(lines)}: "):
        load_strategy(path)


@settings(max_examples=60, deadline=None)
@given(
    eps=st.sampled_from([0.5, 0.25, 0.1]),
    grid=st.sampled_from([UGrid(0.5, 0.25), UGrid(1.0, 0.1)]),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["replace", "delete", "insert"]),
    where=st.floats(0.0, 1.0),
    byte=st.one_of(st.sampled_from(list(b"12,0\n \r")), st.integers(0, 255)),
)
def test_a_one_byte_edit_loads_only_as_a_flipped_action(tmp_path_factory, eps, grid, seed,
                                                         kind, where, byte):
    states = len(list(_states(round(1 / eps))))
    arm1 = np.random.default_rng(seed).random((states, grid.n_points)) < 0.5
    table = StrategyTable(epsilon=eps, grid=grid, arm1=arm1)
    path = tmp_path_factory.mktemp("edit") / "s.csv"
    save_strategy(table, path, SymmetricPrior.two_point(1.0))
    data = path.read_bytes()
    assert np.array_equal(load_strategy(path).arm1, arm1)

    i = int(where * (len(data) if kind == "insert" else len(data) - 1))
    edited = data[:i] + bytes([byte]) * (kind != "delete") + data[i + (kind != "insert"):]
    path.write_bytes(edited)
    header = len(b"k1,k2,u_index,action\n")
    if kind == "replace" and i >= header and data[i + 1 : i + 2] == b"\n" and byte in b"12":
        # an action byte set to 1 or 2 (perhaps its own value) is the flipped table
        k1, k2, iu, _ = map(int, data[data.rfind(b"\n", 0, i) + 1 : i + 1].split(b","))
        table.diagonal(k1 + k2)[k1, iu] = byte == ord("1")  # a view of arm1
        assert np.array_equal(load_strategy(path).arm1, arm1)
    elif edited == data:
        assert np.array_equal(load_strategy(path).arm1, arm1)
    else:
        first = len(os.path.commonprefix([data, edited]))  # the first changed byte
        line = data.count(b"\n", 0, first) + 1
        with pytest.raises(StrategyFormatError, match=f"line {line}: "):
            load_strategy(path)


def test_load_peaks_near_the_parsed_rows(tmp_path):
    # the headline table (eps 0.02, default grid, 1,018,872 rows): the loader
    # holds one state's block at a time, a bool mask per state and the table they stack into
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
    assert peak < 8 * n_rows


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


@pytest.mark.parametrize(
    "key, value",
    [
        ("n_packets", 10.0),
        ("n_packets", 4.9),
        ("n_packets", True),
        ("epsilon", "0.1"),
        ("epsilon", True),
        ("u_max", "2.0"),
        ("du", None),
        ("n_points", 81.0),
        ("n_points", False),
    ],
)
def test_sidecar_number_of_the_wrong_json_type_is_refused(solved, tmp_path, key, value):
    # int() and float() would coerce each of these; the sidecar is checked
    # as strictly as a --config file
    path = _saved(solved, tmp_path)
    meta_path = tmp_path / "s.meta.json"
    meta = json.loads(meta_path.read_text())
    (meta["grid"] if key in meta["grid"] else meta)[key] = value
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(StrategyFormatError, match=rf"s\.meta\.json: {key} must be "):
        load_strategy(path)


def test_sidecar_takes_json_ints_for_its_float_numbers(solved, tmp_path):
    path = _saved(solved, tmp_path)
    meta_path = tmp_path / "s.meta.json"
    meta = json.loads(meta_path.read_text())
    meta["grid"]["u_max"] = 2
    del meta["grid"]["n_points"]  # optional
    meta_path.write_text(json.dumps(meta))
    loaded = load_strategy(path)
    assert loaded.grid == GRID
    assert np.array_equal(loaded.arm1, solved.strategy.arm1)


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
