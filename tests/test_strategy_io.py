"""Strategy table CSV round-trip and malformed-file diagnostics."""

import json

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
    path = _saved(solved, tmp_path)
    lines = path.read_text().splitlines()
    lines.append(lines[1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StrategyFormatError, match="duplicate"):
        load_strategy(path)


def test_missing_row(solved, tmp_path):
    path = _saved(solved, tmp_path)
    lines = path.read_text().splitlines()
    del lines[7]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StrategyFormatError, match="lattice needs"):
        load_strategy(path)


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
        lambda meta: [meta],
    ],
    ids=["non-numeric-grid", "infinite-packet-count", "list-sidecar"],
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
