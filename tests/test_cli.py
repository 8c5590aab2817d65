"""CLI subcommands: summaries, file outputs, exit codes, flag parsing."""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from batchbandit import cli, search, simulate, strategy_eval
from batchbandit.cli import main
from batchbandit.core import SymmetricPrior, UGrid
from batchbandit.dp import DpConfig, solve_invariant
from batchbandit.simulate import BatchTrialConfig, simulate_bernoulli, simulate_gaussian
from batchbandit.strategy_io import load_strategy


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0, out
    return json.loads(out)


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


@pytest.fixture
def solves(monkeypatch):
    """The solves run while the test runs; the first one fails it."""
    seen = []

    def spy(*args, **kwargs):
        seen.append(args)
        raise AssertionError("solved before refusing")

    for module, name in [(search, "solve_invariant"), (search, "solve_pde"),
                         (strategy_eval, "solve_invariant")]:
        monkeypatch.setattr(module, name, spy)
    return seen


def test_solve_pure_initial_closed_form(capsys):
    doc = run_json(capsys, ["solve", "--epsilon", "0.5", "--d", "1.0"])
    assert doc["bayes_risk"] == 1.0
    assert doc["bayes_risk_no_initial"] == 0.0
    assert doc["epsilon"] == 0.5
    assert doc["d"] == 1.0


def test_solve_headline_summary_to_file(tmp_path, capsys):
    out = tmp_path / "summary.json"
    rc = main(["solve", "--epsilon", "0.02", "--d", "1.6", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["bayes_risk"] == pytest.approx(0.65, abs=0.02)
    assert doc["bayes_risk_no_initial"] < doc["bayes_risk"]


def test_solve_vanishing_gap(capsys):
    doc = run_json(capsys, ["solve", "--epsilon", "0.02", "--d", "0.000001"])
    assert doc["bayes_risk"] < 1e-4


def test_solve_needs_a_prior(capsys):
    rc = main(["solve", "--epsilon", "0.5"])
    assert rc == 2
    assert "--d or --prior-file" in capsys.readouterr().err


def test_solve_grid_whose_point_count_overflows_exits_2(capsys):
    rc = main(["solve", "--epsilon", "0.5", "--d", "1", "--u-max", "1e308", "--du", "1e-300"])
    assert rc == 2
    assert "overflows" in capsys.readouterr().err


def test_solve_grid_too_large_to_index_exits_2(capsys):
    # u_max / du is finite, but numpy cannot size the grid: refused before allocating
    rc = main(["solve", "--epsilon", "0.5", "--d", "1", "--u-max", "1e200", "--du", "1e-10"])
    assert rc == 2
    assert "one float array can hold" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "export-strategy", "pde"])
def test_grid_too_large_for_memory_exits_2_before_allocating(tmp_path, capsys, command):
    # 2e15 grid points: the sweep alone needs about 4 * 3 * 2e15 * 8 bytes;
    # the pde's explicit scheme is stable there only from eps = du^2 down
    eps = "1e-18" if command == "pde" else "0.5"
    argv = [command, "--epsilon", eps, "--d", "1", "--u-max", "1e6", "--du", "1e-9"]
    tracemalloc.start()
    try:
        rc = main(argv + (["--out", str(tmp_path / "s.csv")] if command != "solve" else []))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert "over physical memory" in capsys.readouterr().err
    assert peak < 10_000_000


def test_search_with_too_many_gaps_exits_2_before_building_them(capsys):
    tracemalloc.start()
    try:
        rc = main(["search", "--epsilon", "0.5", "--d-min", "1", "--d-max", "2",
                   "--step", "1e-15"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert f"> {search.MAX_GAPS}" in capsys.readouterr().err
    assert peak < 10_000_000


def test_validation_failure_leaves_no_output(tmp_path, capsys):
    out = tmp_path / "x.json"
    rc = main(["solve", "--epsilon", "0.3", "--d", "1.0", "--out", str(out)])
    assert rc == 2
    assert "epsilon" in capsys.readouterr().err
    assert not out.exists()


def test_prior_file(tmp_path, capsys):
    pf = tmp_path / "prior.json"
    pf.write_text(json.dumps({"atoms": [[0.9, 0.4], [1.8, 0.6]]}))
    doc = run_json(
        capsys,
        ["solve", "--epsilon", "0.25", "--u-max", "2.0", "--du", "0.05",
         "--prior-file", str(pf)],
    )
    assert doc["d"] is None
    assert doc["bayes_risk"] > 0.0


@pytest.mark.parametrize(
    "doc, key",
    [({"atoms": [[1.0, 1.0]], "c": 1.5}, "c"), ({"atoms": [[1.0, 1.0]], "atom": 1}, "atom")],
    ids=["removed-support-bound", "misspelt-key"],
)
def test_prior_file_with_a_key_other_than_atoms_exits_2(tmp_path, capsys, doc, key):
    pf = tmp_path / "prior.json"
    pf.write_text(json.dumps(doc))
    assert main(["solve", "--epsilon", "0.1", "--prior-file", str(pf)]) == 2
    assert f"unknown prior keys: ['{key}']" in capsys.readouterr().err


def test_prior_file_with_a_nan_weight_exits_2(tmp_path, capsys):
    pf = tmp_path / "prior.json"
    pf.write_text('{"atoms": [[1.0, NaN]]}')  # Python's json reads NaN
    assert main(["solve", "--epsilon", "0.1", "--prior-file", str(pf)]) == 2
    assert "weights must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "atoms",
    [[["1.6", True]], [[1.6, True]], [[True, 1.0]], [["1.6", 1.0]]],
    ids=["string-and-bool", "bool-weight", "bool-gap", "string-gap"],
)
def test_prior_file_atom_that_is_not_a_json_number_exits_2(tmp_path, capsys, atoms):
    pf = tmp_path / "prior.json"
    pf.write_text(json.dumps({"atoms": atoms}))
    assert main(["solve", "--epsilon", "0.5", "--prior-file", str(pf)]) == 2
    assert str(pf) in _one_error_line(capsys)


@pytest.mark.parametrize("command", ["solve", "pde", "export-strategy"])
def test_d_together_with_a_prior_file_exits_2(tmp_path, capsys, command):
    # the prior file's atoms would silently win over --d
    pf = tmp_path / "prior.json"
    pf.write_text(json.dumps({"atoms": [[0.9, 1]]}))
    out = tmp_path / "out.csv"
    argv = [command, "--epsilon", "0.5", "--d", "1.6", "--prior-file", str(pf), "--out", str(out)]
    assert main(argv) == 2
    err = _one_error_line(capsys)
    assert "--d" in err and "--prior-file" in err
    assert not out.exists()


HUGE = 10**400  # an integer beyond float range, as JSON or an int flag can hold


@pytest.mark.parametrize("source", ["prior-file-w", "flag-t"])
def test_integer_beyond_float_range_exits_2(tmp_path, capsys, source):
    if source == "flag-t":
        argv = ["simulate", "--strategy", str(_export_tenth(tmp_path)), "--t", str(HUGE)]
    else:
        pf = tmp_path / "prior.json"
        pf.write_text(json.dumps({"atoms": [[HUGE, 1.0]]}))
        argv = ["solve", "--epsilon", "0.5", "--prior-file", str(pf)]
    assert main(argv) == 2
    assert "beyond float range" in _one_error_line(capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--epsilon", "0.25", "--d", "9.5e153"],
        ["pde", "--epsilon", "0.01", "--d", "1e300", "--u-max", "2", "--du", "0.1"],
    ],
)
def test_gap_whose_squared_rate_overflows_exits_2(capsys, argv):
    # 2*w^2 = inf makes the t1 = 0 row's exponent -inf * 0, a NaN
    assert main(argv) == 2
    assert "2*w^2 overflows" in _one_error_line(capsys)


def test_gap_just_below_the_overflow_still_solves(capsys):
    # from w of about 1.8e4 on, p*w*exp(EXP_CLIP) passes the float maximum:
    # the losing branch's clip is lowered there, with no overflow warning
    for d, risk in (("2e4", 10000.0), ("9.4e153", 4.7e153)):
        doc = run_json(capsys, ["solve", "--epsilon", "0.25", "--d", d])
        assert doc["bayes_risk"] == risk


def test_pde_gap_just_below_the_overflow_still_solves(capsys):
    # the pde's factored loss caps its u-factor's exponent as loss_profile
    # caps the whole one; with the plain EXP_CLIP cap this gap gave a NaN
    argv = ["pde", "--epsilon", "0.01", "--d", "9.4e153", "--u-max", "2", "--du", "0.1"]
    doc = run_json(capsys, argv)
    assert np.isfinite(doc["limit_risk"]) and doc["limit_risk"] > 0.0


def test_solve_never_builds_the_action_table(monkeypatch, capsys):
    # at eps = 0.001 the action table alone is about 400 MB
    seen = []

    def spy(config, **kwargs):
        seen.append(kwargs.get("keep_strategy", True))
        return solve_invariant(config, **kwargs)

    monkeypatch.setattr(cli, "solve_invariant", spy)
    argv = ["solve", "--epsilon", "0.25", "--d", "1.0", "--u-max", "2.0", "--du", "0.05"]
    run_json(capsys, argv)
    assert seen == [False]


def test_unexpected_error_inside_the_solver_exits_1(monkeypatch, capsys):
    def broken(config, **kwargs):
        raise ValueError("corrupted lattice")

    monkeypatch.setattr(cli, "solve_invariant", broken)
    assert main(["solve", "--epsilon", "0.25", "--d", "1.0"]) == 1
    err = capsys.readouterr().err
    assert "internal error" in err and "corrupted lattice" in err
    assert len(err.strip().splitlines()) == 1


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2


def test_export_strategy_round_trip(tmp_path):
    path = tmp_path / "s.csv"
    rc = main(
        ["export-strategy", "--epsilon", "0.1", "--d", "1.6",
         "--u-max", "2.0", "--du", "0.05", "--out", str(path)]
    )
    assert rc == 0
    assert path.exists() and (tmp_path / "s.meta.json").exists()
    loaded = load_strategy(path)
    direct = solve_invariant(
        DpConfig(0.1, SymmetricPrior.two_point(1.6), UGrid(2.0, 0.05))
    ).strategy
    assert np.array_equal(loaded.arm1, direct.arm1)
    a = simulate_gaussian(10, 1.6, loaded, 2000, seed=3)
    b = simulate_gaussian(10, 1.6, direct, 2000, seed=3)
    assert a.normalized_loss_mean == b.normalized_loss_mean


def test_simulate_matches_in_process_run(tmp_path, capsys):
    path = tmp_path / "s.csv"
    assert main(["export-strategy", "--epsilon", "0.05", "--d", "1.6",
                 "--u-max", "2.0", "--du", "0.05", "--out", str(path)]) == 0
    doc = run_json(
        capsys,
        ["simulate", "--t", "1000", "--m", "50", "--p", "0.5", "--d", "1.6",
         "--strategy", str(path), "--reps", "2000", "--seed", "9"],
    )
    assert doc["replications"] == 2000
    assert doc["n_packets"] == 20
    cfg = BatchTrialConfig(1000, 50, 0.5, 1.6, replications=2000, seed=9)
    direct = simulate_bernoulli(cfg, load_strategy(path))
    assert doc["normalized_loss_mean"] == pytest.approx(
        direct.normalized_loss_mean, abs=5e-7
    )


def test_simulate_gaussian_model(tmp_path, capsys):
    path = tmp_path / "s.csv"
    assert main(["export-strategy", "--epsilon", "0.05", "--d", "1.6",
                 "--u-max", "2.0", "--du", "0.05", "--out", str(path)]) == 0
    doc = run_json(
        capsys,
        ["simulate", "--model", "gaussian", "--d", "1.6", "--strategy", str(path),
         "--reps", "2000", "--seed", "5"],
    )
    assert doc["model"] == "gaussian"
    assert doc["replications"] == 2000


def test_simulate_gaussian_summary_reports_the_tables_packets(tmp_path, capsys):
    # the Gaussian run takes its 10 packets from the table; the unused
    # --t/--m defaults (50 packets) must not appear in its summary
    path = tmp_path / "s.csv"
    assert main(["export-strategy", "--epsilon", "0.1", "--d", "1.6",
                 "--u-max", "2.0", "--du", "0.05", "--out", str(path)]) == 0
    doc = run_json(
        capsys,
        ["simulate", "--model", "gaussian", "--strategy", str(path), "--reps", "200"],
    )
    assert doc["n_packets"] == 10
    assert not {"t", "m", "p"} & set(doc)


def test_simulate_reports_malformed_strategy(tmp_path, capsys):
    path = tmp_path / "s.csv"
    assert main(["export-strategy", "--epsilon", "0.1", "--d", "1.6",
                 "--u-max", "2.0", "--du", "0.05", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    parts = lines[4].split(",")
    parts[2] = "x"
    lines[4] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    rc = main(["simulate", "--t", "1000", "--m", "100", "--strategy", str(path)])
    assert rc == 2
    assert "line 5" in capsys.readouterr().err


def test_simulate_missing_meta_sidecar(tmp_path, capsys):
    path = tmp_path / "s.csv"
    assert main(["export-strategy", "--epsilon", "0.1", "--d", "1.6",
                 "--u-max", "2.0", "--du", "0.05", "--out", str(path)]) == 0
    (tmp_path / "s.meta.json").unlink()
    rc = main(["simulate", "--t", "1000", "--m", "100", "--strategy", str(path)])
    assert rc == 2
    assert "metadata" in capsys.readouterr().err


def _export_tenth(tmp_path):
    path = tmp_path / "s.csv"
    assert main(["export-strategy", "--epsilon", "0.1", "--d", "1.6",
                 "--u-max", "2.0", "--du", "0.05", "--out", str(path)]) == 0
    return path


def test_simulate_sidecar_that_is_a_json_list_exits_2(tmp_path, capsys):
    path = _export_tenth(tmp_path)
    meta = tmp_path / "s.meta.json"
    meta.write_text(json.dumps([json.loads(meta.read_text())]))
    rc = main(["simulate", "--t", "1000", "--m", "100", "--strategy", str(path)])
    assert rc == 2
    assert "s.meta.json" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["bernoulli", "gaussian"])
@pytest.mark.parametrize("d", ["nan", "inf"])
def test_simulate_non_finite_d_exits_2(tmp_path, capsys, model, d):
    path = _export_tenth(tmp_path)
    rc = main(["simulate", "--model", model, "--d", d, "--t", "1000", "--m", "100",
               "--strategy", str(path), "--reps", "10"])
    assert rc == 2
    assert "d must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("d, rc", [("0", 0), ("9.4e153", 0), ("1e200", 2), ("1e308", 2)])
def test_simulate_gaussian_refuses_a_gap_whose_square_overflows(tmp_path, capsys, d, rc):
    # the rule solve applies to a gap: 2*d^2 finite; every gap below it runs,
    # with no overflow warning on the way
    path = _export_tenth(tmp_path)
    argv = ["simulate", "--model", "gaussian", "--d", d, "--strategy", str(path), "--reps", "10"]
    if rc == 0:
        assert np.isfinite(run_json(capsys, argv)["normalized_loss_mean"])
    else:
        assert main(argv) == 2
        assert "2*d^2 finite" in _one_error_line(capsys)


@pytest.mark.parametrize("model", ["bernoulli", "gaussian"])
def test_simulate_negative_seed_exits_2(tmp_path, capsys, model):
    path = _export_tenth(tmp_path)
    rc = main(["simulate", "--model", model, "--t", "1000", "--m", "100",
               "--strategy", str(path), "--reps", "10", "--seed", "-1"])
    assert rc == 2
    assert "seed must be nonnegative" in _one_error_line(capsys)


def test_simulate_packet_size_beyond_int64_exits_2(tmp_path, capsys):
    # numpy's binomial draws int64 counts; a larger packet size is refused, not an OverflowError
    path = _export_tenth(tmp_path)
    rc = main(["simulate", "--strategy", str(path), "--t", "20000000000000000000",
               "--m", "10000000000000000000"])
    assert rc == 2
    assert "beyond int64 range" in _one_error_line(capsys)


@pytest.mark.parametrize("model", ["bernoulli", "gaussian"])
@pytest.mark.parametrize(
    "reps, message",
    [("1000000000000", "over physical memory"), (str(HUGE), "beyond float range")],
    ids=["1e12", "401-digit"],
)
def test_simulate_reps_beyond_memory_exits_2_before_allocating(
    tmp_path, monkeypatch, capsys, model, reps, message
):
    path = _export_tenth(tmp_path)
    batches = []
    monkeypatch.setattr(simulate, "_batch_sizes", batches.append)
    tracemalloc.start()
    try:
        rc = main(["simulate", "--model", model, "--t", "1000", "--m", "100",
                   "--strategy", str(path), "--reps", reps])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert message in _one_error_line(capsys)
    assert peak < 10_000_000
    assert batches == []  # no replication batch was laid out, let alone run


def _bad_file(tmp_path, kind, content):
    """argv with one unreadable input or unwritable output of the given kind,
    the path its error must name, and the output path that must not appear."""
    bad = table = tmp_path / "bad.json"
    out = tmp_path / "out.json"
    if kind in ("sidecar", "strategy"):
        table = _export_tenth(tmp_path)
        meta = table.with_suffix(".meta.json")
        if kind == "sidecar":
            bad = meta
            meta.unlink()
        else:
            bad = table = tmp_path / "bad.csv"
            (tmp_path / "bad.meta.json").write_bytes(meta.read_bytes())
    if content == "directory":
        bad.mkdir()
    elif content == "0xff":
        bad.write_bytes(b"\xff{}")
    elif content == "deep":
        bad.write_text("[" * 100_000)
    elif content == "sidecar-directory":  # export-strategy's sidecar cannot be written
        bad = out.with_suffix(".meta.json")
        bad.mkdir()
    else:  # an output in a directory that does not exist
        bad = out = tmp_path / "missing" / "out"
    simulate = ["simulate", "--t", "1000", "--m", "100", "--reps", "10", "--strategy", str(table)]
    argv = {
        "prior": ["solve", "--epsilon", "0.1", "--prior-file", str(bad)],
        "solve": ["solve", "--epsilon", "0.5", "--d", "1.0"],
        "export": ["export-strategy", "--epsilon", "0.5", "--d", "1.0"],
    }.get(kind, simulate)
    return [*argv, "--out", str(out)], bad, out


@pytest.mark.parametrize(
    "kind, content",
    [
        ("prior", "directory"), ("prior", "0xff"), ("prior", "deep"),
        ("sidecar", "directory"), ("sidecar", "0xff"), ("strategy", "directory"),
        ("solve", "missing-dir"), ("export", "missing-dir"), ("export", "sidecar-directory"),
    ],
)
def test_unreadable_or_unwritable_file_exits_2_naming_it(tmp_path, capsys, kind, content):
    argv, named, out = _bad_file(tmp_path, kind, content)
    capsys.readouterr()  # drop what the setup printed
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(named) in err[0]
    assert not out.exists()
    assert not list(tmp_path.rglob("*.tmp"))


def test_figure1_csv_shape_and_determinism(tmp_path):
    out = tmp_path / "fig.csv"
    argv = ["figure1", "--epsilon", "0.25", "--d-min", "0.5", "--d-max", "1.5",
            "--step", "0.5", "--u-max", "2.0", "--du", "0.05", "--out", str(out)]
    assert main(argv) == 0
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == "d,bayes_risk,expected_loss,bayes_risk_no_init,expected_loss_no_init"
    assert len(lines) == 4
    for line in lines[1:]:
        d, bayes, exp, bayes_ni, exp_ni = (float(x) for x in line.split(","))
        assert exp >= bayes - 1e-5
        assert exp_ni >= bayes_ni - 1e-5
    assert main(argv) == 0
    assert out.read_text() == text


def test_figure1_csv_bytes_are_pinned(tmp_path):
    # the frozen column comes from one forward sweep; the bytes are those the
    # per-d backward evaluate wrote
    out = tmp_path / "fig.csv"
    argv = ["figure1", "--epsilon", "0.1", "--d-min", "0.4", "--d-max", "6", "--step", "0.4",
            "--u-max", "3", "--du", "0.02", "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "fed932f791eb7ef0b99587ce25c59fb96dcb550a1862413869c16c974c081e73"
    )


def test_figure1_frozen_columns_at_large_gaps(tmp_path):
    # 2*w*u_max far beyond EXP_CLIP: the forward sweep's clipped u-factor
    # meets the unreachable k1 = 0 row's zero mass, and the loss is the
    # forced stage 2*eps*d alone
    out = tmp_path / "fig.csv"
    argv = ["figure1", "--epsilon", "0.25", "--d-min", "1e4", "--d-max", "3e4",
            "--step", "1e4", "--u-max", "2", "--du", "0.05", "--out", str(out)]
    assert main(argv) == 0
    rows = [[float(x) for x in line.split(",")] for line in out.read_text().splitlines()[1:]]
    assert [(d, exp, exp_ni) for d, _, exp, _, exp_ni in rows] == [
        (d, 0.5 * d, 0.0) for d in (1e4, 2e4, 3e4)
    ]


def test_figure1_rejects_bad_range(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    rc = main(["figure1", "--epsilon", "0.25", "--d-min", "2.0", "--d-max", "1.0",
               "--step", "0.5", "--out", str(out)])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("freeze_d", ["-1", "nan"])
def test_figure1_refuses_a_bad_freeze_d_before_any_solve(tmp_path, monkeypatch, capsys, freeze_d):
    for module in (cli, strategy_eval):
        monkeypatch.setattr(module, "solve_invariant", None)
    out = tmp_path / "fig.csv"
    assert main(["figure1", "--freeze-d", freeze_d, "--out", str(out)]) == 2
    assert "positive" in capsys.readouterr().err
    assert not out.exists()


def test_pde_subcommand(capsys):
    doc = run_json(
        capsys,
        ["pde", "--epsilon", "0.01", "--du", "0.1001", "--u-max", "2.3", "--d", "1.6"],
    )
    assert 0.6 < doc["limit_risk"] < 0.7
    assert doc["limit_risk_no_initial"] < doc["limit_risk"]


def test_pde_unstable_pairing_exits_2(capsys):
    rc = main(["pde", "--epsilon", "0.001", "--du", "0.023", "--d", "1.57"])
    assert rc == 2
    assert "unstable" in capsys.readouterr().err


def test_search_subcommand(capsys):
    # eps = 0.05 keeps an interior maximum at a fifth of the headline search's cost
    doc = run_json(capsys, ["search", "--backend", "dp", "--epsilon", "0.05"])
    curve = search.scan(0.5, 2.5, 0.25, backend="dp", epsilon=0.05)
    res = search.refine(curve, tolerance=0.01)
    six = dict(rel=5e-6)  # the summary prints six significant digits
    assert doc["d_star"] == pytest.approx(res.d_star, **six)
    assert doc["d_star"] == pytest.approx(1.74516, **six)
    assert doc["risk_star"] == pytest.approx(res.risk_star, **six)
    assert doc["boundary"] is res.boundary is False
    assert doc["evaluations"] == res.evaluations
    assert [(p["d"], p["risk"]) for p in doc["curve"]] == [
        (pytest.approx(p.d, **six), pytest.approx(p.risk, **six)) for p in curve.points
    ]
    assert len(doc["curve"]) == 9


@pytest.mark.parametrize(
    "argv, key, value",
    [(["search", "--epsilon", "0.1"], "multi_atom", 2),
     (["simulate", "--strategy", "unused.csv"], "per_item", True),
     (["solve", "--epsilon", "0.1", "--d", "1"], "strategy_out", "s.csv")],
)
def test_config_file_with_a_removed_option_exits_2(tmp_path, solves, capsys, argv, key, value):
    # a config file written for an older release fails loudly, not silently:
    # --config itself is gone, and argparse refuses it before anything is solved
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "out.json"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"unrecognized arguments: --config {cfg}" in capsys.readouterr().err
    assert solves == [] and not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--epsilon", "0.25", "--u-max", "2", "--du", "0.1"],
        ["--epsilon", "0.02", "--u-max", "3", "--du", "0.1"],
    ],
    ids=["boundary-maximum", "interior-maximum"],
)
def test_search_non_positive_tolerance_exits_2(capsys, argv):
    assert main(["search", *argv, "--tolerance", "0"]) == 2
    assert "tolerance must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["search", "--epsilon", "0.004", "--tolerance", "0"], "tolerance must be positive"),
        (["search", "--backend", "pde", "--epsilon", "0.001", "--tolerance", "0"],
         "tolerance must be positive"),
        (["worst-case", "--tolerance", "0"], "tolerance must be positive"),
        (["search", "--epsilon", "0.02", "--d-max", "1e154", "--step", "1e153"],
         "atom position 1e+154 is too large"),
        (["loss-curves", "--d-max", "1e154", "--step", "1e153", "--sim-every", "0",
          "--out", "unused.csv"], "atom position 1e+154 is too large"),
    ],
    ids=["search-dp", "search-pde", "worst-case", "search-top-gap", "loss-curves-top-gap"],
)
def test_bad_tolerance_or_top_gap_is_refused_before_any_solve(solves, capsys, argv, message):
    assert main(argv) == 2
    assert _one_error_line(capsys).startswith(f"error: {message}")
    assert solves == []


@pytest.mark.parametrize(
    "flag, value, message",
    [("--seed", "-5", "seed must be nonnegative, got -5"),
     ("--m", "10000000000000000000", "batch_size=10000000000000000000 is beyond int64 range"),
     ("--reps", "1000000000000",
      "the replication losses needs about 8e+12 bytes, over physical memory")],
    ids=["negative-seed", "m-beyond-int64", "reps-beyond-memory"],
)
def test_loss_curves_refuses_a_bad_trial_before_any_solve(
    tmp_path, solves, capsys, flag, value, message
):
    # at the defaults the last simulated row's seed, seed + 90, is nonnegative:
    # the first row's trial is checked too
    out = tmp_path / "curves.csv"
    assert main(["loss-curves", flag, value, "--out", str(out)]) == 2
    assert _one_error_line(capsys) == f"error: {message}"
    assert solves == [] and not out.exists()


def test_search_fills_a_half_given_grid_from_the_backend_default(capsys):
    doc = run_json(capsys, ["search", "--epsilon", "0.25", "--d-min", "1.0", "--d-max", "1.0",
                            "--du", "0.05"])
    direct = solve_invariant(
        DpConfig(0.25, SymmetricPrior.two_point(1.0), UGrid(4.0, 0.05)), keep_strategy=False
    )
    assert doc["risk_star"] == pytest.approx(direct.bayes_risk, rel=1e-5)


@pytest.mark.parametrize("freeze", [[], ["--freeze-d", "1.2"]])
def test_figure1_solves_each_d_once(tmp_path, monkeypatch, freeze):
    solves = []

    def spy(config, **kwargs):
        solves.append(config.prior.atoms)
        return solve_invariant(config, **kwargs)

    for module in (cli, search, strategy_eval):
        monkeypatch.setattr(module, "solve_invariant", spy)
    argv = ["figure1", "--epsilon", "0.25", "--d-min", "0.5", "--d-max", "2.5", "--step", "0.5",
            "--u-max", "2.0", "--du", "0.05", "--out", str(tmp_path / "fig.csv"), *freeze]
    assert main(argv) == 0
    assert len((tmp_path / "fig.csv").read_text().splitlines()) == 1 + 5
    assert len(solves) == 5 + 1  # one Bayes solve per d, one for the frozen strategy


def _sample(param):
    """A legal value for the parameter that differs from its default."""
    if param.choices:
        return param.choices[-1]
    return {int: 3, float: 0.375, str: "x.json"}[param.type]


def _flag(param, value):
    return ["--" + param.name.replace("_", "-"), str(value)]


DECLARED = [(name, p) for name, command in cli.COMMANDS.items() for p in command.params]


@pytest.mark.parametrize("name, param", DECLARED, ids=[f"{n}-{p.name}" for n, p in DECLARED])
def test_every_parameter_resolves_alike_from_flag_and_config(capsys, name, param):
    """The resolved config (cli.resolve's cfg) holds the flag's value, or the
    declared default where the flag is absent; a missing required flag exits 2
    through argparse."""
    command = cli.COMMANDS[name]
    base = [tok for p in command.params if p.required and p is not param
            for tok in _flag(p, _sample(p))]
    on_grid = param.name in ("u_max", "du")  # the two halves of cfg's one UGrid

    def resolved(*argv):
        cfg = cli.resolve(command, cli.build_parser().parse_args([name, *base, *argv]))
        return cfg["grid"] if on_grid else cfg[param.name]

    def expected(value):
        return search.backend_grid(command.backend, **{param.name: value}) if on_grid else value

    value = _sample(param)
    assert resolved(*_flag(param, value)) == expected(value)
    if param.required:
        assert main([name, *base]) == 2
        assert f"required: {_flag(param, value)[0]}" in capsys.readouterr().err
    else:
        assert resolved() == expected(param.default) != expected(value)


@pytest.mark.parametrize(
    "argv, grid",
    [
        (["solve", "--epsilon", "0.1"], UGrid(4.0, 0.01)),
        (["figure1", "--out", "x.csv"], UGrid(4.0, 0.01)),
        (["export-strategy", "--epsilon", "0.1", "--out", "x.csv"], UGrid(4.0, 0.01)),
        (["pde"], UGrid(2.3, 0.032)),
        (["search", "--epsilon", "0.1"], UGrid(4.0, 0.01)),
        (["search", "--epsilon", "0.1", "--backend", "pde"], UGrid(2.3, 0.032)),
        # one half given: the other half still comes from the backend
        (["search", "--epsilon", "0.1", "--backend", "pde", "--du", "0.05"], UGrid(2.3, 0.05)),
        (["pde", "--u-max", "3.0"], UGrid(3.0, 0.032)),
        (["solve", "--epsilon", "0.1", "--du", "0.05"], UGrid(4.0, 0.05)),
    ],
)
def test_unset_grid_takes_the_backend_default(argv, grid):
    args = cli.build_parser().parse_args(argv)
    assert cli.resolve(cli.COMMANDS[argv[0]], args)["grid"] == grid


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_commands_parse():
    # parsed only, never run: each documented invocation names real options,
    # and so does every backticked --flag in the prose
    text = README.read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.DOTALL | re.MULTILINE)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("batchbandit ")]
    parser = cli.build_parser()
    documented = set()
    for line in lines:
        try:
            documented.add(parser.parse_args(shlex.split(line, comments=True)[1:]).command)
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
    assert documented == set(cli.COMMANDS)
    prose = re.sub(r"^```.*?^```", "", text, flags=re.DOTALL | re.MULTILINE)
    spans = re.findall(r"`([^`]+)`", prose)
    flags = {flag for span in spans for flag in re.findall(r"(?<![\w-])--[\w-]+", span)}
    declared = {"--help"} | {"--" + p.name.replace("_", "-") for _, p in DECLARED}
    assert flags and flags <= declared, sorted(flags - declared)


def test_worst_case(tmp_path):
    out = tmp_path / "summary.json"
    assert main(["worst-case", "--epsilon", "0.25", "--limit-epsilon", "0",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["epsilon"] == 0.25
    assert doc["risk_star"] >= max(p["risk"] for p in doc["scan"])
    assert "limit" not in doc
    assert isinstance(doc["saddle"]["passed"], bool)
    assert list(doc["saddle"]) == ["passed", "max_loss_within_cutoff", "cutoff", "exceedances"]


def test_worst_case_tolerance_is_the_refine_bracket_width(tmp_path, monkeypatch):
    calls = {}

    def recorder(name):
        real = getattr(cli, name)

        def call(*args, **kwargs):
            calls[name] = kwargs
            return real(*args, **kwargs)

        return call

    for name in ("refine", "saddle_check"):
        monkeypatch.setattr(cli, name, recorder(name))
    argv = ["worst-case", "--epsilon", "0.25", "--tolerance", "0.5", "--limit-epsilon", "0",
            "--out", str(tmp_path / "summary.json")]
    assert main(argv) == 0
    # a bracket width in d, not the saddle check's loss slack in risk units
    assert calls == {"refine": {"tolerance": 0.5}, "saddle_check": {}}


def test_loss_curves(tmp_path):
    out = tmp_path / "curves.csv"
    argv = ["loss-curves", "--epsilon", "0.25", "--m", "100", "--d-min", "0.5", "--d-max", "1.0",
            "--step", "0.5", "--reps", "200", "--sim-every", "1", "--out", str(out)]
    assert main(argv) == 0
    header, *rows = out.read_text().splitlines()
    assert header.endswith("sim_mean,sim_se")
    assert [float(r.split(",")[0]) for r in rows] == [0.5, 1.0]
    for row in rows:
        d, bayes, frozen, bayes_ni, frozen_ni, sim_mean, sim_se = map(float, row.split(","))
        assert frozen >= bayes - 1e-5
        assert sim_se > 0.0 and abs(sim_mean - frozen) < 5.0 * sim_se + 1e-3


@pytest.mark.parametrize(
    "freeze, sha256",
    [
        ([], "a83ca8fafa390f3b40ee780497bd84045ec45f6b8bffa26d26a5338b4fac7f15"),
        (["--freeze-d", "0.5"],
         "faa5366dd73b30e356bae0aecf1dbb6f3354369a7cb43f7ad47bd1fd8c2fe4b6"),
    ],
    ids=["scanned-freeze", "given-freeze"],
)
def test_loss_curves_bytes_are_pinned(tmp_path, freeze, sha256):
    # ten packets: unlike four, the frozen columns differ with the freeze gap
    out = tmp_path / "curves.csv"
    argv = ["--epsilon", "0.1", "--m", "100", "--d-min", "0.5", "--d-max", "3",
            "--step", "1.25", "--reps", "200", "--sim-every", "1", "--out", str(out), *freeze]
    assert main(["loss-curves", *argv]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_loss_curves_failure_leaves_no_output(tmp_path, monkeypatch, capsys):
    out = tmp_path / "curves.csv"
    # from d = 3 on the arm probabilities leave (0, 1): refused before any solve,
    # which here would fail as an internal error (exit 1)
    monkeypatch.setattr(cli, "risk_curve", None)
    monkeypatch.setattr(cli, "scan", None)
    argv = ["--epsilon", "0.25", "--m", "2", "--d-min", "0.5", "--d-max", "4",
            "--step", "0.5", "--sim-every", "1", "--freeze-d", "1.0", "--reps", "50",
            "--out", str(out)]
    assert main(["loss-curves", *argv]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: arm probability") and err.count("\n") == 1
    for step in ("0", "-0.5"):  # a d range that never reaches --d-max
        assert main(["loss-curves", *argv[:9], step, *argv[10:]]) == 2
        assert capsys.readouterr().err.startswith("error: step must be positive")
        assert not out.exists()


def test_loss_curves_refuses_a_negative_sim_every(tmp_path, monkeypatch, capsys):
    out = tmp_path / "curves.csv"
    monkeypatch.setattr(cli, "risk_curve", None)  # refused before anything is solved
    monkeypatch.setattr(cli, "scan", None)
    argv = ["loss-curves", "--epsilon", "0.25", "--d-min", "0.5", "--d-max", "1.0",
            "--sim-every", "-1", "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: --sim-every must be nonnegative") and err.count("\n") == 1


def test_worst_case_bad_config_exits_2(tmp_path, capsys):
    out = tmp_path / "summary.json"
    assert main(["worst-case", "--epsilon", "0.3", "--limit-epsilon", "0",
                 "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: 1/epsilon must be an integer") and err.count("\n") == 1


@pytest.mark.parametrize(
    "limit, message",
    [
        ("0.3", "1/epsilon must be an integer, got 1/0.3"),
        ("0.01", "explicit scheme is unstable: eps=0.01"),  # 0.01 > du^2 on the pde grid
        ("-0.001", "epsilon must lie in (0, 0.5], got -0.001"),
    ],
)
def test_worst_case_refuses_a_bad_limit_epsilon_before_any_solve(
    tmp_path, monkeypatch, capsys, limit, message
):
    solves = []
    real = search.solve_invariant
    monkeypatch.setattr(
        search, "solve_invariant", lambda *a, **k: solves.append(a) or real(*a, **k)
    )
    out = tmp_path / "summary.json"
    argv = ["worst-case", "--epsilon", "0.02", "--limit-epsilon", limit, "--out", str(out)]
    assert main(argv) == 2
    assert _one_error_line(capsys).startswith(f"error: {message}")
    assert solves == [] and not out.exists()


def test_main_returns_the_code_of_an_argparse_exit(capsys):
    # an in-process caller gets the exit code back, not a SystemExit
    assert main(["solve", "--epsilon", "0.1", "--no-such-flag"]) == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    assert main(["solve", "--epsilon", "zero"]) == 2
    assert main(["--help"]) == 0
    assert "worst-case" in capsys.readouterr().out


def test_python_m_batchbandit_runs_the_cli():
    src = str(Path(cli.__file__).parents[1])  # the package's own tree, not an installed copy
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "batchbandit", *argv],
                              capture_output=True, text=True, env=env)

    help_ = run("--help")
    assert help_.returncode == 0 and "worst-case" in help_.stdout
    bare = run()
    assert bare.returncode == 2 and bare.stderr.startswith("usage: batchbandit")
