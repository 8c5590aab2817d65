"""CLI subcommands: summaries, file outputs, exit codes, config layering."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from batchbandit import cli, search, simulate, strategy_eval
from batchbandit.cli import main
from batchbandit.core import ConfigurationError, SymmetricPrior, UGrid
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


@pytest.mark.parametrize("command", ["solve", "export-strategy"])
def test_grid_too_large_for_memory_exits_2_before_allocating(tmp_path, capsys, command):
    # 2e15 grid points: the sweep alone needs about 4 * 3 * 2e15 * 8 bytes
    argv = [command, "--epsilon", "0.5", "--d", "1", "--u-max", "1e6", "--du", "1e-9"]
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


HUGE = 10**400  # a JSON integer beyond float range


@pytest.mark.parametrize(
    "command, doc",
    [
        ("solve --epsilon 0.5 --prior-file", {"atoms": [[HUGE, 1.0]]}),
        ("solve --config", {"epsilon": 0.5, "d": HUGE}),
        ("solve --config", {"epsilon": 0.5, "d": 1.0, "du": HUGE}),
        ("search --epsilon 0.5 --config", {"d_max": HUGE}),
        ("simulate --strategy STRATEGY --config", {"t": HUGE, "m": 100}),
    ],
    ids=["prior-file-w", "config-d", "config-du", "config-d_max", "config-t"],
)
def test_integer_beyond_float_range_exits_2(tmp_path, capsys, command, doc):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    argv = command.split() + [str(path)]
    if "STRATEGY" in argv:
        argv[argv.index("STRATEGY")] = str(_export_tenth(tmp_path))
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


def test_config_file_supplies_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"epsilon": 0.5, "d": 2.0}))
    doc = run_json(capsys, ["solve", "--config", str(cfg)])
    assert doc["bayes_risk"] == 2.0
    doc = run_json(capsys, ["solve", "--config", str(cfg), "--d", "1.0"])
    assert doc["bayes_risk"] == 1.0


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"epsilon": 0.5, "d": 1.0, "foo": 3}))
    rc = main(["solve", "--config", str(cfg)])
    assert rc == 2
    assert "foo" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["simulate", "--strategy", "unused.csv"], {"t": "x"}),
        (["solve"], {"epsilon": "x", "d": 1.0}),
    ],
)
def test_config_file_value_of_wrong_type_exits_2(tmp_path, capsys, argv, doc):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    assert main([*argv, "--config", str(cfg)]) == 2
    assert next(iter(doc)) in capsys.readouterr().err


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
        "config": ["solve", "--config", str(bad)],
        "prior": ["solve", "--epsilon", "0.1", "--prior-file", str(bad)],
        "solve": ["solve", "--epsilon", "0.5", "--d", "1.0"],
        "export": ["export-strategy", "--epsilon", "0.5", "--d", "1.0"],
    }.get(kind, simulate)
    return [*argv, "--out", str(out)], bad, out


@pytest.mark.parametrize(
    "kind, content",
    [
        ("config", "directory"), ("config", "0xff"), ("config", "deep"),
        ("prior", "0xff"), ("prior", "deep"),
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
def test_config_file_with_a_removed_option_exits_2(tmp_path, capsys, argv, key, value):
    # a config file written for an older release fails loudly, not silently
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    assert main([*argv, "--config", str(cfg)]) == 2
    assert f"unknown config keys: ['{key}']" in capsys.readouterr().err


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
def test_every_parameter_resolves_alike_from_flag_and_config(tmp_path, name, param):
    command = cli.COMMANDS[name]
    base = [tok for p in command.params if p.required and p is not param
            for tok in _flag(p, _sample(p))]
    value = _sample(param)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({param.name: value}))

    def resolve(*argv):
        return cli.resolve(command, cli.build_parser().parse_args([name, *base, *argv]))

    from_flag = resolve(*_flag(param, value))
    assert resolve("--config", str(config)) == from_flag
    if param.required:
        with pytest.raises(ConfigurationError, match=param.name):
            resolve()
    else:
        assert resolve() != from_flag


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
