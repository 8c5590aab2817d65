"""CLI subcommands: summaries, file outputs, exit codes, config layering."""

import hashlib
import json

import numpy as np
import pytest

from batchbandit import cli, search, strategy_eval
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


def test_prior_file_with_a_nan_weight_exits_2(tmp_path, capsys):
    pf = tmp_path / "prior.json"
    pf.write_text('{"atoms": [[1.0, NaN]]}')  # Python's json reads NaN
    assert main(["solve", "--epsilon", "0.1", "--prior-file", str(pf)]) == 2
    assert "weights must be positive and finite" in capsys.readouterr().err


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


def test_solve_builds_the_action_table_only_for_strategy_out(tmp_path, monkeypatch, capsys):
    seen = []

    def spy(config, **kwargs):
        seen.append(kwargs.get("keep_strategy", True))
        return solve_invariant(config, **kwargs)

    monkeypatch.setattr(cli, "solve_invariant", spy)
    argv = ["solve", "--epsilon", "0.25", "--d", "1.0", "--u-max", "2.0", "--du", "0.05"]
    run_json(capsys, argv)
    assert main([*argv, "--strategy-out", str(tmp_path / "s.csv")]) == 0
    assert seen == [False, True]


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
    doc = run_json(capsys, ["search", "--backend", "dp", "--epsilon", "0.02"])
    assert 1.5 <= doc["d_star"] <= 1.75
    assert doc["risk_star"] == pytest.approx(0.65, abs=0.02)
    assert doc["boundary"] is False
    assert len(doc["curve"]) == 9


def test_search_multi_atom_needs_dp(capsys):
    rc = main(["search", "--backend", "pde", "--epsilon", "0.01",
               "--multi-atom", "2"])
    assert rc == 2


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
    return {bool: True, int: 3, float: 0.375, str: "x.json"}[param.type]


def _flag(param, value):
    flag = "--" + param.name.replace("_", "-")
    return [flag] if value is True else [flag, str(value)]


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
