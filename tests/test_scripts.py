"""Smoke runs of the experiment scripts on small lattices."""

import hashlib
import json
import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def script_main(name):
    return runpy.run_path(str(SCRIPTS / name), run_name="script")["main"]


def test_worst_case_summary(tmp_path):
    out = tmp_path / "summary.json"
    main = script_main("worst_case_summary.py")
    assert main(["--epsilon", "0.25", "--skip-limit", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["epsilon"] == 0.25
    assert doc["risk_star"] >= max(p["risk"] for p in doc["scan"])
    assert "limit" not in doc
    assert isinstance(doc["saddle"]["passed"], bool)


def test_worst_case_summary_tolerance_is_the_refine_bracket_width(tmp_path):
    main = script_main("worst_case_summary.py")
    names = main.__globals__
    calls = {}

    def recorder(name):
        real = names[name]

        def call(*args, **kwargs):
            calls[name] = kwargs
            return real(*args, **kwargs)

        return call

    names.update(refine=recorder("refine"), saddle_check=recorder("saddle_check"))
    argv = ["--epsilon", "0.25", "--tolerance", "0.5", "--skip-limit", "--out",
            str(tmp_path / "summary.json")]
    assert main(argv) == 0
    # a bracket width in d, not the saddle check's loss slack in risk units
    assert calls == {"refine": {"tolerance": 0.5}, "saddle_check": {}}


def test_loss_curves(tmp_path):
    out = tmp_path / "curves.csv"
    main = script_main("loss_curves.py")
    argv = ["--epsilon", "0.25", "--m", "100", "--d-min", "0.5", "--d-max", "1.0",
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
    main = script_main("loss_curves.py")
    argv = ["--epsilon", "0.1", "--m", "100", "--d-min", "0.5", "--d-max", "3",
            "--step", "1.25", "--reps", "200", "--sim-every", "1", "--out", str(out), *freeze]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_loss_curves_failure_leaves_no_output(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    main = script_main("loss_curves.py")
    # from d = 3 on the arm probabilities leave (0, 1): refused before any solve,
    # which here would fail as an internal error (exit 1)
    main.__globals__["risk_curve"] = None
    main.__globals__["scan"] = None
    argv = ["--epsilon", "0.25", "--m", "2", "--d-min", "0.5", "--d-max", "4",
            "--step", "0.5", "--sim-every", "1", "--freeze-d", "1.0", "--reps", "50",
            "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: arm probability") and err.count("\n") == 1
    for step in ("0", "-0.5"):  # a d range that never reaches --d-max
        assert main([*argv[:9], step, *argv[10:]]) == 2
        assert capsys.readouterr().err.startswith("error: step must be positive")
        assert not out.exists()


def test_loss_curves_refuses_a_negative_sim_every(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    main = script_main("loss_curves.py")
    main.__globals__["risk_curve"] = None  # refused before anything is solved
    main.__globals__["scan"] = None
    argv = ["--epsilon", "0.25", "--d-min", "0.5", "--d-max", "1.0", "--sim-every", "-1",
            "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: --sim-every must be nonnegative") and err.count("\n") == 1


def test_worst_case_summary_bad_config_exits_2(tmp_path, capsys):
    out = tmp_path / "summary.json"
    main = script_main("worst_case_summary.py")
    assert main(["--epsilon", "0.3", "--skip-limit", "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: 1/epsilon must be an integer") and err.count("\n") == 1
