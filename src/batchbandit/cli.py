"""Command-line surface.

Each parameter is one Param record, shared by every subcommand that takes
it, and argparse is the one place that decides its value: the flag, else
the declared default, with the declared type and choices, and a missing
required flag exits 2.  An unset --u-max or --du takes the backend's
library default (UGrid's for dp, PdeConfig's for pde).  Output floats
carry six significant digits, except in worst-case's summary, which prints
them at full precision; files are written after the computation finishes
(temp file + rename), so failures leave nothing behind.  Exit codes: 0
success, 2 invalid configuration, an unreadable input or unwritable
output file (ConfigurationError), 1 anything else: a numerical failure or
a bug.  main returns the code, an argparse error's 2 and --help's 0 too,
and raises nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .core import ConfigurationError, SymmetricPrior, UGrid, packet_count
from .dp import DpConfig, solve_invariant
from .pde import PdeConfig, solve_pde
from .search import backend_grid, check_tolerance, d_range, refine, saddle_check, scan
from .simulate import BatchTrialConfig, simulate_bernoulli, simulate_gaussian
from .strategy_eval import RiskCurveRow, risk_curve
from .strategy_io import _json_number, _read_json, atomic_write, load_strategy, save_strategy


@dataclass(frozen=True)
class Param:
    """One parameter of a subcommand: the flag --name (dashes for
    underscores) and what build_parser hands argparse for it."""

    name: str
    type: type = str
    default: object = None
    help: str | None = None
    choices: tuple | None = None
    required: bool = False


@dataclass(frozen=True)
class Command:
    run: Callable[[dict], dict | None]  # the JSON summary for --out, or None
    help: str
    params: tuple[Param, ...]
    backend: str  # whose default grid fills --u-max/--du unless --backend says


COMMANDS: dict[str, Command] = {}


def _command(name: str, help_: str, *params: Param, backend: str = "dp"):
    def register(run):
        COMMANDS[name] = Command(run, help_, params, backend)
        return run

    return register


_EPSILON = Param("epsilon", float, required=True, help="batch fraction M/T")
_D = Param("d", float, help="two-point prior gap")
_PRIOR_FILE = Param("prior_file", help="JSON prior {'atoms': [[w, pi], ...]}")
_GRID = (
    Param("u_max", float, help="u-grid half-width (default: the backend's)"),
    Param("du", float, help="u-grid spacing (default: the backend's)"),
)
_OUT = Param("out", help="summary JSON path (default: stdout)")
# the gap window of the worst-case search; loss-curves freezes at its default scan's best
_WINDOW = (
    Param("d_min", float, 0.5), Param("d_max", float, 2.5), Param("step", float, 0.25),
    Param("tolerance", float, 0.01, help="width in d at which refinement stops"),
)
# the range of gaps a curve CSV covers, and that CSV
_CURVE = (
    Param("epsilon", float, 0.02), Param("d_min", float, 0.2),
    Param("d_max", float, 20.0), Param("step", float, 0.2),
    Param("out", required=True, help="CSV output path"),
)
# packet size, baseline probability and seed of the Bernoulli trials
_TRIAL = (
    Param("m", int, 100, help="packet size"),
    Param("p", float, 0.5, help="baseline success probability"), Param("seed", int, 0),
)


def resolve(command: Command, args: argparse.Namespace) -> dict:
    """The parsed value of each parameter by name; u_max and du become one
    UGrid under "grid"."""
    cfg = {p.name: getattr(args, p.name) for p in command.params}
    if "du" in cfg:
        backend = cfg.get("backend", command.backend)
        cfg["grid"] = backend_grid(backend, cfg.pop("u_max"), cfg.pop("du"))
    return cfg


def _f6(x: float) -> str:
    """Six significant digits, positional notation."""
    return np.format_float_positional(float(x), precision=6, unique=False, fractional=False)


def _j6(x: float) -> float:
    return float(_f6(x))


def _scan_refine(cfg: dict, backend: str, epsilon: float, grid: UGrid | None = None):
    """Scan the window and refine its maximum, the tolerance checked before any solve."""
    check_tolerance(cfg["tolerance"])
    curve = scan(cfg["d_min"], cfg["d_max"], cfg["step"], backend=backend, epsilon=epsilon,
                 grid=grid)
    return curve, refine(curve, tolerance=cfg["tolerance"])


def _resolve_prior(cfg: dict) -> tuple[SymmetricPrior, float | None]:
    """Prior from --d or --prior-file (atoms [[w, pi], ...], no other key)."""
    if cfg["prior_file"] and cfg["d"] is not None:
        raise ConfigurationError("give either --d or --prior-file, not both")
    if cfg["prior_file"]:
        path = Path(cfg["prior_file"])
        doc = _read_json(path, "prior")
        unknown = sorted(set(doc) - {"atoms"}) if isinstance(doc, dict) else []
        if unknown:
            raise ConfigurationError(f"{path}: unknown prior keys: {unknown}")
        try:
            atoms = tuple((w, p) for w, p in doc["atoms"])
            if not all(_json_number(x) for atom in atoms for x in atom):
                raise TypeError("w and pi must be JSON numbers")
        except (KeyError, TypeError, ValueError):
            raise ConfigurationError(f"{path}: expected {{'atoms': [[w, pi], ...]}}") from None
        return SymmetricPrior(atoms), None
    if cfg["d"] is None:
        raise ConfigurationError("need either --d or --prior-file")
    return SymmetricPrior.two_point(cfg["d"]), cfg["d"]


@_command(
    "solve", "backward recursion at a fixed batch fraction",
    _EPSILON, _D, _PRIOR_FILE, *_GRID, _OUT,
)
def _cmd_solve(cfg: dict) -> dict:
    prior, d = _resolve_prior(cfg)
    out = solve_invariant(DpConfig(cfg["epsilon"], prior, cfg["grid"]), keep_strategy=False)
    return {
        "epsilon": cfg["epsilon"],
        "d": d,
        "bayes_risk": _j6(out.bayes_risk),
        "bayes_risk_no_initial": _j6(out.bayes_risk_no_initial),
    }


@_command(
    "figure1", "risk and frozen-strategy loss curves as CSV",
    *_CURVE,
    Param("freeze_d", float,
          help="freeze the strategy at this d (default: the first local Bayes-risk maximum)"),
    *_GRID,
)
def _cmd_figure1(cfg: dict) -> None:
    _, rows = risk_curve(
        d_range(cfg["d_min"], cfg["d_max"], cfg["step"]), cfg["epsilon"],
        grid=cfg["grid"], freeze_d=cfg["freeze_d"],
    )
    lines = [",".join(f.name for f in fields(RiskCurveRow))]
    lines += [",".join(_f6(x) for x in astuple(r)) for r in rows]
    text = "\n".join(lines) + "\n"
    atomic_write(Path(cfg["out"]), lambda tmp: tmp.write_text(text))


@_command(
    "pde", "diffusion-limit risk",
    Param("epsilon", float, 0.001), _D, _PRIOR_FILE, *_GRID, _OUT, backend="pde",
)
def _cmd_pde(cfg: dict) -> dict:
    prior, d = _resolve_prior(cfg)
    sol = solve_pde(PdeConfig(cfg["epsilon"], prior, cfg["grid"]))
    return {
        "epsilon": cfg["epsilon"],
        "d": d,
        "du": cfg["grid"].du,
        "limit_risk": _j6(sol.limit_risk),
        "limit_risk_no_initial": _j6(sol.limit_risk_no_initial),
    }


@_command(
    "search", "worst-case gap scan and refinement",
    Param("backend", default="dp", choices=("dp", "pde")), _EPSILON, *_WINDOW, *_GRID, _OUT,
)
def _cmd_search(cfg: dict) -> dict:
    curve, res = _scan_refine(cfg, cfg["backend"], cfg["epsilon"], cfg["grid"])
    return {
        "backend": cfg["backend"],
        "epsilon": cfg["epsilon"],
        "d_star": _j6(res.d_star),
        "risk_star": _j6(res.risk_star),
        "boundary": res.boundary,
        "evaluations": res.evaluations,
        "curve": [{"d": _j6(p.d), "risk": _j6(p.risk)} for p in curve.points],
    }


@_command(
    "simulate", "Monte-Carlo trial driven by a strategy file",
    Param("t", int, 5000, help="total items"), *_TRIAL, Param("d", float, 1.6),
    Param("strategy", required=True, help="CSV produced by export-strategy"),
    Param("reps", int, 10000),
    Param("model", default="bernoulli", choices=("bernoulli", "gaussian")),
    Param("orientation", int, choices=(-1, 1)), _OUT,
)
def _cmd_simulate(cfg: dict) -> dict:
    table = load_strategy(cfg["strategy"])
    if cfg["model"] == "bernoulli":
        trial = BatchTrialConfig(
            cfg["t"], cfg["m"], cfg["p"], cfg["d"], cfg["reps"], cfg["seed"],
            orientation=cfg["orientation"],
        )
        res = simulate_bernoulli(trial, table)
        echo = ("model", "t", "m", "p", "d")
    else:  # the Gaussian model takes its packet count from the table
        res = simulate_gaussian(
            table.n_packets, cfg["d"], table, cfg["reps"], cfg["seed"],
            orientation=cfg["orientation"],
        )
        echo = ("model", "d")
    return {
        **{k: cfg[k] for k in echo},
        "n_packets": table.n_packets,
        "replications": res.replications,
        "normalized_loss_mean": _j6(res.normalized_loss_mean),
        "standard_error": _j6(res.standard_error),
    }


@_command(
    "export-strategy", "solve and write the strategy table CSV",
    _EPSILON, _D, _PRIOR_FILE, *_GRID, Param("out", required=True, help="strategy CSV path"),
)
def _cmd_export_strategy(cfg: dict) -> None:
    prior, _ = _resolve_prior(cfg)
    out = solve_invariant(DpConfig(cfg["epsilon"], prior, cfg["grid"]))
    save_strategy(out.strategy, cfg["out"], prior)


@_command(
    "worst-case", "finite-epsilon worst case against the diffusion limit, with the saddle check",
    Param("epsilon", float, 0.02, help="batch fraction M/T"), *_WINDOW,
    Param("limit_epsilon", float, 0.001, help="the diffusion limit's epsilon; 0 skips the limit"),
    _OUT,
)
def _cmd_worst_case(cfg: dict) -> dict:
    """The dp scan and refinement over the window, the same by the diffusion
    scheme at limit_epsilon, both maxima, the batching penalty ratio and a
    frozen-strategy saddle check; about ten seconds at the defaults."""
    t0 = time.perf_counter()
    if cfg["limit_epsilon"]:  # the limit scan's first config, refused before any dp solve
        d_min = d_range(cfg["d_min"], cfg["d_max"], cfg["step"])[0]
        PdeConfig(cfg["limit_epsilon"], SymmetricPrior.two_point(d_min), backend_grid("pde"))
    curve, dp_res = _scan_refine(cfg, "dp", cfg["epsilon"])
    summary = {"epsilon": cfg["epsilon"], "d_star": dp_res.d_star, "risk_star": dp_res.risk_star,
               "scan": [asdict(p) for p in curve.points]}
    if cfg["limit_epsilon"]:
        _, limit = _scan_refine(cfg, "pde", cfg["limit_epsilon"])
        summary["limit"] = {"epsilon": cfg["limit_epsilon"], "d_star": limit.d_star,
                            "risk_star": limit.risk_star}
        summary["batching_penalty"] = dp_res.risk_star / limit.risk_star
    report = saddle_check(dp_res.d_star, cfg["epsilon"])
    summary["saddle"] = {
        "passed": report.passed,
        "max_loss_within_cutoff": report.max_within_cutoff,
        "cutoff": report.cutoff,
        "exceedances": [asdict(r) for r in report.exceedances],
    }
    summary["seconds"] = round(time.perf_counter() - t0, 2)
    return summary


@_command(
    "loss-curves", "figure1's curves with Monte-Carlo spot checks of the frozen column",
    *_CURVE, *_TRIAL, Param("reps", int, 20000),
    Param("sim_every", int, 10, help="simulate every n-th row; 0 disables simulation"),
    Param("freeze_d", float, help="freeze the strategy here instead of scanning"),
)
def _cmd_loss_curves(cfg: dict) -> None:
    """figure1's columns, the strategy frozen at the worst case of the default
    search window, and on every sim_every-th row the Bernoulli-trial estimate
    of the frozen strategy's loss with its standard error; it should track the
    frozen column within a few standard errors.  Each replication plays
    T = M/epsilon items in packets of M.  Numbers are written as %.6g."""
    every, eps = cfg["sim_every"], cfg["epsilon"]
    if every < 0:
        raise ConfigurationError(f"--sim-every must be nonnegative, got {every}")
    ds = d_range(cfg["d_min"], cfg["d_max"], cfg["step"])
    n_items = cfg["m"] * packet_count(eps)

    def trial(i: int) -> BatchTrialConfig:
        return BatchTrialConfig(n_items, cfg["m"], cfg["p"], ds[i], cfg["reps"], cfg["seed"] + i)

    if every:
        # the seed grows with the row and the arm probabilities p +- delta
        # spread with d: the first and the last simulated rows fail first, so
        # check both before anything is solved
        for i in (0, (len(ds) - 1) // every * every):
            trial(i)
    freeze_d = cfg["freeze_d"]
    if freeze_d is None:
        window = (p.default for p in _WINDOW[:3])
        freeze_d = scan(*window, backend="dp", epsilon=eps).best().d
    table, rows = risk_curve(ds, eps, freeze_d=freeze_d)
    lines = [",".join([*(f.name for f in fields(RiskCurveRow)), "sim_mean", "sim_se"])]
    for i, row in enumerate(rows):
        sim = ["", ""]
        if every and i % every == 0:
            res = simulate_bernoulli(trial(i), table)
            sim = [f"{res.normalized_loss_mean:.6g}", f"{res.standard_error:.6g}"]
        lines.append(",".join([*(f"{x:.6g}" for x in astuple(row)), *sim]))
    text = "\n".join(lines) + "\n"
    atomic_write(Path(cfg["out"]), lambda tmp: tmp.write_text(text))
    print(f"{cfg['out']}: {len(rows)} rows, strategy frozen at d={freeze_d:.4g}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="batchbandit",
        description="Minimax strategies for the Gaussian two-armed bandit under batch processing",
    )
    sub = parser.add_subparsers(dest="command")
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for param in command.params:
            p.add_argument("--" + param.name.replace("_", "-"), type=param.type,
                           default=param.default, choices=param.choices,
                           required=param.required, help=param.help)
    return parser


def exit_code(run: Callable[[], None]) -> int:
    """run()'s exit code (see the module docstring), a failure printed as one stderr line."""
    try:
        run()
        return 0
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's usage error (2) or --help (0)
        return exc.code
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    command = COMMANDS[args.command]

    def run() -> None:
        cfg = resolve(command, args)
        summary = command.run(cfg)
        if summary is not None:
            text = json.dumps(summary, indent=2) + "\n"
            if cfg["out"]:
                atomic_write(Path(cfg["out"]), lambda tmp: tmp.write_text(text))
            else:
                sys.stdout.write(text)

    return exit_code(run)


if __name__ == "__main__":
    sys.exit(main())
