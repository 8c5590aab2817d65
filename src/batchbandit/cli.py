"""Command-line surface.

Each subcommand declares its parameters once as Param records; the parser,
the legal --config keys, the config-file type check and the resolved values
all come from there.  A value comes from its flag, else the flat JSON
--config file (unknown keys and wrong types are rejected), else the declared
default; an unset --u-max or --du takes the backend's library default
(UGrid's for dp, PdeConfig's for pde).  Output floats carry six significant
digits; files are written after the computation finishes (temp file +
rename), so failures leave nothing behind.  Exit codes: 0 success, 2
invalid configuration, an unreadable input or unwritable output file
(ConfigurationError), 1 anything else: a numerical failure or a bug.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .core import ConfigurationError, SymmetricPrior
from .dp import DpConfig, solve_invariant
from .pde import PdeConfig, solve_pde
from .search import backend_grid, d_range, refine, scan
from .simulate import BatchTrialConfig, simulate_bernoulli, simulate_gaussian
from .strategy_eval import RiskCurveRow, risk_curve
from .strategy_io import _read_json, atomic_write, load_strategy, save_strategy


@dataclass(frozen=True)
class Param:
    """One parameter of a subcommand: the flag --name (dashes for
    underscores) and the config key name, both resolving to one value."""

    name: str
    type: type = str
    default: object = None
    help: str | None = None
    choices: tuple | None = None
    required: bool = False

    def accepts(self, value) -> bool:
        """Whether a config-file value fits; JSON ints pass as floats, bools never."""
        kinds = (int, float) if self.type is float else self.type
        ok = isinstance(value, kinds) and not isinstance(value, bool)
        return ok and (self.choices is None or value in self.choices)


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


def resolve(command: Command, args: argparse.Namespace) -> dict:
    """Each parameter from its flag, else the --config file, else its
    declared default; u_max and du become one UGrid under "grid"."""
    file_cfg = {}
    if args.config:
        path = Path(args.config)
        file_cfg = _read_json(path, "config")
        if not isinstance(file_cfg, dict):
            raise ConfigurationError(f"{path}: config must be a JSON object")
        declared = {p.name: p for p in command.params}
        unknown = sorted(set(file_cfg) - set(declared))
        if unknown:
            raise ConfigurationError(f"{path}: unknown config keys: {unknown}")
        for key, value in file_cfg.items():  # null counts as not given
            p = declared[key]
            if value is not None and not p.accepts(value):
                raise ConfigurationError(
                    f"{path}: {key} must be a valid {p.type.__name__}, got {value!r}"
                )
    cfg = {}
    for p in command.params:
        value = getattr(args, p.name)
        if value is None:
            value = file_cfg.get(p.name)
        cfg[p.name] = p.default if value is None else value
    missing = [p.name for p in command.params if p.required and cfg[p.name] is None]
    if missing:
        raise ConfigurationError(f"missing required parameter(s): {missing}")
    if "du" in cfg:
        backend = cfg.get("backend", command.backend)
        cfg["grid"] = backend_grid(backend, cfg.pop("u_max"), cfg.pop("du"))
    return cfg


def _f6(x: float) -> str:
    """Six significant digits, positional notation."""
    return np.format_float_positional(float(x), precision=6, unique=False, fractional=False)


def _j6(x: float) -> float:
    return float(_f6(x))


def _resolve_prior(cfg: dict) -> tuple[SymmetricPrior, float | None]:
    """Prior from --d or --prior-file (atoms [[w, pi], ...], no other key)."""
    if cfg.get("prior_file"):
        path = Path(cfg["prior_file"])
        doc = _read_json(path, "prior")
        unknown = sorted(set(doc) - {"atoms"}) if isinstance(doc, dict) else []
        if unknown:
            raise ConfigurationError(f"{path}: unknown prior keys: {unknown}")
        try:
            atoms = tuple((w, p) for w, p in doc["atoms"])
            if not all(type(x) in (int, float) for atom in atoms for x in atom):  # no bool
                raise TypeError("w and pi must be JSON numbers")
        except (KeyError, TypeError, ValueError):
            raise ConfigurationError(f"{path}: expected {{'atoms': [[w, pi], ...]}}") from None
        return SymmetricPrior(atoms), None
    if cfg.get("d") is None:
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
    Param("epsilon", float, 0.02), Param("d_min", float, 0.2),
    Param("d_max", float, 20.0), Param("step", float, 0.2),
    Param("freeze_d", float,
          help="freeze the strategy at this d (default: the first local Bayes-risk maximum)"),
    *_GRID, Param("out", required=True, help="CSV output path"),
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
    Param("backend", default="dp", choices=("dp", "pde")), _EPSILON,
    Param("d_min", float, 0.5), Param("d_max", float, 2.5), Param("step", float, 0.25),
    Param("tolerance", float, 0.01, help="width at which refinement stops"), *_GRID, _OUT,
)
def _cmd_search(cfg: dict) -> dict:
    backend, eps, grid = cfg["backend"], cfg["epsilon"], cfg["grid"]
    curve = scan(cfg["d_min"], cfg["d_max"], cfg["step"], backend=backend, epsilon=eps, grid=grid)
    res = refine(curve, cfg["tolerance"])
    return {
        "backend": backend,
        "epsilon": eps,
        "d_star": _j6(res.d_star),
        "risk_star": _j6(res.risk_star),
        "boundary": res.boundary,
        "evaluations": res.evaluations,
        "curve": [{"d": _j6(p.d), "risk": _j6(p.risk)} for p in curve.points],
    }


@_command(
    "simulate", "Monte-Carlo trial driven by a strategy file",
    Param("t", int, 5000, help="total items"), Param("m", int, 100, help="packet size"),
    Param("p", float, 0.5, help="baseline success probability"), Param("d", float, 1.6),
    Param("strategy", required=True, help="CSV produced by export-strategy"),
    Param("reps", int, 10000), Param("seed", int, 0),
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="batchbandit",
        description="Minimax strategies for the Gaussian two-armed bandit under batch processing",
    )
    sub = parser.add_subparsers(dest="command")
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="flat JSON file with parameters; flags override")
        for param in command.params:
            flag = "--" + param.name.replace("_", "-")
            p.add_argument(flag, type=param.type, choices=param.choices, help=param.help)
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
    args = parser.parse_args(argv)
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
