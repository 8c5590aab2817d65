"""Command-line surface.

Subcommands wrap the solver pipelines and emit JSON summaries or CSV
curves.  A flat JSON file passed as --config supplies any subset of a
command's parameters; explicit flags override it and unknown keys are
rejected.  All floats in outputs carry six significant digits; files are
written after the computation finishes (temp file + rename), so failures
leave nothing behind.  Exit codes: 0 success, 2 invalid configuration or
input file (ConfigurationError), 1 anything else: a numerical failure or a
bug.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .core import ConfigurationError, SymmetricPrior, UGrid
from .dp import DpConfig, solve_invariant
from .pde import PdeConfig, solve_pde
from .search import refine, scan, search_multi_atom
from .simulate import BatchTrialConfig, simulate_bernoulli, simulate_gaussian
from .strategy_eval import EvalStrategy, risk_curve
from .strategy_io import atomic_write, load_strategy, save_strategy

_FIGURE1_HEADER = "d,bayes_risk,expected_loss,bayes_risk_no_init,expected_loss_no_init"


def _f6(x: float) -> str:
    """Six significant digits, positional notation."""
    return np.format_float_positional(float(x), precision=6, unique=False, fractional=False)


def _j6(x: float) -> float:
    return float(_f6(x))


def _emit(summary: dict, out: str | None) -> None:
    text = json.dumps(summary, indent=2) + "\n"
    if out:
        atomic_write(Path(out), lambda tmp: tmp.write_text(text))
    else:
        sys.stdout.write(text)


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Layer resolved parameters: flag > config file > default."""
    file_cfg = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigurationError(f"no such config file: {path}")
        try:
            file_cfg = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigurationError(f"{path}: config must be a JSON object")
        unknown = sorted(set(file_cfg) - set(defaults))
        if unknown:
            raise ConfigurationError(f"{args.config}: unknown config keys: {unknown}")
        for key, value in file_cfg.items():
            _check_file_value(path, key, value, args.options[key])
    merged = {}
    for key, default in defaults.items():
        value = getattr(args, key, None)
        if value is None:
            value = file_cfg.get(key)
        merged[key] = value if value is not None else default
    return merged


def _check_file_value(path: Path, key: str, value, action: argparse.Action) -> None:
    """Hold a config-file value to the type and choices of its flag; null
    counts as not given and JSON integers pass as floats."""
    if value is None:
        return
    kind = bool if isinstance(action, argparse.BooleanOptionalAction) else action.type or str
    ok = isinstance(value, (int, float) if kind is float else kind)
    ok = ok and (kind is bool or not isinstance(value, bool))
    if not ok or (action.choices is not None and value not in action.choices):
        raise ConfigurationError(f"{path}: {key} must be a valid {kind.__name__}, got {value!r}")


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if cfg[k] is None]
    if missing:
        raise ConfigurationError(f"missing required parameter(s): {missing}")


def _resolve_prior(cfg: dict) -> tuple[SymmetricPrior, float | None]:
    """Prior from --d or --prior-file (atoms [[w, pi], ...] plus optional c)."""
    if cfg.get("prior_file"):
        path = Path(cfg["prior_file"])
        if not path.exists():
            raise ConfigurationError(f"no such prior file: {path}")
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON: {exc}") from None
        try:
            atoms = tuple((float(w), float(p)) for w, p in doc["atoms"])
            c = doc.get("c")
            c = math.inf if c in (None, "inf") else float(c)
        except (AttributeError, KeyError, TypeError, ValueError):
            raise ConfigurationError(
                f"{path}: expected {{'atoms': [[w, pi], ...], 'c': optional}}"
            ) from None
        return SymmetricPrior(atoms, c=c), None
    if cfg.get("d") is None:
        raise ConfigurationError("need either --d or --prior-file")
    return SymmetricPrior.two_point(cfg["d"]), cfg["d"]


def _cmd_solve(args) -> int:
    cfg = _merge_config(
        args,
        dict(
            epsilon=None, d=None, prior_file=None, u_max=4.0, du=0.01,
            out=None, strategy_out=None,
        ),
    )
    _require(cfg, "epsilon")
    prior, d = _resolve_prior(cfg)
    out = solve_invariant(
        DpConfig(cfg["epsilon"], prior, UGrid(cfg["u_max"], cfg["du"])),
        keep_strategy=bool(cfg["strategy_out"]),
    )
    if cfg["strategy_out"]:
        save_strategy(out.strategy, cfg["strategy_out"], prior)
    _emit(
        {
            "epsilon": cfg["epsilon"],
            "d": d,
            "bayes_risk": _j6(out.bayes_risk),
            "bayes_risk_no_initial": _j6(out.bayes_risk_no_initial),
        },
        cfg["out"],
    )
    return 0


def _cmd_figure1(args) -> int:
    cfg = _merge_config(
        args,
        dict(
            epsilon=0.02, d_min=0.2, d_max=20.0, step=0.2, freeze_d=None,
            u_max=4.0, du=0.01, out=None,
        ),
    )
    _require(cfg, "out")
    if not (0.0 < cfg["d_min"] <= cfg["d_max"] and cfg["step"] > 0.0):
        raise ConfigurationError(
            f"bad d range [{cfg['d_min']}, {cfg['d_max']}] step {cfg['step']}"
        )
    grid = UGrid(cfg["u_max"], cfg["du"])
    eps = cfg["epsilon"]
    ds = [cfg["d_min"]]
    while ds[-1] + cfg["step"] <= cfg["d_max"] + 1e-12:
        ds.append(ds[-1] + cfg["step"])

    if cfg["freeze_d"] is not None:
        d_star = cfg["freeze_d"]
    else:
        curve = scan(cfg["d_min"], cfg["d_max"], cfg["step"], backend="dp", epsilon=eps, grid=grid)
        d_star = curve.best().d
    frozen = EvalStrategy.from_table(
        solve_invariant(DpConfig(eps, SymmetricPrior.two_point(d_star), grid)).strategy
    )
    rows = risk_curve(ds, eps, grid=grid, strategy=frozen)
    lines = [_FIGURE1_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                _f6(x)
                for x in (
                    r.d, r.bayes_risk, r.expected_loss,
                    r.bayes_risk_no_init, r.expected_loss_no_init,
                )
            )
        )
    text = "\n".join(lines) + "\n"
    atomic_write(Path(cfg["out"]), lambda tmp: tmp.write_text(text))
    return 0


def _cmd_pde(args) -> int:
    cfg = _merge_config(
        args,
        dict(epsilon=0.001, d=None, prior_file=None, du=0.032, u_max=2.3, out=None),
    )
    prior, d = _resolve_prior(cfg)
    sol = solve_pde(PdeConfig(cfg["epsilon"], prior, du=cfg["du"], u_max=cfg["u_max"]))
    _emit(
        {
            "epsilon": cfg["epsilon"],
            "d": d,
            "du": cfg["du"],
            "limit_risk": _j6(sol.limit_risk),
            "limit_risk_no_initial": _j6(sol.limit_risk_no_initial),
        },
        cfg["out"],
    )
    return 0


def _cmd_search(args) -> int:
    cfg = _merge_config(
        args,
        dict(
            backend="dp", epsilon=None, d_min=0.5, d_max=2.5, step=0.25,
            tolerance=0.01, u_max=None, du=None, multi_atom=None, out=None,
        ),
    )
    _require(cfg, "epsilon")
    grid = None
    if cfg["u_max"] is not None or cfg["du"] is not None:
        if cfg["u_max"] is None or cfg["du"] is None:
            raise ConfigurationError("--u-max and --du must be given together")
        grid = UGrid(cfg["u_max"], cfg["du"])
    curve = scan(
        cfg["d_min"], cfg["d_max"], cfg["step"],
        backend=cfg["backend"], epsilon=cfg["epsilon"], grid=grid,
    )
    res = refine(curve, cfg["tolerance"])
    summary = {
        "backend": cfg["backend"],
        "epsilon": cfg["epsilon"],
        "d_star": _j6(res.d_star),
        "risk_star": _j6(res.risk_star),
        "boundary": res.boundary,
        "evaluations": res.evaluations,
        "curve": [{"d": _j6(p.d), "risk": _j6(p.risk)} for p in curve.points],
    }
    if cfg["multi_atom"]:
        if cfg["backend"] != "dp":
            raise ConfigurationError("--multi-atom runs on the dp backend only")
        ma = search_multi_atom(cfg["epsilon"], cfg["multi_atom"], grid=grid)
        summary["multi_atom"] = {
            "risk": _j6(ma.risk),
            "atoms": [[_j6(w), _j6(p)] for w, p in ma.prior.atoms],
            "evaluations": ma.evaluations,
        }
    _emit(summary, cfg["out"])
    return 0


def _cmd_simulate(args) -> int:
    cfg = _merge_config(
        args,
        dict(
            t=5000, m=100, p=0.5, d=1.6, strategy=None, reps=10000, seed=0,
            model="bernoulli", per_item=False, orientation=None, out=None,
        ),
    )
    _require(cfg, "strategy")
    table = load_strategy(cfg["strategy"])
    if cfg["model"] == "bernoulli":
        trial = BatchTrialConfig(
            n_items=cfg["t"], batch_size=cfg["m"], p=cfg["p"], d=cfg["d"],
            replications=cfg["reps"], seed=cfg["seed"],
            per_item=cfg["per_item"], orientation=cfg["orientation"],
        )
        res = simulate_bernoulli(trial, table)
    elif cfg["model"] == "gaussian":
        res = simulate_gaussian(
            table.n_packets, cfg["d"], table, cfg["reps"], cfg["seed"],
            orientation=cfg["orientation"],
        )
    else:
        raise ConfigurationError(f"model must be 'bernoulli' or 'gaussian', got {cfg['model']!r}")
    _emit(
        {
            "model": cfg["model"],
            "t": cfg["t"],
            "m": cfg["m"],
            "p": cfg["p"],
            "d": cfg["d"],
            "replications": res.replications,
            "normalized_loss_mean": _j6(res.normalized_loss_mean),
            "standard_error": _j6(res.standard_error),
        },
        cfg["out"],
    )
    return 0


def _cmd_export_strategy(args) -> int:
    cfg = _merge_config(
        args,
        dict(epsilon=None, d=None, prior_file=None, u_max=4.0, du=0.01, out=None),
    )
    _require(cfg, "epsilon", "out")
    prior, _ = _resolve_prior(cfg)
    out = solve_invariant(DpConfig(cfg["epsilon"], prior, UGrid(cfg["u_max"], cfg["du"])))
    save_strategy(out.strategy, cfg["out"], prior)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="batchbandit",
        description="Minimax strategies for the Gaussian two-armed bandit under batch processing",
    )
    sub = parser.add_subparsers(dest="command")

    def add(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="flat JSON file with parameters; flags override")
        p.set_defaults(func=func)
        return p

    p = add("solve", _cmd_solve, "backward recursion at a fixed batch fraction")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--d", type=float, help="two-point prior gap")
    p.add_argument("--prior-file", help="JSON prior {'atoms': [[w, pi], ...]}")
    p.add_argument("--u-max", type=float)
    p.add_argument("--du", type=float)
    p.add_argument("--out", help="summary JSON path (default: stdout)")
    p.add_argument("--strategy-out", help="also export the strategy table CSV")

    p = add("figure1", _cmd_figure1, "risk and frozen-strategy loss curves as CSV")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--d-min", type=float)
    p.add_argument("--d-max", type=float)
    p.add_argument("--step", type=float)
    p.add_argument("--freeze-d", type=float, help="freeze the strategy at this d (default: scanned worst)")
    p.add_argument("--u-max", type=float)
    p.add_argument("--du", type=float)
    p.add_argument("--out", help="CSV output path")

    p = add("pde", _cmd_pde, "diffusion-limit risk")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--d", type=float)
    p.add_argument("--prior-file")
    p.add_argument("--du", type=float)
    p.add_argument("--u-max", type=float)
    p.add_argument("--out")

    p = add("search", _cmd_search, "worst-case gap scan and refinement")
    p.add_argument("--backend", choices=("dp", "pde"))
    p.add_argument("--epsilon", type=float)
    p.add_argument("--d-min", type=float)
    p.add_argument("--d-max", type=float)
    p.add_argument("--step", type=float)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--u-max", type=float)
    p.add_argument("--du", type=float)
    p.add_argument("--multi-atom", type=int, help="experimental: coordinate ascent over this many atom pairs")
    p.add_argument("--out")

    p = add("simulate", _cmd_simulate, "Monte-Carlo trial driven by a strategy file")
    p.add_argument("--t", type=int, help="total items")
    p.add_argument("--m", type=int, help="packet size")
    p.add_argument("--p", type=float, help="baseline success probability")
    p.add_argument("--d", type=float)
    p.add_argument("--strategy", help="CSV produced by export-strategy")
    p.add_argument("--reps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--model", choices=("bernoulli", "gaussian"))
    p.add_argument("--per-item", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--orientation", type=int, choices=(-1, 1))
    p.add_argument("--out")

    p = add("export-strategy", _cmd_export_strategy, "solve and write the strategy table CSV")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--d", type=float)
    p.add_argument("--prior-file")
    p.add_argument("--u-max", type=float)
    p.add_argument("--du", type=float)
    p.add_argument("--out")

    for p in sub.choices.values():
        p.set_defaults(options={a.dest: a for a in p._actions})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
