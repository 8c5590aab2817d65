#!/usr/bin/env python3
"""Worst-case risk at a finite batch fraction versus the diffusion limit.

Sweeps the normalized prior gap d for the chosen epsilon, repeats the sweep
with the explicit diffusion scheme at a small epsilon, and reports both
maxima, the batching penalty ratio and a frozen-strategy saddle sweep as one
JSON summary on stdout (or --out).

Typical run (about half a minute):

    python3 scripts/worst_case_summary.py --epsilon 0.02
"""

import argparse
import json
import sys
import time
from pathlib import Path

from batchbandit.cli import exit_code
from batchbandit.search import refine, saddle_check, scan
from batchbandit.strategy_io import atomic_write


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--epsilon", type=float, default=0.02)
    ap.add_argument("--d-min", type=float, default=0.5)
    ap.add_argument("--d-max", type=float, default=2.5)
    ap.add_argument("--step", type=float, default=0.25)
    ap.add_argument("--tolerance", type=float, default=0.01)
    ap.add_argument("--limit-epsilon", type=float, default=0.001)
    ap.add_argument("--skip-limit", action="store_true", help="dp sweep only")
    ap.add_argument("--out", help="summary JSON path (default: stdout)")
    args = ap.parse_args(argv)
    return exit_code(lambda: summarize(args))


def summarize(args) -> None:
    t0 = time.perf_counter()
    curve = scan(args.d_min, args.d_max, args.step, backend="dp", epsilon=args.epsilon)
    dp_res = refine(curve, tolerance=args.tolerance)
    summary = {
        "epsilon": args.epsilon,
        "d_star": dp_res.d_star,
        "risk_star": dp_res.risk_star,
        "scan": [{"d": p.d, "risk": p.risk} for p in curve.points],
    }

    if not args.skip_limit:
        limit_curve = scan(
            args.d_min, args.d_max, args.step, backend="pde", epsilon=args.limit_epsilon
        )
        limit_res = refine(limit_curve, tolerance=args.tolerance)
        summary["limit"] = {
            "epsilon": args.limit_epsilon,
            "d_star": limit_res.d_star,
            "risk_star": limit_res.risk_star,
        }
        summary["batching_penalty"] = dp_res.risk_star / limit_res.risk_star

    report = saddle_check(dp_res.d_star, args.epsilon, tolerance=args.tolerance)
    summary["saddle"] = {
        "passed": report.passed,
        "max_loss_within_cutoff": report.max_within_cutoff,
        "equality_gap": report.equality_gap,
        "cutoff": report.cutoff,
        "exceedances": [
            {"d": r.d, "loss": r.loss, "loss_no_initial": r.loss_no_initial}
            for r in report.exceedances
        ],
    }

    summary["seconds"] = round(time.perf_counter() - t0, 2)
    text = json.dumps(summary, indent=2)
    if args.out:
        atomic_write(Path(args.out), lambda tmp: tmp.write_text(text + "\n"))
    else:
        print(text)


if __name__ == "__main__":
    sys.exit(main())
