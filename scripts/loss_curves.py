#!/usr/bin/env python3
"""Loss curves against the prior gap d, with Monte-Carlo spot checks.

Columns: the reoptimized Bayes risk, the expected loss of the strategy
frozen at the scanned worst-case d, both with the forced initial stage
removed, and on every --sim-every-th row the Bernoulli-trial estimate of the
frozen strategy's loss with its standard error.  The frozen-strategy column
keeps growing past the worst case while the reoptimized one flattens; the
simulation column should track the frozen one within a few standard errors.
Each simulated replication plays T = M/epsilon items in packets of M (--m).

    python3 scripts/loss_curves.py --epsilon 0.02 --out curves.csv
"""

import argparse
import sys
from dataclasses import astuple, fields
from pathlib import Path

from batchbandit.cli import exit_code
from batchbandit.core import ConfigurationError, packet_count
from batchbandit.search import d_range, scan
from batchbandit.simulate import BatchTrialConfig, simulate_bernoulli
from batchbandit.strategy_eval import RiskCurveRow, risk_curve
from batchbandit.strategy_io import atomic_write


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--epsilon", type=float, default=0.02)
    ap.add_argument("--d-min", type=float, default=0.2)
    ap.add_argument("--d-max", type=float, default=20.0)
    ap.add_argument("--step", type=float, default=0.2)
    ap.add_argument("--m", type=int, default=100, help="packet size")
    ap.add_argument("--p", type=float, default=0.5)
    ap.add_argument("--reps", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sim-every", type=int, default=10, help="0 disables simulation")
    ap.add_argument(
        "--freeze-d", type=float, help="freeze the strategy here instead of scanning"
    )
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    return exit_code(lambda: write_curves(args))


def write_curves(args) -> None:
    if args.sim_every < 0:
        raise ConfigurationError(f"--sim-every must be nonnegative, got {args.sim_every}")
    ds = d_range(args.d_min, args.d_max, args.step)
    n_items = args.m * packet_count(args.epsilon)

    def trial(i: int) -> BatchTrialConfig:
        return BatchTrialConfig(
            n_items=n_items,
            batch_size=args.m,
            p=args.p,
            d=ds[i],
            replications=args.reps,
            seed=args.seed + i,
        )

    if args.sim_every:
        # the arm probabilities p +- delta spread with d: the largest simulated
        # d fails first, so check it before anything is solved
        trial((len(ds) - 1) // args.sim_every * args.sim_every)

    if args.freeze_d is not None:
        freeze_d = args.freeze_d
    else:
        freeze_d = scan(0.5, 2.5, 0.25, backend="dp", epsilon=args.epsilon).best().d
    table, rows = risk_curve(ds, args.epsilon, freeze_d=freeze_d)

    lines = [",".join([*(f.name for f in fields(RiskCurveRow)), "sim_mean", "sim_se"])]
    for i, row in enumerate(rows):
        sim = ["", ""]
        if args.sim_every and i % args.sim_every == 0:
            res = simulate_bernoulli(trial(i), table)
            sim = [f"{res.normalized_loss_mean:.6g}", f"{res.standard_error:.6g}"]
        lines.append(",".join([*(f"{x:.6g}" for x in astuple(row)), *sim]))
    text = "\n".join(lines) + "\n"
    atomic_write(Path(args.out), lambda tmp: tmp.write_text(text))
    print(f"{args.out}: {len(rows)} rows, strategy frozen at d={freeze_d:.4g}")


if __name__ == "__main__":
    sys.exit(main())
