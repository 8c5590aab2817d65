"""One fresh process running one workload; started by run.py, not by hand.

Modes: `setup` imports the package, builds the workload's configs and exits;
`run` then repeats passes until the next one would overrun --seconds (at
least --min-passes); `trace` does the same with the tracer installed.  The
checks run after the timed loop, untimed and with the tracer removed.  The
result is written as JSON to --out.

Set-up time runs from --t0-ns, read by the parent on the monotonic clock
just before it started this process, to the first workload call, so it
covers interpreter start, imports and config construction.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-passes", type=int, default=1)
    ap.add_argument("--t0-ns", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    out = Path(args.out)

    sys.path.insert(0, str(SRC))
    import numpy
    import batchbandit

    if Path(batchbandit.__file__).resolve().parent != SRC / "batchbandit":
        raise SystemExit(f"batchbandit imported from {batchbandit.__file__}, not {SRC}")
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = out.with_suffix(".work")
    ctx = workload.setup(args.seed, workdir)
    result = {"setup_s": (time.monotonic_ns() - args.t0_ns) / 1e9, "numpy": numpy.__version__}
    if args.mode == "setup":
        out.write_text(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    passes = []
    started = time.perf_counter()
    try:
        while True:
            record = {"id": len(passes)}
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.root("pass", record["id"]):
                        record["answer"] = workload.run(ctx)
                else:
                    record["answer"] = workload.run(ctx)
            except Exception:  # a broken pass is reported as failed, not as a crash
                record["traceback"] = traceback.format_exc()
            record["seconds"] = time.perf_counter() - t0
            passes.append(record)
            typical = statistics.median(p["seconds"] for p in passes)
            if (len(passes) >= args.min_passes
                    and time.perf_counter() - started + typical > args.seconds):
                break
    finally:
        if tracer is not None:
            tracer.restore()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    refs = workloads.load_references()
    for record in passes:
        if "traceback" in record:
            record["failures"] = [record["traceback"].strip().splitlines()[-1]]
            continue
        answer = record["answer"]
        record["failures"] = workload.check(ctx, answer, refs)
        record["work_per_s"] = answer["work"] / answer.get("work_s", record["seconds"])
        if tracer is not None:
            record["layers"], record["shares"] = tracing.pass_metrics(
                tracer.spans, record["id"], answer.get("file_bytes", 0))
    result["passes"] = passes
    if tracer is not None:
        result["absent"] = tracer.absent
        out.with_suffix(".spans.json").write_text(json.dumps(tracer.spans))
    shutil.rmtree(workdir, ignore_errors=True)
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
