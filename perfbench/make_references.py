#!/usr/bin/env python3
"""Rewrite references.json from one pass of each pipeline.

Run it only on a commit whose numbers are the accepted baseline; the
benchmark then fails any pass whose deterministic risks move by more than
1e-12 from these values.

    python3 perfbench/make_references.py
"""

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    refs = {}
    work = Path(__file__).resolve().parent / "out" / "references.work"
    for pipeline in workloads.PIPELINES:
        ctx = pipeline.setup(0, work / pipeline.name)
        refs[pipeline.name] = pipeline.deterministic(ctx, pipeline.run(ctx))
        print(pipeline.name, "done", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
