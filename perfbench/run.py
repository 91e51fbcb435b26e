#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload {train,forecast,serve} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` additionally runs a traced phase and prints the per-layer
metrics (spans are written to ``.perfbench/``).  The line before the last
is a detail report (environment, workload-named metrics with sample
counts, checks); the last line is the result object.  The exit code is 1
when an output check fails and 2 when the repository sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: BLAS/OpenMP threads: everything runs on the calling thread.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("train", "forecast", "serve")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pinned = "numpy" not in sys.modules
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no repro package under {src}; run from a "
              "repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    from perfbench.harness import environment, run

    spans_path = None
    if args.trace:
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(
            out_dir, f"spans-{args.workload}-{args.seed}.json")
    result, report = run(args.workload, args.seed, args.seconds,
                         bool(args.trace), spans_path)
    report["environment"] = environment(THREADS, pinned)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    if not result["correct"]:
        for problem in report["problems"]:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
