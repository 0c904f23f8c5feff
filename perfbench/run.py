"""Benchmark entry point.

    python3 perfbench/run.py --workload text-churn --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program under test is imported from
``src/``; there is nothing to build.  With ``--trace 0`` the last line of
standard output is one JSON object with the end-to-end metrics, with
``--trace 1`` the per-layer ledger of a traced run.  The lines before it are
a detail record (host fingerprint, sample counts, counted work), which is
also written, with the traced spans, under ``perfbench/out/``.  The exit
code is 1 when the correctness gate fails and 2 when the program cannot be
imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program to benchmark under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    from perfbench.harness import run_benchmark
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result, detail = run_benchmark(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        root=ROOT,
        spans_path=os.path.join(out_dir, stem + ".spans.tsv") if args.trace else None,
    )
    detail["result"] = result
    with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=2, sort_keys=True)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
