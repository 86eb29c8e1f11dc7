"""End-to-end lifecycle benchmark for the Helix reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload census-inline --seed 1 --seconds 30 --trace 0

Runs one workload for ``--seconds``, checks every operation's outputs
against a reference computed once for the seed, prints every metric with
its unit and sample count, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced operations, reports the
per-layer metrics, prints the per-layer self-time table and writes the
spans to ``.perfbench_out/``.  Exits non-zero without a result when the
checkout has no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# One BLAS thread per process: the served workload already runs a
# coordinator and two workers on the box, and idle BLAS threads spinning
# on a busy 2-core machine make both wall and CPU time erratic.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import env  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        env.use_repo_source()
    except env.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    result = workload.run(args.seed, args.seconds, bool(args.trace))

    wanted = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    measured = result.per_layer if args.trace else result.end_to_end
    absent = workload.absent if args.trace else frozenset()
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, unit in wanted:
        if name in measured:
            metric = measured[name]
            note = f" {metric.note}" if metric.note else ""
            print(f"{name:<30} {metric.value:>16.6g} {metric.unit:<6} n={metric.samples}{note}")
        elif name in absent:
            print(f"{name:<30} {'n/a':>16} {unit:<6} (does not apply to {args.workload})")
    ratio = result.failed / result.attempted if result.attempted else 1.0
    print(f"{'failed_ratio':<30} {ratio:>16.6g} ratio  "
          f"({result.failed} of {result.attempted} operations)")
    for error in result.errors:
        print(f"FAILED: {error}")
    if result.table:
        print()
        print("\n".join(result.table))
    if result.spans is not None:
        out_dir = env.ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        result.spans.write_jsonl(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")

    missing = [name for name, _ in wanted if name not in measured and name not in absent]
    correct = result.failed == 0 and result.attempted > 0 and not missing
    if missing:
        print(f"FAILED: no samples for {missing}")
    # The result line names every metric of its kind, so a metric that does
    # not apply to the workload is written as 0 there; the table says n/a.
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": measured[name].value if name in measured else 0.0, "unit": unit}
            for name, unit in wanted if name in measured or name in absent
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
