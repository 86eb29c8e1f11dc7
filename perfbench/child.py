"""Work the benchmark does in a fresh interpreter; the result is pickled to stdout.

Usage: ``python3 perfbench/child.py setup|reference <workload> <seed>``.

``setup`` times one set-up: the clock starts before ``import repro`` and
stops when the first iteration (inline workloads) or the first submission
(served workloads) could start.  ``reference`` computes the workload's
reference outputs for the seed, so that their memory never counts toward
the benchmark process's peak RSS.  Anything else written to stdout, by this
process or by workers it starts, goes to stderr instead.
"""

from __future__ import annotations

import time

started = time.perf_counter()

import os  # noqa: E402  (the clock must start first)
import pickle  # noqa: E402
import sys  # noqa: E402

import env  # noqa: E402

env.use_repo_source()

import workloads  # noqa: E402


def main(argv) -> int:
    result_fd = os.dup(1)
    os.dup2(2, 1)
    task, name, seed = argv[0], argv[1], int(argv[2])
    workload = workloads.WORKLOADS[name]
    if task == "setup":
        result, teardown = workload.set_up(seed, started)
        teardown()
    else:
        result = workload.reference(seed)
    with os.fdopen(result_fd, "wb") as out:
        out.write(pickle.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
