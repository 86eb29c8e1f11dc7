"""Make the benchmark's flat modules and the program importable in tests."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import env  # noqa: E402

env.use_repo_source()
