"""Locate the program's source tree next to the benchmark directory."""

from __future__ import annotations

import sys
from pathlib import Path

#: Root of the checkout: the directory that holds ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout has no ``src/repro`` package to benchmark."""


def use_repo_source() -> None:
    """Put ``src/`` first on ``sys.path``; raise when the package is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
