"""Output checks: every timed operation must reproduce its reference outputs."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence


def output_digests(canonical_iterations: Sequence[Dict[str, Any]]) -> List[Dict[str, str]]:
    """Per-iteration output digests from ``canonical_lifecycle`` views."""
    return [dict(view["outputs"]) for view in canonical_iterations]


def output_mismatch(
    reference: Sequence[Dict[str, str]], candidate: Sequence[Dict[str, str]]
) -> Optional[str]:
    """``None`` when the digests agree, else a description of the first difference."""
    if len(reference) != len(candidate):
        return f"iteration count {len(candidate)} != reference {len(reference)}"
    for index, (ref, got) in enumerate(zip(reference, candidate)):
        if ref != got:
            names = sorted(
                name for name in set(ref) | set(got) if ref.get(name) != got.get(name)
            )
            return f"iteration {index}: outputs differ on {names}"
    return None
