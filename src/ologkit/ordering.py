"""Deterministic ordering helpers shared by the serializer and the engines."""

from __future__ import annotations

import re

_RUNS = re.compile(r"\d+|\D+")


def natural_key(ident: str) -> tuple:
    """Sort key that orders digit runs numerically: br2 < br10, '9' < '42'.

    Used for canonical serialization so arrow ids 1..42 appear in numeric
    order, and by the instance engine to enumerate elements, so equation
    counterexamples and pullback pairs come first in this order too.
    """
    parts: list[tuple[int, int | str]] = []
    for run in _RUNS.findall(ident):
        if run.isdigit():
            parts.append((0, int(run)))
        else:
            parts.append((1, run))
    return tuple(parts)


def pad_width(count: int) -> int:
    """Digits needed to zero-pad indices 1..count."""
    return len(str(max(count, 1)))
