"""Deterministic ordering helpers shared by the serializer and the engines.

Ids are put in natural-key order (see :func:`natural_key`) by
:func:`natural_order`, which sorts them only when it cannot prove them
already in that order.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

_RUNS = re.compile(r"\d+|\D+")

# bytes.translate table: ASCII digits to b"0", every other byte to b"a".
_LAYOUT = b"a" * 48 + b"0" * 10 + b"a" * 198


def natural_key(ident: str) -> tuple:
    """Sort key that orders digit runs numerically: br2 < br10, '9' < '42'.

    A digit run is what ``\\d`` matches (``str.isdecimal``), so a character
    such as '²' is text, not a number.  A run is ordered by its length without
    leading zeros, then by its digits, after any non-ASCII digit becomes its
    ASCII one: the order of its value, with no ``int`` built, so a run of any
    length is a key.

    Used for canonical serialization so arrow ids 1..42 appear in numeric
    order, and by the instance engine to enumerate elements, so equation
    counterexamples and pullback pairs come first in this order too.
    """
    parts: list[tuple[int, int, str] | tuple[int, str]] = []
    for run in _RUNS.findall(ident):
        if run.isdecimal():
            if not run.isascii():
                import unicodedata

                run = "".join(str(unicodedata.decimal(digit)) for digit in run)
            digits = run.lstrip("0")
            parts.append((0, len(digits), digits))
        else:
            parts.append((1, run))
    return tuple(parts)


def natural_order(keys: Iterable[str]) -> list[str]:
    """The keys in the order ``sorted(keys, key=natural_key)`` gives.

    Sorts only when a cheap check cannot prove the keys already in that
    order. The check is exact: if every key is ASCII, every key has the same
    length and the same digit/non-digit layout, and the keys ascend as plain
    strings, then each digit run is compared at one fixed width, where
    string order is numeric order, so natural-key order is the order given.
    (Equal neighbours are then identical strings, so ascending need not be
    strict.) Anything else (non-ASCII digits, mixed widths, keys out of
    order) is sorted by :func:`natural_key`, which keeps ties in input order.
    """
    keys = list(keys)
    if keys:
        first = keys[0]
        joined = "".join(keys)
        if (
            joined.isascii()
            and set(map(len, keys)) == {len(first)}
            and joined.encode().translate(_LAYOUT)
            == first.encode().translate(_LAYOUT) * len(keys)
            and keys == sorted(keys)
        ):
            return keys
    return sorted(keys, key=natural_key)


def pad_width(count: int) -> int:
    """Digits needed to zero-pad indices 1..count."""
    return len(str(max(count, 1)))
