"""Diagnostics emitted by the validators and the functor checker.

Codes are a stable, documented enumeration; tests and downstream tooling match
on them rather than on message text.

Schema validation (``validate_schema``):

========================  ======================================================
``DUP_BOX_ID``            two boxes share an identifier
``DUP_ARROW_ID``          two arrows share an identifier
``DUP_FP_APEX``           two fiber products share an apex
``EMPTY_LABEL``           a box label is empty
``DANGLING_ARROW``        an arrow endpoint names an undeclared box
``MALFORMED_PATH``        an equation path does not chain (or start) correctly
``EQ_ENDPOINT_MISMATCH``  the two sides of an equation have different endpoints
``FP_BAD_ARROW``          a fiber-product declaration names an unknown arrow
``FP_SQUARE_SHAPE``       projections/legs do not form a commuting-square shape
``FP_SQUARE_MISSING``     the square equation of a fiber product is not declared
========================  ======================================================

Functor checking (``check_functor``):

========================  ======================================================
``MISSING_MAPPING``       a box or arrow of the source schema has no image
``UNKNOWN_TARGET``        an image names an id the target schema lacks
``ENDPOINT_VIOLATION``    an arrow image does not preserve endpoints
``EQ_IMAGE_UNKNOWN``      *warning*: an equation image could not be derived
                          within the step budget (never claimed false)
========================  ======================================================

Instance validation (``validate_instance``):

========================  ======================================================
``UNKNOWN_BOX``           the instance carries a set for an undeclared box
``UNKNOWN_ARROW``         the instance carries a table for an undeclared arrow
``UNKNOWN_ELEMENT``       a function table keys an element outside its source
``MISSING_IMAGE``         a function table misses an element of its source box
``IMAGE_NOT_IN_TARGET``   a function table maps outside its target box
``PAYLOAD_MIXED``         a box mixes payload types across its elements
``PAYLOAD_UNKNOWN``       a box holds a value that is not a payload (nor None)
========================  ======================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One validation finding: severity, stable code, message, location.

    ``location`` names the offending declaration (a box/arrow/equation id or a
    short description); it is not a source span — the DSL layer reports spans
    through :class:`ologkit.errors.ParseError` instead.
    """

    severity: Severity
    code: str
    message: str
    location: str = ""

    def __str__(self) -> str:
        where = f" at {self.location}" if self.location else ""
        return f"{self.severity}[{self.code}]{where}: {self.message}"


def error(code: str, message: str, location: str = "") -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, message, location)


def warning(code: str, message: str, location: str = "") -> Diagnostic:
    return Diagnostic(Severity.WARNING, code, message, location)


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diags)
