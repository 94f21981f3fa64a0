"""Exception types raised by the olog toolkit.

Every exception carries a stable ``code`` string (the same enumeration used by
:class:`ologkit.diagnostics.Diagnostic`), so callers — the CLI in particular —
can map failures to exit codes without string-matching messages.
"""

from __future__ import annotations

from dataclasses import dataclass


class OlogError(Exception):
    """Base class for all toolkit errors: a stable ``code`` and the CLI ``verdict``."""

    code = "OLOG_ERROR"
    verdict = "violation"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class EndpointMismatchError(OlogError):
    """Two paths were composed whose endpoints do not meet."""

    code = "ENDPOINT_MISMATCH"


class MalformedPathError(OlogError):
    """A path references unknown arrows or its arrows do not chain."""

    code = "MALFORMED_PATH"


class UnwritableSchemaError(OlogError):
    """A schema holds a declaration the text format cannot write so that it parses back."""

    code = "UNWRITABLE_SCHEMA"


class UnwritableInstanceError(OlogError):
    """An instance holds a name or text the text format cannot write so that it reads back."""

    code = "UNWRITABLE_INSTANCE"


class ElementNotInSourceError(OlogError):
    """A path was evaluated at an element outside its start box."""

    code = "ELEMENT_NOT_IN_SOURCE"


class CospanMismatchError(OlogError):
    """A pullback was requested over two arrows with different targets."""

    code = "COSPAN_MISMATCH"


class SchemaMismatchError(OlogError):
    """An instance names a different schema than the one supplied."""

    code = "SCHEMA_MISMATCH"


class NonFiniteInputError(OlogError):
    """A NaN where a number is needed: an operand of roughly_equal or a payload."""

    code = "NONFINITE_INPUT"


class NonFiniteReferenceError(OlogError):
    """much_greater requires a finite reference operand r."""

    code = "NONFINITE_r"


class NoLifelineError(OlogError):
    """A lifeline structure graph was requested from a chain without one."""

    code = "NO_LIFELINE"


class InconsistentComparatorsError(OlogError):
    """Both the roughly-equal and much-greater certificates fired at once."""

    code = "INCONSISTENT_COMPARATORS"


class DomainError(OlogError):
    """A numeric argument fell outside its documented domain."""

    code = "DOMAIN"
    verdict = "param-constraint"


class ParamConstraintError(OlogError):
    """Simulation parameters violate a box constraint of the reference olog."""

    code = "PARAM_CONSTRAINT"
    verdict = "param-constraint"

    def __init__(self, box: str, message: str):
        super().__init__(f"box {box}: {message}")
        self.box = box


@dataclass(frozen=True, slots=True)
class SourceSpan:
    """Location of a token in DSL source text (1-based line and column)."""

    file: str
    line: int
    column: int

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.file}:{self.line}:{self.column}"


class ParseError(OlogError):
    """Raised by the DSL parser; always carries a :class:`SourceSpan`."""

    code = "PARSE_ERROR"
    verdict = "parse-error"

    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.bare_message = message


class DuplicateIdError(ParseError):
    """A schema or instance block declares the same identifier twice."""

    code = "DUPLICATE_ID"
