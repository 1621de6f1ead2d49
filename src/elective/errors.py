"""Exception types raised by the elective-algebra package."""

from __future__ import annotations


class ElectiveError(Exception):
    """Base class for every domain error raised by this package."""


class InvalidSymbolList(ElectiveError):
    """A symbol list contains duplicates."""


class SymbolLimitExceeded(ElectiveError):
    """More than MAX_SYMBOLS symbols were requested (2**n constituents)."""


class SymbolListMismatch(ElectiveError):
    """Two linear forms over different ordered symbol lists were combined."""


class SymbolNotPresent(ElectiveError):
    """An operation referenced a symbol that does not occur where required."""


class UninterpretableNesting(ElectiveError):
    """A 0/0 or k/0 value fed further arithmetic.

    Extended coefficients are terminal: they may appear as developed
    coefficients but are never legal operands of +, -, * or /.
    """

    def __init__(self, message: str, constituents: tuple = ()):
        super().__init__(message)
        self.constituents = tuple(constituents)


class NameCollision(ElectiveError):
    """Input uses a reserved indeterminate-class name (v1, v2, ...)."""


class EmptyPremises(ElectiveError):
    """A premise list must contain at least one equation."""


class QuotientInOracle(ElectiveError):
    """The set oracle only evaluates division-free expressions."""


class UniverseLimitExceeded(ElectiveError):
    """Exhaustive verification is capped at universes of size 8."""


class NotInterpretable(ElectiveError):
    """A modern Boolean operation was applied to a non-{0,1} form."""


class InvalidFlags(ElectiveError):
    """Inconsistent membership flags (inside P but outside the discourse)."""


class ParseError(ElectiveError):
    """Syntax error, carrying the character offset where parsing stopped."""

    def __init__(self, offset: int, expected: str, found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(f"at offset {offset}: expected {expected}, found {found}")
