"""Exception types raised by the elective-algebra package, and the
universe bound of the oracle, which the command line checks before any
layer runs."""

from __future__ import annotations

# The largest universe the oracle's exhaustive checks decide.
MAX_UNIVERSE = 8


class ElectiveError(Exception):
    """Base class for every domain error raised by this package."""


class InvalidSymbolList(ElectiveError):
    """A symbol list contains duplicates."""


class SymbolLimitExceeded(ElectiveError):
    """More than MAX_SYMBOLS symbols were requested (2**n constituents), or
    a development planned more work than MAX_DEVELOP_WORK."""


class SymbolListMismatch(ElectiveError):
    """Two linear forms over different ordered symbol lists were combined."""


class SymbolNotPresent(ElectiveError):
    """An operation referenced a symbol that does not occur where required."""


class UninterpretableNesting(ElectiveError):
    """A 0/0 or k/0 value fed further arithmetic.

    Extended coefficients are terminal: they may appear as developed
    coefficients but are never legal operands of +, -, * or /.

    .constituents is the tuple of constituents where a development failed,
    in ascending mask order.  The constructor takes them as an iterable,
    or as a callable that makes the tuple: a development passes one that
    holds its basis and the sorted masks (picklable), so the constituents
    are built on the first read, once, and only if they are read.
    """

    def __init__(self, message: str, constituents=()):
        super().__init__(message)
        self._constituents = (
            constituents if callable(constituents) else tuple(constituents)
        )

    @property
    def constituents(self) -> tuple:
        if callable(self._constituents):
            self._constituents = self._constituents()
        return self._constituents


class NameCollision(ElectiveError):
    """Input uses a reserved indeterminate-class name (v1, v2, ...)."""


class EmptyPremises(ElectiveError):
    """A premise list must contain at least one equation."""


class QuotientInOracle(ElectiveError):
    """The set oracle only evaluates division-free expressions."""


class UniverseLimitExceeded(ElectiveError):
    """Exhaustive verification is capped at universes of size MAX_UNIVERSE."""


def check_universe(size: int) -> None:
    """Refuse a universe size below 0 (ValueError) or above MAX_UNIVERSE."""
    if size < 0:
        raise ValueError(f"universe size {size} is negative")
    if size > MAX_UNIVERSE:
        raise UniverseLimitExceeded(
            f"universe size {size} exceeds the exhaustive cap of {MAX_UNIVERSE}"
        )


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
