"""Boole's original algebra of elective symbols.

Expressions over class symbols are developed into constituent normal
form by exact pointwise evaluation; equations are solved for an unknown
by formal division with interpretation of 0/0 and k/0 coefficients;
symbols are eliminated through the classical residual; and everything is
checkable against an exhaustive finite-set oracle.  A small companion
module provides the modern {0,1} operations and reports exactly where
the original + and - leave them.

Layers run on first use.  Importing the package runs errors, expr,
algebra and parsing, which every command uses.  inference, oracle,
modern and nyaya are in sys.modules from the import on, as lazy modules
that run when one of their attributes is first read; the package
resolves their names on demand (PEP 562), so __all__, dir() and
`from elective import X` are as if every layer were imported.
"""

import importlib.util
import sys

from .errors import (
    ElectiveError,
    EmptyPremises,
    InvalidFlags,
    InvalidSymbolList,
    MAX_UNIVERSE,
    NameCollision,
    NotInterpretable,
    ParseError,
    QuotientInOracle,
    SymbolLimitExceeded,
    SymbolListMismatch,
    SymbolNotPresent,
    UninterpretableNesting,
    UniverseLimitExceeded,
)
from .expr import (
    Add,
    Compl,
    Const,
    Equation,
    Expr,
    Mul,
    ONE,
    Quot,
    Sub,
    Sym,
    Symbol,
    ZERO,
    as_expr,
    format_expr,
    free_symbols,
    symbols,
)
from .algebra import (
    Coeff,
    Constituent,
    INDETERMINATE,
    Indeterminate,
    Infinite,
    LinearForm,
    MAX_SYMBOLS,
    coeff_factor_text,
    constituents,
    eval_at,
    expand,
    format_linear_form,
)
from .parsing import parse_equation, parse_expression

# The deferred layers and the names each one exports.
_LAZY = {
    "inference": (
        "EliminationResult",
        "SolvedClass",
        "combine_premises",
        "eliminate",
        "solve_for",
        "syllogism",
    ),
    "oracle": (
        "Counterexample",
        "SetAssignment",
        "Universe",
        "VerificationReport",
        "check_equation",
        "verify_solved",
    ),
    "modern": ("DivergenceReport", "analyze", "b_and", "b_not", "b_or"),
    "nyaya": (
        "KotiRegion",
        "ThreeVal",
        "catuskoti_classify",
        "negate3",
        "negation_table",
    ),
}


def _deferred(layer: str):
    """elective.<layer>, put in sys.modules now and run on the first read of
    any of its attributes (importlib.util.LazyLoader)."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


inference, oracle, modern, nyaya = map(_deferred, _LAZY)
_OWNER = {name: globals()[layer] for layer, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    # PEP 562; not kept in the package's namespace, so a name read here is
    # always the object its layer holds now
    if name in _OWNER:
        return getattr(_OWNER[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER})


__version__ = "0.1.0"

__all__ = [
    "Add",
    "Coeff",
    "Compl",
    "Const",
    "Constituent",
    "Counterexample",
    "DivergenceReport",
    "ElectiveError",
    "EliminationResult",
    "EmptyPremises",
    "Equation",
    "Expr",
    "INDETERMINATE",
    "Indeterminate",
    "Infinite",
    "InvalidFlags",
    "InvalidSymbolList",
    "KotiRegion",
    "LinearForm",
    "MAX_SYMBOLS",
    "MAX_UNIVERSE",
    "Mul",
    "NameCollision",
    "NotInterpretable",
    "ONE",
    "ParseError",
    "Quot",
    "QuotientInOracle",
    "SetAssignment",
    "SolvedClass",
    "Sub",
    "Sym",
    "Symbol",
    "SymbolLimitExceeded",
    "SymbolListMismatch",
    "SymbolNotPresent",
    "ThreeVal",
    "UninterpretableNesting",
    "Universe",
    "UniverseLimitExceeded",
    "VerificationReport",
    "ZERO",
    "analyze",
    "as_expr",
    "b_and",
    "b_not",
    "b_or",
    "catuskoti_classify",
    "check_equation",
    "coeff_factor_text",
    "combine_premises",
    "constituents",
    "eliminate",
    "eval_at",
    "expand",
    "format_expr",
    "format_linear_form",
    "free_symbols",
    "negate3",
    "negation_table",
    "parse_equation",
    "parse_expression",
    "solve_for",
    "syllogism",
    "symbols",
    "verify_solved",
]
