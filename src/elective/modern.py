"""Modern Boolean operations and the divergence analyzer.

Boole's + and - are formal: x + y develops with coefficient 2 on the
common part, and x - y with coefficient -1 on the part of y outside x,
so neither is a class in general.  The successors' calculus never leaves
{0,1}: on constituent forms union, intersection and complement are just
coefficientwise max, min and 1 - c.

The analyzer reports exactly which constituents push a development
outside {0,1} and the conditions (those constituents empty) under which
the expression denotes a class after all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .algebra import Coeff, Constituent, LinearForm, _texts, _where, expand
from .errors import NotInterpretable
from .expr import Expr


@dataclass(frozen=True)
class DivergenceReport:
    """Where and why an expression fails to denote a class, by its form."""

    expression: Expr
    form: LinearForm

    @property
    def interpretable(self) -> bool:
        return self.form.is_interpretable()

    @property
    def offending(self) -> tuple[tuple[Constituent, Coeff], ...]:
        """(constituent, coefficient) pairs outside {0, 1}, ascending mask."""
        f = self.form
        return tuple((Constituent(f.symbols, m), f.coeffs[m]) for m in f._nonclass())

    @property
    def interpretability_conditions(self) -> tuple[Constituent, ...]:
        """The offending constituents: e denotes a class when all are empty."""
        return tuple(c for c, _ in self.offending)

    def offending_items(self) -> Iterator[tuple[str, Coeff]]:
        """(constituent text, coefficient) pairs outside {0, 1}, ascending mask."""
        text, coeffs = _texts(self.form.symbols), self.form.coeffs
        return ((text(m), coeffs[m]) for m in self.form._nonclass())


def _require_interpretable(name: str, *forms: LinearForm) -> None:
    for f in forms:
        bad = list(f._nonclass())
        if bad:
            c = Constituent(f.symbols, bad[0])
            got = f"{f.coeffs[bad[0]]} at {_where(c, len(bad) - 1)}"
            raise NotInterpretable(f"{name} needs coefficients in {{0, 1}}; got {got}")


def b_or(f: LinearForm, g: LinearForm) -> LinearForm:
    """Union: coefficientwise max on interpretable forms."""
    _require_interpretable("b_or", f, g)
    return f + g - f * g  # max equals this on {0,1}


def b_and(f: LinearForm, g: LinearForm) -> LinearForm:
    """Intersection: coefficientwise min on interpretable forms."""
    _require_interpretable("b_and", f, g)
    return f * g  # min equals product on {0,1}


def b_not(f: LinearForm) -> LinearForm:
    """Complement: coefficientwise 1 - c on an interpretable form."""
    _require_interpretable("b_not", f)
    return LinearForm.constant(f.symbols, 1) - f


def analyze(e: Expr, syms=None) -> DivergenceReport:
    """Develop a division-free expression as expand(e, syms) does and
    report its non-{0,1} terms.

    Each offending constituent, forced empty, removes its own violation;
    together they are the conditions under which e denotes a class.
    """
    return DivergenceReport(e, expand(e, syms))
