"""Constituent normal form and exact coefficient arithmetic.

Over an ordered list of n symbols the universe splits into 2**n
constituents: products that take, for every symbol, either the symbol or
its complement.  Constituents are pairwise-disjoint idempotents that sum
to 1, so every expression develops uniquely into

    f  =  sum over constituents C of  f(vertex of C) * C

where the vertex of C assigns 1 to each plain factor and 0 to each
complemented one.  This module computes that development by folding
expr's plan of the tree, as the oracle does: each distinct subtree is
taken once at all 2**n vertices together, so the index law (x**n = x),
distributivity and commutativity hold by construction.

Coefficients are exact rationals (fractions.Fraction).  Inside the pass
values stay ints wherever they are integral, exact quotients included;
only a non-integral quotient or a fractional constant brings in a
Fraction.  By the development theorem every coefficient is a value of
the expression at a vertex, and a form over 2**n constituents takes few
distinct values, so `expand` makes one shared Fraction per distinct
value.  Every coefficientwise operation between forms then runs once
per distinct object, or pair of objects (_distinct and _pointwise).
Developing a quotient can additionally produce the two extended
values 0/0 (Indeterminate) and k/0 (Infinite, one per distinct k in a
pass); both are terminal: they may sit in a developed form but never
feed further arithmetic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, partialmethod
from itertools import compress, count, repeat
from typing import Callable, Iterable, Iterator, Mapping, Union

from .errors import (
    InvalidSymbolList,
    SymbolLimitExceeded,
    SymbolListMismatch,
    SymbolNotPresent,
    UninterpretableNesting,
)
from .expr import (
    Add,
    Compl,
    Const,
    Expr,
    Mul,
    ONE,
    Quot,
    Sub,
    Sym,
    Symbol,
    ZERO,
    _Plan,
    _fold,
    _plan,
    symbols,
)

MAX_SYMBOLS = 20


@dataclass(frozen=True)
class Indeterminate:
    """The 0/0 coefficient: an arbitrary (indeterminate) part of a class."""

    def __str__(self) -> str:
        return "0/0"


@dataclass(frozen=True)
class Infinite:
    """A k/0 coefficient with k != 0: satisfiable only by the empty class."""

    numerator: Fraction

    def __post_init__(self):
        if not isinstance(self.numerator, Fraction):
            object.__setattr__(self, "numerator", Fraction(self.numerator))
        if self.numerator == 0:
            raise ValueError("Infinite coefficient requires a non-zero numerator")

    def __str__(self) -> str:
        k = self.numerator
        if k.denominator == 1:
            return f"{k.numerator}/0"
        return f"({k})/0"


INDETERMINATE = Indeterminate()

# A developed coefficient: finite exact rational, 0/0, or k/0.
Coeff = Union[Fraction, Indeterminate, Infinite]


def coeff_factor_text(c: Coeff) -> str:
    """Coefficient text for use before '*'; specials get parentheses."""
    if isinstance(c, Fraction) and c.denominator == 1 and c.numerator >= 0:
        return str(c.numerator)
    return f"({c})"


def check_symbol_list(syms) -> tuple[Symbol, ...]:
    """Read an ordered symbol list as `symbols` does and check it: within
    the cap, no duplicates; it may be empty."""
    out = symbols(syms)
    if len(out) > MAX_SYMBOLS:
        raise SymbolLimitExceeded(
            f"{len(out)} symbols exceed the cap of {MAX_SYMBOLS} "
            f"(2**{len(out)} constituents)"
        )
    if len(set(out)) != len(out):
        raise InvalidSymbolList(f"duplicate symbols in {[s.name for s in out]}")
    return out


@dataclass(frozen=True, slots=True)
class Constituent:
    """One region of the 2**n-fold partition of the universe.

    Bit i of mask set means the product takes symbols[i]; clear means it
    takes the complement (1 - symbols[i]).  Equal constituents have equal
    masks, so the mask alone is the hash.
    """

    symbols: tuple[Symbol, ...]
    mask: int

    def __hash__(self) -> int:
        return hash(self.mask)

    def __str__(self) -> str:
        """The product of its factors; over no symbols, 1 (the universe)."""
        m, syms = self.mask, self.symbols
        factors = [s.name if m >> i & 1 else f"{s.name}'" for i, s in enumerate(syms)]
        return "*".join(factors) or "1"


def constituents(syms) -> tuple[Constituent, ...]:
    """All 2**n constituents over an ordered symbol list, ascending mask."""
    order = check_symbol_list(syms)
    return tuple(Constituent(order, m) for m in range(1 << len(order)))


def _layout(n: int) -> Iterator[int]:
    """The masks of n symbols in the traditional layout (xy, xy', x'y, x'y').

    At place p, bit i of the mask is the complement of bit n-1-i of p, so
    the first symbol varies slowest, taken before its complement.  The
    first half of the symbols follows the high bits of p, so two layouts
    of 2**(n/2) masks give all 2**n."""

    def half(k: int) -> list[int]:
        return [int(f"{p:0{k}b}"[::-1], 2) ^ (1 << k) - 1 for p in range(1 << k)]

    h = n // 2
    low = [m << h for m in half(n - h)]
    return (hm | lm for hm in half(h) for lm in low)


def _texts(syms: tuple[Symbol, ...]) -> Callable[[int], str]:
    """The text str() gives any mask's constituent, from two tables of
    2**(n/2) texts indexed by its bits over each half of the symbols."""
    h = len(syms) // 2
    first = [f"{Constituent(syms[:h], j)}*" for j in range(1 << h)] if h else [""]
    second = [str(Constituent(syms[h:], j)) for j in range(1 << len(syms) - h)]
    low = (1 << h) - 1
    return lambda m: first[m & low] + second[m >> h]


def _times(factor: str, text: str) -> str:
    """factor*text, with a text of 1 (the universe, over no symbols) left out."""
    return factor if text == "1" else f"{factor}*{text}"


def _where(first: Constituent, others: int) -> str:
    """The first of several constituents, and how many others there are."""
    if not others:
        return str(first)
    return f"{first} and {others} other constituent{'s' if others > 1 else ''}"


def _literals(syms: tuple[Symbol, ...]) -> list[tuple[Expr, Expr]]:
    """One (complement, plain) node pair per symbol, shared by every term."""
    return [(Compl(s), s) for s in map(Sym, syms)]


def _product(literals: list[tuple[Expr, Expr]], mask: int, first=None) -> Expr:
    """The constituent product for mask, left-nested after `first` if given."""
    out = first
    for i, pair in enumerate(literals):
        factor = pair[mask >> i & 1]
        out = factor if out is None else Mul(out, factor)
    return ONE if out is None else out


def eval_at(e: Expr, vertex: Mapping[Symbol, int]) -> Coeff:
    """Evaluate an expression at a 0/1 vertex with exact arithmetic.

    A symbol the vertex lacks, or maps to other than 0 or 1, is refused
    where it first occurs.  A quotient whose denominator evaluates to 0
    yields 0/0 when the numerator is 0 and k/0 otherwise.  Those values
    are terminal: if one feeds any further operation the expression has
    no development and UninterpretableNesting is raised.
    """

    def column(s: Symbol) -> Callable[[], list]:
        if s not in vertex:
            raise SymbolNotPresent(f"vertex does not assign symbol {s}")
        if vertex[s] not in (0, 1):
            raise ValueError(f"vertex assigns {vertex[s]!r} to symbol {s}, not 0 or 1")
        return [int(vertex[s])].copy

    values, extended, failed = _evaluate(_plan(e), 1, column)
    if failed:
        _require_finite(*failed[0])
    return extended[0] if extended else Fraction(values[0])


# The context in which an extended left (and right) operand fails.
_CONTEXTS = {
    Compl: ("complement",),
    Add: ("sum", "sum"),
    Sub: ("difference", "difference"),
    Mul: ("product", "product"),
    Quot: ("quotient numerator", "quotient denominator"),
}
_ARITHMETIC = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def _evaluate(plan: _Plan, width: int, column) -> tuple[list, dict, dict]:
    """The root's values, extended values and failures of a planned tree at
    `width` points, by expr._fold; column(s), called where s first occurs,
    makes symbol s's values at each use.  A node's value pairs an int (where
    integral) or Fraction per point, 0 where extended (a leaf's list made at
    each use), with its extended values by point, one object per distinct
    value.  An extended operand fails its point, keeping its first failure
    as (value, context); once every point has failed, nothing more runs."""
    failed: dict[int, tuple[Coeff, str]] = {}
    specials: dict = {0: INDETERMINATE}  # x/0 by numerator x

    def leaf(kind, a):
        if len(failed) == width:
            return None
        return column(a) if kind is Sym else partial(operator.mul, [a], width), {}

    def inner(kind, x, y):
        if len(failed) < width and (x[1] or y[1]):
            for (_, extended), context in zip((x, y), _CONTEXTS[kind]):
                for p, v in extended.items():
                    failed.setdefault(p, (v, context))
        if len(failed) == width:
            return None
        xs = x[0] if type(x[0]) is list else x[0]()
        ys = xs if y is x else y[0] if type(y[0]) is list else y[0]()
        if kind is Compl:
            return list(map(operator.sub, repeat(1), xs)), {}
        if kind is not Quot:
            return list(map(_ARITHMETIC[kind], xs, ys)), {}
        zeros = [p for p, q in enumerate(ys) if not q]
        for k in {xs[p] for p in zeros}.difference(specials):
            specials[k] = Infinite(k)
        values = [_quotient(p, q) if q else 0 for p, q in zip(xs, ys)]
        return values, {p: specials[xs[p]] for p in zeros}

    values, extended = _fold(plan, leaf, inner) or ([], {})
    return values if type(values) is list else values(), extended, failed


def _quotient(x, y):
    """x / y for y != 0: an int when both are ints and y divides x."""
    if type(x) is int and type(y) is int and not x % y:
        return x // y
    return Fraction(x, y)


def _is_class_coeff(v: Coeff) -> bool:
    """True iff v is a finite 0 or 1: the coefficient of a class."""
    return isinstance(v, Fraction) and v in (0, 1)


def _terminal(v: Coeff, context: str) -> str:
    """Why the extended value v cannot feed a {context}."""
    return f"{v} cannot be an operand of a {context}; 0/0 and k/0 are terminal values"


def _require_finite(v: Coeff, context: str) -> None:
    if not isinstance(v, Fraction):
        raise UninterpretableNesting(_terminal(v, context))


def _distinct(column) -> Iterable:
    """Each distinct object of a column once, in order of first occurrence."""
    return dict(zip(map(id, column), column)).values()


def _pointwise(fn, a, b) -> Iterator:
    """fn(p, q) at each pair of a and b, taken once per distinct object pair."""
    distinct = dict(zip(zip(map(id, a), map(id, b)), zip(a, b)))
    value = {key: fn(p, q) for key, (p, q) in distinct.items()}
    return map(value.__getitem__, zip(map(id, a), map(id, b)))


@dataclass(frozen=True)
class LinearForm:
    """A total map from the 2**n constituents to developed coefficients.

    coeffs[m] is the coefficient of the constituent with mask m.  For a
    division-free source expression every coefficient is a Fraction, and
    the coefficient at each constituent equals the pointwise value of the
    source at that constituent's vertex (the defining property).
    """

    symbols: tuple[Symbol, ...]
    coeffs: tuple[Coeff, ...]

    def __post_init__(self):
        if len(self.coeffs) != 1 << len(self.symbols):
            raise ValueError(
                f"expected {1 << len(self.symbols)} coefficients, "
                f"got {len(self.coeffs)}"
            )

    @classmethod
    def constant(cls, syms, value) -> "LinearForm":
        order = check_symbol_list(syms)
        return cls(order, (Fraction(value),) * (1 << len(order)))

    @classmethod
    def zero(cls, syms) -> "LinearForm":
        return cls.constant(syms, 0)

    def coeff(self, c: Constituent | int) -> Coeff:
        """The coefficient of a constituent over this form's symbols, or of
        a mask in 0..2**n - 1."""
        if isinstance(c, Constituent):
            if c.symbols != self.symbols:
                raise SymbolListMismatch(
                    f"constituent {c} is over {[s.name for s in c.symbols]}, "
                    f"not {[s.name for s in self.symbols]}"
                )
            c = c.mask
        if not 0 <= c < len(self.coeffs):
            raise ValueError(f"mask {c} outside 0..{len(self.coeffs) - 1}")
        return self.coeffs[c]

    def items(self) -> Iterator[tuple[Constituent, Coeff]]:
        """(constituent, coefficient) pairs in ascending mask order."""
        for m, value in enumerate(self.coeffs):
            yield Constituent(self.symbols, m), value

    def display_items(self) -> Iterator[tuple[str, Coeff]]:
        """(constituent text, coefficient) pairs in the traditional layout."""
        text, coeffs = _texts(self.symbols), self.coeffs
        return ((text(m), coeffs[m]) for m in _layout(len(self.symbols)))

    def _nonclass(self) -> Iterator[int]:
        """Ascending masks whose coefficient is not 0 or 1; one test per object."""
        outside = {id(v) for v in _distinct(self.coeffs) if not _is_class_coeff(v)}
        flags = map(outside.__contains__, map(id, self.coeffs))
        return compress(count(), flags) if outside else iter(())

    def is_interpretable(self) -> bool:
        """True iff every coefficient is 0 or 1, i.e. the form is a class."""
        return next(self._nonclass(), None) is None

    def is_zero(self) -> bool:
        return all(isinstance(v, Fraction) and v == 0 for v in self.coeffs)

    def _combine(self, other: "LinearForm", op) -> "LinearForm":
        if not isinstance(other, LinearForm):
            return NotImplemented
        if self.symbols != other.symbols:
            raise SymbolListMismatch(
                f"{[s.name for s in self.symbols]} vs "
                f"{[s.name for s in other.symbols]}"
            )
        for v in (*_distinct(self.coeffs), *_distinct(other.coeffs)):
            _require_finite(v, "form combination")
        coeffs = _pointwise(op, self.coeffs, other.coeffs)
        return LinearForm(self.symbols, tuple(coeffs))

    # Constituents are pairwise-orthogonal idempotents, so sums,
    # differences and products of forms are all coefficientwise.
    __add__ = partialmethod(_combine, op=operator.add)
    __sub__ = partialmethod(_combine, op=operator.sub)
    __mul__ = partialmethod(_combine, op=operator.mul)

    def to_expr(self) -> Expr:
        """Compact expression: non-zero terms in display order, 0 if none."""
        literals = _literals(self.symbols)
        out = None
        for m in _layout(len(self.symbols)):
            v = self.coeffs[m]
            _require_finite(v, "expression rebuild")
            if v != 0:
                term = _product(literals, m, None if v == 1 else Const(v))
                out = term if out is None else Add(out, term)
        return ZERO if out is None else out

    def __str__(self) -> str:
        return format_linear_form(self)


def expand(e: Expr, syms=None) -> LinearForm:
    """Develop an expression over an ordered symbol list.

    syms, read as `symbols` reads it, must name every symbol of e;
    omitted, it is e's own symbols in first-occurrence order.

    The coefficient at each constituent is the pointwise evaluation of e
    at that constituent's vertex; one pass takes each distinct subtree at
    all 2**n vertices at once, and equal coefficients are one object.
    Evaluation failures (extended values feeding further arithmetic) are
    aggregated: the error's message names the first offending constituent
    and how many others fail, and its .constituents lists them all.
    """
    return _develop(_plan(e), syms)


def _develop(plan: _Plan, syms=None) -> LinearForm:
    """expand, on a tree already planned."""
    named = plan.symbols
    order = check_symbol_list(named if syms is None else syms)
    bits = {s: i for i, s in enumerate(order)}  # bit i of the mask is symbol i
    missing = [s for s in named if s not in bits]
    if missing:
        raise SymbolNotPresent(
            f"symbols {[s.name for s in missing]} occur in the expression "
            f"but not in {[s.name for s in order]}"
        )
    width = 1 << len(order)

    def column(s: Symbol) -> Callable[[], list]:
        run = 1 << bits[s]
        return lambda: ([0] * run + [1] * run) * (width // (2 * run))

    values, extended, failed = _evaluate(plan, width, column)
    if failed:
        bad = tuple(Constituent(order, m) for m in sorted(failed))
        raise UninterpretableNesting(
            f"development failed at {_where(bad[0], len(bad) - 1)}: "
            f"{_terminal(*failed[bad[0].mask])}",
            constituents=bad,
        )
    fractions = {v: Fraction(v) for v in set(values)}
    coeffs = list(map(fractions.__getitem__, values))
    for m, x in extended.items():
        coeffs[m] = x
    return LinearForm(order, tuple(coeffs))


def format_linear_form(f: LinearForm) -> str:
    """Full development as text, every constituent shown, display order."""
    return " + ".join(_times(coeff_factor_text(v), t) for t, v in f.display_items())
