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
a node's values are int numerators, one per vertex, over one positive
denominator per node, which is 1 on a tree without quotients or
fractional constants.  A quotient whose denominator takes so many
distinct values that their lcm would make every numerator long holds a
Fraction per vertex instead, as does each node above it.  Failures are
kept as a set of failed vertices and an ordered list of the extended
operands that failed them.  By the development theorem every coefficient
is a value of the expression at a vertex, and a form over 2**n
constituents takes few distinct values, so `expand` makes one shared
Fraction per distinct numerator.  Every coefficientwise operation
between forms then runs once per distinct object, or pair of objects
(_distinct and _pointwise).  Developing a quotient can additionally
produce the two extended values 0/0 (Indeterminate) and k/0 (Infinite,
one per distinct k in a form); both are terminal: they may sit in a
developed form but never feed further arithmetic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, partialmethod
from itertools import compress, count, repeat
from math import gcd, lcm
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

# Node evaluations that one development may plan: the distinct nodes of
# the tree x the 2**n vertices of its n symbols; a plan above it is
# refused before any list of 2**n values is made.  Measured on a 2-vCPU
# x86-64 host, a node of int numerators takes about 31 ms at the 20-symbol
# cap, so a plan of them runs for at most about 10 s: 320 distinct nodes
# at 20 symbols, 10 240 at 15.  A node held per value (_per_value), which
# only a quotient by a denominator of many distinct values and the nodes
# above it make, takes about 2 s at the cap, and the budget does not
# charge it more.
MAX_DEVELOP_WORK = 320 << 20


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
    return _constituents_at(order, range(1 << len(order)))


def _constituents_at(order: tuple[Symbol, ...], masks) -> tuple[Constituent, ...]:
    """The constituents over order with the given masks, in their order."""
    return tuple(map(partial(Constituent, order), masks))


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

    values, den, extended, failed, events = _evaluate(_plan(e), 1, column)
    if failed:
        _require_finite(*_failure(0, events))
    return extended[1][0] if extended else Fraction(values[0], den)


# The context in which an extended left (and right) operand fails.
_CONTEXTS = {
    Compl: ("complement",),
    Add: ("sum", "sum"),
    Sub: ("difference", "difference"),
    Mul: ("product", "product"),
    Quot: ("quotient numerator", "quotient denominator"),
}
_ARITHMETIC = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def _evaluate(plan: _Plan, width: int, column) -> tuple:
    """(values, den, extended, failed, events) of a planned tree at `width`
    points, by expr._fold; column(s), called where s first occurs, makes
    symbol s's values at each use.

    A node's value is a list of int numerators, one per point (a leaf's
    made at each use), over one positive denominator, which a node above 1
    divides with its numerators by their gcd, or a Fraction per point over
    None (_per_value); and its extended values: () or, for a quotient,
    the ascending points where its denominator is 0 and the value x/0 at
    each, one object per distinct x.  A quotient-free tree keeps every
    denominator at 1.  The root's value is values (0 where extended) over
    den, and extended.  Failures are kept per node, not per point: each
    extended operand adds its points to the set failed and (its extended
    values, the context) to the list events, in order, which only
    _failure reads; once every point has failed, nothing more runs."""
    failed: set[int] = set()
    events: list[tuple[tuple, str]] = []

    def leaf(kind, a):
        if len(failed) == width:
            return None
        if kind is Sym:
            return column(a), 1, ()
        return partial(operator.mul, [a.numerator], width), a.denominator, ()

    def inner(kind, x, y):
        if len(failed) < width and (x[2] or y[2]):
            for (_, _, extended), context in zip((x, y), _CONTEXTS[kind]):
                if extended:
                    failed.update(extended[0])
                    events.append((extended, context))
        if len(failed) == width:
            return None
        xs = x[0] if type(x[0]) is list else x[0]()
        ys = xs if y is x else y[0] if type(y[0]) is list else y[0]()
        dx, dy = x[1], y[1]
        if dx is None or dy is None:  # a side held per value
            return _per_value(kind, xs, dx, ys, dy)
        if kind is Compl:
            return list(map(operator.sub, repeat(dx), xs)), dx, ()
        if dx == dy == 1 and kind is not Quot:  # ints: no denominator to keep
            return list(map(_ARITHMETIC[kind], xs, ys)), 1, ()
        if kind is Quot:
            return _divided(xs, dx, ys, dy)
        if kind is Mul:
            return (*_reduced(list(map(operator.mul, xs, ys)), dx * dy), ())
        den = lcm(dx, dy)
        xs = map(operator.mul, xs, repeat(den // dx))
        ys = map(operator.mul, ys, repeat(den // dy))
        return (*_reduced(list(map(_ARITHMETIC[kind], xs, ys)), den), ())

    values, den, extended = _fold(plan, leaf, inner) or ([], 1, ())
    return values if type(values) is list else values(), den, extended, failed, events


def _divided(xs: list, dx: int, ys: list, dy: int) -> tuple:
    """(xs/dx) / (ys/dy) at each point: numerators over dx times the lcm L
    of the distinct nonzero ys, each x scaled through one table of dy*L/y
    by y, and 0 where y is 0, whose extended value x/0 is made once per
    distinct x.  Where L would be long (_shared), the quotient is held
    per value instead."""
    qs = set(ys)
    common = _shared(qs.difference((0,)))
    if common is None:
        return _per_value(Quot, xs, dx, ys, dy)
    scale = {q: q and dy * common // q for q in qs}
    values = list(map(operator.mul, xs, map(scale.__getitem__, ys)))
    extended = _zeros(xs, dx, ys) if 0 in qs else ()
    return (*_reduced(values, dx * common), extended)


def _reduced(values: list, den: int) -> tuple[list, int]:
    """values over den, both divided by their gcd where den exceeds 1."""
    if den > 1:
        g = gcd(den, *set(values))
        if g > 1:
            return list(map(operator.floordiv, values, repeat(g))), den // g
    return values, den


# Bits by which a quotient's one denominator may exceed the longest value
# its denominator takes.  The lcm of n distinct values can reach about
# n * 1.44 bits (values 1..n), which every numerator of the node and of
# each node above it would carry; a quotient past the margin is held per
# value instead, as are the nodes above it.
_SHARED_BITS = 64


def _shared(qs: set) -> int | None:
    """The lcm of the nonzero ints qs (1 if there are none), or None once
    it is more than _SHARED_BITS bits longer than the longest of them."""
    bound = max((q.bit_length() for q in qs), default=0) + _SHARED_BITS
    common = 1
    for q in qs:
        common = lcm(common, q)
        if common.bit_length() > bound:
            return None
    return common


def _zeros(xs: list, dx: int, ys: list) -> tuple:
    """The extended values of a quotient of xs over dx by ys: the ascending
    points where ys is 0, and x/0 at each, one object per distinct x."""
    zeros = [p for p, q in enumerate(ys) if not q]
    tops = [xs[p] for p in zeros]
    named = {k: Infinite(Fraction(k, dx)) if k else INDETERMINATE for k in set(tops)}
    return zeros, list(map(named.__getitem__, tops))


def _per_value(kind, xs: list, dx, ys: list, dy) -> tuple:
    """The node held per value: a Fraction per point, and None for its
    denominator.  Where a side is held per value, the other is read as
    Fractions and both as over 1; a quotient is 0 where it is extended."""
    if dx is None or dy is None:
        xs = xs if dx is None else _fractions(xs, dx)
        ys = xs if kind is Compl else ys if dy is None else _fractions(ys, dy)
        dx = dy = 1
    if kind is Quot:
        zero = Fraction(0)
        values = [Fraction(p * dy, q * dx) if q else zero for p, q in zip(xs, ys)]
        return values, None, () if all(ys) else _zeros(xs, dx, ys)
    if kind is Compl:
        return list(map(operator.sub, repeat(1), xs)), None, ()
    return list(map(_ARITHMETIC[kind], xs, ys)), None, ()


def _fractions(values: list, den) -> list:
    """values over den as Fractions, one object per distinct value; values
    held per value (den None) are Fractions already, and equal ones are
    made one object."""
    if den is None:
        equal: dict = {}
        return [equal.setdefault((v.numerator, v.denominator), v) for v in values]
    fractions = {v: Fraction(v, den) for v in set(values)}
    return list(map(fractions.__getitem__, values))


def _failure(point: int, events: list) -> tuple[Coeff, str]:
    """The extended value and context of the first failure at a point."""
    return next(
        (coeffs[points.index(point)], context)
        for (points, coeffs), context in events
        if point in points
    )


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
    and how many others fail, and its .constituents lists them all.  A
    plan of more than MAX_DEVELOP_WORK node evaluations (distinct subtrees
    x 2**n) is refused with SymbolLimitExceeded before any is made.
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
    work = len(plan.nodes) * width
    if work > MAX_DEVELOP_WORK:
        raise SymbolLimitExceeded(
            f"development of {len(plan.nodes):,} distinct nodes over "
            f"{len(order)} symbols needs {work:,} node evaluations, above the "
            f"budget of {MAX_DEVELOP_WORK:,}"
        )

    def column(s: Symbol) -> Callable[[], list]:
        run = 1 << bits[s]
        return lambda: ([0] * run + [1] * run) * (width // (2 * run))

    values, den, extended, failed, events = _evaluate(plan, width, column)
    if failed:
        masks = sorted(failed)
        where = _where(Constituent(order, masks[0]), len(masks) - 1)
        raise UninterpretableNesting(
            f"development failed at {where}: {_terminal(*_failure(masks[0], events))}",
            constituents=partial(_constituents_at, order, masks),
        )
    coeffs = _fractions(values, den)
    for m, x in zip(*extended):
        coeffs[m] = x
    return LinearForm(order, tuple(coeffs))


def format_linear_form(f: LinearForm) -> str:
    """Full development as text, every constituent shown, display order."""
    return " + ".join(_times(coeff_factor_text(v), t) for t, v in f.display_items())
