"""Boole's logical method: elimination and solving by formal division.

An equation f = 0 that is division-free is linear in any unknown w once
symbols are idempotent: f = a*w + b*w' with a = f[w:=1] and b = f[w:=0].
Solving formally gives w = b / (b - a); reading that quotient at each
constituent of the remaining symbols yields the class:

    1    the constituent is part of w
    0    the constituent is excluded from w
    0/0  an indeterminate part: w may contain any subset of it
    k/0, or any other value
         a side condition: the constituent must denote the empty class

Eliminating a symbol from f = 0 uses the classical residual
f[w:=1] * f[w:=0] = 0, which holds exactly when some value of w satisfies
the original equation.  Several premises combine into one equation as the
sum of their squares, which vanishes pointwise exactly where every
premise does.

Both steps are coefficientwise on the developed form of f: a and b are
the coefficients at the two constituents that differ only in w.  Each
public call walks its input once, for its symbols, its division check and
its distinct subtrees, develops it once and works on that development; an
elimination returns the residual's development, and the residual
equation is rendered as an Expr only when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import mul

from .algebra import (
    Constituent,
    LinearForm,
    _develop,
    _layout,
    _pointwise,
    _texts,
    _times,
    check_symbol_list,
    coeff_factor_text,
    constituents,
)
from .errors import (
    EmptyPremises,
    NameCollision,
    SymbolListMismatch,
    SymbolNotPresent,
    UninterpretableNesting,
)
from .expr import (
    Add,
    Equation,
    Mul,
    Symbol,
    ZERO,
    _equation,
    _plan,
    symbols,
)


@dataclass(frozen=True)
class EliminationResult:
    """A residual, with the dropped symbol gone, as its development.

    form is the residual's development over the remaining symbols, never
    None: once every symbol is dropped it is the form over no symbols,
    holding the constant.  The residual equation, and its text (str),
    are rendered from form each time they are read.
    """

    form: LinearForm

    @property
    def residual(self) -> Equation:
        """The expand-normalized residual equation form = 0."""
        return Equation(self.form.to_expr(), ZERO)

    def __str__(self) -> str:
        """str(self.residual), written from form without building the expression."""
        terms = (
            t if v == 1 else _times(coeff_factor_text(v), t)
            for t, v in self.form.display_items()
            if v != 0
        )
        return f"{' + '.join(terms) or 0} = 0"


@dataclass(frozen=True)
class SolvedClass:
    """The solution of one equation for one unknown.

    The four constituent groups partition the 2**n constituents of
    free_symbols.  Each indeterminate constituent carries a fresh symbol
    v1, v2, ... (numbered in ascending mask order); the unknown equals
    the included constituents plus arbitrary subsets of the indeterminate
    ones, provided every side-condition constituent is empty.
    """

    unknown: Symbol
    free_symbols: tuple[Symbol, ...]
    included: frozenset[Constituent]
    indeterminate: tuple[tuple[Symbol, Constituent], ...]
    side_conditions: frozenset[Constituent]
    excluded: frozenset[Constituent]

    def _reading(self) -> bytearray:
        """Each mask's code, as _solved groups it: bit c is set where w = c
        is not assembled, so 0 indeterminate, 1 included, 2 excluded (or in
        no group) and 3 side condition.  In two groups, a side condition
        wins over included, included over indeterminate, and indeterminate
        over excluded.  A constituent off the table, by symbols or mask, is refused."""
        syms = self.free_symbols
        reading = bytearray([2]) * (1 << len(syms))
        pieces = [c for _, c in self.indeterminate]
        groups = (self.excluded, pieces, self.included, self.side_conditions)
        for code, group in zip((2, 0, 1, 3), groups):
            for c in group:
                if c.symbols != syms:
                    raise SymbolListMismatch(
                        f"constituent {c} is over {[s.name for s in c.symbols]}, "
                        f"not the solution's free symbols {[s.name for s in syms]}"
                    )
                if not 0 <= c.mask < len(reading):
                    raise ValueError(f"mask {c.mask} outside 0..{len(reading) - 1}")
                reading[c.mask] = code
        return reading

    def _grouped(self, *codes: int) -> tuple[list[str], ...]:
        """The texts of the masks that read as each code, in the layout."""
        reading, syms = self._reading(), self.free_symbols
        text, n = _texts(syms), len(syms)
        return tuple([text(m) for m in _layout(n) if reading[m] == c] for c in codes)

    def display_groups(self) -> tuple[list[str], ...]:
        """Included, side-condition and excluded texts, each in the layout."""
        return self._grouped(1, 3, 2)

    def describe(self) -> str:
        """One-line 'w = ...' plus side conditions; excluded texts are not made."""
        included, side = self._grouped(1, 3)
        included += [_times(str(v), str(c)) for v, c in self.indeterminate]
        head = [f"{self.unknown} = ", " + ".join(included) or "0"]
        where = ["  where ", " = 0, ".join(side), " = 0"] if side else []
        del included, side  # each text is now held once, in its joined piece
        return "".join(head + where)

    __str__ = describe


def _split(form: LinearForm, s: Symbol):
    """Split a form at s into a = f[s:=1] and b = f[s:=0].

    Both come back as coefficient lists over the other symbols, in their
    ascending mask order: entry m pairs the two masks that agree with m
    everywhere off s, with the bit of s set (a) and clear (b).
    """
    i = form.symbols.index(s)
    rest = form.symbols[:i] + form.symbols[i + 1 :]
    # masks come in runs of 2**i with the bit of s clear, then set; each
    # list is filled by whichever slices are fewer, so no loop runs over
    # more than about 2**(n/2) of them
    c, run, half = form.coeffs, 1 << i, len(form.coeffs) >> 1
    a, b = [None] * half, [None] * half
    if run * run <= half:  # the j-th mask of every run
        for j in range(run):
            a[j::run], b[j::run] = c[run + j :: 2 * run], c[j :: 2 * run]
    else:  # whole runs
        for k in range(0, half, run):
            a[k : k + run] = c[2 * k + run : 2 * k + 2 * run]
            b[k : k + run] = c[2 * k : 2 * k + run]
    return rest, a, b


def _eliminated(form: LinearForm, drop: Symbol) -> LinearForm:
    """The residual a*b of f = a*drop + b*drop'."""
    rest, a, b = _split(form, drop)
    return LinearForm(rest, tuple(_pointwise(mul, a, b)))


def _check_unknown(unknown: Symbol, named, where) -> None:
    """The unknown must be named in `where`, and no named symbol may be a v-name."""
    if unknown not in named:
        raise SymbolNotPresent(f"unknown {unknown} does not occur in {where}")
    reserved = [s for s in named if s.is_reserved]
    if reserved:
        raise NameCollision(
            f"symbols {[s.name for s in reserved]} are reserved for "
            "generated indeterminate classes (v1, v2, ...)"
        )


def _solved(form: LinearForm, unknown: Symbol) -> SolvedClass:
    """Read w = b / (b - a) at every constituent of the other symbols."""
    rest, a, b = _split(form, unknown)
    # group 2*(a != 0) + (b != 0): 0/0, b/b = 1, 0/(-a) = 0, or a side condition
    group = bytes(_pointwise(lambda p, q: 2 * (p != 0) + (q != 0), a, b))
    cs = constituents(rest)
    pieces, included, excluded, side = (
        compress(cs, map(k.__eq__, group)) for k in range(4)
    )
    return SolvedClass(
        unknown=unknown,
        free_symbols=rest,
        included=frozenset(included),
        # ascending mask order fixes the v-numbering
        indeterminate=tuple((Symbol(f"v{j}"), c) for j, c in enumerate(pieces, 1)),
        side_conditions=frozenset(side),
        excluded=frozenset(excluded),
    )


def eliminate(eq: Equation, drop: Symbol | str) -> EliminationResult:
    """Remove one symbol, drop (a name or a Symbol), from f = 0 via the
    residual f[1] * f[0] = 0."""
    (drop,) = symbols([drop])
    plan = _plan(_equation(eq).homogeneous())
    if drop not in plan.symbols:
        raise SymbolNotPresent(f"symbol {drop} does not occur in {eq}")
    if plan.divides:
        raise UninterpretableNesting("elimination input must be division-free")
    return EliminationResult(_eliminated(_develop(plan), drop))


def combine_premises(premises) -> Equation:
    """Fold several premises into one equation as a sum of squares.

    Pointwise on 0/1 vertices a sum of squares vanishes exactly where
    every summand does, so the combination is model-equivalent to the
    conjunction; squaring (rather than plain summing) prevents opposite
    signs from cancelling between premises.
    """
    return _combined(premises)[0]


def _combined(premises):
    """combine_premises's equation, and the plan of its left side."""
    premises = [_equation(p) for p in premises]
    if not premises:
        raise EmptyPremises("at least one premise equation is required")
    total = reduce(Add, (Mul(f, f) for f in (p.homogeneous() for p in premises)))
    plan = _plan(total)
    if plan.divides:
        raise UninterpretableNesting("premise must be division-free")
    return Equation(total, ZERO), plan


def solve_for(eq: Equation, unknown: Symbol | str, syms=None) -> SolvedClass:
    """Solve a division-free equation for one unknown class.

    Develops f over the remaining symbols and the unknown, pairs
    a = f[w:=1] with b = f[w:=0] at each constituent of the remaining
    symbols, and reads the coefficient of w = b / (b - a) there (1
    included, 0 excluded, 0/0 indeterminate, anything else a side
    condition).  The unknown is a name or a Symbol.

    syms, when given, fixes the ordered remaining-symbol list, read as
    `symbols` reads it; with the unknown it must cover the equation's
    free symbols.  Otherwise the remaining symbols are taken in
    first-occurrence order.
    """
    (unknown,) = symbols([unknown])
    syms = None if syms is None else symbols(syms)  # bad names are refused first
    plan = _plan(_equation(eq).homogeneous())
    _check_unknown(unknown, plan.symbols, eq)
    if plan.divides:
        raise UninterpretableNesting("solver input must be division-free")
    if syms is None:
        syms = [s for s in plan.symbols if s != unknown]
    # vacuous on that default, whose v-names _check_unknown has refused
    remaining = check_symbol_list(syms)
    if unknown in remaining:
        raise SymbolNotPresent(
            f"the unknown {unknown} cannot be one of the remaining symbols"
        )
    if any(s.is_reserved for s in remaining):
        raise NameCollision("requested symbol list uses reserved v-names")
    return _solved(_develop(plan, remaining + (unknown,)), unknown)


def syllogism(premises, drop=(), conclude_for: Symbol | str | None = None):
    """Combine premises, eliminate middle terms, optionally solve.

    Returns the final EliminationResult, or a SolvedClass when
    conclude_for is given.  The combined premises are developed once,
    over their own symbols; elimination proceeds left to right through
    drop, a symbol list ("y,z" drops y then z), on that development.
    With an empty drop list the combined equation is just
    expand-normalized.  conclude_for is a name or a Symbol.  Both are
    read before anything is combined, so a bad name is refused at once.

    Each step sees the symbols its rendered input names, so after a
    residual that vanishes identically (0 = 0) no symbol is left to drop
    or solve for.
    """
    drop = symbols(drop)
    if conclude_for is not None:
        (conclude_for,) = symbols([conclude_for])
    eq, plan = _combined(premises)
    form = _develop(plan)
    named = form.symbols
    where = eq  # a residual is named by its symbols: its text grows with 2**n
    for d in drop:
        if d not in named:
            raise SymbolNotPresent(f"symbol {d} does not occur in {where}")
        form = _eliminated(form, d)
        named = () if form.is_zero() else form.symbols
        residual = EliminationResult(form)  # unnamed: it vanished, or is a constant
        where = f"the residual over {[s.name for s in named]}" if named else residual
    if conclude_for is None:
        return EliminationResult(form)
    _check_unknown(conclude_for, named, where)
    return _solved(form, conclude_for)
