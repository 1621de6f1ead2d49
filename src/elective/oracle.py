"""Brute-force set semantics: the independent ground truth.

Everything here works on explicit finite universes {0, ..., m-1}.
Expressions are evaluated numerically by substituting each symbol's 0/1
indicator value at every element.  This is deliberately separate from
the algebra module's development code: the two meet only in tests, where
the developed coefficient at a constituent must match the numeric value
on that constituent's region.

One evaluator serves both checks.  It folds expr's plan of lhs - rhs
with expr._fold, each distinct subtree once; a node holds its values at
a row of points at once, bit-sliced: a symbol's column is one int, and a
node's value is its numerator as two's-complement bit planes, bounded
from the tree, over one static denominator, so fractions stay exact.
The sides differ where the root's planes have a bit set.

Boole's elective symbols act on each element separately: the value of a
tree at an element depends only on the element's type, where bit i of a
type puts the element in the i-th symbol.  So an equation holds in a
model exactly when it holds in the one-element model of each of its
elements' types, and the exhaustive checks decide every universe of 1 to
max_universe elements with one pass over the 2**k types of k symbols,
at most _BLOCK points wide at a time; point p is type p, so the symbols'
columns are periodic bit patterns, made in closed form.  verify_solved
runs the same pass over the unknown and the free symbols, so point
2t + c is type t with the unknown at c, and reads the solution's code
for type t as bits 2t and 2t + 1 of one int:
a few operations on the pass's ints (broadword, as in Knuth, TAOCP 4A,
7.1.3) give the candidates that are rejected and those not assembled.
A SetAssignment (subsets as bitmasks) is built only for a model that is
reported.  Before evaluating, a check counts its work (points x the
distinct nodes of both sides) and refuses with UniverseLimitExceeded
above MAX_ORACLE_WORK; that count is exactly the work run, short of a
stop at a failure.

Quotients are refused here.  Formal division has no pointwise set
meaning; solutions produced by formal division are checked against the
original division-free equation instead.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from math import comb, lcm
from typing import Mapping

from . import errors, inference
from .errors import QuotientInOracle, SymbolNotPresent
from .errors import UniverseLimitExceeded, check_universe
from .expr import Add, Compl, Const, Equation, Mul, Quot, Sub, Symbol
from .expr import _Plan, _equation, _fold, _plan, symbols

# The largest universe a Universe takes; check_universe enforces it.
MAX_UNIVERSE = errors.MAX_UNIVERSE

# Node evaluations that one exhaustive check may plan: points (the 2**k
# types of its k symbols, an unknown among them) x the distinct nodes of
# both sides; a plan above it is refused before anything runs.  Measured
# on a 2-vCPU x86-64 host, a node evaluation takes 0.002 to 0.01 us in
# passes thousands of points wide: verify_solved over 18 free symbols
# runs 24 million in 0.2 s.  A narrow pass costs about 1.5 to 2.5 us per
# node whatever its width, so a plan over one or two symbols admits
# millions of distinct nodes.
MAX_ORACLE_WORK = 25_000_000

# Points that one pass of the evaluator covers, at most.
_BLOCK = 1 << 15


@dataclass(frozen=True)
class Universe:
    """A finite universe of m elements, 0 through m-1."""

    size: int

    def __post_init__(self):
        check_universe(self.size)

    @property
    def full(self) -> int:
        return (1 << self.size) - 1


@dataclass(frozen=True, eq=False)
class SetAssignment:
    """A concrete model: each symbol names an explicit subset (bitmask)."""

    universe: Universe
    subsets: Mapping[Symbol, int]

    def __post_init__(self):
        for s, mask in self.subsets.items():
            if mask & ~self.universe.full:
                raise ValueError(f"subset for {s} exceeds the universe")

    def describe(self) -> str:
        parts = []
        for s, mask in self.subsets.items():
            members = [str(e) for e in range(self.universe.size) if mask >> e & 1]
            parts.append(f"{s} = {{{', '.join(members)}}}")
        return "; ".join(parts)


def _width(lo: int, hi: int) -> int:
    """Two's-complement planes enough for every int from lo to hi."""
    return max(lo, ~lo, hi, ~hi).bit_length() + 1


def _extend(planes: list[int], width: int) -> list[int]:
    """planes sign-extended, or cut, to width planes."""
    return planes[:width] + [planes[-1]] * (width - len(planes))


def _sum(x: list[int], y: list[int], carry: int) -> list[int]:
    """x + y + carry modulo 2**len(x), plane by plane with a ripple carry."""
    out = []
    for a, b in zip(x, y):
        out.append(a ^ b ^ carry)
        carry = a & b | carry & (a ^ b)
    return out


def _constant(value: int, den: int, full: int) -> tuple:
    """The row of value/den at every point."""
    width = _width(value, value)
    bits = format(value & (1 << width) - 1, f"0{width}b")
    planes = [full if bit == "1" else 0 for bit in reversed(bits)]
    return planes, value, value, den


def _product(x: tuple, y: tuple, full: int) -> tuple:
    """x * y over the product of the denominators: a shifted copy of x
    masked by each plane of y, the sign plane's copy subtracted."""
    (xp, xlo, xhi, xd), (yp, ylo, yhi, yd) = x, y
    ends = (xlo * ylo, xlo * yhi, xhi * ylo, xhi * yhi)
    lo, hi = min(ends), max(ends)
    if lo == hi:
        return _constant(lo, xd * yd, full)
    width = _width(lo, hi)
    if sum(map(bool, xp)) < sum(map(bool, yp)):
        xp, yp = yp, xp
    out = [0] * width
    for i, plane in enumerate(yp[:width]):
        if plane:
            term = [0] * i + [p & plane for p in _extend(xp, width - i)]
            if i == len(yp) - 1:
                out = _sum(out, [p ^ full for p in term], full)
            else:
                out = _sum(out, term, 0)
    return out, lo, hi, xd * yd


def _linear(kind: type, x: tuple, y: tuple, full: int) -> tuple:
    """x + y or x - y, each numerator rescaled to the lcm of the two
    denominators."""
    den = x[3]
    if y[3] != den:
        den = lcm(den, y[3])
        x, y = (_product(r, _constant(den // r[3], 1, full), full) for r in (x, y))
    (xp, xlo, xhi, _), (yp, ylo, yhi, _) = x, y
    if kind is Add:
        lo, hi, carry = xlo + ylo, xhi + yhi, 0
    else:  # x + ~y + 1
        lo, hi, carry = xlo - yhi, xhi - ylo, full
        yp = [p ^ full for p in yp]
    if lo == hi:
        return _constant(lo, den, full)
    width = _width(lo, hi)
    return _sum(_extend(xp, width), _extend(yp, width), carry), lo, hi, den


def _evaluate(plan: _Plan, width: int, columns: Mapping[Symbol, int]) -> tuple:
    """The planned tree's row at `width` points, folded by expr._fold.  Bit p
    of columns[s] is symbol s's value at point p.  A row is (planes, lo, hi,
    den): at point p its value is n/den, where n, from lo to hi, is read
    in two's complement from bit p of each plane, the last plane the sign.
    A symbol missing from columns, or a quotient, raises at its slot,
    which is where a walk of the tree first meets it."""
    full = (1 << width) - 1

    def leaf(kind, a):
        if kind is Const:
            return _constant(a.numerator, a.denominator, full)
        if a not in columns:
            raise SymbolNotPresent(f"assignment does not cover symbol {a}")
        return [columns[a], 0], 0, 1, 1

    def inner(kind, x, y):
        if kind is Quot:
            raise QuotientInOracle("formal division has no pointwise set meaning")
        if kind is Compl:
            return _linear(Sub, _constant(x[3], x[3], full), x, full)
        return _product(x, y, full) if kind is Mul else _linear(kind, x, y, full)

    return _fold(plan, leaf, inner)


def _differ(plan: _Plan, width: int, columns: Mapping[Symbol, int]) -> int:
    """The points, as a bitmask, where the sides differ: the root's planes ORed."""
    return reduce(operator.or_, _evaluate(plan, width, columns)[0], 0)


# Each code 0..3 of a solution's reading as its base-4 digit.
_DIGITS = bytes.maketrans(bytes(range(4)), b"0123")


def _assignment(syms: tuple[Symbol, ...], t: int) -> SetAssignment:
    """The one-element model whose element has type t: bit i of t puts it
    in the i-th symbol."""
    return SetAssignment(Universe(1), {s: t >> i & 1 for i, s in enumerate(syms)})


def _points(plan: _Plan, syms: tuple[Symbol, ...], max_universe: int) -> int:
    """The points of an exhaustive check on universes up to max_universe:
    the 2**k types of syms, and none when max_universe is 0.  Refuses up
    front, before any evaluation, when max_universe is out of range or
    when the planned work (points x the distinct nodes of both sides)
    exceeds MAX_ORACLE_WORK."""
    points = 1 << len(syms) if Universe(max_universe).size else 0
    work = points * (len(plan.nodes) - 1)
    if work > MAX_ORACLE_WORK:
        raise UniverseLimitExceeded(
            f"exhaustive check over {len(syms)} symbols on universes up to "
            f"{max_universe} needs {work:,} node evaluations, above the "
            f"budget of {MAX_ORACLE_WORK:,}"
        )
    return points


def _differences(plan: _Plan, syms: tuple[Symbol, ...], points: int):
    """Each run of the points 0..points-1, at most _BLOCK of them in
    ascending order, with the bitmask of its points where the sides differ:
    bit i of point p is the value of syms[i].  With no points, one empty
    run: every check walks the plan, so a missing symbol or a quotient
    is refused at any universe bound."""
    for start in range(0, max(points, 1), _BLOCK):
        run = range(start, min(start + _BLOCK, points))
        columns = {s: _column(i, run) for i, s in enumerate(syms)}
        yield run, _differ(plan, len(run), columns)


def _column(i: int, run: range) -> int:
    """Bit p is bit i of point run[p], in closed form (Knuth, TAOCP 4A,
    7.1.3): 0 then 1 on the halves of each period of 2**(i+1) points, one
    edge at most when a half spans the run, else repeated from its phase."""
    half, full = 1 << i, (1 << len(run)) - 1
    if half >= len(run):
        low = (1 << min(half - (run.start & half - 1), len(run))) - 1
        return low if run.start >> i & 1 else full ^ low
    period = 2 * half
    phase = run.start & period - 1
    bits = -(-(phase + len(run)) // period) * period
    ones = ((1 << bits) - 1) // ((1 << period) - 1) * ((1 << half) - 1 << half)
    return ones >> phase & full


@dataclass(frozen=True)
class Counterexample:
    kind: str  # "sound" or "complete"
    universe_size: int
    assignment: tuple[tuple[Symbol, int], ...]
    unknown: Symbol
    witness: int  # the offending subset for the unknown
    note: str

    def __str__(self) -> str:
        model = SetAssignment(
            Universe(self.universe_size),
            {**dict(self.assignment), self.unknown: self.witness},
        )
        return (
            f"{self.kind} failure on universe of size {self.universe_size}: "
            f"{model.describe()} ({self.note})"
        )


_NOTES = {
    "sound": "assembled class does not satisfy the equation",
    "complete": "solution not assembled by any v valuation",
}


@dataclass(frozen=True)
class VerificationReport:
    """A verdict, and the models it was reached on.

    evaluated[m - 1] counts the models of size m, one per orbit, that the
    verdict covers, and skipped[m - 1] those left out because a
    side-condition constituent has elements there; every one-element
    model is covered.
    """

    sound: bool
    complete: bool
    counterexample: Counterexample | None
    evaluated: tuple[int, ...] = ()
    skipped: tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return self.sound and self.complete


def verify_solved(
    sol: inference.SolvedClass, eq: Equation, max_universe: int = 4
) -> VerificationReport:
    """Exhaustively check a solved class against its source equation.

    Quantifies over every universe of size 1..max_universe, every model
    of the solution's free symbols in which each side-condition
    constituent is empty, and every valuation of the v-symbols (each
    ranging over subsets of its constituent's elements).  The one-element
    models whose element lies in a side-condition constituent are checked
    too: the solution assembles no class there, so it is complete only if
    every candidate class is rejected.  Every grouped constituent must be
    over the free symbols, or the check is refused with
    SymbolListMismatch.

    A class is assembled when every element fits it, and rejected when
    the sides differ at some element; both are read element by element.
    So a model has a class assembled but rejected, or satisfying but not
    assembled, only if the one-element model of one of its elements' types
    has one, and the one-element models, themselves in range, decide every
    size: point 2t + c is type t with candidate c, each evaluated once.

    sound: every assembled class is a solution.  complete: every solution
    is assembled.  The failure at the lowest type is reported, soundness
    before completeness, with the smaller failing candidate as witness.
    The report counts the models of each size that the verdict covers.
    """
    if not isinstance(sol, inference.SolvedClass):  # read on use: runs inference
        raise TypeError(f"expected a SolvedClass, not {sol!r}")
    plan, syms = _plan(Sub(_equation(eq).lhs, eq.rhs)), sol.free_symbols
    points = _points(plan, (sol.unknown, *syms), max_universe)
    extras = [s for s in plan.symbols if s != sol.unknown and s not in syms]
    if extras:
        raise SymbolNotPresent(
            f"equation symbols {[s.name for s in extras]} are not covered "
            "by the solution's free symbols"
        )
    reading = sol._reading()
    # bit 2t + c: candidate c misfits type t (an included element that it
    # lacks, an excluded one that it holds, and every side-condition one)
    rejected = int(reading[::-1].translate(_DIGITS), 4)
    first: dict[str, int] = {}  # each kind's lowest failing point
    for run, differ in _differences(plan, (sol.unknown, *syms), points):
        misfit = rejected >> run.start & (1 << len(run)) - 1
        for kind, bits in zip(_NOTES, (differ & ~misfit, misfit & ~differ)):
            if bits and kind not in first:
                first[kind] = run.start + (bits & -bits).bit_length() - 1
        if len(first) == 2:
            break
    counterexample = None
    if first:
        kind = min(first, key=lambda kind: (first[kind] >> 1, kind != "sound"))
        a = _assignment(syms, first[kind] >> 1)
        counterexample = Counterexample(
            kind, 1, tuple(a.subsets.items()), sol.unknown, first[kind] & 1,
            _NOTES[kind],
        )
    # the models of each size, one per orbit: every type on one element,
    # the types that are not side conditions on more
    types = len(reading)
    kept = types - reading.count(3)
    sizes = range(1, max_universe + 1)
    evaluated = [types if m == 1 else comb(m + kept - 1, m) for m in sizes]
    return VerificationReport(
        "sound" not in first,
        "complete" not in first,
        counterexample,
        tuple(evaluated),
        tuple(comb(m + types - 1, m) - n for m, n in zip(sizes, evaluated)),
    )


def plan_verification(eq: Equation, unknown, syms=None, max_universe: int = 4) -> None:
    """Refuse, with UniverseLimitExceeded and before anything is solved, the
    check that verify_solved would plan for solve_for(eq, unknown, syms)."""
    (unknown,) = symbols([unknown])
    plan = _plan(Sub(_equation(eq).lhs, eq.rhs))
    free = plan.symbols if syms is None else symbols(syms)
    _points(plan, (unknown, *(s for s in free if s != unknown)), max_universe)


def check_equation(eq: Equation, syms, max_universe: int = 4) -> SetAssignment | None:
    """The first model on universes 0..max_universe where eq fails, if any.

    Models assign the symbols of syms, read as `symbols` reads them.  An
    equation fails in a model exactly where it fails at one of its
    elements, so the first failing model is the one-element model of the
    lowest type where the sides differ, and none fails if no type does.
    """
    plan, syms = _plan(Sub(_equation(eq).lhs, eq.rhs)), symbols(syms)
    for run, differ in _differences(plan, syms, _points(plan, syms, max_universe)):
        if differ:
            return _assignment(syms, run.start + (differ & -differ).bit_length() - 1)
    return None
