"""Brute-force set semantics: the independent ground truth.

Everything here works on explicit finite universes {0, ..., m-1}.
Expressions are evaluated numerically by substituting each symbol's 0/1
indicator value at every element.  This is deliberately separate from
the algebra module's development code: the two meet only in tests, where
the developed coefficient at a constituent must match the numeric value
on that constituent's region.

One evaluator serves every entry point.  It walks a tree flattened once
into post-order, and each node holds its values at a whole row of points
at once, as exact ints.  A point is one element of one model, and one
pass evaluates many models side by side.  verify_solved evaluates each
model once at m * 2**m points, one per element of each candidate class
of the unknown, and keeps the candidates on which both sides agree at
all m elements.  check_equation evaluates _BLOCK models per pass.
holds is a pass at m points and eval_numeric a pass at one.

Whether an equation holds in a model depends only on how many elements
each constituent holds, not on which ones.  So the exhaustive checks
visit one model per orbit of the universe's permutations, C(m + 2**k - 1,
m) of them for k symbols instead of 2**(m*k): an ascending tuple of m
element types, where bit i of a type puts its element in the i-th
symbol.  Such tuples are the only model representation from the plan
to the evaluator.  Columns are read off the types, and an element lies
in the constituent whose mask equals its type, which is the set meaning
of a constituent.  A SetAssignment (subsets as bitmasks) is built only
for a model that is reported.  Before enumerating, a check counts its
work (orbits x candidate classes x tree nodes) and refuses with
UniverseLimitExceeded above MAX_ORACLE_WORK.  That count bounds the
work run: every candidate class is evaluated at every element, once.

Quotients are refused here.  Formal division has no pointwise set
meaning; solutions produced by formal division are checked against the
original division-free equation instead.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import chain, combinations_with_replacement, islice, product, repeat
from math import comb
from typing import Iterator, Mapping, Sequence

from .errors import QuotientInOracle, SymbolListMismatch, SymbolNotPresent
from .errors import UniverseLimitExceeded
from .expr import Add, Compl, Const, Equation, Expr, Mul, Quot, Sub, Sym, Symbol
from .expr import _postorder
from .inference import SolvedClass

MAX_UNIVERSE = 8

# Node evaluations, summed over universe sizes, that one exhaustive check
# may plan: orbits x candidate classes (2**m for an unknown, 1 without) x
# tree nodes.  At the slowest rate measured (about 0.29 us per node
# evaluation, for verify_solved on a complement-heavy tree that keeps every
# model, on a 2-vCPU x86-64 host) this is about seven seconds; a plan above
# it is refused before anything runs.
MAX_ORACLE_WORK = 25_000_000

# Orbits that check_equation evaluates in one pass over the tree.
_BLOCK = 512


@dataclass(frozen=True)
class Universe:
    """A finite universe of m elements, 0 through m-1."""

    size: int

    def __post_init__(self):
        if self.size < 0:
            raise ValueError(f"universe size {self.size} is negative")
        if self.size > MAX_UNIVERSE:
            raise UniverseLimitExceeded(
                f"universe size {self.size} exceeds the exhaustive cap "
                f"of {MAX_UNIVERSE}"
            )

    @property
    def full(self) -> int:
        return (1 << self.size) - 1

    def subsets(self) -> range:
        """All subset bitmasks, ascending."""
        return range(1 << self.size)


@dataclass(frozen=True, eq=False)
class SetAssignment:
    """A concrete model: each symbol names an explicit subset (bitmask)."""

    universe: Universe
    subsets: Mapping[Symbol, int]

    def __post_init__(self):
        for s, mask in self.subsets.items():
            if mask & ~self.universe.full:
                raise ValueError(f"subset for {s} exceeds the universe")

    def subset(self, s: Symbol) -> int:
        try:
            return self.subsets[s]
        except KeyError:
            raise SymbolNotPresent(f"assignment does not cover symbol {s}") from None

    def with_symbol(self, s: Symbol, mask: int) -> "SetAssignment":
        updated = dict(self.subsets)
        updated[s] = mask
        return SetAssignment(self.universe, updated)

    def describe(self) -> str:
        parts = []
        for s, mask in self.subsets.items():
            members = [str(e) for e in range(self.universe.size) if mask >> e & 1]
            parts.append(f"{s} = {{{', '.join(members)}}}")
        return "; ".join(parts)


_ARITHMETIC = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def _flatten(eq: Equation) -> tuple[tuple[Expr, ...], tuple[Expr, ...]]:
    """Both sides of eq in post-order, walked once for every evaluation."""
    return tuple(_postorder(eq.lhs)), tuple(_postorder(eq.rhs))


def _evaluate(
    programs: tuple[tuple[Expr, ...], ...],
    width: int,
    columns: Mapping[Symbol, Sequence[int]],
) -> list[list]:
    """Each post-order program at `width` points, in one pass apiece.

    A point is one element of one model; the callers lay out the models
    of a pass one after another.  columns[s] holds symbol s's 0/1 value
    at every point.  Every node holds its values at all the points at
    once, as exact ints (or Fractions, once a fractional constant takes
    part).  A symbol missing from columns, or a quotient, raises where a
    walk of the tree first meets it.
    """
    results = []
    for program in programs:
        stack: list = []
        for node in program:
            kind = type(node)
            if kind is Sym:
                try:
                    stack.append(columns[node.symbol])
                except KeyError:
                    raise SymbolNotPresent(
                        f"assignment does not cover symbol {node.symbol}"
                    ) from None
            elif kind is Const:
                v = node.value
                stack.append([v.numerator if v.denominator == 1 else v] * width)
            elif kind is Compl:
                stack.append(list(map(operator.sub, repeat(1), stack.pop())))
            elif kind is Quot:
                raise QuotientInOracle("formal division has no pointwise set meaning")
            else:
                right = stack.pop()
                stack.append(list(map(_ARITHMETIC[kind], stack.pop(), right)))
        results.append(list(stack[0]))  # a bare symbol's column may be a tuple
    return results


def _bits(assignment: SetAssignment) -> dict[Symbol, list[int]]:
    """Each assigned symbol's 0/1 indicator at elements 0..m-1."""
    elements = range(assignment.universe.size)
    subsets = assignment.subsets.items()
    return {s: [mask >> e & 1 for e in elements] for s, mask in subsets}


def _columns(syms: tuple[Symbol, ...], types: Sequence[int]) -> dict[Symbol, list[int]]:
    """Each symbol's 0/1 value at elements of the given types; bit i of a
    type puts the element in syms[i]."""
    return {s: [t >> i & 1 for t in types] for i, s in enumerate(syms)}


def _members(types: Sequence[int], masks: set[int]) -> int:
    """The elements, as a bitmask, whose type is one of masks."""
    return sum(1 << e for e, t in enumerate(types) if t in masks)


@cache
def _candidates(m: int) -> tuple[int, ...]:
    """The unknown's column over all 2**m candidate classes: at point
    (w, e), bit e of w."""
    return tuple(w >> e & 1 for w in range(1 << m) for e in range(m))


def _solutions(
    sides: tuple[tuple[Expr, ...], ...],
    unknown: Symbol,
    columns: Mapping[Symbol, list[int]],
    m: int,
) -> list[int]:
    """Every w that satisfies the equation in an m-element model, in one pass.

    columns[s] is symbol s's 0/1 value at each element.  Point (w, e), at
    index w*m + e, is element e with candidate w for the unknown; the
    other symbols keep their columns at every w.
    """
    count = 1 << m
    wide = {s: column * count for s, column in columns.items()}
    wide[unknown] = _candidates(m)
    lhs, rhs = _evaluate(sides, m * count, wide)
    return [w for w in range(count) if lhs[w * m : w * m + m] == rhs[w * m : w * m + m]]


def eval_numeric(e: Expr, assignment: SetAssignment, element: int) -> Fraction:
    """Evaluate a division-free expression at one element, exactly."""
    if not 0 <= element < assignment.universe.size:
        raise ValueError(f"element {element} outside the universe")
    columns = {s: [mask >> element & 1] for s, mask in assignment.subsets.items()}
    (values,) = _evaluate((tuple(_postorder(e)),), 1, columns)
    return Fraction(values[0])


def holds(eq: Equation, assignment: SetAssignment) -> bool:
    """True iff both sides agree numerically at every element."""
    lhs, rhs = _evaluate(_flatten(eq), assignment.universe.size, _bits(assignment))
    return lhs == rhs


def _assignment(syms: tuple[Symbol, ...], types: tuple[int, ...]) -> SetAssignment:
    """The model giving element e the e-th type, as subsets."""
    subsets = {
        s: sum(1 << e for e, t in enumerate(types) if t >> i & 1)
        for i, s in enumerate(syms)
    }
    return SetAssignment(Universe(len(types)), subsets)


def _orbit_types(m: int, k: int) -> Iterator[tuple[int, ...]]:
    """One multiset of m element types over k symbols per orbit, each
    taken in ascending order."""
    return combinations_with_replacement(range(1 << k), m)


def _plan(
    sides: tuple[tuple[Expr, ...], ...],
    syms: tuple[Symbol, ...],
    smallest: int,
    max_universe: int,
    candidates: bool,
) -> Iterator[tuple[int, ...]]:
    """The orbits, on universes smallest..max_universe, of an exhaustive
    check: one tuple of element types each, smaller universes first.

    Refuses up front, before any enumeration, when max_universe is out of
    range or when the planned work (orbits x candidate classes x nodes of
    both sides) exceeds MAX_ORACLE_WORK.  With candidates, every model is
    checked against all 2**m classes of an unknown.
    """
    sizes = range(smallest, Universe(max_universe).size + 1)
    types = 1 << len(syms)
    nodes = sum(map(len, sides))
    work = nodes * sum(
        comb(m + types - 1, m) * (1 << m if candidates else 1) for m in sizes
    )
    if work > MAX_ORACLE_WORK:
        raise UniverseLimitExceeded(
            f"exhaustive check over {len(syms)} symbols on universes up to "
            f"{max_universe} needs {work:,} node evaluations, above the "
            f"budget of {MAX_ORACLE_WORK:,}"
        )
    return chain.from_iterable(_orbit_types(m, len(syms)) for m in sizes)


def submasks(mask: int) -> Iterator[int]:
    """All subsets of a bitmask, ascending by value."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        # next subset in ascending order: increment within the mask
        sub = (sub - mask) & mask


def enumerate_solutions(
    eq: Equation, unknown: Symbol, assignment: SetAssignment
) -> list[int]:
    """All subsets w for which the equation holds, ascending bit order."""
    if isinstance(unknown, str):
        unknown = Symbol(unknown)
    return _solutions(
        _flatten(eq), unknown, _bits(assignment), assignment.universe.size
    )


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


@dataclass(frozen=True)
class VerificationReport:
    sound: bool
    complete: bool
    counterexample: Counterexample | None

    @property
    def ok(self) -> bool:
        return self.sound and self.complete


def verify_solved(
    sol: SolvedClass, eq: Equation, max_universe: int = 4
) -> VerificationReport:
    """Exhaustively check a solved class against its source equation.

    Quantifies over every universe of size 1..max_universe, every model
    of the solution's free symbols (one per permutation orbit) in which
    each side-condition constituent is empty, and every valuation of the
    v-symbols (each ranging over subsets of its constituent's elements).
    Every grouped constituent must be over the free symbols, or the
    check is refused with SymbolListMismatch.

    Each kept model's solutions are enumerated once and compared with
    the assembled classes.  sound: every assembled class is a solution.
    complete: every solution is assembled by some v valuation.  The first
    failure of either kind is reported, soundness before completeness
    within a model.
    """
    sides = _flatten(eq)
    syms = sol.free_symbols
    orbits = _plan(sides, syms, 1, max_universe, True)
    extras = [s for s in eq.free_symbols() if s != sol.unknown and s not in syms]
    if extras:
        raise SymbolNotPresent(
            f"equation symbols {[s.name for s in extras]} are not covered "
            "by the solution's free symbols"
        )
    pieces = [c for _, c in sol.indeterminate]
    for c in chain(sol.included, pieces, sol.side_conditions, sol.excluded):
        if c.symbols != syms:
            raise SymbolListMismatch(
                f"constituent {c} is over {[s.name for s in c.symbols]}, not "
                f"the solution's free symbols {[s.name for s in syms]}"
            )
    included = {c.mask for c in sol.included}
    side = {c.mask for c in sol.side_conditions}
    failures: dict[str, Counterexample] = {}
    for types in orbits:
        if side.intersection(types):
            continue
        m = len(types)
        # an element lies in the constituent whose mask is its type
        base = _members(types, included)
        valuations = product(*(submasks(_members(types, {c.mask})) for c in pieces))
        realized = [reduce(operator.or_, v, base) for v in valuations]
        solutions = _solutions(sides, sol.unknown, _columns(syms, types), m)
        for kind, classes, allowed, note in (
            ("sound", realized, set(solutions),
             "assembled class does not satisfy the equation"),
            ("complete", solutions, set(realized),
             "solution not assembled by any v valuation"),
        ):
            witness = next((w for w in classes if w not in allowed), None)
            if witness is not None and kind not in failures:
                a = _assignment(syms, types)
                failures[kind] = Counterexample(
                    kind, m, tuple(a.subsets.items()), sol.unknown, witness, note
                )
        if len(failures) == 2:
            break
    return VerificationReport(
        "sound" not in failures,
        "complete" not in failures,
        next(iter(failures.values()), None),
    )


def check_equation(
    eq: Equation, syms: tuple[Symbol, ...], max_universe: int = 4
) -> SetAssignment | None:
    """The first model on universes 0..max_universe where eq fails, if any.

    Models assign the given symbols, one per permutation orbit, smaller
    universes first.  They are evaluated _BLOCK at a time, each orbit's
    elements one after another, so the first point where the sides
    differ lies in the first failing model.
    """
    sides = _flatten(eq)
    orbits = _plan(sides, syms, 0, max_universe, False)
    while block := list(islice(orbits, _BLOCK)):
        points = list(chain.from_iterable(block))
        lhs, rhs = _evaluate(sides, len(points), _columns(syms, points))
        if lhs != rhs:
            first = next(p for p, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
            for types in block:
                if first < len(types):
                    return _assignment(syms, types)
                first -= len(types)
    return None
