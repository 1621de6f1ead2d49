"""Brute-force set semantics: the independent ground truth.

Everything here works on explicit finite universes {0, ..., m-1} with
subsets stored as bitmasks.  Expressions are evaluated numerically by
substituting each symbol's 0/1 indicator value at every element, in one
pass over the tree.  This is deliberately separate from the algebra
module's development code: the two meet only in tests, where the
developed coefficient at a constituent must match the numeric value on
that constituent's region.

Whether an equation holds in a model depends only on which constituents
are non-empty, and on how many elements each holds; which elements they
are does not matter.  So the exhaustive checks visit one assignment per
orbit of the universe's permutations: a multiset of m element types (a
type says which symbols an element belongs to), C(m + 2**k - 1, m) of
them for k symbols instead of 2**(m*k) assignments.  Before enumerating,
a check counts its work (orbits x candidate classes x tree nodes) and
refuses with UniverseLimitExceeded above MAX_ORACLE_WORK.  That count
bounds the work run: verify_solved evaluates each of a model's 2**m
candidate classes once, in enumerate_solutions, and compares the classes
the solution assembles with the ones that satisfy.

Quotients are refused here.  Formal division has no pointwise set
meaning; solutions produced by formal division are checked against the
original division-free equation instead.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement, product
from math import comb
from typing import Iterator, Mapping

from .errors import QuotientInOracle, SymbolNotPresent, UniverseLimitExceeded
from .expr import Add, Compl, Const, Equation, Expr, Mul, Quot, Sub, Sym, Symbol
from .expr import _postorder
from .algebra import Constituent
from .inference import SolvedClass

MAX_UNIVERSE = 8

# Node evaluations, summed over universe sizes, that one exhaustive check
# may plan: orbits x candidate classes (2**m for an unknown, 1 without) x
# tree nodes.  At the slowest rate measured (about 2.7 us per node
# evaluation, for check_equation on a 2-vCPU x86-64 host) this is about
# eight seconds; a plan above it is refused before anything runs.
MAX_ORACLE_WORK = 3_000_000


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


def _values(e: Expr, assignment: SetAssignment, elements: range) -> list:
    """A division-free expression at each given element, in one pass.

    Every node holds its values at all the elements at once, as exact
    ints (or Fractions, once a fractional constant takes part).
    """
    width = len(elements)
    stack: list = []
    for node in _postorder(e):
        kind = type(node)
        if kind is Sym:
            mask = assignment.subset(node.symbol)
            stack.append([mask >> i & 1 for i in elements])
        elif kind is Const:
            v = node.value
            stack.append([v.numerator if v.denominator == 1 else v] * width)
        elif kind is Compl:
            stack.append([1 - v for v in stack.pop()])
        elif kind is Quot:
            raise QuotientInOracle("formal division has no pointwise set meaning")
        else:
            right = stack.pop()
            stack.append(list(map(_ARITHMETIC[kind], stack.pop(), right)))
    return stack[0]


def eval_numeric(e: Expr, assignment: SetAssignment, element: int) -> Fraction:
    """Evaluate a division-free expression at one element, exactly."""
    if element >= assignment.universe.size:
        raise ValueError(f"element {element} outside the universe")
    return Fraction(_values(e, assignment, range(element, element + 1))[0])


def holds(eq: Equation, assignment: SetAssignment) -> bool:
    """True iff both sides agree numerically at every element."""
    elements = range(assignment.universe.size)
    return _values(eq.lhs, assignment, elements) == _values(
        eq.rhs, assignment, elements
    )


def region(c: Constituent, assignment: SetAssignment) -> int:
    """The elements lying in a constituent: meet of factors as a bitmask."""
    mask = assignment.universe.full
    for i, s in enumerate(c.symbols):
        sub = assignment.subset(s)
        mask &= sub if c.takes(i) else assignment.universe.full & ~sub
    return mask


def _orbits(universe: Universe, syms: tuple[Symbol, ...]) -> Iterator[SetAssignment]:
    """One assignment per orbit of the universe's permutations.

    Each multiset of m element types, taken in ascending order, gives
    element e the e-th type; bit i of a type puts the element in syms[i].
    """
    k = len(syms)
    for types in combinations_with_replacement(range(1 << k), universe.size):
        masks = [0] * k
        for e, t in enumerate(types):
            for i in range(k):
                masks[i] |= (t >> i & 1) << e
        yield SetAssignment(universe, dict(zip(syms, masks)))


def _models(
    eq: Equation,
    syms: tuple[Symbol, ...],
    smallest: int,
    max_universe: int,
    candidates: bool,
) -> Iterator[SetAssignment]:
    """Orbit representatives on universes of size smallest..max_universe.

    Refuses up front, before any enumeration, when max_universe is out of
    range or when the planned work (orbits x candidate classes x nodes of
    eq) exceeds MAX_ORACLE_WORK.  With candidates, every model is checked
    against all 2**m classes of an unknown.
    """
    sizes = range(smallest, Universe(max_universe).size + 1)
    types = 1 << len(syms)
    nodes = sum(1 for side in (eq.lhs, eq.rhs) for _ in _postorder(side))
    work = nodes * sum(
        comb(m + types - 1, m) * (1 << m if candidates else 1) for m in sizes
    )
    if work > MAX_ORACLE_WORK:
        raise UniverseLimitExceeded(
            f"exhaustive check over {len(syms)} symbols on universes up to "
            f"{max_universe} needs {work:,} node evaluations, above the "
            f"budget of {MAX_ORACLE_WORK:,}"
        )
    return (a for m in sizes for a in _orbits(Universe(m), syms))


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
    return [
        w
        for w in assignment.universe.subsets()
        if holds(eq, assignment.with_symbol(unknown, w))
    ]


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

    Quantifies over every universe of size 1..max_universe, every
    assignment of the solution's free symbols (one per permutation orbit)
    that satisfies all side conditions (each side-condition constituent
    empty), and every valuation of the v-symbols (each ranging over
    subsets of its constituent's region).

    Each kept model's solutions are enumerated once and compared with
    the assembled classes.  sound: every assembled class is a solution.
    complete: every solution is assembled by some v valuation.  The first
    failure of either kind is reported, soundness before completeness
    within a model.
    """
    models = _models(eq, sol.free_symbols, 1, max_universe, True)
    extras = [
        s
        for s in eq.free_symbols()
        if s != sol.unknown and s not in sol.free_symbols
    ]
    if extras:
        raise SymbolNotPresent(
            f"equation symbols {[s.name for s in extras]} are not covered "
            "by the solution's free symbols"
        )
    failures: dict[str, Counterexample] = {}
    for a in models:
        if any(region(c, a) for c in sol.side_conditions):
            continue
        base = 0
        for c in sol.included:
            base |= region(c, a)
        pieces = [submasks(region(c, a)) for _, c in sol.indeterminate]
        realized = [reduce(operator.or_, v, base) for v in product(*pieces)]
        solutions = enumerate_solutions(eq, sol.unknown, a)
        for kind, classes, allowed, note in (
            ("sound", realized, set(solutions),
             "assembled class does not satisfy the equation"),
            ("complete", solutions, set(realized),
             "solution not assembled by any v valuation"),
        ):
            witness = next((w for w in classes if w not in allowed), None)
            if witness is not None and kind not in failures:
                failures[kind] = Counterexample(
                    kind,
                    a.universe.size,
                    tuple(a.subsets.items()),
                    sol.unknown,
                    witness,
                    note,
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
    universes first.
    """
    for a in _models(eq, syms, 0, max_universe, False):
        if not holds(eq, a):
            return a
    return None
