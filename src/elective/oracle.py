"""Brute-force set semantics: the independent ground truth.

Everything here works on explicit finite universes {0, ..., m-1} with
subsets stored as bitmasks.  Expressions are evaluated numerically, one
element at a time, by substituting each symbol's 0/1 indicator value.
This is deliberately separate from the algebra module's development code:
the two meet only in tests, where the developed coefficient at a
constituent must match the numeric value on that constituent's region.

Quotients are refused here.  Formal division has no pointwise set
meaning; solutions produced by formal division are checked against the
original division-free equation instead.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Mapping

from .errors import QuotientInOracle, SymbolNotPresent, UniverseLimitExceeded
from .expr import Add, Compl, Const, Equation, Expr, Mul, Quot, Sub, Sym, Symbol
from .expr import _postorder
from .algebra import Constituent
from .inference import SolvedClass

MAX_UNIVERSE = 8


@dataclass(frozen=True)
class Universe:
    """A finite universe of m elements, 0 through m-1."""

    size: int

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("universe size cannot be negative")
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


def eval_numeric(e: Expr, assignment: SetAssignment, element: int) -> Fraction:
    """Evaluate a division-free expression at one element, exactly."""
    if element >= assignment.universe.size:
        raise ValueError(f"element {element} outside the universe")

    # Exact ints inside, far cheaper than Fractions; a Fraction comes out.
    stack: list = []
    for node in _postorder(e):
        kind = type(node)
        if kind is Sym:
            stack.append(assignment.subset(node.symbol) >> element & 1)
        elif kind is Const:
            v = node.value
            stack.append(v.numerator if v.denominator == 1 else v)
        elif kind is Compl:
            stack.append(1 - stack.pop())
        elif kind is Quot:
            raise QuotientInOracle("formal division has no pointwise set meaning")
        else:
            right = stack.pop()
            stack.append(_ARITHMETIC[kind](stack.pop(), right))
    return Fraction(stack[0])


def holds(eq: Equation, assignment: SetAssignment) -> bool:
    """True iff both sides agree numerically at every element."""
    return all(
        eval_numeric(eq.lhs, assignment, e) == eval_numeric(eq.rhs, assignment, e)
        for e in range(assignment.universe.size)
    )


def region(c: Constituent, assignment: SetAssignment) -> int:
    """The elements lying in a constituent: meet of factors as a bitmask."""
    mask = assignment.universe.full
    for i, s in enumerate(c.symbols):
        sub = assignment.subset(s)
        mask &= sub if c.takes(i) else assignment.universe.full & ~sub
    return mask


def assignments(
    universe: Universe, syms: tuple[Symbol, ...]
) -> Iterator[SetAssignment]:
    """Every assignment of the given symbols, in deterministic order."""
    for choice in product(universe.subsets(), repeat=len(syms)):
        yield SetAssignment(universe, dict(zip(syms, choice)))


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
    witness: int  # the offending subset for the unknown
    note: str

    def __str__(self) -> str:
        sets = "; ".join(f"{s} = {mask:#b}" for s, mask in self.assignment)
        return (
            f"{self.kind} failure on universe of size {self.universe_size}: "
            f"{sets}; w = {self.witness:#b} ({self.note})"
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
    assignment of the solution's free symbols that satisfies all side
    conditions (each side-condition constituent empty), and every
    valuation of the v-symbols (each ranging over subsets of its
    constituent's region).

    sound: every assembled class satisfies the equation.
    complete: every subset satisfying the equation is assembled by some
    v valuation.  The first failure of either kind is reported.
    """
    if max_universe > MAX_UNIVERSE:
        raise UniverseLimitExceeded(
            f"max_universe {max_universe} exceeds the cap of {MAX_UNIVERSE}"
        )
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
    sound = True
    complete = True
    counterexample = None

    for m in range(1, max_universe + 1):
        universe = Universe(m)
        for a in assignments(universe, sol.free_symbols):
            if any(region(c, a) for c in sol.side_conditions):
                continue
            base = 0
            for c in sol.included:
                base |= region(c, a)
            v_regions = [region(c, a) for _, c in sol.indeterminate]
            realized = set()
            for choice in product(*(list(submasks(r)) for r in v_regions)):
                w = base
                for piece in choice:
                    w |= piece
                realized.add(w)
                if sound and not holds(eq, a.with_symbol(sol.unknown, w)):
                    sound = False
                    if counterexample is None:
                        counterexample = Counterexample(
                            "sound",
                            m,
                            tuple(a.subsets.items()),
                            w,
                            "assembled class does not satisfy the equation",
                        )
            if complete:
                for w in enumerate_solutions(eq, sol.unknown, a):
                    if w not in realized:
                        complete = False
                        if counterexample is None:
                            counterexample = Counterexample(
                                "complete",
                                m,
                                tuple(a.subsets.items()),
                                w,
                                "solution not assembled by any v valuation",
                            )
                        break
            if not sound and not complete:
                return VerificationReport(False, False, counterexample)
    return VerificationReport(sound, complete, counterexample)
