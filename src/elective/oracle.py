"""Brute-force set semantics: the independent ground truth.

Everything here works on explicit finite universes {0, ..., m-1}.
Expressions are evaluated numerically by substituting each symbol's 0/1
indicator value at every element.  This is deliberately separate from
the algebra module's development code: the two meet only in tests, where
the developed coefficient at a constituent must match the numeric value
on that constituent's region.

One evaluator serves every entry point.  It walks a tree flattened once
into post-order, and each node holds its values at a whole row of points
at once, bit-sliced: a symbol's column is one int, and a node's value is
its numerator as two's-complement bit planes, with bounds taken from the
tree, over one static denominator, so fractions stay exact.  The sides
differ where the planes of their difference have a bit set.  A point is
one element of one model; a pass takes whole models while their points
fit in _BLOCK.  verify_solved lays out each kept model once at m * 2**m
points, one per element of each candidate class of the unknown; it keeps
the models where every side condition holds, and every one-element model.
check_equation lays out each orbit's m elements.  holds is a pass at m
points and eval_numeric a pass at one.

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
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import chain, combinations_with_replacement, product
from math import comb, lcm
from typing import Callable, Iterable, Iterator, Mapping

from .errors import QuotientInOracle, SymbolListMismatch, SymbolNotPresent
from .errors import UniverseLimitExceeded
from .expr import Add, Compl, Const, Equation, Expr, Mul, Quot, Sub, Sym, Symbol
from .expr import _postorder, symbols
from .inference import SolvedClass

MAX_UNIVERSE = 8

# Node evaluations, summed over universe sizes, that one exhaustive check
# may plan: orbits x candidate classes (2**m for an unknown, 1 without) x
# tree nodes; a plan above it is refused before anything runs.  Measured on
# a 2-vCPU x86-64 host, a node evaluation at the universe cap takes 0.005 to
# 0.04 us on complement-heavy, wide-value ((x + y + 3)**8) and fractional
# trees.  The slowest rate, about 0.2 us, is verify_solved over many one- or
# two-element models of 8 to 16 free symbols, where the per-model
# bookkeeping dominates: about five seconds at this budget.
MAX_ORACLE_WORK = 25_000_000

# Points that one pass of the evaluator covers: a pass takes whole models
# in order while their points fit, and at least one.
_BLOCK = 1 << 15


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


def _flatten(eq: Equation) -> tuple[tuple[Expr, ...], tuple[Expr, ...]]:
    """Both sides of eq in post-order, walked once for every evaluation."""
    return tuple(_postorder(eq.lhs)), tuple(_postorder(eq.rhs))


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
    planes = [full if value >> i & 1 else 0 for i in range(_width(value, value))]
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


def _evaluate(programs: tuple, width: int, columns: Mapping[Symbol, int]) -> list:
    """Each post-order program's row at `width` points, in one pass apiece.

    Bit p of columns[s] is symbol s's value at point p.  A row is (planes,
    lo, hi, den): at point p its value is n/den, where n, from lo to hi,
    is read in two's complement from bit p of each plane, the last plane
    the sign.  A symbol missing from columns, or a quotient, raises where
    a walk of the tree first meets it.
    """
    full = (1 << width) - 1
    results = []
    for program in programs:
        stack: list = []
        for node in program:
            kind = type(node)
            if kind is Sym:
                if node.symbol not in columns:
                    message = f"assignment does not cover symbol {node.symbol}"
                    raise SymbolNotPresent(message)
                stack.append(([columns[node.symbol], 0], 0, 1, 1))
            elif kind is Const:
                v = node.value
                stack.append(_constant(v.numerator, v.denominator, full))
            elif kind is Compl:
                x = stack.pop()
                stack.append(_linear(Sub, _constant(x[3], x[3], full), x, full))
            elif kind is Quot:
                raise QuotientInOracle("formal division has no pointwise set meaning")
            else:
                right = stack.pop()
                if kind is Mul:
                    stack.append(_product(stack.pop(), right, full))
                else:
                    stack.append(_linear(kind, stack.pop(), right, full))
        results.append(stack[0])
    return results


def _differ(sides: tuple, width: int, columns: Mapping[Symbol, int]) -> int:
    """The points, as a bitmask, where the two sides differ: the OR of the
    planes of lhs*Dr - rhs*Dl."""
    lhs, rhs = _evaluate(sides, width, columns)
    return reduce(operator.or_, _linear(Sub, lhs, rhs, (1 << width) - 1)[0], 0)


def _blocks(models: Iterable, points: Callable) -> Iterator[list]:
    """Runs of consecutive models whose points fit in _BLOCK; a model
    larger than that is a run of its own."""
    block: list = []
    total = 0
    for model in models:
        if block and total + points(model) > _BLOCK:
            yield block
            block, total = [], 0
        block.append(model)
        total += points(model)
    if block:
        yield block


# For each bit b of a byte, the text "0" or "1" of that bit of every byte.
_BIT_TEXT = [bytes(48 + (v >> b & 1) for v in range(256)) for b in range(8)]


def _columns(syms: tuple[Symbol, ...], types: Iterable[int]) -> dict[Symbol, int]:
    """Each symbol's column over points of the given element types; bit i
    of a type puts its element in syms[i].  A type fits in 64 bits: a plan
    over more symbols is refused on any universe with points."""
    packed = array("Q", types)  # 8 bytes a point, read little-endian
    if sys.byteorder == "big":
        packed.byteswap()
    points = packed.tobytes()
    return {
        s: int(points[i >> 3 :: 8].translate(_BIT_TEXT[i & 7])[::-1] or b"0", 2)
        for i, s in enumerate(syms)
    }


def _classes(mask: int) -> int:
    """The subsets of mask, as a bitmask with bit s set for each subset s:
    the product of 1 + 2**(2**b) over the bits b of mask."""
    bits = [b for b in range(mask.bit_length()) if mask >> b & 1]
    return reduce(operator.mul, [1 + (1 << (1 << b)) for b in bits], 1)


@cache
def _candidates(m: int) -> str:
    """The unknown's column over an m-element model's 2**m candidate
    classes, as binary text: point (w, e) at w*m + e holds bit e of w."""
    return "".join(f"{w:0{m}b}" for w in reversed(range(1 << m)))[: m << m]


def _rejected(sides: tuple, unknown: Symbol, sizes: list[int], columns: dict) -> list:
    """Each model's candidate classes that fail the equation, as a bitmask
    with bit w set for a failing w, from one pass.

    sizes holds each model's m.  Each model's m * 2**m points follow the
    last model's, with point (w, e) at w*m + e among them: element e with
    candidate w for the unknown, whose column is added to columns, the
    other symbols keeping their columns at every w.
    """
    text = "".join(_candidates(m) for m in reversed(sizes))
    columns[unknown] = int(text or "0", 2)
    width = len(text)
    differ = f"{_differ(sides, width, columns):0{width}b}"[::-1]
    out, start = [], 0
    for m in sizes:
        mine = differ[start : start + (m << m)]
        rows = [int(mine[e::m][::-1], 2) for e in range(m)]  # element e, each w
        out.append(reduce(operator.or_, rows, 0))
        start += m << m
    return out


def eval_numeric(e: Expr, assignment: SetAssignment, element: int) -> Fraction:
    """Evaluate a division-free expression at one element, exactly."""
    if not 0 <= element < assignment.universe.size:
        raise ValueError(f"element {element} outside the universe")
    columns = {s: mask >> element & 1 for s, mask in assignment.subsets.items()}
    ((planes, _, _, den),) = _evaluate((tuple(_postorder(e)),), 1, columns)
    unsigned = sum(p << i for i, p in enumerate(planes))
    return Fraction(unsigned - (planes[-1] << len(planes)), den)


def holds(eq: Equation, assignment: SetAssignment) -> bool:
    """True iff both sides agree numerically at every element."""
    return not _differ(_flatten(eq), assignment.universe.size, assignment.subsets)


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
    eq: Equation, unknown: Symbol | str, assignment: SetAssignment
) -> list[int]:
    """All subsets w for which the equation holds, ascending bit order;
    the unknown is a name or a Symbol."""
    (unknown,) = symbols([unknown])
    m = assignment.universe.size
    repeat = sum(1 << w * m for w in range(1 << m))  # a column once per candidate
    columns = {s: mask * repeat for s, mask in assignment.subsets.items()}
    (rejected,) = _rejected(_flatten(eq), unknown, [m], columns)
    return [w for w in assignment.universe.subsets() if not rejected >> w & 1]


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
    The one-element models whose element lies in a side-condition
    constituent are checked too: the solution assembles no class there,
    so it is complete only if every candidate class is rejected.
    Every grouped constituent must be over the free symbols, or the
    check is refused with SymbolListMismatch.

    Each kept model is evaluated once, in a pass with its neighbours, and
    its rejected candidates and its assembled classes are compared as
    bitmasks over the 2**m classes.  sound: every assembled class is a
    solution.  complete: every solution is assembled by some v valuation.
    The first failure of either kind is reported, soundness before
    completeness within a model; a sound witness is the first failing
    class in the order of the v valuations.
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
    order = {c.mask: j for j, c in enumerate(pieces)}  # the v-numbering
    side = {c.mask for c in sol.side_conditions}
    failures: dict[str, Counterexample] = {}

    def fail(kind: str, types: tuple[int, ...], witness: int, note: str) -> None:
        a = _assignment(syms, types)
        failures[kind] = Counterexample(
            kind, len(types), tuple(a.subsets.items()), sol.unknown, witness, note
        )

    kept = (t for t in orbits if len(t) == 1 or not side.intersection(t))
    for block in _blocks(kept, lambda types: len(types) << len(types)):
        if len(failures) == 2:
            break
        sizes = [len(types) for types in block]
        points = chain.from_iterable(t * (1 << len(t)) for t in block)
        columns = _columns(syms, points)
        for types, rejected in zip(block, _rejected(sides, sol.unknown, sizes, columns)):
            # an element lies in the constituent whose mask is its type
            base = sum(1 << e for e, t in enumerate(types) if t in included)
            present = sorted(order.keys() & set(types), key=order.get)
            free = [sum(1 << e for e, t in enumerate(types) if t == c) for c in present]
            realized = _classes(reduce(operator.or_, free, 0) & ~base) << base
            if side.intersection(types):
                realized = 0  # no class is assembled where a side condition fails
            if realized & rejected and "sound" not in failures:
                valuations = product(*map(submasks, free))
                assembled = (reduce(operator.or_, v, base) for v in valuations)
                witness = next(w for w in assembled if rejected >> w & 1)
                note = "assembled class does not satisfy the equation"
                fail("sound", types, witness, note)
            missed = ~rejected & ~realized & ((1 << (1 << len(types))) - 1)
            if missed and "complete" not in failures:
                witness = (missed & -missed).bit_length() - 1
                note = "solution not assembled by any v valuation"
                fail("complete", types, witness, note)
            if len(failures) == 2:
                break
    return VerificationReport(
        "sound" not in failures,
        "complete" not in failures,
        next(iter(failures.values()), None),
    )


def check_equation(eq: Equation, syms, max_universe: int = 4) -> SetAssignment | None:
    """The first model on universes 0..max_universe where eq fails, if any.

    Models assign the symbols of syms, read as `symbols` reads them, one
    per permutation orbit, smaller universes first.  A pass takes orbits
    while their elements fit in _BLOCK points, each orbit's elements one
    after another, so the lowest point where the sides differ lies in
    the first failing model.
    """
    sides, syms = _flatten(eq), symbols(syms)
    orbits = _plan(sides, syms, 0, max_universe, False)
    for block in _blocks(orbits, len):
        points = list(chain.from_iterable(block))
        differ = _differ(sides, len(points), _columns(syms, points))
        if differ:
            first = (differ & -differ).bit_length() - 1
            for types in block:
                if first < len(types):
                    return _assignment(syms, types)
                first -= len(types)
    return None
