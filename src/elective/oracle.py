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
fit in _BLOCK.  check_equation lays out each orbit's m elements.  holds
is a pass at m points and eval_numeric a pass at one.

verify_solved lays out each kept model at m * 2**m points, its elements
once for each candidate class of the unknown, and decides the whole pass
with a few operations on its ints (broadword, as in Knuth, TAOCP 4A,
7.1.3).  Each element's type carries the solution's reading of it, so
one more pair of columns says where an element misfits a candidate:
included but not in it, excluded but in it, or a side condition.  An OR
over each candidate's m points, by shifts, gives the candidates that are
rejected (the sides differ somewhere) and those not assembled (something
misfits), as bits at the candidates' first points.  Only for a failure
bit is the model that holds it looked up, to report it.

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
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import accumulate, chain, combinations_with_replacement
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
# trees, and about 0.02 us in verify_solved.  The slowest rate, 0.06 to
# 0.1 us, is verify_solved over the one-element models of 16 to 19 free
# symbols, where the per-model work of splitting them into passes
# dominates: up to about two and a half seconds at this budget (0.03 us
# over the one- and two-element models of 8 to 10 free symbols).
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
        size = points(model)
        if block and total + size > _BLOCK:
            yield block
            block, total = [], 0
        block.append(model)
        total += size
    if block:
        yield block


# For each bit b of a byte, the text "0" or "1" of that bit of every byte.
_BIT_TEXT = [bytes(48 + (v >> b & 1) for v in range(256)) for b in range(8)]


def _packed(types: Iterable[int]) -> bytes:
    """The types, 8 little-endian bytes each.  A type fits in 64 bits: a
    plan over more symbols is refused on any universe with points."""
    packed = array("Q", types)
    if sys.byteorder == "big":
        packed.byteswap()
    return packed.tobytes()


def _columns(n: int, points: bytes) -> list[int]:
    """Bits 0..n-1 of the packed types of the points, as n columns: bit p
    of column i is bit i of the p-th type."""
    return [
        int(points[i >> 3 :: 8].translate(_BIT_TEXT[i & 7])[::-1] or b"0", 2)
        for i in range(n)
    ]


@cache
def _candidates(m: int) -> str:
    """The unknown's column over an m-element model's 2**m candidate
    classes, as binary text: point (w, e) at w*m + e holds bit e of w."""
    return "".join(f"{w:0{m}b}" for w in reversed(range(1 << m)))[: m << m]


def _candidate_differ(sides: tuple, unknown: Symbol, runs, columns: dict) -> int:
    """The points of one pass where the sides differ, as a bitmask.

    runs holds (m, n) for each run of n consecutive m-element models.
    Each model's m * 2**m points follow the last model's, with point
    (c, e) at c*m + e among them: element e with candidate c for the
    unknown, whose column is added to columns, the other symbols keeping
    their columns at every c.
    """
    text = "".join(_candidates(m) * n for m, n in reversed(runs))
    columns[unknown] = int(text or "0", 2)
    return _differ(sides, len(text), columns)


def _fold(points: int, m: int) -> int:
    """points with bit p set where any of bits p..p+m-1 is: at the first
    point of each candidate of an m-element model, the OR of its m."""
    span = 1
    while span < m:
        step = min(span, m - span)
        points |= points >> step
        span += step
    return points


def _laid_out(block: list) -> bytes:
    """The packed types of one pass's points: each model's elements once
    for each of its candidate classes, the models one after another."""
    lengths = list(map(len, block))
    flat = _packed(chain.from_iterable(block))
    return b"".join(
        flat[s << 3 : (s + m) << 3] * (1 << m)
        for s, m in zip(accumulate(lengths, initial=0), lengths)
    )


def _failures(differ: int, misfit: int, runs) -> tuple[int, int]:
    """The sound and the complete failures of one pass, each a bit at the
    first point of a failing candidate.

    A candidate is rejected when the sides differ at one of its points,
    and assembled when no element misfits it.  A sound failure is both; a
    complete failure is neither.  runs are as _candidate_differ takes.
    """
    sound = complete = start = 0
    for m, n in runs:
        starts = ((1 << (n * m << m)) - 1) // ((1 << m) - 1) << start
        assembled = starts & ~_fold(misfit, m)
        rejected = starts & _fold(differ, m)
        sound |= assembled & rejected
        complete |= starts ^ (assembled | rejected)
        start += n * m << m
    return sound, complete


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
) -> range:
    """The universe sizes, smallest..max_universe, of an exhaustive check.

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
    return sizes


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
    rejected = _fold(_candidate_differ(_flatten(eq), unknown, [(m, 1)], columns), m)
    return [w for w in assignment.universe.subsets() if not rejected >> w * m & 1]


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

    evaluated[m - 1] counts the models of size m that were evaluated, and
    skipped[m - 1] those left out because a side-condition constituent
    has elements there; every one-element model is evaluated.  A check
    that stops at its first failures of both kinds evaluates fewer.
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

    Each kept model is evaluated once, in a pass with its neighbours,
    and the whole pass is decided at once: a candidate class is assembled
    when every element fits it, and rejected when the sides differ at
    some element.  sound: every assembled class is a solution.  complete:
    every solution is assembled by some v valuation.  The first failure
    of either kind is reported, soundness before completeness within a
    model, with the smallest failing class of that model as its witness.
    (The equation is read element by element, so a failure shows first in
    a one-element model, where that class is also the first failing one
    in the order of the v valuations.)  The report counts the models
    evaluated and skipped at each size.
    """
    sides = _flatten(eq)
    syms = sol.free_symbols
    sizes = _plan(sides, syms, 1, max_universe, True)
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
    k = len(syms)
    # Each type carries its reading in bits k and k + 1: 1 included, 2
    # indeterminate, 3 side condition, 0 for every other type (excluded);
    # in two groups, a side condition wins, then included.  One-element
    # models take every type; larger ones only those that are not side
    # conditions, so they keep exactly the models where every side
    # condition is empty, in the same order.
    reading = dict.fromkeys((c.mask for c in pieces), 2)
    reading.update((c.mask, 1) for c in sol.included)
    reading.update((c.mask, 3) for c in sol.side_conditions)
    pool = [t | reading.get(t, 0) << k for t in range(1 << k)] if sizes else []
    kept = [t for t in pool if t >> k != 3]
    pools = {m: pool if m == 1 else kept for m in sizes}
    orbits = chain.from_iterable(
        combinations_with_replacement(pools[m], m) for m in sizes
    )
    evaluated = [0] * len(sizes)
    failures: dict[str, Counterexample] = {}
    for block in _blocks(orbits, lambda types: len(types) << len(types)):
        runs = Counter(map(len, block)).items()  # ascending sizes
        *columns, low, high = _columns(k + 2, _laid_out(block))
        columns = dict(zip(syms, columns))
        differ = _candidate_differ(sides, sol.unknown, runs, columns)
        # an element misfits a candidate class that holds it if excluded,
        # one that lacks it if included, and every class if a side condition
        misfit = low ^ (columns[sol.unknown] & ~high)
        for m, n in runs:
            evaluated[m - 1] += n
        bits = zip(_NOTES, _failures(differ, misfit, runs))
        new = [(kind, b) for kind, b in bits if b and kind not in failures]
        if new:  # each kind's first failure: its model, and the candidate there
            starts = list(accumulate((len(t) << len(t) for t in block), initial=0))
            firsts = []
            for rank, (kind, b) in enumerate(new):
                point = (b & -b).bit_length() - 1
                j = bisect_right(starts, point) - 1
                firsts.append((j, rank, kind, (point - starts[j]) // len(block[j])))
            for j, _, kind, witness in sorted(firsts):  # soundness first in a model
                a = _assignment(syms, block[j])
                failures[kind] = Counterexample(
                    kind, a.universe.size, tuple(a.subsets.items()), sol.unknown,
                    witness, _NOTES[kind],
                )
        if len(failures) == 2:
            break
    skipped = [  # the orbits of every type, less those of the kept types
        comb(m + len(pool) - 1, m) - comb(m + len(pools[m]) - 1, m) for m in sizes
    ]
    return VerificationReport(
        "sound" not in failures,
        "complete" not in failures,
        next(iter(failures.values()), None),
        tuple(evaluated),
        tuple(skipped),
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
    sizes = _plan(sides, syms, 0, max_universe, False)
    orbits = chain.from_iterable(_orbit_types(m, len(syms)) for m in sizes)
    for block in _blocks(orbits, len):
        points = _packed(chain.from_iterable(block))
        columns = dict(zip(syms, _columns(len(syms), points)))
        differ = _differ(sides, len(points) >> 3, columns)
        if differ:
            first = (differ & -differ).bit_length() - 1
            for types in block:
                if first < len(types):
                    return _assignment(syms, types)
                first -= len(types)
    return None
