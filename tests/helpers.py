"""Shared random generators and oracle shortcuts for the test suite."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from itertools import product
from pathlib import Path
from typing import Iterator

import elective
from elective import (
    Add,
    Compl,
    Const,
    Constituent,
    Equation,
    Expr,
    Mul,
    Quot,
    SetAssignment,
    Sub,
    Sym,
    Symbol,
    Universe,
    constituents,
    format_expr,
    parse_expression,
)
from elective.expr import _Binary

XYZW = tuple(Symbol(n) for n in "xyzw")


def child_env() -> dict[str, str]:
    """The environment of a Python child that imports the package under
    test, installed or not."""
    src = str(Path(elective.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_elective(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    """`python -m elective` as a child that imports the package under test."""
    return subprocess.run(
        [sys.executable, "-m", "elective", *argv], env=child_env(), **kwargs
    )


def _postorder(e: Expr) -> Iterator[Expr]:
    """Every node of e, children before parents and left before right.

    The walk keeps its own stack, so a deep tree costs no interpreter
    stack: the reverse of a root-first walk that takes right before left
    is exactly the post-order.
    """
    order, stack = [], [e]
    while stack:
        node = stack.pop()
        order.append(node)
        if type(node) is Compl:
            stack.append(node.operand)
        elif isinstance(node, _Binary):
            stack += (node.left, node.right)
    return reversed(order)


def random_expr(
    rng: random.Random,
    syms: tuple[Symbol, ...] = XYZW,
    depth: int = 6,
    allow_quot: bool = False,
    fractional: bool = False,
) -> Expr:
    """A random expression tree: constants in [-3, 3], given symbols.

    With `fractional`, a constant is divided by 1, 2 or 3.
    """
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            k = rng.randint(-3, 3)
            return Const(Fraction(k, rng.randint(1, 3)) if fractional else k)
        return Sym(rng.choice(syms))
    ops = ["add", "sub", "mul", "mul", "compl"]
    if allow_quot:
        ops.append("quot")
    op = rng.choice(ops)
    if op == "compl":
        return Compl(random_expr(rng, syms, depth - 1, allow_quot, fractional))
    left = random_expr(rng, syms, depth - 1, allow_quot, fractional)
    right = random_expr(rng, syms, depth - 1, allow_quot, fractional)
    node = {"add": Add, "sub": Sub, "mul": Mul, "quot": Quot}[op]
    return node(left, right)


def planted_tree(rng: random.Random, quotients: bool) -> Expr:
    """A random tree over a few subtrees, each reused as one object, as a
    parsed copy, complemented or scaled by a constant; with `quotients`,
    quotients occur, one of them failing wherever x = y."""
    x, y = Sym(XYZW[0]), Sym(XYZW[1])
    pool = [random_expr(rng, XYZW, rng.randint(1, 4), quotients) for _ in range(3)]
    if quotients:
        pool.append(Quot(x, Sub(x, y)))

    def build(depth):
        if depth and rng.random() < 0.7:
            node = rng.choice([Add, Sub, Mul, Quot if quotients else Mul])
            left = build(depth - 1)
            return node(left, left if rng.random() < 0.25 else build(depth - 1))
        f = rng.choice(pool)
        return rng.choice([
            f,
            parse_expression(format_expr(f)),
            Compl(f),
            Mul(Const(rng.choice([2, -1, Fraction(1, 2)])), f),
        ])

    return build(rng.randint(1, 4))


class Nested(Exception):
    """An extended value (x/0) was an operand of a further operation."""


def reference_value(e: Expr, vertex: dict[Symbol, int]):
    """e at a 0/1 vertex by direct recursion, quotients included.

    Independent of the algebra module's pass: every finite value is a
    Fraction, x/0 is ("0/0",) for x = 0 and ("k/0", x) otherwise, and an
    extended operand of any further operation raises Nested.
    """
    if isinstance(e, Const):
        return Fraction(e.value)
    if isinstance(e, Sym):
        return Fraction(vertex[e.symbol])
    children = (e.operand,) if isinstance(e, Compl) else (e.left, e.right)
    operands = [reference_value(child, vertex) for child in children]
    if not all(isinstance(v, Fraction) for v in operands):
        raise Nested
    if isinstance(e, Compl):
        return 1 - operands[0]
    left, right = operands
    if isinstance(e, Quot):
        if right == 0:
            return ("0/0",) if left == 0 else ("k/0", left)
        return left / right
    if isinstance(e, Add):
        return left + right
    if isinstance(e, Sub):
        return left - right
    return left * right


def random_interpretable_expr(
    rng: random.Random, syms: tuple[Symbol, ...]
) -> Expr:
    """A random {0,1}-valued expression: a sum of distinct constituents."""
    picked = [c for c in constituents(syms) if rng.random() < 0.5]
    if not picked:
        return Const(0)
    out = constituent_product(picked[0])
    for c in picked[1:]:
        out = Add(out, constituent_product(c))
    return out


def _literals(c: Constituent) -> list[Expr]:
    """c's factors from fresh nodes, in symbol order: s where its bit is
    set, s' where it is clear."""
    return [
        Sym(s) if c.mask >> i & 1 else Compl(Sym(s)) for i, s in enumerate(c.symbols)
    ]


def constituent_product(c: Constituent) -> Expr:
    """c's product of literals, left-nested; over no symbols, 1."""
    factors = _literals(c)
    return reduce(Mul, factors) if factors else Const(1)


def vertex(c: Constituent) -> dict[Symbol, int]:
    """The 0/1 point at which c's product of literals is 1."""
    return {s: c.mask >> i & 1 for i, s in enumerate(c.symbols)}


def reference_display_order(items):
    """Constituents in the traditional layout, by the rule it comes from.

    Each mask is read with its bits reversed (the first symbol most
    significant) and the results are sorted descending, so for two
    symbols the order is xy, xy', x'y, x'y'.
    """

    def rank(c):
        n = len(c.symbols)
        return sum((c.mask >> i & 1) << (n - 1 - i) for i in range(n))

    return tuple(sorted(items, key=rank, reverse=True))


def naive_to_expr(form) -> Expr:
    """A form's compact expression rebuilt term by term from fresh nodes."""
    terms = []
    for c in reference_display_order(constituents(form.symbols)):
        v = form.coeff(c)
        if v == 0:
            continue
        factors = _literals(c)
        if v != 1:
            factors.insert(0, Const(v))
        term = factors[0]
        for f in factors[1:]:
            term = Mul(term, f)
        terms.append(term)
    if not terms:
        return Const(0)
    out = terms[0]
    for t in terms[1:]:
        out = Add(out, t)
    return out


# -- naive oracle: every assignment, one element at a time ------------------
#
# The reference the package's oracle is cross-checked against: it
# enumerates all 2**(m*k) assignments and evaluates each side of an
# equation separately at every element.


def assignments(universe: Universe, syms: tuple[Symbol, ...]):
    """Every assignment of the given symbols, first symbol slowest."""
    for choice in product(range(1 << universe.size), repeat=len(syms)):
        yield SetAssignment(universe, dict(zip(syms, choice)))


def extensions(a: SetAssignment, hidden: tuple[Symbol, ...]):
    """a with every assignment of the hidden symbols added, first symbol
    slowest."""
    for b in assignments(a.universe, hidden):
        yield SetAssignment(a.universe, {**a.subsets, **b.subsets})


def region(c: Constituent, a: SetAssignment) -> int:
    """The elements lying in a constituent: meet of factors as a bitmask."""
    mask = a.universe.full
    for i, s in enumerate(c.symbols):
        sub = a.subsets[s]
        mask &= sub if c.mask >> i & 1 else a.universe.full & ~sub
    return mask


def naive_value(e: Expr, a: SetAssignment, element: int):
    """e at one element, by direct recursion over the (shallow) tree."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Sym):
        return a.subsets[e.symbol] >> element & 1
    if isinstance(e, Compl):
        return 1 - naive_value(e.operand, a, element)
    left, right = naive_value(e.left, a, element), naive_value(e.right, a, element)
    if isinstance(e, Add):
        return left + right
    if isinstance(e, Sub):
        return left - right
    if isinstance(e, Mul):
        return left * right
    raise TypeError(f"the naive oracle does not evaluate {type(e).__name__}")


def naive_holds(eq: Equation, a: SetAssignment) -> bool:
    return all(
        naive_value(eq.lhs, a, e) == naive_value(eq.rhs, a, e)
        for e in range(a.universe.size)
    )


def naive_verify(sol, eq: Equation, max_universe: int):
    """(sound, complete, kind of the first failure or None), naively."""
    sound = complete = True
    kind = None
    for m in range(1, max_universe + 1):
        for a in assignments(Universe(m), sol.free_symbols):
            # a one-element model is kept where a side condition fails
            if m > 1 and any(region(c, a) for c in sol.side_conditions):
                continue
            assembled, solutions = naive_classes(sol, eq, a)
            if sound and any(w not in solutions for w in assembled):
                sound = False
                kind = kind or "sound"
            if complete and any(w not in assembled for w in solutions):
                complete = False
                kind = kind or "complete"
            if not sound and not complete:
                return sound, complete, kind
    return sound, complete, kind


def naive_models(sol, m: int) -> list[SetAssignment]:
    """One model of m elements per orbit, in the order the oracle visits
    them: the model whose element types ascend, where bit i of a type puts
    its element in the i-th free symbol, ordered by that tuple of types."""
    syms = sol.free_symbols
    models = []
    for a in assignments(Universe(m), syms):
        types = [
            sum((a.subsets[s] >> e & 1) << i for i, s in enumerate(syms))
            for e in range(m)
        ]
        if types == sorted(types):
            models.append((types, a))
    return [a for _, a in sorted(models, key=lambda pair: pair[0])]


def submasks(mask: int):
    """All subsets of a bitmask, ascending by value."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        # next subset in ascending order: increment within the mask
        sub = (sub - mask) & mask


def naive_classes(sol, eq: Equation, a: SetAssignment) -> tuple[list, list]:
    """The classes the solution assembles in a model, in the order of the
    v valuations, and the classes of the unknown that satisfy eq there."""
    assembled = []
    if not any(region(c, a) for c in sol.side_conditions):
        base = 0
        for c in sol.included:
            base |= region(c, a)
        pieces = [submasks(region(c, a)) for _, c in sol.indeterminate]
        for choice in product(*pieces):
            w = base
            for piece in choice:
                w |= piece
            assembled.append(w)
    solutions = [
        b.subsets[sol.unknown]
        for b in extensions(a, (sol.unknown,))
        if naive_holds(eq, b)
    ]
    return assembled, solutions


def naive_counterexample(sol, eq: Equation, max_universe: int):
    """(kind, universe size, subsets, witness) of the first failure that
    verify_solved reports, or None, naively: models in the oracle's
    order, a sound failure before a complete one within a model, a sound
    witness the first failing class in the order of the v valuations and
    a complete witness the smallest solution not assembled."""
    for m in range(1, max_universe + 1):
        for a in naive_models(sol, m):
            if m > 1 and any(region(c, a) for c in sol.side_conditions):
                continue
            assembled, solutions = naive_classes(sol, eq, a)
            for w in assembled:
                if w not in solutions:
                    return "sound", m, a.subsets, w
            for w in solutions:
                if w not in assembled:
                    return "complete", m, a.subsets, w
    return None


def naive_first_failure(eq: Equation, syms: tuple[Symbol, ...], max_universe: int):
    """The size of the smallest universe on which eq fails, or None."""
    for m in range(max_universe + 1):
        if not all(naive_holds(eq, a) for a in assignments(Universe(m), syms)):
            return m
    return None
