"""Abstract syntax for Boole's algebra of elective symbols.

An expression is a finite tree built from exact rational constants, elective
symbols (x selects the members of class X from the universe 1), and the
formal operations +, -, * and /.  The postfix complement x' is kept as its
own node but is definitionally sugar for 1 - x.

Expressions here are purely formal: + is not union and - is not set
difference.  Their class meaning, when they have one, is recovered by
developing them into constituent normal form (see the algebra module).

A tree's plan (_plan) lists its distinct subtrees once each, from one walk
that takes each object once and refuses a non-expression; equal trees have
equal plans, so equality, hashing and free_symbols read it.  _fold is the
one walk of a plan, for development and the oracle alike.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

SYMBOL_PATTERN = re.compile(r"[a-z][a-z0-9_]*\Z")

# v1, v2, ... are generated for indeterminate classes by the solver and are
# therefore reserved in solver input.
RESERVED_PATTERN = re.compile(r"v[0-9]+\Z")


@dataclass(frozen=True)
class Symbol:
    """An elective symbol: a lowercase identifier naming a class."""

    name: str

    def __post_init__(self):
        if not SYMBOL_PATTERN.match(self.name):
            raise ValueError(
                f"invalid symbol name {self.name!r}: "
                "expected a lowercase letter followed by letters, digits or '_'"
            )

    @property
    def is_reserved(self) -> bool:
        return bool(RESERVED_PATTERN.match(self.name))

    def __str__(self) -> str:
        return self.name


def symbols(names) -> tuple[Symbol, ...]:
    """Read a symbol list: a comma- or space-separated string ("x,y",
    "x y"; "ab" is one symbol, "" none) or an iterable of names and Symbols."""
    if isinstance(names, str):
        names = [n for n in re.split(r"[,\s]+", names) if n]
    return tuple(n if isinstance(n, Symbol) else Symbol(n) for n in names)


ExprLike = Union["Expr", Symbol, int, Fraction]


class Expr:
    """Base class for expression nodes.  All nodes are immutable."""

    def __add__(self, other: ExprLike) -> "Expr":
        return Add(self, as_expr(other))

    def __radd__(self, other: ExprLike) -> "Expr":
        return Add(as_expr(other), self)

    def __sub__(self, other: ExprLike) -> "Expr":
        return Sub(self, as_expr(other))

    def __rsub__(self, other: ExprLike) -> "Expr":
        return Sub(as_expr(other), self)

    def __mul__(self, other: ExprLike) -> "Expr":
        return Mul(self, as_expr(other))

    def __rmul__(self, other: ExprLike) -> "Expr":
        return Mul(as_expr(other), self)

    def __truediv__(self, other: ExprLike) -> "Expr":
        return Quot(self, as_expr(other))

    def __rtruediv__(self, other: ExprLike) -> "Expr":
        return Quot(as_expr(other), self)

    def __invert__(self) -> "Expr":
        return Compl(self)

    def __str__(self) -> str:
        return format_expr(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Expr):
            return NotImplemented
        if self is other:
            return True
        # the root's type first: a constant and a sum differ at once
        return type(self) is type(other) and _plan(self).nodes == _plan(other).nodes

    def __hash__(self) -> int:
        return hash(tuple(_plan(self).nodes))

    def __repr__(self) -> str:
        parts: list[str] = []
        todo: list = [(self,)]  # texts, and each node to show in a 1-tuple
        while todo:
            item = todo.pop()
            if type(item) is str:
                parts.append(item)
                continue
            (item,) = item
            kind = type(item)
            if kind is Const:
                parts.append(f"Const(value={item.value!r})")
            elif kind is Sym:
                parts.append(f"Sym(symbol={item.symbol!r})")
            elif kind is Compl:
                parts.append("Compl(operand=")
                todo += (")", (item.operand,))
            elif isinstance(item, _Binary):
                parts.append(f"{kind.__name__}(left=")
                todo += (")", (item.right,), ", right=", (item.left,))
            elif isinstance(item, Expr):  # of no known kind
                parts.append(object.__repr__(item))
            else:  # not an expression
                parts.append(repr(item))
        return "".join(parts)


@dataclass(frozen=True, eq=False, repr=False)
class Const(Expr):
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True, eq=False, repr=False)
class Sym(Expr):
    symbol: Symbol

    def __post_init__(self):
        if isinstance(self.symbol, str):
            object.__setattr__(self, "symbol", Symbol(self.symbol))
        elif not isinstance(self.symbol, Symbol):
            raise TypeError(f"cannot treat {self.symbol!r} as a symbol")


@dataclass(frozen=True, eq=False, repr=False)
class _Binary(Expr):
    left: Expr
    right: Expr


class Add(_Binary):
    pass


class Sub(_Binary):
    pass


class Mul(_Binary):
    pass


class Quot(_Binary):
    """Formal division.  Only meaningful through development (see expand)."""


@dataclass(frozen=True, eq=False, repr=False)
class Compl(Expr):
    """Postfix complement: Compl(e) stands for 1 - e."""

    operand: Expr


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))
_TAKEN = object()  # on _plan's stack, above a node whose operands are all taken


def as_expr(value: ExprLike) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, Symbol):
        return Sym(value)
    if isinstance(value, (int, Fraction)):
        return Const(Fraction(value))
    raise TypeError(f"cannot treat {value!r} as an expression")


class _Plan(NamedTuple):
    """A tree's distinct subtrees in first-occurrence order, without values."""

    nodes: list[tuple]  # (type, symbol or value, None) or (type, operand slots)
    uses: list[int]  # per slot, the distinct nodes taking it; 1 at the root; for _fold
    symbols: tuple[Symbol, ...]  # in first-occurrence order, as free_symbols gives them
    divides: bool  # whether a quotient occurs


def _plan(e: Expr) -> _Plan:
    """e's distinct subtrees, for the development and the oracle alike, in
    the order a post-order walk (children first, left before right) meets
    them.  A leaf's key is its type and symbol or value, an inner node's its
    type and operand slots (a complement's one slot twice), so equal subtrees
    share a slot and equal trees have equal nodes; uses, symbols and quotients
    are counted as each slot is made.  The walk keeps its own stack, takes
    each object once (f*f costs f once) and refuses a non-expression."""
    slots: dict = {}  # each key, and the id of each object taken, to its slot
    nodes, uses, named = [], [], []  # the _Plan's first three fields
    divides = False
    operands: list[int] = []  # the slots of the operands still to be taken
    stack: list = [e]
    while stack:
        node = stack.pop()
        if node is _TAKEN:
            node, b, a = stack.pop(), operands.pop(), operands.pop()
            kind = type(node)
            entry = key = (kind, a, b)
        elif (slot := slots.get(id(node))) is not None:  # an object met before
            operands.append(slot)
            continue
        elif (kind := type(node)) is Sym:
            entry, key = (kind, node.symbol, None), node.symbol.name
        elif kind is Const:
            v = node.value
            entry = key = (kind, v.numerator if v.denominator == 1 else v, None)
        elif kind is Compl:
            stack += (node, _TAKEN, node.operand, node.operand)
            continue
        elif isinstance(node, _Binary):
            stack += (node, _TAKEN, node.right, node.left)
            continue
        else:
            raise TypeError(f"cannot treat {node!r} as an expression")
        slot = slots[id(node)] = slots.setdefault(key, len(nodes))
        if slot == len(nodes):
            nodes.append(entry)
            uses.append(0)
            if kind is Sym:
                named.append(node.symbol)
            elif kind is not Const:
                uses[a] += 1
                uses[b] += 1
                divides |= kind is Quot
        operands.append(slot)
    uses[-1] = 1  # the root, made last: no proper subtree equals it
    return _Plan(nodes, uses, tuple(named), divides)


def _fold(plan: _Plan, leaf, inner):
    """The root's value of a planned tree: leaf(kind, symbol or value) at
    each leaf slot and inner(kind, x, y) at each inner slot, on its
    operands' values (a complement's one operand twice), in slot order.
    Each slot's value is dropped after its last use."""
    held: list = []
    left = plan.uses.copy()
    for kind, a, b in plan.nodes:
        if b is None:
            held.append(leaf(kind, a))
            continue
        held.append(inner(kind, held[a], held[b]))
        for s in (a, b):
            left[s] -= 1
            if not left[s]:
                held[s] = None
    return held[-1]


def free_symbols(e: Expr) -> tuple[Symbol, ...]:
    """All symbols of e, in first-occurrence (leftmost) order."""
    return _plan(e).symbols


@dataclass(frozen=True)
class Equation:
    """An ordered pair of expressions asserted equal."""

    lhs: Expr
    rhs: Expr

    def homogeneous(self) -> Expr:
        """The expression whose vanishing states the equation (lhs - rhs)."""
        if type(self.rhs) is Const and self.rhs.value == 0:
            return self.lhs
        return Sub(self.lhs, self.rhs)

    def free_symbols(self) -> tuple[Symbol, ...]:
        return free_symbols(Sub(self.lhs, self.rhs))

    def __str__(self) -> str:
        return f"{format_expr(self.lhs)} = {format_expr(self.rhs)}"


def _equation(value) -> Equation:
    """value, which must be an Equation: anything else is refused."""
    if not isinstance(value, Equation):
        raise TypeError(f"expected an Equation, not {value!r}")
    return value


# The grammar's binary operators, written once for the parser and
# format_expr: each node's text and precedence.  The postfix ' binds
# tighter than all of them.
_BINARY = {Add: (" + ", 1), Sub: (" - ", 1), Mul: ("*", 2), Quot: ("/", 2)}
_POSTFIX = 3


def format_expr(e: Expr) -> str:
    """Render an expression in the surface grammar.

    Parentheses are minimal for the grammar's precedence (postfix ' binds
    tightest, then * and /, then + and -).  Negative and non-integer
    constants are always parenthesized so the output re-parses to the same
    tree; re-parsing a non-integer constant yields the equivalent quotient
    of integers, since the grammar has integer literals only.
    """

    # Pieces still to emit, next on top: literal text, or a (node, minimum
    # precedence) pair to render.  Nothing recurses, however deep the tree.
    out: list[str] = []
    todo: list = [(e, 0)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, min_prec = item
        if isinstance(node, Const):
            v = node.value
            out.append(str(v.numerator) if v >= 0 and v.denominator == 1 else f"({v})")
        elif isinstance(node, Sym):
            out.append(node.symbol.name)
        elif isinstance(node, Compl):
            primes = 0
            while isinstance(node, Compl):
                node, primes = node.operand, primes + 1
            todo += ("'" * primes, (node, _POSTFIX))
        elif type(node) not in _BINARY:
            raise TypeError(f"unknown expression node {node!r}")
        else:
            # A same-precedence left operand never takes parentheses.
            p = _BINARY[type(node)][1]
            if p < min_prec:
                out.append("(")
                todo.append(")")
            while (op := _BINARY.get(type(node))) and op[1] == p:
                todo += ((node.right, p + 1), op[0])
                node = node.left
            todo.append((node, p))
    return "".join(out)
