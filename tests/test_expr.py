"""Expression tree basics: symbols, rendering, equality."""

import random
import re
import time
import weakref
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest

from elective import (
    Add,
    Compl,
    Const,
    Equation,
    Mul,
    ONE,
    Quot,
    Sub,
    Sym,
    Symbol,
    SymbolNotPresent,
    ZERO,
    check_equation,
    eliminate,
    expand,
    format_expr,
    free_symbols,
    parse_equation,
    parse_expression,
    symbols,
)
from elective import expr
from elective.expr import _fold, _plan
from helpers import _postorder, planted_tree, random_expr

x, y, z = symbols("x y z")


def test_symbol_names_validated():
    assert Symbol("abc_1").name == "abc_1"
    for bad in ("X", "1x", "", "_a", "a-b"):
        with pytest.raises(ValueError):
            Symbol(bad)


def test_reserved_names():
    assert Symbol("v1").is_reserved
    assert Symbol("v10").is_reserved
    assert not Symbol("v").is_reserved
    assert not Symbol("velocity").is_reserved


def test_free_symbols_first_occurrence_order():
    e = Add(Mul(Sym(y), Sym(x)), Compl(Sym(z)))
    assert free_symbols(e) == (y, x, z)
    assert free_symbols(Const(3)) == ()


def test_operator_sugar():
    e = (Sym(x) + 1) * Sym(y) - 2
    assert e == Sub(Mul(Add(Sym(x), ONE), Sym(y)), Const(2))
    assert ~Sym(x) == Compl(Sym(x))
    assert Sym(y) / Sym(x) == Quot(Sym(y), Sym(x))


def test_format_simple():
    assert format_expr(Sub(ONE, Sym(x))) == "1 - x"
    assert format_expr(Mul(Sym(x), Add(Sym(y), Sym(z)))) == "x*(y + z)"
    assert format_expr(Compl(Sym(x))) == "x'"
    assert format_expr(Compl(Sub(ONE, Sym(x)))) == "(1 - x)'"
    assert format_expr(Quot(Sym(y), Sym(x))) == "y/x"


def test_format_negative_constants_parenthesized():
    assert format_expr(Const(-2)) == "(-2)"
    assert format_expr(Mul(Const(-2), Sym(x))) == "(-2)*x"
    assert format_expr(Add(Sym(x), Const(-1))) == "x + (-1)"


def test_format_associativity_parens():
    a, b, c = Sym(x), Sym(y), Sym(z)
    assert format_expr(Sub(Sub(a, b), c)) == "x - y - z"
    assert format_expr(Sub(a, Sub(b, c))) == "x - (y - z)"
    assert format_expr(Quot(Quot(a, b), c)) == "x/y/z"
    assert format_expr(Quot(a, Mul(b, c))) == "x/(y*z)"


def test_equation_homogeneous():
    eq = Equation(Mul(Sym(x), Sym(y)), Sym(z))
    assert eq.homogeneous() == Sub(Mul(Sym(x), Sym(y)), Sym(z))
    assert str(eq) == "x*y = z"
    # a zero right side is used as-is, keeping residuals compact
    assert Equation(Sym(x), ZERO).homogeneous() == Sym(x)
    assert eq.free_symbols() == (x, y, z)


def test_shallow_repr_is_the_field_listing():
    e = Sub(Compl(Sym(x)), Const(Fraction(1, 2)))
    assert repr(e) == (
        "Sub(left=Compl(operand=Sym(symbol=Symbol(name='x'))), "
        "right=Const(value=Fraction(1, 2)))"
    )
    assert Add(Sym(x), ONE) != Sub(Sym(x), ONE)
    assert Sym(x) != Sym(y) and Const(1) != Const(2) and Sym(x) != Const(1)
    assert hash(Mul(Sym(x), Sym(y))) == hash(Mul(Sym(x), Sym(y)))


def test_deep_trees_compare_hash_and_print():
    # dataclass-generated methods recursed once per level and overflowed here
    text = " + ".join(["x"] * 3000)
    a, b = parse_expression(text), parse_expression(text)
    other = parse_expression(text[:-1] + "y")
    assert a == b and a != other
    assert hash(a) == hash(b)
    assert len({a, b, other}) == 2
    assert Equation(a, other) == Equation(b, other)
    assert repr(a).count("Add(left=") == 2999


def _right_nested(node, depth):
    out = Sym(x)
    for _ in range(depth - 1):
        out = node(Sym(x), out)
    return node(Sym(x), out)


def _complemented_sums(depth):
    out = Sym(y)
    for _ in range(depth):
        out = Compl(Add(Sym(x), out))
    return out


@pytest.mark.parametrize(
    "tree, text",
    [
        (_right_nested(Add, 5000), "x + (" * 4999 + "x + x" + ")" * 4999),
        (_right_nested(Sub, 5000), "x - (" * 4999 + "x - x" + ")" * 4999),
        (_right_nested(Mul, 5000), "x*(" * 4999 + "x*x" + ")" * 4999),
        (_complemented_sums(5000), "(x + " * 5000 + "y" + ")'" * 5000),
    ],
    ids=["add", "sub", "mul", "complemented-sum"],
)
def test_deep_right_nested_trees_render(tree, text):
    # only a parenthesized right operand nests, which parsed text cannot
    # do 5000 deep; library-built trees can
    assert format_expr(tree) == text
    assert str(tree) == text
    with pytest.raises(SymbolNotPresent, match="does not occur in"):
        eliminate(Equation(tree, ZERO), Symbol("q"))


def _complements(leaf, depth):
    out = leaf
    for _ in range(depth):
        out = Compl(out)
    return out


def test_constants_and_complements_hash_by_structure():
    # equal trees hash equal, however deep; the node kind and value count
    half = Fraction(1, 2)
    assert hash(Const(half)) == hash(Const(Fraction(2, 4)))
    assert hash(Compl(Sym(x))) == hash(Compl(Sym(x)))
    assert hash(Const(1)) != hash(Const(2)) and hash(Compl(ONE)) != hash(ONE)
    a, b = _complements(Const(half), 5000), _complements(Const(half), 5000)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, _complements(Const(half), 4999), _complements(ONE, 5000)}) == 3
    mixed = [
        Mul(Add(Compl(Sym(x)), Const(3)), Sub(Compl(Compl(Sym(y))), Const(half)))
        for _ in range(2)
    ]
    assert mixed[0] is not mixed[1] and {mixed[0]: 1}[mixed[1]] == 1


_FLIP = {Add: Sub, Sub: Add, Mul: Quot, Quot: Mul}
_LEAVES = (Const(Fraction(1, 2)), Const(Fraction(2, 4)), Sym(x))


def _near_miss(rng, e):
    """e with one node changed: Add and Sub or Mul and Quot exchanged, the
    operands swapped, one more complement, or a leaf 1/2, 2/4 or x put in
    its place.  Some of these leave the tree as it was."""
    kind = type(e)
    if kind is Compl and rng.random() < 0.7:
        return Compl(_near_miss(rng, e.operand))
    if kind in _FLIP and rng.random() < 0.7:
        if rng.random() < 0.5:
            return kind(_near_miss(rng, e.left), e.right)
        return kind(e.left, _near_miss(rng, e.right))
    change = rng.choice(["flip", "swap", "prime", "leaf"])
    if change == "flip" and kind in _FLIP:
        return _FLIP[kind](e.left, e.right)
    if change == "swap" and kind in _FLIP:
        return kind(e.right, e.left)
    if change == "prime":
        return Compl(e)
    return rng.choice(_LEAVES)


def test_equality_is_structural_on_near_misses():
    # two trees are equal exactly when their field listings are, and equal
    # trees hash equal
    rng = random.Random(20)
    outcomes = set()
    for _ in range(2000):
        a = random_expr(rng, (x, y, z), depth=5, allow_quot=True, fractional=True)
        b = _near_miss(rng, a)
        equal = a == b
        assert equal == (repr(a) == repr(b)) == (b == a), (a, b)
        assert not equal or hash(a) == hash(b), (a, b)
        outcomes.add(equal)
    assert outcomes == {True, False}


def _nested(depth, leaf, left):
    out = leaf
    for i in range(depth):
        kind = (Add, Sub, Mul, Quot)[i % 4]
        out = kind(out, Sym(y)) if left else kind(Sym(y), out)
    return out


@pytest.mark.parametrize("left", [True, False], ids=["left", "right"])
def test_deep_trees_built_apart_compare_and_hash_equal(left):
    a, b = _nested(5000, Sym(x), left), _nested(5000, Sym(x), left)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != _nested(5000, Sym(z), left)
    assert a != _nested(5000, Const(Fraction(1, 2)), left)


def test_binary_nodes_are_frozen():
    with pytest.raises(FrozenInstanceError):
        Add(Sym(x), Sym(y)).left = Sym(z)


def test_fold_takes_each_slot_in_order_and_drops_values_after_their_last_use():
    # a plan with a shared leaf, a shared complement, a square and a
    # constant: leaf and inner calls come in slot order, a complement gets
    # its one operand twice, and at each inner call the values whose last
    # user came before it are gone
    plan = _plan(parse_expression("(x' + y)*(x' + y) + x*2 + x'"))
    last = {}  # each slot's last user
    for slot, (_, a, b) in enumerate(plan.nodes):
        if b is not None:
            last[a] = last[b] = slot
    calls, refs = [], []

    class Value:  # weakref-able, unlike tuples and ints
        pass

    def made(call):
        calls.append(call)
        value = Value()
        refs.append(weakref.ref(value))
        return value

    def inner(kind, x, y):
        slot, alive = len(refs), [r() for r in refs]
        if kind is Compl:
            assert x is y
        assert [v is not None for v in alive] == [last[j] >= slot for j in range(slot)]
        return made((kind, alive.index(x), alive.index(y)))

    root = _fold(plan, lambda kind, a: made((kind, a, None)), inner)
    assert calls == plan.nodes
    assert root is refs[-1]() and [r() for r in refs[:-1]] == [None] * (len(refs) - 1)


def _squared(times):
    f = Mul(Sym(x), Compl(Sym(y)))
    for _ in range(times):
        f = Mul(f, f)
    return f


def test_a_tree_of_shared_objects_plans_each_object_once():
    # x*y' squared 60 times is 64 objects but 2**61 - 1 tree nodes: a walk
    # by occurrence never ends, a walk by object takes each once
    f, g = _squared(60), _squared(60)
    start = time.perf_counter()
    development = [("x*y", 0), ("x*y'", 1), ("x'*y", 0), ("x'*y'", 0)]
    assert list(expand(f).display_items()) == development
    assert f == g and f != _squared(59) and hash(f) == hash(g)
    assert free_symbols(f) == (x, y)
    assert check_equation(Equation(f, _squared(0)), (x, y)) is None
    assert check_equation(Equation(f, Sym(x)), (x, y)) is not None
    assert time.perf_counter() - start < 1.0
    assert len(_plan(f).nodes) == 64


def _unshared(e):
    """A copy of e with a new object at every occurrence, leaves included."""
    made = []
    for node in _postorder(e):
        if type(node) is Sym:
            made.append(Sym(node.symbol))
        elif type(node) is Const:
            made.append(Const(node.value))
        elif type(node) is Compl:
            made.append(Compl(made.pop()))
        else:
            right = made.pop()
            made.append(type(node)(made.pop(), right))
    return made.pop()


def test_shared_objects_plan_as_their_unshared_copies():
    # slots, their order, uses, symbols and the quotient flag are those of
    # the tree walked occurrence by occurrence, whatever objects repeat
    rng = random.Random(32)
    shared = 0
    for i in range(400):
        e = planted_tree(rng, i % 2 == 0) if i % 4 < 3 else random_expr(rng, depth=5)
        if i % 5 == 0:  # an object repeated inside itself and beside itself
            e = Add(Mul(e, e), Compl(e))
        occurrences, copy = list(_postorder(e)), _unshared(e)
        assert len({id(n) for n in _postorder(copy)}) == len(occurrences)
        shared += len({id(n) for n in occurrences}) < len(occurrences)
        assert _plan(e) == _plan(copy), format_expr(e)
    assert shared > 200


def test_homogeneous_makes_no_plan(monkeypatch):
    # a zero right side is read by its type and value, not by ==
    zero, other = parse_equation("x = 0"), parse_equation("x = y")
    calls = []
    monkeypatch.setattr(expr, "_plan", lambda e: calls.append(e) or _plan(e))
    assert zero.homogeneous() is zero.lhs
    fraction_zero = Equation(Sym(x), Const(Fraction(0)))
    assert fraction_zero.homogeneous() is fraction_zero.lhs
    half = Equation(Sym(x), Const(Fraction(1, 2)))
    assert type(half.homogeneous()) is Sub and half.homogeneous().right is half.rhs
    assert type(other.homogeneous()) is Sub and other.homogeneous().right is other.rhs
    assert calls == []


@pytest.mark.parametrize("value", [1, Fraction(1, 2), None, "y", x, (Sym(y),)])
def test_a_non_expression_operand_is_refused_by_name(value):
    refused = re.escape(f"cannot treat {value!r} as an expression")
    for tree in (Add(value, Sym(x)), Compl(Mul(Sym(x), value)), Quot(Sym(x), value)):
        for call in (_plan, expand, free_symbols, hash, lambda t: t == replace(t)):
            with pytest.raises(TypeError, match=refused):
                call(tree)
        assert repr(value) in repr(tree)
    shown = f"Add(left={value!r}, right=Sym(symbol=Symbol(name='x')))"
    assert repr(Add(value, Sym(x))) == shown
