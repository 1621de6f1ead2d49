"""Expression tree basics: symbols, rendering."""

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
    ZERO,
    format_expr,
    free_symbols,
    symbols,
)

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
