"""Symbol lists: one reader (`symbols`) and one default (`expand`'s).

Every call that takes an ordered symbol list reads it the same way: a
comma- or space-separated string, or an iterable of names and Symbols.
A string is never split into letters.  Omitted, a basis is the input's
own symbols in first-occurrence order; an empty list is the empty basis.
An argument that names one symbol takes a name or a Symbol.
"""

from __future__ import annotations

import random

import pytest

from elective import (
    LinearForm,
    SetAssignment,
    Symbol,
    analyze,
    check_equation,
    constituents,
    eliminate,
    expand,
    free_symbols,
    inference,
    parse_equation,
    parse_expression,
    solve_for,
    syllogism,
    symbols,
)
from helpers import random_expr

x, y = Symbol("x"), Symbol("y")
SPELLINGS = ["x,y", "x y", ["x", "y"], (x, y)]
PREMISES = [parse_equation(t) for t in ("x*y' = 0", "y*z' = 0", "z*x = 0")]


def _comparable(result):
    # a SetAssignment compares by identity; its model is what it says
    if isinstance(result, SetAssignment):
        return result.universe, tuple(result.subsets.items())
    return result


OPERATIONS = {
    "expand": lambda syms: expand(parse_expression("x + y'"), syms),
    "analyze": lambda syms: analyze(parse_expression("x + y"), syms).form,
    "constituents": constituents,
    "LinearForm.constant": lambda syms: LinearForm.constant(syms, 3),
    "solve_for": lambda syms: solve_for(parse_equation("x*w = y"), "w", syms),
    "syllogism": lambda syms: syllogism(PREMISES, syms),
    "check_equation": lambda syms: check_equation(parse_equation("x = y"), syms, 2),
}


@pytest.mark.parametrize("operation", OPERATIONS.values(), ids=OPERATIONS.keys())
def test_every_spelling_of_a_symbol_list_reads_the_same(operation):
    results = [_comparable(operation(syms)) for syms in SPELLINGS]
    assert results[0] is not None
    assert all(r == results[0] for r in results)


def test_a_string_is_never_split_into_letters():
    ab = Symbol("ab")
    assert symbols("ab") == (ab,)
    assert symbols("ab, c") == symbols(["ab", "c"]) == (ab, Symbol("c"))
    assert symbols("") == symbols([]) == ()
    assert expand(parse_expression("ab"), "ab").symbols == (ab,)
    premises = [parse_equation("x*yz' = 0"), parse_equation("yz*w' = 0")]
    assert str(syllogism(premises, "yz")) == "x*w' = 0"
    # the names in a list are names, not lists
    with pytest.raises(ValueError, match="invalid symbol name 'x,y'"):
        symbols(["x,y"])


def test_check_equation_reads_a_string_basis():
    assert check_equation(parse_equation("x = x*x"), "x", 2) is None
    model = check_equation(parse_equation("x = 0"), "x", 2)
    assert model.universe.size == 1 and model.subsets[x] == 1


def test_expand_defaults_to_the_expressions_own_symbols():
    rng = random.Random(19)
    for _ in range(200):
        e = random_expr(rng)
        assert expand(e) == expand(e, free_symbols(e))
    assert expand(parse_expression("y*x")).symbols == (y, x)
    assert expand(parse_expression("2")).symbols == ()


EQ = parse_equation("x*w = y")
ONE_SYMBOL = {
    "eliminate": lambda w: eliminate(EQ, w),
    "solve_for": lambda w: solve_for(EQ, w),
    "syllogism": lambda w: syllogism(
        [parse_equation("x*y' = 0"), parse_equation("y*w' = 0")], "y", conclude_for=w
    ),
}


@pytest.mark.parametrize("operation", ONE_SYMBOL.values(), ids=ONE_SYMBOL.keys())
def test_one_symbol_is_a_name_or_a_symbol(operation):
    result = operation("w")
    assert result and result == operation(Symbol("w"))


@pytest.mark.parametrize("drop, conclude_for", [("y", ""), ("Y", None)])
def test_syllogism_reads_its_symbols_before_developing(monkeypatch, drop, conclude_for):
    def develop(*args):
        raise AssertionError("developed before the symbols were read")

    monkeypatch.setattr(inference, "_develop", develop)
    with pytest.raises(ValueError, match="invalid symbol name"):
        syllogism(PREMISES, drop, conclude_for)
