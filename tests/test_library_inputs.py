"""Library-built inputs that are not what they claim to be.

A tree may hold a raw value where an expression belongs, a Sym may be
given something that is no name, and a list of premises may hold
something that is no Equation.  Each is refused where it is read, with a
TypeError or ValueError that names it, or ends in a result or a typed
ElectiveError: never in an IndexError, AttributeError or KeyError.
"""

import copy
import random
import re
from fractions import Fraction

import pytest

from elective import (
    Add,
    Compl,
    ElectiveError,
    Equation,
    Expr,
    Mul,
    Quot,
    Sub,
    Sym,
    Symbol,
    check_equation,
    combine_premises,
    eliminate,
    eval_at,
    expand,
    free_symbols,
    parse_equation,
    solve_for,
    syllogism,
    verify_solved,
)
from elective.oracle import plan_verification
from helpers import XYZW, random_expr

RAW = [0, 3, -2, Fraction(1, 2), Symbol("x"), None, "y", "x = y", ""]


def _tree(rng, depth, raw):
    """A random tree whose operands are now and then a raw value from RAW,
    as the node constructors accept them; each one used is added to raw."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.25:
            raw.append(rng.choice(RAW))
            return raw[-1]
        return random_expr(rng, depth=1)
    kind = rng.choice([Add, Sub, Mul, Quot, Compl])
    if kind is Compl:
        return Compl(_tree(rng, depth - 1, raw))
    return kind(_tree(rng, depth - 1, raw), _tree(rng, depth - 1, raw))


def _outcome(call, raw):
    """None for a result or a typed error; otherwise what is wrong."""
    try:
        call()
    except ElectiveError:
        return None
    except (TypeError, ValueError) as err:
        if any(repr(v) in str(err) for v in raw):
            return None
        return f"{type(err).__name__} naming none of {raw}: {err}"
    except Exception as err:  # noqa: BLE001 - any other type is the failure
        return f"{type(err).__name__}: {err}"
    return None


def test_raw_values_in_trees_end_in_results_or_errors_that_name_them():
    rng = random.Random(14)
    vertex = {s: rng.randint(0, 1) for s in XYZW}
    wrong = []
    for i in range(300):
        raw: list = []
        lhs = _tree(rng, 5, raw)
        rhs = random_expr(rng, depth=3) if i % 2 else _tree(rng, 3, raw)
        if not raw or not isinstance(lhs, Expr):
            continue
        eq = Equation(lhs, rhs)
        other = Equation(Mul(Sym("x"), Sym("y")), Sym("z"))
        calls = [
            lambda: expand(lhs),
            lambda: eval_at(lhs, vertex),
            lambda: lhs == copy.copy(lhs),
            lambda: eq == Equation(lhs, rhs),
            lambda: hash(lhs),
            lambda: hash(eq),
            lambda: str(lhs),
            lambda: str(eq),
            lambda: repr(lhs),
            lambda: free_symbols(lhs),
            lambda: eq.free_symbols(),
            lambda: check_equation(eq, XYZW, 1),
            lambda: solve_for(eq, "x", None),
            lambda: syllogism([eq, other], "x"),
            lambda: syllogism([other, eq], "", "w"),
        ]
        for j, call in enumerate(calls):
            why = _outcome(call, raw)
            if why:
                wrong.append((i, j, why))
    assert not wrong, wrong[:5]


def test_repr_shows_a_raw_value_by_its_own_repr():
    e = Mul(Sym("x"), Compl(Add(None, "y")))
    assert repr(e) == (
        "Mul(left=Sym(symbol=Symbol(name='x')), "
        "right=Compl(operand=Add(left=None, right='y')))"
    )
    # a node of no known kind is shown, and refused, as the object it is
    stray = Expr()
    shown = repr(Add(stray, Sym("x")))
    assert shown.startswith("Add(left=<elective.expr.Expr object at")
    with pytest.raises(TypeError, match="cannot treat <elective.expr.Expr object at"):
        expand(Add(stray, Sym("x")))


@pytest.mark.parametrize("value", [3, None, Fraction(1, 2), Sym("x"), b"x"])
def test_sym_refuses_what_is_neither_a_name_nor_a_symbol(value):
    refused = re.escape(f"cannot treat {value!r} as a symbol")
    with pytest.raises(TypeError, match=refused):
        Sym(value)


def test_sym_reads_a_name_and_keeps_a_symbol():
    assert Sym("x").symbol == Symbol("x") and Sym(Symbol("x")).symbol == Symbol("x")
    with pytest.raises(ValueError, match="'X'"):
        Sym("X")


@pytest.mark.parametrize("value", ["x", None, 3, Sym("x"), ("w", "x")])
def test_verify_solved_refuses_anything_but_a_solution_by_name(value):
    refused = re.escape(f"expected a SolvedClass, not {value!r}")
    with pytest.raises(TypeError, match=refused):
        verify_solved(value, parse_equation("x*w = y"))


@pytest.mark.parametrize("value", ["x = y", None, 3, Sym("x"), ("x", "y")])
def test_functions_that_read_equations_refuse_anything_else_by_name(value):
    eq = parse_equation("x*w = y")
    sol = solve_for(eq, "w")
    calls = [
        lambda: eliminate(value, "x"),
        lambda: solve_for(value, "w"),
        lambda: combine_premises([eq, value]),
        lambda: syllogism([value]),
        lambda: syllogism([eq, value], "x"),
        lambda: check_equation(value, "x,y"),
        lambda: verify_solved(sol, value),
        lambda: plan_verification(value, "w"),
    ]
    refused = re.escape(f"expected an Equation, not {value!r}")
    for call in calls:
        with pytest.raises(TypeError, match=refused):
            call()
