"""The coefficientwise engine against per-coefficient reference loops.

Every operation between forms runs once per distinct coefficient object
(or pair of objects) and looks the rest up.  Each operation here is
checked on random forms against a loop that visits every coefficient
in mask order: values, their types and the exact message of any error.
"""

import operator
import random
from fractions import Fraction

import pytest

from elective import (
    INDETERMINATE,
    Indeterminate,
    Infinite,
    LinearForm,
    SolvedClass,
    Symbol,
    b_and,
    b_not,
    b_or,
    constituents,
)
from elective.algebra import _require_finite
from elective.inference import _eliminated, _solved
from elective.modern import _require_interpretable
from helpers import XYZW

CASES = 600

# Shared objects: a form drawing on these holds one object many times.
SHARED = [
    Fraction(0),
    Fraction(1),
    Fraction(1),
    Fraction(2),
    Fraction(-1, 2),
    Fraction(5, 3),
    INDETERMINATE,
    Infinite(3),
]


def _fresh(rng):
    """A new object on every call: finite, 0/0 or k/0."""
    kind = rng.random()
    if kind < 0.1:
        return Indeterminate()
    if kind < 0.2:
        return Infinite(Fraction(rng.choice([-2, 1, 3]), rng.choice([1, 2])))
    return Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))


def _coeff(rng, extended: bool, interpretable: bool):
    if interpretable:
        return rng.choice([*SHARED[:3], Fraction(rng.randint(0, 1))])
    while True:
        v = rng.choice(SHARED) if rng.random() < 0.6 else _fresh(rng)
        if extended or isinstance(v, Fraction):
            return v


def _random_form(rng, syms, extended=False, interpretable=False):
    coeffs = tuple(_coeff(rng, extended, interpretable) for _ in range(1 << len(syms)))
    return LinearForm(syms, coeffs)


def _random_pair(rng, interpretable=False):
    syms = XYZW[: rng.randint(0, 4)]
    extended = rng.random() < 0.3
    return (
        _random_form(rng, syms, extended, interpretable),
        _random_form(rng, syms, extended and rng.random() < 0.5, interpretable),
    )


def _outcome(call):
    """A result's coefficients with their types, or the error's type and text."""
    try:
        result = call()
    except Exception as exc:  # the reference must fail the same way
        return type(exc), str(exc)
    if isinstance(result, LinearForm):
        return result.symbols, [(type(v), v) for v in result.coeffs]
    return result


# -- per-coefficient references ----------------------------------------------


def _ref_combine(f, g, op):
    for v in (*f.coeffs, *g.coeffs):
        _require_finite(v, "form combination")
    return LinearForm(f.symbols, tuple(op(a, b) for a, b in zip(f.coeffs, g.coeffs)))


def _ref_or(f, g):
    _require_interpretable("b_or", f, g)
    pairs = zip(f.coeffs, g.coeffs)
    return LinearForm(f.symbols, tuple(a + b - a * b for a, b in pairs))


def _ref_and(f, g):
    _require_interpretable("b_and", f, g)
    return LinearForm(f.symbols, tuple(a * b for a, b in zip(f.coeffs, g.coeffs)))


def _ref_not(f):
    _require_interpretable("b_not", f)
    return LinearForm(f.symbols, tuple(1 - v for v in f.coeffs))


def _pairs(form, s):
    """(rest, [(a, b)]) at each mask of the other symbols, ascending: a at
    the mask with the bit of s set, b with it clear."""
    i = form.symbols.index(s)
    rest = form.symbols[:i] + form.symbols[i + 1 :]
    out = []
    for m in range(1 << len(rest)):
        low, high = m & (1 << i) - 1, m >> i << i + 1
        out.append((form.coeffs[high | 1 << i | low], form.coeffs[high | low]))
    return rest, out


def _ref_eliminated(form, s):
    rest, pairs = _pairs(form, s)
    return LinearForm(rest, tuple(a * b for a, b in pairs))


def _ref_solved(form, s):
    rest, pairs = _pairs(form, s)
    groups = {"pieces": [], "included": [], "excluded": [], "side": []}
    for c, (a, b) in zip(constituents(rest), pairs):
        if a == 0 and b == 0:
            groups["pieces"].append(c)  # 0/0
        elif a == 0:
            groups["included"].append(c)  # b/b
        elif b == 0:
            groups["excluded"].append(c)  # 0/(-a)
        else:
            groups["side"].append(c)
    return SolvedClass(
        unknown=s,
        free_symbols=rest,
        included=frozenset(groups["included"]),
        indeterminate=tuple(
            (Symbol(f"v{j}"), c) for j, c in enumerate(groups["pieces"], 1)
        ),
        side_conditions=frozenset(groups["side"]),
        excluded=frozenset(groups["excluded"]),
    )


# -- the checks --------------------------------------------------------------


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_arithmetic_matches_the_per_coefficient_loop(op):
    rng = random.Random(op.__name__)
    failures = 0
    for _ in range(CASES):
        f, g = _random_pair(rng)
        got = _outcome(lambda: op(f, g))
        assert got == _outcome(lambda: _ref_combine(f, g, op)), (f, g)
        failures += isinstance(got[0], type)
    assert 0 < failures < CASES  # both outcomes were exercised


def test_an_extended_value_of_the_left_form_is_reported_first():
    f = LinearForm((XYZW[0],), (Fraction(1), Infinite(2)))
    g = LinearForm((XYZW[0],), (INDETERMINATE, Fraction(0)))
    assert _outcome(lambda: f + g) == _outcome(lambda: _ref_combine(f, g, operator.add))
    assert "2/0 cannot be an operand" in _outcome(lambda: f * g)[1]


@pytest.mark.parametrize(
    "op, ref", [(b_or, _ref_or), (b_and, _ref_and)], ids=["b_or", "b_and"]
)
def test_boolean_operations_match_the_per_coefficient_loop(op, ref):
    rng = random.Random(1501)
    for _ in range(CASES):
        f, g = _random_pair(rng, interpretable=rng.random() < 0.7)
        assert _outcome(lambda: op(f, g)) == _outcome(lambda: ref(f, g)), (f, g)


def test_complement_matches_the_per_coefficient_loop():
    rng = random.Random(1502)
    for _ in range(CASES):
        f, _ = _random_pair(rng, interpretable=rng.random() < 0.7)
        assert _outcome(lambda: b_not(f)) == _outcome(lambda: _ref_not(f)), f


def test_elimination_and_solving_match_the_per_coefficient_loop():
    rng = random.Random(1503)
    for _ in range(CASES):
        f, _ = _random_pair(rng)
        if not f.symbols:
            continue
        s = rng.choice(f.symbols)
        assert _outcome(lambda: _eliminated(f, s)) == _outcome(
            lambda: _ref_eliminated(f, s)
        ), (f, s)
        assert _outcome(lambda: _solved(f, s)) == _outcome(lambda: _ref_solved(f, s))


def test_interpretability_matches_the_per_coefficient_test():
    rng = random.Random(1504)
    for _ in range(CASES):
        f, _ = _random_pair(rng, interpretable=rng.random() < 0.5)
        bad = [
            m
            for m, v in enumerate(f.coeffs)
            if not (isinstance(v, Fraction) and v in (0, 1))
        ]
        assert list(f._nonclass()) == bad
        assert f.is_interpretable() == (not bad)
