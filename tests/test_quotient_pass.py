"""The development pass against a per-point reference, on quotients.

The pass holds each node as int numerators over one denominator and
records failures per node; helpers.reference_value evaluates one vertex
at a time with a Fraction per value.  The trees nest quotients, divide
by non-literal denominators such as 2 + s0, feed fractional constants to
sums, differences, products and complements, and plant 0/0 and k/0
values that feed further arithmetic.  Denominators that are weighted
sums, such as 1 + w0 + 2*w1 + ... + 64*w6, take so many values that the
pass holds their quotients, and every node above one, a Fraction per
point instead.
"""

from __future__ import annotations

import copy
import pickle
import random
import time
from fractions import Fraction

import pytest

from elective import (
    INDETERMINATE,
    Add,
    Compl,
    Const,
    Constituent,
    Infinite,
    Mul,
    Quot,
    Sub,
    Sym,
    Symbol,
    UninterpretableNesting,
    analyze,
    constituents,
    eval_at,
    expand,
)
from elective import algebra
from helpers import Nested, reference_value, vertex

S = tuple(Symbol(f"s{i}") for i in range(5))
W = tuple(Symbol(f"w{i}") for i in range(7))
_CONTEXTS = {
    Compl: ("complement",),
    Add: ("sum", "sum"),
    Sub: ("difference", "difference"),
    Mul: ("product", "product"),
    Quot: ("quotient numerator", "quotient denominator"),
}


def _leaf(rng):
    r = rng.random()
    if r < 0.45:
        return Sym(rng.choice(S))
    if r < 0.7:
        return Const(rng.randint(-3, 3))
    return Const(Fraction(rng.randint(-5, 5), rng.randint(2, 6)))


def _denominator(rng, depth):
    """A literal product, a sum or difference such as 2 + s0, a constant
    (0 among them), or any tree, quotients included."""
    a, b = Sym(rng.choice(S)), Sym(rng.choice(S))
    return rng.choice([
        lambda: Mul(a, Compl(b)),
        lambda: Add(Const(rng.choice([2, -1, Fraction(1, 2), 3])), a),
        lambda: Sub(a, b),
        lambda: Const(rng.choice([0, 2, Fraction(-2, 3)])),
        lambda: _tree(rng, depth),
        lambda: _tree(rng, depth),
    ])()


def _tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return _leaf(rng)
    op = rng.choice([Add, Sub, Mul, Compl, Quot, Quot])
    if op is Compl:
        return Compl(_tree(rng, depth - 1))
    if op is Quot:
        return Quot(_tree(rng, depth - 1), _denominator(rng, depth - 1))
    left = _tree(rng, depth - 1)
    return op(left, left if rng.random() < 0.1 else _tree(rng, depth - 1))


def _planted(rng):
    """A quotient that is 0/0 or k/0 somewhere, fed to a further operation."""
    top = rng.choice([Const(0), Sym(S[0]), _tree(rng, 2)])
    quotient = Quot(top, rng.choice([Sym(S[1]), Sub(Sym(S[1]), Sym(S[2]))]))
    other = _tree(rng, 2)
    return rng.choice([
        lambda: Compl(quotient),
        lambda: Add(other, quotient),
        lambda: Mul(quotient, other),
        lambda: Quot(other, quotient),
        lambda: Sub(quotient, quotient),
    ])()


def _text(v) -> str:
    if v == ("0/0",):
        return "0/0"
    k = v[1]
    return f"{k.numerator}/0" if k.denominator == 1 else f"({k})/0"


def _failure(e, point) -> str:
    """Why e fails at a vertex: at the first node, children first and left
    before right, that takes an extended operand."""
    children = (e.operand,) if type(e) is Compl else (e.left, e.right)
    for child in children:
        try:
            reference_value(child, point)
        except Nested:
            return _failure(child, point)
    for child, context in zip(children, _CONTEXTS[type(e)]):
        v = reference_value(child, point)
        if isinstance(v, tuple):
            return (
                f"{_text(v)} cannot be an operand of a {context}; "
                "0/0 and k/0 are terminal values"
            )
    raise AssertionError("no operand is extended")


def _same_value(got, want) -> bool:
    if want == ("0/0",):
        return got is INDETERMINATE
    if isinstance(want, tuple):
        return type(got) is Infinite and type(got.numerator) is Fraction and (
            got.numerator == want[1]
        )
    return type(got) is Fraction and got == want


def _where(failing) -> str:
    others = len(failing) - 1
    if not others:
        return str(failing[0])
    return f"{failing[0]} and {others} other constituent{'s' if others > 1 else ''}"


def _weighted(rng, syms, offset):
    """offset + a sum of syms in a random order weighted 1, 2, 4, ...: its
    2**len(syms) values are offset + 0, 1, 2, ..., so their lcm is long."""
    order = rng.sample(syms, len(syms))
    out = Const(offset)
    for i, s in enumerate(order):
        out = Add(out, Mul(Const(1 << i), Sym(s)))
    return out


def _wide_tree(rng, depth):
    """A tree over W whose quotients divide by weighted sums (0 at one
    vertex when the offset is 0) or by any tree, quotients included."""
    if depth == 0 or rng.random() < 0.2:
        r = rng.random()
        if r < 0.5:
            return Sym(rng.choice(W))
        return Const(rng.choice([0, 1, -2, Fraction(3, 4)]))
    op = rng.choice([Add, Sub, Mul, Compl, Quot, Quot, Quot])
    if op is Compl:
        return Compl(_wide_tree(rng, depth - 1))
    if op is Quot:
        den = rng.choice([
            lambda: _weighted(rng, W, rng.choice([0, 1, Fraction(1, 2)])),
            lambda: _weighted(rng, W[:rng.randint(6, 7)], 1),
            lambda: _wide_tree(rng, depth - 1),
        ])()
        return Quot(_wide_tree(rng, depth - 1), den)
    left = _wide_tree(rng, depth - 1)
    return op(left, left if rng.random() < 0.1 else _wide_tree(rng, depth - 1))


def _check(e, kinds: set, syms=S) -> None:
    want, failing = {}, []
    for c in constituents(syms):
        try:
            want[c] = reference_value(e, vertex(c))
        except Nested:
            failing.append(c)
    for c, v in want.items():
        got = eval_at(e, vertex(c))
        assert _same_value(got, v), (e, c, got, v)
    for c in failing:
        try:
            eval_at(e, vertex(c))
        except UninterpretableNesting as err:
            assert str(err) == _failure(e, vertex(c)) and err.constituents == ()
        else:
            raise AssertionError(f"eval_at of {e} at {c} did not fail")
    if failing:
        message = f"development failed at {_where(failing)}: "
        message += _failure(e, vertex(failing[0]))
        for develop in (expand, analyze):
            try:
                develop(e, syms)
            except UninterpretableNesting as err:
                assert type(err) is UninterpretableNesting and str(err) == message
                assert err.constituents == tuple(failing)
            else:
                raise AssertionError(f"{develop.__name__} of {e} did not fail")
        kinds.add("nested")
        return
    form = expand(e, syms)
    for c, v in want.items():
        assert _same_value(form.coeff(c), v), (e, c, form.coeff(c), v)
        kinds.add(v[0] if isinstance(v, tuple) else
                  "integral" if v.denominator == 1 else "fractional")
    offending = [c for c, v in want.items() if isinstance(v, tuple) or v not in (0, 1)]
    assert analyze(e, syms).offending == tuple((c, form.coeff(c)) for c in offending)


def test_the_pass_matches_the_per_point_reference_on_quotients():
    rng = random.Random(1847)
    kinds: set = set()
    for i in range(500):
        e = _planted(rng) if i % 4 == 0 else _tree(rng, rng.randint(2, 5))
        _check(e, kinds)
    assert kinds == {"nested", "0/0", "k/0", "integral", "fractional"}


def test_quotients_by_denominators_of_many_values_match_the_reference(monkeypatch):
    held = []
    per_value = algebra._per_value

    def counted(kind, xs, dx, ys, dy):
        held.append((kind, dx is None or dy is None))
        return per_value(kind, xs, dx, ys, dy)

    monkeypatch.setattr(algebra, "_per_value", counted)
    rng = random.Random(1854)
    kinds: set = set()
    for _ in range(150):
        _check(_wide_tree(rng, rng.randint(1, 4)), kinds, W)
    assert kinds == {"nested", "0/0", "k/0", "integral", "fractional"}
    assert {(Quot, False), (Quot, True), (Add, True), (Mul, True), (Compl, True)} <= set(held)


def test_a_quotient_by_a_weighted_sum_of_16_symbols_develops_in_seconds():
    """s0 / (1 + s1 + 2*s2 + ... + 16384*s15) takes 32 768 distinct
    values, whose lcm is about 47 000 bits long."""
    syms = tuple(Symbol(f"s{i}") for i in range(16))
    e = Quot(Sym(syms[0]), _weighted(random.Random(0), syms[1:], 1))
    start = time.perf_counter()
    form = expand(e, syms)
    assert time.perf_counter() - start < 5.0
    assert len({id(v) for v in form.coeffs}) == 1 + (1 << 15)
    for m in [0, (1 << 16) - 1, *random.Random(16).sample(range(1 << 16), 200)]:
        point = vertex(Constituent(syms, m))
        want = reference_value(e, point)
        assert _same_value(form.coeff(m), want) and _same_value(eval_at(e, point), want)


def test_a_failure_pickled_copied_and_read_twice_gives_the_same_constituents():
    e = Compl(Quot(Add(Sym(S[0]), Const(2)), Mul(Sym(S[1]), Sym(S[2]))))
    failing = tuple(c for c in constituents(S) if not (c.mask >> 1 & c.mask >> 2 & 1))
    for read_first in (False, True):
        with pytest.raises(UninterpretableNesting) as info:
            expand(e, S)
        err = info.value
        if read_first:
            assert err.constituents == failing
        copies = [err, pickle.loads(pickle.dumps(err)), copy.copy(err), copy.deepcopy(err)]
        for got in copies:
            assert type(got) is UninterpretableNesting and str(got) == str(copies[0])
            first = got.constituents
            assert first == failing and got.constituents is first
        again = pickle.loads(pickle.dumps(copies[1]))
        assert again.constituents == failing
