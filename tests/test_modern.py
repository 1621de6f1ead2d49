"""Modern {0,1} operations and the divergence analyzer."""

import random
from fractions import Fraction
from itertools import product

import pytest

from elective import (
    DivergenceReport,
    INDETERMINATE,
    Infinite,
    LinearForm,
    NotInterpretable,
    Quot,
    Sym,
    SymbolListMismatch,
    UninterpretableNesting,
    analyze,
    b_and,
    b_not,
    b_or,
    expand,
    parse_expression,
    symbols,
)
from helpers import XYZW, random_expr

x, y, z, w = XYZW
X, Y = Sym(x), Sym(y)


def form(text, syms=(x, y)):
    return expand(parse_expression(text), syms)


def all_interpretable_forms(syms=(x, y)):
    n = 1 << len(syms)
    for bits in product((Fraction(0), Fraction(1)), repeat=n):
        yield LinearForm(tuple(syms), bits)


def test_or_matches_inclusion_exclusion():
    assert b_or(form("x"), form("y")) == form("x + y - x*y")


def test_not_matches_complement():
    assert b_not(form("x")) == form("1 - x")


def test_and_idempotent():
    assert b_and(form("x"), form("x")) == form("x")


def test_operations_require_interpretable_operands():
    with pytest.raises(NotInterpretable):
        b_or(form("x + y"), form("x"))
    with pytest.raises(NotInterpretable):
        b_not(form("x + y"))


def test_operations_require_matching_symbols():
    with pytest.raises(SymbolListMismatch):
        b_or(expand(X, (x,)), expand(Y, (y,)))


def test_require_interpretable_message_stays_short_at_16_symbols():
    # the message names the first offending constituent and counts the others
    ring = " + ".join(f"s{i}*s{(i + 1) % 16}'" for i in range(16))
    f = expand(parse_expression(ring), symbols(",".join(f"s{i}" for i in range(16))))
    with pytest.raises(NotInterpretable) as info:
        b_or(f, f)
    offending = analyze(parse_expression(ring)).offending
    c, v = offending[0]
    assert str(info.value) == (
        f"b_or needs coefficients in {{0, 1}}; got {v} at {c} "
        f"and {len(offending) - 1} other constituents"
    )
    assert len(str(info.value)) < 300


def test_disjoint_sum_is_union():
    f, g = form("x*y'"), form("x'*y")
    assert (f * g).is_zero()
    assert f + g == b_or(f, g)


def test_subset_difference_is_relative_complement():
    f, g = form("x"), form("x*y")
    assert b_and(f, g) == g  # g inside f
    assert f - g == b_and(f, b_not(g))


def test_boolean_lattice_axioms_exhaustive_two_symbols():
    forms = list(all_interpretable_forms())
    assert len(forms) == 16
    top = LinearForm((x, y), (Fraction(1),) * 4)
    bottom = LinearForm((x, y), (Fraction(0),) * 4)
    for f in forms:
        assert b_or(f, f) == f and b_and(f, f) == f
        assert b_not(b_not(f)) == f
        assert b_or(f, b_not(f)) == top
        assert b_and(f, b_not(f)) == bottom
        for g in forms:
            assert b_or(f, g) == b_or(g, f)
            assert b_and(f, g) == b_and(g, f)
            assert b_or(f, b_and(f, g)) == f  # absorption
            assert b_and(f, b_or(f, g)) == f
            assert b_not(b_or(f, g)) == b_and(b_not(f), b_not(g))
            for h in forms:
                assert b_or(f, b_or(g, h)) == b_or(b_or(f, g), h)
                assert b_and(f, b_or(g, h)) == b_or(b_and(f, g), b_and(f, h))


def test_analyze_sum_needs_exclusive_classes():
    report = analyze(parse_expression("x + y"))
    assert [(str(c), v) for c, v in report.offending] == [("x*y", Fraction(2))]
    assert [str(c) for c in report.interpretability_conditions] == ["x*y"]
    assert not report.interpretable


def test_analyze_difference_needs_subset():
    report = analyze(parse_expression("x - y"))
    assert [(str(c), v) for c, v in report.offending] == [("x'*y", Fraction(-1))]
    assert [str(c) for c in report.interpretability_conditions] == ["x'*y"]


def test_analyze_partition_sum_is_clean():
    report = analyze(parse_expression("x + x'"))
    assert report.offending == ()
    assert report.interpretable


def test_offending_empty_iff_interpretable_random():
    rng = random.Random(31)
    syms = (x, y, z)
    for _ in range(60):
        e = random_expr(rng, syms, depth=4)
        report = analyze(e, syms)
        assert bool(report.offending) != expand(e, syms).is_interpretable()


def _outcome(develop):
    """The result of a call, or its UninterpretableNesting's message and
    constituents."""
    try:
        return develop()
    except UninterpretableNesting as err:
        return str(err), err.constituents


def test_offending_are_the_non_class_terms_of_expand_random():
    rng = random.Random(47)
    syms = (x, y, z)
    failures = extended = 0
    for i in range(600):
        e = random_expr(rng, syms, depth=4, allow_quot=True, fractional=i % 2 == 1)
        if i % 3 == 0:
            e = Quot(e, random_expr(rng, syms, depth=3, fractional=True))
        report = _outcome(lambda: analyze(e, syms))
        form = _outcome(lambda: expand(e, syms))
        if isinstance(form, tuple):
            assert report == form
            failures += 1
            continue
        want = [
            (c, v) for c, v in form.items()
            if not (isinstance(v, Fraction) and v in (0, 1))
        ]
        assert report.offending == tuple(want)
        assert [type(v) for _, v in report.offending] == [type(v) for _, v in want]
        extended += any(not isinstance(v, Fraction) for _, v in want)
    assert failures and extended


def test_offending_items_are_the_offending_pairs_as_text_random():
    # interpretable forms, finite offenders, 0/0 and k/0, shared and fresh objects
    rng = random.Random(59)
    pool = [Fraction(0), Fraction(1), Fraction(2), Fraction(-1, 2), INDETERMINATE,
            Infinite(3)]
    seen = set()
    for i in range(300):
        n = rng.randrange(6)
        values = pool[:2] if i % 3 == 0 else pool
        coeffs = [rng.choice(values) for _ in range(1 << n)]
        if i % 2:
            coeffs = [Fraction(v) if isinstance(v, Fraction) else v for v in coeffs]
        syms = symbols(",".join(f"s{j}" for j in range(n))) if n else ()
        report = DivergenceReport(parse_expression("0"), LinearForm(syms, tuple(coeffs)))
        items = list(report.offending_items())
        assert items == [(str(c), v) for c, v in report.offending]
        seen.update(type(v).__name__ for _, v in items)
        seen.add("interpretable" if report.interpretable else "not")
    assert seen == {"Fraction", "Indeterminate", "Infinite", "interpretable", "not"}
