"""Constituent development: frozen examples, laws, and random soundness."""

import dataclasses
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from elective import algebra
from elective import (
    Add,
    Compl,
    Const,
    Constituent,
    ElectiveError,
    Equation,
    INDETERMINATE,
    Infinite,
    InvalidSymbolList,
    LinearForm,
    Mul,
    ONE,
    Quot,
    Sub,
    Sym,
    Symbol,
    SymbolLimitExceeded,
    SymbolListMismatch,
    SymbolNotPresent,
    UninterpretableNesting,
    ZERO,
    coeff_factor_text,
    constituents,
    eval_at,
    expand,
    format_expr,
    format_linear_form,
    parse_expression,
    solve_for,
)
from helpers import (
    XYZW,
    Nested,
    constituent_product,
    naive_to_expr,
    planted_tree,
    random_expr,
    reference_display_order,
    reference_value,
    vertex,
)

x, y, z, w = XYZW
X, Y, Z = Sym(x), Sym(y), Sym(z)


# ---------------------------------------------------------------------------
# constituents
# ---------------------------------------------------------------------------


def test_constituents_one_symbol():
    cs = constituents([x])
    assert [str(c) for c in cs] == ["x'", "x"]


def test_constituents_two_symbols_mask_order():
    cs = constituents([x, y])
    assert [str(c) for c in cs] == ["x'*y'", "x*y'", "x'*y", "x*y"]


def test_constituents_three_symbols_term_for_term():
    # all eight products, with the final complement product corrected to
    # run over all three symbols
    cs = constituents([x, y, z])
    assert len(cs) == 8
    assert str(cs[0]) == "x'*y'*z'"
    assert str(cs[7]) == "x*y*z"
    assert {str(c) for c in cs} == {
        "x*y*z", "x*y*z'", "x*y'*z", "x*y'*z'",
        "x'*y*z", "x'*y*z'", "x'*y'*z", "x'*y'*z'",
    }


def test_constituents_no_symbols():
    # over no symbols the universe is the one constituent, written 1
    cs = constituents([])
    assert [str(c) for c in cs] == ["1"]


def test_constituents_errors():
    with pytest.raises(SymbolLimitExceeded):
        constituents([Symbol(f"s{i}") for i in range(21)])
    with pytest.raises(InvalidSymbolList):
        constituents([x, x])


# ---------------------------------------------------------------------------
# eval_at
# ---------------------------------------------------------------------------


def test_eval_index_law_pointwise():
    assert eval_at(Mul(X, X), {x: 1}) == 1
    assert eval_at(Mul(X, X), {x: 0}) == 0


def test_eval_complement_at_own_vertex():
    assert eval_at(Sub(ONE, X), {x: 1}) == 0
    assert eval_at(Compl(X), {x: 1}) == 0


def test_eval_quotient_special_values():
    assert eval_at(Quot(Y, X), {x: 0, y: 0}) == INDETERMINATE
    assert eval_at(Quot(Y, X), {x: 0, y: 1}) == Infinite(Fraction(1))
    assert eval_at(Quot(Y, X), {x: 1, y: 1}) == 1


def test_eval_rational_arithmetic_is_exact():
    e = Quot(Const(1), Const(3))
    assert eval_at(e, {}) == Fraction(1, 3)
    assert eval_at(Add(e, e), {}) == Fraction(2, 3)


def test_eval_nonfinite_feeding_operation_raises():
    bad = Add(Quot(Y, X), ONE)
    with pytest.raises(UninterpretableNesting):
        eval_at(bad, {x: 0, y: 0})
    with pytest.raises(UninterpretableNesting):
        eval_at(Compl(Quot(Y, X)), {x: 0, y: 1})


def test_eval_missing_symbol():
    with pytest.raises(SymbolNotPresent):
        eval_at(X, {y: 1})


def test_eval_at_meets_each_symbol_where_it_first_occurs():
    # a symbol the vertex lacks is refused where it first occurs in the
    # tree, so before a later k/0 operand, and after an earlier one
    with pytest.raises(SymbolNotPresent, match="^vertex does not assign symbol q$"):
        eval_at(parse_expression("q + (x/x')*y"), {x: 1, y: 1})
    nested = "^1/0 cannot be an operand of a product"
    with pytest.raises(UninterpretableNesting, match=nested):
        eval_at(parse_expression("(x/x')*y + q"), {x: 1, y: 1})



def test_eval_at_reads_a_vertex_value_of_0_or_1_and_refuses_any_other():
    for one in (1, True, 1.0, Fraction(1)):
        assert eval_at(Add(X, ONE), {x: one}) == 2
        assert type(eval_at(X, {x: one})) is Fraction
    assert eval_at(Add(X, ONE), {x: 0.0}) == 1
    q = Symbol("q")
    for bad in (5, 0.5, Fraction(1, 2), -1, "a", None):
        message = f"vertex assigns {bad!r} to symbol x, not 0 or 1"
        with pytest.raises(ValueError) as refused:
            eval_at(Add(X, ONE), {x: bad})
        assert str(refused.value) == message
        # refused where the symbol first occurs, as a missing one is
        with pytest.raises(ValueError, match="symbol q"):
            eval_at(parse_expression("q + (x/x')*y"), {x: 1, y: 1, q: bad})
        with pytest.raises(UninterpretableNesting):
            eval_at(parse_expression("(x/x')*y + q"), {x: 1, y: 1, q: bad})


# ---------------------------------------------------------------------------
# expand: frozen examples
# ---------------------------------------------------------------------------


def test_expand_partition_of_unity_single_symbol():
    f = expand(Add(X, Sub(ONE, X)), [x])
    assert f.coeffs == (Fraction(1), Fraction(1))


def test_expand_sum_derived_coefficients():
    # pointwise at the four vertices: 0, 1, 1, 2
    f = expand(Add(X, Y), [x, y])
    assert f.coeffs == (Fraction(0), Fraction(1), Fraction(1), Fraction(2))


def test_expand_quotient_reproduces_special_coefficients():
    f = expand(Quot(Y, X), [x, y])
    # mask order: x'y', xy', x'y, xy
    assert f.coeffs == (
        INDETERMINATE,
        Fraction(0),
        Infinite(Fraction(1)),
        Fraction(1),
    )


def test_expand_requires_covering_symbols():
    with pytest.raises(SymbolNotPresent):
        expand(Add(X, Y), [x])


def test_expand_aggregates_offending_constituents():
    bad = Add(Quot(Y, X), ONE)
    with pytest.raises(UninterpretableNesting) as info:
        expand(bad, [x, y])
    offenders = {str(c) for c in info.value.constituents}
    assert offenders == {"x'*y'", "x'*y"}  # both x = 0 vertices


def test_expand_names_a_single_failed_constituent():
    with pytest.raises(UninterpretableNesting) as info:
        expand(Add(Quot(ONE, Add(X, Y)), ONE), [x, y])
    assert str(info.value) == (
        "development failed at x'*y': 1/0 cannot be an operand of a sum; "
        "0/0 and k/0 are terminal values"
    )


@pytest.mark.parametrize("quotient, failing", [("s0/0", 1 << 16), ("1/s0", 1 << 15)])
def test_expand_failure_message_stays_short_at_16_symbols(quotient, failing):
    # the message names the first failed constituent and counts the others;
    # .constituents still lists every one
    text = " + ".join(f"s{i}" for i in range(1, 16)) + f" + {quotient}"
    with pytest.raises(UninterpretableNesting) as info:
        expand(parse_expression(text), _basis(16))
    bad = info.value.constituents
    assert len(bad) == failing
    assert [c.mask for c in bad] == sorted(c.mask for c in bad)
    assert str(info.value).startswith(
        f"development failed at {bad[0]} and {failing - 1} other constituents: "
    )
    assert len(str(info.value)) < 300


# ---------------------------------------------------------------------------
# form arithmetic
# ---------------------------------------------------------------------------


def test_form_product_respects_index_law():
    f = expand(X, [x])
    assert f * f == f


def test_form_addition_identity():
    f = expand(Add(X, Y), [x, y])
    assert f + LinearForm.zero([x, y]) == f


def test_form_distributivity_example():
    lhs = expand(Mul(X, Add(Y, Z)), [x, y, z])
    rhs = expand(Mul(X, Y), [x, y, z]) + expand(Mul(X, Z), [x, y, z])
    assert lhs == rhs


def test_form_ops_reject_mismatched_symbols():
    with pytest.raises(SymbolListMismatch):
        expand(X, [x]) + expand(Y, [y])


def test_coeff_reads_constituents_of_its_own_basis():
    f = expand(Mul(X, Compl(Y)), (x, y))
    assert f.coeff(Constituent((x, y), 1)) == 1 and f.coeff(1) == 1
    # y*x' is mask 1 over (y, x), but it lies where x*y' has coefficient 0
    for other in (Constituent((y, x), 1), Constituent((x,), 1), Constituent((x, z), 1)):
        with pytest.raises(SymbolListMismatch):
            f.coeff(other)


@pytest.mark.parametrize("mask", [-1, 4, 1 << 20])
def test_coeff_refuses_masks_outside_the_basis(mask):
    f = expand(Mul(X, Compl(Y)), (x, y))
    with pytest.raises(ValueError, match=rf"^mask {mask} outside 0\.\.3$"):
        f.coeff(mask)
    assert [f.coeff(m) for m in range(4)] == list(f.coeffs)


@pytest.mark.parametrize("mask", [-1, 4, 1 << 20])
def test_coeff_refuses_a_constituent_mask_outside_the_basis(mask):
    # the same range check as for a mask: -1 would read the last coefficient
    f = expand(Mul(X, Compl(Y)), (x, y))
    with pytest.raises(ValueError, match=rf"^mask {mask} outside 0\.\.3$"):
        f.coeff(Constituent((x, y), mask))


def test_form_ops_reject_extended_coefficients():
    f = expand(Quot(Y, X), [x, y])
    with pytest.raises(UninterpretableNesting):
        f + f


# ---------------------------------------------------------------------------
# interpretability
# ---------------------------------------------------------------------------


def test_is_interpretable():
    assert not expand(Add(X, Y), [x, y]).is_interpretable()
    union = Sub(Add(X, Y), Mul(X, Y))
    assert expand(union, [x, y]).is_interpretable()
    assert expand(ONE, [x]).is_interpretable()
    assert not expand(Quot(Y, X), [x, y]).is_interpretable()


def test_is_interpretable_tests_each_coefficient_object_once(monkeypatch):
    tested = []
    is_class = algebra._is_class_coeff

    def counted(v):
        tested.append(v)
        return is_class(v)

    monkeypatch.setattr(algebra, "_is_class_coeff", counted)
    f = expand(parse_expression("s0*s1"), _basis(20))
    assert f.is_interpretable()
    assert sorted(tested) == [0, 1]


def test_is_interpretable_agrees_with_testing_every_coefficient():
    rng = random.Random(1854)
    pool = [Fraction(0), Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)]
    pool += [INDETERMINATE, Infinite(Fraction(3))]
    for _ in range(400):
        n = rng.randint(1, 4)
        values = pool[: rng.randint(2, len(pool))]
        # equal values both shared and as separate objects
        coeffs = tuple(
            Fraction(v) if isinstance(v, Fraction) and rng.random() < 0.5 else v
            for v in (rng.choice(values) for _ in range(1 << n))
        )
        want = all(isinstance(v, Fraction) and v in (0, 1) for v in coeffs)
        assert LinearForm(_basis(n), coeffs).is_interpretable() == want


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def test_format_linear_form_layout():
    f = expand(Quot(Y, X), [x, y])
    assert format_linear_form(f) == "1*x*y + 0*x*y' + (1/0)*x'*y + (0/0)*x'*y'"


def test_format_constant_form():
    f = expand(ONE, [x])
    assert format_linear_form(f) == "1*x + 1*x'"


def test_coeff_factor_text_matches_the_fraction_comparison():
    def reference(c):
        if isinstance(c, Fraction) and c >= 0 and c.denominator == 1:
            return str(c.numerator)
        return f"({c})"

    rng = random.Random(1848)
    values = [INDETERMINATE, Infinite(Fraction(3)), Infinite(Fraction(-1, 2))]
    values += [Fraction(rng.randint(-40, 40), rng.randint(1, 4)) for _ in range(500)]
    for c in values:
        assert coeff_factor_text(c) == reference(c)


def test_form_to_expr_compact():
    f = expand(Sub(Mul(X, Sub(ONE, Y)), Mul(X, Sub(ONE, Y))), [x, y])
    assert f.to_expr() == ZERO
    g = expand(Mul(Compl(X), Y), [x, y])
    assert str(g.to_expr()) == "x'*y"


def _basis(n):
    return tuple(Symbol(f"s{i}") for i in range(n))


def _ring(n):
    """s0*s1' + s1*s2' + ... + s(n-1)*s0': no inner subtree repeats."""
    return " + ".join(f"s{i}*s{(i + 1) % n}'" for i in range(n))


@pytest.mark.parametrize("n", range(1, 11))
def test_display_order_follows_the_bit_reversal_rule(n):
    syms = _basis(n)
    want = reference_display_order(constituents(syms))
    # distinct coefficients, so a misplaced term shows in every view
    f = LinearForm(syms, tuple(Fraction(m) for m in range(1 << n)))
    assert tuple(f.display_items()) == tuple((str(c), Fraction(c.mask)) for c in want)
    assert format_linear_form(f) == " + ".join(f"{c.mask}*{c}" for c in want)


@pytest.mark.parametrize("n", range(11))
def test_mask_texts_match_the_constituent_text(n):
    # the two half tables give each mask's text; str() joins its n factors
    syms = _basis(n)
    text = algebra._texts(syms)
    masks = range(1 << n)
    assert [text(m) for m in masks] == [str(Constituent(syms, m)) for m in masks]


def test_constituent_hash_is_its_mask():
    # equal constituents have equal masks; one mask over two bases is two
    a, b = Constituent((x, y), 2), Constituent((y, x), 2)
    assert hash(a) == hash(b) == hash(2) and a != b
    assert len({a, b, Constituent((x, y), 2)}) == 2


def test_display_order_refuses_constituents_over_different_symbol_lists():
    # one layout ranks masks of one basis; a mask of another means
    # another constituent, so a solution grouping one is refused
    sol = solve_for(Equation(Mul(X, Sym(w)), Y), w)
    for group in ("included", "indeterminate", "side_conditions", "excluded"):
        for stranger in (Constituent((x,), 1), Constituent((y, x), 2)):
            if group == "indeterminate":
                grown = sol.indeterminate + ((Symbol("v9"), stranger),)
            else:
                grown = getattr(sol, group) | {stranger}
            bad = dataclasses.replace(sol, **{group: grown})
            with pytest.raises(SymbolListMismatch):
                bad.display_groups()
            with pytest.raises(SymbolListMismatch):
                bad.describe()


def _reference_text(c) -> str:
    """A constituent's factors joined by '*'; over no symbols, 1."""
    factors = [s.name + "'" * (1 - (c.mask >> i & 1)) for i, s in enumerate(c.symbols)]
    return "*".join(factors) if factors else "1"


def _reference_describe(sol) -> str:
    """The one-line solution, each group sorted into the layout by the rule."""
    parts = [_reference_text(c) for c in reference_display_order(sol.included)]
    for v, c in sol.indeterminate:  # v1*1 is written v1
        parts.append(f"{v}*{_reference_text(c)}" if c.symbols else str(v))
    text = f"{sol.unknown} = " + (" + ".join(parts) if parts else "0")
    if sol.side_conditions:
        conds = [
            f"{_reference_text(c)} = 0"
            for c in reference_display_order(sol.side_conditions)
        ]
        text += "  where " + ", ".join(conds)
    return text


def test_display_order_follows_the_rule_on_solved_groups():
    rng = random.Random(1854)
    checked = bare = 0  # bare: solutions over no remaining symbols
    for _ in range(300):
        syms = XYZW[: rng.randint(1, 4)]
        eq = Equation(random_expr(rng, syms, 4), random_expr(rng, syms, 3))
        try:
            sol = solve_for(eq, rng.choice(syms))
        except ElectiveError:
            continue
        groups = (sol.included, sol.side_conditions, sol.excluded)
        want = tuple(
            [_reference_text(c) for c in reference_display_order(g)] for g in groups
        )
        assert sol.display_groups() == want
        assert sol.describe() == _reference_describe(sol)
        checked += sum(len(g) > 1 for g in groups)
        bare += not sol.free_symbols
    assert checked > 100 and bare > 10


def test_to_expr_matches_a_term_by_term_rebuild():
    rng = random.Random(1815)
    values = [Fraction(v) for v in (0, 0, 0, 1, 1, 1, 2, -1)] + [Fraction(1, 3)]
    for _ in range(200):
        syms = _basis(rng.randint(1, 8))
        f = LinearForm(syms, tuple(rng.choice(values) for _ in range(1 << len(syms))))
        got, want = f.to_expr(), naive_to_expr(f)
        assert got == want
        assert format_expr(got) == format_expr(want)


# ---------------------------------------------------------------------------
# laws of the calculus
# ---------------------------------------------------------------------------


def test_partition_identities():
    for syms in ([x], [x, y], [x, y, z]):
        cs = constituents(syms)
        total = constituent_product(cs[0])
        for c in cs[1:]:
            total = Add(total, constituent_product(c))
        assert expand(total, syms) == LinearForm.constant(syms, 1)
        for a in cs:
            fa = expand(constituent_product(a), syms)
            assert fa * fa == fa
            for b in cs:
                if a.mask != b.mask:
                    product = expand(
                        Mul(constituent_product(a), constituent_product(b)), syms
                    )
                    assert product.is_zero()


def test_index_law_powers():
    base = expand(X, [x])
    power = X
    for _ in range(1, 6):
        assert expand(power, [x]) == base
        power = Mul(power, X)


def test_commutativity():
    assert expand(Mul(X, Y), [x, y]) == expand(Mul(Y, X), [x, y])


def test_sum_square_identity():
    # (x + y)^2 develops the same as x + y + 2xy
    square = Mul(Add(X, Y), Add(X, Y))
    assert expand(square, [x, y]) == expand(Add(Add(X, Y), Mul(Const(2), Mul(X, Y))), [x, y])
    # and the excess over x + y is exactly 2 at the common constituent
    diff = expand(square, [x, y]) - expand(Add(X, Y), [x, y])
    assert diff.coeffs == (Fraction(0), Fraction(0), Fraction(0), Fraction(2))


def test_difference_square_identity():
    # (x - y)^2 develops the same as x + y - 2xy
    square = Mul(Sub(X, Y), Sub(X, Y))
    expected = Sub(Add(X, Y), Mul(Const(2), Mul(X, Y)))
    assert expand(square, [x, y]) == expand(expected, [x, y])


def _vertex_failures(e):
    """(constituent, error) wherever eval_at fails, ascending mask."""
    failures = []
    for c in constituents(XYZW):
        try:
            eval_at(e, vertex(c))
        except UninterpretableNesting as err:
            failures.append((c, err))
    return failures


def test_expansion_soundness_random():
    # expand develops every vertex in one pass; eval_at evaluates one
    # vertex, and a direct recursion evaluates division-free trees on its own
    rng = random.Random(1854)
    failed_developments = 0
    for allow_quot in [False] * 300 + [True] * 300:
        e = random_expr(rng, XYZW, depth=6, allow_quot=allow_quot)
        try:
            form = expand(e, XYZW)
        except UninterpretableNesting as err:
            failures = _vertex_failures(e)
            assert err.constituents == tuple(c for c, _ in failures)
            assert str(err).endswith(f": {failures[0][1]}")
            failed_developments += 1
            continue
        assert not _vertex_failures(e)
        for c, v in form.items():
            at_vertex = eval_at(e, vertex(c))
            assert v == at_vertex and type(v) is type(at_vertex)
            if not algebra._plan(e).divides:
                assert v == reference_value(e, vertex(c))
    assert failed_developments > 0


def _random_quotient_tree(rng):
    """A tree with quotients: anywhere in it, or one over two division-free
    sides, with negative and fractional constants in both."""
    fractional = rng.random() < 0.5
    if rng.random() < 0.5:
        return random_expr(rng, XYZW, 5, allow_quot=True, fractional=fractional)
    top = random_expr(rng, XYZW, 4, fractional=fractional)
    bottom = random_expr(rng, XYZW, 4, fractional=fractional)
    return Quot(top, bottom)


def test_expand_matches_an_independent_quotient_reference():
    # eval_at runs the same pass as expand, so the quotient rules are
    # checked against a per-vertex recursion with its own 0/0 and k/0
    rng = random.Random(1815)
    kinds = set()
    for _ in range(1500):
        e = _random_quotient_tree(rng)
        want = {}
        for c in constituents(XYZW):
            try:
                want[c.mask] = reference_value(e, vertex(c))
            except Nested:
                want[c.mask] = Nested
        nested = [m for m, v in want.items() if v is Nested]
        try:
            form = expand(e, XYZW)
        except UninterpretableNesting as err:
            assert [c.mask for c in err.constituents] == nested
            kinds.add("nested")
            continue
        assert not nested
        for v, ref in zip(form.coeffs, want.values()):
            if ref == ("0/0",):
                assert v is INDETERMINATE
                kinds.add("0/0")
            elif isinstance(ref, tuple):
                assert type(v) is Infinite and type(v.numerator) is Fraction
                assert v.numerator == ref[1]
                kinds.add("k/0")
            else:
                assert type(v) is Fraction and v == ref
                kinds.add("integral" if v.denominator == 1 else "fractional")
    assert kinds == {"nested", "0/0", "k/0", "integral", "fractional"}


def test_planted_repeats_develop_like_the_reference():
    # equal subtrees are developed once; values, their types, and a
    # failure's message and constituents are those of each vertex alone
    rng = random.Random(1847)
    failed = 0
    for _ in range(400):
        e = planted_tree(rng, rng.random() < 0.6)
        failures = _vertex_failures(e)
        try:
            form = expand(e, XYZW)
        except UninterpretableNesting as err:
            assert err.constituents == tuple(c for c, _ in failures)
            assert str(err).startswith(f"development failed at {failures[0][0]}")
            assert str(err).endswith(f": {failures[0][1]}")
            failed += 1
            continue
        assert not failures
        for c, v in form.items():
            want = reference_value(e, vertex(c))
            if want == ("0/0",):
                assert v is INDETERMINATE
            elif isinstance(want, tuple):
                assert type(v) is Infinite and v.numerator == want[1]
            else:
                assert type(v) is Fraction and v == want
    assert 0 < failed < 400


def test_the_plan_takes_each_distinct_subtree_once():
    f = parse_expression("x*y' + (z - x)*2")
    for e in (Mul(f, f), Mul(parse_expression(format_expr(f)), f)):
        plan = algebra._plan(e)
        k = len(plan.nodes) - 2  # f's slot
        assert plan.nodes == algebra._plan(f).nodes + [(Mul, k, k)]
        assert plan.uses[-2:] == [2, 1]
        assert plan.symbols == (x, y, z) and not plan.divides
    assert algebra._plan(parse_expression("x/y'")).divides
    ring = algebra._plan(parse_expression(_ring(16)))
    leaves = (Sym, Const)
    inner = [u for (kind, _, _), u in zip(ring.nodes, ring.uses) if kind not in leaves]
    assert len(inner) == 3 * 16 - 1 and set(inner) == {1}


def test_the_ring_develops_within_its_columns():
    # inner values are dropped after their last use and a leaf's are made
    # at each use, so the peak stays near five columns of 2**16 values
    e = parse_expression(_ring(16))
    tracemalloc.start()
    try:
        expand(e, _basis(16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.2 * 8 * (1 << 16)


def test_equal_coefficients_are_one_object():
    ring = [Symbol(f"s{i}") for i in range(12)]
    terms = [Mul(Sym(s), Compl(Sym(t))) for s, t in zip(ring, ring[1:] + ring[:1])]
    total = terms[0]
    for term in terms[1:]:
        total = Add(total, term)
    # (3x + y - z) / (2x - y): exact and inexact quotients, 0/0 and two k/0
    quotient = Quot(Sub(Add(Mul(Const(3), X), Y), Z), Sub(Mul(Const(2), X), Y))
    for e, syms in ((total, ring), (quotient, XYZW)):
        coeffs = expand(e, syms).coeffs
        assert len({id(v) for v in coeffs}) == len(set(coeffs)) < len(coeffs)


_expr_leaves = st.one_of(
    st.integers(-3, 3).map(Const),
    st.sampled_from([Sym(s) for s in XYZW[:3]]),
)
_division_free = st.recursive(
    _expr_leaves,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda t: Add(*t)),
        st.tuples(inner, inner).map(lambda t: Sub(*t)),
        st.tuples(inner, inner).map(lambda t: Mul(*t)),
        inner.map(Compl),
    ),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(_division_free, _division_free, st.sampled_from(["+", "-", "*"]))
def test_expansion_is_a_homomorphism(e1, e2, op):
    syms = XYZW[:3]
    node = {"+": Add, "-": Sub, "*": Mul}[op]
    combined = expand(node(e1, e2), syms)
    f1, f2 = expand(e1, syms), expand(e2, syms)
    pieces = {"+": f1 + f2, "-": f1 - f2, "*": f1 * f2}[op]
    assert combined == pieces


def test_a_form_needs_one_coefficient_per_constituent():
    with pytest.raises(ValueError, match="^expected 4 coefficients, got 3$"):
        LinearForm((x, y), (Fraction(0),) * 3)
    with pytest.raises(ValueError, match="^expected 1 coefficients, got 2$"):
        LinearForm((), (Fraction(0),) * 2)


def test_infinite_needs_a_nonzero_numerator():
    with pytest.raises(ValueError, match="non-zero numerator"):
        Infinite(0)
    assert str(Infinite(Fraction(-3, 2))) == "(-3/2)/0"
