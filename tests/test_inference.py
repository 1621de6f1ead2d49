"""Elimination, premise combination, solving, and oracle confirmation."""

import dataclasses
import random
from fractions import Fraction

import pytest

from elective import (
    Add,
    Const,
    EliminationResult,
    EmptyPremises,
    Equation,
    LinearForm,
    Mul,
    NameCollision,
    Quot,
    SolvedClass,
    Sub,
    Sym,
    Symbol,
    SymbolLimitExceeded,
    SymbolNotPresent,
    UninterpretableNesting,
    Universe,
    ZERO,
    combine_premises,
    constituents,
    eliminate,
    expand,
    format_expr,
    format_linear_form,
    parse_equation,
    solve_for,
    syllogism,
    symbols,
    verify_solved,
)
from elective import algebra, cli
from elective.inference import _eliminated, _split
from helpers import (
    XYZW,
    assignments,
    extensions,
    naive_holds,
    random_expr,
    random_interpretable_expr,
    reference_value,
)

x, y, z, w = XYZW
X, Y, Z, W = Sym(x), Sym(y), Sym(z), Sym(w)


# ---------------------------------------------------------------------------
# eliminate
# ---------------------------------------------------------------------------


def test_eliminated_form_is_the_product_of_each_pair():
    # products are taken once per pair of coefficient objects; each entry
    # must still be the product of its own pair, in value and in type
    rng = random.Random(1864)
    for _ in range(300):
        n = rng.randint(1, 5)
        syms = tuple(Symbol(f"s{i}") for i in range(n))
        if rng.random() < 0.5:
            form = expand(random_expr(rng, syms, 5, fractional=True), syms)
        else:  # equal values both shared and as separate objects
            pool = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4)]
            picks = (rng.choice(pool) for _ in range(1 << n))
            coeffs = (Fraction(v) if rng.random() < 0.5 else v for v in picks)
            form = LinearForm(syms, tuple(coeffs))
        i = rng.randrange(n)
        c = form.coeffs
        want = [c[m | 1 << i] * c[m] for m in range(1 << n) if not m >> i & 1]
        got = _eliminated(form, syms[i])
        assert got.symbols == syms[:i] + syms[i + 1 :]
        assert list(got.coeffs) == want
        assert all(type(v) is Fraction for v in got.coeffs)


def test_eliminate_unknown_from_product_equation():
    result = eliminate(parse_equation("x*w - y = 0"), w)
    assert str(result.residual) == "x'*y = 0"
    assert w not in result.residual.free_symbols()


def test_eliminate_vacuous():
    result = eliminate(parse_equation("x - x = 0"), x)
    assert str(result.residual) == "0 = 0"
    assert result.form.symbols == ()
    assert result.form.coeffs == (0,)


@pytest.mark.parametrize(
    "text, residual, constant",
    [("x + x' = 0", "1 = 0", 1), ("x - x' = 0", "(-1) = 0", -1)],
)
def test_eliminating_the_last_symbol_leaves_a_constant_form(text, residual, constant):
    result = eliminate(parse_equation(text), x)
    assert result.form == LinearForm((), (Fraction(constant),))
    assert str(result.residual) == residual
    assert result.residual == Equation(Const(constant), ZERO)


@pytest.mark.parametrize(
    "text, constant",
    [("x + x' = 0", "1"), ("x*x' = 0", "0"), ("x*x' - 1 = 0", "1"), ("x - x' = 0", "(-1)")],
)
def test_a_form_over_no_symbols_prints_its_constant(text, constant):
    form = eliminate(parse_equation(text), x).form
    assert form.symbols == ()
    assert str(form) == format_linear_form(form) == constant
    assert format_expr(form.to_expr()) == constant


def test_elimination_renders_its_residual_only_when_read(monkeypatch):
    rendered = []
    to_expr = LinearForm.to_expr

    def counted(form):
        rendered.append(form)
        return to_expr(form)

    monkeypatch.setattr(LinearForm, "to_expr", counted)
    premises = [parse_equation("x*(1 - y) = 0"), parse_equation("y*(1 - z) = 0")]
    results = [
        eliminate(parse_equation("x*w - y = 0"), w),
        syllogism(premises, (y,)),
        syllogism([parse_equation("x*y + 1 = 0")], (x, y)),
    ]
    assert rendered == []
    texts = [str(r.residual) for r in results]
    assert texts == ["x'*y = 0", "x*z' = 0", "4 = 0"]
    assert rendered == [r.form for r in results]


def test_elimination_residual_renders_the_form_it_holds():
    result = eliminate(parse_equation("x*(1 - y) + y*(1 - z) = 0"), y)
    g = expand(Sym(x), result.form.symbols)
    assert str(dataclasses.replace(result, form=g).residual) == "x*z + x*z' = 0"


def test_eliminate_contradiction_leaves_constant():
    # x + x' = 0 can never hold; eliminating x exposes the constant 1
    result = eliminate(parse_equation("x + x' = 0"), x)
    assert str(result.residual) == "1 = 0"


def test_eliminate_barbara_middle_term():
    eq = parse_equation("x*(1 - y) + y*(1 - z) = 0")
    result = eliminate(eq, y)
    assert str(result.residual) == "x*z' = 0"


def test_eliminate_missing_symbol():
    with pytest.raises(SymbolNotPresent):
        eliminate(parse_equation("x = y"), w)


def test_eliminate_rejects_quotients():
    with pytest.raises(UninterpretableNesting):
        eliminate(Equation(Quot(Y, X), ZERO), x)


def test_eliminate_oracle_confirmation():
    # the residual holds in a model exactly when some w solves the source
    eq = parse_equation("x*w - y = 0")
    residual = eliminate(eq, w).residual
    for m in range(0, 4):
        for a in assignments(Universe(m), (x, y)):
            solvable = any(naive_holds(eq, b) for b in extensions(a, (w,)))
            assert naive_holds(residual, a) == solvable


# ---------------------------------------------------------------------------
# combine_premises
# ---------------------------------------------------------------------------


def test_combine_is_sum_of_squares():
    p1 = parse_equation("x*y' = 0")
    p2 = parse_equation("y*z' = 0")
    combined = combine_premises([p1, p2])
    f1, f2 = p1.homogeneous(), p2.homogeneous()
    assert combined == Equation(Add(Mul(f1, f1), Mul(f2, f2)), ZERO)
    # and it develops like the plain sum, since squares of {0,1} forms
    # are themselves
    syms = (x, y, z)
    assert expand(combined.homogeneous(), syms) == expand(Add(f1, f2), syms)


def test_combine_single_trivial_premise():
    combined = combine_premises([parse_equation("0 = 0")])
    assert expand(combined.homogeneous(), (x,)).is_zero()


def test_combine_contradictory_premises_unsatisfiable():
    combined = combine_premises(
        [parse_equation("x = 1"), parse_equation("x = 0")]
    )
    form = expand(combined.homogeneous(), (x,))
    # no zero coefficient anywhere: no non-empty model can satisfy both
    assert all(v != 0 for v in form.coeffs)


def test_combine_squares_prevent_cancellation():
    # x - y = 0 and y - x = 0 would cancel under plain summation
    p1 = Equation(Sub(X, Y), ZERO)
    p2 = Equation(Sub(Y, X), ZERO)
    combined = combine_premises([p1, p2])
    form = expand(combined.homogeneous(), (x, y))
    # mask order x'y', xy', x'y, xy
    assert [v == 0 for v in form.coeffs] == [True, False, False, True]


def test_combine_empty_premises():
    with pytest.raises(EmptyPremises):
        combine_premises([])


def test_combine_zero_iff_every_premise_zero_random():
    rng = random.Random(5)
    syms = (x, y, z)
    for _ in range(40):
        from helpers import random_expr

        fs = [random_expr(rng, syms, depth=3) for _ in range(3)]
        combined = combine_premises([Equation(f, ZERO) for f in fs])
        total = expand(combined.homogeneous(), syms)
        parts = [expand(f, syms) for f in fs]
        for mask in range(8):
            all_zero = all(p.coeff(mask) == 0 for p in parts)
            assert (total.coeff(mask) == 0) == all_zero


# ---------------------------------------------------------------------------
# solve_for
# ---------------------------------------------------------------------------


def test_solve_flagship_structure():
    sol = solve_for(parse_equation("x*w = y"), w)
    names = lambda group: {str(c) for c in group}
    assert names(sol.included) == {"x*y"}
    assert names(sol.excluded) == {"x*y'"}
    assert names(sol.side_conditions) == {"x'*y"}
    assert [(v.name, str(c)) for v, c in sol.indeterminate] == [("v1", "x'*y'")]
    assert sol.describe() == "w = x*y + v1*x'*y'  where x'*y = 0"


def test_solve_identity_equation():
    sol = solve_for(parse_equation("1*w = x"), w)
    assert {str(c) for c in sol.included} == {"x"}
    assert {str(c) for c in sol.excluded} == {"x'"}
    assert sol.indeterminate == ()
    assert not sol.side_conditions
    assert sol.describe() == "w = x"


def test_solve_superset_equation():
    sol = solve_for(parse_equation("x*w = x"), w)
    assert {str(c) for c in sol.included} == {"x"}
    assert [(v.name, str(c)) for v, c in sol.indeterminate] == [("v1", "x'")]
    assert not sol.side_conditions
    assert sol.describe() == "w = x + v1*x'"


def test_solve_partition_invariant():
    sol = solve_for(parse_equation("x*w = y"), w)
    groups = (
        sol.included,
        frozenset(c for _, c in sol.indeterminate),
        sol.side_conditions,
        sol.excluded,
    )
    total = set()
    for g in groups:
        assert not (total & set(g))
        total |= set(g)
    assert total == set(constituents(sol.free_symbols))


def test_solve_rejects_reserved_names():
    with pytest.raises(NameCollision):
        solve_for(parse_equation("v1*w = y"), w)


def test_solve_rejects_missing_unknown():
    with pytest.raises(SymbolNotPresent):
        solve_for(parse_equation("x*w = y"), z)


def test_solve_explicit_symbols_cover_degenerate_forms():
    # 0*w + 0*w' = 0 constrains nothing; over a declared basis the class
    # is wholly indeterminate
    eq = Equation(Add(Mul(ZERO, W), Mul(ZERO, Sub(Const(1), W))), ZERO)
    sol = solve_for(eq, w, (x, y))
    assert sol.included == frozenset()
    assert sol.side_conditions == frozenset()
    assert [v.name for v, _ in sol.indeterminate] == ["v1", "v2", "v3", "v4"]
    report = verify_solved(sol, eq, 2)
    assert report.sound and report.complete


def test_solve_determinism():
    first = solve_for(parse_equation("x*w = y"), w)
    second = solve_for(parse_equation("x*w = y"), w)
    assert first == second


def test_solve_non_unit_coefficients_become_side_conditions():
    # 2xw = y: on x'y the requirement 0*w = 1 fails (side condition);
    # on xy the requirement 2w = 1 has no 0/1 solution (side condition)
    sol = solve_for(parse_equation("2*x*w = y"), w)
    assert {str(c) for c in sol.side_conditions} == {"x'*y", "x*y"}
    report = verify_solved(sol, parse_equation("2*x*w = y"), 3)
    assert report.sound and report.complete


def test_a_constituent_in_two_groups_reads_one_way_everywhere():
    # included wins over excluded in the printed groups, the one-line
    # solution, the CLI's payload and the oracle alike
    eq = parse_equation("x*w = y")
    sol = solve_for(eq, w)
    xy = constituents((x, y))[3]
    both = dataclasses.replace(sol, excluded=sol.excluded | {xy})
    assert both.display_groups() == (["x*y"], ["x'*y"], ["x*y'"])
    assert both.describe() == sol.describe() == "w = x*y + v1*x'*y'  where x'*y = 0"
    payload = cli._solution_payload(both)
    assert payload["included"] == ["x*y"]
    assert payload["solution"] == "w = x*y + v1*x'*y'  where x'*y = 0"
    assert verify_solved(both, eq, 3).ok


@pytest.mark.parametrize("mask", [-1, 4])
def test_a_grouped_mask_outside_the_table_is_refused(mask):
    # x*y excluded and included again as mask -1 would print, and verify,
    # as the right solution; mask 4 would index past the table
    eq = parse_equation("x*w = y")
    sol = solve_for(eq, w)
    xy = constituents((x, y))[3]
    bad = dataclasses.replace(
        sol,
        included=frozenset({dataclasses.replace(xy, mask=mask)}),
        excluded=sol.excluded | {xy},
    )
    for read in (bad.describe, bad.display_groups, lambda: verify_solved(bad, eq, 2)):
        with pytest.raises(ValueError, match=rf"^mask {mask} outside 0\.\.3$"):
            read()


def test_a_constituent_in_no_group_reads_as_excluded():
    # the display lists it where the oracle reads it, and so finds it wrong
    eq = parse_equation("x*w = y")
    dropped = dataclasses.replace(solve_for(eq, w), side_conditions=frozenset())
    assert dropped.display_groups() == (["x*y"], [], ["x*y'", "x'*y"])
    report = verify_solved(dropped, eq, 2)
    assert not report.sound
    assert str(report.counterexample) == (
        "sound failure on universe of size 1: x = {}; y = {0}; w = {} "
        "(assembled class does not satisfy the equation)"
    )


def test_the_reading_is_the_code_the_solution_was_grouped_by():
    rng = random.Random(1854)
    for _ in range(200):
        syms = XYZW[: rng.randint(0, 4)] + (Symbol("u"),)
        eq = Equation(random_expr(rng, syms, 5), random_expr(rng, syms, 3))
        try:
            sol = solve_for(eq, "u", syms[:-1])
        except SymbolNotPresent:  # the unknown cancelled out of the tree
            continue
        form = expand(eq.homogeneous(), (*sol.free_symbols, sol.unknown))
        _, a, b = _split(form, sol.unknown)
        code = bytes(2 * (p != 0) + (q != 0) for p, q in zip(a, b))
        assert bytes(sol._reading()) == code


# ---------------------------------------------------------------------------
# syllogism
# ---------------------------------------------------------------------------


def test_syllogism_barbara():
    premises = [parse_equation("x*y' = 0"), parse_equation("y*z' = 0")]
    result = syllogism(premises, (y,))
    assert isinstance(result, EliminationResult)
    assert str(result.residual) == "x*z' = 0"


def test_syllogism_barbara_oracle_confirmation():
    premises = [parse_equation("x*y' = 0"), parse_equation("y*z' = 0")]
    residual = syllogism(premises, (y,)).residual
    for m in range(0, 4):
        for a in assignments(Universe(m), (x, z)):
            joint_solvable = any(
                naive_holds(premises[0], b) and naive_holds(premises[1], b)
                for b in extensions(a, (y,))
            )
            assert naive_holds(residual, a) == joint_solvable


def test_syllogism_conclude_for():
    result = syllogism([parse_equation("x = y")], (), x)
    assert isinstance(result, SolvedClass)
    assert {str(c) for c in result.included} == {"y"}
    assert {str(c) for c in result.excluded} == {"y'"}
    assert not result.side_conditions
    assert result.indeterminate == ()


def test_syllogism_sorites_two_middles():
    u = Symbol("u")
    premises = [
        parse_equation("x*y' = 0"),
        parse_equation("y*z' = 0"),
        parse_equation("z*u' = 0"),
    ]
    result = syllogism(premises, (y, z))
    # repeated squaring piles up a harmless factor on the residual
    assert str(result.residual) == "2*x*u' = 0"
    for m in range(0, 3):
        for a in assignments(Universe(m), (x, u)):
            joint = any(
                all(naive_holds(p, b) for p in premises)
                for b in extensions(a, (y, z))
            )
            assert naive_holds(result.residual, a) == joint


def test_syllogism_no_drops_normalizes():
    result = syllogism([parse_equation("x*y' = 0")])
    assert isinstance(result, EliminationResult)
    assert str(result.residual) == "x*y' = 0"


def test_syllogism_empty_premises():
    with pytest.raises(EmptyPremises):
        syllogism([], (y,))


def test_generic_linear_solutions_random():
    # a*w + b*w' = 0 with random interpretable a, b: solve then verify
    rng = random.Random(1234)
    syms = (x, y)
    for _ in range(12):
        a = random_interpretable_expr(rng, syms)
        b = random_interpretable_expr(rng, syms)
        eq = Equation(Add(Mul(a, W), Mul(b, Sub(Const(1), W))), ZERO)
        sol = solve_for(eq, w, syms)
        report = verify_solved(sol, eq, 2)
        assert report.sound and report.complete, (
            f"a={a}, b={b}: {report.counterexample}"
        )


def test_elimination_exactness_random():
    # for f = a*w + b*w': the residual a*b = 0 holds exactly where some
    # w solves f = 0
    rng = random.Random(4321)
    syms = (x, y)
    for _ in range(12):
        a = random_interpretable_expr(rng, syms)
        b = random_interpretable_expr(rng, syms)
        eq = Equation(Add(Mul(a, W), Mul(b, Sub(Const(1), W))), ZERO)
        if w not in eq.free_symbols():
            continue
        residual = eliminate(eq, w).residual
        for m in range(0, 3):
            for assignment in assignments(Universe(m), syms):
                solvable = any(
                    naive_holds(eq, b) for b in extensions(assignment, (w,))
                )
                assert naive_holds(residual, assignment) == solvable


# ---------------------------------------------------------------------------
# cross-checks against the naive oracle's pointwise values
# ---------------------------------------------------------------------------


def _vertex(order, mask):
    return {s: mask >> i & 1 for i, s in enumerate(order)}


def _satisfiable(zero, order, kept, hidden, point):
    """Can the hidden symbols be chosen so that every premise vanishes?

    zero[m] says whether every premise vanishes at the vertex m of order;
    point is a mask over kept.
    """
    base = sum(1 << order.index(s) for i, s in enumerate(kept) if point >> i & 1)
    bits = [1 << order.index(s) for s in hidden]
    return any(
        zero[base + sum(b for j, b in enumerate(bits) if h >> j & 1)]
        for h in range(1 << len(bits))
    )


def _oracle_zero_table(premises, order):
    return [
        all(
            reference_value(p.homogeneous(), _vertex(order, m)) == 0
            for p in premises
        )
        for m in range(1 << len(order))
    ]


def _check_residual_against_oracle(premises, drops):
    order = combine_premises(premises).free_symbols()
    zero = _oracle_zero_table(premises, order)
    kept = tuple(s for s in order if s not in drops)

    def vanishes(k):  # the residual after the first k drops is 0 everywhere
        rest = tuple(s for s in order if s not in drops[:k])
        return all(
            _satisfiable(zero, order, rest, drops[:k], m)
            for m in range(1 << len(rest))
        )

    if any(vanishes(k) for k in range(1, len(drops))):
        with pytest.raises(SymbolNotPresent, match=r"does not occur in 0 = 0"):
            syllogism(premises, drops)
        return
    result = syllogism(premises, drops)
    if not kept:
        assert result.form.symbols == ()
        constant = result.form.coeffs[0]
        assert (constant == 0) == _satisfiable(zero, order, (), drops, 0)
        assert (result.residual.lhs == ZERO) == (constant == 0)
        return
    assert result.form.symbols == kept
    for m, v in enumerate(result.form.coeffs):
        assert (v == 0) == _satisfiable(zero, order, kept, drops, m)


def _oracle_reading(eq, unknown, rest, m):
    vertex = _vertex(rest, m)
    a = reference_value(eq.homogeneous(), {**vertex, unknown: 1})
    b = reference_value(eq.homogeneous(), {**vertex, unknown: 0})
    if b - a == 0:
        return "indeterminate" if b == 0 else "side"
    q = b / (b - a)
    return {1: "included", 0: "excluded"}.get(q, "side")


def test_residuals_and_solutions_match_oracle_random():
    rng = random.Random(1854)
    pool = symbols("x y z w u t")
    for _ in range(1000):
        syms = tuple(rng.sample(pool, rng.randint(1, 6)))
        premises = [
            Equation(random_expr(rng, syms, depth=3), ZERO)
            for _ in range(rng.randint(1, 3))
        ]
        eq = combine_premises(premises)
        order = eq.free_symbols()
        drops = tuple(rng.sample(order, rng.randint(0, min(3, len(order)))))
        _check_residual_against_oracle(premises, drops)

        if not order:
            continue
        unknown = rng.choice(order)  # with one symbol, solved over no symbols
        sol = solve_for(eq, unknown)
        assert syllogism(premises, (), unknown) == sol
        rest = sol.free_symbols
        assert rest == tuple(s for s in order if s != unknown)
        groups = {
            "included": {c.mask for c in sol.included},
            "excluded": {c.mask for c in sol.excluded},
            "side": {c.mask for c in sol.side_conditions},
            "indeterminate": {c.mask for _, c in sol.indeterminate},
        }
        for m in range(1 << len(rest)):
            assert m in groups[_oracle_reading(eq, unknown, rest, m)]
        assert [c.mask for _, c in sol.indeterminate] == sorted(
            groups["indeterminate"]
        )


@pytest.mark.parametrize("n, k", [(11, 2), (12, 3)])
def test_ring_syllogism_matches_oracle(n, k):
    # s0 -> s1 -> ... -> s(n-1) -> s0: every premise is s_i*s_(i+1)' = 0
    ring = [parse_equation(f"s{i}*s{(i + 1) % n}' = 0") for i in range(n)]
    drops = symbols(" ".join(f"s{i}" for i in range(k)))
    _check_residual_against_oracle(ring, drops)


def test_vanished_residual_names_no_symbol():
    # dropping x from x*y' = 0 leaves a residual that is 0 everywhere; it
    # renders as 0 = 0, so y is no longer there to drop or solve for
    premises = [parse_equation("x*y' = 0")]
    result = syllogism(premises, (x,))
    assert str(result.residual) == "0 = 0"
    assert result.form.symbols == (y,) and result.form.is_zero()
    with pytest.raises(SymbolNotPresent, match=r"^symbol y does not occur in 0 = 0$"):
        syllogism(premises, (x, y))
    with pytest.raises(SymbolNotPresent, match=r"^unknown y does not occur in 0 = 0$"):
        syllogism(premises, (x,), y)


def test_missing_symbol_after_an_elimination_is_named_briefly_at_16_symbols():
    # a residual is named by its symbols; its rendering grows with 2**n
    ring = [parse_equation(f"s{i}*s{(i + 1) % 16}' = 0") for i in range(16)]
    s0, rest = Symbol("s0"), [f"s{i}" for i in range(1, 16)]
    with pytest.raises(SymbolNotPresent) as info:
        syllogism(ring, (s0, s0))
    assert str(info.value) == f"symbol s0 does not occur in the residual over {rest}"
    with pytest.raises(SymbolNotPresent) as info:
        syllogism(ring, (s0,), s0)
    assert str(info.value) == f"unknown s0 does not occur in the residual over {rest}"


def test_basis_over_the_cap_is_refused_up_front():
    many = symbols(" ".join(f"s{i}" for i in range(21)))
    total = Sym(many[0])
    for s in many[1:]:
        total = Add(total, Sym(s))
    with pytest.raises(SymbolLimitExceeded):
        eliminate(Equation(total, ZERO), many[0])
    with pytest.raises(SymbolLimitExceeded):
        syllogism([Equation(total, ZERO)], many[:1])
    # solving counts the unknown: here 20 remaining symbols plus s0
    with pytest.raises(SymbolLimitExceeded, match="21 symbols"):
        solve_for(Equation(total, ZERO), many[0])


def test_deep_sum_equation_needs_no_recursion():
    # a left-nested sum of 3000 terms is deeper than the interpreter stack,
    # like a large residual fed to a further eliminate or solve
    lhs = Mul(Sym(x), Sym(w))
    for _ in range(2999):
        lhs = Add(lhs, Mul(Sym(x), Sym(w)))
    eq = Equation(lhs, Sym(y))
    assert eq.free_symbols() == (x, w, y)
    assert not algebra._plan(eq.lhs).divides
    form = expand(eq.homogeneous(), (x, w, y))
    assert form.coeff(0b011) == 3000 and form.coeff(0b111) == 2999
    assert str(eliminate(eq, w).residual) == "(-2999)*x*y + x'*y = 0"
    assert str(solve_for(eq, w)) == "w = v1*x'*y'  where x*y = 0, x'*y = 0"
