"""Set-semantics ground truth: numeric evaluation, models, verification."""

import ast
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from elective import (
    Add,
    Compl,
    Const,
    Constituent,
    ElectiveError,
    Equation,
    Mul,
    ONE,
    Quot,
    QuotientInOracle,
    SetAssignment,
    SolvedClass,
    Sub,
    Sym,
    Symbol,
    SymbolListMismatch,
    SymbolNotPresent,
    Universe,
    UniverseLimitExceeded,
    check_equation,
    expand,
    format_expr,
    parse_equation,
    parse_expression,
    solve_for,
    verify_solved,
)
from elective import oracle
from elective.expr import _plan
from elective.oracle import MAX_ORACLE_WORK
from helpers import (
    XYZW,
    _postorder,
    assignments,
    naive_first_failure,
    naive_classes,
    naive_counterexample,
    naive_holds,
    naive_models,
    naive_value,
    naive_verify,
    planted_tree,
    random_expr,
    random_interpretable_expr,
    region,
    submasks,
)

x, y, z, w = XYZW
X, Y, Z, W = Sym(x), Sym(y), Sym(z), Sym(w)


def assign(m, **subsets):
    u = Universe(m)
    return SetAssignment(u, {globals()[name]: mask for name, mask in subsets.items()})


def _differ_at(eq, a):
    """The elements of model a, as a bitmask, where the sides of eq differ:
    one pass of the oracle's evaluator over the model's own columns."""
    return oracle._differ(_plan(Sub(eq.lhs, eq.rhs)), a.universe.size, a.subsets)


def test_universe_limits():
    assert Universe(0).full == 0
    assert Universe(3).full == 0b111
    with pytest.raises(UniverseLimitExceeded):
        Universe(9)


def test_eval_numeric_indicator_arithmetic():
    # each tree equals its value at the one element, and not that value plus one
    a = assign(1, x=1, y=1)
    for e, value in ((Add(X, Y), 2), (Mul(X, Sub(ONE, X)), 0), (ONE, 1), (Compl(X), 0)):
        assert _differ_at(Equation(e, Const(value)), a) == 0
        assert _differ_at(Equation(e, Const(value + 1)), a) == 1


def test_eval_numeric_rejects_quotients():
    with pytest.raises(QuotientInOracle):
        check_equation(Equation(Quot(Y, X), ONE), (x, y), 1)


def test_partition_identity_holds_everywhere():
    eq = parse_equation("1 = x*y + x*y' + x'*y + x'*y'")
    for m in range(0, 5):
        u = Universe(m)
        for a in assignments(u, (x, y)):
            assert not _differ_at(eq, a)
    assert check_equation(eq, (x, y), 8) is None


def test_holds_pointwise():
    eq = parse_equation("x*w = y")
    assert not _differ_at(eq, assign(1, x=1, y=1, w=1))
    assert _differ_at(eq, assign(1, x=1, y=1, w=0))
    assert _differ_at(parse_equation("x + y = 1"), assign(1, x=1, y=1))


def test_region_masks():
    from elective import constituents

    a = assign(3, x=0b011, y=0b101)
    c_xy, c_xy_, c_x_y, c_x_y_ = (
        constituents((x, y))[3],
        constituents((x, y))[1],
        constituents((x, y))[2],
        constituents((x, y))[0],
    )
    assert region(c_xy, a) == 0b001
    assert region(c_xy_, a) == 0b010
    assert region(c_x_y, a) == 0b100
    assert region(c_x_y_, a) == 0b000


def test_submasks_ascending():
    assert list(submasks(0b101)) == [0b000, 0b001, 0b100, 0b101]
    assert list(submasks(0)) == [0]


def test_verify_solved_flagship():
    eq = parse_equation("x*w = y")
    sol = solve_for(eq, w)
    report = verify_solved(sol, eq, 4)
    assert report.sound and report.complete
    assert report.counterexample is None


def test_verify_detects_dropped_side_condition():
    eq = parse_equation("x*w = y")
    sol = solve_for(eq, w)
    corrupted = replace(sol, side_conditions=frozenset())
    report = verify_solved(corrupted, eq, 3)
    assert not report.sound
    assert report.counterexample is not None
    assert report.counterexample.kind == "sound"


@pytest.mark.parametrize(
    "text, moved, model",
    [("x*w = y", "x*y'", "x = {0}; y = {}; w = {}"), ("2*w = 0", "1", "w = {}")],
)
def test_verify_checks_side_conditions(text, moved, model):
    # an excluded constituent passed off as a side condition claims that no
    # class solves the equation at its elements; a one-element model of it,
    # solved by w = {}, refutes that
    eq = parse_equation(text)
    sol = solve_for(eq, w)
    (c,) = [c for c in sol.excluded if str(c) == moved]
    corrupted = replace(
        sol, excluded=sol.excluded - {c}, side_conditions=sol.side_conditions | {c}
    )
    report = verify_solved(corrupted, eq, 4)
    assert report.sound and not report.complete
    cx = report.counterexample
    assert (cx.kind, cx.universe_size, cx.witness) == ("complete", 1, 0)
    assert f"size 1: {model} (" in str(cx)
    assert verify_solved(sol, eq, 4).ok


def test_verify_detects_missing_indeterminate():
    eq = parse_equation("x*w = y")
    sol = solve_for(eq, w)
    # forgetting the v-region keeps soundness but loses solutions
    corrupted = replace(sol, indeterminate=())
    report = verify_solved(corrupted, eq, 3)
    assert report.sound
    assert not report.complete
    assert report.counterexample.kind == "complete"


def test_verify_detects_wrong_inclusion():
    eq = parse_equation("x*w = y")
    sol = solve_for(eq, w)
    corrupted = replace(
        sol,
        included=sol.included | sol.excluded,
        excluded=frozenset(),
    )
    report = verify_solved(corrupted, eq, 3)
    assert not report.sound


def test_verify_size_zero_is_vacuous():
    eq = parse_equation("x*w = y")
    sol = solve_for(eq, w)
    report = verify_solved(sol, eq, 0)
    assert report.sound and report.complete


def test_master_cross_check_oracle_vs_development():
    # the developed coefficient at a constituent equals the numeric value
    # on every element of that constituent's region: the tree and its
    # development agree in every model
    rng = random.Random(404)
    syms = (x, y, z)
    for _ in range(60):
        e = random_expr(rng, syms, depth=4)
        form = expand(e, syms)
        assert check_equation(Equation(e, form.to_expr()), syms, 1) is None, str(e)


def test_interpretable_means_every_element_is_zero_or_one():
    # a value is 0 or 1 exactly where it equals its own square
    rng = random.Random(777)
    syms = (x, y)
    for _ in range(40):
        e = random_expr(rng, syms, depth=4)
        form = expand(e, syms)
        pointwise_class = check_equation(Equation(Mul(e, e), e), syms, 2) is None
        assert form.is_interpretable() == pointwise_class


def verdict(report):
    kind = report.counterexample.kind if report.counterexample else None
    return report.sound, report.complete, kind


def test_counterexample_renders_sets():
    eq = parse_equation("x*w = y")
    sol = replace(solve_for(eq, w), side_conditions=frozenset())
    assert str(verify_solved(sol, eq, 3).counterexample) == (
        "sound failure on universe of size 1: x = {}; y = {0}; w = {} "
        "(assembled class does not satisfy the equation)"
    )


def test_max_universe_validated_before_enumeration():
    eq = parse_equation("x*w = y")
    sol = solve_for(eq, w)
    with pytest.raises(ValueError):
        verify_solved(sol, eq, -1)
    with pytest.raises(ValueError):
        check_equation(eq, (x, y, w), -1)
    with pytest.raises(UniverseLimitExceeded):
        check_equation(parse_equation("x = 1"), (x,), 9)


def _side_condition_on_all(k):
    """w = w + x*y*... over the first k symbols, and its solution: the
    constituent in every symbol is a side condition, the rest indeterminate."""
    term = Const(1)
    for s in XYZW[:k]:
        term = Mul(term, Sym(s))
    eq = Equation(W, Add(W, term))
    return eq, solve_for(eq, w, XYZW[:k])


@pytest.mark.parametrize("k", range(4))
def test_orbit_counts_are_multisets_of_types(k):
    # a report counts one model per orbit of the universe's permutations, a
    # multiset of element types: C(m + 2**k - 1, m) of them on m elements,
    # of which those without the side-condition type are evaluated
    eq, sol = _side_condition_on_all(k)
    report = verify_solved(sol, eq, 8)
    assert report.ok
    kept = [2**k] + [comb(m + 2**k - 2, m) for m in range(2, 9)]
    assert list(report.evaluated) == kept
    assert [a + b for a, b in zip(report.evaluated, report.skipped)] == [
        comb(m + 2**k - 1, m) for m in range(1, 9)
    ]


def _type_multiset(a, syms):
    types = [
        sum((a.subsets[s] >> e & 1) << i for i, s in enumerate(syms))
        for e in range(a.universe.size)
    ]
    return tuple(sorted(types))


@pytest.mark.parametrize("k, max_m", [(1, 4), (2, 4), (3, 2)])
def test_orbits_take_one_assignment_per_permutation_class(k, max_m):
    # the counts agree with the permutation classes of every assignment,
    # found naively; a class is skipped when a side condition has elements
    eq, sol = _side_condition_on_all(k)
    report = verify_solved(sol, eq, max_m)
    for m in range(1, max_m + 1):
        classes = {
            _type_multiset(a, sol.free_symbols): a
            for a in assignments(Universe(m), sol.free_symbols)
        }
        kept = [
            a
            for a in classes.values()
            if m == 1 or not any(region(c, a) for c in sol.side_conditions)
        ]
        counts = report.evaluated[m - 1], report.skipped[m - 1]
        assert counts == (len(kept), len(classes) - len(kept)), m


def _corruptions(sol):
    return {
        "exact": sol,
        "no side conditions": replace(sol, side_conditions=frozenset()),
        "no indeterminate": replace(sol, indeterminate=()),
        "all included": replace(
            sol, included=sol.included | sol.excluded, excluded=frozenset()
        ),
    }


@pytest.mark.parametrize(
    "text, basis, max_m",
    [
        ("x*w = y", None, 4),
        ("x*w = x", None, 4),
        ("2*x*w = y", None, 4),
        ("w*x' = y*w", None, 4),
        ("0*w + 0*(1 - w) = 0", (x, y), 3),
    ],
)
def test_verify_matches_naive_on_oracle_cases(text, basis, max_m):
    eq = parse_equation(text)
    for name, sol in _corruptions(solve_for(eq, w, basis)).items():
        for m in range(max_m + 1):
            assert verdict(verify_solved(sol, eq, m)) == naive_verify(sol, eq, m), (
                name,
                m,
            )


def _random_solved(rng, syms):
    while True:
        if rng.random() < 0.5:
            a = random_interpretable_expr(rng, syms)
            b = random_interpretable_expr(rng, syms)
            eq = Equation(Add(Mul(a, W), Mul(b, Compl(W))), Const(0))
        else:
            eq = Equation(
                random_expr(rng, syms + (w,), 2), random_expr(rng, syms + (w,), 2)
            )
        try:
            return eq, solve_for(eq, w, syms)
        except ElectiveError:
            continue


def _moved_to_excluded(rng, sol):
    """sol with one included or indeterminate constituent excluded, or None."""
    picks = [(True, c) for c in sol.included]
    picks += [(False, c) for _, c in sol.indeterminate]
    if not picks:
        return None
    included, c = rng.choice(picks)
    if included:
        return replace(sol, included=sol.included - {c}, excluded=sol.excluded | {c})
    return replace(
        sol,
        indeterminate=tuple(p for p in sol.indeterminate if p[1] != c),
        excluded=sol.excluded | {c},
    )


GROUPS = ("included", "indeterminate", "side_conditions", "excluded")


def _members(sol, group):
    if group == "indeterminate":
        return [c for _, c in sol.indeterminate]
    return sorted(getattr(sol, group), key=lambda c: c.mask)


def _with_members(sol, group, members):
    if group == "indeterminate":
        members = sorted(members, key=lambda c: c.mask)
        pieces = tuple((Symbol(f"v{j}"), c) for j, c in enumerate(members, 1))
        return replace(sol, indeterminate=pieces)
    return replace(sol, **{group: frozenset(members)})


def _moved(rng, sol):
    """sol with one constituent moved from one group to another, or, one
    time in four, added to another group as well, and the two groups."""
    source = rng.choice([g for g in GROUPS if _members(sol, g)])
    target = rng.choice([g for g in GROUPS if g != source])
    c = rng.choice(_members(sol, source))
    if rng.random() < 0.75:
        sol = _with_members(sol, source, [d for d in _members(sol, source) if d != c])
    return _with_members(sol, target, _members(sol, target) + [c]), source, target


def test_verify_matches_naive_on_random_solved_classes(monkeypatch):
    # exact classes and classes with a constituent moved between any two
    # groups, over 0 to 3 free symbols, with point budgets that split the
    # passes between and inside models: the verdict and the first
    # counterexample (its kind, size, model and witness) match the naive
    # reference, and a check that ran to the end counts every orbit
    rng = random.Random(2024)
    checked = Counter()
    for _ in range(1200):
        monkeypatch.setattr(oracle, "_BLOCK", rng.choice((1, 7, 40, 300, 2**15)))
        k = rng.randint(0, 3)
        eq, sol = _random_solved(rng, (x, y, z)[:k])
        m = (4, 3, 2, 2)[k]
        shown, moved = sol, "exact"
        if rng.random() < 0.7:
            shown, *moved = _moved(rng, sol)
            moved = tuple(moved)
        report = verify_solved(shown, eq, m)
        assert verdict(report) == naive_verify(shown, eq, m), str(eq)
        assert report.ok or moved != "exact", str(eq)
        found = report.counterexample
        if found is not None:
            model = dict(found.assignment)
            found = found.kind, found.universe_size, model, found.witness
        assert found == naive_counterexample(shown, eq, m), (str(eq), moved)
        if report.ok:
            for size in range(1, m + 1):
                models = naive_models(shown, size)
                kept = [
                    a
                    for a in models
                    if size == 1 or not any(region(c, a) for c in shown.side_conditions)
                ]
                counts = report.evaluated[size - 1], report.skipped[size - 1]
                assert counts == (len(kept), len(models) - len(kept)), str(eq)
        checked[moved] += 1
        checked["failing"] += not report.ok
    assert len(checked) == 14 and min(checked.values()) > 20, checked


@pytest.mark.parametrize("k, m, cases", [(1, 6, 24), (2, 5, 12)])
def test_verify_matches_naive_past_the_random_universes(k, m, cases):
    # the random comparison above stops at 4 elements for one free symbol
    # and 3 for two; here every model up to 6 and 5 elements is enumerated
    rng = random.Random(1815 + k)
    checked = Counter()
    for _ in range(cases):
        eq, sol = _random_solved(rng, (x, y)[:k])
        shown = _moved(rng, sol)[0] if rng.random() < 0.6 else sol
        report = verify_solved(shown, eq, m)
        assert verdict(report) == naive_verify(shown, eq, m), str(eq)
        found = report.counterexample
        if found is not None:
            found = found.kind, found.universe_size, dict(found.assignment), found.witness
        assert found == naive_counterexample(shown, eq, m), (str(eq), str(shown))
        checked[report.ok] += 1
    assert min(checked[True], checked[False]) >= 3, checked


def test_each_pass_decides_every_candidate_of_its_models(monkeypatch):
    # a verify pass evaluates one-element models, each point a type of the
    # free symbols with a candidate for the unknown: the sides differ at a
    # point exactly where the naive reference says they do in that model,
    # and those models alone give the naive verdict over every size
    decided = []
    real = oracle._differ

    def recorded(plan, width, columns):
        decided.append((width, dict(columns), real(plan, width, columns)))
        return decided[-1][2]

    monkeypatch.setattr(oracle, "_differ", recorded)
    rng = random.Random(1854)
    failing = 0
    for _ in range(150):
        monkeypatch.setattr(oracle, "_BLOCK", rng.choice((1, 7, 40, 2**15)))
        k = rng.randint(0, 3)
        eq, sol = _random_solved(rng, (x, y, z)[:k])
        shown = _moved(rng, sol)[0] if rng.random() < 0.7 else sol
        decided.clear()
        report = verify_solved(shown, eq, (4, 3, 2, 2)[k])
        for width, columns, differ in decided:
            for p in range(width):
                bits = {s: column >> p & 1 for s, column in columns.items()}
                a = SetAssignment(Universe(1), bits)
                assert differ >> p & 1 == (not naive_holds(eq, a)), str(eq)
        assert verdict(report) == naive_verify(shown, eq, 1), (str(eq), str(shown))
        failing += not report.ok
    assert failing > 50, failing


def test_check_equation_matches_naive():
    rng = random.Random(1847)
    for k, max_m in ((1, 4), (2, 3), (3, 2)):
        syms = XYZW[:k]
        for j in range(60):
            lhs = random_expr(rng, syms, 3)
            # every other equation is an identity: lhs against its development
            rhs = expand(lhs, syms).to_expr() if j % 2 else random_expr(rng, syms, 3)
            eq = Equation(lhs, rhs)
            model = check_equation(eq, syms, max_m)
            first = naive_first_failure(eq, syms, max_m)
            if model is None:
                assert first is None
            else:
                assert model.universe.size == first and not naive_holds(eq, model)


def test_work_above_the_budget_is_refused_up_front(monkeypatch):
    # nineteen free symbols: 2**20 points x 38 nodes; nineteen symbols
    # without an unknown: 2**19 points x 74 nodes; refused before any pass,
    # so the solution's groups are never read and may be empty
    factors = tuple(Symbol(f"s{i}") for i in range(1, 19))
    product_text = "*".join(s.name for s in factors)
    eq = parse_equation(f"x*w = {product_text}")
    empty = frozenset()
    sol = SolvedClass(w, (x, *factors), empty, (), empty, empty)
    widths = _recorded_widths(monkeypatch)
    with pytest.raises(UniverseLimitExceeded, match="39,845,888"):
        verify_solved(sol, eq, 1)
    eq = parse_equation(f"{product_text}*x = x*{product_text}")
    with pytest.raises(UniverseLimitExceeded, match=f"{MAX_ORACLE_WORK:,}"):
        check_equation(eq, eq.free_symbols(), 8)
    assert widths == []


def _recorded_widths(monkeypatch):
    """Record the width of every pass of the oracle's evaluator."""
    widths = []
    real = oracle._evaluate

    def recorded(plan, width, columns):
        widths.append(width)
        return real(plan, width, columns)

    monkeypatch.setattr(oracle, "_evaluate", recorded)
    return widths


def _recorded_passes(monkeypatch):
    """Record every pass of the oracle's evaluator as (width, columns)."""
    passes = []
    real = oracle._evaluate

    def recorded(plan, width, columns):
        passes.append((width, dict(columns)))
        return real(plan, width, columns)

    monkeypatch.setattr(oracle, "_evaluate", recorded)
    return passes


def test_verify_evaluates_each_candidate_once(monkeypatch):
    # point 2t + c is type t of the free symbols with candidate c for the
    # unknown: every point once, in ascending order across passes of at
    # most _BLOCK points, whatever the universe bound
    passes = _recorded_passes(monkeypatch)
    cases = ("x*w = w*x", "x*w = y", "w*x*y*z = z*(1 - y)")
    for budget, text in product((oracle._BLOCK, 1, 7, 40), cases):
        monkeypatch.setattr(oracle, "_BLOCK", budget)
        eq = parse_equation(text)
        sol = solve_for(eq, w)
        bits = (w, *sol.free_symbols)
        for top in range(1, 9, 3):
            passes.clear()
            assert verify_solved(sol, eq, top).ok
            laid = [
                sum((columns[s] >> p & 1) << i for i, s in enumerate(bits))
                for width, columns in passes
                for p in range(width)
            ]
            assert laid == list(range(2 << len(sol.free_symbols))), (text, budget)
            assert max(width for width, _ in passes) <= budget


@pytest.mark.parametrize(
    "text, basis",
    [
        ("x*w = y", None),
        ("x*w = x", None),
        ("2*x*w = y", None),
        ("w*x' = y*w", None),
        ("0*w + 0*(1 - w) = 0", (x, y)),
    ],
)
def test_verify_work_stays_within_its_plan(monkeypatch, text, basis):
    # the plan is 2**k types x 2 candidates x the tree's nodes, whatever
    # the universe bound from 1 on and the point budget of a pass, and the
    # work run is exactly that, short only where both kinds of failure are
    # found before the last pass
    eq = parse_equation(text)
    nodes = sum(1 for side in (eq.lhs, eq.rhs) for _ in _postorder(side))
    widths = _recorded_widths(monkeypatch)
    sols = _corruptions(solve_for(eq, w, basis)).items()
    for budget, (name, sol) in product((oracle._BLOCK, 3), sols):
        monkeypatch.setattr(oracle, "_BLOCK", budget)
        for top in range(5):
            widths.clear()
            report = verify_solved(sol, eq, top)
            planned = nodes * (2 << len(sol.free_symbols)) * (top > 0)
            work = nodes * sum(widths)
            assert work <= planned, (name, top)
            if report.sound or report.complete:
                assert work == planned, (name, top)


def _over_basis(sol, group, basis):
    """sol with the lowest-mask constituent of one group rebuilt over basis."""

    def moved(c):
        return Constituent(basis, c.mask % 2 ** len(basis))

    if group == "indeterminate":
        (v, c), *rest = sol.indeterminate
        return replace(sol, indeterminate=((v, moved(c)), *rest))
    members = getattr(sol, group)
    c = min(members, key=lambda c: c.mask)
    return replace(sol, **{group: members - {c} | {moved(c)}})


@pytest.mark.parametrize(
    "basis", [(y, x), (x, z), (x,)], ids=["permuted", "other", "shorter"]
)
@pytest.mark.parametrize(
    "group", ["included", "indeterminate", "side_conditions", "excluded"]
)
def test_verify_refuses_constituents_over_another_basis(monkeypatch, group, basis):
    # x*w = y has one constituent of (x, y) in each group; a model's
    # elements are matched to a constituent by its mask, which means
    # nothing over another symbol list, so that is refused before any pass
    eq = parse_equation("x*w = y")
    sol = _over_basis(solve_for(eq, w), group, basis)
    widths = _recorded_widths(monkeypatch)
    with pytest.raises(SymbolListMismatch, match=r"not the solution's free symbols"):
        verify_solved(sol, eq, 3)
    assert widths == []


def test_only_a_reported_model_becomes_a_set_assignment(monkeypatch):
    # one SetAssignment is built for the counterexample reported, whether
    # one or both kinds fail, and none for a verification that passes
    built = []
    real = oracle._assignment

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(oracle, "_assignment", counted)
    cases = (("x*w = y", None), ("w*x' = y*w", None), ("x*w = z", (x, y, z)))
    both = 0
    for text, basis in cases:
        eq = parse_equation(text)
        for name, sol in _corruptions(solve_for(eq, w, basis)).items():
            built.clear()
            report = verify_solved(sol, eq, 4)
            assert len(built) == (not report.ok), name
            both += not report.sound and not report.complete
            if name == "exact":
                assert report.ok
    assert both > 0
    built.clear()
    assert check_equation(parse_equation("x*y = y*x"), (x, y), 5) is None
    assert built == []
    assert check_equation(parse_equation("x*y = x"), (x, y), 5) is not None
    assert len(built) == 1


def test_oracle_takes_only_data_types_from_algebra_and_inference():
    # the oracle stays independent of the development it checks: the only
    # names it may take from algebra and inference are the types it reads
    from pathlib import Path

    taken = {}
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "elective" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "elective"
        ):
            module = node.module if node.level else node.module.partition(".")[2]
            assert module, "import a submodule by name, not the package"
            taken.setdefault(module, set()).update(a.name for a in node.names)
    assert set(taken) <= {"errors", "expr", "algebra", "inference"}
    assert taken.get("algebra", set()) | taken.get("inference", set()) <= {
        "Constituent",
        "SolvedClass",
    }


@pytest.mark.parametrize(
    "text, k",
    [("x*y = y*x", 2), ("x + y' = y' + x", 2), ("x*y*z = z*(y*x)", 3), ("x = x*y", 2)],
)
def test_check_work_stays_within_its_plan(monkeypatch, text, k):
    # the plan is the 2**k types, each one point, from a universe bound of
    # 1 on; an identity evaluates them all, and a bound of 0 one empty pass
    eq = parse_equation(text)
    syms = XYZW[:k]
    widths = _recorded_widths(monkeypatch)
    for top in range(5):
        widths.clear()
        model = check_equation(eq, syms, top)
        planned = 2**k * (top > 0)
        assert sum(widths) <= planned, top
        if model is None:
            assert sum(widths) == planned and widths, top


def _wide_tree(rng, syms, kind):
    """A division-free tree whose values the bit planes find hard."""
    e = random_expr(rng, syms, 3, fractional=True)
    if kind == "wide":  # intermediates past 64 bits, cancelling or not
        big = Const(Fraction(rng.choice((-1, 1)) * 3 ** rng.randint(41, 60), 7))
        return Sub(Mul(big, e), Mul(big, random_expr(rng, syms, 2)))
    if kind == "chain":
        for _ in range(rng.randint(1, 40)):
            e = Compl(e)
        return e
    if kind == "power":  # a product of sums, such as (x + y - 3)**4
        s = Add(Sym(rng.choice(syms)), Sym(rng.choice(syms)))
        s = Add(s, Const(rng.randint(-3, 3)))
        p = s
        for _ in range(rng.randint(1, 4)):
            p = Mul(p, s)
        return p
    return e


def test_bit_planes_match_the_naive_oracle(monkeypatch):
    # every entry point against the element-by-element reference, with
    # point budgets that split the passes between and inside models
    rng = random.Random(1997)
    kinds = ("plain", "wide", "chain", "power")
    seen = {"wide": 0, "verified": 0, "failing": 0, "identities": 0}
    for i in range(400):  # 800 trees
        monkeypatch.setattr(oracle, "_BLOCK", rng.choice((1, 7, 50, 2**15)))
        k = rng.randint(0, 2)
        syms = XYZW[:k] + (w,)
        lhs, rhs = (_wide_tree(rng, syms, rng.choice(kinds)) for _ in "lr")
        if i % 4 == 0:  # an identity: every block of the check is evaluated
            rhs = expand(lhs, syms).to_expr()
        eq = Equation(lhs, rhs)
        m = rng.randint(0, 3)
        a = SetAssignment(Universe(m), {s: rng.randrange(1 << m) for s in syms})
        # the left side equals a constant exactly at the elements where
        # the naive oracle gives it that value
        values = [naive_value(eq.lhs, a, e) for e in range(m)]
        for value in set(values):
            differ = _differ_at(Equation(eq.lhs, Const(value)), a)
            assert differ == sum(1 << e for e, v in enumerate(values) if v != value)
        seen["wide"] += any(abs(v) > 2**64 for v in values)
        assert (not _differ_at(eq, a)) == naive_holds(eq, a), str(eq)
        model = check_equation(eq, syms, 2)
        first = naive_first_failure(eq, syms, 2)
        assert (model and model.universe.size) == first, str(eq)
        assert model is None or not naive_holds(eq, model)
        seen["failing" if first is not None else "identities"] += 1
        try:
            sol = solve_for(eq, w, XYZW[:k])
        except ElectiveError:
            continue
        shown = sol if i % 2 else _moved_to_excluded(rng, sol)
        if shown is not None:
            assert verdict(verify_solved(shown, eq, 2)) == naive_verify(shown, eq, 2)
            seen["verified"] += 1
    assert min(seen.values()) > 40, seen


def test_a_squared_premise_is_evaluated_once_per_pass(monkeypatch):
    # the oracle evaluates the plan of lhs - rhs: in f*f = f, with the
    # square of one object or of a parsed copy, each pass runs f's three
    # products and the square's once, not f's three times over
    products = []
    real = oracle._product

    def counted(x, y, full):
        products.append(full)
        return real(x, y, full)

    monkeypatch.setattr(oracle, "_product", counted)
    widths = _recorded_widths(monkeypatch)
    f = parse_expression("x*y' + (z - x)*2*w")
    for square in (Mul(f, f), Mul(parse_expression(format_expr(f)), f)):
        for block in (oracle._BLOCK, 3):
            monkeypatch.setattr(oracle, "_BLOCK", block)
            products.clear()
            widths.clear()
            assert check_equation(Equation(square, f), XYZW, 2) is not None
            assert widths and len(products) == 4 * len(widths), block


def test_planted_repeats_check_like_the_naive_oracle(monkeypatch):
    # trees that reuse whole subtrees, as one object or as parsed copies,
    # decide as the element-by-element reference does, in both checks
    # (verify_solved on one-element models, which decide every size)
    rng = random.Random(1854)
    seen = Counter()
    for i in range(60):
        monkeypatch.setattr(oracle, "_BLOCK", rng.choice((1, 7, 2**15)))
        lhs = planted_tree(rng, False)
        rhs = expand(lhs, XYZW).to_expr() if i % 3 == 0 else planted_tree(rng, False)
        eq = Equation(lhs, rhs)
        leaves = (Sym, Const)
        inner = sum(type(n) not in leaves for n in _postorder(Sub(lhs, rhs)))
        planned = sum(kind not in leaves for kind, _, _ in _plan(Sub(lhs, rhs)).nodes)
        seen["repeats"] += planned < inner
        model = check_equation(eq, XYZW, 2)
        first = naive_first_failure(eq, XYZW, 2)
        assert (model and model.universe.size) == first, str(eq)
        assert model is None or not naive_holds(eq, model)
        seen["failing" if first is not None else "identities"] += 1
        try:
            sol = solve_for(eq, w, XYZW[:3])
        except ElectiveError:
            continue
        shown = _moved(rng, sol)[0] if rng.random() < 0.5 else sol
        report = verify_solved(shown, eq, 1)
        assert verdict(report) == naive_verify(shown, eq, 1), str(eq)
        found = report.counterexample
        if found is not None:
            found = found.kind, found.universe_size, dict(found.assignment), found.witness
        assert found == naive_counterexample(shown, eq, 1), str(eq)
        seen["verified" if report.ok else "refuted"] += 1
    assert len(seen) == 5 and min(seen.values()) > 10, seen


def test_typed_errors_come_in_post_order_on_planted_trees():
    # leaves of trees with repeats turned, here and there, into a symbol
    # the check lacks or a quotient: the error is the type of the first
    # offending node of a post-order walk, at every universe bound
    rng = random.Random(1815)
    u = Symbol("u")

    def plant(e, done):
        """e with some leaves replaced, each reused object replaced alike."""
        if id(e) not in done:
            if type(e) in (Sym, Const):
                r = rng.random()
                done[id(e)] = Sym(u) if r < 0.03 else Quot(e, X) if r < 0.06 else e
            elif type(e) is Compl:
                done[id(e)] = Compl(plant(e.operand, done))
            else:
                done[id(e)] = type(e)(plant(e.left, done), plant(e.right, done))
        return done[id(e)]

    seen = Counter()
    errors = {Sym: SymbolNotPresent, Quot: QuotientInOracle}
    for _ in range(300):
        eq = Equation(*(plant(planted_tree(rng, False), {}) for _ in "lr"))
        offending = (
            type(n)
            for n in _postorder(Sub(eq.lhs, eq.rhs))
            if type(n) is Quot or type(n) is Sym and n.symbol == u
        )
        error = errors.get(next(offending, None))
        for m in (0, 3):
            if error is None:
                check_equation(eq, XYZW, m)
            else:
                with pytest.raises(error):
                    check_equation(eq, XYZW, m)
        seen[error] += 1
    assert len(seen) == 3 and min(seen.values()) > 30, seen


def test_work_counts_each_distinct_node_once():
    # four copies of a 19-symbol product against a fifth: 2**19 points x
    # 188 tree nodes is above the budget, x 40 distinct ones within it;
    # over 20 symbols a square is refused, counting 2**20 x 40 distinct
    f = "(" + "*".join(f"s{i}" for i in range(19)) + ")"
    eq = parse_equation(f"{f}*{f}*{f}*{f} = {f}")
    assert check_equation(eq, eq.free_symbols(), 8) is None
    g = "(" + "*".join(f"s{i}" for i in range(20)) + ")"
    eq = parse_equation(f"{g}*{g} = {g}")
    with pytest.raises(UniverseLimitExceeded, match="needs 41,943,040 node"):
        check_equation(eq, eq.free_symbols(), 8)


@pytest.mark.parametrize(
    "m, subsets, error, message",
    [
        (0, {}, SymbolNotPresent, "assignment does not cover symbol x"),
        (2, {}, SymbolNotPresent, "assignment does not cover symbol x"),
        (0, {x: 0}, QuotientInOracle, "formal division has no pointwise set meaning"),
        (2, {x: 1}, QuotientInOracle, "formal division has no pointwise set meaning"),
    ],
)
def test_oracle_errors_come_from_the_first_offending_node(m, subsets, error, message):
    # post-order meets x before the quotient x/x, at every universe size;
    # verify_solved refuses an equation symbol outside its solution's
    # free symbols before it evaluates anything
    eq = parse_equation("w = x/x")
    with pytest.raises(error, match=f"^{message}$"):
        check_equation(eq, (w, *subsets), m)
    sol = solve_for(parse_equation("w = 1"), w, tuple(subsets))
    if not subsets:
        message = r"equation symbols \['x'\] are not covered by the solution's free symbols"
    with pytest.raises(error, match=f"^{message}$"):
        verify_solved(sol, eq, m)


def test_check_equation_first_failure_across_block_boundaries(monkeypatch):
    # _BLOCK counts points: set to the lowest failing type, that type
    # starts a pass; set to one more, it ends one
    rng = random.Random(1864)
    boundaries = 0
    for k, max_m in ((1, 4), (2, 4), (3, 3)):
        syms = XYZW[:k]
        for _ in range(25):
            eq = Equation(random_expr(rng, syms, 3), random_expr(rng, syms, 3))
            models = [
                SetAssignment(Universe(1), {s: t >> i & 1 for i, s in enumerate(syms)})
                for t in range(2**k)
            ]
            failing = [t for t, a in enumerate(models) if not naive_holds(eq, a)]
            if not failing:
                assert check_equation(eq, syms, max_m) is None
                continue
            for block in {failing[0], failing[0] + 1} - {0}:
                monkeypatch.setattr(oracle, "_BLOCK", block)
                found = check_equation(eq, syms, max_m)
                assert found.universe.size == 1
                assert found.subsets == models[failing[0]].subsets
                boundaries += 1
    assert boundaries > 60


def test_verify_solved_refuses_an_equation_symbol_outside_the_solution():
    sol = solve_for(parse_equation("x*w = y"), w)
    with pytest.raises(SymbolNotPresent, match=r"^equation symbols \['z'\] are not"):
        verify_solved(sol, parse_equation("x*w = y*z"), 2)


def test_set_assignment_subsets_lie_in_the_universe():
    with pytest.raises(ValueError, match="^subset for x exceeds the universe$"):
        SetAssignment(Universe(2), {x: 0b100})
    a = SetAssignment(Universe(2), {x: 0b11})
    assert a.subsets[x] == 3


def test_constant_planes_are_the_bits_of_the_value():
    # a constant's planes, read off its binary text, are its two's-complement
    # bits one by one, the last plane the sign, from zero to 20 000 bits
    rng = random.Random(1815)
    full = 0b1011
    values = [0, 1, -1, 2, -2, 2**64, -(2**64), 2**64 - 1, 1 - 2**64]
    for _ in range(40):
        values.append(rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 20_000)))
    for value in values:
        planes, lo, hi, den = oracle._constant(value, 7, full)
        width = oracle._width(value, value)
        assert planes == [full if value >> i & 1 else 0 for i in range(width)]
        assert planes[-1] == (full if value < 0 else 0)
        assert (lo, hi, den) == (value, value, 7)
