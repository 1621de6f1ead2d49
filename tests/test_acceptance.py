"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines.  All
checks are exact (rational arithmetic); the only tolerances are the
wall-clock budgets stated per criterion.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from elective import (
    Add,
    Const,
    Equation,
    INDETERMINATE,
    Infinite,
    InvalidFlags,
    KotiRegion,
    LinearForm,
    Mul,
    ParseError,
    Sub,
    Sym,
    ThreeVal,
    Universe,
    ZERO,
    catuskoti_classify,
    constituents,
    eliminate,
    expand,
    format_expr,
    negate3,
    parse_equation,
    parse_expression,
    solve_for,
    syllogism,
    verify_solved,
)
from elective.modern import analyze
from helpers import (
    XYZW,
    assignments,
    constituent_product,
    extensions,
    naive_holds,
    random_expr,
    random_interpretable_expr,
    reference_value,
    run_elective,
    vertex,
)

x, y, z, w = XYZW
X, Y, Z, W = Sym(x), Sym(y), Sym(z), Sym(w)


@contextmanager
def criterion(num: int, name: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {name}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"[FAIL] criterion {num}: {name} ({elapsed:.2f}s over {budget}s budget)")
        raise AssertionError(f"criterion {num} exceeded its {budget}s budget")
    timing = f" ({elapsed:.2f}s)" if budget is not None else ""
    print(f"[PASS] criterion {num}: {name}{timing}")


def test_criterion_1_expansion_soundness():
    with criterion(1, "expansion soundness on 1000 random expressions", 2.0):
        rng = random.Random(18540101)
        for _ in range(1000):
            e = random_expr(rng, XYZW, depth=6)
            form = expand(e, XYZW)
            for c, v in form.items():
                assert v == reference_value(e, vertex(c))


def test_criterion_2_partition_identities():
    with criterion(2, "partition identities for 1, 2 and 3 symbols", 0.1):
        for syms in ([x], [x, y], [x, y, z]):
            cs = constituents(syms)
            total = constituent_product(cs[0])
            for c in cs[1:]:
                total = Add(total, constituent_product(c))
            assert expand(total, syms) == LinearForm.constant(syms, 1)
            forms = [expand(constituent_product(c), syms) for c in cs]
            for i, fa in enumerate(forms):
                assert fa * fa == fa
                for j, fb in enumerate(forms):
                    if i != j:
                        assert (fa * fb).is_zero()


def test_criterion_3_algebraic_laws():
    with criterion(3, "distributivity, commutativity and the index law"):
        syms = (x, y, z)
        assert expand(Mul(X, Add(Y, Z)), syms) == expand(
            Add(Mul(X, Y), Mul(X, Z)), syms
        )
        assert expand(Mul(X, Y), (x, y)) == expand(Mul(Y, X), (x, y))
        base = expand(X, (x,))
        power = X
        for _ in range(5):
            assert expand(power, (x,)) == base
            power = Mul(power, X)


def test_criterion_4_quotient_development_and_solution():
    with criterion(4, "0/0 and 1/0 development, solution verified exhaustively", 5.0):
        form = expand(parse_expression("y/x"), (x, y))
        assert sorted(map(str, form.coeffs)) == sorted(["1", "0", "0/0", "1/0"])
        # attachment by substitution: 0/0 on the all-complement constituent,
        # 1/0 on the side-condition one
        assert form.coeff(0b00) == INDETERMINATE
        assert form.coeff(0b10) == Infinite(Fraction(1))

        eq = parse_equation("x*w = y")
        sol = solve_for(eq, w)
        assert sol.describe() == "w = x*y + v1*x'*y'  where x'*y = 0"
        report = verify_solved(sol, eq, 4)
        assert report.sound and report.complete, str(report.counterexample)


def test_criterion_5_divergence_reports():
    with criterion(5, "divergence of + and - from union and difference"):
        plus = analyze(parse_expression("x + y"))
        assert [(str(c), v) for c, v in plus.offending] == [("x*y", Fraction(2))]
        assert [str(c) for c in plus.interpretability_conditions] == ["x*y"]
        minus = analyze(parse_expression("x - y"))
        assert [(str(c), v) for c, v in minus.offending] == [("x'*y", Fraction(-1))]
        assert [str(c) for c in minus.interpretability_conditions] == ["x'*y"]


def test_criterion_6_elimination_and_syllogism():
    with criterion(6, "elimination residuals, oracle-confirmed", 2.0):
        eq = parse_equation("x*w - y = 0")
        residual = eliminate(eq, w).residual
        assert str(residual) == "x'*y = 0"
        for m in range(0, 4):
            for a in assignments(Universe(m), (x, y)):
                solvable = any(naive_holds(eq, b) for b in extensions(a, (w,)))
                assert naive_holds(residual, a) == solvable

        premises = [parse_equation("x*y' = 0"), parse_equation("y*z' = 0")]
        conclusion = syllogism(premises, (y,)).residual
        assert str(conclusion) == "x*z' = 0"
        for m in range(0, 4):
            for a in assignments(Universe(m), (x, z)):
                joint = any(
                    naive_holds(premises[0], b) and naive_holds(premises[1], b)
                    for b in extensions(a, (y,))
                )
                assert naive_holds(conclusion, a) == joint


def test_criterion_7_generic_solve_completeness():
    with criterion(7, "50 random linear equations solved sound and complete", 10.0):
        rng = random.Random(50)
        syms = (x, y)
        for _ in range(50):
            a = random_interpretable_expr(rng, syms)
            b = random_interpretable_expr(rng, syms)
            eq = Equation(Add(Mul(a, W), Mul(b, Sub(Const(1), W))), ZERO)
            sol = solve_for(eq, w, syms)
            report = verify_solved(sol, eq, 3)
            assert report.sound and report.complete, (
                f"a = {format_expr(a)}, b = {format_expr(b)}: "
                f"{report.counterexample}"
            )


def test_criterion_8_three_valued_negation():
    with criterion(8, "three-valued negation table and region partition"):
        assert negate3(ThreeVal.P) is ThreeVal.N
        assert negate3(ThreeVal.N) is ThreeVal.P
        assert negate3(ThreeVal.U) is ThreeVal.U
        for v in ThreeVal:
            assert negate3(negate3(v)) is v
        seen = {
            catuskoti_classify(ip, id_)
            for ip in (True, False)
            for id_ in (True, False)
            if not (ip and not id_)
        }
        assert seen == {KotiRegion.P, KotiRegion.NOT_P, KotiRegion.NEITHER}
        try:
            catuskoti_classify(True, False)
        except InvalidFlags:
            pass
        else:
            raise AssertionError("inconsistent flags must be rejected")


def test_criterion_9_parser_and_cli_determinism():
    with criterion(9, "round-trips, fuzz totality, byte-identical CLI runs", 30.0):
        rng = random.Random(20260810)
        for _ in range(1000):
            e = random_expr(rng, XYZW, depth=6, allow_quot=True)
            assert parse_expression(format_expr(e)) == e

        fuzz = random.Random(424242)
        near = "xyzw01 +-*/()'=_qv2"
        for trial in range(10_000):
            n = fuzz.randrange(0, 40)
            if trial % 2:
                s = "".join(chr(fuzz.randrange(1, 1024)) for _ in range(n))
            else:
                s = "".join(fuzz.choice(near) for _ in range(n))
            try:
                parse_expression(s)
            except ParseError as err:
                assert 0 <= err.offset <= len(s)

        for argv in (
            ["expand", "y/x", "--symbols", "x,y", "--json"],
            ["solve", "x*w = y", "--for", "w", "--verify"],
            ["syllogism", "-p", "x*y' = 0", "-p", "y*z' = 0", "--drop", "y"],
        ):
            runs = [run_elective(*argv, capture_output=True) for _ in range(2)]
            assert runs[0].returncode == runs[1].returncode == 0
            assert runs[0].stdout == runs[1].stdout
            assert runs[0].stdout  # non-empty output

        doc = json.loads(
            run_elective(
                "expand", "y/x", "--symbols", "x,y", "--json",
                capture_output=True,
                text=True,
            ).stdout
        )
        coeffs = [t["coefficient"] for t in doc["terms"]]
        assert coeffs == [{"num": 1, "den": 1}, {"num": 0, "den": 1}, "1/0", "0/0"]
