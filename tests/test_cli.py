"""Command-line behavior: output layouts, exit codes, JSON schema."""

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from elective import (
    ElectiveError,
    EliminationResult,
    Equation,
    LinearForm,
    Symbol,
    VerificationReport,
    cli,
    combine_premises,
    constituents,
    parse_equation,
    syllogism,
)
from elective.cli import main
from elective.oracle import Counterexample
from helpers import XYZW, child_env, random_expr, reference_display_order, run_elective


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_quotient_table(capsys):
    code, out, _ = invoke(capsys, "expand", "y/x", "--symbols", "x,y")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1*x*y"
    assert lines[1] == "0*x*y'"
    assert lines[2].startswith("(1/0)*x'*y")
    assert "side condition: x'*y = 0" in lines[2]
    assert lines[3].startswith("(0/0)*x'*y'")
    assert "[indeterminate]" in lines[3]


def test_expand_constant(capsys):
    code, out, _ = invoke(capsys, "expand", "1", "--symbols", "x")
    assert code == 0
    assert out.splitlines()[:2] == ["1*x", "1*x'"]


def test_expand_flags_non_interpretable(capsys):
    code, out, _ = invoke(capsys, "expand", "x + y", "--symbols", "x,y")
    assert code == 0
    assert "2*x*y" in out.splitlines()
    assert "NOT INTERPRETABLE" in out


def test_expand_default_symbols_from_expression(capsys):
    code, out, _ = invoke(capsys, "expand", "y + x")
    assert code == 0
    # first-occurrence order: y then x
    assert out.splitlines()[0] == "2*y*x"


def test_expand_json_schema(capsys):
    code, out, _ = invoke(capsys, "expand", "y/x", "--symbols", "x,y", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "expand"
    assert doc["symbols"] == ["x", "y"]
    assert doc["interpretable"] is False
    coeffs = [t["coefficient"] for t in doc["terms"]]
    assert coeffs == [{"num": 1, "den": 1}, {"num": 0, "den": 1}, "1/0", "0/0"]


def test_solve_text_and_verification(capsys):
    code, out, _ = invoke(capsys, "solve", "x*w = y", "--for", "w", "--verify")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "w = x*y + v1*x'*y'  where x'*y = 0"
    assert lines[1] == "verified sound and complete on universes 1..4"


def test_solve_trivial(capsys):
    code, out, _ = invoke(capsys, "solve", "1*w = x", "--for", "w")
    assert code == 0
    assert out.strip() == "w = x"


def test_solve_missing_unknown_exits_2(capsys):
    code, _, err = invoke(capsys, "solve", "x*w = y", "--for", "q")
    assert code == 2
    assert "q" in err


def test_solve_json_payload(capsys):
    code, out, _ = invoke(
        capsys, "solve", "x*w = y", "--for", "w", "--verify", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["included"] == ["x*y"]
    assert doc["indeterminate"] == [{"name": "v1", "constituent": "x'*y'"}]
    assert doc["side_conditions"] == ["x'*y"]
    assert doc["excluded"] == ["x*y'"]
    assert doc["verification"]["sound"] is True
    assert doc["verification"]["complete"] is True


def test_parse_error_exits_1(capsys):
    code, _, err = invoke(capsys, "expand", "x +* y")
    assert code == 1
    assert "offset 3" in err


def test_usage_error_exits_1(capsys):
    code = main(["solve", "x*w = y"])  # missing --for
    capsys.readouterr()
    assert code == 1


def test_eliminate(capsys):
    code, out, _ = invoke(capsys, "eliminate", "x*w - y = 0", "--drop", "w")
    assert code == 0
    assert out.splitlines()[0] == "x'*y = 0"
    code, out, _ = invoke(capsys, "eliminate", "x - x = 0", "--drop", "x")
    assert code == 0
    assert out.strip() == "0 = 0"


def test_syllogism_barbara(capsys):
    code, out, _ = invoke(
        capsys, "syllogism", "-p", "x*y' = 0", "-p", "y*z' = 0", "--drop", "y"
    )
    assert code == 0
    assert out.splitlines()[0] == "x*z' = 0"


def test_syllogism_conclude(capsys):
    code, out, _ = invoke(
        capsys, "syllogism", "-p", "x = y", "--conclude-for", "x"
    )
    assert code == 0
    assert out.strip() == "x = y"


def test_partition(capsys):
    code, out, _ = invoke(capsys, "partition", "--symbols", "x,y,z")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    assert lines[0] == "x*y*z"
    assert lines[-1] == "sum = 1: OK"


@pytest.mark.parametrize("n", [9, 10])
def test_partition_above_eight_symbols(capsys, n):
    basis = tuple(Symbol(f"s{i}") for i in range(n))
    code, out, _ = invoke(capsys, "partition", "--symbols", ",".join(map(str, basis)))
    assert code == 0
    want = [str(c) for c in reference_display_order(constituents(basis))]
    assert out.splitlines() == want + ["sum = 1: OK"]


def _drop_last_factor(monkeypatch):
    # the first text loses its last factor, s0*s1*s2 becoming s0*s1: that
    # product no longer names every symbol, so the texts sum to 2, not 1
    listed = LinearForm.display_items

    def dropped(self):
        (text, v), *rest = listed(self)
        return iter([(text.rpartition("*")[0], v), *rest])

    monkeypatch.setattr(LinearForm, "display_items", dropped)


def _duplicate_a_mask(monkeypatch):
    # the first text listed twice, in place of the second: every text is
    # still a product of all the symbols, but one vertex is missed
    listed = LinearForm.display_items

    def duplicated(self):
        items = list(listed(self))
        items[1] = items[0]
        return iter(items)

    monkeypatch.setattr(LinearForm, "display_items", duplicated)


@pytest.mark.parametrize("n", [3, 9])
@pytest.mark.parametrize("plant", [_drop_last_factor, _duplicate_a_mask])
def test_partition_reports_a_planted_defect(capsys, monkeypatch, plant, n):
    plant(monkeypatch)
    names = ",".join(f"s{i}" for i in range(n))
    code, out, _ = invoke(capsys, "partition", "--symbols", names)
    assert code == 2
    assert out.splitlines()[-1] == "sum = 1: FAILED"
    code, out, _ = invoke(capsys, "partition", "--symbols", names, "--json")
    assert (code, json.loads(out)["sum_is_one"]) == (2, False)


def test_partition_takes_the_basis_cap(capsys):
    # the check reads the texts it lists, so partition has no cap of its own
    names = ",".join(f"s{i}" for i in range(16))
    code, out, _ = invoke(capsys, "partition", "--symbols", names)
    lines = out.splitlines()
    assert (code, len(lines), lines[-1]) == (0, (1 << 16) + 1, "sum = 1: OK")


def test_partition_symbol_cap(capsys):
    too_many = ",".join(f"s{i}" for i in range(21))
    code, _, err = invoke(capsys, "partition", "--symbols", too_many)
    assert code == 2
    assert "cap" in err


def test_compare_sum(capsys):
    code, out, _ = invoke(capsys, "compare", "x + y")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "NOT INTERPRETABLE"
    assert lines[1] == "coefficient 2 at x*y (condition: x*y = 0)"


def test_compare_difference(capsys):
    code, out, _ = invoke(capsys, "compare", "x - y")
    assert code == 0
    assert "coefficient -1 at x'*y (condition: x'*y = 0)" in out


def test_compare_clean(capsys):
    code, out, _ = invoke(capsys, "compare", "x + x'")
    assert code == 0
    assert out.strip() == "interpretable"


def test_nyaya_table(capsys):
    code, out, _ = invoke(capsys, "nyaya", "table")
    assert code == 0
    assert out.splitlines() == ["w\tnot-w", "P\tN", "N\tP", "U\tU"]


def test_check_identity(capsys):
    code, out, _ = invoke(capsys, "check", "1 = x + (1 - x)")
    assert code == 0
    assert out.splitlines()[0] == "identity: yes"
    assert "oracle: confirmed" in out


def test_check_non_identity_exits_3(capsys):
    code, out, _ = invoke(capsys, "check", "x = 1")
    assert code == 3
    assert out.splitlines()[0] == "identity: no"
    assert "counterexample" in out


def test_check_unsatisfiable(capsys):
    code, out, _ = invoke(capsys, "check", "x + x' = 0")
    assert code == 3
    assert "satisfiable: no" in out


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (["expand", "1"], "1\ninterpretable\n"),
        (["expand", "1/0"], "(1/0)  [side condition: 1 = 0]\nNOT INTERPRETABLE\n"),
        (["expand", "0/0"], "(0/0)  [indeterminate]\nNOT INTERPRETABLE\n"),
        (["compare", "2"], "NOT INTERPRETABLE\ncoefficient 2 at 1 (condition: 1 = 0)\n"),
        (["solve", "x = 0", "--for", "x"], "x = 0\n"),
        (["solve", "x = 1", "--for", "x"], "x = 1\n"),
        (["solve", "2*x = 1", "--for", "x"], "x = 0  where 1 = 0\n"),
        (["solve", "x = x", "--for", "x"], "x = v1\n"),
        (
            ["solve", "x = 1", "--for", "x", "--verify"],
            "x = 1\nverified sound and complete on universes 1..4\n",
        ),
        # residual x' = 0: a = 0 and b = 1 at the one constituent, so w = 1
        (
            ["syllogism", "-p", "x*y = 0", "-p", "x = 1", "--drop", "y",
             "--conclude-for", "x"],
            "x = 1\n",
        ),
        (["partition", "--symbols", ""], "1\nsum = 1: OK\n"),
        (["expand", "1", "--symbols", ""], "1\ninterpretable\n"),
    ],
    ids=[
        "expand-1", "expand-1/0", "expand-0/0", "compare-2", "solve-x=0",
        "solve-x=1", "solve-2x=1", "solve-x=x", "solve-x=1-verify",
        "syllogism-conclude", "partition-none", "expand-1-none",
    ],
)
def test_no_symbols_is_an_ordinary_basis(capsys, argv, stdout):
    # over no symbols the universe is the one constituent, written 1, and
    # a factor of it is not written
    assert invoke(capsys, *argv) == (0, stdout, "")
    code, out, _ = invoke(capsys, *argv, "--json")
    assert code == 0 and json.loads(out)["symbols"] == []


@pytest.mark.parametrize(
    "argv, stdout, exit_code, json_terms",
    [
        (["check", "0 = 0"], "identity: yes\nsatisfiable: yes (zero coefficient at 1)\n"
         "oracle: confirmed on universes 0..4\n", 0, ["1"]),
        (["check", "1 = 2"], "identity: no\ncounterexample: universe size 1\n"
         "satisfiable: no (no zero coefficient in the development)\n"
         "oracle: confirmed on universes 0..4\n", 3, []),
        (["syllogism", "-p", "x = 1", "-p", "x = 0", "--drop", "x"], "1 = 0\n", 0,
         [{"constituent": "1", "coefficient": {"num": 1, "den": 1}}]),
        (["eliminate", "x = 1", "--drop", "x"], "0 = 0\n", 0,
         [{"constituent": "1", "coefficient": {"num": 0, "den": 1}}]),
    ],
    ids=["check-0=0", "check-1=2", "syllogism-1=0", "eliminate-0=0"],
)
def test_closed_equations_keep_their_output(capsys, argv, stdout, exit_code, json_terms):
    # over no symbols the universe 1 is an ordinary constituent: check reports
    # it as a zero constituent, and a residual's JSON lists its one term
    assert invoke(capsys, *argv) == (exit_code, stdout, "")
    code, out, _ = invoke(capsys, *argv, "--json")
    payload = json.loads(out)
    listed = payload["zero_constituents" if argv[0] == "check" else "terms"]
    assert code == exit_code and listed == json_terms


def test_expand_terminal_value_feeding_arithmetic_exits_2(capsys):
    code, _, err = invoke(capsys, "expand", "y/x + 1", "--symbols", "x,y")
    assert code == 2
    assert "terminal" in err


def test_check_quotient_exits_2(capsys):
    # a closed quotient is refused by the oracle, like one over symbols
    for equation in ("y/x = 0", "1/0 = 0"):
        code, _, err = invoke(capsys, "check", equation)
        assert code == 2
        assert err == "error: formal division has no pointwise set meaning\n"


def test_cli_takes_only_public_names_from_the_package():
    # the CLI renders what the library's public calls return
    import ast
    from pathlib import Path

    tree = ast.parse(Path(cli.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "elective"
        ):
            private = [a.name for a in node.names if a.name.startswith("_")]
            assert not private, f"cli imports {private} from {node.module}"
    # Developed forms, an elimination's residual among them, are written
    # from display_items() and never rebuilt as an Expr; offending
    # constituents are written from offending_items(), by mask
    attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not attrs & {"residual", "to_expr"}
    assert not attrs & {"offending", "interpretability_conditions"}
    assert "offending_items" in attrs


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cli_residual_is_the_library_residual(capsys, seed):
    rng = random.Random(seed)
    for _ in range(40):
        syms = XYZW[: rng.randint(1, 4)]
        texts = [
            str(Equation(random_expr(rng, syms, 4), random_expr(rng, syms, 2)))
            for _ in range(rng.randint(1, 3))
        ]
        premises = [parse_equation(t) for t in texts]
        named = combine_premises(premises).free_symbols()
        drops = rng.sample(named, rng.randint(0, len(named)))
        try:
            want = (0, f"{syllogism(premises, drops).residual}\n")
        except ElectiveError:
            want = (2, "")
        argv = [a for t in texts for a in ("-p", t)]
        argv += ["--drop", ",".join(s.name for s in drops)]
        code, out, _ = invoke(capsys, "syllogism", *argv)
        assert (code, out) == want


def _form(syms, *values):
    return LinearForm(syms, tuple(map(Fraction, values)))


@pytest.mark.parametrize(
    "form",
    [
        _form(XYZW[:2], -2, 1, 0, Fraction(1, 2)),
        _form(XYZW[:2], 1, Fraction(-3, 4), 1, 0),
        _form(XYZW[:3], *[0] * 8),
        _form(XYZW[:1], 0, 1),
        _form((), 0),
        _form((), 1),
        _form((), -1),
        _form((), Fraction(2, 3)),
    ],
)
def test_cli_residual_of_any_form_is_the_library_residual(form):
    assert str(EliminationResult(form)) == str(EliminationResult(form).residual)


def test_syllogism_large_residual_renders():
    # the 12-premise ring minus s0 leaves a residual of 2 046 terms
    ring = []
    for i in range(12):
        ring += ["-p", f"s{i}*s{(i + 1) % 12}' = 0"]
    proc = run_elective(
        "syllogism", *ring, "--drop", "s0", capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert proc.stdout.endswith(" = 0\n")


@pytest.mark.parametrize(
    "expression, development",
    [
        ("*".join(["x"] * 3000), "1*x\n0*x'\ninterpretable"),
        ("x" + "'" * 3000, "1*x\n0*x'\ninterpretable"),
        (" + ".join(["x"] * 3000), "3000*x\n0*x'\nNOT INTERPRETABLE"),
    ],
    ids=["product", "primes", "sum"],
)
def test_expand_chain_deeper_than_the_stack(capsys, expression, development):
    code, out, err = invoke(capsys, "expand", expression)
    assert (code, out, err) == (0, development + "\n", "")


def test_check_long_sum_through_the_oracle(capsys):
    total = " + ".join(["x"] * 1500)
    code, out, _ = invoke(capsys, "check", f"{total} = 1500x", "--max-universe", "2")
    assert code == 0
    assert out.endswith("oracle: confirmed on universes 0..2\n")


def _fuzz_texts():
    rng = random.Random(1854)
    texts = [
        "".join(rng.choice("xyz0123'+-*/()= ") for _ in range(rng.randint(0, 9)))
        for _ in range(100)
    ]
    chains = [op.join(["x"] * 1200) for op in ("+", "-", "*", "/", " ")]
    for chain in chains + ["x" + "'" * 1200]:
        texts += [chain, f"{chain} = x", f"x = {chain}"]
    for depth in (150, 250):
        texts.append("(x + " * depth + "y" + ")" * depth + " = x")
    return texts


def test_fuzz_ends_in_an_exit_code(capsys):
    # random text and deep chains end in an exit code, never a traceback
    for text in _fuzz_texts():
        for argv in (
            ["expand", text],
            ["compare", text],
            ["solve", text, "--for", "x"],
            ["check", text, "--max-universe", "2"],
        ):
            assert main(argv) in (0, 1, 2, 3), argv
    capsys.readouterr()


def test_solve_max_universe_cap(capsys):
    code, _, err = invoke(
        capsys, "solve", "x*w = y", "--for", "w", "--verify", "--max-universe", "9"
    )
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize(
    "argv, exit_code, message",
    [
        (["check", "x = 1", "--max-universe", "9"], 2, "cap of 8"),
        (["check", "x = 1", "--max-universe", "-1"], 1, "negative"),
        (["solve", "x*w = y", "--for", "w", "--verify", "--max-universe", "-3"], 1,
         "negative"),
        (["solve", "x*w = y", "--for", "w", "--verify", "--max-universe", "0"], 1,
         "at least 1"),
        # refused before solving, which would fail: q does not occur
        (["solve", "x*w = y", "--for", "q", "--verify", "--max-universe", "0"], 1,
         "at least 1"),
        # every option naming a symbol refuses the empty name the same way
        (["solve", "x*w = y", "--for", ""], 1, "invalid symbol name ''"),
        (["eliminate", "x*w = y", "--drop", ""], 1, "invalid symbol name ''"),
        (["syllogism", "-p", "x*y' = 0", "-p", "y*z' = 0", "--drop", "y",
          "--conclude-for", ""], 1, "invalid symbol name ''"),
        (["solve", "x*w = y", "--for", "w", "--symbols", "x,w"], 2,
         "error: the unknown w cannot be one of the remaining symbols\n"),
        (["solve", "x*w = y", "--for", "w", "--symbols", "x,y,v1"], 2,
         "error: requested symbol list uses reserved v-names\n"),
        # --symbols "" is the empty basis, which names none of the input's symbols
        (["expand", "x", "--symbols", ""], 2, "symbols ['x'] occur in"),
        (["compare", "x", "--symbols", ""], 2, "symbols ['x'] occur in"),
        (["check", "x = x", "--symbols", ""], 2, "symbols ['x'] occur in"),
        (["solve", "x*w = 0", "--for", "w", "--symbols", ""], 2,
         "symbols ['x'] occur in"),
        # refused on solve without --verify too, where the bound goes unused
        (["solve", "x*w = y", "--for", "w", "--max-universe", "-1"], 1, "negative"),
        (["solve", "x*w = y", "--for", "w", "--max-universe", "99"], 2, "cap of 8"),
    ],
)
def test_max_universe_out_of_range_is_refused(capsys, argv, exit_code, message):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (exit_code, "")
    assert message in err


@pytest.mark.parametrize(
    "argv, exit_code, message",
    [
        (["solve", "x*w = y", "--for", "w", "--verify", "--max-universe", "9"], 2,
         "cap of 8"),
        (["check", "x = 1", "--max-universe", "-1"], 1, "negative"),
    ],
)
def test_max_universe_is_refused_before_parsing(
    capsys, monkeypatch, argv, exit_code, message
):
    def parse(text):
        raise AssertionError("parsed before the bound was checked")

    monkeypatch.setattr(cli, "parse_equation", parse)
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (exit_code, "")
    assert message in err


def test_oracle_work_budget_refusal_names_the_count(capsys):
    # nineteen free symbols: 2**20 points x 38 nodes, over the budget
    text = "x*w = " + "*".join(f"s{i}" for i in range(1, 19))
    code, out, err = invoke(
        capsys, "solve", text, "--for", "w", "--verify", "--max-universe", "8"
    )
    assert (code, out) == (2, "")
    assert "39,845,888 node evaluations" in err


@pytest.mark.parametrize("symbols", [None, "x," + ",".join(f"s{i}" for i in range(1, 19))])
def test_oracle_work_budget_is_refused_before_solving(capsys, monkeypatch, symbols):
    # the oracle's count, from the equation and the symbols alone, refuses
    # the plan before solve_for develops anything at 20 symbols
    entered = []
    monkeypatch.setattr(cli, "solve_for", lambda *args: entered.append(args))
    text = "x*w = " + "*".join(f"s{i}" for i in range(1, 19))
    argv = ["solve", text, "--for", "w", "--verify", "--max-universe", "8"]
    code, out, err = invoke(capsys, *argv, *(["--symbols", symbols] if symbols else []))
    assert (code, out, entered) == (2, "", [])
    assert "39,845,888 node evaluations" in err


def test_solve_verify_three_free_symbols_at_the_universe_cap(capsys):
    code, out, _ = invoke(
        capsys, "solve", "x*w = y*z", "--for", "w", "--verify", "--max-universe", "8"
    )
    assert code == 0
    assert out.endswith("verified sound and complete on universes 1..8\n")


def test_solve_verify_reaches_the_universe_cap(capsys):
    code, out, _ = invoke(
        capsys, "solve", "x*w = y", "--for", "w", "--verify", "--max-universe", "8"
    )
    assert code == 0
    assert out.endswith("verified sound and complete on universes 1..8\n")


def test_cli_runs_as_module():
    proc = run_elective("nyaya", "table", capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "w\tnot-w"


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "y/x", "--symbols", "x,y", "--json"],
        ["solve", "x*w = y", "--for", "w", "--verify", "--max-universe", "3"],
        ["syllogism", "-p", "x*y' = 0", "-p", "y*z' = 0", "--drop", "y", "--json"],
        ["partition", "--symbols", "x,y"],
        ["solve", "x*w = y", "--for", "w", "--json"],
        ["compare", "x + y - z", "--json"],
    ],
)
def test_byte_identical_across_processes(argv):
    runs = [run_elective(*argv, capture_output=True) for _ in range(2)]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout


BARBARA = ["-p", "x*y' = 0", "-p", "y*z' = 0"]
SORITES = [*BARBARA, "-p", "z*t' = 0", "--drop", "y,z"]

# Every subcommand as text and as JSON, premises that must not carry over
# from one call to the next, and each exit code.
REUSE_SEQUENCE = [
    (["expand", "y/x", "--symbols", "x,y"], 0),
    (["expand", "y/x", "--symbols", "x,y", "--json"], 0),
    (["solve", "x*w = y", "--for", "w", "--verify", "--max-universe", "2"], 0),
    (["solve", "x*w = y", "--for", "w", "--json"], 0),
    (["eliminate", "x*w - y = 0", "--drop", "w"], 0),
    (["eliminate", "x*w - y = 0", "--drop", "w", "--json"], 0),
    (["syllogism", *SORITES], 0),
    (["syllogism", *SORITES, "--json"], 0),
    (["syllogism", "-p", "x = y"], 0),
    (["syllogism", "-p", "x = y", "--json"], 0),
    (["syllogism", *BARBARA, "--drop", "y", "--conclude-for", "x"], 0),
    (["syllogism", *BARBARA, "--drop", "y"], 0),
    (["syllogism", *BARBARA, "--drop", "y", "--conclude-for", "x", "--json"], 0),
    (["syllogism", *BARBARA, "--drop", "y", "--json"], 0),
    (["partition", "--symbols", "x,y"], 0),
    (["partition", "--symbols", "x,y", "--json"], 0),
    (["compare", "x + y - z"], 0),
    (["compare", "x + y - z", "--json"], 0),
    (["nyaya", "table"], 0),
    (["nyaya", "table", "--json"], 0),
    (["check", "x*x = x"], 0),
    (["check", "x*x = x", "--json"], 0),
    (["solve", "x*w = y"], 1),  # usage error: --for is missing
    (["--help"], 0),
    (["syllogism", "--help"], 0),
    (["expand", "x +* y"], 1),  # parse error
    (["solve", "x*w = y", "--for", "q"], 2),  # algebra error
    (["check", "x = y"], 3),  # not an identity
    (["check", "x = y", "--json"], 3),
    (["expand", "x"], 0),
]


def test_reused_parser_leaks_nothing_between_calls(capsys):
    def call(argv):
        code = main(argv)
        return (code, *capsys.readouterr())

    cli.build_parser.cache_clear()
    shared = [call(argv) for argv, _ in REUSE_SEQUENCE]
    assert [r[0] for r in shared] == [code for _, code in REUSE_SEQUENCE]
    for (argv, _), got in zip(REUSE_SEQUENCE, shared):
        cli.build_parser.cache_clear()
        assert got == call(argv), argv


def test_import_builds_no_parser_and_main_builds_one():
    code = """
import argparse, contextlib, io
made = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    made.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import elective.cli
print(len(made))
with contextlib.redirect_stdout(io.StringIO()):
    elective.cli.main(["nyaya", "table"])
    elective.cli.main(["expand", "x", "--json"])
print(len(made))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    # the top parser and one per subcommand, all made by the first call
    assert proc.stdout.split() == ["0", "9"]


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_output_closed_early_exits_1_without_a_traceback(json_flag):
    # several hundred kilobytes: more than a pipe buffers, so writing blocks
    ring = " + ".join(f"s{i}*s{(i + 1) % 14}'" for i in range(14))
    child = subprocess.Popen(
        [sys.executable, "-m", "elective", "expand", ring, *json_flag],
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert child.stdout.readline()
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert child.returncode == 1
    assert b"Traceback" not in err and b"Exception ignored" not in err, err


def test_main_calls_the_command_function_the_module_holds_now(capsys, monkeypatch):
    # a wrapper installed after the shared parser was built is still called
    main(["nyaya", "table"])
    original, seen = cli.cmd_nyaya, []

    def wrapped(args):
        seen.append(args.what)
        return original(args)

    monkeypatch.setattr(cli, "cmd_nyaya", wrapped)
    assert main(["nyaya", "table"]) == 0
    assert seen == ["table"]
    capsys.readouterr()


def test_failed_verification_is_reported_with_exit_3(capsys, monkeypatch):
    x, y, _, w = XYZW
    failure = Counterexample("sound", 1, ((x, 1), (y, 0)), w, 1, "planted")
    report = VerificationReport(sound=False, complete=True, counterexample=failure)
    monkeypatch.setattr(cli, "verify_solved", lambda sol, eq, m: report)
    code, out, err = invoke(capsys, "solve", "x*w = y", "--for", "w", "--verify")
    assert (code, err) == (3, "")
    assert out.splitlines()[1] == (
        "verification FAILED: sound failure on universe of size 1: "
        "x = {0}; y = {}; w = {0} (planted)"
    )
    code, out, _ = invoke(capsys, "solve", "x*w = y", "--for", "w", "--verify", "--json")
    verification = json.loads(out)["verification"]
    assert code == 3 and verification["sound"] is False
    assert verification["counterexample"] == str(failure)


@pytest.mark.parametrize(
    "equation, unknown", [("x + x' + w = 0", "w"), ("2*x = 1", "x")]
)
def test_verification_says_which_sizes_had_no_model(capsys, equation, unknown):
    # every constituent is a side condition: only one-element models are
    # evaluated, so the verdict names the sizes it holds on vacuously
    argv = ["solve", equation, "--for", unknown, "--verify"]
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert out.splitlines()[1] == (
        "verified sound and complete on universes 1..4 (no model of size "
        "2..4 satisfies the side conditions)"
    )
    code, out, _ = invoke(capsys, *argv, "--json")
    verification = json.loads(out)["verification"]
    assert code == 0 and verification["evaluated"][1:] == [0, 0, 0]
    assert verification["evaluated"][0] > 0 and verification["skipped"][0] == 0


def test_verification_counts_the_models_of_each_size(capsys):
    # x*w = y keeps the models without an element of type x'*y: C(m + 2, m)
    # of the C(m + 3, m) orbits on two symbols; every one-element model
    argv = ["solve", "x*w = y", "--for", "w", "--verify", "--max-universe", "3"]
    code, out, _ = invoke(capsys, *argv, "--json")
    verification = json.loads(out)["verification"]
    assert code == 0
    assert verification["evaluated"] == [4, 6, 10]
    assert verification["skipped"] == [0, 4, 10]


def test_a_literal_longer_than_the_int_limit_is_a_parse_error():
    literal = "1" * 4301
    proc = run_elective(
        "expand", f"x + {literal}*y", capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "parse error: at offset 4: expected a number of at most 4300 digits, "
        "found 4301 digits\n"
    )


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_output_too_long_for_text_ends_in_an_error(json_flag):
    # a coefficient of 5 000 digits develops, but the interpreter refuses to
    # write it: the run ends in the error, not a traceback
    product = "*".join(["99999"] * 1000)
    proc = run_elective(
        "expand", f"{product}*x", *json_flag, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
