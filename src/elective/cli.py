"""Command-line front door: parse, expand, eliminate, solve, verify.

Subcommands: expand, solve, eliminate, syllogism, partition, compare,
nyaya, check.  Every command is deterministic: identical invocations
produce byte-identical output.  --json switches to a schema-stable JSON
document in which finite coefficients appear as {"num", "den"} integer
pairs and extended coefficients as the strings "0/0" and "k/0".

Exit codes: 0 success, 1 usage or parse error (or output closed early),
2 algebra-domain error, 3 verification failure.

`main(argv)` returns the exit code and may be called repeatedly in one
process; the argument parser is built on the first call and reused.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator

from .algebra import (
    Coeff,
    Indeterminate,
    Infinite,
    LinearForm,
    coeff_factor_text,
    expand,
)
from .errors import ElectiveError, ParseError
from .expr import format_expr, symbols
from .inference import SolvedClass, eliminate, solve_for, syllogism
from .nyaya import negation_table
from .modern import analyze
from .oracle import Universe, check_equation, plan_verification, verify_solved
from .parsing import parse_equation, parse_expression

@dataclass
class OutputDocument:
    body: Iterable[str] | dict  # the text lines, or the payload under --json
    exit_code: int = 0


def _coeff_json(v: Coeff):
    if isinstance(v, Fraction):
        return {"num": v.numerator, "den": v.denominator}
    return str(v)


def _term_lines(form: LinearForm) -> Iterator[str]:
    """One line per term in display order, made as it is written."""
    for text, v in form.display_items():
        factor = coeff_factor_text(v)  # a text of 1 (no symbols) is left out
        line = factor if text == "1" else f"{factor}*{text}"
        if isinstance(v, Infinite):
            line += f"  [side condition: {text} = 0]"
        elif isinstance(v, Indeterminate):
            line += "  [indeterminate]"
        yield line


def _term_entries(pairs: Iterable[tuple[str, Coeff]]) -> list[dict]:
    return [{"constituent": t, "coefficient": _coeff_json(v)} for t, v in pairs]


def cmd_expand(args) -> OutputDocument:
    e = parse_expression(args.expression)
    form = expand(e, args.symbols)
    interpretable = form.is_interpretable()
    if args.json:
        payload = {
            "command": "expand",
            "expression": format_expr(e),
            "symbols": [s.name for s in form.symbols],
            "terms": _term_entries(form.display_items()),
            "interpretable": interpretable,
        }
        return OutputDocument(payload)
    verdict = "interpretable" if interpretable else "NOT INTERPRETABLE"
    return OutputDocument(chain(_term_lines(form), [verdict]))


def _solution_payload(sol: SolvedClass) -> dict:
    included, side_conditions, excluded = sol.display_groups()
    return {
        "unknown": sol.unknown.name,
        "symbols": [s.name for s in sol.free_symbols],
        "included": included,
        "indeterminate": [
            {"name": v.name, "constituent": str(c)} for v, c in sol.indeterminate
        ],
        "side_conditions": side_conditions,
        "excluded": excluded,
        "solution": sol.describe(),
    }


def cmd_solve(args) -> OutputDocument:
    Universe(args.max_universe)  # a bound out of range is refused before parsing
    if args.verify and args.max_universe == 0:  # universes 1..0: none to verify on
        raise ValueError("--verify needs a --max-universe of at least 1")
    eq = parse_equation(args.equation)
    if args.verify:  # an over-budget check is refused before solving
        plan_verification(eq, args.unknown, args.symbols, args.max_universe)
    sol = solve_for(eq, args.unknown, args.symbols)
    report = verify_solved(sol, eq, args.max_universe) if args.verify else None
    exit_code = 3 if report and not report.ok else 0
    if args.json:
        payload = {"command": "solve", "equation": str(eq), **_solution_payload(sol)}
        payload["verification"] = None if report is None else {
            "max_universe": args.max_universe,
            "sound": report.sound,
            "complete": report.complete,
            "counterexample": (
                str(report.counterexample) if report.counterexample else None
            ),
            "evaluated": list(report.evaluated),
            "skipped": list(report.skipped),
        }
        return OutputDocument(payload, exit_code)
    lines = [sol.describe()]
    if report and report.ok:
        line = f"verified sound and complete on universes 1..{args.max_universe}"
        # the sizes where every model breaks a side condition: all from 2 on
        vacuous = [m for m, n in enumerate(report.evaluated, 1) if not n]
        if vacuous:
            line += (
                f" (no model of size {vacuous[0]}..{vacuous[-1]} satisfies "
                "the side conditions)"
            )
        lines.append(line)
    elif report:
        lines.append(f"verification FAILED: {report.counterexample}")
    return OutputDocument(lines, exit_code)


def _elimination_output(args, command: str, result, extra: dict) -> OutputDocument:
    if not args.json:
        return OutputDocument([str(result)])
    terms = _term_entries(result.form.display_items())
    payload = {"command": command, **extra, "residual": str(result), "terms": terms}
    return OutputDocument(payload)


def cmd_eliminate(args) -> OutputDocument:
    eq = parse_equation(args.equation)
    result = eliminate(eq, args.drop)
    return _elimination_output(
        args, "eliminate", result, {"equation": str(eq), "dropped": [args.drop]}
    )


def cmd_syllogism(args) -> OutputDocument:
    premises = [parse_equation(p) for p in args.premise]
    drops = symbols(args.drop)
    result = syllogism(premises, drops, args.conclude_for)
    extra = {
        "premises": [str(p) for p in premises],
        "dropped": [s.name for s in drops],
    }
    if not isinstance(result, SolvedClass):
        return _elimination_output(args, "syllogism", result, extra)
    if not args.json:
        return OutputDocument([result.describe()])
    payload = {"command": "syllogism", **extra, **_solution_payload(result)}
    return OutputDocument(payload)


def cmd_partition(args) -> OutputDocument:
    form = LinearForm.constant(args.symbols, 1)
    syms = form.symbols
    names = [t for t, _ in form.display_items()]
    # A product naming every symbol once, plain or primed, is 1 at its own
    # one of the 2**n vertices; 2**n distinct ones are the indicators of
    # all the vertices, so together they sum to 1.
    product = re.compile("[*]".join(f"{s.name}'?" for s in syms) or "1")
    sum_is_one = len(names) == len(set(names)) == 1 << len(syms) and all(
        map(product.fullmatch, names)
    )
    exit_code = 0 if sum_is_one else 2
    if args.json:
        payload = {
            "command": "partition",
            "symbols": [s.name for s in syms],
            "constituents": names,
            "sum_is_one": sum_is_one,
        }
        return OutputDocument(payload, exit_code)
    names.append("sum = 1: OK" if sum_is_one else "sum = 1: FAILED")
    return OutputDocument(names, exit_code)


def cmd_compare(args) -> OutputDocument:
    e = parse_expression(args.expression)
    report = analyze(e, args.symbols)
    offending = report.offending_items()
    if args.json:
        entries = _term_entries(offending)
        payload = {
            "command": "compare",
            "expression": format_expr(e),
            "symbols": [s.name for s in report.form.symbols],
            "interpretable": report.interpretable,
            "offending": entries,
            "conditions": [entry["constituent"] for entry in entries],
        }
        return OutputDocument(payload)
    verdict = "interpretable" if report.interpretable else "NOT INTERPRETABLE"
    lines = (f"coefficient {v} at {t} (condition: {t} = 0)" for t, v in offending)
    return OutputDocument(chain([verdict], lines))


def cmd_nyaya(args) -> OutputDocument:
    rows = negation_table()
    if args.json:
        table = [{"w": str(a), "not_w": str(b)} for a, b in rows]
        return OutputDocument({"command": "nyaya", "table": table})
    return OutputDocument(["w\tnot-w"] + [f"{a}\t{b}" for a, b in rows])


def cmd_check(args) -> OutputDocument:
    Universe(args.max_universe)  # a bound out of range is refused before parsing
    eq = parse_equation(args.equation)
    form = expand(eq.homogeneous(), args.symbols)
    identity = form.is_zero()
    zeros = [t for t, v in form.display_items() if v == 0]

    model = check_equation(eq, form.symbols, args.max_universe)
    counterexample = None  # the first model on which the equation fails
    if model is not None:
        counterexample = f"universe size {model.universe.size}" + (
            f"; {model.describe()}" if model.subsets else ""
        )
    if identity:
        confirmed = counterexample is None
    else:
        # A non-identity must fail somewhere once a non-empty universe is in
        # range; not finding a failure would mean algebra and oracle disagree.
        confirmed = counterexample is not None or args.max_universe < 1
    exit_code = 0 if identity and confirmed else 3

    if args.json:
        payload = {
            "command": "check",
            "equation": str(eq),
            "symbols": [s.name for s in form.symbols],
            "identity": identity,
            "satisfiable": bool(zeros),
            "zero_constituents": zeros,
            "oracle": {
                "max_universe": args.max_universe,
                "confirmed": confirmed,
                "counterexample": counterexample,
            },
        }
        return OutputDocument(payload, exit_code)
    lines = [f"identity: {'yes' if identity else 'no'}"]
    if not identity and counterexample:
        lines.append(f"counterexample: {counterexample}")
    if zeros:
        lines.append(f"satisfiable: yes (zero coefficient at {zeros[0]})")
    else:
        lines.append("satisfiable: no (no zero coefficient in the development)")
    lines.append(
        f"oracle: {'confirmed' if confirmed else 'DISAGREES'} "
        f"on universes 0..{args.max_universe}"
    )
    return OutputDocument(lines, exit_code)


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: callers must not change it."""
    parser = _ArgumentParser(
        prog="elective",
        description="Boole's elective-symbol algebra on constituent normal forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_symbols=True, with_universe=False):
        p.add_argument("--json", action="store_true", help="emit a JSON document")
        if with_symbols:
            p.add_argument(
                "--symbols",
                help="ordered symbol list, e.g. x,y,z (default: free symbols)",
            )
        if with_universe:
            p.add_argument(
                "--max-universe",
                type=int,
                default=4,
                metavar="M",
                help="largest universe for exhaustive checks (default 4, cap 8)",
            )

    p = sub.add_parser("expand", help="develop an expression over its constituents")
    p.add_argument("expression")
    common(p)

    p = sub.add_parser("solve", help="solve an equation for one unknown class")
    p.add_argument("equation")
    p.add_argument("--for", dest="unknown", required=True, metavar="SYMBOL")
    p.add_argument(
        "--verify",
        action="store_true",
        help="exhaustively verify the solution against the set oracle",
    )
    common(p, with_universe=True)

    p = sub.add_parser("eliminate", help="eliminate a symbol from an equation")
    p.add_argument("equation")
    p.add_argument("--drop", required=True, metavar="SYMBOL")
    common(p, with_symbols=False)

    p = sub.add_parser(
        "syllogism", help="combine premises, eliminate middles, optionally conclude"
    )
    p.add_argument(
        "-p",
        "--premise",
        action="append",
        required=True,
        metavar="EQUATION",
    )
    p.add_argument("--drop", default="", metavar="SYMBOLS")
    p.add_argument("--conclude-for", metavar="SYMBOL")
    common(p, with_symbols=False)

    p = sub.add_parser("partition", help="list the 2**n constituents of a basis")
    p.add_argument("--symbols", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "compare", help="show where an expression leaves modern Boolean algebra"
    )
    p.add_argument("expression")
    common(p)

    p = sub.add_parser("nyaya", help="three-valued negation table")
    p.add_argument("what", choices=["table"])
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "check", help="test whether an equation is an identity, with oracle"
    )
    p.add_argument("equation")
    common(p, with_universe=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        # looked up per call, not kept in the shared parser, so that a
        # wrapper installed on the module later (a tracer) is the one called
        doc = globals()[f"cmd_{args.command}"](args)
        # written here, so that an error raised while the output is made
        # (an int too long for text) is reported like any other
        if args.json:
            print(json.dumps(doc.body, indent=2))
        else:
            sys.stdout.writelines(f"{line}\n" for line in doc.body)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ElectiveError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return doc.exit_code


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point fd 1 at devnull so that the
        # interpreter's final flush of what is still buffered cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 1
    raise SystemExit(code)
