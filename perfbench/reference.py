"""Exact reference semantics for the benchmark's generated inputs.

Nothing here imports `elective`: every expected result is computed from
the generator's own postfix program, so a check never trusts the code it
checks.  Programs are evaluated with an explicit stack, never by
recursion on tree depth.

A program is a list of steps in postfix order:

    ("sym", i)   push the 0/1 value of symbol i at the current vertex
    ("int", k)   push the non-negative integer literal k
    "+" "-" "*" "/"   pop two operands, push the result
    "'"          pop one operand, push its complement 1 - v

Division by zero yields the terminal values 0/0 and k/0.  A terminal
value that feeds any further step makes the whole vertex fail, which is
how `UninterpretableNesting` arises in Boole's development.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


class KByZero:
    """The terminal value k/0 (k != 0)."""

    __slots__ = ("k",)

    def __init__(self, k):
        self.k = k

    def __eq__(self, other):
        return isinstance(other, KByZero) and other.k == self.k

    def __repr__(self):
        return f"{self.k}/0"


ZERO_BY_ZERO = "0/0"
NESTED = "nested"  # a terminal value fed further arithmetic

_ADD, _MUL, _POST, _ATOM = 1, 2, 3, 4


def is_finite(v) -> bool:
    return isinstance(v, (int, Fraction))


def evaluate(prog, point):
    """Value of a program at one 0/1 point (a sequence indexed by symbol)."""
    stack = []
    push, pop = stack.append, stack.pop
    for step in prog:
        if type(step) is tuple:
            push(point[step[1]] if step[0] == "sym" else step[1])
            continue
        if step == "'":
            v = pop()
            push(1 - v if is_finite(v) else NESTED)
            continue
        r = pop()
        l = pop()
        if not (is_finite(l) and is_finite(r)):
            push(NESTED)
        elif step == "+":
            push(l + r)
        elif step == "-":
            push(l - r)
        elif step == "*":
            push(l * r)
        elif r == 0:
            push(ZERO_BY_ZERO if l == 0 else KByZero(l))
        else:
            push(Fraction(l) / r)
    (value,) = stack
    return value


def point_of(mask: int, n: int) -> tuple[int, ...]:
    """Bit i of a constituent mask is the value of symbol i."""
    return tuple(mask >> i & 1 for i in range(n))


def render(prog, names) -> str:
    """Surface text for a program, parenthesized for the parser's grammar."""
    stack: list[tuple[str, int]] = []
    for step in prog:
        if type(step) is tuple:
            text = names[step[1]] if step[0] == "sym" else str(step[1])
            stack.append((text, _ATOM))
        elif step == "'":
            text, prec = stack.pop()
            stack.append((_paren(text, prec, _POST) + "'", _POST))
        else:
            rt, rp = stack.pop()
            lt, lp = stack.pop()
            if step in "+-":
                text = f"{_paren(lt, lp, _ADD)} {step} {_paren(rt, rp, _ADD + 1)}"
                stack.append((text, _ADD))
            else:
                text = f"{_paren(lt, lp, _MUL)}{step}{_paren(rt, rp, _MUL + 1)}"
                stack.append((text, _MUL))
    (top,) = stack
    return top[0]


def _paren(text: str, prec: int, need: int) -> str:
    return text if prec >= need else f"({text})"


def has_quotient(prog) -> bool:
    return "/" in prog


# -- Boole's method, model-theoretically ----------------------------------


def holds_all(equations, point) -> bool:
    """True iff every (lhs, rhs) program pair agrees at the point."""
    return all(evaluate(l, point) == evaluate(r, point) for l, r in equations)


def satisfiable(equations, point, free) -> bool:
    """Some 0/1 values of the `free` symbol indices make every equation hold."""
    pt = list(point)
    for values in product((0, 1), repeat=len(free)):
        for i, v in zip(free, values):
            pt[i] = v
        if holds_all(equations, pt):
            return True
    return False


def classify(equations, unknown: int, point, hidden=()) -> str:
    """Reading of one constituent when solving for `unknown`.

    `point` fixes the remaining symbols; `hidden` symbols (eliminated
    ones) range over 0/1.  The constituent is included when only w = 1
    works, excluded when only w = 0 works, indeterminate when both do,
    and a side condition when neither does.
    """
    pt = list(point)
    pt[unknown] = 1
    one = satisfiable(equations, pt, hidden)
    pt[unknown] = 0
    zero = satisfiable(equations, pt, hidden)
    if one and zero:
        return "indeterminate"
    if one:
        return "included"
    if zero:
        return "excluded"
    return "side"
