"""Operator-precedence parser for the surface expression language.

Grammar (whitespace insignificant):

    equation  = expr "=" expr ;
    expr      = [ "-" ] term { ( "+" | "-" ) term } ;
    term      = postfix { [ "*" | "/" ] postfix } ;   adjacency means "*"
    postfix   = atom { "'" } ;
    atom      = INTEGER | SYMBOL | "(" expr ")" ;
    SYMBOL    = [a-z][a-z0-9_]* ;  INTEGER = [0-9]+ ;

Postfix ' binds tightest, then * / and juxtaposition, then + and binary -.
A leading - negates the first term only.  Names matching v[0-9]+ parse
normally but are reserved for generated indeterminate classes; the solver
refuses input that uses them.

The whole input is tokenized first, so a bad character anywhere is
reported before any grammar error.  Then one loop over the tokens keeps
an operand stack and a stack of operators waiting for their right
operand (Dijkstra's shunting yard): an operator first applies the waiting
ones that bind at least as tightly, and an open parenthesis waits as a
marker that only its ')' removes.  The precedences are expr's, the ones
format_expr writes by.  Nothing recurses, so nesting has no depth limit.
"""

from __future__ import annotations

import re
import sys

from .errors import ParseError
from .expr import _BINARY, SYMBOL_PATTERN, Compl, Const, Equation, Expr, Sub, Sym
from .expr import Symbol, ZERO

_NAME = SYMBOL_PATTERN.pattern.removesuffix(r"\Z")
_TOKEN = re.compile(
    rf"(?P<ws>\s+)|(?P<int>[0-9]+)|(?P<sym>{_NAME})|(?P<op>[-+*/()'=])|(?P<bad>.)",
    re.DOTALL,
)

# a binary operator's token text -> (precedence, node type)
_OPS = {text.strip(): (prec, kind) for kind, (text, prec) in _BINARY.items()}

_EOF = "end of input"
_OPERAND = "a number, a symbol or '('"


def _tokenize(text: str) -> list[tuple[str, int, str]]:
    """The tokens of text as (text, offset, kind), then the end of input."""
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            raise ParseError(
                m.start(), "a number, symbol, operator or parenthesis", repr(m.group())
            )
        if m.lastgroup != "ws":
            tokens.append((m.group(), m.start(), m.lastgroup))
    tokens.append((_EOF, len(text), "eof"))
    return tokens


def _apply(operands: list[Expr], waiting: list, prec: int) -> None:
    """Apply the waiting operators that bind at least as tightly as prec."""
    while waiting and waiting[-1][0] >= prec:
        kind = waiting.pop()[1]
        right = operands.pop()
        if kind is not None:
            operands[-1] = kind(operands[-1], right)
        elif type(right) is Const:  # a leading minus folds into an integer
            operands.append(Const(-right.value))
        else:
            operands.append(Sub(ZERO, right))


def _parse(text: str, ends: tuple[str, ...]) -> list[Expr]:
    """The top-level expressions of text, the i-th closed by the token ends[i]."""
    tokens = _tokenize(text)
    sides: list[Expr] = []
    operands: list[Expr] = []
    # (precedence, node type) of each operator waiting for its right
    # operand.  An open parenthesis waits as (0, None), which no operator
    # applies.  A leading minus waits as (precedence of -, None), so a
    # later * or / binds tighter and a later + or - applies it first.
    waiting: list[tuple[int, type | None]] = []
    after_operand = False
    for i, (tok, offset, kind) in enumerate(tokens):
        if after_operand:
            if tok == "'":
                operands[-1] = Compl(operands[-1])
                continue
            if tok in (")", "=", _EOF):  # it closes a parenthesis or a side
                _apply(operands, waiting, 1)  # all, down to an open parenthesis
                if waiting:
                    if tok != ")":
                        raise ParseError(offset, "')'", tok)
                    waiting.pop()
                    continue
                end = ends[len(sides)]
                if tok != end:
                    raise ParseError(offset, end if end == _EOF else repr(end), tok)
                sides.append(operands.pop())
                after_operand = False
                continue
            # a binary operator, or juxtaposition: then tok is read below
            op = _OPS.get(tok, _OPS["*"])
            _apply(operands, waiting, op[0])
            waiting.append(op)
            after_operand = False
            if tok in _OPS:
                continue
        if kind == "int":
            try:
                value = int(tok)
            except ValueError:  # longer than the interpreter reads as an int
                limit = sys.get_int_max_str_digits()
                expected = f"a number of at most {limit} digits"
                raise ParseError(offset, expected, f"{len(tok)} digits") from None
            operands.append(Const(value))
        elif kind == "sym":
            operands.append(Sym(Symbol(tok)))
        elif tok == "(":
            waiting.append((0, None))
            continue
        elif tok == "-" and (i == 0 or tokens[i - 1][0] in ("(", "=")):
            waiting.append((_OPS["-"][0], None))
            continue
        else:
            raise ParseError(offset, _OPERAND, tok)
        after_operand = True
    return sides


def parse_expression(text: str) -> Expr:
    """Parse a single expression; raises ParseError with the offset."""
    (node,) = _parse(text, (_EOF,))
    return node


def parse_equation(text: str) -> Equation:
    """Parse 'expr = expr' with exactly one '=' at top level."""
    return Equation(*_parse(text, ("=", _EOF)))
