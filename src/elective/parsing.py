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

One regex search finds the first character that starts no token, so a
bad character anywhere is reported before any grammar error, and one
findall cuts the input into token texts; an error rescans for its
token's offset.  One loop over the tokens runs Dijkstra's shunting yard:
an operator first applies the waiting ones that bind at least as tightly
(expr's precedences, the ones format_expr writes by), and an open
parenthesis waits as a marker that only its ')' removes.  Nothing
recurses.  Each distinct name or literal is one leaf node, shared by its
occurrences: trees are immutable, and are read by their structure only.
"""

from __future__ import annotations

import re
import sys

from .errors import ParseError
from .expr import _BINARY, SYMBOL_PATTERN, Compl, Const, Equation, Expr, Sub, Sym
from .expr import Symbol, ZERO

_NAME = SYMBOL_PATTERN.pattern.removesuffix(r"\Z")
_TOKEN = re.compile(rf"[0-9]+|{_NAME}|[-+*/()'=]|\S")
# the first character no token takes: one outside the alphabet, or a '_'
# that only digits precede in its run of name characters
_BAD = re.compile(r"[^-+*/()'=0-9a-z_\s]|(?<![a-z0-9_])[0-9]*_")

# a binary operator's token text -> (precedence, node type)
_OPS = {text.strip(): (prec, kind) for kind, (text, prec) in _BINARY.items()}

_EOF = "end of input"
_OPERAND = "a number, a symbol or '('"

# An operator waits for its right operand as (precedence, node type): an open
# parenthesis as (0, None), which none applies, and a leading minus as (1, None),
# which * and / outbind.  ')', '=' and the end apply all down to a parenthesis.
_CLOSE = (1, None)
_AFTER_OPERAND = {**_OPS, ")": _CLOSE, "=": _CLOSE, _EOF: _CLOSE}
_JUXTAPOSED = _OPS["*"]


def _offset(text: str, i: int) -> int:
    """The offset in text of its i-th token, or of its end."""
    return [*(m.start() for m in _TOKEN.finditer(text)), len(text)][i]


def _parse(text: str, ends: tuple[str, ...]) -> list[Expr]:
    """The top-level expressions of text, the i-th closed by the token ends[i]."""
    if bad := _BAD.search(text):
        expected = "a number, symbol, operator or parenthesis"
        raise ParseError(bad.end() - 1, expected, repr(text[bad.end() - 1]))
    tokens = _TOKEN.findall(text) + [_EOF]
    leaves: dict[str, Expr] = {}  # each distinct name or literal's one node
    sides: list[Expr] = []
    operands: list[Expr] = []
    waiting: list[tuple[int, type | None]] = []
    after_operand = False
    for i, tok in enumerate(tokens):
        if after_operand:
            if tok == "'":
                operands[-1] = Compl(operands[-1])
                continue
            # a binary operator, a closer, or juxtaposition (a leaf or '(')
            op = _AFTER_OPERAND.get(tok, _JUXTAPOSED)
            while waiting and waiting[-1][0] >= op[0]:
                kind = waiting.pop()[1]
                right = operands.pop()
                if kind is not None:
                    operands[-1] = kind(operands[-1], right)
                elif type(right) is Const:  # a leading minus folds into an integer
                    operands.append(Const(-right.value))
                else:
                    operands.append(Sub(ZERO, right))
            if op is _CLOSE:
                if waiting:  # an open parenthesis
                    if tok != ")":
                        raise ParseError(_offset(text, i), "')'", tok)
                    waiting.pop()
                    continue
                end = ends[len(sides)]
                if tok != end:
                    expected = end if end == _EOF else repr(end)
                    raise ParseError(_offset(text, i), expected, tok)
                sides.append(operands.pop())
                after_operand = False
                continue
            waiting.append(op)
            after_operand = False
            if tok in _OPS:
                continue
        leaf = leaves.get(tok)
        if leaf is None:
            if tok == "(":
                waiting.append((0, None))
                continue
            elif tok.isdigit():
                try:
                    leaf = Const(int(tok))
                except ValueError:  # longer than the interpreter reads as an int
                    limit = sys.get_int_max_str_digits()
                    expected = f"a number of at most {limit} digits"
                    offset = _offset(text, i)
                    raise ParseError(offset, expected, f"{len(tok)} digits") from None
            elif tok.isidentifier():  # a name: no operator or end is one
                leaf = Sym(Symbol(tok))
            elif tok == "-" and (i == 0 or tokens[i - 1] in ("(", "=")):
                waiting.append((_OPS["-"][0], None))
                continue
            else:
                raise ParseError(_offset(text, i), _OPERAND, tok)
            leaves[tok] = leaf
        operands.append(leaf)
        after_operand = True
    return sides


def parse_expression(text: str) -> Expr:
    """Parse a single expression; raises ParseError with the offset."""
    (node,) = _parse(text, (_EOF,))
    return node


def parse_equation(text: str) -> Equation:
    """Parse 'expr = expr' with exactly one '=' at top level."""
    return Equation(*_parse(text, ("=", _EOF)))
