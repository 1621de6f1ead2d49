"""Grammar, precedence, error offsets, round-trips, and fuzzing."""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from elective import (
    Add,
    Compl,
    Const,
    Equation,
    Mul,
    ONE,
    ParseError,
    Quot,
    Sub,
    Sym,
    Symbol,
    ZERO,
    Expr,
    format_expr,
    parse_equation,
    parse_expression,
)
from helpers import XYZW, _postorder, random_expr, run_elective

x, y, z, w = XYZW
X, Y, Z, W = Sym(x), Sym(y), Sym(z), Sym(w)


def test_parse_product_with_complement_group():
    assert parse_expression("x*(1 - y)") == Mul(X, Sub(ONE, Y))


def test_parse_double_complement():
    from elective import expand

    e = parse_expression("x''")
    assert e == Compl(Compl(X))
    assert expand(e, (x,)) == expand(X, (x,))


def test_parse_quotient():
    assert parse_expression("y/x") == Quot(Y, X)


def test_precedence_mul_over_add():
    assert parse_expression("x + y * z") == Add(X, Mul(Y, Z))


def test_juxtaposition_is_product():
    assert parse_expression("x y'") == Mul(X, Compl(Y))
    assert parse_expression("2x") == Mul(Const(2), X)
    assert parse_expression("x(y + z)") == Mul(X, Add(Y, Z))


def test_postfix_binds_tightest():
    assert parse_expression("x*y'") == Mul(X, Compl(Y))
    assert parse_expression("(x*y)'") == Compl(Mul(X, Y))


def test_leading_minus():
    assert parse_expression("-x + y") == Add(Sub(ZERO, X), Y)
    assert parse_expression("-2") == Const(-2)
    assert parse_expression("-2*x") == Sub(ZERO, Mul(Const(2), X))
    assert parse_expression("(-2)*x") == Mul(Const(-2), X)


def test_left_associativity():
    assert parse_expression("x - y - z") == Sub(Sub(X, Y), Z)
    assert parse_expression("x/y/z") == Quot(Quot(X, Y), Z)


def test_reserved_names_parse_fine():
    assert parse_expression("v1*x") == Mul(Sym(Symbol("v1")), X)


def test_parse_equation_basic():
    assert parse_equation("x*w = y") == Equation(Mul(X, W), Y)
    assert parse_equation("1 = x + (1 - x)") == Equation(
        ONE, Add(X, Sub(ONE, X))
    )


def test_parse_equation_empty_right_side():
    with pytest.raises(ParseError) as info:
        parse_equation("x = ")
    assert info.value.offset == 4


def test_parse_equation_missing_equals():
    with pytest.raises(ParseError) as info:
        parse_equation("x + y")
    assert info.value.offset == 5
    assert "'='" in info.value.expected


def test_parse_equation_multiple_equals():
    with pytest.raises(ParseError) as info:
        parse_equation("a = b = c")
    assert info.value.found == "="


def test_parse_expression_trailing_garbage():
    with pytest.raises(ParseError) as info:
        parse_expression("x )")
    assert info.value.offset == 2


def test_literal_longer_than_the_int_limit_is_refused_at_its_offset():
    # the interpreter reads at most 4 300 digits as an int; one more is a
    # parse error at the literal, and a literal at the limit still parses
    with pytest.raises(ParseError) as info:
        parse_equation("x = y + " + "7" * 4301)
    assert (info.value.offset, info.value.found) == (8, "4301 digits")
    assert info.value.expected == "a number of at most 4300 digits"
    assert parse_expression("9" * 4300) == Const(int("9" * 4300))


def test_parse_bad_character_offset():
    with pytest.raises(ParseError) as info:
        parse_expression("x + Q")
    assert info.value.offset == 4


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse_expression("(x + y")
    with pytest.raises(ParseError):
        parse_expression("x + y)")


def test_empty_input():
    with pytest.raises(ParseError) as info:
        parse_expression("")
    assert info.value.offset == 0


def test_deep_parentheses_parse():
    assert parse_expression("(" * 5000 + "x" + ")" * 5000) == X


def test_deep_right_nesting_round_trips():
    text = "x + (" * 4999 + "x + x" + ")" * 4999
    expected = X
    for _ in range(5000):
        expected = Add(X, expected)
    assert parse_expression(text) == expected
    assert format_expr(expected) == text


def test_cli_expands_deep_parentheses():
    def expand(text):
        done = run_elective("expand", text, capture_output=True, text=True)
        return done.returncode, done.stdout, done.stderr

    assert expand("(" * 3000 + "x" + ")" * 3000) == expand("x")


_OPERAND = "a number, a symbol or '('"
_EOF = "end of input"


@pytest.mark.parametrize(
    "parse, text, offset, expected, found",
    [
        (parse_expression, "", 0, _OPERAND, _EOF),
        (parse_expression, "x +", 3, _OPERAND, _EOF),
        (parse_expression, "(x", 2, "')'", _EOF),
        (parse_expression, "x)", 1, _EOF, ")"),
        (parse_expression, "--x", 1, _OPERAND, "-"),
        (parse_expression, "x + -y", 4, _OPERAND, "-"),
        (parse_expression, "x = y", 2, _EOF, "="),
        (parse_equation, "x + y", 5, "'='", _EOF),
        (parse_equation, "a = b = c", 6, _EOF, "="),
        (parse_equation, "(x = y)", 3, "')'", "="),
        (parse_expression, "x*/y", 2, _OPERAND, "/"),
        (parse_expression, "()", 1, _OPERAND, ")"),
        (parse_expression, "x'(", 3, _OPERAND, _EOF),
        (parse_expression, "x ) Q", 4, "a number, symbol, operator or parenthesis", "'Q'"),
    ],
)
def test_parse_error_table(parse, text, offset, expected, found):
    with pytest.raises(ParseError) as info:
        parse(text)
    err = info.value
    assert (err.offset, err.expected, err.found) == (offset, expected, found)


def test_round_trip_seeded():
    rng = random.Random(20260810)
    for _ in range(400):
        e = random_expr(rng, XYZW, depth=5, allow_quot=True)
        assert parse_expression(format_expr(e)) == e


_leaves = st.one_of(
    st.integers(-3, 3).map(Const),
    st.sampled_from([Sym(s) for s in XYZW]),
)
_any_expr = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda t: Add(*t)),
        st.tuples(inner, inner).map(lambda t: Sub(*t)),
        st.tuples(inner, inner).map(lambda t: Mul(*t)),
        st.tuples(inner, inner).map(lambda t: Quot(*t)),
        inner.map(Compl),
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(_any_expr)
def test_round_trip_property(e):
    assert parse_expression(format_expr(e)) == e


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=50))
def test_total_on_arbitrary_text(s):
    try:
        result = parse_expression(s)
    except ParseError as err:
        assert 0 <= err.offset <= len(s)
    else:
        assert isinstance(result, Expr)


def test_fuzz_bytes_seeded():
    rng = random.Random(99)
    near_grammar = "xyzw01 +-*/()'=_qv"
    for trial in range(2000):
        n = rng.randrange(0, 40)
        if trial % 2:
            s = "".join(chr(rng.randrange(1, 512)) for _ in range(n))
        else:
            s = "".join(rng.choice(near_grammar) for _ in range(n))
        try:
            parse_expression(s)
        except ParseError as err:
            assert 0 <= err.offset <= len(s)


_BAD = "a number, symbol, operator or parenthesis"
_LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize(
    "parse, text, offset, expected, found",
    [
        # '_' starts no token, and follows digits only inside a name
        (parse_expression, "_x", 0, _BAD, "'_'"),
        (parse_expression, "x + 2_", 5, _BAD, "'_'"),
        (parse_expression, "x_ + 12_y", 7, _BAD, "'_'"),
        # letters are lowercase ASCII, digits ASCII
        (parse_expression, "x + Y", 4, _BAD, "'Y'"),
        (parse_expression, "xY", 1, _BAD, "'Y'"),
        (parse_expression, "x*é", 2, _BAD, "'é'"),
        (parse_expression, "x*٣", 2, _BAD, "'٣'"),
        # a bad character anywhere is reported before a grammar error
        (parse_expression, "x * * y_ 3_", 10, _BAD, "'_'"),
        (parse_equation, "x = = Q", 6, _BAD, "'Q'"),
        (parse_expression, "(" * 50 + "x = é", 54, _BAD, "'é'"),
        # a literal over the int-to-text limit, and one after a grammar error
        (
            parse_expression,
            "x*" + "7" * (_LIMIT + 1),
            2,
            f"a number of at most {_LIMIT} digits",
            f"{_LIMIT + 1} digits",
        ),
        (parse_expression, "* " + "7" * (_LIMIT + 1), 0, _OPERAND, "*"),
        # unbalanced parentheses
        (parse_expression, "((x)", 4, "')'", _EOF),
        (parse_expression, "(x))", 3, _EOF, ")"),
        (parse_equation, "x) = y", 1, "'='", ")"),
        (parse_equation, "x = (y", 6, "')'", _EOF),
        # '=' inside parse_expression, in parentheses
        (parse_expression, "(x = y)", 3, "')'", "="),
        # a leading minus only opens an expression, a parenthesis or a side
        (parse_equation, "x = --y", 5, _OPERAND, "-"),
        (parse_expression, "x + (- - y)", 7, _OPERAND, "-"),
        (parse_expression, "x*-y", 2, _OPERAND, "-"),
    ],
)
def test_parse_error_edges_seeded(parse, text, offset, expected, found):
    # each input also with seeded whitespace, ASCII or not, on both sides:
    # the offset moves with the prefix, or is the end of the padded input
    rng = random.Random(f"{text}:{offset}")
    pad = ["", " \t", "\u00a0", "\u3000 ", "\n\u2003"]
    for _ in range(8):
        before, after = (rng.choice(pad) * rng.randrange(3) for _ in range(2))
        padded = before + text + after
        with pytest.raises(ParseError) as info:
            parse(padded)
        err = info.value
        want = len(padded) if found == _EOF else offset + len(before)
        assert (err.offset, err.expected, err.found) == (want, expected, found)


@pytest.mark.parametrize(
    "parse, text, tree",
    [
        (parse_expression, "x_*y2_", Mul(Sym("x_"), Sym("y2_"))),
        (parse_expression, "2x_", Mul(Const(2), Sym("x_"))),
        (parse_expression, "x\u00a0+\u2003y", Add(X, Y)),  # non-ASCII whitespace
        (parse_expression, "(-x)*y", Mul(Sub(ZERO, X), Y)),
        (parse_expression, "x*(-y + 1)", Mul(X, Add(Sub(ZERO, Y), ONE))),
        (parse_expression, "(-2)", Const(-2)),
        (parse_equation, "x = -y", Equation(X, Sub(ZERO, Y))),
        (parse_equation, "-x = -2*y", Equation(Sub(ZERO, X), Sub(ZERO, Mul(Const(2), Y)))),
        (parse_equation, "x = (-y)'", Equation(X, Compl(Sub(ZERO, Y)))),
    ],
)
def test_parse_edges_that_are_valid(parse, text, tree):
    assert parse(text) == tree


def test_each_distinct_leaf_is_built_once(monkeypatch):
    # a name used k times is one Symbol and one Sym node, shared by every
    # occurrence; a literal used k times is one Const node
    import elective.parsing

    built = []

    def counted(name):
        built.append(name)
        return Symbol(name)

    monkeypatch.setattr(elective.parsing, "Symbol", counted)
    k = 7
    e = parse_expression(" + ".join(["2*x*y'"] * k))
    assert sorted(built) == ["x", "y"]
    leaves = [n for n in _postorder(e) if type(n) in (Sym, Const)]
    assert len(leaves) == 3 * k
    assert len({id(n) for n in leaves}) == 3
    assert e == parse_expression(" + ".join(["2*x*y'"] * k))
