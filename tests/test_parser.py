import random
import string

import pytest

from k3auto.cyclotomic import cyclotomic_field
from k3auto.parser import (
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_POWER_DEGREE,
    ExpressionSyntaxError,
    UnknownVariableError,
    ZeroDenominatorError,
    _tokenize,
    parse_expression,
    parse_univariate,
)
from k3auto.polyring import MultiPoly, RationalFunction

F = cyclotomic_field(16)
XYT = {"x", "y", "t"}


def test_parse_base_polynomial():
    p = parse_univariate("t^3*(t^4-1)", "t", F)
    t = MultiPoly.gen(F, "t")
    assert p == t ** 7 - t ** 3


def test_parse_scaled_monomial():
    p = parse_expression("z^6*x", XYT, F)
    assert isinstance(p, MultiPoly)
    assert p == MultiPoly.gen(F, "x") * F.zeta(6)


def test_parse_rational_function():
    r = parse_expression("(y^2-x^3)/x^2", XYT, F)
    assert isinstance(r, RationalFunction)
    x = MultiPoly.gen(F, "x")
    y = MultiPoly.gen(F, "y")
    assert r == RationalFunction(y ** 2 - x ** 3, x ** 2)


def test_parse_zero_and_constants():
    assert parse_expression("0", XYT, F).is_zero()
    assert parse_expression("-3", XYT, F) == MultiPoly.constant(F, -3)
    from fractions import Fraction

    assert parse_expression("1/2", XYT, F) == MultiPoly.constant(F, Fraction(1, 2))


def test_unary_minus_and_precedence():
    p = parse_expression("-t^2 + 2*t - 1", {"t"}, F)
    t = MultiPoly.gen(F, "t")
    assert p == -(t ** 2) + 2 * t - 1
    assert parse_expression("2*t^2", {"t"}, F) == 2 * t * t
    assert parse_expression("-64*t^9", {"t"}, F) == t ** 9 * (-64)


def test_position_annotated_errors():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("t^3*(t^4-1", {"t"}, F)
    assert "position" in str(err.value)
    with pytest.raises(UnknownVariableError) as err:
        parse_expression("t + s", {"t"}, F)
    assert err.value.name == "s"
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("t^-2", {"t"}, F)
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("", {"t"}, F)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominatorError):
        parse_expression("x/(t-t)", XYT, F)


def _random_multipoly(rng):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        e = (rng.randint(0, 3), rng.randint(0, 2), rng.randint(0, 4))
        c = F.element([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
        if not c.is_zero():
            terms[e] = c
    return MultiPoly(F, terms)


def test_print_parse_roundtrip():
    rng = random.Random(99)
    for _ in range(25):
        p = _random_multipoly(rng)
        assert parse_expression(str(p), XYT, F) == p
    for _ in range(10):
        num = _random_multipoly(rng)
        den = _random_multipoly(rng)
        if den.is_zero():
            continue
        r = RationalFunction(num, den)
        reparsed = parse_expression(str(r), XYT, F)
        if isinstance(reparsed, MultiPoly):
            reparsed = RationalFunction(reparsed)
        assert reparsed == r


def test_power_bounds_checked_before_expanding():
    assert MAX_EXPONENT == 1024 and MAX_POWER_DEGREE == 64
    # At the bounds: a constant may take the largest exponent, a variable
    # the largest degree.
    assert parse_expression("z^1024", XYT, F) == MultiPoly.constant(F, F.one())
    assert parse_expression("(x*t)^32", XYT, F) == MultiPoly.monomial(F, (32, 0, 32), F.one())
    cases = [
        ("2^1025", "exponent 1025 exceeds 1024", 2),
        ("x + t^65", "power of total degree 65 exceeds 64", 6),
        ("(x*y+1)^33", "power of total degree 66 exceeds 64", 8),
        ("(1/(x*t))^33", "power of total degree 66 exceeds 64", 10),
        ("((x+1)^8)^9", "power of total degree 72 exceeds 64", 10),
    ]
    for src, message, pos in cases:
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression(src, XYT, F)
        assert info.value.position == pos
        assert str(info.value) == f"{message} (at position {pos})"


def test_nesting_bound_checked_before_recursing():
    deep = "(" * MAX_NESTING + "t" + ")" * MAX_NESTING
    assert parse_expression(deep, XYT, F) == MultiPoly.gen(F, "t")
    with pytest.raises(ExpressionSyntaxError) as info:
        parse_expression("(" * 3000 + "t" + ")" * 3000, XYT, F)
    assert str(info.value) == (
        f"parentheses nested deeper than {MAX_NESTING} (at position {MAX_NESTING})"
    )


_REFERENCE_OPS = set("+-*/^()")


def _reference_tokenize(src: str) -> list[tuple[str, str, int]]:
    """Reference tokenizer: a character loop over str predicates, which
    agrees with the token pattern on ASCII."""
    tokens = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _REFERENCE_OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            tokens.append(("int", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], i))
            i = j
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(src)))
    return tokens


def _outcome(tokenize, src):
    try:
        return tokenize(src)
    except ExpressionSyntaxError as err:
        return type(err), str(err), err.position


def test_token_pattern_matches_the_reference_on_printable_ascii():
    rng = random.Random(3301)
    # Weighted towards the characters of real expressions, so that most
    # strings tokenize to the end and long names and integers occur.
    alphabet = string.printable + "xyzt_019+-*/^() " * 4
    errors = 0
    for _ in range(3000):
        src = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        got = _outcome(_tokenize, src)
        assert got == _outcome(_reference_tokenize, src), src
        errors += isinstance(got, tuple)
    assert 300 < errors < 2700
    for src in ["", " \t\n\r\x0b\x0c", "a.b", "x#1", "t = 2", "_a1 + 10_2", "2x3y"]:
        assert _outcome(_tokenize, src) == _outcome(_reference_tokenize, src), src


def test_non_ascii_characters_get_positioned_errors_or_their_tokens():
    # str.isdigit takes a superscript two for a digit, which int() then
    # rejects with no position; the token pattern reads it as a name.
    assert _reference_tokenize("t^\u00b2")[2] == ("int", "\u00b2", 2)
    assert _tokenize("t^\u00b2")[2] == ("name", "\u00b2", 2)
    for src, pos in [("t^\u00b2", 2), ("\u216b", 0), ("t + 2*\u216b", 6)]:
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression(src, {"t"}, F)
        assert info.value.position == pos
        assert str(info.value).endswith(f"(at position {pos})")
    # A name may go on with a superscript digit, as before.
    assert _tokenize("x\u00b2") == _reference_tokenize("x\u00b2") == [
        ("name", "x\u00b2", 0), ("end", "", 2)
    ]
    # Arabic-Indic digits are decimal digits: still an integer.
    arabic = "\u0663\u0664"
    assert _tokenize(arabic) == _reference_tokenize(arabic) == [("int", arabic, 0), ("end", "", 2)]
    assert parse_expression(f"{arabic}*t", {"t"}, F) == MultiPoly.gen(F, "t") * 34
