"""Recursive-descent parser for polynomial and rational-function expressions.

Grammar (whitespace insensitive)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-')* power
    power  := atom ('^' INT)?
    atom   := INT | 'z' | NAME | '(' expr ')'

Tokens come from one pattern, ``_TOKEN``: INT is a run of decimal digits and
NAME a word character that is not a decimal digit followed by word
characters, both as ``re`` defines them for str patterns.  Any other
character that is not whitespace raises ``ExpressionSyntaxError`` with its
position, as every other syntax error does.

``z`` denotes the generator zeta_n of the active cyclotomic field; the field
order is supplied out of band.  ``^`` takes nonnegative integer exponents up
to MAX_EXPONENT, and a power is rejected before it is expanded when its total
degree would exceed MAX_POWER_DEGREE.  Parentheses nest at most MAX_NESTING
deep, which keeps the recursive descent within the interpreter's stack.
Printing a parsed value and parsing it again is the identity.
"""
from __future__ import annotations

import re

from .cyclotomic import CyclotomicField
from .errors import InputError
from .polyring import MultiPoly, RationalFunction


class ExpressionSyntaxError(InputError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(ExpressionSyntaxError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown variable '{name}'", position)
        self.name = name


class ZeroDenominatorError(ZeroDivisionError):
    """A division in the input has an identically zero denominator."""


MAX_EXPONENT = 1024
MAX_POWER_DEGREE = 64
MAX_NESTING = 64

_TOKEN = re.compile(r"(?P<int>\d+)|(?P<name>[^\W\d]\w*)|(?P<op>[-+*/^()])|(?P<bad>\S)")


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(src):
        kind, text = m.lastgroup, m.group()
        if kind == "bad":
            raise ExpressionSyntaxError(f"unexpected character {text!r}", m.start())
        tokens.append((text if kind == "op" else kind, text, m.start()))
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, allowed_vars: set[str], field: CyclotomicField):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0
        self.vars = allowed_vars
        self.field = field

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        kind_, text, pos = self.peek()
        if kind_ != kind:
            raise ExpressionSyntaxError(
                f"expected {kind!r}, found {text!r}" if text else f"expected {kind!r}",
                pos,
            )
        return self.advance()

    def parse(self) -> RationalFunction:
        value = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected {text!r}", pos)
        return value

    def expr(self) -> RationalFunction:
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> RationalFunction:
        value = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.advance()
            rhs = self.unary()
            if op == "*":
                value = value * rhs
            else:
                if rhs.is_zero():
                    raise ZeroDenominatorError(
                        f"division by an identically zero expression (at position {pos})"
                    )
                value = value / rhs
        return value

    def unary(self) -> RationalFunction:
        sign = 1
        while self.peek()[0] in ("+", "-"):
            if self.advance()[0] == "-":
                sign = -sign
        value = self.power()
        return value if sign > 0 else -value

    def power(self) -> RationalFunction:
        value = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            kind, text, pos = self.peek()
            if kind != "int":
                raise ExpressionSyntaxError("exponent must be a nonnegative integer", pos)
            self.advance()
            exponent = int(text)
            if exponent > MAX_EXPONENT:
                raise ExpressionSyntaxError(
                    f"exponent {exponent} exceeds {MAX_EXPONENT}", pos
                )
            degree = exponent * max(
                (sum(e) for p in (value.num, value.den) for e in p.terms), default=0
            )
            if degree > MAX_POWER_DEGREE:
                raise ExpressionSyntaxError(
                    f"power of total degree {degree} exceeds {MAX_POWER_DEGREE}", pos
                )
            value = value ** exponent
        return value

    def atom(self) -> RationalFunction:
        kind, text, pos = self.advance()
        if kind == "int":
            return RationalFunction.constant(self.field, int(text))
        if kind == "name":
            if text == "z":
                return RationalFunction.constant(self.field, self.field.zeta())
            if text in self.vars:
                return RationalFunction.gen(self.field, text)
            raise UnknownVariableError(text, pos)
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ExpressionSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}", pos
                )
            value = self.expr()
            self.expect(")")
            self.depth -= 1
            return value
        raise ExpressionSyntaxError(
            f"unexpected {text!r}" if text else "unexpected end of input", pos
        )


def parse_expression(
    src: str, allowed_vars: set[str], field: CyclotomicField
) -> MultiPoly | RationalFunction:
    """Parse an expression; polynomials come back as MultiPoly values."""
    unknown = allowed_vars - set("xyt")
    if unknown:
        raise ValueError(f"unsupported variables: {sorted(unknown)}")
    value = _Parser(src, allowed_vars, field).parse()
    if value.is_polynomial():
        return value.as_poly()
    return value


def parse_univariate(src: str, var: str, field: CyclotomicField):
    """Parse a polynomial in a single variable, as a MultiPoly."""
    value = parse_expression(src, {var}, field)
    if isinstance(value, RationalFunction):
        raise ValueError(f"expected a polynomial in {var}, got a rational function")
    return value
