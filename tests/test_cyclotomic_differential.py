"""The integer-numerator CycloNum against a Fraction-vector reference.

The reference below is the earlier representation of Q(zeta_n): a vector of
``Fraction`` coefficients, reduced modulo Phi_n, inverted by the extended
Euclidean algorithm over Q.  Every operation of the integer form must give
the same element, the same exceptions and the same printed bytes.
"""
import functools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3auto.cyclotomic import cyclotomic_field, cyclotomic_polynomial

ORDERS = (1, 2, 3, 5, 8, 12, 16, 105)


class RefField:
    def __init__(self, order):
        self.order = order
        self.minimal_polynomial = cyclotomic_polynomial(order)
        self.degree = len(self.minimal_polynomial) - 1
        self._reduction = tuple(Fraction(-c) for c in self.minimal_polynomial[:-1])

    def element(self, coeffs):
        vec = [Fraction(c) for c in coeffs]
        vec += [Fraction(0)] * (self.degree - len(vec))
        return RefNum(self, tuple(vec))

    def one(self):
        return self.element((1,))

    def zeta(self, k):
        k %= self.order
        vec = [Fraction(0)] * (self.degree + self.order)
        vec[k] = Fraction(1)
        return RefNum(self, _ref_reduce(vec, self))


def _ref_reduce(vec, field):
    deg = field.degree
    red = field._reduction
    for i in range(len(vec) - 1, deg - 1, -1):
        c = vec[i]
        if c:
            vec[i] = Fraction(0)
            for j in range(deg):
                vec[i - deg + j] += c * red[j]
    return tuple(vec[:deg])


class RefNum:
    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _match(self, other):
        if isinstance(other, RefNum):
            return other
        return self.field.element((other,))

    def __add__(self, other):
        other = self._match(other)
        return RefNum(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._match(other)
        return RefNum(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return RefNum(self.field, tuple(-a for a in self.coeffs)) + other

    def __mul__(self, other):
        other = self._match(other)
        deg = self.field.degree
        conv = [Fraction(0)] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        conv[i + j] += a * b
        return RefNum(self.field, _ref_reduce(conv, self.field))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._match(other).inverse()

    def __rtruediv__(self, other):
        return self.field.element((other,)) / self

    def __pow__(self, exponent):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.field.one()
        for _ in range(exponent):
            result = result * self
        return result

    def is_zero(self):
        return not any(self.coeffs)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("division by zero in the cyclotomic field")
        return RefNum(self.field, _ref_inverse(self.field, self.coeffs))

    def as_rational(self):
        if any(self.coeffs[1:]):
            raise ValueError("not rational")
        return self.coeffs[0]

    def as_zeta_power(self):
        for k in range(self.field.order):
            if self.coeffs == self.field.zeta(k).coeffs:
                return k
        return None

    def __str__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            terms.append((c, "" if k == 0 else ("z" if k == 1 else f"z^{k}")))
        if not terms:
            return "0"
        parts = []
        for i, (c, sym) in enumerate(terms):
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if sym and mag == 1:
                body = sym
            elif sym:
                body = f"{mag}*{sym}"
            else:
                body = str(mag)
            if i == 0:
                parts.append(body if sign == "+" else "-" + body)
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)


@functools.lru_cache(maxsize=None)
def _ref_inverse(field, coeffs):
    # Memoized: the Euclidean inverse of a dense element of Q(zeta_105)
    # takes seconds, and the differential test inverts each element often.
    def trim(p):
        while p and not p[-1]:
            p.pop()
        return p

    def pdivmod(a, b):
        a = list(a)
        q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
        inv_lead = 1 / b[-1]
        for i in range(len(q) - 1, -1, -1):
            c = a[len(b) - 1 + i] * inv_lead
            q[i] = c
            if c:
                for j, d in enumerate(b):
                    a[i + j] -= c * d
        return q, trim(a)

    phi = [Fraction(c) for c in field.minimal_polynomial]
    r0, r1 = phi, trim(list(coeffs))
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while r1:
        q, r = pdivmod(r0, r1)
        s = list(s0) + [Fraction(0)] * max(0, len(q) + len(s1) - 1 - len(s0))
        for i, qc in enumerate(q):
            if qc:
                for j, sc in enumerate(s1):
                    s[i + j] -= qc * sc
        r0, r1, s0, s1 = r1, r, s1, trim(s)
    scale = 1 / r0[0]
    coeffs = [c * scale for c in s0]
    coeffs += [Fraction(0)] * (field.degree + 1 - len(coeffs))
    return _ref_reduce(coeffs, field)


def as_fractions(a):
    return tuple(Fraction(c, a.den) for c in a.num)


def assert_same(got, ref):
    assert as_fractions(got) == ref.coeffs
    assert str(got) == str(ref)


def _random_coeffs(rng, degree, shape=None):
    if shape is None:
        shape = rng.randrange(5)
    if shape == 0:  # rational
        coeffs = [0] * degree
        coeffs[0] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        return coeffs
    if shape == 1:  # a scaled power of zeta
        coeffs = [0] * degree
        coeffs[rng.randrange(degree)] = rng.choice((1, -1, 2, Fraction(-3, 4)))
        return coeffs
    if shape == 2:  # sparse integers
        return [rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(degree)]
    if shape == 3:  # zero
        return [0] * degree
    # dense, ints and Fractions mixed
    return [
        rng.randint(-5, 5) if rng.random() < 0.5 else Fraction(rng.randint(-6, 6), rng.randint(1, 8))
        for _ in range(degree)
    ]


def _scalars(rng):
    return [rng.randint(-4, 4), Fraction(rng.randint(-7, 7), rng.randint(1, 5))]


@pytest.mark.parametrize("order", ORDERS)
def test_arithmetic_matches_fraction_reference(order):
    rng = random.Random(4000 + order)
    field = cyclotomic_field(order)
    ref = RefField(order)
    # The reference inverts a dense element of Q(zeta_105) in about 2 s, so
    # that field gets one dense element and one pair of each other shape.
    shapes = [(4, 2), (1, 0), (2, 3)] if order == 105 else [(None, None)] * 40
    for shape_a, shape_b in shapes:
        ca = _random_coeffs(rng, field.degree, shape_a)
        cb = _random_coeffs(rng, field.degree, shape_b)
        a, b = field.element(ca), field.element(cb)
        ra, rb = ref.element(ca), ref.element(cb)
        assert_same(a, ra)
        assert_same(a + b, ra + rb)
        assert_same(a - b, ra - rb)
        assert_same(a * b, ra * rb)
        assert_same(-a, ra * -1)
        for s in _scalars(rng):
            assert_same(a + s, ra + s)
            assert_same(s + a, s + ra)
            assert_same(a - s, ra - s)
            assert_same(s - a, s - ra)
            assert_same(a * s, ra * s)
            assert_same(s * a, s * ra)
            if s:
                assert_same(a / s, ra / s)
            if not a.is_zero():
                assert_same(s / a, s / ra)
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                a / b
            with pytest.raises(ZeroDivisionError):
                b.inverse()
        else:
            assert_same(a / b, ra / rb)
            assert_same(b.inverse(), rb.inverse())
        exponents = range(0, 4) if order == 105 else range(-3, 6)
        for k in exponents:
            if k >= 0 or not a.is_zero():
                assert_same(a ** k, ra ** k)
        if a.is_rational():
            assert a.as_rational() == ra.as_rational()
            assert type(a.as_rational()) is Fraction
        else:
            with pytest.raises(ValueError):
                a.as_rational()
        assert a.as_zeta_power() == ra.as_zeta_power()


@pytest.mark.parametrize("order", ORDERS)
def test_zeta_powers_match_fraction_reference(order):
    field = cyclotomic_field(order)
    ref = RefField(order)
    for k in range(-order, 2 * order):
        z = field.zeta(k)
        assert_same(z, ref.zeta(k))
        assert z.as_zeta_power() == k % order
        assert_same(z * 3 - Fraction(1, 2), ref.zeta(k) * 3 - Fraction(1, 2))


def test_phi_105_has_a_coefficient_minus_two():
    assert -2 in cyclotomic_polynomial(105)
    assert cyclotomic_field(105).degree == 48


# -- invariants ------------------------------------------------------------------

coefficient = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-20, max_value=20, max_denominator=40),
)


@st.composite
def elements(draw, orders=(1, 2, 3, 5, 8, 12, 16)):
    field = cyclotomic_field(draw(st.sampled_from(orders)))
    coeffs = draw(st.lists(coefficient, max_size=field.degree))
    return field.element(coeffs)


def _canonical(a):
    assert a.den > 0
    assert len(a.num) == a.field.degree
    assert all(type(c) is int for c in a.num)
    assert gcd(a.den, *a.num) == 1
    if a.is_zero():
        assert a.den == 1


@settings(max_examples=150, deadline=None)
@given(elements(), st.data())
def test_results_are_canonical(a, data):
    field = a.field
    b = field.element(data.draw(st.lists(coefficient, max_size=field.degree)))
    s = data.draw(coefficient)
    for value in (a, a + b, a - b, a * b, a * s, a + s, s - a, -a, a ** 3):
        _canonical(value)
    if not a.is_zero():
        _canonical(a.inverse())
        _canonical(b / a)


@settings(max_examples=150, deadline=None)
@given(elements(), st.data())
def test_equal_elements_hash_equal(a, data):
    field = a.field
    b = field.element(data.draw(st.lists(coefficient, max_size=field.degree)))
    s = data.draw(coefficient)
    for left, right in (((a + b) - b, a), ((a * s) + a, a * (s + 1)), (a * b, b * a)):
        assert left == right
        assert hash(left) == hash(right)
    if a.is_rational():
        q = a.as_rational()
        assert a == q and hash(a) == hash(field.from_rational(q))


@settings(max_examples=150, deadline=None)
@given(elements())
def test_product_with_inverse_is_one(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    assert a * a.inverse() == a.field.one()
    assert a.inverse().inverse() == a
