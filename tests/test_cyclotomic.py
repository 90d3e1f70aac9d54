import random
from fractions import Fraction
from math import gcd

import pytest

from k3auto.cyclotomic import (
    CycloNum,
    MixedFieldsError,
    cyclotomic_field,
    cyclotomic_polynomial,
)

F16 = cyclotomic_field(16)


def test_cyclotomic_polynomial_closed_forms():
    # Phi_16 = x^8 + 1, Phi_8 = x^4 + 1, Phi_4 = x^2 + 1.
    assert cyclotomic_polynomial(16) == (1, 0, 0, 0, 0, 0, 0, 0, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(1) == (-1, 1)


def test_cyclotomic_polynomial_product_identity():
    # prod over d | n of Phi_d equals x^n - 1, checked by direct int convolution.
    for n in (6, 12, 16, 20):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        expected = [-1] + [0] * (n - 1) + [1]
        assert prod == expected


def test_degree_matches_totient():
    for n in (1, 2, 3, 4, 8, 12, 15, 16):
        totient = sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        assert cyclotomic_field(n).degree == totient


def test_zeta_pow_examples():
    assert F16.zeta(0) == F16.one()
    assert F16.zeta(8) == -F16.one()
    assert F16.zeta(20) == F16.zeta(4)


def test_basic_products():
    z = F16.zeta()
    assert F16.zeta(8) * F16.zeta(8) == F16.one()
    assert z * F16.zeta(7) == -F16.one()
    assert (F16.one() + z) * (F16.one() - z) == F16.one() - F16.zeta(2)


def test_zeta_power_addition_law():
    # Exhaustive over [0, 2n) x [0, 2n).
    powers = [F16.zeta(k) for k in range(32)]
    for k in range(32):
        for m in range(32):
            assert powers[k] * powers[m] == F16.zeta(k + m)


def test_zeta_inverse_pairs():
    for k in range(16):
        assert F16.zeta(k) * F16.zeta(16 - k) == F16.one()


def test_multiplicative_order_of_zeta_powers():
    for k in range(16):
        expect = 16 // gcd(16, k) if k else 1
        assert F16.zeta(k).multiplicative_order(32) == expect


def test_as_zeta_power():
    assert (-F16.one()).as_zeta_power() == 8
    assert F16.zeta(6).as_zeta_power() == 6
    # 1 + zeta is not a power of zeta: compare against all 16 powers computed
    # independently by repeated multiplication.
    candidate = F16.one() + F16.zeta()
    acc = F16.one()
    for _ in range(16):
        assert candidate != acc
        acc = acc * F16.zeta()
    assert candidate.as_zeta_power() is None


def _random_element(rng, field):
    return field.element(
        [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(field.degree)]
    )


def test_field_axioms_random():
    rng = random.Random(20260808)
    one = F16.one()
    for _ in range(40):
        a = _random_element(rng, F16)
        b = _random_element(rng, F16)
        c = _random_element(rng, F16)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == one
            assert (a / a) == one


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        F16.one() / F16.zero()


def test_mixed_fields_rejected():
    other = cyclotomic_field(8)
    with pytest.raises(MixedFieldsError):
        F16.one() + other.one()


def test_str_parses_back_roundtrip_material():
    # Representative strings; full round-trip lives in the parser tests.
    assert str(F16.zero()) == "0"
    assert str(F16.one()) == "1"
    assert str(F16.zeta(8)) == "-1"
    assert str(F16.one() + F16.zeta()) == "1 + z"
    assert str(F16.element([Fraction(-3, 2), 0, 1])) == "-3/2 + z^2"


def test_phi16_relation_holds():
    # zeta^8 + 1 == 0 and zeta^16 == 1 under the arithmetic.
    z = F16.zeta()
    assert z ** 8 + F16.one() == F16.zero()
    assert z ** 16 == F16.one()
