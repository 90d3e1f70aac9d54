import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from k3auto.cyclotomic import (
    CycloNum,
    MixedFieldsError,
    cyclotomic_field,
    cyclotomic_polynomial,
    split_prime,
)
from k3auto.files import MAX_FIELD_ORDER

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


def _is_prime_by_trial_division(m):
    return m > 1 and all(m % d for d in range(2, isqrt(m) + 1))


def _prime_divisors(m):
    return [q for q in range(2, m + 1) if m % q == 0 and _is_prime_by_trial_division(q)]


@pytest.mark.parametrize("n", [1, 2, 3, 16, 105, MAX_FIELD_ORDER])
def test_split_prime_has_a_root_of_unity_of_exact_order_n(n):
    p, z = split_prime(n)
    assert p > 2 ** 30
    assert _is_prime_by_trial_division(p)
    assert (p - 1) % n == 0
    assert 0 < z < p
    assert pow(z, n, p) == 1
    for q in _prime_divisors(n):
        assert pow(z, n // q, p) != 1
    # zeta_bar is a root of Phi_n mod p, so zeta -> zeta_bar is well defined.
    assert sum(c * pow(z, k, p) for k, c in enumerate(cyclotomic_polynomial(n))) % p == 0


@pytest.mark.parametrize("n", [1, 3, 16, 105])
def test_mod_p_is_a_ring_map(n):
    field = cyclotomic_field(n)
    p = field.residue_map()[0]
    rng = random.Random(n)
    for _ in range(20):
        a = _random_element(rng, field)
        b = _random_element(rng, field)
        assert (a + b).mod_p() == (a.mod_p() + b.mod_p()) % p
        assert (a * b).mod_p() == a.mod_p() * b.mod_p() % p
        if not a.is_zero() and a.mod_p():
            assert a.inverse().mod_p() * a.mod_p() % p == 1
    assert field.zeta().mod_p() == split_prime(n)[1]
    assert field.from_rational(Fraction(3, 2)).mod_p() == 3 * pow(2, -1, p) % p


def test_mod_p_refuses_a_denominator_divisible_by_p():
    p = F16.residue_map()[0]
    assert F16.element([Fraction(1, p), 1]).mod_p() is None
    assert F16.element([Fraction(1, 2 * p)]).mod_p() is None
    assert F16.from_rational(p).mod_p() == 0


def test_power_equals_repeated_multiplication():
    base = F16.zeta(3) + Fraction(1, 2)
    product = F16.one()
    for e in range(21):
        assert base ** e == product
        product = product * base
