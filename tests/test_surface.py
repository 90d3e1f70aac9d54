import random

import pytest

from k3auto.cyclotomic import cyclotomic_field
from k3auto.polyring import INF, MultiPoly, vanishing_order
from k3auto.surface import (
    FiberInventory,
    NonLinearNonMinimalPlaceError,
    NonMinimalError,
    UnclassifiableError,
    WeierstrassModel,
    _fiber_numbers,
    classify_all,
    classify_place,
    component_count,
    is_k3,
    minimalize,
)

F = cyclotomic_field(16)
T = MultiPoly.gen(F, "t")
ZERO = MultiPoly.zero(F)


def const(value):
    return MultiPoly.constant(F, value)


def euler_number(fiber_type):
    """Euler number of a Kodaira fiber."""
    return _fiber_numbers(fiber_type)[0]


def order16_model():
    return WeierstrassModel(F, T ** 3 * (T ** 4 - 1), ZERO)


def test_discriminant_of_the_main_model():
    # Oracle by direct factored multiplication: -64 t^9 (t^4 - 1)^3.
    expected = T ** 9 * (T ** 4 - 1) ** 3 * (-64)
    assert order16_model().discriminant() == expected


def test_discriminant_constants():
    w = WeierstrassModel(F, ZERO, const(1))
    assert w.discriminant() == const(-432)
    with pytest.raises(ValueError):
        WeierstrassModel(F, const(-3), const(2))


@pytest.mark.parametrize("var", ["x", "y"])
def test_model_coefficients_must_be_polynomials_in_t(var):
    v = MultiPoly.gen(F, var)
    for A, B in ((T + v, const(1)), (T, T * v ** 2), (v, ZERO)):
        with pytest.raises(ValueError, match="A and B must be polynomials in t"):
            WeierstrassModel(F, A, B)


def test_classify_place_table():
    assert classify_place(3, INF, 9) == "III*"
    assert classify_place(1, INF, 3) == "III"
    assert classify_place(0, 0, 4) == "I4"
    assert classify_place(0, 0, 1) == "I1"
    assert classify_place(1, 1, 2) == "II"
    assert classify_place(2, 2, 4) == "IV"
    assert classify_place(2, 3, 6) == "I0*"
    assert classify_place(2, 3, 8) == "I2*"
    assert classify_place(3, 4, 8) == "IV*"
    assert classify_place(INF, 5, 10) == "II*"
    assert classify_place(5, 0, 0) == "smooth"
    with pytest.raises(NonMinimalError):
        classify_place(4, 6, 12)
    with pytest.raises(NonMinimalError):
        classify_place(INF, INF, INF)
    with pytest.raises(UnclassifiableError):
        classify_place(1, 1, 5)


def test_euler_and_component_tables():
    assert euler_number("III") == 3
    assert euler_number("III*") == 9
    assert euler_number("I0*") == 6
    assert euler_number("I4") == 4
    assert euler_number("II*") == 10
    assert component_count("III") == 2
    assert component_count("III*") == 8
    assert component_count("I3*") == 8
    assert component_count("I1") == 1


def test_classify_all_main_model():
    inv = classify_all(order16_model())
    assert inv.counts() == {"III*": 1, "III": 5}
    assert inv.euler_total == 24
    by_place = {str(f.place): f for f in inv.fibers}
    assert by_place["t"].type == "III*"
    assert by_place["t"].vA == 3 and by_place["t"].vB == INF and by_place["t"].vD == 9
    assert by_place["t^4 - 1"].type == "III"
    assert by_place["t^4 - 1"].multiplicity == 4
    assert by_place["infinity"].type == "III"
    assert by_place["infinity"].vA == 1 and by_place["infinity"].vD == 3


def test_classify_all_generic_multiplicative():
    # A = t, B = 1: only I_n fibers at finite places.
    w = WeierstrassModel(F, T, const(1))
    inv = classify_all(w)
    for f in inv.fibers:
        if not f.place.is_infinite:
            assert f.type.startswith("I") and not f.type.endswith("*")
    # For multiplicative places e = v(Delta); check against vanishing orders
    # recomputed independently by repeated division.
    delta = w.discriminant()
    for f in inv.fibers:
        if not f.place.is_infinite:
            assert f.vD == vanishing_order(delta, f.place)
            assert f.euler == f.vD
    assert inv.euler_total == sum(f.euler * f.multiplicity for f in inv.fibers)


def test_classify_all_ii_star():
    w = WeierstrassModel(F, ZERO, T ** 5)
    inv = classify_all(w)
    finite = [f for f in inv.fibers if not f.place.is_infinite]
    assert len(finite) == 1
    assert finite[0].type == "II*"
    assert str(finite[0].place) == "t"
    # Delta = -432 t^10, computed directly.
    assert w.discriminant() == T ** 10 * (-432)


def test_minimalize():
    w = WeierstrassModel(F, T ** 4, T ** 6)
    m = minimalize(w)
    assert m.A == const(1)
    assert m.B == const(1)
    assert minimalize(order16_model()) == order16_model()
    w = WeierstrassModel(F, T ** 8, T ** 12)
    m = minimalize(w)
    assert m.A == const(1)
    assert m.B == const(1)
    bad = WeierstrassModel(F, (T ** 2 + 1) ** 4, ZERO)
    with pytest.raises(NonLinearNonMinimalPlaceError):
        minimalize(bad)


def test_is_k3():
    assert is_k3(order16_model()) is True
    # Rational elliptic data: Euler total 12.
    w = WeierstrassModel(F, T, ZERO)
    assert classify_all(w).euler_total == 12
    assert is_k3(w) is False


def test_twist_invariance_of_fiber_types():
    # Substituting t -> 1/s with the 8/12 twist must reproduce the same
    # multiset of fiber types for the main model.
    w = order16_model()

    def reversed_poly(p, bound):
        return MultiPoly(F, {(0, 0, bound - e[2]): c for e, c in p.terms.items()})

    twisted = WeierstrassModel(F, reversed_poly(w.A, 8), reversed_poly(w.B, 12))
    assert classify_all(twisted).counts() == classify_all(w).counts()
    assert classify_all(twisted).euler_total == classify_all(w).euler_total


def test_random_models_classify_totally():
    # classify_place never raises Unclassifiable on triples produced from
    # honest minimal models.
    rng = random.Random(11)
    produced = 0
    for _ in range(20):
        A = MultiPoly.from_int_coeffs(F, [rng.randint(-2, 2) for _ in range(rng.randint(1, 5))])
        B = MultiPoly.from_int_coeffs(F, [rng.randint(-2, 2) for _ in range(rng.randint(1, 5))])
        try:
            w = minimalize(WeierstrassModel(F, A, B))
        except (ValueError, NonLinearNonMinimalPlaceError):
            continue
        inv = classify_all(w)
        produced += 1
        assert inv.euler_total >= 0
        for f in inv.fibers:
            assert f.euler == euler_number(f.type)
    assert produced > 5
