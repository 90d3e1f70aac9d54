"""The one scalar rule, ``cyclotomic.coerce``, seen from every ring type of
the exact core: CycloNum, MultiPoly, RationalFunction and FieldElement over
Q(zeta_16).  An int, a Fraction or an element of the same field acts as its
constant; an element of another field raises MixedFieldsError in every
operator, and ``==`` says False."""
import operator
from fractions import Fraction

import pytest

from k3auto.cyclotomic import MixedFieldsError, coerce, cyclotomic_field
from k3auto.funfield import FieldElement
from k3auto.polyring import MultiPoly, RationalFunction
from k3auto.surface import WeierstrassModel

F = cyclotomic_field(16)
F5 = cyclotomic_field(5)
T = MultiPoly.gen(F, "t")
X = MultiPoly.gen(F, "x")
MODEL = WeierstrassModel(F, T ** 3 * (T ** 4 - 1), MultiPoly.zero(F))
FOREIGN = F5.zeta() + 2

ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)


def _elements():
    """(element, the constant of a scalar as that type, the type's operators);
    MultiPoly has no ``/``, its exact division being ``exact_div``."""
    y = FieldElement.coordinate(MODEL, "y")
    x = FieldElement.coordinate(MODEL, "x")
    return [
        (F.zeta(3) + 2, lambda c: c, ARITHMETIC),
        (X * T + F.zeta(5), lambda c: MultiPoly.constant(F, c), ARITHMETIC[:3]),
        (
            RationalFunction(X + 1, T ** 2 + F.zeta(2)),
            lambda c: RationalFunction.constant(F, c),
            ARITHMETIC,
        ),
        (x * y / (x + 1), lambda c: FieldElement.const(MODEL, c), ARITHMETIC),
    ]


@pytest.mark.parametrize("kind", range(4), ids=["CycloNum", "MultiPoly", "RationalFunction", "FieldElement"])
def test_a_scalar_of_another_field_raises_in_every_operator(kind):
    a, _, ops = _elements()[kind]
    for op in ops:
        with pytest.raises(MixedFieldsError):
            op(a, FOREIGN)
        with pytest.raises(MixedFieldsError):
            op(FOREIGN, a)
    assert not a == FOREIGN and a != FOREIGN
    assert not FOREIGN == a and FOREIGN != a


@pytest.mark.parametrize("kind", range(4), ids=["CycloNum", "MultiPoly", "RationalFunction", "FieldElement"])
def test_a_scalar_of_the_field_acts_as_its_constant(kind):
    a, const, ops = _elements()[kind]
    for value in (3, -1, Fraction(-2, 7), F.zeta(7) - Fraction(1, 3)):
        c = const(coerce(F, value))
        for op in ops:
            assert op(a, value) == op(a, c)
            assert op(value, a) == op(c, a)
        assert (c == value) and not (c != value)
        assert a + value - value == a


def test_subtracting_a_root_of_unity_of_another_field_is_refused():
    # - and + take the scalar through the same rule as *, so x - zeta_5
    # cannot come out as x + (-z), the numerators of zeta_5 read in Q(zeta_16).
    x = RationalFunction.gen(F, "x")
    with pytest.raises(MixedFieldsError, match=r"Q\(zeta_16\) with Q\(zeta_5\)"):
        x - F5.zeta()
    with pytest.raises(MixedFieldsError):
        x * F5.zeta()


def test_constructors_refuse_a_scalar_of_another_field():
    # A foreign constant would print its numerators in this field: (z)*x.
    for build in (
        lambda: MultiPoly.constant(F, F5.zeta()),
        lambda: MultiPoly.monomial(F, (1, 0, 0), F5.zeta()),
        lambda: RationalFunction.constant(F, F5.zeta()),
        lambda: FieldElement.const(MODEL, F5.zeta()),
    ):
        with pytest.raises(MixedFieldsError):
            build()
    assert MultiPoly.constant(F, 0).is_zero()
    assert str(MultiPoly.constant(F, Fraction(3, 4)) * X) == "3/4*x"


def test_values_that_are_not_scalars_are_handed_on_or_refused():
    assert coerce(F, 1.5) is NotImplemented
    assert coerce(F, X) is NotImplemented
    with pytest.raises(TypeError):
        MultiPoly.constant(F, 1.5)
    with pytest.raises(TypeError):
        X + "1"
    with pytest.raises(TypeError):
        1.5 / F.one()
