"""Weierstrass models over the projective t-line and Kodaira fiber types.

Models are in short form y^2 = x^3 + A(t) x + B(t) with deg A <= 8 and
deg B <= 12, which pins the twist exponents 8 / 12 / 24 at the place at
infinity.  Classification works from vanishing orders of (A, B, Delta) via
the characteristic-zero table; v(0) is infinite and satisfies every lower
bound in the table.
"""
from __future__ import annotations

import re
from typing import NamedTuple

from .cyclotomic import CyclotomicField
from .errors import InputError
from .polyring import (
    INF,
    MultiPoly,
    PlacePoly,
    RationalFunction,
    gcd_free_basis,
)

INFINITY = PlacePoly(None)


class NonMinimalError(InputError):
    """Vanishing orders admit a 4/6/12 twist down: the model is not minimal."""


class UnclassifiableError(InputError):
    """The vanishing-order triple matches no row of the fiber table."""


class NonLinearNonMinimalPlaceError(ValueError):
    """minimalize only handles non-minimality at linear finite places."""


# (Euler number, components) of each Kodaira type outside the I_n and I_n*
# families.
_FIBER_TABLE = {
    "smooth": (0, 1),
    "II": (2, 1),
    "III": (3, 2),
    "IV": (4, 3),
    "IV*": (8, 7),
    "III*": (9, 8),
    "II*": (10, 9),
}


def _fiber_numbers(fiber_type: str) -> tuple[int, int]:
    """(Euler number, components) of a Kodaira fiber, from the standard table."""
    m = re.fullmatch(r"I(\d+)(\*)?", fiber_type)
    if m:
        n = int(m.group(1))
        return (n + 6, n + 5) if m.group(2) else (n, max(n, 1))
    if fiber_type in _FIBER_TABLE:
        return _FIBER_TABLE[fiber_type]
    raise ValueError(f"unknown Kodaira type {fiber_type!r}")


def component_count(fiber_type: str) -> int:
    """Number of irreducible components of a Kodaira fiber."""
    return _fiber_numbers(fiber_type)[1]


def classify_place(vA, vB, vD) -> str:
    """Kodaira type from the vanishing orders of (A, B, Delta) at one place.

    The triple must come from a minimal model; INF satisfies every ">= k"
    guard.  Exactly one row applies, or the input is inconsistent.
    """
    if vA >= 4 and vB >= 6:
        raise NonMinimalError(
            f"orders (vA={vA}, vB={vB}) admit a twist down; minimalize first"
        )
    if vD == 0:
        return "smooth"
    if vA == 0 and vB == 0 and vD >= 1:
        return f"I{int(vD)}"
    if vD == 2 and vA >= 1 and vB == 1:
        return "II"
    if vD == 3 and vA == 1 and vB >= 2:
        return "III"
    if vD == 4 and vA >= 2 and vB == 2:
        return "IV"
    if vD == 6 and vA >= 2 and vB >= 3:
        return "I0*"
    if vD >= 7 and vA == 2 and vB == 3:
        return f"I{int(vD) - 6}*"
    if vD == 8 and vA >= 3 and vB == 4:
        return "IV*"
    if vD == 9 and vA == 3 and vB >= 5:
        return "III*"
    if vD == 10 and vA >= 4 and vB == 5:
        return "II*"
    raise UnclassifiableError(f"no table row matches (vA={vA}, vB={vB}, vDelta={vD})")


class WeierstrassModel:
    """Short Weierstrass data y^2 = x^3 + A(t) x + B(t) over Q(zeta_n)."""

    __slots__ = ("field", "A", "B", "_disc", "rhs")

    def __init__(self, field: CyclotomicField, A: MultiPoly, B: MultiPoly):
        if any(p.uses_var(v) for p in (A, B) for v in "xy"):
            raise ValueError("A and B must be polynomials in t")
        if A.degree_in("t") > 8:
            raise ValueError("deg A must be at most 8 for a K3-bounded model")
        if B.degree_in("t") > 12:
            raise ValueError("deg B must be at most 12 for a K3-bounded model")
        self.field = field
        self.A = A
        self.B = B
        self._disc = (A ** 3 * 4 + B ** 2 * 27) * (-16)
        if self._disc.is_zero():
            raise ValueError("discriminant vanishes identically: not an elliptic surface")
        # x^3 + A(t) x + B(t), the square of y, built once for the function field.
        x = MultiPoly.gen(field, "x")
        self.rhs = RationalFunction(x ** 3 + A * x + B)

    def discriminant(self) -> MultiPoly:
        """The short-form discriminant -16 (4 A^3 + 27 B^2)."""
        return self._disc

    def __eq__(self, other):
        return (
            isinstance(other, WeierstrassModel)
            and other.field == self.field
            and other.A == self.A
            and other.B == self.B
        )

    def __hash__(self):
        return hash((self.field, self.A, self.B))

    def __repr__(self):
        return f"WeierstrassModel(A={self.A}, B={self.B})"


class KodairaFiber(NamedTuple):
    place: PlacePoly
    type: str
    vA: int | float
    vB: int | float
    vD: int | float
    euler: int
    components: int
    multiplicity: int

    def sort_key(self):
        return (self.place.is_infinite, str(self.place))


class FiberInventory(NamedTuple):
    fibers: tuple[KodairaFiber, ...]
    euler_total: int

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.fibers:
            out[f.type] = out.get(f.type, 0) + f.multiplicity
        return out


def _order_at_infinity(poly: MultiPoly, bound: int) -> int | float:
    # v_s of s^bound * p(1/s) at s = 0, i.e. bound - deg p; INF for p = 0.
    if poly.is_zero():
        return INF
    return bound - poly.degree_in("t")


def _place_orders(polys) -> list[tuple[PlacePoly, list]]:
    """The gcd-free basis of the nonzero polys, each place with one vanishing
    order per input: its basis exponent, or INF for a zero input."""
    nonzero = [i for i, p in enumerate(polys) if not p.is_zero()]
    out = []
    for place, exps in gcd_free_basis([polys[i] for i in nonzero]):
        orders = [INF] * len(polys)
        for i, e in zip(nonzero, exps):
            orders[i] = e
        out.append((place, orders))
    return out


def classify_all(model: WeierstrassModel) -> FiberInventory:
    """One fiber per gcd-free-basis place of Delta, plus the place at infinity.

    Finite places must already be minimal (classify_place raises otherwise).
    At infinity the 8/12/24 twist of a low-degree model is reduced to its
    minimal form before classification, so small models classify as the
    elliptic surfaces they are.
    """
    delta = model.discriminant()
    fibers = []

    def add_fiber(place, vA, vB, vD):
        if vD == 0:
            return
        ftype = classify_place(vA, vB, vD)
        euler, components = _fiber_numbers(ftype)
        fibers.append(
            KodairaFiber(place, ftype, vA, vB, vD, euler, components, place.degree())
        )

    for place, (vA, vB, vD) in _place_orders((model.A, model.B, delta)):
        add_fiber(place, vA, vB, vD)
    # Place at infinity via the fixed 8/12/24 twist, minimalized there.
    vA = _order_at_infinity(model.A, 8)
    vB = _order_at_infinity(model.B, 12)
    vD = _order_at_infinity(delta, 24)
    while vA >= 4 and vB >= 6:
        vA -= 4
        vB -= 6
        vD -= 12
    add_fiber(INFINITY, vA, vB, vD)
    fibers.sort(key=KodairaFiber.sort_key)
    total = sum(f.euler * f.multiplicity for f in fibers)
    return FiberInventory(fibers=tuple(fibers), euler_total=total)


def minimalize(model: WeierstrassModel) -> WeierstrassModel:
    """Twist away finite places with v(A) >= 4 and v(B) >= 6.

    Only linear offending places are supported: A -> A / p^4, B -> B / p^6.
    """
    A, B = model.A, model.B
    while True:
        offender = None
        for place, (vA, vB) in _place_orders((A, B)):
            if vA >= 4 and vB >= 6:
                offender = place
                break
        if offender is None:
            return WeierstrassModel(model.field, A, B)
        if offender.degree() != 1:
            raise NonLinearNonMinimalPlaceError(
                f"non-minimal at place {offender} of degree {offender.degree()}"
            )
        A = A.exact_div(offender.poly ** 4)
        B = B.exact_div(offender.poly ** 6)


def is_k3(model: WeierstrassModel) -> bool:
    """True exactly when the fiber Euler numbers sum to 24."""
    return classify_all(model).euler_total == 24
