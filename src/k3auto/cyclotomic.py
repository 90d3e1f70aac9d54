"""Exact arithmetic in the rationals and in cyclotomic fields Q(zeta_n).

Every scalar in this package is either a ``fractions.Fraction`` or a
``CycloNum``: a vector of rational coefficients representing a polynomial in
zeta_n reduced modulo the n-th cyclotomic polynomial.  Nothing here ever
touches floating point, and two field elements are equal exactly when their
coefficient vectors are.
"""
from __future__ import annotations

import functools
from fractions import Fraction


class MixedFieldsError(ValueError):
    """Operands belong to cyclotomic fields of different order."""


def _exact_monic_div(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer coefficient lists (constant term first) by a
    # monic divisor; the remainder must vanish.
    num = list(num)
    dd = len(den) - 1
    quo = [0] * (len(num) - dd)
    for i in range(len(quo) - 1, -1, -1):
        c = num[dd + i]
        quo[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    assert not any(num), "division was not exact"
    return quo


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    Computed by dividing x^n - 1 by Phi_d for every proper divisor d of n.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(16)
    (1, 0, 0, 0, 0, 0, 0, 0, 1)
    """
    if n < 1:
        raise ValueError("order must be a positive integer")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _exact_monic_div(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


class CyclotomicField:
    """The field Q(zeta_n), presented as Q[x] / (Phi_n(x)).

    One field instance per order is shared through :func:`cyclotomic_field`;
    elements of different orders never mix silently.
    """

    __slots__ = ("order", "minimal_polynomial", "degree", "_reduction", "_powers")

    def __init__(self, order: int):
        self.order = order
        self.minimal_polynomial = cyclotomic_polynomial(order)
        self.degree = len(self.minimal_polynomial) - 1
        # x^degree = -(lower coefficients of Phi_n), since Phi_n is monic.
        self._reduction = tuple(Fraction(-c) for c in self.minimal_polynomial[:-1])
        self._powers: tuple[CycloNum, ...] | None = None

    def __repr__(self) -> str:
        return f"CyclotomicField({self.order})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CyclotomicField) and other.order == self.order

    def __hash__(self) -> int:
        return hash(("CyclotomicField", self.order))

    def element(self, coeffs) -> CycloNum:
        vec = [Fraction(c) for c in coeffs]
        if len(vec) > self.degree:
            raise ValueError("coefficient vector longer than the field degree")
        vec += [Fraction(0)] * (self.degree - len(vec))
        return CycloNum(self, tuple(vec))

    def zero(self) -> CycloNum:
        return self.element(())

    def one(self) -> CycloNum:
        return self.from_rational(1)

    def from_rational(self, value) -> CycloNum:
        return self.element((Fraction(value),))

    def zeta(self, k: int = 1) -> CycloNum:
        """The root of unity zeta_n^k in canonical form."""
        k %= self.order
        vec = [Fraction(0)] * (self.degree + self.order)
        vec[k] = Fraction(1)
        return CycloNum(self, _reduce(vec, self))

    def zeta_powers(self) -> tuple[CycloNum, ...]:
        """All n powers of zeta_n, cached; zeta_powers()[k] == zeta(k)."""
        if self._powers is None:
            self._powers = tuple(self.zeta(k) for k in range(self.order))
        return self._powers


@functools.lru_cache(maxsize=None)
def cyclotomic_field(n: int) -> CyclotomicField:
    return CyclotomicField(n)


def _reduce(vec: list[Fraction], field: CyclotomicField) -> tuple[Fraction, ...]:
    # Reduce a coefficient list modulo Phi_n, in place from the top.
    deg = field.degree
    red = field._reduction
    for i in range(len(vec) - 1, deg - 1, -1):
        c = vec[i]
        if c:
            vec[i] = Fraction(0)
            for j in range(deg):
                vec[i - deg + j] += c * red[j]
    return tuple(vec[:deg])


class CycloNum:
    """An element of Q(zeta_n): a length-phi(n) vector of rationals.

    Immutable; the representation is canonical, so ``==`` is structural.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CyclotomicField, coeffs: tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs

    def _match(self, other) -> "CycloNum":
        if isinstance(other, CycloNum):
            if other.field != self.field:
                raise MixedFieldsError(
                    f"cannot mix Q(zeta_{self.field.order}) with Q(zeta_{other.field.order})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloNum(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloNum(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CycloNum(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        deg = self.field.degree
        conv = [Fraction(0)] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        conv[i + j] += a * b
        return CycloNum(self.field, _reduce(conv, self.field))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.field.from_rational(other) / self

    def __pow__(self, exponent: int) -> "CycloNum":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.field.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse, by the extended Euclidean algorithm mod Phi_n."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in the cyclotomic field")
        # Work on plain Fraction lists: r = gcd combination s*self + t*Phi.
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

        phi = [Fraction(c) for c in self.field.minimal_polynomial]
        r0, r1 = phi, trim(list(self.coeffs))
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while r1:
            q, r = pdivmod(r0, r1)
            # s = s0 - q*s1
            s = list(s0) + [Fraction(0)] * max(0, len(q) + len(s1) - 1 - len(s0))
            for i, qc in enumerate(q):
                if qc:
                    for j, sc in enumerate(s1):
                        s[i + j] -= qc * sc
            r0, r1, s0, s1 = r1, r, s1, trim(s)
        # r0 is a nonzero constant gcd (Phi_n is irreducible over Q).
        scale = 1 / r0[0]
        coeffs = [c * scale for c in s0]
        coeffs += [Fraction(0)] * (self.field.degree + 1 - len(coeffs))
        return CycloNum(self.field, _reduce(coeffs, self.field))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        return (
            isinstance(other, CycloNum)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field.order, self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def as_zeta_power(self) -> int | None:
        """The exponent k with self == zeta^k, or None.

        Decided by comparing against all n powers; n is small here.
        """
        for k, power in enumerate(self.field.zeta_powers()):
            if self == power:
                return k
        return None

    def multiplicative_order(self, limit: int = 64) -> int | None:
        """Least m <= limit with self**m == 1, or None if the bound is passed."""
        acc = self
        one = self.field.one()
        for m in range(1, limit + 1):
            if acc == one:
                return m
            acc = acc * self
        return None

    def __repr__(self) -> str:
        return f"CycloNum({self})"

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append((c, ""))
            elif k == 1:
                terms.append((c, "z"))
            else:
                terms.append((c, f"z^{k}"))
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
