"""Exact arithmetic in the rationals and in cyclotomic fields Q(zeta_n).

A scalar is an ``int``, a ``fractions.Fraction`` or a ``CycloNum``.  One
rule, ``coerce``, makes a scalar an element of a given field, and every ring
type of the exact core (``CycloNum``, ``polyring.MultiPoly``,
``polyring.RationalFunction``, ``funfield.FieldElement``) takes its scalar
operands through it: ints and Fractions go through ``from_rational``, and an
element of another field raises ``MixedFieldsError``.  A ``CycloNum`` is a
polynomial in zeta_n reduced modulo the n-th cyclotomic polynomial, stored
as integer numerators over one positive common denominator.  Arithmetic runs
on Python ints; the monic integer Phi_n keeps reduction integral, and
inverses go through the field norm instead of a Euclidean algorithm.  Nothing
here touches floating point, and two field elements are equal exactly when
their reduced numerators and denominators are.

Three integer-level helpers are public for the polynomial kernel of
``polyring.MultiPoly``, which works on numerator vectors directly:
``reduce_mod_phi`` (an unreduced integer vector modulo Phi_n),
``canonical`` (numerators over a positive denominator to a canonical
``CycloNum``) and ``product`` (a field product with no operand coercion).
"""
from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd


class MixedFieldsError(ValueError):
    """Operands belong to cyclotomic fields of different order."""


def power(base, e: int, one):
    """base ** e for an int e >= 0 by square-and-multiply, in any ring whose
    elements multiply with *; one is the unit, returned for e = 0.  No
    product involves one and no square is formed past the top bit of e, so
    base ** 1 is base itself."""
    result = None
    while True:
        if e & 1:
            result = base if result is None else result * base
        e >>= 1
        if not e:
            return one if result is None else result
        base = base * base


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
    if any(num):
        raise ArithmeticError("division was not exact")
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
    >>> cyclotomic_polynomial(105)[7]
    -2
    """
    if n < 1:
        raise ValueError("order must be a positive integer")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _exact_monic_div(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


# split_prime searches above this bound, so that a fixed nonzero value in
# F_p is a root of a given low-degree polynomial only by a rare accident.
_SPLIT_PRIME_FLOOR = 2 ** 30


def _is_prime(m: int) -> bool:
    # Miller-Rabin to the prime bases up to 17, which decides every odd
    # m > 17 below 3.4 * 10^14 (Jaeschke 1993); split_prime asks about
    # m > 2^30 only.
    if m >= 341_550_071_728_321:
        raise ValueError("primality bound exceeded")
    if m % 2 == 0:
        return False
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=None)
def split_prime(n: int) -> tuple[int, int]:
    """The least prime p > 2^30 with p = 1 mod n, and zeta_bar in F_p of exact order n.

    zeta_bar is a root of Phi_n modulo p, so zeta -> zeta_bar is a ring map
    from Z[zeta_n] onto F_p.  It extends to every element whose denominator
    is prime to p.  zeta_bar is a^((p-1)/n) for the least a >= 2 that gives
    exact order n.

    >>> split_prime(16)
    (1073741857, 980524046)
    >>> p, z = split_prime(1024)
    >>> p % 1024, pow(z, 1024, p), pow(z, 512, p) == p - 1
    (1, 1, True)
    """
    if n < 1:
        raise ValueError("order must be a positive integer")
    p = (_SPLIT_PRIME_FLOOR // n + 1) * n + 1
    while not _is_prime(p):
        p += n
    proper_divisors = [d for d in range(1, n) if n % d == 0]
    for a in itertools.count(2):
        z = pow(a, (p - 1) // n, p)
        if all(pow(z, d, p) != 1 for d in proper_divisors):
            return p, z


class CyclotomicField:
    """The field Q(zeta_n), presented as Q[x] / (Phi_n(x)).

    One field instance per order is shared through :func:`cyclotomic_field`;
    elements of different orders never mix silently.  The field caches its
    zero and one, and on first use the n powers of zeta, the integer
    matrices of the Galois automorphisms that ``CycloNum.inverse`` applies,
    and the residue map of ``CycloNum.mod_p``.
    """

    __slots__ = (
        "order", "minimal_polynomial", "degree", "_reduction",
        "_zero", "_one", "_powers", "_galois", "_residues",
    )

    def __init__(self, order: int):
        self.order = order
        self.minimal_polynomial = cyclotomic_polynomial(order)
        deg = self.degree = len(self.minimal_polynomial) - 1
        # x^degree = -(lower coefficients of Phi_n), since Phi_n is monic;
        # only the nonzero ones matter.
        self._reduction = tuple(
            (j, -c) for j, c in enumerate(self.minimal_polynomial[:-1]) if c
        )
        self._zero = CycloNum(self, (0,) * deg, 1)
        self._one = CycloNum(self, (1,) + (0,) * (deg - 1), 1)
        self._powers: tuple[CycloNum, ...] | None = None
        self._galois: tuple | None = None
        self._residues: tuple[int, tuple[int, ...]] | None = None

    def __repr__(self) -> str:
        return f"CyclotomicField({self.order})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CyclotomicField) and other.order == self.order

    def __hash__(self) -> int:
        return hash(("CyclotomicField", self.order))

    def element(self, coeffs) -> CycloNum:
        """The element sum c_k zeta^k from ints or Fractions c_0, c_1, ..."""
        fracs = [c if isinstance(c, int) else Fraction(c) for c in coeffs]
        if len(fracs) > self.degree:
            raise ValueError("coefficient vector longer than the field degree")
        den = 1
        for c in fracs:
            if not isinstance(c, int):
                den = den * c.denominator // gcd(den, c.denominator)
        num = [c * den if isinstance(c, int) else c.numerator * (den // c.denominator)
               for c in fracs]
        num += [0] * (self.degree - len(num))
        return canonical(self, num, den)

    def zero(self) -> CycloNum:
        return self._zero

    def one(self) -> CycloNum:
        return self._one

    def from_rational(self, value) -> CycloNum:
        """An int or a Fraction as an element of the field."""
        if not value:
            return self._zero
        return CycloNum(self, (value.numerator,) + (0,) * (self.degree - 1), value.denominator)

    def zeta(self, k: int = 1) -> CycloNum:
        """The root of unity zeta_n^k in canonical form."""
        k %= self.order
        vec = [0] * max(self.degree, k + 1)
        vec[k] = 1
        return CycloNum(self, reduce_mod_phi(vec, self), 1)

    def zeta_powers(self) -> tuple[CycloNum, ...]:
        """All n powers of zeta_n, cached; zeta_powers()[k] == zeta(k)."""
        if self._powers is None:
            self._powers = tuple(self.zeta(k) for k in range(self.order))
        return self._powers

    def residue_map(self) -> tuple[int, tuple[int, ...]]:
        """(p, images of 1, zeta, ..., zeta^(degree-1) in F_p), cached.

        p and the image of zeta come from :func:`split_prime`.
        """
        if self._residues is None:
            p, z = split_prime(self.order)
            self._residues = (p, tuple(pow(z, k, p) for k in range(self.degree)))
        return self._residues

    def _conjugation_maps(self) -> tuple:
        # For each unit k != 1 mod n, the automorphism sigma_k: zeta -> zeta^k
        # as sparse integer columns: column j holds the nonzero (i, v) of the
        # reduced zeta^(j k).
        if self._galois is None:
            n = self.order
            powers = self.zeta_powers()
            self._galois = tuple(
                tuple(
                    tuple((i, v) for i, v in enumerate(powers[j * k % n].num) if v)
                    for j in range(self.degree)
                )
                for k in range(2, n)
                if gcd(k, n) == 1
            )
        return self._galois


@functools.lru_cache(maxsize=None)
def cyclotomic_field(n: int) -> CyclotomicField:
    return CyclotomicField(n)


def check_field(field: CyclotomicField, other: CyclotomicField) -> None:
    """Raise MixedFieldsError unless other is the field itself."""
    if other is not field and other != field:
        raise MixedFieldsError(f"cannot mix Q(zeta_{field.order}) with Q(zeta_{other.order})")


def coerce(field: CyclotomicField, value):
    """The scalar value as an element of field, or NotImplemented when value
    is not a scalar, so that an operator can hand it on.

    >>> F = cyclotomic_field(16)
    >>> coerce(F, 3), coerce(F, Fraction(-1, 2)), coerce(F, F.zeta(3))
    (CycloNum(3), CycloNum(-1/2), CycloNum(z^3))
    >>> coerce(F, "3")
    NotImplemented
    >>> coerce(F, cyclotomic_field(5).zeta())
    Traceback (most recent call last):
    ...
    k3auto.cyclotomic.MixedFieldsError: cannot mix Q(zeta_16) with Q(zeta_5)
    """
    if isinstance(value, CycloNum):
        check_field(field, value.field)
        return value
    if isinstance(value, (int, Fraction)):
        return field.from_rational(value)
    return NotImplemented


def reduce_mod_phi(vec: list[int], field: CyclotomicField) -> tuple[int, ...]:
    """Reduce an integer coefficient list (constant term first, any length
    >= the field degree) modulo Phi_n, in place from the top; the first
    degree entries are returned."""
    deg = field.degree
    red = field._reduction
    for i in range(len(vec) - 1, deg - 1, -1):
        c = vec[i]
        if c:
            vec[i] = 0
            base = i - deg
            for j, r in red:
                vec[base + j] += c * r
    return tuple(vec[:deg])


def _convolve(a: tuple[int, ...], b: tuple[int, ...], field: CyclotomicField) -> tuple[int, ...]:
    # Product of two integer numerator vectors modulo Phi_n.
    conv = [0] * (2 * field.degree - 1)
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                conv[i + j] += x * y
    return reduce_mod_phi(conv, field)


def canonical(field: CyclotomicField, num, den: int) -> CycloNum:
    """The element num / den in canonical form, for reduced integer
    numerators num and den > 0: both divided through by gcd(den, *num)."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return CycloNum(field, tuple(c // g for c in num), den // g)
    return CycloNum(field, tuple(num), den)


class CycloNum:
    """An element of Q(zeta_n): integer numerators over one denominator.

    ``num`` has length phi(n) and holds the coefficients of 1, zeta, ...,
    zeta^(phi(n)-1) times ``den``.  The form is canonical: ``den > 0``,
    ``gcd(den, *num) == 1``, and zero is ``(0, ..., 0) / 1``.  Immutable;
    ``==`` and ``hash`` are structural on that form.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CyclotomicField, num: tuple[int, ...], den: int):
        self.field = field
        self.num = num
        self.den = den

    def _plus(self, other: "CycloNum", sign: int) -> "CycloNum":
        # self + sign * other over the least common denominator.
        d1, d2 = self.den, other.den
        if d1 == d2:
            s1, s2 = 1, sign
        else:
            g = gcd(d1, d2)
            s1, s2 = d2 // g, sign * (d1 // g)
        return canonical(
            self.field, [a * s1 + b * s2 for a, b in zip(self.num, other.num)], d1 * s1
        )

    def __add__(self, other):
        other = coerce(self.field, other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = coerce(self.field, other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CycloNum(self.field, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        other = coerce(self.field, other)
        if other is NotImplemented:
            return NotImplemented
        return product(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = coerce(self.field, other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int) -> "CycloNum":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return power(self, exponent, self.field.one())

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse, through the norm to Q.

        With P the product of the conjugates sigma_k(num) over the units
        k != 1 mod n, num * P is the rational integer N(num), and
        1 / (num / den) = P * den / N(num).
        """
        if self.is_zero():
            raise ZeroDivisionError("division by zero in the cyclotomic field")
        field = self.field
        num = self.num
        if self.is_rational():
            c = num[0]
            sign = 1 if c > 0 else -1
            return CycloNum(field, (sign * self.den,) + num[1:], sign * c)
        deg = field.degree
        conjugates = None
        for columns in field._conjugation_maps():
            conj = [0] * deg
            for c, column in zip(num, columns):
                if c:
                    for i, v in column:
                        conj[i] += c * v
            conjugates = (
                tuple(conj) if conjugates is None else _convolve(conjugates, conj, field)
            )
        # Q(zeta_n) for n > 2 has no real embedding and its automorphisms come
        # in complex-conjugate pairs, so the norm is a product of |sigma(num)|^2:
        # a positive integer.
        norm = _convolve(num, conjugates, field)
        if norm[0] <= 0 or any(norm[1:]):
            raise ArithmeticError(f"the norm of {self} is not a positive rational")
        return canonical(field, [c * self.den for c in conjugates], norm[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycloNum):
            other = coerce(self.field, other)
            if other is NotImplemented:
                return False
        return other.num == self.num and other.den == self.den and other.field == self.field

    def __hash__(self) -> int:
        return hash((self.field.order, self.num, self.den))

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def mod_p(self) -> int | None:
        """The image in F_p under the field's ``residue_map``, or None when p
        divides the denominator."""
        p, powers = self.field.residue_map()
        residue = sum(c * w for c, w in zip(self.num, powers))
        if self.den == 1:
            return residue % p
        if self.den % p == 0:
            return None
        return residue * pow(self.den, -1, p) % p

    def as_zeta_power(self) -> int | None:
        """The exponent k with self == zeta^k, or None.

        Decided by comparing against all n powers; n is small here.
        """
        if self.den != 1:
            return None
        for k, power in enumerate(self.field.zeta_powers()):
            if self.num == power.num:
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
        den = self.den
        parts = []
        for k, c in enumerate(self.num):
            if not c:
                continue
            mag = -c if c < 0 else c
            g = gcd(mag, den)
            p, q = mag // g, den // g
            text = str(p) if q == 1 else f"{p}/{q}"
            if k == 0:
                body = text
            else:
                sym = "z" if k == 1 else f"z^{k}"
                body = sym if text == "1" else f"{text}*{sym}"
            if not parts:
                parts.append("-" + body if c < 0 else body)
            else:
                parts.append(f" {'-' if c < 0 else '+'} {body}")
        return "".join(parts) if parts else "0"


def product(a: CycloNum, b: CycloNum) -> CycloNum:
    """a * b for two elements of one field, with no operand coercion."""
    if b.is_rational():
        c = b.num[0]
        num = [v * c for v in a.num] if c != 1 else a.num
    elif a.is_rational():
        c = a.num[0]
        num = [v * c for v in b.num] if c != 1 else b.num
    else:
        num = _convolve(a.num, b.num, a.field)
    return canonical(a.field, num, a.den * b.den)
