"""Polynomials and rational functions over Q(zeta_n) in the variables t, x, y.

Two layers:

* ``MultiPoly``: sparse polynomials in the fixed variable triple (x, y, t),
  the one polynomial type; base-curve data are MultiPoly values in t alone.
  Every stored coefficient is a nonzero ``CycloNum`` in canonical form.  The
  arithmetic kernel (``*``, ``+``, ``-``, ``exact_div``) relies on that and
  keeps it without a zero filter: a product of nonzero field elements is
  nonzero, and a sum drops its term only when it cancels.  A product of two
  polynomials with several terms each is one integer convolution per output
  term over a common denominator, reduced and canonicalised once.
* ``RationalFunction``: reduced fractions of MultiPoly in a canonical form,
  so equality is structural.

Place bookkeeping on the t-line (gcd-free bases, vanishing orders) lives here
as well.  No irreducible factorization over the coefficient field is ever
performed: a basis element of degree d stands for d geometric points sharing
identical vanishing data.
"""
from __future__ import annotations

import functools
from math import gcd

from .cyclotomic import (
    CycloNum,
    CyclotomicField,
    MixedFieldsError,
    canonical,
    check_field,
    coerce,
    power,
    product,
    reduce_mod_phi,
)

INF = float("inf")

VARS = ("x", "y", "t")
_VAR_INDEX = {"x": 0, "y": 1, "t": 2}


class ZeroInputError(ValueError):
    """A zero polynomial was passed where a nonzero one is required."""


def _fmt_terms(parts: list[tuple[bool, str]]) -> str:
    # parts: (negative?, body) pairs in print order.
    if not parts:
        return "0"
    out = []
    for i, (neg, body) in enumerate(parts):
        if i == 0:
            out.append("-" + body if neg else body)
        else:
            out.append((" - " if neg else " + ") + body)
    return "".join(out)


def _coeff_body(c: CycloNum, symbol: str) -> tuple[bool, str]:
    # Render c * symbol so that the printed form re-parses to the same value.
    neg = False
    if c.is_rational():
        q = c.as_rational()
        if q < 0:
            neg, q = True, -q
        if not symbol:
            return neg, str(q)
        if q == 1:
            return neg, symbol
        return neg, f"{q}*{symbol}"
    text = str(c)
    if not symbol:
        if " " in text or text.startswith("-"):
            return False, f"({text})"
        return False, text
    return False, f"({text})*{symbol}"


class MultiPoly:
    """Sparse polynomial in (x, y, t): exponent triples mapped to coefficients.

    The constructor drops zero coefficients, so every stored coefficient is
    nonzero, and canonical as every ``CycloNum`` is.  The arithmetic below
    builds its results through ``_of``, which trusts that invariant instead
    of filtering again.  A MultiPoly is never changed after it is built.
    A scalar operand or coefficient goes through ``cyclotomic.coerce``, so
    one of another field raises MixedFieldsError, as a MultiPoly of another
    field does.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: CyclotomicField, terms: dict):
        self.field = field
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}

    @classmethod
    def _of(cls, field: CyclotomicField, terms: dict) -> "MultiPoly":
        # terms already holds nonzero coefficients only, and is not shared.
        out = cls.__new__(cls)
        out.field = field
        out.terms = terms
        return out

    @classmethod
    def zero(cls, field):
        return cls(field, {})

    @classmethod
    def constant(cls, field, value):
        return cls.monomial(field, (0, 0, 0), value)

    # The generators and the constant 1 are built once per field and shared:
    # a MultiPoly is never changed after it is built.
    @classmethod
    @functools.lru_cache(maxsize=None)
    def gen(cls, field, var: str):
        e = [0, 0, 0]
        e[_VAR_INDEX[var]] = 1
        return cls(field, {tuple(e): field.one()})

    @classmethod
    @functools.lru_cache(maxsize=None)
    def one(cls, field):
        return cls(field, {(0, 0, 0): field.one()})

    @classmethod
    def monomial(cls, field, exponents: tuple[int, int, int], coeff):
        c = coerce(field, coeff)
        if c is NotImplemented:
            raise TypeError(f"{type(coeff).__name__} is not a scalar")
        return cls(field, {exponents: c})

    @classmethod
    def from_int_coeffs(cls, field, coeffs):
        """A polynomial in t from rational coefficients, constant term first."""
        return cls(field, {(0, 0, k): field.from_rational(c) for k, c in enumerate(coeffs)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        terms = self.terms
        return not terms or (len(terms) == 1 and (0, 0, 0) in terms)

    def constant_value(self) -> CycloNum:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms.get((0, 0, 0), self.field.zero())

    def uses_var(self, var: str) -> bool:
        idx = _VAR_INDEX[var]
        return any(e[idx] for e in self.terms)

    def degree_in(self, var: str) -> int:
        idx = _VAR_INDEX[var]
        return max((e[idx] for e in self.terms), default=-1)

    def _combine(self, other, negate: bool):
        # self + other, or self - other when negate: a term of other new to
        # self goes in as it is, and a shared term stays unless it cancels.
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            a = out.get(e)
            if a is None:
                out[e] = -c if negate else c
            else:
                a = a - c if negate else a + c
                if a.is_zero():
                    del out[e]
                else:
                    out[e] = a
        return MultiPoly._of(self.field, out)

    def __add__(self, other):
        return self._combine(other, False)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return MultiPoly._of(self.field, {e: -c for e, c in self.terms.items()})

    def _match(self, other):
        # The kernel works on numerators, which mean nothing across fields.
        if isinstance(other, MultiPoly):
            check_field(self.field, other.field)
            return other
        c = coerce(self.field, other)
        if c is NotImplemented:
            return NotImplemented
        return MultiPoly(self.field, {(0, 0, 0): c})

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            c = coerce(self.field, other)
            if c is NotImplemented:
                return NotImplemented
            if c.is_zero():
                return MultiPoly.zero(self.field)
            return _scaled(self, c)
        check_field(self.field, other.field)
        if len(other.terms) == 1:
            (e, c), = other.terms.items()
            return _scaled(self, c, e)
        if len(self.terms) == 1:
            (e, c), = self.terms.items()
            return _scaled(other, c, e)
        return _convolution(self, other)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative exponent on a polynomial")
        return power(self, n, MultiPoly.one(self.field))

    def __eq__(self, other):
        # Structural, and False across fields rather than an error.
        if not isinstance(other, MultiPoly):
            try:
                other = self._match(other)
            except MixedFieldsError:
                return False
            if other is NotImplemented:
                return NotImplemented
        return other.terms == self.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self) -> list[tuple[tuple[int, int, int], CycloNum]]:
        # Lexicographic on (x, y, t) exponents, descending: canonical order
        # for printing and hashing.
        return sorted(self.terms.items(), key=lambda item: item[0], reverse=True)

    def leading_coeff_lex(self) -> CycloNum:
        if self.is_zero():
            raise ZeroInputError("zero polynomial")
        return self.terms[max(self.terms)]

    def coeffs_in(self, var: str) -> dict[int, "MultiPoly"]:
        """View as a polynomial in var: exponent -> coefficient MultiPoly."""
        idx = _VAR_INDEX[var]
        out: dict[int, dict] = {}
        for e, c in self.terms.items():
            rest = list(e)
            rest[idx] = 0
            out.setdefault(e[idx], {})[tuple(rest)] = c
        return {k: MultiPoly._of(self.field, v) for k, v in out.items()}

    def derivative(self, var: str) -> "MultiPoly":
        idx = _VAR_INDEX[var]
        out = {}
        for e, c in self.terms.items():
            k = e[idx]
            if k:
                e2 = list(e)
                e2[idx] = k - 1
                out[tuple(e2)] = c * k
        return MultiPoly(self.field, out)

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact multivariate division; raises ArithmeticError when not exact."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        check_field(self.field, divisor.field)
        if divisor.is_constant():
            return _scaled(self, divisor.constant_value().inverse())
        # The remainder lives in one dict; each quotient term cancels its
        # leading term exactly and updates the terms below it in place: a
        # term new to the remainder goes in as it is, and a shared term
        # leaves only when it cancels.
        rem = dict(self.terms)
        quo: dict = {}
        de = max(divisor.terms)
        dc_inv = divisor.terms[de].inverse()
        lower = [(e, c) for e, c in divisor.terms.items() if e != de]
        while rem:
            re = max(rem)
            qe = (re[0] - de[0], re[1] - de[1], re[2] - de[2])
            if min(qe) < 0:
                raise ArithmeticError("division is not exact")
            qc = product(rem.pop(re), dc_inv)
            quo[qe] = qc
            for e, c in lower:
                k = (e[0] + qe[0], e[1] + qe[1], e[2] + qe[2])
                v = rem.get(k)
                if v is None:
                    rem[k] = -product(qc, c)
                else:
                    v = v - product(qc, c)
                    if v.is_zero():
                        del rem[k]
                    else:
                        rem[k] = v
        return MultiPoly._of(self.field, quo)

    def __repr__(self):
        return f"MultiPoly({self})"

    def __str__(self):
        parts = []
        for e, c in self.sorted_terms():
            syms = []
            for name, k in zip(VARS, e):
                if k == 1:
                    syms.append(name)
                elif k > 1:
                    syms.append(f"{name}^{k}")
            parts.append(_coeff_body(c, "*".join(syms)))
        return _fmt_terms(parts)


# The benchmark (perfbench/workloads.py) imports the polynomial type under
# this name.
UniPoly = MultiPoly


def _scaled(p: MultiPoly, c: CycloNum, shift=None) -> MultiPoly:
    # p * c * monomial(shift) for a nonzero scalar c of p's field: a product
    # of nonzero field elements is nonzero, so every term stays.
    one = c.den == 1 and c.num[0] == 1 and c.is_rational()
    if shift is None or not any(shift):
        if one:
            return p
        return MultiPoly._of(p.field, {e: product(v, c) for e, v in p.terms.items()})
    x, y, t = shift
    return MultiPoly._of(p.field, {
        (e[0] + x, e[1] + y, e[2] + t): v if one else product(v, c)
        for e, v in p.terms.items()
    })


def _numerators(p: MultiPoly) -> tuple[int, list]:
    # p's coefficients over one common denominator den: (den, [(exponents,
    # [(i, numerator of zeta^i), ...]), ...]) with the nonzero entries only.
    den = 1
    for c in p.terms.values():
        d = c.den
        if den % d:
            den = den // gcd(den, d) * d
    return den, [
        (e, [(i, v * (den // c.den)) for i, v in enumerate(c.num) if v])
        for e, c in p.terms.items()
    ]


def _convolution(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    # p * q where neither factor is a single term: the unreduced
    # convolutions of integer numerators accumulate per output exponent, and
    # each output term is reduced modulo Phi_n and made canonical once.
    field = p.field
    dp, a = _numerators(p)
    dq, b = _numerators(q)
    width = 2 * field.degree - 1
    acc: dict = {}
    for (x1, y1, t1), s1 in a:
        for (x2, y2, t2), s2 in b:
            e = (x1 + x2, y1 + y2, t1 + t2)
            conv = acc.get(e)
            if conv is None:
                conv = acc[e] = [0] * width
            for i, u in s1:
                for j, v in s2:
                    conv[i + j] += u * v
    den = dp * dq
    out = {}
    for e, conv in acc.items():
        num = reduce_mod_phi(conv, field)
        if any(num):
            out[e] = canonical(field, num, den)
    return MultiPoly._of(field, out)


_GCD_VAR_ORDER = ("y", "x", "t")


def _normalized(p: MultiPoly) -> MultiPoly:
    # Scaled so the lex-leading coefficient is 1: monic for a polynomial in t.
    if p.is_zero():
        return p
    lead = p.leading_coeff_lex()
    return p if lead == p.field.one() else p * lead.inverse()


def _content(p: MultiPoly, var: str) -> MultiPoly:
    idx = _VAR_INDEX[var]
    if p.terms and all(sum(e) == e[idx] for e in p.terms):
        # Nonzero and in var alone: the coefficients are units of the field.
        return MultiPoly.one(p.field)
    acc = MultiPoly.zero(p.field)
    for coeff in p.coeffs_in(var).values():
        acc = multi_gcd(acc, coeff)
        if acc.is_constant() and not acc.is_zero():
            break
    return acc


def _prem(a: MultiPoly, b: MultiPoly, var: str) -> MultiPoly:
    # Pseudo-remainder lb^(da - db + 1) * a mod b in the main variable var;
    # stays polynomial.  The exact power of lb matters: the subresultant
    # sequence divides by it.  Each step reads r's degree and leading terms in
    # one pass; they become lr * var^(dr - db) by shifting exponents.
    idx = _VAR_INDEX[var]
    field = a.field
    db = b.degree_in(var)
    lb = b.coeffs_in(var)[db]
    missing = a.degree_in(var) - db + 1
    r = a
    while r.terms:
        dr, lead = -1, []
        for e, c in r.terms.items():
            if e[idx] > dr:
                dr, lead = e[idx], []
            if e[idx] == dr:
                lead.append((e, c))
        if dr < db:
            break
        shift = dr - db
        lr = {}
        for e, c in lead:
            e = list(e)
            e[idx] = shift
            lr[tuple(e)] = c
        r = r * lb - b * MultiPoly._of(field, lr)
        missing -= 1
    if missing > 0 and r.terms:
        r = r * lb ** missing
    return r


def _monomial_content(p: MultiPoly) -> tuple[int, int, int]:
    mins = [min(e[i] for e in p.terms) for i in range(3)]
    return (mins[0], mins[1], mins[2])


def _subresultant_gcd(p: MultiPoly, q: MultiPoly, var: str) -> MultiPoly:
    # GCD of the var-primitive parts, by the subresultant PRS: growth is
    # controlled by exact divisions instead of recursive content gcds.
    field = p.field
    one = MultiPoly.one(field)
    a, b = (p, q) if p.degree_in(var) >= q.degree_in(var) else (q, p)
    g = one
    h = one
    while True:
        delta = a.degree_in(var) - b.degree_in(var)
        r = _prem(a, b, var)
        if r.is_zero():
            break
        if r.degree_in(var) == 0:
            return one
        a, b = b, r.exact_div(g * h ** delta)
        g = a.coeffs_in(var)[a.degree_in(var)]
        if delta == 1:
            h = g
        elif delta > 1:
            h = (g ** delta).exact_div(h ** (delta - 1))
    return b.exact_div(_content(b, var))


# Where coprime_mod_p evaluates the variables other than the main one,
# indexed like the exponent triples (x, y, t).
_EVAL_POINTS = (1_000_003, 2_000_029, 3_000_017)


def _image_mod_p(p: MultiPoly, var: str, prime: int) -> list[int] | None:
    # p in F_p[var], constant term first, with deg_var(p) + 1 entries: each
    # coefficient through CycloNum.mod_p, the other variables at
    # _EVAL_POINTS.  None when the prime divides a coefficient denominator.
    idx = _VAR_INDEX[var]
    out = [0] * (p.degree_in(var) + 1)
    for e, c in p.terms.items():
        v = c.mod_p()
        if v is None:
            return None
        for i, k in enumerate(e):
            if k and i != idx:
                v = v * pow(_EVAL_POINTS[i], k, prime) % prime
        out[e[idx]] = (out[e[idx]] + v) % prime
    return out


def _gcd_degree_mod_p(a: list[int], b: list[int], prime: int) -> int:
    # Degree of gcd(a, b) in F_p[var] by Euclid's algorithm, -1 when both
    # are 0; coefficient lists constant term first.
    a, b = list(a), list(b)
    while a and not a[-1]:
        a.pop()
    while b and not b[-1]:
        b.pop()
    while b:
        db = len(b) - 1
        inv = pow(b[-1], -1, prime)
        while len(a) > db:
            c = a.pop() * inv % prime
            shift = len(a) - db
            for i in range(db):
                a[shift + i] = (a[shift + i] - c * b[i]) % prime
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def coprime_mod_p(p: MultiPoly, q: MultiPoly, var: str) -> bool:
    """True only when gcd(p, q) is proved to have degree 0 in var.

    Both sides go to F_p[var] by a ring map phi: zeta to the image in
    ``CyclotomicField.residue_map``, the other variables to fixed points.
    phi is defined on the coefficients whose denominators the prime does
    not divide, a discrete valuation ring R (Z[zeta] localised at the
    kernel of zeta -> zeta_bar).  By Gauss's lemma over R, g = gcd(p, q), scaled to
    be primitive over R, divides p and q in R[x, y, t], so phi g divides
    phi p and phi q.  When phi keeps the leading coefficient in var of p
    (or of q), it keeps that of g, so deg gcd(phi p, phi q) >= deg_var g:
    an image gcd of degree 0 is a proof (Brown's degree bound, 1971).  A
    vanishing leading coefficient, the prime dividing a denominator or an
    image gcd of positive degree proves nothing, and the answer is False.
    """
    prime = p.field.residue_map()[0]
    a = _image_mod_p(p, var, prime)
    b = _image_mod_p(q, var, prime)
    if a is None or b is None or not (a[-1] or b[-1]):
        return False
    return _gcd_degree_mod_p(a, b, prime) == 0


def multi_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """GCD in Q(zeta)[x, y, t], normalized so the lex-leading coefficient is 1.

    Subresultant pseudo-remainder sequences with the main variable chosen in
    the fixed order y, x, t; common monomial factors are split off first.
    Primitive parts that ``coprime_mod_p`` proves coprime skip the sequence.
    """
    if p.is_zero():
        return _normalized(q)
    if q.is_zero():
        return _normalized(p)
    # Common monomial part, handled cheaply up front.
    mp = _monomial_content(p)
    mq = _monomial_content(q)
    shared = tuple(min(a, b) for a, b in zip(mp, mq))
    if any(shared):
        field = p.field
        mono = MultiPoly.monomial(field, shared, field.one())
        p = p.exact_div(mono)
        q = q.exact_div(mono)
        return _normalized(mono * multi_gcd(p, q))
    var = next(
        (v for v in _GCD_VAR_ORDER if p.uses_var(v) or q.uses_var(v)),
        None,
    )
    if var is None:
        return MultiPoly.one(p.field)
    if not (p.uses_var(var) and q.uses_var(var)):
        # One side is free of the main variable: the gcd divides that side's
        # content, so recurse on the content directly.
        if p.uses_var(var):
            return multi_gcd(_content(p, var), q)
        return multi_gcd(p, _content(q, var))
    cp = _content(p, var)
    cq = _content(q, var)
    c = multi_gcd(cp, cq)
    p, q = p.exact_div(cp), q.exact_div(cq)
    if coprime_mod_p(p, q, var):
        return _normalized(c)
    return _normalized(c * _subresultant_gcd(p, q, var))


def squarefree_decomposition(p: MultiPoly) -> list[tuple[MultiPoly, int]]:
    """Yun's decomposition of a polynomial in t: p = unit * prod q_k^k with the
    q_k squarefree and coprime.

    Only the nonconstant q_k are returned, each monic with its multiplicity.
    """
    if p.is_zero():
        raise ZeroInputError("squarefree decomposition of the zero polynomial")
    out: list[tuple[MultiPoly, int]] = []
    if p.is_constant():
        return out
    deriv = p.derivative("t")
    a = multi_gcd(p, deriv)
    b = p.exact_div(a)
    d = deriv.exact_div(a) - b.derivative("t")
    k = 1
    while not b.is_constant():
        g = multi_gcd(b, d)
        if not g.is_constant():
            out.append((g, k))
        b = b.exact_div(g)
        d = d.exact_div(g) - b.derivative("t")
        k += 1
    return out


class PlacePoly:
    """A place of the base line: a monic squarefree polynomial in t, or infinity."""

    __slots__ = ("poly",)

    def __init__(self, poly: MultiPoly | None):
        if poly is not None:
            if poly.is_constant():
                raise ValueError("a finite place needs a nonconstant polynomial")
            poly = _normalized(poly)
        self.poly = poly

    @property
    def is_infinite(self) -> bool:
        return self.poly is None

    def degree(self) -> int:
        return 1 if self.poly is None else self.poly.degree_in("t")

    def __eq__(self, other):
        return isinstance(other, PlacePoly) and other.poly == self.poly

    def __hash__(self):
        return hash(("PlacePoly", self.poly))

    def __repr__(self):
        return f"PlacePoly({self})"

    def __str__(self):
        return "infinity" if self.poly is None else str(self.poly)


def vanishing_order(p: MultiPoly, place: MultiPoly | PlacePoly) -> int | float:
    """Largest e with place^e dividing p; INF for the zero polynomial."""
    if isinstance(place, PlacePoly):
        if place.is_infinite:
            raise ValueError("vanishing_order handles finite places only")
        place = place.poly
    if place.is_constant():
        raise ValueError("a place must be a nonconstant polynomial")
    if p.is_zero():
        return INF
    order = 0
    while True:
        try:
            p = p.exact_div(place)
        except ArithmeticError:
            return order
        order += 1


def gcd_free_basis(polys: list[MultiPoly]) -> list[tuple[PlacePoly, tuple[int, ...]]]:
    """Pairwise-coprime squarefree factors with exact exponents.

    Returns [(place, (e_1, ..., e_m))] such that each input P_j, a polynomial
    in t, equals a unit times the product of place^e_j over the basis, and
    the vanishing order of P_j at every root of a basis element is exactly
    the listed exponent.
    """
    if not polys:
        return []
    for p in polys:
        if p.is_zero():
            raise ZeroInputError("gcd_free_basis requires nonzero inputs")
    # Each input's Yun factors, with the multiplicity in that input's slot:
    # roots of different multiplicity are already separated within one
    # input; refinement then separates them across inputs.
    queue = []
    for j, p in enumerate(polys):
        for q, mult in squarefree_decomposition(p):
            exps = [0] * len(polys)
            exps[j] = mult
            queue.append((q, exps))
    # Refine to a pairwise coprime set.  Every input stays the product of
    # part^exps[j] over the queue and the basis: splitting f = d f' and
    # g = d g' gives d the sum of both vectors.  The parts are monic and
    # squarefree, so every split stays so; the degree multiset strictly
    # decreases.
    basis: list[tuple[MultiPoly, list[int]]] = []
    while queue:
        f, ef = queue.pop()
        for i, (g, eg) in enumerate(basis):
            d = multi_gcd(f, g)
            if d.is_constant():
                continue
            basis[i] = (d, [a + b for a, b in zip(ef, eg)])
            rest_g = g.exact_div(d)
            if not rest_g.is_constant():
                queue.append((rest_g, eg))
            f = f.exact_div(d)
            if f.is_constant():
                break
        if not f.is_constant():
            basis.append((f, ef))
    basis.sort(key=lambda part: str(part[0]))
    return [(PlacePoly(f), tuple(exps)) for f, exps in basis]


class RationalFunction:
    """A reduced fraction of MultiPoly values.

    The constructor cancels the gcd and scales the denominator so its
    lex-leading coefficient is 1, which makes the representation canonical;
    equality and hashing compare (num, den) directly.  Arithmetic on reduced
    operands cancels the way Henrici does (Knuth, TAOCP vol. 2, 4.5.1): it
    takes gcds of the smaller cross pairs only and builds its result with
    ``_coprime``, which skips the gcd of the full product.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            den = MultiPoly.one(num.field)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in a rational function")
        if not (num.is_zero() or den.is_constant()):
            g = multi_gcd(num, den)
            if not g.is_constant():
                num = num.exact_div(g)
                den = den.exact_div(g)
        self._store(num, den)

    @classmethod
    def _coprime(cls, num: MultiPoly, den: MultiPoly) -> "RationalFunction":
        # num / den with gcd(num, den) = 1 already: only normalize.
        out = cls.__new__(cls)
        out._store(num, den)
        return out

    def _store(self, num: MultiPoly, den: MultiPoly) -> None:
        # Scale so the lex-leading coefficient of den is 1; zero is 0/1.
        field = num.field
        if num.is_zero():
            den = MultiPoly.one(field)
        else:
            lead = den.leading_coeff_lex()
            if lead != field.one():
                scale = lead.inverse()
                num = num * scale
                den = den * scale
        self.num = num
        self.den = den

    @property
    def field(self):
        return self.num.field

    @classmethod
    def constant(cls, field, value):
        return cls._coprime(MultiPoly.constant(field, value), MultiPoly.one(field))

    @classmethod
    def gen(cls, field, var: str):
        return cls(MultiPoly.gen(field, var))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> CycloNum:
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        return self.num.constant_value() / self.den.constant_value()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def as_poly(self) -> MultiPoly:
        if not self.is_polynomial():
            raise ValueError("denominator is not constant")
        return self.num * self.den.constant_value().inverse()

    def uses_only(self, *vars: str) -> bool:
        allowed = set(vars)
        return all(
            not (self.num.uses_var(v) or self.den.uses_var(v))
            for v in VARS
            if v not in allowed
        )

    def _match(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, MultiPoly):
            return RationalFunction(other)
        c = coerce(self.field, other)
        if c is NotImplemented:
            return NotImplemented
        return RationalFunction.constant(self.field, c)

    def _plus(self, c: MultiPoly, d: MultiPoly) -> "RationalFunction":
        # a/b + c/d with both fractions reduced.  With g = gcd(b, d), any
        # common factor of the sum's numerator t and its denominator divides
        # g, so gcd(t, g) is the only other gcd needed.
        a, b = self.num, self.den
        if c.is_zero():
            return self
        if a.is_zero():
            return RationalFunction._coprime(c, d)
        # Denominators are monic, so a constant one is 1.
        if b.is_constant():
            return RationalFunction._coprime(a + c if d.is_constant() else a * d + c, d)
        if d.is_constant():
            return RationalFunction._coprime(a + c * b, b)
        g = multi_gcd(b, d)
        if g.is_constant():
            return RationalFunction._coprime(a * d + c * b, b * d)
        b_g = b.exact_div(g)
        t = a * d.exact_div(g) + c * b_g
        if not t.is_constant():
            g2 = multi_gcd(t, g)
            if not g2.is_constant():
                t = t.exact_div(g2)
                d = d.exact_div(g2)
        return RationalFunction._coprime(t, b_g * d)

    def _times(self, c: MultiPoly, d: MultiPoly, d_monic: bool = True) -> "RationalFunction":
        # (a/b)(c/d) with gcd(a, b) = gcd(c, d) = 1: only the cross pairs
        # (a, d) and (c, b) can share a factor.  b is monic, and so is d
        # unless d_monic is False, so a constant one of them is 1.
        a, b = self.num, self.den
        if a.is_zero() or c.is_zero():
            return RationalFunction._coprime(MultiPoly.zero(a.field), b)
        if not (a.is_constant() or d.is_constant()):
            g1 = multi_gcd(a, d)
            if not g1.is_constant():
                a = a.exact_div(g1)
                d = d.exact_div(g1)
        if not (c.is_constant() or b.is_constant()):
            g2 = multi_gcd(c, b)
            if not g2.is_constant():
                c = c.exact_div(g2)
                b = b.exact_div(g2)
        if b.is_constant():
            den = d
        elif d_monic and d.is_constant():
            den = b
        else:
            den = b * d
        return RationalFunction._coprime(a * c, den)

    def __add__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other.num, other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(-other.num, other.den)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RationalFunction._coprime(-self.num, self.den)

    def __mul__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        return self._times(other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._match(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return self._times(other.den, other.num, d_monic=False)

    def __rtruediv__(self, other):
        return RationalFunction.constant(self.field, other) / self

    def __pow__(self, n: int):
        # A power of a reduced fraction is reduced.
        if n < 0:
            return (1 / self) ** (-n)
        return RationalFunction._coprime(self.num ** n, self.den ** n)

    def __eq__(self, other):
        try:
            other = self._match(other)
        except MixedFieldsError:
            return False
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def derivative(self, var: str) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative(var) * self.den - self.num * self.den.derivative(var),
            self.den * self.den,
        )

    def __repr__(self):
        return f"RationalFunction({self})"

    def __str__(self):
        if self.is_polynomial():
            return str(self.as_poly())
        return f"({self.num})/({self.den})"
