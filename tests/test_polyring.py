import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3auto import polyring
from k3auto.cyclotomic import CycloNum, MixedFieldsError, cyclotomic_field
from k3auto.polyring import (
    INF,
    MultiPoly,
    PlacePoly,
    RationalFunction,
    ZeroInputError,
    coprime_mod_p,
    gcd_free_basis,
    multi_gcd,
    vanishing_order,
)

F = cyclotomic_field(16)
T = MultiPoly.gen(F, "t")
ZERO = MultiPoly.zero(F)


def upoly(*int_coeffs):
    return MultiPoly.from_int_coeffs(F, int_coeffs)


def divides(d, p):
    try:
        p.exact_div(d)
    except ArithmeticError:
        return False
    return True


def test_polynomial_in_t_basic_arithmetic():
    p = T ** 2 - 1
    q = T + 1
    assert p == (T - 1) * (T + 1)
    assert p.exact_div(q) == T - 1
    assert (p * q).degree_in("t") == 3
    assert (p - p).is_zero()
    assert upoly(1, 0, -2) == 1 - 2 * T ** 2
    with pytest.raises(ArithmeticError):
        p.exact_div(T + 2)


def test_multi_gcd_in_t_examples():
    assert multi_gcd(T ** 2 - 1, T ** 3 - 1) == T - 1
    assert multi_gcd(T ** 4 - 1, T) == upoly(1)
    p = upoly(2, 0, 4)  # 2 + 4t^2, monic form t^2 + 1/2
    assert multi_gcd(p, ZERO) == p * Fraction(1, 4)
    assert multi_gcd(ZERO, ZERO).is_zero()


def test_multi_gcd_in_t_recurses_only_for_the_content_gcd(monkeypatch):
    # A nonzero polynomial in t alone has content 1, so no gcd is spent on it.
    calls = []
    inner = polyring.multi_gcd

    def counted(p, q):
        calls.append((p, q))
        return inner(p, q)

    monkeypatch.setattr(polyring, "multi_gcd", counted)
    assert polyring.multi_gcd(T ** 2 - 1, T ** 3 - 1) == T - 1
    assert len(calls) == 2


def test_gcd_divides_and_is_maximal():
    rng = random.Random(7)
    for _ in range(15):
        a = upoly(*[rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
        b = upoly(*[rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
        c = upoly(*[rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        g = multi_gcd(a * c, b * c)
        assert divides(g, a * c)
        assert divides(g, b * c)
        # any common divisor divides it: c is a common divisor
        assert divides(c, g)


def test_vanishing_order_examples():
    p = T ** 7 - T ** 3  # t^3 (t^4 - 1)
    assert vanishing_order(p, T) == 3
    assert vanishing_order(p, T ** 4 - 1) == 1
    assert vanishing_order(ZERO, T) == INF
    with pytest.raises(ValueError):
        vanishing_order(p, upoly(2))


def test_vanishing_order_additivity():
    f = T ** 2 + 1
    p = f ** 3 * (T - 1)
    q = f * T
    assert vanishing_order(p * q, f) == vanishing_order(p, f) + vanishing_order(q, f)


def test_gcd_free_basis_model_discriminant():
    # Inputs built by explicit multiplication: t^9 (t^4-1)^3 and t^3 (t^4-1).
    big = T ** 9 * (T ** 4 - 1) ** 3
    small = T ** 3 * (T ** 4 - 1)
    basis = gcd_free_basis([big, small])
    as_dict = {str(place): exps for place, exps in basis}
    assert as_dict == {"t": (9, 3), "t^4 - 1": (3, 1)}


def test_gcd_free_basis_simple_cases():
    basis = gcd_free_basis([T ** 2])
    assert [(str(p), e) for p, e in basis] == [("t", (2,))]
    basis = gcd_free_basis([T ** 2 - 1, T - 1])
    assert {str(p): e for p, e in basis} == {"t - 1": (1, 1), "t + 1": (1, 0)}
    with pytest.raises(ZeroInputError):
        gcd_free_basis([ZERO])


def _assert_basis_invariants(inputs, basis):
    polys = [place.poly for place, _ in basis]
    # pairwise coprime and squarefree
    for i in range(len(polys)):
        assert multi_gcd(polys[i], polys[i].derivative("t")).is_constant()
        for j in range(i + 1, len(polys)):
            assert multi_gcd(polys[i], polys[j]).is_constant()
    # reconstruction: unit * prod f_i^{e_ij} == P_j
    for j, poly in enumerate(inputs):
        rebuilt = MultiPoly.constant(F, 1)
        for place, exps in basis:
            rebuilt = rebuilt * place.poly ** exps[j]
        assert poly.exact_div(rebuilt).is_constant()


def test_gcd_free_basis_reconstruction_random():
    rng = random.Random(2024)
    atoms = [T, T - 1, T + 1, T ** 2 + 1, T ** 2 + T + 1]
    for _ in range(10):
        inputs = []
        for _ in range(rng.randint(1, 3)):
            poly = upoly(rng.choice([1, 2, -1]))
            for atom in atoms:
                poly = poly * atom ** rng.randint(0, 3)
            if poly.is_constant():
                poly = poly * atoms[0]
            inputs.append(poly)
        _assert_basis_invariants(inputs, gcd_free_basis(inputs))


def test_gcd_free_basis_exponents_match_vanishing_orders():
    # Differential: the exponents gcd_free_basis tracks through its
    # refinement against vanishing_order's repeated division.  The atoms
    # overlap (t^2 - 1 and t - 1, t^4 - 1 and t^2 + 1), so parts of different
    # inputs split and merge; coefficients are rational and in Q(zeta_16).
    rng = random.Random(808)
    z = F.zeta(1)
    atoms = [
        T, T - 1, T ** 2 - 1, T ** 2 + 1, T ** 4 - 1,
        T - z, T ** 2 + z ** 3 * T - Fraction(1, 2), T + z ** 5 + 2,
    ]
    for _ in range(60):
        inputs = []
        for _ in range(rng.randint(1, 3)):
            poly = MultiPoly.constant(F, z ** rng.randrange(16) * rng.choice((1, -2, Fraction(3, 5))))
            for atom in rng.sample(atoms, rng.randint(1, 4)):
                poly = poly * atom ** rng.randint(1, 3)
            inputs.append(poly)
        basis = gcd_free_basis(inputs)
        for place, exps in basis:
            assert exps == tuple(vanishing_order(p, place) for p in inputs)
            assert any(exps)
        _assert_basis_invariants(inputs, basis)


def test_place_poly_invariants():
    place = PlacePoly(2 * (T - 1))
    assert str(place) == "t - 1"
    assert place.degree() == 1
    with pytest.raises(ValueError):
        PlacePoly(MultiPoly.constant(F, 3))


def test_multipoly_arithmetic_and_views():
    x = MultiPoly.gen(F, "x")
    y = MultiPoly.gen(F, "y")
    t = MultiPoly.gen(F, "t")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.degree_in("x") == 2
    q = x ** 2 * t + x * t ** 2 + 1
    views = q.coeffs_in("x")
    assert views[2] == t
    assert views[1] == t ** 2
    assert views[0] == MultiPoly.constant(F, 1)


def test_multipoly_exact_div():
    x = MultiPoly.gen(F, "x")
    t = MultiPoly.gen(F, "t")
    a = (x + t) ** 2 * (x - t)
    quo = a.exact_div(x + t)
    assert quo == (x + t) * (x - t)
    with pytest.raises(ArithmeticError):
        (x + 1).exact_div(t)


def test_multi_gcd():
    x = MultiPoly.gen(F, "x")
    y = MultiPoly.gen(F, "y")
    t = MultiPoly.gen(F, "t")
    g = multi_gcd((x + t) * (y - 1), (x + t) * (y + 1))
    assert g == x + t
    g = multi_gcd(x * y * t, x ** 2 * t ** 3)
    assert g == x * t
    assert multi_gcd(x + 1, t + 1).is_constant()


def test_multi_gcd_when_a_pseudo_remainder_drops_several_degrees():
    # Both inputs are polynomials in x^2, so each pseudo-division step in x
    # drops two degrees; the subresultant divisions are exact only when the
    # pseudo-remainder still carries the full power lc^(deg a - deg b + 1).
    x = MultiPoly.gen(F, "x")
    t = MultiPoly.gen(F, "t")
    z = F.zeta(1)
    third = Fraction(1, 3)
    p = (
        x ** 6 * t ** 4 * (-third * z)
        + x ** 4 * t ** 6 * (-2 * third * z ** 4 - z ** 6)
        + x ** 4 * t ** 2 * (-third * z ** 3)
        + x ** 2 * t ** 4 * (-2 * third * z ** 6)
    )
    q = (
        x ** 8 * t ** 2
        + x ** 6 * t ** 4 * (2 * z ** 3)
        + x ** 4 * t ** 6 * (-3 * z ** 6)
        + x ** 2 * t ** 8 * (4 * z)
        + t ** 10 * (-4 * z ** 4)
    )
    g = multi_gcd(p, q)
    assert g == t ** 2
    assert multi_gcd(p.exact_div(g), q.exact_div(g)).is_constant()


def test_rational_function_reduction_and_equality():
    x = MultiPoly.gen(F, "x")
    t = MultiPoly.gen(F, "t")
    r = RationalFunction((x ** 2 - t ** 2), (x - t))
    assert r.is_polynomial()
    assert r.as_poly() == x + t
    a = RationalFunction(x, t)
    b = RationalFunction(x * (x + 1), t * (x + 1))
    assert a == b
    assert a + a == RationalFunction(x * 2, t)
    assert (a - a).is_zero()
    assert a * RationalFunction(t, x) == RationalFunction.constant(F, 1)


def test_rational_function_derivative_leibniz():
    rng = random.Random(5)
    x = MultiPoly.gen(F, "x")
    t = MultiPoly.gen(F, "t")
    pool = [RationalFunction(x + 1, t), RationalFunction(t ** 2, x), RationalFunction(x * t + 1)]
    for _ in range(6):
        f = rng.choice(pool)
        g = rng.choice(pool)
        for var in ("x", "t"):
            lhs = (f * g).derivative(var)
            rhs = f.derivative(var) * g + f * g.derivative(var)
            assert lhs == rhs


def _random_multipoly(rng, max_terms=3):
    x, y, t = (MultiPoly.gen(F, v) for v in "xyt")
    out = MultiPoly.zero(F)
    for _ in range(rng.randint(1, max_terms)):
        coeff = F.zeta(rng.randrange(16)) * rng.choice((-2, -1, 1, 3))
        out = out + x ** rng.randint(0, 2) * y ** rng.randint(0, 1) * t ** rng.randint(0, 2) * coeff
    return out


def _random_nonzero_multipoly(rng):
    while True:
        p = _random_multipoly(rng)
        if not p.is_zero():
            return p


def _reference_exact_div(a, divisor):
    # Plain long division: the remainder is a new MultiPoly after every
    # quotient term.  exact_div updates one dict instead.
    if divisor.is_constant():
        return a * divisor.constant_value().inverse()
    rem = a
    quo = {}
    de = max(divisor.terms)
    dc_inv = divisor.terms[de].inverse()
    while not rem.is_zero():
        re = max(rem.terms)
        qe = (re[0] - de[0], re[1] - de[1], re[2] - de[2])
        if min(qe) < 0:
            raise ArithmeticError("division is not exact")
        qc = rem.terms[re] * dc_inv
        quo[qe] = qc
        rem = rem - MultiPoly.monomial(F, qe, qc) * divisor
    return MultiPoly(F, quo)


def _division_outcome(divide, a, divisor):
    try:
        return divide(a, divisor)
    except ArithmeticError:
        return "inexact"


def test_exact_div_matches_reference_loop():
    rng = random.Random(41)
    inexact = 0
    for _ in range(150):
        divisor = _random_nonzero_multipoly(rng)
        a = _random_multipoly(rng) * divisor
        if rng.random() < 0.5:
            a = a + _random_nonzero_multipoly(rng)
        want = _division_outcome(_reference_exact_div, a, divisor)
        assert _division_outcome(MultiPoly.exact_div, a, divisor) == want
        inexact += want == "inexact"
    assert 40 < inexact < 110


def test_rational_function_equality_agrees_with_cross_multiplication():
    # Equality is structural on the canonical (num, den); cross multiplication
    # is the reference.  Half the pairs are equal by construction.
    rng = random.Random(11)
    for _ in range(40):
        p = _random_multipoly(rng)
        q = _random_nonzero_multipoly(rng)
        a = RationalFunction(p, q)
        if rng.random() < 0.5:
            h = _random_nonzero_multipoly(rng)
            b = RationalFunction(p * h, q * h)
            assert a == b
        else:
            b = RationalFunction(_random_multipoly(rng), _random_nonzero_multipoly(rng))
        assert (a == b) == (a.num * b.den == b.num * a.den)
        if a == b:
            assert hash(a) == hash(b)
        assert -a == RationalFunction(-p, q)
        assert (-a == b) == ((-a.num) * b.den == b.num * a.den)


# Differential test of RationalFunction arithmetic.  The operators cancel
# only the cross pairs of reduced operands; the reference below builds each
# result from the full product and lets the constructor cancel one gcd of it.
def _ref_sum(f, g, sign=1):
    return RationalFunction(f.num * g.den + g.num * f.den * sign, f.den * g.den)


def _ref_product(f, g):
    return RationalFunction(f.num * g.num, f.den * g.den)


def _ref_quotient(f, g):
    return RationalFunction(f.num * g.den, f.den * g.num)


def _ref_power(f, n):
    base = f if n >= 0 else RationalFunction(f.den, f.num)
    out = RationalFunction.constant(F, 1)
    for _ in range(abs(n)):
        out = _ref_product(out, base)
    return out


def _xt_poly(rng, max_terms=2):
    x, t = MultiPoly.gen(F, "x"), MultiPoly.gen(F, "t")
    while True:
        out = MultiPoly.zero(F)
        for _ in range(rng.randint(1, max_terms)):
            coeff = F.zeta(rng.randrange(16)) * rng.choice((-2, -1, 1, 3))
            out = out + x ** rng.randint(0, 2) * t ** rng.randint(0, 2) * coeff
        if not out.is_zero():
            return out


def _fraction_pairs(rng):
    # Yields (f, g) over Q(zeta_16) in x and t, one family per case.
    def frac(den_factor=None):
        den = _xt_poly(rng)
        return RationalFunction(_xt_poly(rng), den if den_factor is None else den * den_factor)

    for _ in range(6):
        # Operands entered with a shared factor, (p*h)/(q*h).
        h = _xt_poly(rng)
        yield (
            RationalFunction(_xt_poly(rng) * h, _xt_poly(rng) * h),
            RationalFunction(_xt_poly(rng) * h, _xt_poly(rng)),
        )
        # Denominators that share a factor.
        s = _xt_poly(rng)
        yield frac(s), frac(s * s if rng.random() < 0.5 else s)
        # A numerator of one side shares a factor with the other denominator.
        yield RationalFunction(_xt_poly(rng) * s, _xt_poly(rng)), frac(s)
        # One side polynomial, in either order.
        p = RationalFunction(_xt_poly(rng, 3))
        yield (frac(), p) if rng.random() < 0.5 else (p, frac())
        # g = h - f, so f + g cancels f's denominator down to h's: a
        # fraction, a polynomial, a nonzero constant or zero.
        f = frac(s)
        target = rng.choice((frac(), frac(s), RationalFunction(_xt_poly(rng, 3))))
        for h in (target, RationalFunction.constant(F, rng.choice((0, 2, -3)))):
            yield f, _ref_sum(h, f, -1)
        # Division by a numerator whose lex-leading coefficient is not 1.
        yield frac(), RationalFunction(_xt_poly(rng, 3) * (F.zeta(3) * 5), _xt_poly(rng))


def _same(got, want):
    assert (got.num, got.den) == (want.num, want.den)
    assert str(got) == str(want)


def test_rational_function_arithmetic_matches_full_gcd_reference():
    rng = random.Random(23)
    pairs = list(_fraction_pairs(rng))
    assert any((f + g).is_constant() for f, g in pairs)
    assert any((f + g).is_zero() for f, g in pairs)
    for f, g in pairs:
        _same(f + g, _ref_sum(f, g))
        _same(g + f, _ref_sum(f, g))
        _same(f - g, _ref_sum(f, g, -1))
        _same(f * g, _ref_product(f, g))
        if not g.is_zero():
            _same(f / g, _ref_quotient(f, g))
        for n in (0, 2) if f.is_zero() else (-1, 0, 2):
            _same(f ** n, _ref_power(f, n))


# The certificate in multi_gcd against the subresultant PRS, which stays the
# reference: with coprime_mod_p switched off, multi_gcd is the PRS alone.


def _prs_gcd(monkeypatch, p, q):
    with monkeypatch.context() as m:
        m.setattr(polyring, "coprime_mod_p", lambda p, q, var: False)
        return polyring.multi_gcd(p, q)


def _main_var_primitive_parts(p, q):
    # The main variable of multi_gcd's PRS step, for p and q that both use
    # it, and the primitive parts it hands to the certificate.
    var = next(v for v in polyring._GCD_VAR_ORDER if p.uses_var(v) or q.uses_var(v))
    assert p.uses_var(var) and q.uses_var(var)
    pp = p.exact_div(polyring._content(p, var))
    qq = q.exact_div(polyring._content(q, var))
    return var, pp, qq


def _zeta_poly(rng, names, max_terms, max_deg=2):
    # A polynomial in every variable of names, with zeta_16 coefficients.
    gens = [MultiPoly.gen(F, v) for v in names]
    while True:
        out = MultiPoly.zero(F)
        for _ in range(rng.randint(2, max_terms)):
            coeff = F.zeta(rng.randrange(16)) * rng.choice((-2, -1, 1, Fraction(1, 3), 3))
            term = MultiPoly.constant(F, coeff)
            for g in gens:
                term = term * g ** rng.randint(0, max_deg)
            out = out + term
        if all(out.uses_var(v) for v in names):
            return out


def _gcd_pairs(rng, names):
    # Random pairs, most of them coprime, and pairs with a planted common
    # factor.  Every polynomial uses every variable, so the planted factor is
    # not constant in the main variable and the certificate must not prove it.
    for _ in range(10):
        yield "random", _zeta_poly(rng, names, 4), _zeta_poly(rng, names, 4)
        h = _zeta_poly(rng, names, 2, 1)
        yield "planted", _zeta_poly(rng, names, 3) * h, _zeta_poly(rng, names, 3) * h


@pytest.mark.parametrize("names", ["xt", "xyt"])
def test_multi_gcd_matches_the_subresultant_reference(monkeypatch, names):
    rng = random.Random(1971)
    proved = {"random": 0, "planted": 0}
    for kind, p, q in _gcd_pairs(rng, names):
        assert multi_gcd(p, q) == _prs_gcd(monkeypatch, p, q)
        var, pp, qq = _main_var_primitive_parts(p, q)
        if coprime_mod_p(pp, qq, var):
            assert polyring._subresultant_gcd(pp, qq, var) == MultiPoly.constant(F, 1)
            proved[kind] += 1
    assert proved["random"] >= 6
    assert proved["planted"] == 0


def _count_prs(monkeypatch):
    calls = []
    inner = polyring._subresultant_gcd

    def counted(p, q, var):
        calls.append(var)
        return inner(p, q, var)

    monkeypatch.setattr(polyring, "_subresultant_gcd", counted)
    return calls


def _assert_reaches_the_prs(monkeypatch, p, q, want):
    assert not coprime_mod_p(p, q, "x")
    calls = _count_prs(monkeypatch)
    assert multi_gcd(p, q) == want
    assert "x" in calls


def test_certificate_falls_back_when_the_leading_coefficients_vanish(monkeypatch):
    # g's leading coefficient t - t0 vanishes at the evaluation point t0, so
    # the images of p and q are x + 2 and x + 3: coprime, although g divides
    # both.  Only the leading-coefficient check keeps this from a wrong proof.
    x, t = MultiPoly.gen(F, "x"), MultiPoly.gen(F, "t")
    g = (t - polyring._EVAL_POINTS[2]) * x + 1
    _assert_reaches_the_prs(monkeypatch, g * (x + 2), g * (x + 3), polyring._normalized(g))


def test_certificate_falls_back_when_p_divides_a_denominator(monkeypatch):
    x, t = MultiPoly.gen(F, "x"), MultiPoly.gen(F, "t")
    prime = F.residue_map()[0]
    g = x + t * Fraction(1, prime)
    _assert_reaches_the_prs(monkeypatch, g * (x + 2), g * (x + t), g)
    # Coprime inputs with such a denominator take the PRS too.
    one = MultiPoly.constant(F, 1)
    _assert_reaches_the_prs(monkeypatch, x ** 2 + t * Fraction(1, prime), x + 1, one)


def test_certificate_falls_back_when_the_gcd_is_not_constant(monkeypatch):
    x, t = MultiPoly.gen(F, "x"), MultiPoly.gen(F, "t")
    z = F.zeta(1)
    g = x * z + t ** 2 - 1
    _assert_reaches_the_prs(monkeypatch, g * (x - t), g * (x * t + z), polyring._normalized(g))


def test_power_equals_repeated_multiplication():
    base = T * F.zeta(5) + 1
    product = MultiPoly.constant(F, 1)
    for e in range(21):
        assert base ** e == product
        product = product * base


def test_first_power_makes_no_multiplication(monkeypatch):
    calls = []
    mul = MultiPoly.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    base = upoly(1, 2, 3)
    assert base ** 1 == base
    assert calls == []


# -- the arithmetic kernel against the termwise loops --------------------------
#
# The loops below are MultiPoly's arithmetic before the integer kernel: one
# CycloNum product and one CycloNum sum per pair of terms, every sum started
# from zero, and zeros dropped by the constructor.  The kernel must give the
# same terms in the same order, each stored coefficient nonzero and canonical.

KERNEL_ORDERS = (1, 2, 3, 4, 5, 12, 16)


def _termwise_product(p, q):
    out = {}
    zero = p.field.zero()
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            out[e] = out.get(e, zero) + c1 * c2
    return MultiPoly(p.field, out)


def _termwise_combine(p, q, op):
    out = dict(p.terms)
    zero = p.field.zero()
    for e, c in q.terms.items():
        out[e] = op(out.get(e, zero), c)
    return MultiPoly(p.field, out)


def _termwise_sum(p, q):
    return _termwise_combine(p, q, CycloNum.__add__)


def _termwise_difference(p, q):
    return _termwise_combine(p, q, CycloNum.__sub__)


def _termwise_scalar(p, c):
    if c.is_zero():
        return MultiPoly.zero(p.field)
    return MultiPoly(p.field, {e: v * c for e, v in p.terms.items()})


def _termwise_exact_div(p, divisor):
    if divisor.is_constant():
        return _termwise_scalar(p, divisor.constant_value().inverse())
    rem = dict(p.terms)
    quo = {}
    de = max(divisor.terms)
    dc_inv = divisor.terms[de].inverse()
    lower = [(e, c) for e, c in divisor.terms.items() if e != de]
    zero = p.field.zero()
    while rem:
        re = max(rem)
        qe = (re[0] - de[0], re[1] - de[1], re[2] - de[2])
        if min(qe) < 0:
            raise ArithmeticError("division is not exact")
        qc = rem.pop(re) * dc_inv
        quo[qe] = qc
        for e, c in lower:
            k = (e[0] + qe[0], e[1] + qe[1], e[2] + qe[2])
            v = rem.get(k, zero) - qc * c
            if v.is_zero():
                del rem[k]
            else:
                rem[k] = v
    return MultiPoly(p.field, quo)


def _assert_same(got, want):
    assert list(got.terms.items()) == list(want.terms.items())
    for c in got.terms.values():
        assert c.field is got.field
        assert not c.is_zero()
        assert c.den > 0
        assert gcd(c.den, *c.num) == 1


# Numerators in [-4, 4] over denominators other than 1: zeros keep some
# coefficient vectors sparse or rational, and some fractions reduce to 1.
_coordinates = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((2, 3, 4, 6, 9)))
_exponents = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


@st.composite
def _coefficients(draw, field):
    return field.element(draw(st.lists(_coordinates, min_size=1, max_size=field.degree)))


def _nonzero_coefficients(field):
    return _coefficients(field).filter(lambda c: not c.is_zero())


@st.composite
def _kernel_polys(draw, field):
    shape = draw(st.sampled_from(("zero", "constant", "monomial", "general")))
    if shape == "zero":
        return MultiPoly.zero(field)
    if shape == "constant":
        return MultiPoly.constant(field, draw(_nonzero_coefficients(field)))
    if shape == "monomial":
        return MultiPoly.monomial(field, draw(_exponents), draw(_nonzero_coefficients(field)))
    terms = draw(st.dictionaries(_exponents, _coefficients(field), min_size=2, max_size=5))
    return MultiPoly(field, terms)


def _kernel_fields():
    return st.sampled_from(KERNEL_ORDERS).map(cyclotomic_field)


@settings(max_examples=200, deadline=None)
@given(_kernel_fields().flatmap(lambda f: st.tuples(_kernel_polys(f), _kernel_polys(f))))
def test_kernel_products_and_sums_match_the_termwise_loops(pair):
    p, q = pair
    _assert_same(p * q, _termwise_product(p, q))
    _assert_same(q * p, _termwise_product(q, p))
    _assert_same(p + q, _termwise_sum(p, q))
    _assert_same(p - q, _termwise_difference(p, q))
    _assert_same(p - p, MultiPoly.zero(p.field))
    # Built to cancel: the cross terms of (p + q)(p - q) cancel inside the
    # product, and the rest against -p^2 + q^2.
    s, d = p + q, p - q
    square_difference = s * d
    _assert_same(square_difference, _termwise_product(s, d))
    pp, qq = p * p, q * q
    rest = square_difference - pp
    _assert_same(rest, _termwise_difference(square_difference, pp))
    total = rest + qq
    _assert_same(total, _termwise_sum(rest, qq))
    assert total.is_zero()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernel_scalar_products_match_the_termwise_loop(data):
    field = data.draw(_kernel_fields())
    p = data.draw(_kernel_polys(field))
    c = data.draw(_coefficients(field))
    _assert_same(p * c, _termwise_scalar(p, c))
    _assert_same(c * p, _termwise_scalar(p, c))
    r = data.draw(_coordinates)
    _assert_same(p * r, _termwise_scalar(p, field.from_rational(r)))
    k = data.draw(st.integers(-3, 3))
    _assert_same(k * p, _termwise_scalar(p, field.from_rational(k)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernel_exact_division_matches_the_termwise_loop(data):
    field = data.draw(_kernel_fields())
    divisor = data.draw(_kernel_polys(field).filter(lambda p: not p.is_zero()))
    quotient = data.draw(_kernel_polys(field))
    a = quotient * divisor
    got = a.exact_div(divisor)
    _assert_same(got, _termwise_exact_div(a, divisor))
    assert got == quotient
    # The cross terms of (p + q)(p - q) cancel, so dividing by p + q puts
    # terms into the remainder that the dividend lacks.
    s, d = quotient + divisor, quotient - divisor
    if not s.is_zero():
        product = s * d
        got = product.exact_div(s)
        _assert_same(got, _termwise_exact_div(product, s))
        assert got == d
    b = a + data.draw(_kernel_polys(field))
    want = _division_outcome(_termwise_exact_div, b, divisor)
    got = _division_outcome(MultiPoly.exact_div, b, divisor)
    if want == "inexact":
        assert got == "inexact"
    else:
        _assert_same(got, want)


def test_polynomials_over_different_fields_do_not_mix():
    other = MultiPoly.gen(cyclotomic_field(8), "t") + 1
    p = T + 1
    assert p != other
    for op in (
        lambda: p * other,
        lambda: p + other,
        lambda: p - other,
        lambda: p * cyclotomic_field(8).zeta(1),
        lambda: p.exact_div(other),
    ):
        with pytest.raises(MixedFieldsError):
            op()
