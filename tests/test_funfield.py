import functools
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from k3auto import funfield, polyring
from k3auto.cyclotomic import cyclotomic_field
from k3auto.funfield import (
    FieldElement,
    NotAMorphismError,
    OrderBoundExceededError,
    Section,
    SurfaceMap,
    ZeroDenominatorOnSurfaceError,
    add_points,
    ambient_scalar,
    compose,
    map_order,
    morphism_residual,
    negate,
    normalize,
    omega_factor,
    translation_map,
    verify_morphism,
)
from k3auto.files import load_surface_file
from k3auto.parser import parse_expression
from k3auto.polyring import MultiPoly, RationalFunction
from k3auto.surface import WeierstrassModel

F = cyclotomic_field(16)
T = MultiPoly.gen(F, "t")
T_RF = RationalFunction.gen(F, "t")
XYT = {"x", "y", "t"}


def model():
    return WeierstrassModel(F, T ** 3 * (T ** 4 - 1), MultiPoly.zero(F))


def inverse(m, max_order=64):
    """m^(order - 1), from the linear reference walk."""
    return _reference_order_and_last_power(m, max_order)[1]


def build_named_maps(mdl):
    """The bundled trio on the fixture model: the coordinate scaling
    (x, y, t) -> (z^6 x, z^9 y, z^4 t), its composite with translation by
    the 2-torsion section (0, 0), and the symplectic quotient of the two.

    The alternative factorization equals translation composed with the
    scaling, and the quotient map equals the bare translation; both
    identities are rechecked here.
    """
    field = mdl.field
    sigma = SurfaceMap.scaling(mdl, field.zeta(6), field.zeta(9), field.zeta(4))
    zero = RationalFunction.constant(field, 0)
    trans = translation_map(mdl, Section(zero, zero))
    sigma_alt = compose(trans, sigma)
    assert compose(sigma, trans) == sigma_alt
    tau = compose(sigma, inverse(sigma_alt))
    assert tau == trans
    return {"sigma": sigma, "sigma_alt": sigma_alt, "tau": tau}


@functools.lru_cache(maxsize=None)
def named_maps():
    return build_named_maps(model())


def parse_on(src, mdl):
    return normalize(parse_expression(src, XYT, F), mdl)


def test_normalize_examples():
    m = model()
    yy = parse_on("y*y", m)
    assert yy == parse_on("x^3 + t^3*(t^4-1)*x", m)
    inv_y = parse_on("1/y", m)
    assert inv_y == parse_on("y/(x^3 + t^3*(t^4-1)*x)", m)
    reduced = parse_on("(y^2-x^3)/x^2", m)
    assert reduced == parse_on("t^3*(t^4-1)/x", m)


def test_normalize_rejects_zero_denominator():
    m = model()
    with pytest.raises(ZeroDenominatorOnSurfaceError):
        parse_on("1/(y^2 - x^3 - t^3*(t^4-1)*x)", m)


def test_field_element_axioms():
    m = model()
    x = FieldElement.coordinate(m, "x")
    y = FieldElement.coordinate(m, "y")
    t = FieldElement.coordinate(m, "t")
    a = x + y * t
    b = y - x
    c = x * t + FieldElement.const(m, F.zeta(3))
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a * a.inverse() == FieldElement.const(m, 1)
    assert (y * y) == x ** 3 + FieldElement.from_ratfunc(m, RationalFunction(m.A)) * x


def test_field_element_accepts_fractions():
    m = model()
    x = FieldElement.coordinate(m, "x")
    half = Fraction(1, 2)
    assert x + half == x + FieldElement.const(m, F.from_rational(half))
    assert x * half == x / 2
    assert half * x == x / 2
    assert FieldElement.const(m, half) == half
    assert FieldElement.const(m, half) != Fraction(1, 3)
    assert x != "x"
    with pytest.raises(TypeError):
        x + "x"


def test_sigma_is_a_morphism():
    m = model()
    sigma = SurfaceMap.scaling(m, F.zeta(6), F.zeta(9), F.zeta(4))
    assert verify_morphism(sigma) is True
    assert verify_morphism(SurfaceMap.identity(m)) is True


def test_base_rotation_alone_is_not_a_morphism():
    m = model()
    bad = SurfaceMap.scaling(m, F.one(), F.one(), F.zeta(4))
    assert verify_morphism(bad) is False
    assert not morphism_residual(bad).is_zero()


def test_ambient_scalar_examples():
    m = model()
    sigma = SurfaceMap.scaling(m, F.zeta(6), F.zeta(9), F.zeta(4))
    # Oracle: monomial substitution multiplies F by zeta^18 = zeta^2.
    assert F.zeta(18) == F.zeta(2)
    assert ambient_scalar(sigma) == F.zeta(2)
    assert ambient_scalar(SurfaceMap.identity(m)) == F.one()
    flip = SurfaceMap.scaling(m, F.one(), -F.one(), F.one())
    assert ambient_scalar(flip) == F.one()


def test_omega_factor_examples():
    m = model()
    sigma = SurfaceMap.scaling(m, F.zeta(6), F.zeta(9), F.zeta(4))
    # Exponent arithmetic oracle: 6 + 4 - 9 = 1.
    assert omega_factor(sigma) == F.zeta(1)
    flip = SurfaceMap.scaling(m, F.one(), -F.one(), F.one())
    assert omega_factor(flip) == -F.one()
    assert omega_factor(SurfaceMap.identity(m)) == F.one()


def test_omega_factor_requires_morphism():
    m = model()
    bad = SurfaceMap.scaling(m, F.one(), F.one(), F.zeta(4))
    with pytest.raises(NotAMorphismError):
        omega_factor(bad)


def test_orders():
    m = model()
    sigma = SurfaceMap.scaling(m, F.zeta(6), F.zeta(9), F.zeta(4))
    assert map_order(sigma, 32) == 16
    assert map_order(SurfaceMap.identity(m), 32) == 1
    with pytest.raises(OrderBoundExceededError):
        map_order(sigma, 8)


def test_translation_reproduces_printed_formula():
    m = model()
    zero = RationalFunction.constant(F, 0)
    trans = translation_map(m, Section(zero, zero))
    assert trans.u == parse_on("(y^2-x^3)/x^2", m)
    assert trans.v == parse_on("(x^3*y-y^3)/x^3", m)
    assert verify_morphism(trans) is True
    assert omega_factor(trans) == F.one()
    assert map_order(trans, 8) == 2


def test_two_torsion_and_group_identity():
    m = model()
    zero = RationalFunction.constant(F, 0)
    two = Section(zero, zero)
    assert two.on_model(m)
    assert add_points(m, two, two).is_zero_section
    assert add_points(m, two, Section.zero()) == two
    assert add_points(m, Section.zero(), Section.zero()).is_zero_section


def test_scaling_and_translation_commute():
    m = model()
    sigma = SurfaceMap.scaling(m, F.zeta(6), F.zeta(9), F.zeta(4))
    zero = RationalFunction.constant(F, 0)
    trans = translation_map(m, Section(zero, zero))
    assert compose(sigma, trans) == compose(trans, sigma)


def test_named_maps_and_factorization_identity():
    m = model()
    maps = named_maps()
    sigma, sigma_alt, tau = maps["sigma"], maps["sigma_alt"], maps["tau"]
    # The alternative factorization agrees with its printed form.
    assert sigma_alt.u == parse_on("z^6*(y^2-x^3)/x^2", m)
    assert sigma_alt.v == parse_on("z^9*(x^3*y-y^3)/x^3", m)
    assert sigma_alt.w == parse_expression("z^4*t", {"t"}, F)
    # Same squares, distinct maps.
    assert compose(sigma_alt, sigma_alt) == compose(sigma, sigma)
    assert sigma_alt != sigma
    assert map_order(sigma_alt, 32) == 16
    assert omega_factor(sigma_alt) == F.zeta(1)
    # tau is translation by the 2-torsion section: a symplectic involution.
    zero = RationalFunction.constant(F, 0)
    assert tau == translation_map(m, Section(zero, zero))
    assert map_order(tau, 8) == 2
    assert omega_factor(tau) == F.one()


def test_omega_multiplicativity_on_fixture_pairs():
    m = model()
    maps = named_maps()
    pool = list(maps.values()) + [SurfaceMap.identity(m)]
    for m1 in pool:
        for m2 in pool:
            assert omega_factor(compose(m1, m2)) == omega_factor(m1) * omega_factor(m2)


def test_compose_preserves_morphisms():
    m = model()
    maps = named_maps()
    pool = list(maps.values())
    for m1 in pool:
        for m2 in pool:
            assert verify_morphism(compose(m1, m2)) is True


def test_order_of_square():
    m = model()
    maps = named_maps()
    for mp in maps.values():
        order = map_order(mp, 32)
        square = compose(mp, mp)
        from math import gcd

        assert map_order(square, 32) == order // gcd(order, 2)


def _random_section_model(rng):
    # Choose x(t), y(t) and a small A; then B := y^2 - x^3 - A x puts the
    # section on the curve by construction.
    coeffs = lambda n: [rng.randint(-2, 2) for _ in range(n)]
    x = MultiPoly.from_int_coeffs(F, coeffs(rng.randint(1, 2)))
    y = MultiPoly.from_int_coeffs(F, coeffs(rng.randint(1, 2)))
    A = MultiPoly.from_int_coeffs(F, coeffs(rng.randint(1, 2)))
    B = y * y - x ** 3 - A * x
    if B.degree_in("t") > 12 or A.degree_in("t") > 8:
        return None
    try:
        mdl = WeierstrassModel(F, A, B)
    except ValueError:
        return None
    sec = Section(RationalFunction(x), RationalFunction(y))
    assert sec.on_model(mdl)
    return mdl, sec


def test_group_law_axioms_on_random_sections():
    rng = random.Random(616)
    checked = 0
    while checked < 6:
        built = _random_section_model(rng)
        if built is None:
            continue
        mdl, p = built
        assert add_points(mdl, p, Section.zero()) == p
        assert add_points(mdl, p, negate(p)).is_zero_section
        p2 = add_points(mdl, p, p)
        p3 = add_points(mdl, p2, p)
        # associativity on multiples: (p + p) + p3 == p + (p + p3)
        lhs = add_points(mdl, p2, p3)
        rhs = add_points(mdl, p, add_points(mdl, p, p3))
        assert lhs == rhs
        for q in (p2, p3):
            if not q.is_zero_section:
                assert q.on_model(mdl)
        checked += 1


@pytest.mark.parametrize("seed", [99, 17, 2024, 616])
def test_translation_by_generic_section_is_morphism(seed):
    # P and 2P: a polynomial section, and a rational one for seeds 17 and
    # 2024; P is 2-torsion for seed 616, so 2P is O.
    rng = random.Random(seed)
    built = None
    while built is None:
        built = _random_section_model(rng)
    mdl, p = built
    for q in (p, add_points(mdl, p, p)):
        tr = translation_map(mdl, q)
        assert verify_morphism(tr) is True
        assert omega_factor(tr) == F.one()


def _counting_compose(monkeypatch):
    # From here on, every funfield.compose call appends to the returned list.
    calls = []
    counted = funfield.compose

    def counting(m1, m2):
        calls.append(1)
        return counted(m1, m2)

    monkeypatch.setattr(funfield, "compose", counting)
    return calls


def test_is_identity_checks_every_component():
    m = model()
    x, y = (FieldElement.coordinate(m, var) for var in ("x", "y"))
    t, s = T_RF, FieldElement.from_ratfunc(m, 1 / (T_RF + 1))
    maps = [
        SurfaceMap(m, x, y, t),
        SurfaceMap(m, x + y, y, t),
        SurfaceMap(m, x, y + x, t),
        SurfaceMap(m, x * 2, y, t),
        SurfaceMap(m, x * s, y, t),
        SurfaceMap(m, x, y * F.zeta(8), t),
        SurfaceMap(m, x, y * s, t),
        SurfaceMap(m, x, y, t + 1),
        SurfaceMap(m, x, y, t / (t + 1)),
    ]
    identity = SurfaceMap.identity(m)
    assert [mp.is_identity() for mp in maps] == [mp == identity for mp in maps]
    assert [mp.is_identity() for mp in maps] == [True] + [False] * 8


def test_order_walks_the_powers_of_m_to_the_base_order(monkeypatch):
    calls = _counting_compose(monkeypatch)
    counts = {}
    for name, mp in named_maps().items():
        calls.clear()
        map_order(mp)
        counts[name] = len(calls)
    # sigma is diagonal, so its order comes from (z^6)^4 and (z^9)^4 with no
    # composition; sigma_alt^2 = sigma^2 is its first diagonal power; tau o
    # tau is the identity.
    assert counts == {"sigma": 0, "sigma_alt": 1, "tau": 1}


def test_base_of_no_finite_order_is_refused_before_any_composition(monkeypatch):
    m = model()
    t2 = SurfaceMap(
        m,
        FieldElement.coordinate(m, "x"),
        FieldElement.coordinate(m, "y"),
        RationalFunction.gen(F, "t") ** 2,
    )
    calls = _counting_compose(monkeypatch)
    with pytest.raises(OrderBoundExceededError, match="^order exceeds 64$"):
        map_order(t2, 64)
    assert calls == []


def test_order_bound_is_exact():
    pool = dict(named_maps(), identity=SurfaceMap.identity(model()))
    for name, mp in pool.items():
        order = map_order(mp)
        assert order == {"sigma": 16, "sigma_alt": 16, "tau": 2, "identity": 1}[name]
        for bound in {0, 1, order - 1} - {order}:
            with pytest.raises(OrderBoundExceededError, match=f"order exceeds {bound}$"):
                map_order(mp, bound)
        assert map_order(mp, order) == order
        assert compose(inverse(mp, order), mp).is_identity()


def _reference_order_and_last_power(m, max_order):
    # The order loop as it stood before the base order: the least
    # k <= max_order with m^k the identity, and m^(k - 1), by composing m
    # with itself one step at a time.
    prev, acc = SurfaceMap.identity(m.model), m
    for k in range(1, max_order + 1):
        if acc.is_identity():
            return k, prev
        prev, acc = acc, compose(m, acc)
    raise OrderBoundExceededError(f"order exceeds {max_order}")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OrderBoundExceededError as exc:
        return ("error", str(exc))


def _walk_compositions(m, order, bound):
    # The compositions of the order walk without its diagonal stop: m^e by
    # square-and-multiply, then M = m^e to M^j one step at a time, up to the
    # order (None when infinite) or the bound; none when the base order e
    # passes the bound.
    try:
        e = funfield._mobius_order(m.w, bound)
    except OrderBoundExceededError:
        return 0
    j = order // e if order is not None and order <= bound else bound // e
    return e.bit_length() - 1 + bin(e).count("1") - 1 + j - 1


def _assert_orders_match_the_linear_reference(monkeypatch, pool, limit=64):
    # map_order agrees with the reference at the bounds 0, 1, o - 1, o and
    # limit, or 0, 1 and limit for an order o past limit, and composes no
    # more than the walk without its diagonal stop.  Returns the orders,
    # None for one past limit.
    calls = _counting_compose(monkeypatch)
    orders = []
    for mp in dict.fromkeys(pool):
        ref = _outcome(_reference_order_and_last_power, mp, limit)
        order = None if ref[0] == "error" else ref[0]
        orders.append(order)
        tested = {0, 1, limit} | (set() if order is None else {order - 1, order})
        for bound in tested:
            ref = _outcome(_reference_order_and_last_power, mp, bound)
            calls.clear()
            assert _outcome(map_order, mp, bound) == (ref if ref[0] == "error" else ref[0])
            assert len(calls) <= _walk_compositions(mp, order, bound)
    return orders


def test_order_matches_the_linear_reference(monkeypatch):
    m = model()
    gens = list(named_maps().values()) + [SurfaceMap.identity(m)]
    pool = gens + [
        functools.reduce(compose, word)
        for length in (2, 3)
        for word in itertools.product(gens, repeat=length)
    ]
    rng = random.Random(12)
    for _ in range(10):
        a, b, c = (rng.randrange(16) for _ in range(3))
        pool.append(SurfaceMap.scaling(m, F.zeta(a), F.zeta(b), F.zeta(c)))
    # A scaling that fixes t and one of base order 2.
    pool.append(SurfaceMap.scaling(m, F.zeta(6), F.zeta(4), F.one()))
    pool.append(SurfaceMap.scaling(m, F.zeta(3), F.zeta(1), F.zeta(8)))
    zero = RationalFunction.constant(F, 0)
    pool.append(translation_map(m, Section(zero, zero)))
    orders = _assert_orders_match_the_linear_reference(monkeypatch, pool)
    assert set(orders) == {1, 2, 4, 8, 16}


def _diagonal(mdl, a, b, w):
    # (x, y, t) -> (a x, b y, w) for a, b and w rational in t.
    zero = RationalFunction.constant(F, 0)
    x = FieldElement.coordinate(mdl, "x") * FieldElement.from_ratfunc(mdl, a)
    return SurfaceMap(mdl, x, FieldElement(mdl, zero, b), w)


def _at(r, w):
    # r(w) for r and w rational in t, in reduced rational arithmetic.
    def poly_at(p):
        out = RationalFunction.constant(F, 0)
        for (_, _, k), c in p.terms.items():
            out = out + w ** k * c
        return out

    return poly_at(r.num) / poly_at(r.den)


# Moebius maps of orders 1, 2, 3 and 4; the last two do not fix t = 0.
MOBIUS = {
    "t": T_RF,
    "1/t": 1 / T_RF,
    "1/(1-t)": 1 / (1 - T_RF),
    "(t+1)/(1-t)": (T_RF + 1) / (1 - T_RF),
    "z^4 t": T_RF * F.zeta(4),
}


def test_diagonal_maps_match_the_linear_reference(monkeypatch):
    # a = c g / g(w) has a_e = c^e, so these seeded maps have finite order
    # though a and b are not constant; a = g alone and the constant 2 are
    # not roots of unity, so those maps have infinite order.
    m = model()
    rng = random.Random(27)

    def small_poly():
        while True:
            g = MultiPoly.from_int_coeffs(F, [rng.randint(-2, 2) for _ in range(rng.randint(2, 3))])
            if not g.is_constant():
                return RationalFunction(g)

    def coboundary(w):
        g = small_poly()
        return g / _at(g, w)

    finite, infinite = [], []
    for w in MOBIUS.values():
        for _ in range(3):
            a, b = (coboundary(w) for _ in range(2))
            parts = [a * F.zeta(rng.randrange(16)), b * -F.zeta(rng.randrange(16))]
            finite.append(_diagonal(m, *parts, w))
            finite.append(_diagonal(m, coboundary(w), RationalFunction.constant(F, F.zeta(2)), w))
        infinite.append(_diagonal(m, small_poly(), RationalFunction.constant(F, 1), w))
        infinite.append(_diagonal(m, RationalFunction.constant(F, 2), T_RF / _at(T_RF, w), w))
        # b_e is not constant, though its leading coefficient is 1.
        infinite.append(_diagonal(m, RationalFunction.constant(F, 1), T_RF + 1, w))
    assert all(mp.is_diagonal() for mp in finite + infinite)
    orders = _assert_orders_match_the_linear_reference(monkeypatch, finite)
    assert None not in orders and {o for o in orders if o % 3 == 0}
    # Their degrees grow with the power, so the reference stops at 3.
    orders = _assert_orders_match_the_linear_reference(monkeypatch, infinite, 3)
    assert orders == [None] * len(infinite)
    x2 = SurfaceMap.scaling(m, F.from_rational(2), F.one(), F.one())
    assert _assert_orders_match_the_linear_reference(monkeypatch, [x2]) == [None]
    # Over Q(zeta_5), -zeta_5 is a root of unity of order 10, past the
    # field's order 5.
    F5 = cyclotomic_field(5)
    t5 = MultiPoly.gen(F5, "t")
    m5 = WeierstrassModel(F5, t5, t5 + 1)
    minus_zeta = SurfaceMap.scaling(m5, -F5.zeta(1), F5.one(), F5.one())
    assert _assert_orders_match_the_linear_reference(monkeypatch, [minus_zeta]) == [10]


def test_powers_of_non_diagonal_maps_that_turn_diagonal_match_the_linear_reference(monkeypatch):
    # tau composed with a power d of sigma, which commutes with it: the
    # square is d^2, so the walk stops there, at the first diagonal square.
    m = model()
    tau = named_maps()["tau"]
    pool = []
    for k in range(16):
        d = SurfaceMap.scaling(m, F.zeta(6 * k), F.zeta(9 * k), F.zeta(4 * k))
        assert compose(d, tau) == compose(tau, d)
        pool.append(compose(tau, d))
    assert not any(mp.is_diagonal() for mp in pool)
    orders = _assert_orders_match_the_linear_reference(monkeypatch, pool)
    assert set(orders) == {2, 4, 8, 16}


def test_a_translation_of_infinite_order_composes_no_more_than_before(monkeypatch):
    tr = _test_surface_map("translation_surface.txt", "tr")
    calls = _counting_compose(monkeypatch)
    for bound in (0, 1, 2):
        calls.clear()
        with pytest.raises(OrderBoundExceededError, match=f"^order exceeds {bound}$"):
            map_order(tr, bound)
        assert len(calls) == _walk_compositions(tr, None, bound) == max(bound - 1, 0)
    # Every power of tr is the translation by a section of infinite order,
    # so neither the identity nor diagonal, and a stand-in that returns tr
    # for every composite walks as the real one does; tr^3 takes seconds.
    calls = []

    def stand_in(m1, m2):
        calls.append(1)
        return tr

    monkeypatch.setattr(funfield, "compose", stand_in)
    with pytest.raises(OrderBoundExceededError, match="^order exceeds 3$"):
        map_order(tr, 3)
    assert len(calls) == _walk_compositions(tr, None, 3) == 2


def test_is_diagonal_reads_the_exponents():
    m = model()
    x, y = (FieldElement.coordinate(m, var) for var in ("x", "y"))
    s = FieldElement.from_ratfunc(m, 1 / (T_RF + 1))
    diagonal = [
        SurfaceMap.identity(m),
        SurfaceMap(m, x * s, y * s, 1 / T_RF),
        SurfaceMap(m, x * 2, y * F.zeta(8), T_RF + 1),
        named_maps()["sigma"],
    ]
    other = [
        SurfaceMap(m, x + s, y, T_RF),
        SurfaceMap(m, x * x, y, T_RF),
        SurfaceMap(m, x, y * x, T_RF),
        SurfaceMap(m, x, y + x, T_RF),
        SurfaceMap(m, x * y, y, T_RF),
        SurfaceMap(m, x / (x + 1), y, T_RF),
        named_maps()["tau"],
        named_maps()["sigma_alt"],
    ]
    assert [mp.is_diagonal() for mp in diagonal] == [True] * len(diagonal)
    assert [mp.is_diagonal() for mp in other] == [False] * len(other)


# Reference: the function-field arithmetic, normalize and compose as they
# stood before all substitution went through one routine.  Elements are
# (a, b) pairs of rational functions standing for a + b*y.


def _ref_mul(p, q, rhs):
    a, b = p
    c, d = q
    return (a * c + b * d * rhs, a * d + b * c)


def _ref_div(p, q, rhs):
    c, d = q
    norm = c * c - d * d * rhs
    return _ref_mul(p, (c / norm, -d / norm), rhs)


def _ref_split_y(poly, rhs):
    field = poly.field
    parts = [MultiPoly.zero(field), MultiPoly.zero(field)]
    for (ex, ey, et), c in poly.terms.items():
        q, r = divmod(ey, 2)
        parts[r] = parts[r] + MultiPoly.monomial(field, (ex, 0, et), c) * rhs ** q
    return parts[0], parts[1]


def _ref_normalize(expr, mdl):
    rhs = mdl.rhs.num
    n0, n1 = _ref_split_y(expr.num, rhs)
    d0, d1 = _ref_split_y(expr.den, rhs)
    if d1.is_zero():
        return RationalFunction(n0, d0), RationalFunction(n1, d0)
    clear = d0 * d0 - d1 * d1 * rhs
    return (
        RationalFunction(n0 * d0 - n1 * d1 * rhs, clear),
        RationalFunction(n1 * d0 - n0 * d1, clear),
    )


def _ref_eval_poly(p, X, T, rhs):
    field = p.field
    zero = RationalFunction.constant(field, 0)
    acc = (zero, zero)
    for (ex, ey, et), c in p.terms.items():
        assert ey == 0
        term = (RationalFunction.constant(field, c), zero)
        for base, k in ((X, ex), (T, et)):
            for _ in range(k):
                term = _ref_mul(term, base, rhs)
        acc = (acc[0] + term[0], acc[1] + term[1])
    return acc


def _ref_compose(m1, m2):
    rhs = m1.model.rhs
    zero = RationalFunction.constant(m1.model.field, 0)
    X, V, T = (m2.u.a, m2.u.b), (m2.v.a, m2.v.b), (m2.w, zero)

    def image(r):
        return _ref_div(_ref_eval_poly(r.num, X, T, rhs), _ref_eval_poly(r.den, X, T, rhs), rhs)

    def comp(e):
        a, b = image(e.a)
        c, d = _ref_mul(image(e.b), V, rhs)
        return a + c, b + d

    return comp(m1.u), comp(m1.v), image(m1.w)[0]


def _random_poly(rng, exps, terms):
    # Sparse polynomial with small coefficients, some of them zeta powers.
    out = MultiPoly.zero(F)
    for _ in range(terms):
        e = tuple(rng.randint(0, k) for k in exps)
        c = F.one() * rng.choice((1, -1, 2, -3))
        if rng.random() < 0.3:
            c = c * F.zeta(rng.randrange(16))
        out = out + MultiPoly.monomial(F, e, c)
    return out


def _pair(e):
    return (e.a.num, e.a.den, e.b.num, e.b.den)


def _small_model():
    # x^3 + (t + 1) x + t: low degree in t keeps the norms' gcds cheap.
    return WeierstrassModel(F, T + 1, T)


def test_normalize_matches_split_y_reference():
    m = _small_model()
    rng = random.Random(2024)
    y4 = MultiPoly.monomial(F, (0, 4, 0), F.one())
    seen_y4 = seen_odd_den = 0
    for i in range(12):
        # y^4 in every other numerator and every third denominator; the
        # constant terms keep monomial factors from cancelling it, and no
        # coefficient is -4, so the denominator is nonzero.
        num = _random_poly(rng, (2, 3, 1), rng.randint(1, 2)) + y4 * (i % 2) + 1
        den = _random_poly(rng, (1, 3, 0), 1) + y4 * (i % 3 == 0) + 4
        expr = RationalFunction(num, den)
        seen_y4 += max(expr.num.degree_in("y"), expr.den.degree_in("y")) >= 4
        seen_odd_den += any(e[1] % 2 for e in expr.den.terms)
        got = normalize(expr, m)
        a, b = _ref_normalize(expr, m)
        assert _pair(got) == (a.num, a.den, b.num, b.den)
        assert str(got.a) == str(a) and str(got.b) == str(b)
    assert seen_y4 >= 6 and seen_odd_den >= 3


def _composed_as_reference(m1, m2):
    # compose(m1, m2), after checking it against _ref_compose part by part.
    got = compose(m1, m2)
    u, v, w = _ref_compose(m1, m2)
    assert (_pair(got.u), _pair(got.v), got.w) == (
        _pair(FieldElement(m1.model, *u)), _pair(FieldElement(m1.model, *v)), w
    )
    return got


def _test_surface_map(name, key):
    return load_surface_file(Path(__file__).with_name(name))[1][key]


def _constant_translation(A, B, x0, y0):
    mdl = WeierstrassModel(F, A, B)
    section = Section(RationalFunction.constant(F, x0), RationalFunction.constant(F, y0))
    assert section.on_model(mdl)
    return translation_map(mdl, section)


def test_compose_matches_eval_poly_reference():
    maps = named_maps()
    names = sorted(maps)
    for first, second in itertools.product(names, repeat=2):
        _composed_as_reference(maps[first], maps[second])
    rng = random.Random(77)
    for length in (2, 3, 4):
        for _ in range(2):
            word = [rng.choice(names) for _ in range(length)]
            got = maps[word[0]]
            for name in word[1:]:
                got = _composed_as_reference(got, maps[name])
            _composed_as_reference(got, got)


# Constant sections (A, B, x0, y0) on small models: the 2-torsion point
# (0, 0), whose translation has an x-image free of y, and the 3-torsion point
# (0, 1) of y^2 = x^3 + 1 and the point (0, 1) of infinite order on
# y^2 = x^3 + t x + 1, whose translations have x-images with a y part.
SMALL_SECTIONS = (
    (T, MultiPoly.zero(F), 0, 0),
    (MultiPoly.zero(F), MultiPoly.constant(F, 1), 0, 1),
    (T, MultiPoly.constant(F, 1), 0, 1),
)


def test_compose_of_translations_matches_eval_poly_reference():
    for A, B, x0, y0 in SMALL_SECTIONS:
        tr = _constant_translation(A, B, x0, y0)
        assert tr.u.b.is_zero() == (y0 == 0)
        _composed_as_reference(tr, tr)
        # The translation by the opposite section undoes tr: with a y part,
        # the denominators of the images have one as well.
        back = _constant_translation(A, B, x0, -y0)
        assert _composed_as_reference(tr, back).is_identity()
        for cx, cy, ct in ((F.zeta(2), F.zeta(3), F.one()), (F.zeta(4), F.zeta(6), F.zeta(8))):
            scaling = SurfaceMap.scaling(tr.model, cx, cy, ct)
            _composed_as_reference(tr, scaling)
            _composed_as_reference(scaling, tr)


def test_compose_of_parts_with_different_denominators_matches_reference():
    # x/t + y and x + y/t clear over t, with the polynomial part scaled by
    # it; after x -> t x or y -> t y both are the polynomial x + y.
    m = model()
    x, y, t = (FieldElement.coordinate(m, var) for var in ("x", "y", "t"))
    m1 = SurfaceMap(m, x / t + y, x + y / t, T_RF)
    first = _composed_as_reference(m1, SurfaceMap(m, x * t, y, T_RF))
    second = _composed_as_reference(m1, SurfaceMap(m, x, y * t, T_RF))
    assert first.u == x + y and second.v == x + y


def test_compose_of_test_surface_maps_matches_eval_poly_reference():
    # tr's x-image has a y part, so the denominator of each image does too;
    # the slow-gcd map composed with tau, either way round, is not a
    # polynomial map and is built part by part.
    tr = _test_surface_map("translation_surface.txt", "tr")
    assert not tr.u.b.is_zero()
    _composed_as_reference(tr, tr)
    slow, tau = _test_surface_map("slow_gcd_surface.txt", "sigma"), named_maps()["tau"]
    _composed_as_reference(slow, tau)
    _composed_as_reference(tau, slow)


def test_compose_with_a_base_image_that_is_not_a_polynomial_matches_reference():
    # On y^2 = x^3 + (t^2 + t^6) x, iota = (x/t^4, y/t^6, 1/t) is an
    # involution.  Composed with the scaling rho either way, the composite is
    # not a polynomial map, so it is built part by part; with iota second,
    # the t-image 1/t has a denominator other than 1.
    mdl = WeierstrassModel(F, T ** 2 + T ** 6, MultiPoly.zero(F))
    iota, rho = (
        SurfaceMap.from_expressions(mdl, *(parse_expression(e, XYT, F) for e in images))
        for images in (("x/t^4", "y/t^6", "1/t"), ("z^4*x", "z^6*y", "z^4*t"))
    )
    assert _composed_as_reference(iota, iota).is_identity()
    for m1, m2 in ((iota, rho), (rho, iota)):
        assert not _composed_as_reference(m1, m2).u.a.is_polynomial()


def _counting_gcd(monkeypatch):
    calls = []
    counted = polyring.multi_gcd

    def counting(p, q):
        calls.append(1)
        return counted(p, q)

    monkeypatch.setattr(polyring, "multi_gcd", counting)
    return calls


def test_polynomial_composites_take_no_gcd(monkeypatch):
    # tau o tau is the identity and every power on sigma_alt's order walk
    # (m^2, m^4 = M, M^2, M^3, M^4) is a scaling: each is kept by exact
    # division, with no gcd.  So is a translation after the opposite one,
    # whose images have denominators with a y part.
    maps = named_maps()
    A, B, x0, y0 = SMALL_SECTIONS[2]
    tr, back = (_constant_translation(A, B, x0, y) for y in (y0, -y0))
    calls = _counting_gcd(monkeypatch)
    assert compose(maps["tau"], maps["tau"]).is_identity()
    assert calls == []
    assert map_order(maps["sigma_alt"]) == 16
    assert calls == []
    assert compose(tr, back).is_identity()
    assert calls == []


def test_a_composite_that_is_not_polynomial_takes_no_extra_gcd(monkeypatch):
    # The slow-gcd map composed with itself is not a polynomial map: its
    # failed division must not add to the 41 gcds of building it part by
    # part.
    slow = _test_surface_map("slow_gcd_surface.txt", "sigma")
    calls = _counting_gcd(monkeypatch)
    compose(slow, slow)
    assert len(calls) <= 41


def test_composites_built_part_by_part_pin_their_gcds(monkeypatch):
    # A component that is not a polynomial is built part by part, with one
    # division per part: the gcds are those of that division and of the sum
    # image(a) + image(b) v.  Substituting reduced images instead, with every
    # power, sum and quotient reduced, took 927 gcds for tr o tr and 294 for
    # the slow-gcd map after tau.
    tr = _test_surface_map("translation_surface.txt", "tr")
    slow, tau = _test_surface_map("slow_gcd_surface.txt", "sigma"), named_maps()["tau"]
    calls = _counting_gcd(monkeypatch)
    compose(tr, tr)
    assert len(calls) <= 373
    calls.clear()
    compose(slow, tau)
    assert len(calls) <= 41


def test_a_denominator_that_vanishes_on_the_image_is_refused():
    # tau's images have denominators x and x^2, which vanish under x -> 0.
    m = model()
    flat = SurfaceMap(m, FieldElement.const(m, 0), FieldElement.coordinate(m, "y"), T_RF)
    with pytest.raises(ZeroDenominatorOnSurfaceError):
        compose(named_maps()["tau"], flat)
    # A component with a y part: the x-image of the translation by (0, 1)
    # on y^2 = x^3 + 1 is (2 - 2 y) / x^2, whose y part is substituted
    # before its denominator is found to vanish.
    tr = _constant_translation(*SMALL_SECTIONS[1])
    onto_section = SurfaceMap(
        tr.model, FieldElement.const(tr.model, 0), FieldElement.const(tr.model, 1), T_RF
    )
    with pytest.raises(ZeroDenominatorOnSurfaceError):
        compose(tr, onto_section)


def test_division_matches_inverse_reference():
    m = _small_model()
    rng = random.Random(5)

    def element(y_free):
        def part():
            # Denominators in x alone keep the norms' gcds small; no
            # coefficient is -4, so they are nonzero.
            den = _random_poly(rng, (1, 0, 0), 1) + 4
            return RationalFunction(_random_poly(rng, (1, 0, 1), 2), den)

        return FieldElement(m, part(), RationalFunction.constant(F, 0) if y_free else part())

    checked = 0
    for i in range(6):
        p, q = element(False), element(i % 3 == 0)
        if q.is_zero():
            continue
        a, b = _ref_div((p.a, p.b), (q.a, q.b), m.rhs)
        assert _pair(p / q) == (a.num, a.den, b.num, b.den)
        checked += 1
    assert checked >= 5


def test_power_equals_repeated_multiplication():
    m = model()
    base = FieldElement.coordinate(m, "y") * F.zeta(3)
    product = FieldElement.const(m, 1)
    for e in range(21):
        assert base ** e == product
        product = product * base
