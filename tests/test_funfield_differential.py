"""The gcd-free kernels against FieldElement references.

``verify_morphism`` and ``omega_factor`` decide their verdicts by polynomial
identities over cleared denominators.  The references below are the earlier
formulas in reduced function-field arithmetic: the residual
v^2 - u^3 - A(w) u - B(w) is zero, and the factor is y w' (u_x + u_y h) / v
with h = (3 x^2 + A) / (2 y).  A(w) and B(w) are formed here term by term,
not through the cleared coefficients that the kernels and
``morphism_residual`` share.  Both sides must give the same verdict, the
same factor, the same residual and the same exception with the same message.

The four checks read one cleared equation that each map keeps once it is
built, so every map is also rebuilt fresh and checked in the reverse order,
residual first: the answers must not depend on which check built it.

``translation_map`` writes the chord law down over cleared denominators; its
reference is the chord law in reduced function-field arithmetic, and the two
must give the same numerator and denominator in every part.
"""
import functools
import random

import pytest

from k3auto import funfield, polyring
from k3auto.cyclotomic import cyclotomic_field
from k3auto.fixtures import load_bundle
from k3auto.funfield import (
    FieldElement,
    NotAMorphismError,
    NotConstantFactorError,
    Section,
    SurfaceMap,
    add_points,
    ambient_scalar,
    compose,
    map_order,
    morphism_residual,
    omega_factor,
    translation_map,
    verify_morphism,
)
from k3auto.parser import parse_expression
from k3auto.polyring import MultiPoly, RationalFunction
from k3auto.surface import WeierstrassModel, classify_all, is_k3
from test_funfield import _random_section_model, build_named_maps

F = cyclotomic_field(16)
T = MultiPoly.gen(F, "t")
XYT = {"x", "y", "t"}


def _at_w(p, w):
    # p(w) for p in t alone, term by term in reduced rational arithmetic.
    out = RationalFunction.constant(w.field, 0)
    for (_, _, k), c in p.terms.items():
        out = out + w ** k * c
    return out


def reference_residual(m):
    model = m.model
    Aw, Bw = (FieldElement.from_ratfunc(model, _at_w(p, m.w)) for p in (model.A, model.B))
    return m.v * m.v - m.u * m.u * m.u - Aw * m.u - Bw


def reference_omega(m):
    residual = reference_residual(m)
    if not residual.is_zero():
        raise NotAMorphismError("omega factor of a map that is not a morphism", residual)
    if m.v.is_zero():
        raise NotAMorphismError("the image of y is 0")
    model = m.model
    field = model.field
    zero = RationalFunction.constant(field, 0)
    x = RationalFunction.gen(field, "x")
    half_slope = FieldElement(
        model, zero, (x * x * 3 + RationalFunction(model.A)) / (model.rhs * 2)
    )
    u_x = FieldElement(model, m.u.a.derivative("x"), m.u.b.derivative("x"))
    u_y = FieldElement(model, m.u.b, zero)
    w_prime = FieldElement.from_ratfunc(model, m.w.derivative("t"))
    y = FieldElement.coordinate(model, "y")
    factor = y * w_prime * (u_x + u_y * half_slope) / m.v
    if factor.is_zero():
        raise NotAMorphismError("the pulled-back 2-form is 0")
    if not (factor.b.is_zero() and factor.a.is_constant()):
        raise NotConstantFactorError("2-form factor did not reduce to a constant")
    return factor.a.constant_value()


def reference_scalar(m):
    # c with F(u, v, w) = c F for F = y^2 - x^3 - A x - B, both formed
    # directly as polynomials in x, y, t; None unless the map is polynomial
    # and such a c exists.
    parts = (m.w, m.u.a, m.u.b, m.v.a, m.v.b)
    if not all(r.is_polynomial() for r in parts):
        return None
    model = m.model
    x, y = (MultiPoly.gen(model.field, var) for var in ("x", "y"))
    w, ua, ub, va, vb = (r.num for r in parts)
    u, v = ua + ub * y, va + vb * y

    def at_w(p):
        out = MultiPoly.zero(model.field)
        for (_, _, k), c in p.terms.items():
            out = out + w ** k * c
        return out

    image = v * v - u * u * u - at_w(model.A) * u - at_w(model.B)
    equation = y ** 2 - x ** 3 - model.A * x - model.B
    if image.is_zero():
        return None
    c = image.leading_coeff_lex() / equation.leading_coeff_lex()
    return c if image == equation * c else None


def outcome(fn, m):
    # The value, or the class, message and residual text of the exception.
    try:
        return "value", fn(m)
    except (NotAMorphismError, NotConstantFactorError) as err:
        residual = getattr(err, "residual", None)
        return type(err).__name__, str(err), None if residual is None else str(residual)


def assert_agree(m):
    verdict = verify_morphism(m)
    residual = reference_residual(m)
    assert verdict is residual.is_zero()
    assert morphism_residual(m) == residual
    got = outcome(omega_factor, m)
    assert got == outcome(reference_omega, m)
    scalar = ambient_scalar(m)
    assert scalar == reference_scalar(m)
    fresh = SurfaceMap(m.model, m.u, m.v, m.w)
    again = morphism_residual(fresh)
    assert again == residual
    assert str(again) == str(morphism_residual(m))
    assert outcome(omega_factor, fresh) == got
    assert ambient_scalar(fresh) == scalar
    assert verify_morphism(fresh) is verdict
    return verdict, got


def fixture_model():
    return WeierstrassModel(F, T ** 3 * (T ** 4 - 1), MultiPoly.zero(F))


@functools.lru_cache(maxsize=None)
def named_maps():
    return build_named_maps(fixture_model())


def on_model(mdl, *images):
    return SurfaceMap.from_expressions(mdl, *(parse_expression(e, XYT, F) for e in images))


def constant_section(x0, y0, a_coeffs):
    # The constant section (x0, y0) on y^2 = x^3 + A x + B, with B constant
    # chosen to put the section on the curve.
    A = MultiPoly.from_int_coeffs(F, a_coeffs)
    B = MultiPoly.constant(F, y0 * y0 - x0 ** 3) - A * x0
    mdl = WeierstrassModel(F, A, B)
    return mdl, Section(RationalFunction.constant(F, x0), RationalFunction.constant(F, y0))


def translation(x0, y0, a_coeffs):
    return translation_map(*constant_section(x0, y0, a_coeffs))


def test_fixture_maps_and_words_agree():
    maps = named_maps()
    for name, m in maps.items():
        assert assert_agree(m)[0] is True
    rng = random.Random(19)
    names = sorted(maps)
    for _ in range(4):
        word = [rng.choice(names) for _ in range(rng.randint(2, 3))]
        m = maps[word[0]]
        for name in word[1:]:
            m = compose(m, maps[name])
        verdict, (kind, *_rest) = assert_agree(m)
        assert (verdict, kind) == (True, "value")


def _scaling_is_morphism(a, b, c):
    # (x, y, t) -> (z^a x, z^b y, z^c t) on y^2 = x^3 + (t^7 - t^3) x:
    # 2b = 3a = a + 7c = a + 3c mod 16.
    return (2 * b - 3 * a) % 16 == 0 and (3 * a - a - 7 * c) % 16 == 0 and 4 * c % 16 == 0


def test_seeded_scalings_agree():
    mdl = fixture_model()
    triples = [(a, b, c) for a in range(16) for b in range(16) for c in range(16)]
    morphisms = [abc for abc in triples if _scaling_is_morphism(*abc)]
    others = [abc for abc in triples if not _scaling_is_morphism(*abc)]
    rng = random.Random(1919)
    for a, b, c in rng.sample(morphisms, 4) + rng.sample(others, 6):
        m = SurfaceMap.scaling(mdl, F.zeta(a), F.zeta(b), F.zeta(c))
        verdict, got = assert_agree(m)
        assert verdict is _scaling_is_morphism(a, b, c)
        if verdict:
            assert got == ("value", F.zeta(a + c - b))
            assert ambient_scalar(m) == F.zeta(2 * b)


@pytest.mark.parametrize(
    "x0, y0, a_coeffs",
    [
        (0, 1, [0, 2]),  # x0 = 0, A = a t
        (0, 1, [3]),  # x0 = 0, A = a
        (1, 2, [1]),  # x0 != 0, A = a
        (1, 2, [0, 1]),  # x0 != 0, A = a t
        (-2, 1, [2, -1]),  # x0 != 0, A = a t + b
        (0, -1, [1, 0, 1]),  # deg A = 2
        (1, 1, [0, 0, 2]),  # deg A = 2, x0 != 0
    ],
)
def test_translations_agree(x0, y0, a_coeffs):
    assert assert_agree(translation(x0, y0, a_coeffs)) == (True, ("value", F.one()))


def test_perturbed_maps_agree():
    t = RationalFunction.gen(F, "t")
    for m in named_maps().values():
        for bad in (
            SurfaceMap(m.model, m.u + FieldElement.from_ratfunc(m.model, t), m.v, m.w),
            SurfaceMap(m.model, m.u, m.v * F.zeta(1), m.w),
        ):
            verdict, (kind, *_rest) = assert_agree(bad)
            assert (verdict, kind) == (False, "NotAMorphismError")


def test_flat_maps_of_the_cli_agree():
    fixture = fixture_model()
    constant = WeierstrassModel(F, MultiPoly.zero(F), MultiPoly.constant(F, 1))
    for mdl, images, reason in (
        (fixture, ("0", "0", "t"), "the image of y is 0"),
        (constant, ("0", "1", "t"), "the pulled-back 2-form is 0"),
    ):
        assert assert_agree(on_model(mdl, *images)) == (
            True, ("NotAMorphismError", reason, None)
        )


def test_isotrivial_maps_agree():
    # On y^2 = x^3 + 1 any map of the base is a morphism; the factor is
    # constant only for w' constant.  The fiberwise doubling scales it by 2.
    mdl = WeierstrassModel(F, MultiPoly.zero(F), MultiPoly.constant(F, 1))
    doubling = "((3*x^2)/(2*y))^2 - 2*x"
    cases = [
        (("x", "y", "z*t"), F.zeta(1)),
        (("x", "-y", "t+1"), -F.one()),
        ((doubling, f"(3*x^2)/(2*y)*(x - ({doubling})) - y", "t"), F.from_rational(2)),
        (("x", "y", "t^2"), None),
        (("x", "-y", "1/t"), None),
    ]
    for images, factor in cases:
        got = assert_agree(on_model(mdl, *images))
        if factor is None:
            assert got == (True, ("NotConstantFactorError",
                                  "2-form factor did not reduce to a constant", None))
        else:
            assert got == (True, ("value", factor))


def test_maps_with_a_base_image_that_is_not_a_polynomial_agree():
    # y^2 = x^3 + (t^2 + t^6) x is a K3 surface on which t -> 1/t lifts to
    # the involution iota, so W = t^6 is not 1 in the cleared coefficients.
    mdl = WeierstrassModel(F, T ** 2 + T ** 6, MultiPoly.zero(F))
    fibers = classify_all(mdl).fibers
    assert [(str(f.place), f.type) for f in fibers] == [
        ("t", "I0*"), ("t^4 + 1", "III"), ("infinity", "I0*")
    ]
    assert is_k3(mdl)
    iota = on_model(mdl, "x/t^4", "y/t^6", "1/t")
    rho = on_model(mdl, "z^4*x", "z^6*y", "z^4*t")
    for m, order, factor in (
        (iota, 2, -F.one()),
        (rho, 8, F.zeta(2)),
        (compose(iota, rho), 8, -F.zeta(2)),
    ):
        assert assert_agree(m) == (True, ("value", factor))
        assert map_order(m) == order
    verdict, (kind, *_rest) = assert_agree(on_model(mdl, "x/t^4", "y/t^5", "1/t"))
    assert (verdict, kind) == (False, "NotAMorphismError")


def test_the_kernels_take_no_gcd(monkeypatch):
    # A count, not a timing: the identity checks clear denominators and never
    # cancel them.
    maps = list(named_maps().values()) + [translation(0, 1, [0, 2])]
    calls = []
    counted = polyring.multi_gcd

    def counting(p, q):
        calls.append(None)
        return counted(p, q)

    monkeypatch.setattr(polyring, "multi_gcd", counting)
    for m in maps:
        assert verify_morphism(m) is True
        omega_factor(m)
    assert calls == []


def _reference_translation_map(model, section):
    # P -> P + T by the chord law in reduced FieldElement arithmetic: the
    # slope (y - yT) / (x - xT), u = slope^2 - x - xT, v = slope (x - u) - y.
    if section.is_zero_section:
        return SurfaceMap.identity(model)
    xT, yT = (FieldElement.from_ratfunc(model, c) for c in (section.x, section.y))
    x, y = (FieldElement.coordinate(model, var) for var in ("x", "y"))
    slope = (y - yT) / (x - xT)
    u = slope * slope - x - xT
    v = slope * (x - u) - y
    return SurfaceMap(model, u, v, RationalFunction.gen(model.field, "t"))


def _parts(m):
    # (num, den) of u.a, u.b, v.a and v.b: the representation, not only ==.
    return [(r.num, r.den) for e in (m.u, m.v) for r in (e.a, e.b)]


# (x0 = 0?, deg A) of the constant sections: the three strata of the maps
# benchmark, then x0 != 0 with deg A = 1 and with deg A = 2.
CONSTANT_STRATA = ((0, 1), (1, 0), (0, 0), (1, 1), (1, 2))


def _off_model_sections():
    # Sections that do not satisfy the model's equation.  (0, i) on
    # y^2 = x^3 + 1 has R(xT) = -yT^2, so L divides u_a's numerator, as for
    # the 2-torsion section (here twice); (1, 0) and (t / (t + 1), 0) have
    # yT = 0.
    t = RationalFunction.gen(F, "t")
    one = RationalFunction.constant(F, 1)
    fixture = fixture_model()
    flat = WeierstrassModel(F, MultiPoly.zero(F), MultiPoly.constant(F, 1))
    tx1 = WeierstrassModel(F, T, MultiPoly.constant(F, 1))
    return [
        (fixture, Section(one, one * 2)),
        (fixture, Section(one, RationalFunction.constant(F, 0))),
        (fixture, Section(t / (t + 1), RationalFunction.constant(F, 0))),
        (flat, Section(RationalFunction.constant(F, 0), RationalFunction.constant(F, F.zeta(4)))),
        (tx1, Section(t, t + 1)),
        (tx1, Section(t / (t + 1), t * t / ((t + 2) * (t + 2)))),
    ]


@functools.lru_cache(maxsize=None)
def translation_cases():
    # {kind: [(model, section), ...]}, seeded.
    rng = random.Random(3232)
    constant = []
    for zero_x, deg_a in CONSTANT_STRATA:
        drawn = len(constant) + 3
        while len(constant) < drawn:
            x0 = 0 if zero_x == 0 else rng.choice((-2, -1, 1, 2))
            y0 = rng.choice((-2, -1, 1, 2))
            a_coeffs = [rng.choice((-2, -1, 1, 2)) if k else 0 for k in range(deg_a)]
            a_coeffs.append(rng.choice((-2, -1, 1, 2)))
            try:
                constant.append(constant_section(x0, y0, a_coeffs))
            except ValueError:  # a singular model
                continue
    polynomial, rational = [], []
    for seed in (99, 17, 2024, 616):
        rng = random.Random(seed)
        built = None
        while built is None:
            built = _random_section_model(rng)
        mdl, p = built
        polynomial.append((mdl, p))
        p2 = add_points(mdl, p, p)
        p3 = p2 if p2.is_zero_section else add_points(mdl, p2, p)
        for q in (p2, p3):
            if q.is_zero_section:
                continue
            # Denominators of degree 8 and more cost the reference 0.3 s each.
            if q.x.den.degree_in("t") <= 4:
                kind = polynomial if q.x.is_polynomial() and q.y.is_polynomial() else rational
                kind.append((mdl, q))
    zero = RationalFunction.constant(F, 0)
    return {
        "constant": constant,
        "polynomial": polynomial,
        "rational": rational,
        "two_torsion": [(fixture_model(), Section(zero, zero))],
        "off_model": _off_model_sections(),
    }


def test_translation_cases_cover_every_kind():
    cases = translation_cases()
    assert {kind: len(c) for kind, c in cases.items()} == {
        "constant": 15, "polynomial": 5, "rational": 3, "two_torsion": 1, "off_model": 6,
    }
    for kind, pairs in cases.items():
        for mdl, section in pairs:
            assert section.on_model(mdl) is (kind != "off_model")


def test_translation_map_matches_the_chord_reference():
    for kind, pairs in translation_cases().items():
        for mdl, section in pairs:
            got, want = translation_map(mdl, section), _reference_translation_map(mdl, section)
            assert _parts(got) == _parts(want), (kind, section)
            assert got.w == want.w
    mdl = fixture_model()
    assert translation_map(mdl, Section.zero()).is_identity()


def _recording_gcd(monkeypatch):
    # Every multi_gcd call from here on appends its arguments to the list,
    # whether it comes through polyring or through funfield's own binding.
    calls = []
    recorded = polyring.multi_gcd

    def recording(p, q):
        calls.append((p, q))
        return recorded(p, q)

    monkeypatch.setattr(polyring, "multi_gcd", recording)
    monkeypatch.setattr(funfield, "multi_gcd", recording)
    return calls


def test_translation_map_takes_no_gcd_in_x_or_y(monkeypatch):
    # A count, not a timing: constant and polynomial sections, and (0, 0),
    # take no gcd at all; a rational section takes gcds in t alone.
    cases = translation_cases()
    calls = _recording_gcd(monkeypatch)
    for kind in ("constant", "polynomial", "two_torsion"):
        for mdl, section in cases[kind]:
            translation_map(mdl, section)
            assert calls == [], (kind, section)
    for mdl, section in cases["rational"]:
        translation_map(mdl, section)
        assert calls
        for args in calls:
            assert not any(p.uses_var(v) for p in args for v in "xy")
        calls.clear()


def test_a_translation_by_a_two_torsion_section_has_zero_parts_over_one():
    # yT = 0: u.b and v.a are 0/1, as RationalFunction stores a zero, and the
    # translation by (0, 0) on the fixture is tau, part by part.
    bundle = load_bundle()
    zero = RationalFunction.constant(bundle.model.field, 0)
    tr = translation_map(bundle.model, Section(zero, zero))
    tau = bundle.maps["tau"]
    assert _parts(tr) == _parts(tau)
    assert repr(tr) == repr(tau)
    one = MultiPoly.one(F)
    sections = [Section(zero, zero)] + [s for s in (c[1] for c in _off_model_sections())
                                        if s.y.is_zero()]
    assert len(sections) == 3
    for section in sections:
        tr = translation_map(bundle.model, section)
        for part in (tr.u.b, tr.v.a):
            assert part.num.is_zero() and part.den == one
