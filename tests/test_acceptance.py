"""Acceptance suite: every headline number, checked end to end on the
bundled fixtures at exact precision (no tolerances anywhere).

Run with ``pytest tests/test_acceptance.py -v`` for one line per criterion;
each test also prints an ACCEPTANCE verdict line.
"""
import functools
import random

from k3auto.cli import main as cli_main
from k3auto.cyclotomic import cyclotomic_field
from k3auto.files import parse_lattice_expression
from k3auto.fixtures import fixture_path, load_bundle
from k3auto.funfield import (
    Section,
    add_points,
    ambient_scalar,
    compose,
    map_order,
    normalize,
    omega_factor,
    translation_map,
    verify_morphism,
)
from k3auto.lattice import (
    discriminant_data,
    from_curve_config,
    genus_equal,
    signature,
)
from k3auto.parser import parse_expression
from k3auto.polyring import MultiPoly, RationalFunction, gcd_free_basis
from k3auto.rigidity import (
    census,
    edge_point_id,
    enumerate_actions,
    power,
    propagate,
    to_dot,
)
from k3auto.surface import classify_all
from test_funfield import inverse

F = cyclotomic_field(16)
BUNDLE = load_bundle()


@functools.lru_cache(maxsize=None)
def fixture_maps():
    return dict(BUNDLE.maps)


def report(number: int, label: str):
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_fiber_inventory(capsys):
    code = cli_main(["classify", str(fixture_path("order16_surface.txt"))])
    out = capsys.readouterr().out
    assert code == 0
    inv = classify_all(BUNDLE.model)
    assert inv.counts() == {"III*": 1, "III": 5}
    assert inv.euler_total == 24
    assert "euler_total = 24" in out
    assert "is_k3 = yes" in out
    assert out.count("| III |") == 2  # two place lines carrying the five III fibers
    with capsys.disabled():
        report(1, "fiber inventory: one III*, five III, Euler 24, K3")


def test_criterion_2_sigma_verification(capsys):
    sigma = fixture_maps()["sigma"]
    assert verify_morphism(sigma) is True
    assert ambient_scalar(sigma) == F.zeta(2)
    assert omega_factor(sigma) == F.zeta(1)
    assert map_order(sigma, 32) == 16
    assert omega_factor(sigma).multiplicative_order(32) == 16  # primitive
    with capsys.disabled():
        report(2, "sigma: morphism, scalar z^2, omega z, order 16, primitive")


def test_criterion_3_group_law(capsys):
    model = BUNDLE.model
    zero = RationalFunction.constant(F, 0)
    two_torsion = Section(zero, zero)
    trans = translation_map(model, two_torsion)
    xyt = {"x", "y", "t"}
    printed_u = normalize(parse_expression("(y^2-x^3)/x^2", xyt, F), model)
    printed_v = normalize(parse_expression("(x^3*y-y^3)/x^3", xyt, F), model)
    assert trans.u == printed_u
    assert trans.v == printed_v
    assert add_points(model, two_torsion, two_torsion).is_zero_section
    sigma = fixture_maps()["sigma"]
    assert compose(sigma, trans) == compose(trans, sigma)
    with capsys.disabled():
        report(3, "translation map printed form, 2-torsion, commutation")


def test_criterion_4_factorization_identity(capsys):
    model = BUNDLE.model
    maps = fixture_maps()
    sigma, sigma_alt, tau = maps["sigma"], maps["sigma_alt"], maps["tau"]
    assert compose(sigma_alt, sigma_alt) == compose(sigma, sigma)
    assert compose(sigma, inverse(sigma_alt)) == tau
    zero = RationalFunction.constant(F, 0)
    assert tau == translation_map(model, Section(zero, zero))
    assert map_order(tau, 8) == 2
    assert omega_factor(tau) == F.one()
    with capsys.disabled():
        report(4, "sigma_alt^2 = sigma^2, tau = sigma o sigma_alt^-1, Nikulin")


def test_criterion_5_rigidity_censuses(capsys):
    acts = BUNDLE.actions
    expected = {"sigma": (10, 1), "sigma_alt": (4, 0), "tau": (8, 0)}
    for name, (N, k) in expected.items():
        cen = census(acts[name])
        assert (cen.N, cen.k) == (N, k), name
    cen = census(power(acts["sigma"], 2))
    assert (cen.N, cen.k) == (10, 1)
    with capsys.disabled():
        report(5, "censuses 10/1, 4/0, 8/0 and square 10/1")


def test_criterion_6_unique_order16_action(capsys):
    classes = enumerate_actions(BUNDLE.config, 16, 1, census_filter=(10, 1))
    assert len(classes) == 1
    act = classes[0]
    for section in ("s0", "s1"):
        weights = sorted(w for (cv, _), w in act.weights.items() if cv == section)
        assert weights == [4, 12]
    with capsys.disabled():
        report(6, "unique order-16 class, degree-6 vertices at weight 4")


def test_criterion_7_lattice_identity(capsys):
    assert genus_equal(
        parse_lattice_expression("U+D8+D4"), parse_lattice_expression("U(2)+E8+D4")
    )
    G = from_curve_config(BUNDLE.config)
    assert sum(signature(G)) == 14
    assert signature(G) == (1, 13)
    assert discriminant_data(G).invariant_factors == (2, 2, 2, 2)
    with capsys.disabled():
        report(7, "genus identity and fixture Picard data")


def test_criterion_8_property_suites(capsys):
    # Anchor independence on every bundled action.
    for act in BUNDLE.actions.values():
        edge_flags = [(cv, pid) for (cv, pid) in act.weights if ":" in pid]
        for flag in edge_flags:
            rebuilt = propagate(
                BUNDLE.config, act.perm, act.n, act.c, flag, act.weights[flag]
            )
            assert rebuilt == act
    # Volume rule at every fixed point of every bundled action.
    for act in BUNDLE.actions.values():
        act.validate()
        fixed_edges = [
            (a, b, mult)
            for (a, b), mult in sorted(BUNDLE.config.edges.items())
            if act.perm[a] == a and act.perm[b] == b
        ]
        for a, b, mult in fixed_edges:
            pid = edge_point_id(a, b)
            wa, wb = act.weights[(a, pid)], act.weights[(b, pid)]
            if mult == 1:
                assert (wa + wb) % act.n == act.c % act.n
            else:
                assert wa == wb
    # Omega multiplicativity over all fixture map pairs.
    maps = fixture_maps()
    factors = {name: omega_factor(m) for name, m in maps.items()}
    for n1, m1 in maps.items():
        for n2, m2 in maps.items():
            assert omega_factor(compose(m1, m2)) == factors[n1] * factors[n2]
    # gcd-free-basis reconstruction on randomized polynomials.
    rng = random.Random(160808)
    T = MultiPoly.gen(F, "t")
    atoms = [T, T - 1, T + 1, T ** 2 + 1]
    for _ in range(8):
        polys = []
        for _ in range(rng.randint(1, 3)):
            p = MultiPoly.constant(F, rng.choice([1, -2, 3]))
            for atom in atoms:
                p = p * atom ** rng.randint(0, 2)
            if p.is_constant():
                p = p * atoms[0]
            polys.append(p)
        basis = gcd_free_basis(polys)
        for j, poly in enumerate(polys):
            rebuilt = MultiPoly.constant(F, 1)
            for place, exps in basis:
                rebuilt = rebuilt * place.poly ** exps[j]
            assert poly.exact_div(rebuilt).is_constant()
    # Byte-stable DOT and report regeneration.
    dot1 = to_dot(BUNDLE.config, BUNDLE.actions["sigma"])
    dot2 = to_dot(BUNDLE.config, BUNDLE.actions["sigma"])
    assert dot1 == dot2
    capsys.readouterr()
    reports = []
    for _ in range(2):
        assert cli_main(["classify", str(fixture_path("order16_surface.txt"))]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    with capsys.disabled():
        report(8, "property suites: anchors, volume rule, omega, bases, bytes")
