import random
from collections import deque
from itertools import product
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from k3auto import rigidity
from k3auto.errors import InputError
from k3auto.files import load_graph_file, load_graph_text
from k3auto.fixtures import fixture_text, load_bundle
from k3auto.rigidity import (
    AnchorOnMobileCurveError,
    CurveConfig,
    GraphAction,
    IncompatibleActionsError,
    InconsistentCycleError,
    RigidityError,
    TooManyFixedPointsError,
    UnderdeterminedActionError,
    _conjugacy_classes,
    _frame,
    _saturate,
    _transport,
    canonical_key,
    census,
    compose_actions,
    cycles,
    edge_point_id,
    enumerate_actions,
    graph_automorphisms,
    inverse_action,
    perm_dict,
    power,
    to_dot,
)

BUNDLE = load_bundle()
CFG = BUNDLE.config
# P-Q and the isolated 3-cycle X1 -> X2 -> X3; the action a has n = 2, c = 1
# and weight 1 at (P, P:Q), so order 6.
ISOLATED_CYCLE = load_graph_file(Path(__file__).with_name("isolated_cycle_graph.txt"))


def identity_perm(config):
    return {v: v for v in config.vertices}


def automorphism_dicts(config):
    return [perm_dict(config, g) for g in graph_automorphisms(config)]


def perm_from_cycles(config, cycles):
    perm = identity_perm(config)
    for cycle in cycles:
        for i, v in enumerate(cycle):
            perm[v] = cycle[(i + 1) % len(cycle)]
    return perm


def degree(config, v):
    return len(config.adj[v])


def is_connected(config):
    if not config.vertices:
        return True
    seen = {config.vertices[0]}
    queue = list(seen)
    for v in queue:
        for w in config.adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(config.vertices)


def stable_curves(action):
    return [v for v in action.config.vertices if action.perm[v] == v]


def curve_weight(action, curve):
    """The rotation exponent on a stable curve: 0 if pointwise fixed."""
    if curve in action.pointwise:
        return 0
    ws = [w for (c, _), w in action.weights.items() if c == curve]
    return min(ws) if ws else None


def fixed_edge_points(action):
    """The edges between two stable curves, in canonical order."""
    perm = action.perm
    return [
        (a, b, mult)
        for (a, b), mult in sorted(action.config.edges.items())
        if perm[a] == a and perm[b] == b
    ]


def test_fixture_graph_shape():
    assert len(CFG.vertices) == 20
    assert len(CFG.edges) == 24
    assert is_connected(CFG)
    degree6 = [v for v in CFG.vertices if degree(CFG, v) == 6]
    assert sorted(degree6) == ["s0", "s1"]
    assert degree(CFG, "C4") == 3


def test_sigma_action_from_the_anchor():
    act = BUNDLE.actions["sigma"]
    # The central component is pointwise fixed and both sections carry the
    # order-4 rotation exponent.
    assert act.pointwise == frozenset({"C4"})
    assert act.weights[("s0", edge_point_id("s0", "C1"))] == 4
    assert act.weights[("s1", edge_point_id("s1", "C7"))] == 4
    # Hand propagation along the chain: weights 3, 2, 1, 0, 1, 2, 3.
    chain = [curve_weight(act, f"C{i}") for i in range(1, 8)]
    assert chain == [3, 2, 1, 0, 1, 2, 3]


def test_sigma_census_counts():
    cen = census(BUNDLE.actions["sigma"])
    assert (cen.N, cen.k) == (10, 1)
    assert cen.curves == ("C4",)
    on_stable_fiber = [p for p in cen.points if "a5" in p.location or "b5" in p.location]
    assert len(on_stable_fiber) == 3
    rest = [p for p in cen.points if p not in on_stable_fiber]
    assert len(rest) == 7
    kinds = {p.kind for p in cen.points}
    assert kinds == {"transverse-intersection", "tangency", "free-point"}


def test_sigma_alt_census():
    cen = census(BUNDLE.actions["sigma_alt"])
    assert (cen.N, cen.k) == (4, 0)
    kinds = sorted(p.kind for p in cen.points)
    assert kinds == [
        "free-point",
        "free-point",
        "swap-point",
        "transverse-intersection",
    ]


def test_tau_census():
    cen = census(BUNDLE.actions["tau"])
    assert (cen.N, cen.k) == (8, 0)
    swaps = [p for p in cen.points if p.kind == "swap-point"]
    assert len(swaps) == 5  # one per tangent fiber pair


def test_power_of_sigma_squares_to_same_census():
    sq = power(BUNDLE.actions["sigma"], 2)
    cen = sq.census()
    assert (cen.N, cen.k) == (10, 1)
    assert sq.n == 8
    assert sq.order() == 8


def test_census_counts_no_point_of_zero_normal_weight():
    # Every class of order 2, 4 and 8 on the fixture: a point is on a fixed
    # curve exactly when its normal weight c - w is 0 mod n, never at a
    # transverse point, and N counts the other points.
    on_curve = 0
    for n in (2, 4, 8):
        for c in range(n):
            for act in enumerate_actions(CFG, n, c):
                cen = act.census()
                for p in cen.points:
                    if p.kind == "swap-point":
                        continue
                    (curve, w), *other = p.weights
                    zero = (act.c - w) % act.n == 0
                    assert (p.kind == "on-fixed-curve") == zero
                    if other and CFG.edges[(curve, other[0][0])] == 1:
                        assert (act.c - w) % act.n == other[0][1] != 0
                marked = sum(p.kind == "on-fixed-curve" for p in cen.points)
                assert cen.N == len(cen.points) - marked
                on_curve += marked
    assert on_curve > 0


def test_power_to_the_order_is_trivial():
    for act in BUNDLE.actions.values():
        triv = power(act, act.order())
        cen = triv.census()
        assert cen.N == 0
        assert cen.k == len(CFG.vertices)


def test_power_composition_law():
    act = BUNDLE.actions["sigma"]
    assert power(power(act, 2), 2) == power(act, 4)
    assert power(power(act, 2), 4) == power(act, 8)


def test_same_squares_for_both_factorizations():
    lhs = power(BUNDLE.actions["sigma_alt"], 2)
    rhs = power(BUNDLE.actions["sigma"], 2)
    assert lhs == rhs


def test_compose_recovers_tau():
    tau = compose_actions(
        BUNDLE.actions["sigma"], inverse_action(BUNDLE.actions["sigma_alt"])
    )
    cen = tau.census()
    assert (cen.N, cen.k) == (8, 0)
    assert tau.c % tau.n == 0
    assert tau == BUNDLE.actions["tau"]


def test_compose_with_inverse_is_trivial():
    act = BUNDLE.actions["sigma"]
    triv = compose_actions(act, inverse_action(act))
    assert triv.census().k == len(CFG.vertices)


def test_compose_matches_power():
    act = BUNDLE.actions["sigma"]
    assert compose_actions(act, act) == power(act, 2)


def test_config_refuses_a_repeated_vertex():
    with pytest.raises(ValueError, match="^duplicate vertex 'P'$"):
        CurveConfig(["P", "Q", "P"], [("P", "Q", 1)])


def test_compose_refuses_actions_on_different_configurations():
    # Both graphs have the one edge P-Q; the second adds R1 and R2, which its
    # action swaps.
    small = CurveConfig(["P", "Q"], [("P", "Q", 1)])
    large = CurveConfig(["P", "Q", "R1", "R2"], [("P", "Q", 1)])
    on_small = _saturate(small, identity_perm(small), 4, 1, {("P", "P:Q"): 1})
    on_large = _saturate(large, perm_from_cycles(large, [["R1", "R2"]]), 4, 1, {("P", "P:Q"): 1})
    for a1, a2 in ((on_small, on_large), (on_large, on_small)):
        with pytest.raises(IncompatibleActionsError) as excinfo:
            compose_actions(a1, a2)
        assert str(excinfo.value) == "actions live on different configurations"


def test_propagation_is_anchor_independent():
    for act in BUNDLE.actions.values():
        flags = [
            (curve, pid)
            for (curve, pid) in act.weights
            if ":" in pid
        ]
        for curve, pid in flags:
            rebuilt = _saturate(
                CFG, act.perm, act.n, act.c, {(curve, pid): act.weights[(curve, pid)]}
            )
            assert rebuilt == act


def test_volume_rule_holds_everywhere():
    for act in BUNDLE.actions.values():
        act.validate()
        for a, b, mult in fixed_edge_points(act):
            pid = edge_point_id(a, b)
            wa, wb = act.weights[(a, pid)], act.weights[(b, pid)]
            if mult == 1:
                assert (wa + wb) % act.n == act.c % act.n
            else:
                assert wa == wb


def test_every_stable_curve_has_two_fixed_points():
    for act in BUNDLE.actions.values():
        cen = act.census()
        for curve in stable_curves(act):
            if curve in act.pointwise:
                continue
            flags = [pid for (cv, pid) in act.weights if cv == curve]
            assert len(flags) == 2


def test_chain_of_three_with_zero_anchor():
    cfg = CurveConfig(["L", "M", "R"], [("L", "M", 1), ("M", "R", 1)])
    act = _saturate(cfg, identity_perm(cfg), 16, 1, {("M", edge_point_id("L", "M")): 0})
    assert act.pointwise == frozenset({"M"})
    assert act.weights[("L", edge_point_id("L", "M"))] == 1
    assert act.weights[("R", edge_point_id("M", "R"))] == 1
    assert act.weights[("L", "L.free0")] == 15
    cen = act.census()
    assert (cen.N, cen.k) == (2, 1)


def test_triangle_is_inconsistent():
    cfg = CurveConfig(
        ["P", "Q", "R"], [("P", "Q", 1), ("Q", "R", 1), ("P", "R", 1)]
    )
    with pytest.raises(RigidityError):
        _saturate(cfg, identity_perm(cfg), 16, 1, {("P", edge_point_id("P", "Q")): 5})
    # Brute-force oracle: no weight assignment at all satisfies the rules.
    # Each curve is parametrized by w (0 meaning pointwise fixed); flags are
    # (w at first point, -w at second point) in the cyclic order.
    found = False
    for wp in range(16):
        for wq in range(16):
            for wr in range(16):
                # points: PQ, QR, PR; curve P carries (wp at PQ, -wp at PR),
                # Q carries (wq at QR, -wq at PQ), R carries (wr at PR, -wr at QR)
                volume = (
                    (wp - wq) % 16 == 1
                    and (wq - wr) % 16 == 1
                    and (wr - wp) % 16 == 1
                )
                if volume:
                    found = True
    assert not found


def test_anchor_on_mobile_curve_rejected():
    perm = perm_from_cycles(CFG, [["a1", "a2", "a3", "a4"], ["b1", "b2", "b3", "b4"]])
    with pytest.raises(AnchorOnMobileCurveError):
        _saturate(CFG, perm, 16, 1, {("a1", edge_point_id("a1", "b1")): 3})
    with pytest.raises(AnchorOnMobileCurveError):
        _saturate(CFG, perm, 16, 1, {("s0", edge_point_id("s0", "a1")): 3})


def test_too_many_fixed_points_under_identity():
    # Under the identity the section s0 carries six fixed points, so any
    # nonzero anchor weight there is impossible.
    with pytest.raises(TooManyFixedPointsError):
        _saturate(CFG, identity_perm(CFG), 16, 1, {("s0", edge_point_id("s0", "C1")): 4})


def test_wrong_anchor_weight_contradicts():
    perm = perm_from_cycles(CFG, [["a1", "a2", "a3", "a4"], ["b1", "b2", "b3", "b4"]])
    with pytest.raises(RigidityError):
        _saturate(CFG, perm, 16, 1, {("s0", edge_point_id("s0", "C1")): 5})


def test_orbit_rule_rejects_double_transpositions():
    # Two 2-cycles of fiber pairs would need a rotation of order 2 on the
    # sections, but the propagated section weight 4 has order 4.
    perm = perm_from_cycles(CFG, [["a1", "a2"], ["b1", "b2"], ["a3", "a4"], ["b3", "b4"]])
    with pytest.raises(RigidityError):
        _saturate(CFG, perm, 16, 1, {("C4", edge_point_id("C4", "C8")): 0})


def edited_sigma(perm=None, weights=(), dropped=(), pointwise=(), unmarked=(), free_points=None):
    """sigma with its permutation replaced, weights set or dropped, curves
    added to or removed from the pointwise-fixed set and its free points
    replaced, unchecked."""
    act = BUNDLE.actions["sigma"]
    new_weights = {**act.weights, **dict(weights)}
    for flag in dropped:
        del new_weights[flag]
    return GraphAction(
        CFG,
        act.n,
        act.c,
        act.perm if perm is None else perm,
        new_weights,
        (act.pointwise | set(pointwise)) - set(unmarked),
        act.free_points if free_points is None else free_points,
    )


# Each edit of sigma breaks one rule, and validate names the first failure
# that the walk, run again from the edited data, meets.
VALIDATE_FAILURES = [
    (
        dict(perm=perm_from_cycles(CFG, [["a1", "C1"]])),
        RigidityError,
        "permutation is not a graph automorphism",
    ),
    (
        dict(pointwise={"a1"}),
        AnchorOnMobileCurveError,
        "curve a1 is mobile under the action",
    ),
    (
        dict(pointwise={"s0"}),
        InconsistentCycleError,
        "curve s0 forced pointwise fixed but neighbor a1 moves",
    ),
    (
        dict(weights={("a1", "a1:b1"): 3}),
        AnchorOnMobileCurveError,
        "curve a1 is mobile under the action",
    ),
    (dict(weights={("C1", "C1:C2"): 19}), RigidityError, "weight out of range"),
    (
        dict(dropped=[("C1", "C1:C2")]),
        UnderdeterminedActionError,
        "missing weight at C1:C2",
    ),
    (
        dict(weights={("C2", "C1:C2"): 13}),
        InconsistentCycleError,
        "contradictory weights 13 and 14 at C1:C2 on C2",
    ),
    (
        dict(weights={("b5", "a5:b5"): 10}),
        InconsistentCycleError,
        "contradictory weights 10 and 11 at a5:b5 on b5",
    ),
    (
        dict(weights={("C8", "C8.free1"): 15}),
        InconsistentCycleError,
        "weight 15 at C8.free1 on C8, the rules give None",
    ),
    (
        dict(weights={("C8", "C8.free0"): 14}),
        InconsistentCycleError,
        "contradictory weights 14 and 15 at C8.free0 on C8",
    ),
    (
        dict(perm=perm_from_cycles(CFG, [["a1", "a2"], ["b1", "b2"], ["a3", "a4"], ["b3", "b4"]])),
        InconsistentCycleError,
        "orbit of a1 on s0 has length 2, rotation order is 4",
    ),
    # The walk gives back every weight here, but C4 pointwise fixed and C8
    # with its free point.
    (
        dict(unmarked={"C4"}),
        InconsistentCycleError,
        "curve C4 has weight 0 but is not pointwise fixed",
    ),
    (
        dict(free_points={}),
        InconsistentCycleError,
        "free points {}, the rules give {'C8': ('C8.free0',)}",
    ),
]


@pytest.mark.parametrize("edit, error, message", VALIDATE_FAILURES)
def test_validate_names_each_broken_rule(edit, error, message):
    edited_sigma().validate()
    with pytest.raises(RigidityError) as excinfo:
        edited_sigma(**edit).validate()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


# P meets Q and the curves R1 and R2, which SWAP exchanges; V is isolated.
# Each case reaches one raise of the saturation walk, with order 8 and
# volume exponent 1: (perm, seeds, free seeds, error class, message).
PQR = CurveConfig(["P", "Q", "R1", "R2", "V"], [("P", "Q", 1), ("P", "R1", 1), ("P", "R2", 1)])
SWAP = perm_from_cycles(PQR, [["R1", "R2"]])
SATURATION_FAILURES = [
    (
        identity_perm(PQR),
        {("P", "P:Q"): 3},
        None,
        TooManyFixedPointsError,
        "curve P has 3 fixed points, cannot carry nonzero weight 3",
    ),
    (SWAP, {}, {"Q": [2, 5]}, TooManyFixedPointsError, "curve Q would carry 3 fixed points"),
    (
        identity_perm(PQR),
        {("Q", "P:Q"): 3},
        None,
        InconsistentCycleError,
        "contradictory weights 3 and 1 at P:Q on Q",
    ),
    (
        identity_perm(PQR),
        {},
        {"V": [0, 3]},
        InconsistentCycleError,
        "nonzero weight 3 on pointwise-fixed curve V",
    ),
    (
        SWAP,
        {("P", "P:Q"): 0},
        None,
        InconsistentCycleError,
        "curve P forced pointwise fixed but neighbor R1 moves",
    ),
    (
        identity_perm(PQR),
        {},
        {"V": [3, 0]},
        InconsistentCycleError,
        "curve V is pointwise fixed yet carries free points",
    ),
    (
        SWAP,
        {("P", "P:Q"): 2},
        None,
        InconsistentCycleError,
        "orbit of R1 on P has length 2, rotation order is 4",
    ),
    (
        SWAP,
        {("R1", "P:R1"): 3},
        None,
        AnchorOnMobileCurveError,
        "curve R1 is mobile under the action",
    ),
    (SWAP, {}, {"R1": [3]}, AnchorOnMobileCurveError, "curve R1 is mobile under the action"),
    (
        SWAP,
        {("P", "P:R1"): 3},
        None,
        AnchorOnMobileCurveError,
        "point P:R1 is not a fixed point of the stable curve P",
    ),
    (
        SWAP,
        {("P", "P:Q"): 4},
        None,
        UnderdeterminedActionError,
        "stable curve V is underdetermined after propagation",
    ),
]


@pytest.mark.parametrize("perm, seeds, free_seeds, error, message", SATURATION_FAILURES)
def test_saturation_names_each_contradiction(perm, seeds, free_seeds, error, message):
    with pytest.raises(RigidityError) as excinfo:
        _saturate(PQR, perm, 8, 1, seeds, free_seeds)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


def test_graph_automorphism_group():
    auts = automorphism_dicts(CFG)
    assert len(auts) == 240
    # Group sanity: identity present, closed under composition on a sample,
    # every element is an automorphism, and the generators appear.
    ident = identity_perm(CFG)
    assert ident in auts
    for perm in auts:
        assert CFG.is_automorphism(perm)
    rng = random.Random(1)
    as_tuples = {tuple(sorted(p.items())) for p in auts}
    for _ in range(25):
        g = rng.choice(auts)
        h = rng.choice(auts)
        gh = {v: g[h[v]] for v in CFG.vertices}
        assert tuple(sorted(gh.items())) in as_tuples
    swap_pairs = perm_from_cycles(CFG, [["a1", "a2"], ["b1", "b2"]])
    assert tuple(sorted(swap_pairs.items())) in as_tuples
    arm_swap = perm_from_cycles(
        CFG,
        [[f"a{i}", f"b{i}"] for i in range(1, 6)]
        + [["s0", "s1"], ["C1", "C7"], ["C2", "C6"], ["C3", "C5"]],
    )
    assert tuple(sorted(arm_swap.items())) in as_tuples


@st.composite
def small_configs(draw):
    names = [f"v{i}" for i in range(draw(st.integers(1, 7)))]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    mults = draw(
        st.lists(st.sampled_from([0, 0, 1, 2]), min_size=len(pairs), max_size=len(pairs))
    )
    return CurveConfig(names, [(a, b, m) for (a, b), m in zip(pairs, mults) if m])


def _reference_graph_automorphisms(config):
    """Every automorphism, by backtracking on degree and neighbourhood data to
    each leaf, sorted by images in vertex order: graph_automorphisms as it
    was before the stabiliser chain."""

    def signature(v):
        return (
            degree(config, v),
            tuple(sorted((m, degree(config, w)) for w, m in config.adj[v].items())),
        )

    sigs = {v: signature(v) for v in config.vertices}
    order = sorted(config.vertices, key=lambda v: (-degree(config, v), v))
    candidates = {v: [w for w in config.vertices if sigs[w] == sigs[v]] for v in order}
    out = []
    assignment: dict[str, str] = {}
    used: set[str] = set()

    def extend(i):
        if i == len(order):
            out.append(dict(assignment))
            if len(out) > rigidity.MAX_AUTOMORPHISMS:
                raise InputError(
                    f"the graph has more than {rigidity.MAX_AUTOMORPHISMS} automorphisms"
                )
            return
        v = order[i]
        for w in candidates[v]:
            if w in used:
                continue
            if any(
                u in assignment and config.adj[w].get(assignment[u]) != mult
                for u, mult in config.adj[v].items()
            ):
                continue
            if any((u in config.adj[v]) != (assignment[u] in config.adj[w]) for u in assignment):
                continue
            assignment[v] = w
            used.add(w)
            extend(i + 1)
            used.remove(w)
            del assignment[v]

    extend(0)
    out.sort(key=lambda p: tuple(p[v] for v in config.vertices))
    return out


def test_automorphisms_match_the_backtracking_reference_on_fixture():
    assert automorphism_dicts(CFG) == _reference_graph_automorphisms(CFG)


@settings(max_examples=200, deadline=None)
@given(small_configs())
@example(CurveConfig([], []))
@example(CurveConfig([f"x{i}" for i in range(7)], []))
@example(CurveConfig(["p", "q", "r", "s", "t"], [("p", "q", 2), ("r", "s", 1)]))
@example(CurveConfig(["p", "q", "r", "s"], [("p", "q", 2), ("r", "s", 2), ("q", "r", 1)]))
def test_automorphisms_match_the_backtracking_reference_on_small_graphs(config):
    # Isolated curves, tangency edges and disconnected graphs among them.
    assert automorphism_dicts(config) == _reference_graph_automorphisms(config)


def test_automorphisms_of_a_graph_over_the_vertex_bound_are_refused():
    names = [f"v{i:03d}" for i in range(300)]
    path = CurveConfig(names, [(a, b, 1) for a, b in zip(names, names[1:])])
    with pytest.raises(InputError, match="^vertex bound for enumeration is 64$"):
        graph_automorphisms(path)


def test_enumerate_unique_order16_action():
    classes = enumerate_actions(CFG, 16, 1, census_filter=(10, 1))
    assert len(classes) == 1
    act = classes[0]
    cen = act.census()
    assert (cen.N, cen.k) == (10, 1)
    # In the unique class the two degree-6 vertices carry weight exponent 4.
    assert canonical_key(act) == canonical_key(BUNDLE.actions["sigma"])
    for section in ("s0", "s1"):
        flags = [w for (cv, pid), w in act.weights.items() if cv == section]
        assert sorted(flags) in ([4, 12],)


def test_enumerate_trivial_order():
    classes = enumerate_actions(CFG, 1, 0)
    assert len(classes) == 1
    cen = classes[0].census()
    assert cen.k == 20 and cen.N == 0


def test_power_exponent_is_taken_modulo_the_period():
    for act in BUNDLE.actions.values():
        period = lcm(act.n, *map(len, cycles(act.perm)))
        for m in range(-period, 2 * period + 1):
            assert action_data([power(act, m)]) == action_data([power(act, m + period)])
        inv = inverse_action(act)
        for m in (1, 2, 3, 5):
            assert power(act, -m) == power(inv, m)


# -- the shared walk against the concrete walk it replaced ----------------------


def _check_rotation(curve, w, n, orbit_lengths):
    """The projective-line rule on orbits: a curve that rotates with nonzero
    weight w has rotation order n / gcd(n, w), and so must every orbit of its
    mobile neighbours."""
    rotation = n // gcd(n, w)
    for length, d in orbit_lengths.get(curve, {}).items():
        if length != rotation:
            raise InconsistentCycleError(
                f"orbit of {d} on {curve} has length {length}, rotation order is {rotation}"
            )


def _reference_validate(action, frame=None):
    """GraphAction.validate as it was before it ran the walk again: every
    rule stated a second time, an oracle for the walk.

    frame is _frame(config, perm) of this action's permutation when the
    caller holds it already (its automorphism check ran when it was
    built); otherwise it is built and checked here."""
    n, c = action.n, action.c
    stable, _fixed_points, edge_of, orbit_lengths = frame or _frame(action.config, action.perm)

    def weight_at(curve, point):
        # 0 on any point of a pointwise-fixed curve, whatever is recorded.
        return 0 if curve in action.pointwise else action.weights.get((curve, point))

    for curve in sorted(action.pointwise):
        if curve not in stable:
            raise RigidityError(f"pointwise-fixed curve {curve} is mobile")
        if curve in orbit_lengths:
            d = next(iter(orbit_lengths[curve].values()))
            raise InconsistentCycleError(
                f"pointwise-fixed curve {curve} meets mobile curve {d}"
            )
    for (curve, point), w in action.weights.items():
        if curve not in stable:
            raise RigidityError(f"weight on mobile curve {curve}")
        if not 0 <= w < n:
            raise RigidityError("weight out of range")
    for pid, (a, b, mult) in edge_of.items():
        wa = weight_at(a, pid)
        wb = weight_at(b, pid)
        if wa is None or wb is None:
            raise UnderdeterminedActionError(f"missing weight at {pid}")
        if mult == 1:
            if (wa + wb) % n != c:
                raise InconsistentCycleError(
                    f"volume rule fails at {pid}: {wa} + {wb} != {c} mod {n}"
                )
        else:
            if wa != wb:
                raise InconsistentCycleError(
                    f"tangency rule fails at {pid}: {wa} != {wb}"
                )
    for curve in stable:
        if curve in action.pointwise:
            continue
        flags = {
            point: w for (cv, point), w in action.weights.items() if cv == curve
        }
        if not flags:
            raise UnderdeterminedActionError(f"no weights on stable curve {curve}")
        if len(flags) != 2:
            raise TooManyFixedPointsError(
                f"curve {curve} carries {len(flags)} fixed points"
            )
        (p1, w1), (p2, w2) = sorted(flags.items())
        if (w1 + w2) % n != 0 or w1 % n == 0:
            raise InconsistentCycleError(
                f"projective-line rule fails on {curve}: weights {w1}, {w2}"
            )
        _check_rotation(curve, w1, n, orbit_lengths)


def _reference_saturate(config, perm, n, c, seeds, free_seeds=None, frame=None) -> GraphAction:
    """_saturate as it was before its propagation became one walk with
    _plan's: the concrete walk alone, then the final validation, which
    states every rule again (_reference_validate); an oracle for the shared
    walk.

    frame is _frame(config, perm) when the caller has built it already; the
    final validation reuses it.
    """
    frame = frame or _frame(config, perm)
    stable, fixed_points, edge_of, orbit_lengths = frame
    c %= n

    weights: dict[tuple[str, str], int] = {}
    pointwise: set[str] = set()
    free: dict[str, list[str]] = {v: [] for v in stable}
    queue: deque[tuple[str, str]] = deque()

    def set_weight(curve, pid, w):
        w %= n
        if w != 0 and len(fixed_points[curve]) >= 3:
            raise TooManyFixedPointsError(
                f"curve {curve} has {len(fixed_points[curve])} fixed points, "
                f"cannot carry nonzero weight {w}"
            )
        key = (curve, pid)
        if key in weights:
            if weights[key] != w:
                raise InconsistentCycleError(
                    f"contradictory weights {weights[key]} and {w} at {pid} on {curve}"
                )
            return
        if w != 0:
            if curve in pointwise:
                raise InconsistentCycleError(
                    f"nonzero weight {w} on pointwise-fixed curve {curve}"
                )
            _check_rotation(curve, w, n, orbit_lengths)
        weights[key] = w
        queue.append(key)

    def mark_pointwise(curve):
        if curve in pointwise:
            return
        if curve in orbit_lengths:
            d = next(iter(orbit_lengths[curve].values()))
            raise InconsistentCycleError(
                f"curve {curve} forced pointwise fixed but neighbor {d} moves"
            )
        if free[curve]:
            raise InconsistentCycleError(
                f"curve {curve} is pointwise fixed yet carries free points"
            )
        pointwise.add(curve)
        for pid in fixed_points[curve]:
            set_weight(curve, pid, 0)

    # A stable curve with three or more fixed points must be the identity.
    for curve in stable:
        if len(fixed_points[curve]) >= 3:
            mark_pointwise(curve)

    for (curve, pid), w in sorted(seeds.items()):
        if curve not in stable:
            raise AnchorOnMobileCurveError(f"curve {curve} is mobile under the action")
        if pid not in fixed_points[curve]:
            raise AnchorOnMobileCurveError(
                f"point {pid} is not a fixed point of the stable curve {curve}"
            )
        set_weight(curve, pid, w)

    for curve, ws in sorted((free_seeds or {}).items()):
        if curve not in stable:
            raise AnchorOnMobileCurveError(f"curve {curve} is mobile under the action")
        for w in ws:
            if w % n == 0:
                # Weight zero means the rotation is trivial: the would-be free
                # point melts into a pointwise-fixed curve.
                mark_pointwise(curve)
                continue
            pid = f"{curve}.free{len(free[curve])}"
            free[curve].append(pid)
            set_weight(curve, pid, w)

    while queue:
        curve, pid = queue.popleft()
        w = weights[(curve, pid)]
        if w == 0:
            mark_pointwise(curve)
        else:
            known = fixed_points[curve] + free[curve]
            if len(known) == 1:
                new_pid = f"{curve}.free{len(free[curve])}"
                free[curve].append(new_pid)
                set_weight(curve, new_pid, -w)
            elif len(known) == 2:
                other = known[0] if known[1] == pid else known[1]
                set_weight(curve, other, -w)
            else:
                raise TooManyFixedPointsError(
                    f"curve {curve} would carry {len(known)} fixed points"
                )
        if pid in edge_of:
            a, b, mult = edge_of[pid]
            other_curve = b if curve == a else a
            set_weight(other_curve, pid, w if mult == 2 else c - w)

    for curve in stable:
        if curve in pointwise:
            continue
        known = fixed_points[curve] + free[curve]
        missing = [p for p in known if (curve, p) not in weights]
        if missing or len(known) != 2:
            raise UnderdeterminedActionError(
                f"stable curve {curve} is underdetermined after propagation"
            )

    action = GraphAction(config, n, c, perm, weights, pointwise, free)
    _reference_validate(action, frame)
    return action


def outcome(build, *args, **kwargs):
    """The action build returns, or the class and text of its error."""
    try:
        return action_data([build(*args, **kwargs)])
    except RigidityError as err:
        return type(err), str(err)


@settings(max_examples=150, deadline=None)
@given(small_configs(), st.sampled_from([1, 2, 3, 4, 6, 8]), st.data())
def test_saturation_matches_the_reference_on_small_graphs(config, n, data):
    # Every call of _saturate below is also run on _reference_saturate: the
    # two give the same action, or raise the same error class with the same
    # text.  The calls come from one seed at every flag of every edge (on
    # mobile curves and at moving points too) and weight, under two
    # automorphisms; from power, which seeds every weight of an action; and
    # from compose_actions, which also seeds free points.
    c = data.draw(st.integers(0, n - 1))
    perms = automorphism_dicts(config)
    original = rigidity._saturate

    def checked(*args, **kwargs):
        got = outcome(original, *args, **kwargs)
        assert got == outcome(_reference_saturate, *args, **kwargs), args
        return original(*args, **kwargs)

    def attempt(build, *args):
        try:
            survivors.append(build(*args))
        except RigidityError:
            pass

    survivors = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rigidity, "_saturate", checked)
        for perm in (data.draw(st.sampled_from(perms)), data.draw(st.sampled_from(perms))):
            for a, b in sorted(config.edges):
                for curve, w in product((a, b), range(n)):
                    flag = (curve, edge_point_id(a, b))
                    attempt(rigidity._saturate, config, perm, n, c, {flag: w})
        if survivors:
            chosen = st.sampled_from(survivors)
            for act, m in data.draw(st.lists(st.tuples(chosen, st.integers(-64, 64)), max_size=8)):
                attempt(power, act, m)
            for a1, a2 in data.draw(st.lists(st.tuples(chosen, chosen), max_size=8)):
                attempt(compose_actions, a1, a2)


def _reference_power(action, m):
    """power with free weights seeded only on curves that stay rotating: a
    curve whose weight m annihilates is marked pointwise fixed by hand.  When
    m annihilates every weight, every curve perm2 fixes gets a zero free
    seed, as in power."""
    n = action.n
    perm_cycles = cycles(action.perm)
    m %= lcm(n, *map(len, perm_cycles))
    g = gcd(n, m)
    perm2 = {cyc[i]: cyc[(i + m) % len(cyc)] for cyc in perm_cycles for i in range(len(cyc))}
    seeds = {}
    free_seeds = {}
    for curve in stable_curves(action):
        curve_w = curve_weight(action, curve)
        if curve_w is not None and (m * curve_w) % n == 0:
            continue
        for pid in action.free_points.get(curve, ()):
            free_seeds.setdefault(curve, []).append(((m * action.weights[(curve, pid)]) % n) // g)
    for (curve, pid), w in action.weights.items():
        if not pid.startswith(f"{curve}.free"):
            seeds[(curve, pid)] = ((m * w) % n) // g
    if n // g == 1:
        free_seeds = {curve: [0] for curve in perm2 if perm2[curve] == curve}
    return _reference_saturate(
        action.config, perm2, n // g, ((m * action.c) % n) // g, seeds, free_seeds
    )


def test_power_matches_the_reference():
    actions = list(BUNDLE.actions.values())
    actions += [inverse_action(act) for act in actions]
    actions += enumerate_actions(CFG, 16, 1) + list(ISOLATED_CYCLE[1].values())
    for act in actions:
        order = act.order()
        for m in range(-2 * order, 2 * order + 1):
            assert outcome(power, act, m) == outcome(_reference_power, act, m)


def test_power_at_a_multiple_of_the_order_fixes_every_curve():
    # A power with every weight 0 fixes pointwise every curve its permutation
    # fixes, also the X curves, which meet no curve that a fixes.
    act = ISOLATED_CYCLE[1]["a"]
    assert act.order() == 6
    for m, k in ((6, 5), (12, 5), (-6, 5), (2, 2)):
        cen = power(act, m).census()
        assert (power(act, m).n, cen.N, cen.k) == (1, 0, k)
    with pytest.raises(UnderdeterminedActionError) as excinfo:
        power(act, 3)
    assert str(excinfo.value) == "stable curve X1 is underdetermined after propagation"
    for name, m in (("tau", 2), ("sigma", 16)):
        triv = power(BUNDLE.actions[name], m)
        assert (triv.n, triv.census().k) == (1, 20)


def single_flag_edits(action):
    """Each action that differs from action in one datum: a weight moved by
    +-1, a flag dropped (from the free points too), an extra free point of
    weight +-1 on any curve, a curve added to or removed from the
    pointwise-fixed set, or the permutation composed with a transposition of
    two curves of equal degree."""
    config, n, weights, free_points = action.config, action.n, action.weights, action.free_points

    def edited(perm=action.perm, weights=weights, pointwise=action.pointwise, free=free_points):
        return GraphAction(config, n, action.c, perm, weights, pointwise, free)

    for flag, w in weights.items():
        for w2 in {(w + 1) % n, (w - 1) % n} - {w}:
            yield edited(weights={**weights, flag: w2})
        yield edited(
            weights={f: v for f, v in weights.items() if f != flag},
            free={cv: [p for p in pids if (cv, p) != flag] for cv, pids in free_points.items()},
        )
    for curve in config.vertices:
        pids = free_points.get(curve, ())
        pid = f"{curve}.free{len(pids)}"
        for w in {1 % n, -1 % n}:
            extra = {**free_points, curve: pids + (pid,)}
            yield edited(weights={**weights, (curve, pid): w}, free=extra)
        yield edited(pointwise=action.pointwise ^ {curve})
    for u, v in product(config.vertices, repeat=2):
        if u < v and degree(config, u) == degree(config, v):
            swap = {u: v, v: u}
            yield edited(perm={x: action.perm[swap.get(x, x)] for x in config.vertices})


def passes(check, action):
    try:
        check(action)
    except RigidityError:
        return False
    return True


def records_zeros(action):
    """Each pointwise-fixed curve records weight 0 at each of its fixed points
    and nothing else, as GraphAction states.  _reference_validate reads such
    a curve through its weight_at, which gives 0 whatever is recorded, and
    checks no free point on it."""
    fixed_points = _frame(action.config, action.perm)[1]
    return all(
        {pid: w for (cv, pid), w in action.weights.items() if cv == curve}
        == dict.fromkeys(fixed_points[curve], 0)
        for curve in action.pointwise
    )


def assert_validate_matches_the_reference(actions):
    """Every action passes _reference_validate and validate(), and each
    single-flag edit of it is rejected by validate() exactly when
    _reference_validate rejects it or it records no zeros as records_zeros
    asks.  Returns how many edits were accepted, how many rejected, and how
    many of those for the recorded zeros alone."""
    seen = {"accepted": 0, "rejected": 0, "recorded zeros": 0}
    for action in actions:
        _reference_validate(action)
        action.validate()
        for edit in single_flag_edits(action):
            by_rules = passes(_reference_validate, edit)
            verdict = by_rules and records_zeros(edit)
            assert passes(GraphAction.validate, edit) == verdict, action_data([edit])
            seen["accepted" if verdict else "rejected"] += 1
            seen["recorded zeros"] += by_rules and not verdict
    return seen


def built(build, calls):
    """What build returns for each argument tuple in calls, where it raises
    no RigidityError."""
    out = []
    for args in calls:
        try:
            out.append(build(*args))
        except RigidityError:
            pass
    return out


def returned_actions(actions):
    """actions, their powers up to their order, their inverses and their
    pairwise compositions, each distinct action once."""
    actions = list(actions)
    actions += built(power, [(a, m) for a in actions for m in range(-1, a.order() + 1)])
    actions += built(compose_actions, product(actions[:8], repeat=2))
    return list({repr(action_data([a])): a for a in actions}.values())


def test_returned_actions_pass_the_reference_validation_on_the_fixture_sweep():
    for n, c in sorted({(n, c) for n, c, _filter in SWEEP}):
        for action in enumerate_actions(CFG, n, c):
            _reference_validate(action)
            action.validate()
    actions = list(BUNDLE.actions.values())
    for n, c in ((16, 1), (8, 3), (16, 0), (2, 1)):
        actions += enumerate_actions(CFG, n, c)
    actions = returned_actions(actions) + returned_actions(ISOLATED_CYCLE[1].values())
    seen = assert_validate_matches_the_reference(actions)
    # Every edit breaks a rule.
    assert seen["accepted"] == 0 and seen["recorded zeros"] > 0, seen


@settings(max_examples=100, deadline=None)
@given(small_configs(), st.sampled_from([1, 2, 3, 4, 6]), st.data())
def test_returned_actions_pass_the_reference_validation_on_small_graphs(config, n, data):
    c = data.draw(st.integers(0, n - 1))
    perms = automorphism_dicts(config)
    perms = [data.draw(st.sampled_from(perms)), data.draw(st.sampled_from(perms))]
    flags = [(curve, edge_point_id(a, b)) for a, b in sorted(config.edges) for curve in (a, b)]
    calls = [(config, p, n, c, {flag: w}) for p in perms for flag in flags for w in range(n)]
    actions = enumerate_actions(config, n, c) + built(_saturate, calls)
    assert_validate_matches_the_reference(returned_actions(actions))


def test_enumeration_rejects_a_non_positive_order():
    for n in (0, -4):
        with pytest.raises(ValueError, match="at least 1"):
            enumerate_actions(CFG, n, 1)


def pointwise_isolated_curve_action():
    """The edge P-Q and a curve R that meets nothing, all stable: n = 4,
    c = 1, weight 1 at (P, P:Q), and a zero free seed on R, which fixes R
    pointwise though no marked point lies on it."""
    config = CurveConfig(["P", "Q", "R"], [("P", "Q", 1)])
    return _saturate(config, identity_perm(config), 4, 1, {("P", "P:Q"): 1}, {"R": [0]})


def test_power_and_compose_keep_a_pointwise_curve_with_no_marked_point():
    # power and compose_actions rebuild from the seeds validate walks, so
    # each seeds the zero that keeps R pointwise fixed.
    act = pointwise_isolated_curve_action()
    act.validate()
    assert act.pointwise == frozenset({"Q", "R"})
    assert power(act, 1) == act
    for m, n, c, counts in ((2, 2, 1, (0, 2)), (-1, 4, 3, (1, 2))):
        act_m = power(act, m)
        cen = act_m.census()
        assert (act_m.n, act_m.c, cen.N, cen.k) == (n, c, *counts)
    assert inverse_action(act) == power(act, -1)
    assert compose_actions(act, act) == power(act, 2)


def test_first_power_rebuilds_every_action_of_the_sweep():
    actions = list(BUNDLE.actions.values())
    actions += [inverse_action(act) for act in actions]
    for n in (2, 4, 8, 16):
        for c in range(n):
            actions += enumerate_actions(CFG, n, c)
    actions += list(ISOLATED_CYCLE[1].values()) + [pointwise_isolated_curve_action()]
    for act in actions:
        assert power(act, 1) == act
        assert action_data([power(act, 1)]) == action_data([act])


def test_census_of_full_power_is_everything_fixed():
    for act in BUNDLE.actions.values():
        cen = census(power(act, act.order()))
        assert cen.N == 0
        assert cen.k == 20


def test_dot_export_is_stable_and_legend_aware():
    act = BUNDLE.actions["sigma"]
    dot1 = to_dot(CFG, act)
    dot2 = to_dot(CFG, act)
    assert dot1 == dot2
    assert '"C4" [style=filled fillcolor=grey];' in dot1
    assert dot1.startswith("graph curves {")
    assert '"a5" -- "b5"' in dot1
    bare = to_dot(CFG)
    assert "fillcolor" not in bare


# -- enumeration against the per-survivor canonical-key reference -------------


def reference_enumerate_actions(config, n, c, census_filter=None):
    """Enumeration as it was before orbit deduplication: every survivor takes
    its canonical key over the whole automorphism group, and the first
    survivor of each key is kept."""
    auts = graph_automorphisms(config)
    survivors = {}
    for perm in automorphism_dicts(config):
        anchor = None
        for (a, b), _mult in sorted(config.edges.items()):
            if perm[a] == a and perm[b] == b:
                anchor = (a, edge_point_id(a, b))
                break
        if anchor is None:
            continue
        for w in range(n):
            try:
                action = _reference_saturate(config, perm, n, c, {anchor: w})
            except RigidityError:
                continue
            if census_filter is not None:
                cens = action.census()
                if (cens.N, cens.k) != tuple(census_filter):
                    continue
            key = canonical_key(action, auts)
            survivors.setdefault(key, action)
    return [survivors[key] for key in sorted(survivors)]


def action_data(actions):
    """Everything an action holds, so that equal lists mean equal
    representatives in equal order, not merely conjugate ones."""
    return [
        (
            a.n,
            a.c,
            sorted(a.perm.items()),
            sorted(a.weights.items()),
            sorted(a.pointwise),
            sorted(a.free_points.items()),
        )
        for a in actions
    ]


@pytest.mark.parametrize("n, c", [(2, 1), (4, 3), (8, 5), (16, 1)])
@pytest.mark.parametrize("census_filter", [None, (10, 1), (4, 0)])
def test_enumeration_matches_reference_on_fixture(n, c, census_filter):
    got = enumerate_actions(CFG, n, c, census_filter)
    want = reference_enumerate_actions(CFG, n, c, census_filter)
    assert action_data(got) == action_data(want)


@settings(max_examples=150, deadline=None)
@given(small_configs(), st.sampled_from([1, 2, 3, 4, 6, 8]), st.data())
def test_enumeration_matches_reference_on_small_graphs(config, n, data):
    c = data.draw(st.integers(0, n - 1))
    want = reference_enumerate_actions(config, n, c)
    assert action_data(enumerate_actions(config, n, c)) == action_data(want)
    for counts in sorted({(a.census().N, a.census().k) for a in want}):
        assert action_data(enumerate_actions(config, n, c, counts)) == action_data(
            reference_enumerate_actions(config, n, c, counts)
        )


# -- early orbit-length rule and centraliser orbits against their references --


def saturation_outcome(
    config, perm, n, c, anchor, w, frame, revalidate=False, saturate=_saturate
):
    try:
        action = saturate(config, perm, n, c, {anchor: w}, frame=frame)
        if revalidate:
            _reference_validate(action)
        return action.reduced_key()
    except RigidityError:
        return None


def assert_early_orbit_rule_is_sound(config, perms, ns, c):
    """Saturating every anchor weight from the first fixed edge flag gives the
    same outcome with the orbit-length table as with it emptied, where only
    a final validation applies the rule: _saturate does not check the action
    its walk returns, so the emptied run is validated by _reference_validate,
    which builds the full frame and states every rule again."""
    accepted = 0
    for perm in perms:
        frame = _frame(config, perm)
        if not frame[2]:
            continue
        late = frame[:3] + ({},)
        pid, (a, _b, _mult) = next(iter(frame[2].items()))
        for n in ns:
            for w in range(n):
                early = saturation_outcome(config, perm, n, c, (a, pid), w, frame)
                late_outcome = saturation_outcome(config, perm, n, c, (a, pid), w, late, True)
                assert early == late_outcome
                accepted += early is not None
    return accepted


def test_early_orbit_rule_matches_final_validation_on_fixture():
    assert assert_early_orbit_rule_is_sound(CFG, automorphism_dicts(CFG), (8, 16), 1) > 0


@settings(max_examples=100, deadline=None)
@given(small_configs(), st.sampled_from([2, 4, 6, 8]), st.data())
def test_early_orbit_rule_matches_final_validation_on_small_graphs(config, n, data):
    c = data.draw(st.integers(0, n - 1))
    assert_early_orbit_rule_is_sound(config, automorphism_dicts(config), (n,), c)


def conjugate(g, p):
    """g p g^-1."""
    return {g[v]: g[w] for v, w in p.items()}


def conjugacy_classes_by_search(auts):
    """Aut(G) split into classes by conjugating every member by every g."""
    classes = []
    for p in auts:
        if any(p in members for _p, members, _c in classes):
            continue
        members = []
        for g in auts:
            q = conjugate(g, p)
            if q not in members:
                members.append(q)
        members.sort(key=auts.index)
        classes.append((p, members, [g for g in auts if conjugate(g, p) == p]))
    return classes


def conjugacy_classes_as_dicts(config):
    """_conjugacy_classes of Aut(config), every permutation as a dict."""
    return [
        (
            perm_dict(config, p),
            {j: perm_dict(config, r) for j, r in transporters.items()},
            [perm_dict(config, g) for g in centraliser],
        )
        for p, transporters, centraliser in _conjugacy_classes(graph_automorphisms(config))
    ]


def test_conjugacy_classes_match_a_search_on_fixture():
    auts = automorphism_dicts(CFG)
    got = conjugacy_classes_as_dicts(CFG)
    want = conjugacy_classes_by_search(auts)
    assert len(got) == 14
    assert [(p, [auts[j] for j in tr], centraliser) for p, tr, centraliser in got] == want
    for p, transporters, _centraliser in got:
        for j, r in transporters.items():
            assert r == next(g for g in auts if conjugate(g, p) == auts[j])


def transport(action, g):
    """_transport along g given as a map of vertex names, extended to the
    edge point ids by formatting each image."""
    points = {edge_point_id(a, b): edge_point_id(g[a], g[b]) for a, b in action.config.edges}
    return _transport(action, {**g, **points})


def assert_centraliser_orbits_match_full_transport(config, actions):
    """Each action, moved onto the representative p of its conjugacy class,
    has as its centraliser orbit exactly the members of its Aut(G)-orbit with
    permutation p, and that orbit transported along the transporters of p is
    the whole Aut(G)-orbit.  Members of C(p) with the same restriction to the
    curves p fixes (the same move) give the same image, so one member per
    move gives every key of the centraliser orbit."""
    auts = automorphism_dicts(config)
    classes = conjugacy_classes_as_dicts(config)
    for action in actions:
        j = auts.index(action.perm)
        p, transporters, centraliser = next(cls for cls in classes if j in cls[1])
        moved = transport(action, {w: v for v, w in transporters[j].items()})
        assert moved.perm == p
        want = {transport(action, g).reduced_key() for g in auts}
        stable = _frame(config, p)[0]
        images = {}
        for h in centraliser:
            move = tuple(h[v] for v in stable)
            images.setdefault(move, set()).add(transport(moved, h).reduced_key())
        assert all(len(image) == 1 for image in images.values())
        keys = set().union(*images.values())
        assert keys == {key for key in want if key[2] == tuple(sorted(p.items()))}
        # enumerate_actions keys each class by the least key of the
        # centraliser orbit: it is the least key of the whole orbit.
        assert min(keys) == min(want)
        orbit = {
            transport(transport(moved, h), g).reduced_key()
            for g in transporters.values()
            for h in centraliser
        }
        assert orbit == want


def test_centraliser_orbits_match_full_transport_on_fixture():
    actions = enumerate_actions(CFG, 16, 1) + enumerate_actions(CFG, 8, 3)
    actions += list(BUNDLE.actions.values())
    assert_centraliser_orbits_match_full_transport(CFG, actions)


def test_centraliser_orbits_follow_the_centraliser_on_a_chain():
    # On the fixture every centraliser fixes its class, so the images under
    # the centraliser are exercised here: swapping the ends of a chain of
    # three curves moves an action of trivial permutation whose end weights
    # differ.
    cfg = CurveConfig(["L", "M", "R"], [("L", "M", 1), ("M", "R", 1)])
    auts = automorphism_dicts(cfg)
    actions = enumerate_actions(cfg, 8, 1)
    assert any(len({transport(a, g).reduced_key() for g in auts}) > 1 for a in actions)
    assert_centraliser_orbits_match_full_transport(cfg, actions)


@settings(max_examples=60, deadline=None)
@given(small_configs(), st.sampled_from([1, 2, 4, 6]), st.data())
def test_centraliser_orbits_match_full_transport_on_small_graphs(config, n, data):
    c = data.draw(st.integers(0, n - 1))
    assert_centraliser_orbits_match_full_transport(config, enumerate_actions(config, n, c))


def count_calls(monkeypatch, *targets):
    """Count the calls of each (owner, function name) in targets, by name."""
    calls = {}
    for owner, name in targets:
        calls[name] = 0
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_enumeration_transports_once_per_class(monkeypatch):
    # Aut(G) of the fixture has 240 members in 14 conjugacy classes, all with
    # a fixed edge; their representatives have 14 distinct pulled-back
    # anchors in all.  The plan of each anchor refutes every weight but the
    # 8 survivors and 30 weights at which a form it assumed nonzero vanishes
    # (w = 0 and w = c among them), so 38 saturations, against 14 * 16 = 224
    # for one per anchor and weight (the reference, one scan per
    # automorphism, makes 3,840).  One frame per class (14 automorphism
    # checks); each saturation walks the frame it was given and is not
    # validated again, so no other frame is built.  Each of the 8 classes of actions transports
    # its survivor along one member of the centraliser of its permutation per
    # distinct restriction to the fixed curves (9 in all, against 330
    # members), whose least key is the class key, and its representative
    # along its transporter (8).  The census runs once per class of actions in the
    # filtered run; rejecting a class records its centraliser orbit, so no
    # conjugate survivor is censused again.  A fresh config, so the count
    # does not depend on which test enumerated on the shared one first.
    config = load_graph_text(fixture_text("order16_graph.txt"))[0]
    calls = count_calls(
        monkeypatch,
        (rigidity, "_saturate"),
        (rigidity, "_transport"),
        (CurveConfig, "is_automorphism"),
        (GraphAction, "census"),
        (rigidity, "graph_automorphisms"),
        (rigidity, "_conjugacy_classes"),
        (rigidity, "_frame"),
    )
    classes = enumerate_actions(config, 16, 1)
    assert len(classes) == 8
    assert calls == {
        "_saturate": 38,
        "_transport": 9 + 8,
        "is_automorphism": 14,
        "census": 0,
        "graph_automorphisms": 1,
        "_conjugacy_classes": 1,
        "_frame": 14,
    }
    # The second call reads the group, classes, frames, moves, anchors and
    # plans from the config: it builds and checks no frame, and the
    # saturations and transports are the same.
    calls.update(dict.fromkeys(calls, 0))
    assert action_data(enumerate_actions(config, 16, 1)) == action_data(classes)
    assert calls == {
        "_saturate": 38,
        "_transport": 9 + 8,
        "is_automorphism": 0,
        "census": 0,
        "graph_automorphisms": 0,
        "_conjugacy_classes": 0,
        "_frame": 0,
    }
    # A bare validate() still builds and checks its own frame.
    calls.update(dict.fromkeys(calls, 0))
    classes[0].validate()
    assert (calls["_frame"], calls["is_automorphism"]) == (1, 1)
    calls.update(dict.fromkeys(calls, 0))
    assert len(enumerate_actions(config, 16, 1, (10, 1))) == 1
    assert calls["census"] == 8
    # canonical_key without a group reads the same cached list.
    calls.update(dict.fromkeys(calls, 0))
    key = canonical_key(classes[0])
    assert calls["graph_automorphisms"] == 0
    assert calls["_transport"] == 240
    assert key == canonical_key(classes[0], graph_automorphisms(config))


SWEEP = [
    (n, c, census_filter)
    for n in (1, 2, 3, 4, 6, 8, 16)
    for c in range(n)
    for census_filter in (None, (10, 1), (8, 0), (4, 0))
]


def fresh_copy(config):
    return CurveConfig(config.vertices, [(a, b, m) for (a, b), m in config.edges.items()])


def test_symmetry_data_changes_no_enumeration(monkeypatch):
    # Each case on a fresh config against the whole sweep on one config,
    # forward and reversed, so every case also runs on data a different
    # (n, c) built.  No case saturates more than once per anchor (14 in
    # all) and weight.
    calls = count_calls(monkeypatch, (rigidity, "_saturate"))
    cold = {}
    for case in SWEEP:
        calls["_saturate"] = 0
        cold[case] = action_data(enumerate_actions(fresh_copy(CFG), *case))
        assert calls["_saturate"] <= 14 * case[0]
    for cases in (SWEEP, SWEEP[::-1]):
        warm = fresh_copy(CFG)
        assert {case: action_data(enumerate_actions(warm, *case)) for case in cases} == cold


def test_moves_are_relabelled_on_the_first_survivor_of_their_class(monkeypatch):
    # The 14 pulled-back anchors are relabelled with the symmetry data, and
    # a class's moves on its first survivor, once per config.  An odd c has
    # no survivor on the identity class, so its 240 moves stay in byte form.
    relabelled = []
    original = rigidity._relabellings

    def counted(config, automorphisms):
        automorphisms = list(automorphisms)
        relabelled.append(len(automorphisms))
        return original(config, automorphisms)

    monkeypatch.setattr(rigidity, "_relabellings", counted)
    config = fresh_copy(CFG)
    cold = action_data(enumerate_actions(config, 16, 1))
    assert sum(relabelled) == 14 + 9
    relabelled.clear()
    assert action_data(enumerate_actions(config, 16, 1)) == cold
    assert relabelled == []
    enumerate_actions(config, 16, 0)
    assert 240 in relabelled
    relabelled.clear()
    enumerate_actions(config, 16, 0)
    assert relabelled == []


def test_configs_from_different_texts_do_not_share_symmetry_data():
    text = fixture_text("order16_graph.txt")
    graph = text[: text.index("[action")]
    assert "edge s1 b5\n" in graph
    configs = [load_graph_text(text)[0], load_graph_text(graph.replace("edge s1 b5\n", ""))[0]]
    first = [action_data(enumerate_actions(config, 16, 1)) for config in configs]
    assert first[0] != first[1]
    assert [len(rigidity._symmetry(config)[0]) for config in configs] == [240, 24]
    for config, want in zip(configs, first):
        fresh = fresh_copy(config)
        assert action_data(enumerate_actions(fresh, 16, 1)) == want
        assert action_data(enumerate_actions(config, 8, 3)) == action_data(
            enumerate_actions(fresh, 8, 3)
        )


# The D4 diagram in Bourbaki's labels: centre e2, ends e1, e3, e4.  The class
# of the transposition (e3 e4) holds (e1 e3), whose first fixed edge e2:e3
# has its flag on e2; pulled back to (e3 e4) that is e2 on e1:e2, while
# (e3 e4) anchors on e1, so the class is saturated from two anchors.
D4 = CurveConfig(["e1", "e2", "e3", "e4"], [("e1", "e2", 1), ("e2", "e3", 1), ("e2", "e4", 1)])


def d4_saturations(n, c):
    """The saturations enumerate_actions(D4, n, c) runs.  The identity has
    one anchor; its plan fails (c - w on e2, which has three fixed points),
    so only the weights where an assumed form vanishes are saturated: w = 0
    and w = c, or every w when c = 0 (the weight c at e3 and e4).  The
    transpositions have two anchors, each saturated at w = 0, w = c and, for
    even n, at the one weight whose rotation order on e2 is 2 (w = c + n/2
    from e1, w = n/2 from e2).  The 3-cycles fix no edge."""
    identity = len({0, c}) if c else n
    if n % 2:
        return identity + 2 * len({0, c})
    return identity + len({0, c, (c + n // 2) % n}) + len({0, c, n // 2})


def test_a_class_with_two_anchors_matches_the_reference(monkeypatch):
    calls = count_calls(monkeypatch, (rigidity, "_saturate"))
    found = 0
    for n in (2, 3, 4, 6, 8):
        for c in range(n):
            calls["_saturate"] = 0
            got = enumerate_actions(D4, n, c)
            assert calls["_saturate"] == d4_saturations(n, c) <= 3 * n
            want = reference_enumerate_actions(D4, n, c)
            assert action_data(got) == action_data(want)
            found += len(got)
            for counts in sorted({(a.census().N, a.census().k) for a in want}):
                assert action_data(enumerate_actions(D4, n, c, counts)) == action_data(
                    reference_enumerate_actions(D4, n, c, counts)
                )
    assert found > 0


def test_interchangeable_curves_cost_one_saturation_per_class_and_weight(monkeypatch):
    # The edge w-v1 and 7 isolated curves: Aut(G) = Z/2 x S7 has 10,080
    # members in 30 conjugacy classes.  The 15 classes that fix w and v1 (one
    # per cycle type of S7) have the fixed edge, each with one anchor; the
    # reference saturates once per weight for each of the 5,040 automorphisms
    # that fix the edge.  With n = 2 every weight is one where a form a plan
    # assumed nonzero vanishes (w = 0, and c - w on v1 at w = 1), so each
    # is saturated.
    cfg = CurveConfig(["w", "v1"] + [f"x{i}" for i in range(7)], [("w", "v1", 1)])
    calls = count_calls(monkeypatch, (rigidity, "_saturate"))
    classes = enumerate_actions(cfg, 2, 1)
    assert len(classes) == 4
    assert calls["_saturate"] == 15 * 2


# -- anchor-weight plans against saturation ------------------------------------


def assert_plans_match_saturation(config, cases):
    """For every class and anchor of enumerate_actions, (n, c) in cases and w
    in Z_n, saturated by the reference walk rather than the one the plans
    run: a weight the plan refutes does not saturate, and a weight it
    keeps at which no form it assumed nonzero vanishes (a non-degenerate
    weight) saturates.  Returns how many weights were refuted, kept and
    degenerate."""
    seen = {"refuted": 0, "kept": 0, "degenerate": 0}
    for perm, frame, _moves, anchors in rigidity._symmetry(config)[1]:
        for anchor, (plan, _r) in anchors.items():
            nonzero = plan[0]  # the forms the plan assumed nonzero
            for n, c in cases:
                kept = rigidity._anchor_weights(plan, n, c)
                for w in range(n):
                    outcome = saturation_outcome(
                        config, perm, n, c, anchor, w, frame, saturate=_reference_saturate
                    )
                    if w not in kept:
                        assert outcome is None, (perm, anchor, n, c, w)
                        seen["refuted"] += 1
                    elif any((s * w + k * c) % n == 0 for s, k in nonzero):
                        seen["degenerate"] += 1
                    else:
                        assert outcome is not None, (perm, anchor, n, c, w)
                        seen["kept"] += 1
    return seen


def test_plans_match_saturation_on_the_fixture_sweep():
    cases = sorted({(n, c) for n, c, _filter in SWEEP})
    seen = assert_plans_match_saturation(CFG, cases)
    assert min(seen.values()) > 0, seen


@settings(max_examples=150, deadline=None)
@given(small_configs(), st.sampled_from([1, 2, 3, 4, 6, 8]), st.data())
def test_plans_match_saturation_on_small_graphs(config, n, data):
    c = data.draw(st.sampled_from(range(0, n, 2)))
    assert_plans_match_saturation(config, sorted({(n, c), (n, 0)}))


@pytest.mark.xfail(
    strict=True,
    reason="one anchor per automorphism misses stable subgraphs with two components",
)
def test_enumeration_finds_actions_with_two_stable_components():
    cfg = CurveConfig(
        ["p", "q", "u", "v", "m1", "m2"],
        [
            ("p", "q", 1),
            ("u", "v", 1),
            ("q", "m1", 1),
            ("q", "m2", 1),
            ("u", "m1", 1),
            ("u", "m2", 1),
        ],
    )
    perm = perm_from_cycles(cfg, [["m1", "m2"]])
    seeded = _saturate(
        cfg, perm, 4, 1, {("q", edge_point_id("p", "q")): 2, ("u", edge_point_id("u", "v")): 2}
    )
    cen = seeded.census()
    # p.free0 and v.free0 have weight 1 = c, so a fixed curve outside the
    # configuration passes through each: 6 points, 4 of them isolated.
    assert (cen.N, cen.k) == (4, 0)
    assert len(cen.points) == 6
    classes = enumerate_actions(cfg, 4, 1)
    assert any(canonical_key(a) == canonical_key(seeded) for a in classes)
