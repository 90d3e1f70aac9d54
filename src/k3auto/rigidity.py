"""Weighted finite-order actions on incidence graphs of rational curves.

A configuration is a graph whose vertices are smooth rational curves of
self-intersection -2 and whose edges are intersection points (multiplicity 2
marking a tangency).  An action of order n with volume exponent c carries a
local weight w at each flag (curve, fixed point): along that curve the action
linearizes as z -> zeta_n^w z.  Three local rules make the calculus rigid:

* volume rule: at a transverse fixed point of two stable curves the two
  weights sum to c mod n;
* projective-line rule: a stable curve is either pointwise fixed (weight 0)
  or has exactly two fixed points with opposite weights, and every orbit of
  non-fixed marked points on it has length equal to the rotation order;
* tangency rule: along-branch weights at a tangency agree.

Propagation from a single anchor flag saturates these rules over the whole
graph, synthesizing free fixed points where a curve has fewer than two marked
ones, and failing loudly on any contradiction.  The orbit-length part of the
projective-line rule is checked as each nonzero weight is set, so a
propagation stops at the first weight whose rotation order disagrees with an
orbit of neighbours.

An action rebuilds from one seed set (GraphAction._seeds): every edge flag,
the free weights of each curve in order, and a zero free seed on each
pointwise-fixed curve.  GraphAction.validate walks these seeds again, power
walks them scaled, and compose_actions adds two actions' scaled seeds.

Every rule maps a weight w to w, -w or c - w, so from an anchor of weight w
each flag carries an affine form s w + k c.  The propagation is one walk
(_walk) run in two modes: concretely, on weights mod n, by _saturate, which
raises at the first contradiction; and symbolically, with w and c left as
symbols, by _plan, which records the assumptions the concrete run would
decide on.  Enumeration plans each anchor once and solves the recorded
constraints for each (n, c) to find the few anchor weights worth a concrete
saturation.
"""
from __future__ import annotations

import functools
from collections import deque
from math import gcd, lcm
from typing import Iterable, NamedTuple

from .errors import InputError, VerificationFailure

# graph_automorphisms gives up beyond this many automorphisms (the fixture
# graph has 240) or curves, since it holds each permutation as a byte string.
MAX_AUTOMORPHISMS = 20_000
MAX_VERTICES = 64


class RigidityError(VerificationFailure):
    """Base class for inconsistencies in the fixed-point calculus."""


class InconsistentCycleError(RigidityError):
    """A propagation cycle produced contradictory weights."""


class TooManyFixedPointsError(RigidityError):
    """A stable curve would need three or more fixed points with nonzero weight."""


class AnchorOnMobileCurveError(RigidityError):
    """The anchor flag does not sit on a pi-stable curve at a fixed point."""


class IncompatibleActionsError(RigidityError):
    """Two actions share no usable germ data for composition."""


class UnderdeterminedActionError(RigidityError):
    """Propagation left some stable curve without weight data."""


def edge_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def edge_point_id(a: str, b: str) -> str:
    a, b = edge_key(a, b)
    return f"{a}:{b}"


class CurveConfig:
    """Incidence graph of rational curves with edge multiplicities 1 or 2.

    Each vertex and each edge is checked as soon as it is drawn from its
    iterable, all vertices first, so a loader that tracks the item it last
    handed out knows which one a ValueError is about.

    A config is not changed after construction: its symmetry data, the part
    of enumerate_actions that depends on the graph alone, is built on first
    use and kept with it.
    """

    __slots__ = ("vertices", "edges", "adj", "_symmetry")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str, int]]):
        names = set()
        for v in vertices:
            if ":" in v or "." in v:
                raise ValueError(f"vertex name {v!r} clashes with point-id syntax")
            names.add(v)
        self.vertices = tuple(sorted(names))
        self.edges = {}
        self.adj = {v: {} for v in self.vertices}
        for a, b, mult in edges:
            if a == b:
                raise ValueError(f"self-intersection edge at {a}")
            if a not in self.adj or b not in self.adj:
                raise ValueError(f"edge touches unknown vertex: {a}, {b}")
            if mult not in (1, 2):
                raise ValueError("edge multiplicity must be 1 or 2")
            key = edge_key(a, b)
            if key in self.edges:
                raise ValueError(f"duplicate edge {key}")
            self.edges[key] = mult
            self.adj[a][b] = mult
            self.adj[b][a] = mult
        self._symmetry = None

    def is_automorphism(self, perm: dict[str, str]) -> bool:
        if sorted(perm) != list(self.vertices):
            return False
        if sorted(perm.values()) != list(self.vertices):
            return False
        for (a, b), mult in self.edges.items():
            if self.edges.get(edge_key(perm[a], perm[b])) != mult:
                return False
        return True


def cycles(perm: dict[str, str]) -> list[tuple[str, ...]]:
    """The cycles of perm, fixed points included, each starting at its least
    vertex, ordered by that vertex."""
    seen: set[str] = set()
    out = []
    for v in sorted(perm):
        if v in seen:
            continue
        cycle = [v]
        w = perm[v]
        while w != v:
            seen.add(w)
            cycle.append(w)
            w = perm[w]
        out.append(tuple(cycle))
    return out


class CensusPoint(NamedTuple):
    location: str
    # transverse-intersection | tangency | free-point | swap-point | on-fixed-curve
    kind: str
    weights: tuple[tuple[str, int], ...] | None


class FixedLocusCensus(NamedTuple):
    N: int
    k: int
    points: tuple[CensusPoint, ...]
    curves: tuple[str, ...]


class GraphAction:
    """A consistent weighted action: permutation, volume exponent, weights.

    Weights are exponents mod n at flags (curve, point id); free fixed points
    carry ids "<curve>.free<i>", the only point ids without a ":".
    Pointwise-fixed curves record weight 0 at each of their marked points.
    _seeds gives the walk seeds that rebuild the action.
    """

    __slots__ = ("config", "n", "c", "perm", "weights", "pointwise", "free_points")

    def __init__(self, config, n, c, perm, weights, pointwise, free_points):
        self.config = config
        self.n = n
        self.c = c % n
        self.perm = dict(perm)
        self.weights = dict(weights)
        self.pointwise = frozenset(pointwise)
        self.free_points = {k: tuple(v) for k, v in free_points.items() if v}

    # -- structure ---------------------------------------------------------

    def _weight_gcd(self) -> int:
        """gcd(n, c, every weight): n over it is the order of the weights."""
        return gcd(self.n, self.c, *self.weights.values())

    def order(self) -> int:
        return lcm(*map(len, cycles(self.perm)), self.n // self._weight_gcd())

    # -- canonical form ----------------------------------------------------

    def reduced_key(self):
        g = self._weight_gcd()
        n2 = self.n // g
        flags = []
        for (curve, point), w in self.weights.items():
            if ":" in point:
                flags.append((curve, point, (w % self.n) // g))
        frees = []
        for curve, pids in sorted(self.free_points.items()):
            ws = sorted(((self.weights[(curve, p)] % self.n) // g) for p in pids)
            frees.append((curve, tuple(ws)))
        return (
            n2,
            (self.c % self.n) // g,
            tuple(sorted(self.perm.items())),
            tuple(sorted(flags)),
            tuple(frees),
            tuple(sorted(self.pointwise)),
        )

    def __eq__(self, other):
        return (
            isinstance(other, GraphAction)
            and other.config is self.config
            and other.reduced_key() == self.reduced_key()
        )

    def __hash__(self):
        return hash(self.reduced_key())

    # -- validation --------------------------------------------------------

    def _seeds(self, scale):
        """The walk seeds that rebuild this action, each weight passed through
        scale: (seeds, free_seeds) for _walk, holding every edge flag, the
        free weights of each curve in order, and a zero free seed on each
        pointwise-fixed curve, which a curve with no marked point needs."""
        seeds = {flag: scale(w) for flag, w in self.weights.items() if ":" in flag[1]}
        free_seeds = {
            curve: [
                scale(self.weights[(curve, pid)]) for pid in pids if (curve, pid) in self.weights
            ]
            for curve, pids in self.free_points.items()
        }
        for curve in self.pointwise:
            free_seeds.setdefault(curve, []).append(0)
        return seeds, free_seeds

    def validate(self):
        """Walk the seeds of _seeds again; raises RigidityError unless the
        walk gives back exactly these weights, pointwise curves and free
        points, or if a weight lies outside 0 <= w < n."""
        if not all(0 <= w < self.n for w in self.weights.values()):
            raise RigidityError("weight out of range")
        seeds, free_seeds = self._seeds(lambda w: w)
        walk = _walk(_frame(self.config, self.perm), seeds, free_seeds, self.n, self.c)
        rules = GraphAction(self.config, self.n, self.c, self.perm, *walk)
        for curve, pid in sorted(rules.weights.keys() | self.weights.keys()):
            mine, theirs = self.weights.get((curve, pid)), rules.weights.get((curve, pid))
            if mine is None:
                raise UnderdeterminedActionError(f"missing weight at {pid}")
            if mine != theirs:
                raise InconsistentCycleError(
                    f"weight {mine} at {pid} on {curve}, the rules give {theirs}"
                )
        if rules.pointwise != self.pointwise:
            curve = min(rules.pointwise - self.pointwise)
            raise InconsistentCycleError(f"curve {curve} has weight 0 but is not pointwise fixed")
        if rules.free_points != self.free_points:
            raise InconsistentCycleError(
                f"free points {self.free_points}, the rules give {rules.free_points}"
            )

    # -- census --------------------------------------------------------------

    def census(self) -> FixedLocusCensus:
        """Fixed points and pointwise-fixed curves.  An edge between two
        stable curves is a fixed point unless it lies on a pointwise-fixed
        curve; an edge whose ends the permutation swaps is a swap point.

        A point of weight w along a curve through it has normal weight
        c - w.  When that is 0 mod n, a pointwise-fixed curve outside the
        configuration passes through the point: it is listed as
        on-fixed-curve and not counted in N.  This happens only at a
        tangency or a free point: at a transverse point c - w is the weight
        along the other stable curve, never 0."""
        perm, pointwise = self.perm, self.pointwise
        points = []

        def kind_of(kind, w):
            return "on-fixed-curve" if w is not None and (self.c - w) % self.n == 0 else kind

        for (a, b), mult in sorted(self.config.edges.items()):
            pid = edge_point_id(a, b)
            if perm[a] == a and perm[b] == b:
                if a in pointwise or b in pointwise:
                    continue
                kind = "tangency" if mult == 2 else "transverse-intersection"
                weights = ((a, self.weights.get((a, pid))), (b, self.weights.get((b, pid))))
                points.append(CensusPoint(pid, kind_of(kind, weights[0][1]), weights))
            elif perm[a] == b and perm[b] == a:
                points.append(CensusPoint(pid, "swap-point", None))
        for curve, pids in sorted(self.free_points.items()):
            for pid in pids:
                weights = ((curve, self.weights[(curve, pid)]),)
                points.append(CensusPoint(pid, kind_of("free-point", weights[0][1]), weights))
        points.sort(key=lambda p: p.location)
        curves = tuple(sorted(pointwise))
        isolated = sum(p.kind != "on-fixed-curve" for p in points)
        return FixedLocusCensus(isolated, len(curves), tuple(points), curves)


def _frame(config, perm):
    """The part of a saturation that depends on the permutation alone: the
    stable curves in vertex order (a dict used as an ordered set, so every
    walk over them is the same on every run), the fixed edge points on each
    and the edge behind each fixed point, in canonical edge order, and for
    each stable curve with a mobile neighbour the cycle lengths of those
    neighbours, each with the first neighbour that has it (so the first
    entry holds the first mobile neighbour)."""
    if not config.is_automorphism(perm):
        raise RigidityError("permutation is not a graph automorphism")
    stable = dict.fromkeys(v for v in config.vertices if perm[v] == v)
    fixed_points: dict[str, list[str]] = {v: [] for v in stable}
    edge_of: dict[str, tuple[str, str, int]] = {}
    for (a, b), mult in sorted(config.edges.items()):
        if a in stable and b in stable:
            pid = edge_point_id(a, b)
            fixed_points[a].append(pid)
            fixed_points[b].append(pid)
            edge_of[pid] = (a, b, mult)
    # perm maps the mobile curves that meet a stable one onto themselves, so
    # their cycles are the cycles of perm restricted to them.
    mobile = {d: perm[d] for v in stable for d in config.adj[v] if d not in stable}
    cycle_length = {d: len(cyc) for cyc in cycles(mobile) for d in cyc}
    orbit_lengths: dict[str, dict[int, str]] = {}
    for curve in stable:
        lengths: dict[int, str] = {}
        for d in config.adj[curve]:
            if d not in stable:
                lengths.setdefault(cycle_length[d], d)
        if lengths:
            orbit_lengths[curve] = lengths
    return stable, fixed_points, edge_of, orbit_lengths


def _walk(frame, seeds, free_seeds, n, c, plan=None):
    """Close the rule set over the stable curves of frame from the seeds;
    returns the weights, the pointwise-fixed curves and the free points.

    Concrete with n an order: weights are ints mod n, and a contradiction
    raises at once.  Symbolic with n and c None: a weight is a form (s, k),
    and plan, as _plan describes, records each assumption a concrete run
    decides on (a form assumed nonzero before any raise on it)."""
    stable, fixed_points, edge_of, orbit_lengths = frame
    zero = 0 if n else (0, 0)
    nonzero, equal, rotations = plan or (None, None, None)
    weights: dict[tuple[str, str], int | tuple[int, int]] = {}
    pointwise: set[str] = set()
    free: dict[str, list[str]] = {v: [] for v in stable}
    queue: deque[tuple[str, str]] = deque()

    def set_weight(curve, pid, w):
        if n:
            w %= n
        key = (curve, pid)
        seen = key in weights
        if w != zero and (not seen or len(fixed_points[curve]) >= 3):
            # Orbits first: pointwise-fixed curves (crowded ones too) meet no
            # mobile one.  A curve rotating with weight w has rotation order
            # n / gcd(n, w), and so must every orbit of its mobile neighbours.
            lengths = orbit_lengths.get(curve, {})
            if n:
                rotation = n // gcd(n, w)
                for length, d in lengths.items():
                    if length != rotation:
                        raise InconsistentCycleError(
                            f"orbit of {d} on {curve} has length {length}, "
                            f"rotation order is {rotation}"
                        )
            else:
                nonzero[w] = None
                if len(lengths) > 1:
                    raise InconsistentCycleError(f"curve {curve} meets orbits of two lengths")
                for length in lengths:
                    rotations[w, length] = None
            if len(fixed_points[curve]) >= 3:
                raise TooManyFixedPointsError(
                    f"curve {curve} has {len(fixed_points[curve])} fixed points, "
                    f"cannot carry nonzero weight {w}"
                )
            if curve in pointwise:
                raise InconsistentCycleError(
                    f"nonzero weight {w} on pointwise-fixed curve {curve}"
                )
        if seen:
            old = weights[key]
            if old != w:
                if n:
                    raise InconsistentCycleError(
                        f"contradictory weights {old} and {w} at {pid} on {curve}"
                    )
                equal[old[0] - w[0], old[1] - w[1]] = None
            return
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
            set_weight(curve, pid, zero)

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

    for curve, ws in sorted(free_seeds.items()):
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
        if w == zero:
            mark_pointwise(curve)
        else:
            known = fixed_points[curve] + free[curve]
            if len(known) == 1:
                known.append(f"{curve}.free{len(free[curve])}")
                free[curve].append(known[1])
            elif len(known) != 2:
                raise TooManyFixedPointsError(
                    f"curve {curve} would carry {len(known)} fixed points"
                )
            other = known[0] if known[1] == pid else known[1]
            set_weight(curve, other, -w if n else (-w[0], -w[1]))
        if pid in edge_of:
            a, b, mult = edge_of[pid]
            if mult == 1:
                w = c - w if n else (-w[0], 1 - w[1])
            set_weight(b if curve == a else a, pid, w)

    for curve in stable:
        known = fixed_points[curve] + free[curve]
        # The queue weights both marked points of a rotating curve or neither.
        if curve not in pointwise and (not known or (curve, known[0]) not in weights):
            raise UnderdeterminedActionError(
                f"stable curve {curve} is underdetermined after propagation"
            )
    return weights, pointwise, free


def _saturate(config, perm, n, c, seeds, free_seeds=None, frame=None) -> GraphAction:
    """Close the rule set over the graph from the given seed flags: the walk
    run concretely, on frame when the caller has built _frame(config, perm)."""
    walked = _walk(frame or _frame(config, perm), seeds, free_seeds or {}, n, c)
    return GraphAction(config, n, c, perm, *walked)


def _plan(frame, anchor) -> tuple:
    """The walk that _saturate runs, from {anchor: w} with w and c left as
    symbols: every weight is an affine form s w + k c, since tangency copies
    a weight, the other fixed point of a curve (or a free point it
    synthesizes) negates it, and the volume rule maps it to c - w.  Returns
    (nonzero, equal, rotations, failed):

    * nonzero: the forms other than 0 that were assumed nonzero, where the
      concrete walk branches on them;
    * equal: for each flag reached twice with different forms, their
      difference, which must vanish mod n;
    * rotations: (form, length) for each nonzero form on a curve with mobile
      neighbours, whose rotation order must equal their one orbit length;
    * failed: whether any other contradiction arose (a nonzero form on a
      curve with three fixed points or on a pointwise-fixed one, a pointwise
      curve with a mobile neighbour or a free point, an underdetermined
      curve, two orbit lengths on one rotating curve).

    The concrete and the symbolic run are one walk, so wherever the
    assumptions hold a concrete run takes this path: _saturate succeeds
    exactly when the plan did not fail and every recorded difference and
    rotation order holds (see _anchor_weights)."""
    plan: tuple[dict, dict, dict] = ({}, {}, {})
    try:
        _walk(frame, {anchor: (1, 0)}, {}, None, None, plan)
        failed = False
    except RigidityError:
        failed = True
    return (*map(tuple, plan), failed)


def _anchor_weights(plan, n: int, c: int) -> list[int]:
    """The anchor weights in Z_n, in increasing order, that the plan (as
    _plan returns it) does not refute for order n and volume exponent c.  A
    weight at which an assumed form vanishes (s w + k c = 0 with s = +-1
    gives w = -s k c) sends _saturate down another path, so it is kept; at
    any other weight the plan decides exactly, and keeps it when the plan
    did not fail, every recorded difference vanishes and every rotation
    order n / gcd(n, form) is the recorded orbit length."""
    nonzero, equal, rotations, failed = plan
    degenerate = set()
    for s, k in nonzero:
        if s:
            degenerate.add(-s * k * c % n)
        elif k * c % n == 0:
            return list(range(n))
    if failed:
        return sorted(degenerate)
    passing = [
        w
        for w in range(n)
        if all((s * w + k * c) % n == 0 for s, k in equal)
        and all(n // gcd(n, s * w + k * c) == length for (s, k), length in rotations)
    ]
    return sorted(degenerate.union(passing))


def propagate(config, perm, n, c, anchor_flag, anchor_weight) -> GraphAction:
    """Build the unique consistent action from one anchor flag.

    anchor_flag is (curve, point id); the point must be fixed, i.e. an edge
    to another stable curve.
    """
    curve, pid = anchor_flag
    return _saturate(config, perm, n, c, {(curve, pid): anchor_weight})


def census(action: GraphAction) -> FixedLocusCensus:
    return action.census()


def power(action: GraphAction, m: int) -> GraphAction:
    """The action of the m-th power: the seeds of action._seeds with weights
    scaled by m, and the order divided out.

    m is taken modulo lcm(n, order of the permutation), which fixes the
    permutation, the weights and n // gcd(n, m); so a negative m is a power
    of the inverse and a huge m costs no more than a small one.
    """
    n = action.n
    perm_cycles = cycles(action.perm)
    m %= lcm(n, *map(len, perm_cycles))
    g = gcd(n, m)
    perm2 = {cyc[i]: cyc[(i + m) % len(cyc)] for cyc in perm_cycles for i in range(len(cyc))}
    # A free weight that m scales to 0 melts into a pointwise-fixed curve in
    # _saturate; when all do (n == g), so does every curve perm2 fixes.
    seeds, free_seeds = action._seeds(lambda w: (m * w) % n // g)
    if n == g:
        free_seeds = {curve: [0] for curve, image in perm2.items() if image == curve}
    return _saturate(action.config, perm2, n // g, ((m * action.c) % n) // g, seeds, free_seeds)


def inverse_action(action: GraphAction) -> GraphAction:
    return power(action, action.order() - 1)


def compose_actions(a1: GraphAction, a2: GraphAction) -> GraphAction:
    """Germ-wise composition from the seeds of each action's _seeds, scaled
    to the common order: edge weights add at points fixed by both actions.
    A curve that one action fixes pointwise takes the other action's free
    seeds, and a curve with one free point in each takes their sum."""
    if a1.config is not a2.config and (
        a1.config.vertices != a2.config.vertices or a1.config.edges != a2.config.edges
    ):
        raise IncompatibleActionsError("actions live on different configurations")
    config = a1.config
    n = lcm(a1.n, a2.n)
    s1, s2 = n // a1.n, n // a2.n
    perm = {v: a1.perm[a2.perm[v]] for v in config.vertices}
    c = (a1.c * s1 + a2.c * s2) % n
    seeds1, free1 = a1._seeds(lambda w: w * s1 % n)
    seeds2, free2 = a2._seeds(lambda w: w * s2 % n)
    seeds = {flag: (w + seeds2[flag]) % n for flag, w in seeds1.items() if flag in seeds2}

    free_seeds: dict[str, list[int]] = {}
    for curve in free1.keys() | free2.keys():
        f1, f2 = free1.get(curve, []), free2.get(curve, [])
        if curve in a1.pointwise:
            ws = f2
        elif curve in a2.pointwise:
            ws = f1
        else:
            ws = [(f1[0] + f2[0]) % n] if len(f1) == len(f2) == 1 else []
        if ws:
            free_seeds[curve] = ws

    if not seeds and not free_seeds:
        raise IncompatibleActionsError("no common germ data to compose from")
    return _saturate(config, perm, n, c, seeds, free_seeds)


def graph_automorphisms(config: CurveConfig) -> list[bytes]:
    """All automorphisms, sorted by their images in vertex order.  An
    automorphism g is held as the bytes g[0] g[1] ... of the positions in
    config.vertices of the images of the vertices in that order (there are at
    most MAX_VERTICES vertices); perm_dict names them.

    They are the products of the transversals of a stabiliser chain (Seress
    2003, ch. 4) along a base of every vertex in breadth-first order from a
    vertex of highest degree, so that each vertex but the root of a component
    has an earlier neighbour (individualisation along the base, McKay and
    Piperno 2014).  Level i of the chain holds the automorphisms that fix the
    first i base points.  Walking the levels from the deepest up, each
    candidate image of base point i that the generators found so far do not
    reach costs one search for an automorphism fixing the earlier base points
    and sending base point i to it.  The image of a vertex that has an
    earlier neighbour u is sought among the neighbours of the image of u with
    the same signature.

    The group order is the product of the orbit lengths, so a group of more
    than MAX_AUTOMORPHISMS is refused with an InputError before any element
    is listed: interchangeable isolated curves alone make it grow
    factorially.  So is a graph of more than MAX_VERTICES curves.
    """
    names = config.vertices
    size = len(names)
    if size > MAX_VERTICES:
        raise InputError(f"vertex bound for enumeration is {MAX_VERTICES}")
    index = {v: i for i, v in enumerate(names)}
    adj = [{index[w]: m for w, m in config.adj[v].items()} for v in names]
    degree = [len(a) for a in adj]
    sig = [sorted((m, degree[w]) for w, m in a.items()) for a in adj]
    base: list[int] = []
    parent: list[int | None] = [None] * size
    placed = [False] * size
    for root in sorted(range(size), key=lambda v: -degree[v]):
        if placed[root]:
            continue
        placed[root] = True
        queue = [root]
        for v in queue:
            base.append(v)
            for w in sorted(adj[v]):
                if not placed[w]:
                    placed[w] = True
                    queue.append(w)
                    parent[w] = v

    # then(a, b), a followed by b, is a translated by b.
    tail = bytes(range(size, 256))

    def then(a, b):
        return a.translate(b + tail)

    image = [-1] * size
    used = [False] * size

    def fits(v, w):
        # w may be the image of v: same signature, unused, and the images of
        # v's assigned neighbours are exactly w's used neighbours.
        if used[w] or sig[w] != sig[v]:
            return False
        hits = 0
        for u, mult in adj[v].items():
            if image[u] >= 0:
                if adj[w].get(image[u]) != mult:
                    return False
                hits += 1
        return hits == sum(used[x] for x in adj[w])

    def assign(v, w):
        image[v] = w
        used[w] = True

    def release(v):
        used[image[v]] = False
        image[v] = -1

    def extend(j):
        if j == size:
            return True
        v = base[j]
        u = parent[v]
        for w in range(size) if u is None else adj[image[u]]:
            if fits(v, w):
                assign(v, w)
                if extend(j + 1):
                    return True
                release(v)
        return False

    identity = bytes(range(size))
    gens = []
    transversals = []
    order = 1
    # Level i starts with the first i base points fixed and the rest free.
    for v in base:
        assign(v, v)
    for i in reversed(range(size)):
        b = base[i]
        release(b)
        u = parent[b]
        orbit = {b: identity}
        for w in range(size) if u is None else adj[u]:
            if w in orbit or not fits(b, w):
                continue
            assign(b, w)
            g = bytes(image) if extend(i + 1) else None
            for v in base[i:]:
                if image[v] >= 0:
                    release(v)
            if g is None:
                continue
            gens.append(g)
            queue = list(orbit)
            for x in queue:
                for s in gens:
                    if s[x] not in orbit:
                        orbit[s[x]] = then(orbit[x], s)
                        queue.append(s[x])
        order *= len(orbit)
        if order > MAX_AUTOMORPHISMS:
            raise InputError(f"the graph has more than {MAX_AUTOMORPHISMS} automorphisms")
        if len(orbit) > 1:
            transversals.append(list(orbit.values()))

    # Level i is the level-(i+1) elements, each followed by one member of
    # level i's transversal.
    elements = [identity]
    for transversal in transversals:
        elements = [then(h, t) for t in transversal for h in elements]
    elements.sort()
    return elements


def perm_dict(config: CurveConfig, g: bytes) -> dict[str, str]:
    """The automorphism g of graph_automorphisms as a map of vertex names."""
    names = config.vertices
    return dict(zip(names, [names[x] for x in g]))


def _relabellings(config: CurveConfig, automorphisms: Iterable[bytes]) -> list[dict[str, str]]:
    """Each automorphism g, as graph_automorphisms gives it, as _transport
    reads it: one map of the vertex names and of the edge point ids (vertex
    names hold no ":", point ids do), built through a table of the point id
    at each pair of vertex positions."""
    names = config.vertices
    index = {v: i for i, v in enumerate(names)}
    point_at: list[dict[int, str]] = [{} for _ in names]
    points = []
    for a, b in config.edges:
        pid = edge_point_id(a, b)
        i, j = index[a], index[b]
        point_at[i][j] = point_at[j][i] = pid
        points.append((pid, i, j))
    out = []
    for g in automorphisms:
        relabel = dict(zip(names, [names[x] for x in g]))
        relabel.update({pid: point_at[g[i]][g[j]] for pid, i, j in points})
        out.append(relabel)
    return out


def _transport(action: GraphAction, g: dict[str, str]) -> GraphAction:
    """Relabel an action along a graph automorphism g, given as _relabellings
    gives it."""
    config = action.config
    perm = {g[v]: g[action.perm[v]] for v in config.vertices}
    weights = {}
    free_points: dict[str, list[str]] = {}
    for curve, pids in action.free_points.items():
        target = g[curve]
        ordered = sorted(pids, key=lambda p: action.weights[(curve, p)])
        new_pids = []
        for i, pid in enumerate(ordered):
            new_pid = f"{target}.free{i}"
            weights[(target, new_pid)] = action.weights[(curve, pid)]
            new_pids.append(new_pid)
        free_points[target] = new_pids
    for (curve, pid), w in action.weights.items():
        if ":" in pid:
            weights[(g[curve], g[pid])] = w
    pointwise = {g[v] for v in action.pointwise}
    return GraphAction(config, action.n, action.c, perm, weights, pointwise, free_points)


def _conjugacy_classes(perms):
    """The conjugacy classes of the automorphism group perms (a list of
    byte strings as graph_automorphisms gives them), each represented by its
    first member p in list order.

    Yields (p, transporters, centraliser): transporters maps the position in
    perms of each conjugate q of p, in increasing order, to the first r in
    perms with r p r^-1 = q; centraliser lists the g with g p g^-1 = p in
    list order.

    Each g is also held as the translation table that applies it to such
    bytes, so conjugating by all of perms takes two bytes.translate calls per
    automorphism.
    """
    position = {g: i for i, g in enumerate(perms)}
    size = len(perms[0])
    # maketrans(g, identity) sends g[u] to u: its head is g^-1.
    identity = bytes(range(size))
    inverses = [bytes.maketrans(g, identity)[:size] for g in perms]
    fixed_tail = bytes(range(size, 256))
    tables = [g + fixed_tail for g in perms]
    classified: set[int] = set()
    for i, p in enumerate(tables):
        if i in classified:
            continue
        # g p g^-1 maps u to g[p[g^-1[u]]].
        conjugates = [
            position[g_inv.translate(p).translate(g)] for g, g_inv in zip(tables, inverses)
        ]
        # The reversed pairs leave each conjugate with its first transporter.
        transporters = dict(zip(reversed(conjugates), reversed(perms)))
        centraliser = [r for j, r in zip(conjugates, perms) if j == i]
        classified.update(transporters)
        yield perms[i], dict(sorted(transporters.items())), centraliser


def _symmetry(config: CurveConfig) -> tuple[list[bytes], list[tuple]]:
    """The part of enumerate_actions that depends on the graph alone, built
    on first use and kept in the config's slot, so it goes with the config:
    graph_automorphisms(config), and for each conjugacy class of
    automorphisms whose representative p fixes an edge, the tuple of p,
    _frame(config, p), one member of the centraliser C(p) per distinct
    restriction to the curves p fixes (a move), and each distinct pulled-back
    anchor flag with its _plan and its first transporter.  p is a dict, the
    transporters are maps as _relabellings gives them, and so are the moves,
    behind a cached call that relabels them on first use; the group stays in
    byte form."""
    if config._symmetry is not None:
        return config._symmetry
    names = config.vertices
    index = {v: i for i, v in enumerate(names)}
    auts = graph_automorphisms(config)
    classes = []
    for p, transporters, centraliser in _conjugacy_classes(auts):
        perm = perm_dict(config, p)
        frame = _frame(config, perm)
        fixed_edges = [(index[a], index[b]) for a, b, _mult in frame[2].values()]
        if not fixed_edges:
            continue
        stable = [index[v] for v in frame[0]]
        moves = tuple({bytes(h[i] for i in stable): h for h in centraliser}.values())
        # The first fixed edge of q = r p r^-1 is the fixed edge of p whose
        # image under r comes first; its flag is on the lesser image.  Vertex
        # positions order as the names do.
        pulled: dict[tuple[str, str], bytes] = {}
        for r in transporters.values():
            a, b = min(fixed_edges, key=lambda e: edge_key(r[e[0]], r[e[1]]))
            anchor = (names[a if r[a] < r[b] else b], edge_point_id(names[a], names[b]))
            pulled.setdefault(anchor, r)
        anchors = {
            anchor: (_plan(frame, anchor), r)
            for anchor, r in zip(pulled, _relabellings(config, pulled.values()))
        }
        # Relabelled on the class's first survivor: an (n, c) may have none.
        relabelled = functools.cache(lambda moves=moves: _relabellings(config, moves))
        classes.append((perm, frame, relabelled, anchors))
    config._symmetry = auts, classes
    return config._symmetry


def canonical_key(action: GraphAction, automorphisms=None):
    """Smallest reduced key over conjugation by the full automorphism group,
    given as graph_automorphisms lists it or read from the config's symmetry
    data."""
    config = action.config
    if automorphisms is None:
        automorphisms = _symmetry(config)[0]
    return min(_transport(action, g).reduced_key() for g in _relabellings(config, automorphisms))


def enumerate_actions(config, n, c, census_filter=None) -> list[GraphAction]:
    """All consistent actions of the given order and volume exponent, up to
    conjugation by graph automorphisms.

    The survivors are those of a scan over every automorphism q in the order
    of graph_automorphisms, anchored at the first fixed edge flag of q in
    canonical order with every anchor weight in Z_n; inconsistent or
    underdetermined combinations are dropped.  Saturation commutes with
    relabelling, so the scan runs once per conjugacy class of automorphisms.
    With p the first member of the class and r_q the first automorphism that
    conjugates p to q, the survivor for q at weight w is the saturation on p
    from the pull-back of q's anchor along r_q, transported along r_q; each
    distinct pull-back is saturated once per weight.  Two survivors on p are
    conjugate only under the centraliser C(p), and survivors of different
    classes never are, so each class of actions is one C(p)-orbit of
    survivors, censused once for the optional filter, which keeps actions
    whose census matches (N, k).  Transport along h in C(p) keeps the
    permutation h p h^-1 = p, and every weight, free point, pointwise-fixed
    curve and fixed edge lies on a curve that p fixes, so the image reads h
    only on those curves: the orbit is the images along one member of C(p)
    per distinct restriction to them (a move).  The class is represented by
    its survivor with the least (position of q, w).  The classes come out
    sorted by their canonical_key, the least reduced key of the orbit.  That
    key lies in the C(p)-orbit: transport keeps n and c, the permutation part
    of a reduced key orders permutations as graph_automorphisms lists them,
    and p comes first in its class.

    Each pulled-back anchor has a plan, its saturation run once with w and c
    as symbols (_plan).  A call saturates only the weights _anchor_weights
    keeps: those at which a form the plan assumed nonzero vanishes, where
    _saturate may take another path, and those that pass every constraint
    the plan recorded.  Every other weight is refuted exactly, so the
    survivors are those of saturating every w in Z_n; each is still built
    by the concrete walk of _saturate.  On the fixture graph (16, 1)
    saturates 38 weights instead of 224.

    Aut(G), its classes, each representative's frame, moves, and pulled-back
    anchors with their plans and transporters depend on the graph alone:
    they are built once per config, on the first call (see _symmetry).  Each
    call solves the plans for its (n, c) and runs the saturations, the
    C(p)-orbit deduplication, the census filter and the transport of each
    representative.
    """
    if n < 1:
        raise InputError(f"order must be at least 1, got {n}")
    if n > 64:
        raise InputError("order bound for enumeration is 64")
    classes: dict[tuple, GraphAction] = {}
    for perm, frame, moves, anchors in _symmetry(config)[1]:
        seen: set[tuple] = set()
        for anchor, (plan, r) in anchors.items():
            for w in _anchor_weights(plan, n, c):
                try:
                    action = _saturate(config, perm, n, c, {anchor: w}, frame=frame)
                except RigidityError:
                    continue
                if action.reduced_key() in seen:
                    continue
                keys = {_transport(action, h).reduced_key() for h in moves()}
                seen.update(keys)
                if census_filter is not None:
                    cens = action.census()
                    if (cens.N, cens.k) != tuple(census_filter):
                        continue
                classes[min(keys)] = _transport(action, r)
    return [classes[key] for key in sorted(classes)]


def to_dot(config: CurveConfig, action: GraphAction | None = None) -> str:
    """Graphviz export; byte-stable for identical inputs.

    With an action: pointwise-fixed curves fill grey, mobile curves stay
    white, stable curves get a bold outline; fixed points appear as edge
    labels, free fixed points as point-shaped satellite nodes.
    """
    lines = ["graph curves {", "  node [shape=circle fontsize=10];"]
    for v in config.vertices:
        attrs = []
        if action is not None:
            if v in action.pointwise:
                attrs.append('style=filled fillcolor=grey')
            elif action.perm[v] == v:
                attrs.append("penwidth=2")
            else:
                attrs.append('style=solid')
        attr_text = f" [{' '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{v}"{attr_text};')
    for (a, b), mult in sorted(config.edges.items()):
        attrs = []
        if mult == 2:
            attrs.append("penwidth=2")
        if action is not None:
            pid = edge_point_id(a, b)
            wa, wb = action.weights.get((a, pid)), action.weights.get((b, pid))
            if action.perm[a] == b and action.perm[b] == a:
                attrs.append('label="swap"')
            elif wa is not None and wb is not None:
                attrs.append(f'label="{wa}|{wb}"')
        attr_text = f" [{' '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{a}" -- "{b}"{attr_text};')
    if action is not None:
        for curve, pids in sorted(action.free_points.items()):
            for pid in pids:
                w = action.weights[(curve, pid)]
                lines.append(
                    f'  "{pid}" [shape=point width=0.08 xlabel="{w}"];'
                )
                lines.append(f'  "{curve}" -- "{pid}" [style=dotted];')
    lines.append("}")
    return "\n".join(lines) + "\n"
