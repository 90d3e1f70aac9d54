"""Expected answers computed without k3auto.

Every verdict the benchmark checks is derived here from first principles:
exponent arithmetic mod 16 for the bundled maps, permutation arithmetic and a
brute-force automorphism search for the bundled graph, known discriminants for
named lattices, and Kodaira's table for surfaces built from chosen roots.
Nothing in this module imports k3auto.
"""
from __future__ import annotations

from math import gcd, lcm

# -- maps on the bundled surface y^2 = x^3 + t^3 (t^4 - 1) x over Q(zeta_16) --

ORDER = 16

# sigma is the scaling (z^6 x, z^9 y, z^4 t) and tau the translation by the
# 2-torsion section; they commute, sigma has order 16, tau order 2, and
# sigma_alt = sigma tau.  A word in them is sigma^a tau^b with (a, b) in
# Z/16 x Z/2, and the 2-form factor of sigma^a tau^b is zeta^a.
MAP_EXPONENTS = {"sigma": (1, 0), "sigma_alt": (1, 1), "tau": (0, 1)}


def word_exponents(word) -> tuple[int, int]:
    a = sum(MAP_EXPONENTS[name][0] for name in word) % ORDER
    b = sum(MAP_EXPONENTS[name][1] for name in word) % 2
    return a, b


def expected_check_map(a: int, b: int) -> dict:
    """The check-map verdict for sigma^a tau^b, as exponents of zeta_16.

    A pure scaling sigma^a multiplies the Weierstrass equation by
    zeta^(18 a) = zeta^(2 a); a map involving the translation is not a
    coordinate scaling and has no ambient scalar.
    """
    omega_order = ORDER // gcd(a, ORDER)
    map_order = lcm(omega_order, 2 if b else 1)
    return {
        "well_defined": True,
        "ambient_scalar": (2 * a) % ORDER if b == 0 else None,
        "omega_factor": a,
        "omega_order": omega_order,
        "map_order": map_order,
        "primitive": omega_order == map_order,
        "symplectic": a == 0,
    }


def scaling_is_morphism(a: int, b: int, c: int) -> bool:
    """Whether (z^a x, z^b y, z^c t) preserves y^2 = x^3 + t^3 (t^4 - 1) x.

    Substituting gives z^(2b) y^2 = z^(3a) x^3 + z^(a+3c) t^3 (z^(4c) t^4 - 1) x,
    which is the equation again exactly when 2b = 3a, 4c = 0 and
    a + 3c = 2b mod 16.
    """
    return (
        (2 * b - 3 * a) % ORDER == 0
        and (4 * c) % ORDER == 0
        and (a + 3 * c - 2 * b) % ORDER == 0
    )


# -- permutations and the bundled incidence graph -----------------------------


def parse_graph(text: str):
    """Vertices, weighted edges and cycle-notation perms of a graph file."""
    vertices, edges, perms = [], {}, {}
    block = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[action.") and line.endswith("]"):
            block = line[len("[action."):-1]
            continue
        if block is None:
            parts = line.split()
            if parts[0] == "vertex":
                vertices.append(parts[1])
            else:
                edges[frozenset(parts[1:3])] = 2 if len(parts) == 4 else 1
        elif line.startswith("perm"):
            perms[block] = parse_cycles(line.split("=", 1)[1], vertices)
    return sorted(vertices), edges, perms


def parse_cycles(text: str, vertices) -> dict:
    perm = {v: v for v in vertices}
    for cycle in text.replace(")", "").split("(")[1:]:
        names = cycle.split()
        for i, name in enumerate(names):
            perm[name] = names[(i + 1) % len(names)]
    return perm


def perm_compose(p: dict, q: dict) -> dict:
    """v -> p(q(v))."""
    return {v: p[q[v]] for v in q}


def perm_power(p: dict, m: int) -> dict:
    out = {v: v for v in p}
    for _ in range(m):
        out = perm_compose(p, out)
    return out


def perm_order(p: dict) -> int:
    return lcm(*_cycle_lengths(p))


def automorphisms(vertices, edges) -> list[dict]:
    """Every multiplicity-preserving vertex permutation, by backtracking."""
    adj = {v: {} for v in vertices}
    for pair, mult in edges.items():
        a, b = tuple(pair)
        adj[a][b] = mult
        adj[b][a] = mult
    degree_of = {v: sorted(adj[v].values()) for v in vertices}
    out, image = [], {}

    def extend(i):
        if i == len(vertices):
            out.append(dict(image))
            return
        v = vertices[i]
        for w in vertices:
            if w in image.values() or degree_of[w] != degree_of[v]:
                continue
            if all(adj[v].get(u) == adj[w].get(image[u]) for u in vertices[:i]):
                image[v] = w
                extend(i + 1)
                del image[v]

    extend(0)
    return out


def point_id(a: str, b: str) -> str:
    return ":".join(sorted((a, b)))


def action_data(perm, n, c, weights, pointwise, free_points):
    """A hashable description of a weighted action: the data conjugation moves."""
    edge_flags = {
        (curve, pid): w % n
        for (curve, pid), w in weights.items()
        if ":" in pid
    }
    frees = {
        curve: tuple(sorted(weights[(curve, pid)] % n for pid in pids))
        for curve, pids in free_points.items()
    }
    return perm, n, c % n, edge_flags, frees, frozenset(pointwise)


def conjugate(data, g: dict):
    perm, n, c, edge_flags, frees, pointwise = data
    inv_g = {w: v for v, w in g.items()}
    new_perm = {v: g[perm[inv_g[v]]] for v in perm}
    new_flags = {}
    for (curve, pid), w in edge_flags.items():
        a, b = pid.split(":")
        new_flags[(g[curve], point_id(g[a], g[b]))] = w
    new_frees = {g[curve]: ws for curve, ws in frees.items()}
    return new_perm, n, c, new_flags, new_frees, frozenset(g[v] for v in pointwise)


def canonical(data, auts) -> tuple:
    """The smallest sortable form of an action over its conjugacy class."""

    def key(d):
        perm, n, c, flags, frees, pointwise = d
        return (
            n,
            c,
            tuple(sorted(perm.items())),
            tuple(sorted(flags.items())),
            tuple(sorted(frees.items())),
            tuple(sorted(pointwise)),
        )

    return min(key(conjugate(data, g)) for g in auts)


def has_conjugate_pair(actions, auts) -> bool:
    """Whether two of the actions (as action_data) are conjugate.

    Conjugation keeps the cycle type, the weight multisets and the number of
    pointwise-fixed curves, so only actions that agree on those are compared
    in full.
    """
    groups: dict[tuple, list] = {}
    for data in actions:
        perm, n, c, flags, frees, pointwise = data
        cycle_type = sorted(_cycle_lengths(perm))
        invariant = (n, c, tuple(cycle_type), tuple(sorted(flags.values())),
                     tuple(sorted(frees.values())), len(pointwise))
        groups.setdefault(invariant, []).append(data)
    for group in groups.values():
        if len(group) > 1:
            forms = {canonical(data, auts) for data in group}
            if len(forms) < len(group):
                return True
    return False


def _cycle_lengths(p: dict) -> list[int]:
    out, seen = [], set()
    for v in p:
        if v in seen:
            continue
        length, w = 0, v
        while w not in seen:
            seen.add(w)
            w = p[w]
            length += 1
        out.append(length)
    return out


def action_order(n: int, c: int, perm: dict, weights) -> int:
    """lcm of the curve permutation order and the order of the local weights."""
    g = gcd(n, c)
    for w in weights:
        g = gcd(g, w)
    return lcm(perm_order(perm), n // g if g else 1)


# -- lattices ------------------------------------------------------------------


def lattice_det(name: str) -> int:
    """|det| of U, U(m) and the ADE lattices A_n, D_n, E_6, E_7, E_8."""
    if name == "U":
        return 1
    if name.startswith("U("):
        return int(name[2:-1]) ** 2
    family, rank = name[0], int(name[1:])
    return {"A": rank + 1, "D": 4, "E": {6: 3, 7: 2, 8: 1}.get(rank)}[family]


def sum_det(names) -> int:
    out = 1
    for name in names:
        out *= lattice_det(name)
    return out


# -- Kodaira fibers of models with A = 0 or B = 0 ------------------------------

# Kodaira type by the order m of the nonzero coefficient at a place.
B_ZERO_TYPES = {1: "III", 2: "I0*", 3: "III*"}
A_ZERO_TYPES = {1: "II", 2: "IV", 3: "I0*", 4: "IV*", 5: "II*"}


def expected_fibers(family: str, multiplicities, degree: int) -> dict:
    """Kodaira fibers of y^2 = x^3 + A x (family 'B0') or y^2 = x^3 + B ('A0').

    A root of multiplicity m of the nonzero coefficient gives a fiber whose
    orders are (m, inf, 3m) or (inf, m, 2m); at infinity the order is the
    K3 twist 8 - deg A or 12 - deg B.  The result maps
    (type, vA, vB, vDelta) to the number of points carrying that fiber.
    """
    out: dict[tuple, int] = {}

    def add(m, count):
        if m == 0:
            return
        if family == "B0":
            key = (B_ZERO_TYPES[m], str(m), "inf", str(3 * m))
        else:
            key = (A_ZERO_TYPES[m], "inf", str(m), str(2 * m))
        out[key] = out.get(key, 0) + count

    for m in multiplicities:
        add(m, 1)
    add((8 if family == "B0" else 12) - degree, 1)
    return out
