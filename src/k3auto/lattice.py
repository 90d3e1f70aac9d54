"""Integer lattice toolkit: named Gram matrices, signatures, discriminant forms.

Everything is exact and runs on integers: Smith normal forms, signatures by
fraction-free symmetric elimination (Sylvester counts), and finite quadratic
forms held as q and b scaled by the group exponent to an integer matrix and
compared by an isomorphism search on it.  ADE lattices follow the K3 curve
convention and are negative definite.
"""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from operator import mul
from typing import NamedTuple

from .errors import InputError

# Largest Gram matrix built: checked on the requested rank before any rows.
MAX_LATTICE_RANK = 64


class UnknownLatticeError(InputError):
    """No lattice of that name is built in."""


class GroupTooLargeError(InputError):
    """The discriminant group exceeds the bound of the isomorphism search."""


class GramMatrix:
    """A symmetric even integer matrix."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = tuple(tuple(int(v) for v in row) for row in entries)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("Gram matrix must be square")
        for i in range(n):
            if rows[i][i] % 2:
                raise ValueError("Gram matrix must be even on the diagonal")
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        self.entries = rows

    @classmethod
    def _of(cls, entries: tuple) -> "GramMatrix":
        # entries is already a square, even, symmetric tuple of int tuples.
        out = cls.__new__(cls)
        out.entries = entries
        return out

    @property
    def size(self) -> int:
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, GramMatrix) and other.entries == self.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"GramMatrix({self.entries!r})"


def _check_rank(rank: int) -> None:
    if rank > MAX_LATTICE_RANK:
        raise InputError(f"lattice rank {rank} exceeds the bound {MAX_LATTICE_RANK}")


def _adjacency_gram(n: int, edges: list[tuple[int, int, int]]) -> GramMatrix:
    """-2 on the diagonal and each edge (a, b, multiplicity) off it, a != b:
    square, even and symmetric by construction, so built unchecked."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = -2
    for a, b, mult in edges:
        rows[a][b] = mult
        rows[b][a] = mult
    return GramMatrix._of(tuple(map(tuple, rows)))


def _path_edges(n: int) -> list[tuple[int, int, int]]:
    return [(i, i + 1, 1) for i in range(n - 1)]


def named_lattice(name: str) -> GramMatrix:
    """Standard lattices by name: A_n, D_n, E_6, E_7, E_8, U, U(m).

    ADE lattices are negative definite (curves of self-intersection -2 meeting
    transversally); U is the hyperbolic plane and U(m) its scaling.
    """
    name = name.strip()
    if name == "U":
        return GramMatrix._of(((0, 1), (1, 0)))
    m = re.fullmatch(r"U\((\d+)\)", name)
    if m:
        k = int(m.group(1))
        return GramMatrix._of(((0, k), (k, 0)))
    m = re.fullmatch(r"([ADE])_?(\d+)", name)
    if not m:
        raise UnknownLatticeError(f"unknown lattice name {name!r}")
    family, rank = m.group(1), int(m.group(2))
    _check_rank(rank)
    if family == "A" and rank >= 1:
        return _adjacency_gram(rank, _path_edges(rank))
    if family == "D" and rank >= 3:
        edges = _path_edges(rank - 1) + [(rank - 3, rank - 1, 1)]
        return _adjacency_gram(rank, edges)
    if family == "E" and rank in (6, 7, 8):
        # A path v0..v(rank-2) with the last node attached so the branch arms
        # have lengths (1, 2, rank - 4) beyond the trivalent node.
        branch = {6: 2, 7: 3, 8: 4}[rank]
        edges = _path_edges(rank - 1) + [(branch, rank - 1, 1)]
        return _adjacency_gram(rank, edges)
    raise UnknownLatticeError(f"unknown lattice name {name!r}")


def direct_sum(parts) -> GramMatrix:
    mats = [p if isinstance(p, GramMatrix) else named_lattice(p) for p in parts]
    n = sum(m.size for m in mats)
    _check_rank(n)
    rows = []
    before = 0
    for m in mats:
        after = n - before - m.size
        rows.extend((0,) * before + row + (0,) * after for row in m.entries)
        before += m.size
    # Block sums of checked Gram matrices are square, even and symmetric.
    return GramMatrix._of(tuple(rows))


def from_curve_config(config) -> GramMatrix:
    """Intersection matrix of a curve configuration: -2 diagonal, edge
    multiplicities off the diagonal."""
    _check_rank(len(config.vertices))
    index = {v: i for i, v in enumerate(config.vertices)}
    edges = [(index[a], index[b], mult) for (a, b), mult in config.edges.items()]
    return _adjacency_gram(len(index), edges)


def signature(G: GramMatrix) -> tuple[int, int]:
    """(positive, negative) inertia by exact symmetric elimination, in integers.

    Fraction-free (Bareiss): after t pivots each Schur complement entry is
    B / p_t, with p_t = `minors[t]` the Gram determinant of the pivots and B
    an integer minor, so the pivot B_pp / p_t has the sign of B_pp * p_t.  A
    pivot changes only the entries whose row and column both meet it; each
    entry keeps the step `at` of its last change and is brought to the
    current scale, B * p_t // p_at (exact), when it is next read.
    """
    n = G.size
    m = [list(row) for row in G.entries]
    at = [[0] * n for _ in range(n)]
    minors = [1]

    def entry(i, j):
        t = len(minors) - 1
        if at[i][j] != t:
            m[i][j] = m[j][i] = m[i][j] * minors[t] // minors[at[i][j]]
            at[i][j] = at[j][i] = t
        return m[i][j]

    def put(i, j, value):
        m[i][j] = m[j][i] = value
        at[i][j] = at[j][i] = len(minors) - 1

    active = list(range(n))
    pos = neg = 0
    while active:
        # A stored entry is zero exactly when its Schur value is.
        pivot = next((i for i in active if m[i][i]), None)
        if pivot is None:
            pair = next(((i, j) for i in active for j in active if m[i][j]), None)
            if pair is None:
                break  # only the radical remains
            # Every active diagonal entry is zero, so the congruence
            # v_i -> v_i + v_j makes entry (i, i) equal to 2 m[i][j] != 0.
            pivot, j = pair
            row = {k: entry(pivot, k) + entry(j, k) for k in active}
            row[pivot] += row[j]
            for k, value in row.items():
                put(pivot, k, value)
        d = entry(pivot, pivot)
        if (d > 0) == (minors[-1] > 0):
            pos += 1
        else:
            neg += 1
        active.remove(pivot)
        touched = [(j, entry(pivot, j)) for j in active if m[pivot][j]]
        prev = minors[-1]
        updates = [
            (i, j, (d * entry(i, j) - ai * aj) // prev)
            for a, (i, ai) in enumerate(touched)
            for j, aj in touched[a:]
        ]
        minors.append(d)
        for i, j, value in updates:
            put(i, j, value)
    return pos, neg


def smith_normal_form(matrix) -> tuple[list[list[int]], list[list[int]]]:
    """(D, V) with U * M * V = D diagonal, d_i | d_{i+1}, for V and some U
    unimodular.  The row transform U is not built."""
    a = [list(map(int, row)) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_cols(i, j):
        for m in (a, V):
            for row in m:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]

    def add_col(src, dst, k):
        for m in (a, V):
            for row in m:
                if row[src]:
                    row[dst] += k * row[src]

    t = 0
    while t < min(rows, cols):
        # The first smallest nonzero entry of the remaining block in row-major
        # order; nothing is smaller than 1, so the scan stops at the first 1.
        best = None
        least = 0
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                if row[j] and (best is None or abs(row[j]) < least):
                    best, least = (i, j), abs(row[j])
                    if least == 1:
                        break
            if least == 1:
                break
        if best is None:
            break
        if best[0] != t:
            a[t], a[best[0]] = a[best[0]], a[t]
        if best[1] != t:
            swap_cols(t, best[1])
        p = a[t][t]
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t]:
                add_row(t, i, -(a[i][t] // p))
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j]:
                add_col(t, j, -(a[t][j] // p))
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        # Enforce divisibility of the remaining block by the pivot.
        if abs(p) != 1:
            offender = next(
                (i for i in range(t + 1, rows) if any(v % p for v in a[i][t + 1:])), None
            )
            if offender is not None:
                add_row(offender, t, 1)
                continue
        if p < 0:
            a[t] = [-v for v in a[t]]
        t += 1
    return a, V


class DiscriminantGroup(NamedTuple):
    """L*/L of the nondegenerate part, with its discriminant form.

    With g_i the generator of the i-th summand of the invariant-factor
    decomposition, ``form`` holds the form scaled by the exponent e, the
    largest invariant factor: e q(g_i) mod 2e on the diagonal and
    e b(g_i, g_j) mod e off it, all integers.  As integers the entries give
    e q(x) = x.F.x mod 2e for every x, because each off-diagonal entry
    counts twice, and e b(x, y) = x.F.y mod e.
    """

    invariant_factors: tuple[int, ...]
    form: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return max(self.invariant_factors, default=1)

    @property
    def q_values(self) -> tuple[Fraction, ...]:
        """q(g_i) in Q/2Z, as the report prints them."""
        e = self.exponent
        return tuple(Fraction(row[i], e) for i, row in enumerate(self.form))

    def elements(self):
        return product(*(range(d) for d in self.invariant_factors))

    def element_order(self, coeffs) -> int:
        out = 1
        for d, c in zip(self.invariant_factors, coeffs):
            out = lcm(out, d // gcd(d, c) if c else 1)
        return out


def _gram_of_columns(M, V, cols) -> list[list[int]]:
    """Gram matrix under the symmetric M of the columns `cols` of V, in integers."""
    n = len(M)
    m_rows = [[(c, x) for c, x in enumerate(row) if x] for row in M]
    vecs = [[(r, V[r][j]) for r in range(n) if V[r][j]] for j in cols]
    images = []
    for vec in vecs:
        image = [0] * n
        for c, x in vec:
            for r, y in m_rows[c]:
                image[r] += x * y
        images.append(image)
    W = [[0] * len(vecs) for _ in vecs]
    for i, vec in enumerate(vecs):
        for k in range(i, len(vecs)):
            W[i][k] = W[k][i] = sum(x * images[k][r] for r, x in vec)
    return W


def _nondegenerate_gram(G: GramMatrix) -> list[list[int]]:
    # Basis change by the SNF right transform of G: U G V = D with U
    # unimodular, so G V e_j = 0 exactly when D[j][j] = 0.  Those columns of V
    # span the saturated kernel, and the remaining columns project to a basis
    # of the nondegenerate quotient.
    D, V = smith_normal_form(G.entries)
    keep = [j for j in range(G.size) if D[j][j]]
    return _gram_of_columns(G.entries, V, keep)


def discriminant_data(G: GramMatrix) -> DiscriminantGroup:
    """Invariant factors and discriminant form of the nondegenerate quotient,
    on generators read in the basis of ``_nondegenerate_gram``."""
    return _discriminant(_nondegenerate_gram(G))


def _discriminant(M) -> DiscriminantGroup:
    """Invariant factors and discriminant form of the nondegenerate Gram
    matrix M, on generators read in M's own basis."""
    n = len(M)
    if n == 0:
        return DiscriminantGroup((), ())
    D, V = smith_normal_form(M)
    # U M V = D gives M^{-1} U^{-1} e_i = V e_i / d_i: the generator g_i of
    # the i-th cyclic summand is column i of V over d_i, and the form on g_i
    # and g_j is W[i][j] / (d_i d_j) for W = V^T M V.  d_i g_i lies in L,
    # so q(g_i) and b(g_i, g_j) lie in (1/d_i)Z, and the division of
    # e W[i][j] by d_i d_j is exact.
    cyclic = [i for i in range(n) if D[i][i] > 1]
    factors = tuple(D[i][i] for i in cyclic)
    e = max(factors, default=1)
    W = _gram_of_columns(M, V, cyclic)
    form = tuple(
        tuple(
            e * W[a][b] // (da * db) % (2 * e if a == b else e)
            for b, db in enumerate(factors)
        )
        for a, da in enumerate(factors)
    )
    return DiscriminantGroup(factors, form)


def _b_scaled(row, y, e: int) -> int:
    """e b(x, y) mod e from the row x.F of x; the one pair check of the search."""
    return sum(map(mul, row, y)) % e


def genus_equal(G1: GramMatrix, G2: GramMatrix) -> bool:
    """Same rank, same signature and isomorphic discriminant quadratic forms.

    A lattice is its nondegenerate quotient plus its radical, so equal rank
    and signature fix the radical.  For the even indefinite lattices in scope
    this decides the genus; the finite-form isomorphism is found by search
    over generator images on the scaled forms, integers mod 2e and mod e for
    the group exponent e (group order capped at 1024).  The search runs in
    each lattice's own basis when it has no radical, one Smith form per
    lattice; with a radical it runs on the forms of ``discriminant_data``,
    whose basis the printed q-values keep.
    """
    if G1.size != G2.size:
        return False
    sig = signature(G1)
    if sig != signature(G2):
        return False
    if sum(sig) == G1.size:
        # No radical on either side, and the isometry class of a
        # discriminant form does not depend on the basis: each Gram matrix
        # serves as it stands.
        d1, d2 = _discriminant(G1.entries), _discriminant(G2.entries)
    else:
        d1, d2 = discriminant_data(G1), discriminant_data(G2)
    if sorted(d1.invariant_factors) != sorted(d2.invariant_factors):
        return False
    if d1.order > 1024:
        raise GroupTooLargeError(f"discriminant group of order {d1.order}")
    if d1.order == 1:
        return True
    e = d1.exponent
    F1, F2 = d1.form, d2.form
    # Candidates by element order and scaled q, each with its row x.F mod e.
    by_order_q: dict[tuple[int, int], list[tuple[tuple[int, ...], list[int]]]] = {}
    for el in d2.elements():
        row = [sum(map(mul, el, column)) for column in F2]
        key = (d2.element_order(el), sum(map(mul, el, row)) % (2 * e))
        by_order_q.setdefault(key, []).append((el, [v % e for v in row]))

    # Generators of larger order first, ties in their order: on
    # A2+D4+D6+U(2) against itself that cuts the search from 731 b
    # evaluations to 274.  b is symmetric, so the pairs checked are the
    # same in any order.
    gens1 = sorted(range(len(F1)), key=lambda i: -d1.invariant_factors[i])

    def extend(i, images):
        # Images with the orders and q values of the generator they replace
        # that keep b on generator pairs define a homomorphism that keeps b
        # (b(x, x) is q(x) mod 1); b is nondegenerate, so it is injective,
        # and onto since the two groups have one order.
        if i == len(gens1):
            return True
        g = gens1[i]
        want_b = [F1[g][h] for h in gens1[:i]]
        for cand, row in by_order_q.get((d1.invariant_factors[g], F1[g][g]), ()):
            if all(_b_scaled(row, y, e) == b for y, b in zip(images, want_b)) and extend(
                i + 1, images + [cand]
            ):
                return True
        return False

    return extend(0, [])
