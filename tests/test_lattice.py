import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd, lcm, prod

import pytest

from k3auto import lattice
from k3auto.lattice import (
    DiscriminantGroup,
    GramMatrix,
    _nondegenerate_gram,
    GroupTooLargeError,
    UnknownLatticeError,
    direct_sum,
    discriminant_data,
    from_curve_config,
    genus_equal,
    named_lattice,
    signature,
    smith_normal_form,
)


class _Cfg:
    # Minimal stand-in carrying the CurveConfig surface the lattice code uses.
    def __init__(self, vertices, edges):
        self.vertices = tuple(sorted(vertices))
        self.edges = edges


def fixture_config():
    verts = (
        [f"C{i}" for i in range(1, 9)]
        + [f"a{i}" for i in range(1, 6)]
        + [f"b{i}" for i in range(1, 6)]
        + ["s0", "s1"]
    )
    edges = {}

    def add(a, b, m=1):
        edges[tuple(sorted((a, b)))] = m

    for i in range(1, 7):
        add(f"C{i}", f"C{i+1}")
    add("C4", "C8")
    for i in range(1, 6):
        add(f"a{i}", f"b{i}", 2)
        add("s0", f"a{i}")
        add("s1", f"b{i}")
    add("s0", "C1")
    add("s1", "C7")
    return _Cfg(verts, edges)


def determinant(G: GramMatrix) -> int:
    """Exact determinant by Gaussian elimination over the rationals."""
    n = G.size
    m = [[Fraction(v) for v in row] for row in G.entries]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    assert det.denominator == 1
    return int(det)


def test_named_lattice_determinants():
    assert abs(determinant(named_lattice("E8"))) == 1
    assert determinant(named_lattice("U(2)")) == -4
    assert determinant(named_lattice("U")) == -1
    assert abs(determinant(named_lattice("D4"))) == 4
    assert abs(determinant(named_lattice("D8"))) == 4
    assert abs(determinant(named_lattice("A3"))) == 4
    assert abs(determinant(named_lattice("E7"))) == 2
    assert abs(determinant(named_lattice("E6"))) == 3
    with pytest.raises(UnknownLatticeError):
        named_lattice("F4")


def test_ade_are_negative_definite():
    for name in ("A1", "A5", "D4", "D8", "E6", "E7", "E8"):
        G = named_lattice(name)
        assert signature(G) == (0, G.size)


def test_direct_sum_rank_and_signature():
    G = direct_sum(["U(2)", "D4", "E8"])
    assert G.size == 14
    assert signature(G) == (1, 13)
    # componentwise signature addition
    parts = [named_lattice(n) for n in ("U(2)", "D4", "E8")]
    ps = [signature(p) for p in parts]
    assert signature(G) == (sum(p for p, _ in ps), sum(q for _, q in ps))


def _reference_smith_normal_form(matrix):
    """(D, U, V) with U * M * V = D: smith_normal_form with the row transform
    U tracked through every row operation."""
    a = [list(map(int, row)) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for m in (a, V):
            for row in m:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        for m in (a, U):
            m[dst] = [x + k * y for x, y in zip(m[dst], m[src])]

    def add_col(src, dst, k):
        for m in (a, V):
            for row in m:
                if row[src]:
                    row[dst] += k * row[src]

    t = 0
    while t < min(rows, cols):
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
            swap_rows(t, best[0])
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
        if abs(p) != 1:
            offender = next(
                (i for i in range(t + 1, rows) if any(v % p for v in a[i][t + 1:])), None
            )
            if offender is not None:
                add_row(offender, t, 1)
                continue
        if p < 0:
            a[t] = [-v for v in a[t]]
            U[t] = [-v for v in U[t]]
        t += 1
    return a, U, V


def test_smith_normal_form_properties():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 5)
        M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        D, U, V = _reference_smith_normal_form(M)
        assert smith_normal_form(M) == (D, V)
        # U M V == D
        UM = [[sum(U[i][k] * M[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        UMV = [[sum(UM[i][k] * V[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert UMV == D
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        diag = [D[i][i] for i in range(n)]
        for a, b in zip(diag, diag[1:]):
            if a and b:
                assert b % a == 0
            if a == 0:
                assert b == 0


def test_discriminant_groups_of_named_lattices():
    assert discriminant_data(named_lattice("E8")).invariant_factors == ()
    assert discriminant_data(named_lattice("U")).invariant_factors == ()
    assert discriminant_data(named_lattice("U(2)")).invariant_factors == (2, 2)
    assert discriminant_data(named_lattice("D4")).invariant_factors == (2, 2)
    assert discriminant_data(named_lattice("A3")).invariant_factors == (4,)
    big = direct_sum(["U(2)", "D4", "E8"])
    dd = discriminant_data(big)
    assert dd.invariant_factors == (2, 2, 2, 2)
    assert dd.order == abs(determinant(big))


def _fraction_solve(A, columns):
    """The columns x with A x = b for each column b, by Fraction elimination."""
    n = len(A)
    aug = [[Fraction(v) for v in row] + [Fraction(b[i]) for b in columns] for i, row in enumerate(A)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        nonzero = [(c, p) for c, p in enumerate(aug[col]) if p]
        for r in range(n):
            f = aug[r][col]
            if r != col and f:
                row = aug[r]
                for c, p in nonzero:
                    row[c] -= f * p
    return [[aug[r][n + j] for r in range(n)] for j in range(len(columns))]


def _reference_discriminant(G):
    # Generators g = M^-1 U^-1 e_i with U M V = D, forms by Fraction
    # pairings: M h = U^-1 e_j for a generator h, so g.M.h = g.U^-1 e_j.
    M = _nondegenerate_gram(G)
    n = len(M)
    D, U, _V = _reference_smith_normal_form(M)
    cyclic = [i for i in range(n) if D[i][i] > 1]
    factors = [D[i][i] for i in cyclic]
    images = _fraction_solve(U, [[int(r == i) for r in range(n)] for i in cyclic])
    gens = _fraction_solve(M, images)

    def pair(g, image):
        return sum(x * y for x, y in zip(g, image))

    q_vals = tuple(pair(g, image) % 2 for g, image in zip(gens, images))
    b_vals = tuple(tuple(pair(g, image) % 1 for image in images) for g in gens)
    return tuple(factors), q_vals, b_vals


def _scaled_form(factors, q_vals, b_vals):
    """Fraction q and b values on the generators scaled by the exponent e:
    e q mod 2e on the diagonal and e b mod e off it, each an integer."""
    e = max(factors, default=1)
    k = len(factors)
    scaled = [[q_vals[i] * e if i == j else b_vals[i][j] * e for j in range(k)] for i in range(k)]
    assert all(v.denominator == 1 for row in scaled for v in row)
    return tuple(
        tuple(int(v) % (2 * e if i == j else e) for j, v in enumerate(row))
        for i, row in enumerate(scaled)
    )


def q_of(data, coeffs) -> Fraction:
    """q of the element with these coefficients, from _reference_discriminant's data."""
    _factors, q_vals, b_vals = data
    total = Fraction(0)
    k = len(coeffs)
    for i in range(k):
        total += coeffs[i] * coeffs[i] * q_vals[i]
        for j in range(i + 1, k):
            total += 2 * coeffs[i] * coeffs[j] * b_vals[i][j]
    return total % 2


def b_of(data, u, v) -> Fraction:
    """b of two elements, from _reference_discriminant's data."""
    b_vals = data[2]
    total = Fraction(0)
    k = len(u)
    for i in range(k):
        for j in range(k):
            total += u[i] * v[j] * b_vals[i][j]
    return total % 1


def test_discriminant_data_matches_inverse_formula():
    rng = random.Random(17)
    names = ["U", "U(2)", "U(3)", "A1", "A2", "A3", "A5", "D4", "D5", "D6", "E6", "E7", "E8"]
    sums = [["U(2)", "D4", "E8"]] + [
        [rng.choice(names) for _ in range(rng.randint(1, 3))] for _ in range(20)
    ]
    for parts in sums:
        G = direct_sum(parts)
        dd = discriminant_data(G)
        factors, q_vals, b_vals = _reference_discriminant(G)
        assert dd == (factors, _scaled_form(factors, q_vals, b_vals)), parts
        assert dd.q_values == q_vals, parts


def test_q_and_b_consistency():
    # q(g + h) - q(g) - q(h) == 2 b(g, h) mod 2Z, on all element pairs; the
    # scaled form gives e q(x) = x.F.x mod 2e and e b(x, y) = x.F.y mod e.
    G = direct_sum(["U(2)", "D4"])
    dd = discriminant_data(G)
    data = _reference_discriminant(G)
    e = dd.exponent
    F = dd.form
    els = list(dd.elements())

    def scaled(u, v):
        return sum(u[i] * F[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))

    for u in els:
        assert q_of(data, u) * e % (2 * e) == scaled(u, u) % (2 * e)
        for v in els:
            s = tuple((a + b) % d for a, b, d in zip(u, v, dd.invariant_factors))
            lhs = (q_of(data, s) - q_of(data, u) - q_of(data, v)) % 2
            rhs = (2 * b_of(data, u, v)) % 2
            assert lhs == rhs
            assert b_of(data, u, v) * e % e == scaled(u, v) % e


def test_from_curve_config_small():
    single = _Cfg(["C"], {})
    G = from_curve_config(single)
    assert G.entries == ((-2,),)
    affine_e7 = _Cfg(
        [f"C{i}" for i in range(1, 9)],
        {tuple(sorted((f"C{i}", f"C{i+1}"))): 1 for i in range(1, 7)}
        | {("C4", "C8"): 1},
    )
    G = from_curve_config(affine_e7)
    assert G.size == 8
    assert sum(signature(G)) == 7  # affine diagram: one-dimensional radical
    assert signature(G) == (0, 7)


def test_fixture_curve_lattice_matches_picard_data():
    G = from_curve_config(fixture_config())
    assert G.size == 20
    assert sum(signature(G)) == 14
    assert signature(G) == (1, 13)
    assert discriminant_data(G).invariant_factors == (2, 2, 2, 2)


def test_genus_identities():
    lhs = direct_sum(["U", "D8", "D4"])
    rhs = direct_sum(["U(2)", "E8", "D4"])
    assert genus_equal(lhs, rhs) is True
    assert genus_equal(rhs, lhs) is True
    assert genus_equal(lhs, lhs) is True
    assert genus_equal(named_lattice("U"), named_lattice("U(2)")) is False
    assert genus_equal(named_lattice("E8"), named_lattice("E8")) is True
    assert genus_equal(named_lattice("D4"), named_lattice("A1")) is False


def test_fixture_lattice_genus_matches_named_sum():
    from k3auto.lattice import _nondegenerate_gram

    G = from_curve_config(fixture_config())
    quotient = GramMatrix(_nondegenerate_gram(G))
    assert genus_equal(quotient, direct_sum(["U(2)", "D4", "E8"])) is True


def test_invariant_factor_product_is_abs_det():
    for names in (["U"], ["U(2)"], ["D4"], ["E7"], ["A3", "U"], ["U(2)", "D4", "E8"]):
        G = direct_sum(names)
        dd = discriminant_data(G)
        prod = 1
        for d in dd.invariant_factors:
            prod *= d
        assert prod == abs(determinant(G))


def test_even_symmetry_validation():
    with pytest.raises(ValueError):
        GramMatrix([[1]])
    with pytest.raises(ValueError):
        GramMatrix([[0, 1], [2, 0]])


def _reference_signature(G):
    """signature with a separate hyperbolic-pair step: when every active
    diagonal entry is zero, a nonzero (i, j) spans a hyperbolic plane that
    counts (1, 1) and is split off by a congruence."""
    n = G.size
    m = [[Fraction(v) for v in row] for row in G.entries]
    active = list(range(n))
    pos = neg = 0
    while active:
        pivot = next((i for i in active if m[i][i] != 0), None)
        if pivot is not None:
            if m[pivot][pivot] > 0:
                pos += 1
            else:
                neg += 1
            d = m[pivot][pivot]
            active.remove(pivot)
            for i in active:
                f = m[i][pivot] / d
                if f:
                    for j in active:
                        m[i][j] -= f * m[pivot][j]
            continue
        pair = next(((i, j) for i in active for j in active if i != j and m[i][j] != 0), None)
        if pair is None:
            break
        i, j = pair
        a = m[i][j]
        pos += 1
        neg += 1
        active.remove(i)
        active.remove(j)
        alpha = {k: m[k][j] / a for k in active}
        beta = {k: m[k][i] / a for k in active}
        for k in active:
            for l in active:
                m[k][l] -= a * (alpha[k] * beta[l] + alpha[l] * beta[k])
    return pos, neg


def _seeded_gram(rng):
    n = rng.randint(1, 8)
    zero_diagonal = rng.random() < 0.6
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 0 if zero_diagonal else rng.choice([-4, -2, 0, 0, 2])
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.choice([-2, -1, 0, 0, 0, 1, 3])
    return GramMatrix(rows)


def test_signature_matches_the_hyperbolic_pair_reference():
    rng = random.Random(14)
    zero_diagonals = 0
    for _ in range(600):
        G = _seeded_gram(rng)
        zero_diagonals += not any(G.entries[i][i] for i in range(G.size))
        assert signature(G) == _reference_signature(G)
    assert zero_diagonals > 300
    for names in (["U"], ["U(2)", "U(3)"], ["U", "U(5)", "U(2)", "U(4)"], ["U(2)", "D4", "E8"]):
        G = direct_sum(names)
        assert signature(G) == _reference_signature(G)
    for k in range(1, 9):
        G = direct_sum([f"U({j})" for j in range(1, k + 1)])
        assert signature(G) == _reference_signature(G) == (k, k)


def _element_order(factors, coeffs):
    out = 1
    for d, c in zip(factors, coeffs):
        out = lcm(out, d // gcd(d, c))
    return out


def _reference_genus_equal(G1, G2):
    """genus_equal as it was with a final check that the generator images
    generate all of group 2, on the Fraction forms of
    _reference_discriminant; also returns how many full assignments reached
    that check."""
    if signature(G1) != signature(G2):
        return False, 0
    d1 = _reference_discriminant(G1)
    d2 = _reference_discriminant(G2)
    (factors1, q1, b1), factors2 = d1, d2[0]
    if sorted(factors1) != sorted(factors2):
        return False, 0
    order1, order2 = prod(factors1), prod(factors2)
    if order1 != order2:
        return False, 0
    if order1 > 1024:
        raise GroupTooLargeError(f"discriminant group of order {order1}")
    if order1 == 1:
        return True, 0
    by_order_q = {}
    for el in product(*(range(d) for d in factors2)):
        by_order_q.setdefault((_element_order(factors2, el), q_of(d2, el)), []).append(el)
    k = len(factors1)
    full_checks = 0

    def extend(i, images):
        nonlocal full_checks
        if i == k:
            full_checks += 1
            seen = set()
            for coeffs in product(*(range(d) for d in factors1)):
                seen.add(tuple(
                    sum(coeffs[m] * images[m][j] for m in range(k)) % d
                    for j, d in enumerate(factors2)
                ))
            return len(seen) == order2
        for cand in by_order_q.get((factors1[i], q1[i] % 2), ()):
            if all(b_of(d2, cand, images[j]) == b1[i][j] % 1 for j in range(i)):
                if extend(i + 1, images + [cand]):
                    return True
        return False

    return extend(0, []), full_checks


GENUS_POOL = ("A1", "A2", "A3", "D4", "D5", "D6", "E6", "E7", "U", "U(2)", "U(3)")


def _genus_groups(pool, least_order):
    """Sums of at most three names of pool with a discriminant group of order
    from least_order to 1024, grouped by signature and invariant factors."""
    same_invariants = {}
    for k in (1, 2, 3):
        for names in combinations_with_replacement(pool, k):
            G = direct_sum(names)
            dd = discriminant_data(G)
            if least_order <= dd.order <= 1024:
                key = (signature(G), tuple(sorted(dd.invariant_factors)))
                same_invariants.setdefault(key, []).append(names)
    return list(same_invariants.values())


def test_genus_equal_matches_the_search_with_a_generation_check():
    # Sums of at most three named lattices with a discriminant group of order
    # at most 1024, grouped by signature and invariant factors so that each
    # pair reaches the search: every pair of two different sums in a group,
    # and 40 seeded sums against themselves.  The second sum is shuffled.
    groups = _genus_groups(GENUS_POOL, 1)
    rng = random.Random(16)
    pairs = [(a, b) for group in groups for a in group for b in group if a != b]
    pairs += rng.sample([(a, a) for group in groups for a in group], 40)
    verdicts = {True: 0, False: 0}
    full_checks = 0
    for a, b in pairs:
        b = list(b)
        rng.shuffle(b)
        G1, G2 = direct_sum(a), direct_sum(b)
        want, checks = _reference_genus_equal(G1, G2)
        assert genus_equal(G1, G2) is want, (a, b)
        verdicts[want] += 1
        full_checks += checks
    assert verdicts == {True: 52, False: 44}
    assert full_checks == 52


def test_genus_equal_searches_generators_of_larger_order_first(monkeypatch):
    # The discriminant group of A2+D4+D6+U(2) has invariant factors
    # (2, 2, 2, 2, 2, 6).  In the lattice's own basis, with the generator of
    # order 6 first the search makes 274 pair checks of b; with it last, 731.
    calls = 0
    b_scaled = lattice._b_scaled

    def counted(row, y, e):
        nonlocal calls
        calls += 1
        return b_scaled(row, y, e)

    monkeypatch.setattr(lattice, "_b_scaled", counted)
    G = direct_sum(["A2", "D4", "D6", "U(2)"])
    assert discriminant_data(G).invariant_factors == (2, 2, 2, 2, 2, 6)
    assert genus_equal(G, G) is True
    assert calls == 274


def test_genus_equal_makes_one_smith_form_per_nondegenerate_lattice(monkeypatch):
    # Without a radical each Gram matrix serves as it stands; with one, each
    # side first goes to its nondegenerate quotient, as discriminant_data does.
    calls = 0
    snf = lattice.smith_normal_form

    def counted(matrix):
        nonlocal calls
        calls += 1
        return snf(matrix)

    monkeypatch.setattr(lattice, "smith_normal_form", counted)
    for first, second, want in (
        (["U", "D8", "D4"], ["U(2)", "E8", "D4"], 2),
        (["U", "D8", "D4", "U(0)"], ["U(0)", "U(2)", "E8", "D4"], 4),
    ):
        calls = 0
        assert genus_equal(direct_sum(first), direct_sum(second)) is True
        assert calls == want
    calls = 0
    discriminant_data(direct_sum(["U(2)", "E8", "D4"]))
    assert calls == 2


def test_genus_equal_matches_the_search_with_a_radical_on_both_sides():
    # The pairs of two different sums of the generation-check test and 10
    # seeded sums against themselves, both sides padded with the same seeded
    # number of U(0) and shuffled: the branch that goes through the
    # nondegenerate quotient.
    groups = _genus_groups(GENUS_POOL, 1)
    rng = random.Random(35)
    pairs = [(a, b) for group in groups for a in group for b in group if a != b]
    pairs += rng.sample([(a, a) for group in groups for a in group], 10)
    verdicts = {True: 0, False: 0}
    for a, b in pairs:
        radical = ["U(0)"] * rng.randint(1, 2)
        sides = [list(a) + radical, list(b) + radical]
        for names in sides:
            rng.shuffle(names)
        G1, G2 = (direct_sum(names) for names in sides)
        want, _checks = _reference_genus_equal(G1, G2)
        assert genus_equal(G1, G2) is want, sides
        verdicts[want] += 1
    assert verdicts == {True: 22, False: 44}


def test_direct_sum_equals_the_checked_block_sum():
    # direct_sum builds its block sum unchecked: on every GENUS_POOL sum the
    # entries equal those the checked constructor builds from the blocks.
    for k in (1, 2, 3):
        for names in combinations_with_replacement(GENUS_POOL, k):
            blocks = [named_lattice(name) for name in names]
            n = sum(block.size for block in blocks)
            rows = [[0] * n for _ in range(n)]
            offset = 0
            for block in blocks:
                for i, row in enumerate(block.entries):
                    rows[offset + i][offset : offset + block.size] = row
                offset += block.size
            assert direct_sum(names).entries == GramMatrix(rows).entries, names
    for bad in ([[0, 1]], [[1]], [[0, 1], [2, 0]]):
        with pytest.raises(ValueError):
            GramMatrix(bad)


def test_genus_equal_requires_equal_rank():
    # A radical U(0) changes neither the signature nor the discriminant form
    # of the nondegenerate part, only the rank.
    for first, second in ((["E8"], ["E8", "U(0)"]), (["A1"], ["A1", "U(0)"]), (["U(0)"], ["U(0)", "U(0)"])):
        G1, G2 = direct_sum(first), direct_sum(second)
        assert signature(G1) == signature(G2)
        assert genus_equal(G1, G2) is False
        assert genus_equal(G2, G1) is False
    assert genus_equal(direct_sum(["E8", "U(0)"]), direct_sum(["U(0)", "E8"])) is True


def _full_scan_smith_normal_form(matrix):
    """smith_normal_form scanning the whole block for its smallest entry."""
    a = [list(map(int, row)) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    def add_row(src, dst, k):
        for c in range(cols):
            a[dst][c] += k * a[src][c]
        for c in range(rows):
            U[dst][c] += k * U[src][c]

    def add_col(src, dst, k):
        for r in range(rows):
            a[r][dst] += k * a[r][src]
        for r in range(cols):
            V[r][dst] += k * V[r][src]

    t = 0
    while t < min(rows, cols):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t]:
                add_row(t, i, -(a[i][t] // a[t][t]))
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j]:
                add_col(t, j, -(a[t][j] // a[t][t]))
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t]:
                    offender = i
                    break
            if offender:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        if a[t][t] < 0:
            for c in range(cols):
                a[t][c] = -a[t][c]
            for c in range(rows):
                U[t][c] = -U[t][c]
        t += 1
    return a, U, V


def _dense_gram_of_columns(M, V, cols):
    n = len(M)
    MV = [[sum(M[r][c] * V[c][j] for c in range(n)) for j in cols] for r in range(n)]
    return [[sum(V[r][i] * MV[r][k] for r in range(n)) for k in range(len(cols))] for i in cols]


def _dense_discriminant_data(G):
    """discriminant_data on the full-scan Smith form and dense Gram products."""
    D, _U, V = _full_scan_smith_normal_form(G.entries)
    M = _dense_gram_of_columns(G.entries, V, [j for j in range(G.size) if D[j][j]])
    n = len(M)
    if n == 0:
        return DiscriminantGroup((), ())
    D, _U, V = _full_scan_smith_normal_form(M)
    cyclic = [i for i in range(n) if D[i][i] > 1]
    factors = tuple(D[i][i] for i in cyclic)
    W = _dense_gram_of_columns(M, V, cyclic)
    q_vals = tuple(Fraction(W[a][a], d * d) % 2 for a, d in enumerate(factors))
    b_vals = tuple(
        tuple(Fraction(W[a][b], da * db) % 1 for b, db in enumerate(factors))
        for a, da in enumerate(factors)
    )
    return DiscriminantGroup(factors, _scaled_form(factors, q_vals, b_vals))


SUMMANDS = (
    ["U"] + [f"U({k})" for k in range(5)] + [f"A{k}" for k in range(1, 6)]
    + [f"D{k}" for k in range(4, 8)] + ["E6", "E7", "E8"]
)


def test_integer_kernels_match_the_dense_references():
    # Seeded sums of up to five summands, radicals U(0) included: the same
    # Smith form (D, V), discriminant group and signature as the references.
    rng = random.Random(20)
    radicals = 0
    for _ in range(150):
        G = direct_sum([rng.choice(SUMMANDS) for _ in range(rng.randint(1, 5))])
        D, _U, V = _full_scan_smith_normal_form(G.entries)
        assert smith_normal_form(G.entries) == (D, V)
        assert discriminant_data(G) == _dense_discriminant_data(G)
        assert signature(G) == _reference_signature(G)
        radicals += sum(signature(G)) < G.size
    assert radicals > 10


def test_genus_equal_matches_the_fraction_search_on_odd_and_mixed_factors():
    # Sums of at most three summands with discriminant factors 3, 4 and 5,
    # grouped by signature and invariant factors so that each pair reaches
    # the search: every pair of two different sums in a group, and each sum
    # alone in its group against itself.  The second sum is shuffled.
    groups = _genus_groups(("A2", "A3", "A4", "U(3)", "U(4)", "U", "D5", "E6", "E8"), 2)
    pairs = [(a, b) for group in groups for a in group for b in group if a != b]
    pairs += [(a, a) for group in groups if len(group) == 1 for a in group]
    rng = random.Random(20)
    verdicts = {True: 0, False: 0}
    for a, b in pairs:
        b = list(b)
        rng.shuffle(b)
        G1, G2 = direct_sum(a), direct_sum(b)
        want, _checks = _reference_genus_equal(G1, G2)
        assert genus_equal(G1, G2) is want, (a, b)
        verdicts[want] += 1
    assert verdicts == {True: 200, False: 6}
