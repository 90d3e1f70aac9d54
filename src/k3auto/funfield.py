"""Arithmetic in the function field of a Weierstrass model.

Elements are kept in the normal form a + b*y with a, b rational functions in
(x, t): powers of y reduce through y^2 = x^3 + A(t) x + B(t), and y clears
from denominators by conjugate multiplication.  Surface maps store the images
of x, y, t in that normal form, so map equality is a finite comparison.

Polynomials reach the normal form one way: ``_reduce_y`` splits a polynomial
in x, y, t into even + odd y, and a quotient of two such splits is reduced
once, by the gcds of one division.  ``normalize`` does only that, and every
substitution (composition, the morphism test, the residual) goes through
``_substitute_cleared``, which evaluates a polynomial at images over cleared
denominators with no gcd.

The surface equation under a map, over cleared denominators, is built once
per map and kept on it (``_ClearedEquation``): the morphism verdict, the
ambient scalar and the residual's coefficients A(w), B(w) all read that one
record.

A translation P -> P + T is written down by the chord law in closed form over
cleared denominators (``translation_map``), with no gcd in x.
"""
from __future__ import annotations

from math import gcd, lcm

from .cyclotomic import CycloNum, MixedFieldsError, power
from .errors import InputError, VerificationFailure
from .polyring import MultiPoly, RationalFunction, multi_gcd
from .surface import WeierstrassModel


class ZeroDenominatorOnSurfaceError(ZeroDivisionError):
    """A denominator reduces to zero in the function field."""


class NotAMorphismError(VerificationFailure):
    """The candidate map does not preserve the surface equation.

    ``residual`` is the nonzero morphism_residual that showed it, when the
    failure came from that check.
    """

    def __init__(self, message: str, residual: FieldElement | None = None):
        super().__init__(message)
        self.residual = residual


class NotConstantFactorError(VerificationFailure):
    """The 2-form factor failed to reduce to a constant."""


class OrderBoundExceededError(VerificationFailure):
    """No power of the map reached the identity within the bound."""


class FieldElement:
    """a + b*y on a fixed model, with a and b rational in (x, t)."""

    __slots__ = ("model", "a", "b")

    def __init__(self, model: WeierstrassModel, a: RationalFunction, b: RationalFunction):
        self.model = model
        self.a = a
        self.b = b

    @classmethod
    def const(cls, model, value) -> "FieldElement":
        field = model.field
        return cls(
            model,
            RationalFunction.constant(field, value),
            RationalFunction.constant(field, 0),
        )

    @classmethod
    def coordinate(cls, model, var: str) -> "FieldElement":
        field = model.field
        zero = RationalFunction.constant(field, 0)
        if var == "y":
            return cls(model, zero, RationalFunction.constant(field, 1))
        return cls(model, RationalFunction.gen(field, var), zero)

    @classmethod
    def from_ratfunc(cls, model, r: RationalFunction) -> "FieldElement":
        if not r.uses_only("x", "t"):
            raise ValueError("component must be free of y; use normalize instead")
        return cls(model, r, RationalFunction.constant(model.field, 0))

    def _match(self, other) -> "FieldElement":
        # A scalar becomes a constant; anything else raises TypeError.
        if isinstance(other, FieldElement):
            if other.model != self.model:
                raise ValueError("elements live on different models")
            return other
        return FieldElement.const(self.model, other)

    def __add__(self, other):
        other = self._match(other)
        return FieldElement(self.model, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._match(other)
        return FieldElement(self.model, self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return FieldElement(self.model, -self.a, -self.b)

    def __mul__(self, other):
        other = self._match(other)
        a, b, c, d = self.a, self.b, other.a, other.b
        if d.is_zero():
            return FieldElement(self.model, a * c, b * c)
        if b.is_zero():
            return FieldElement(self.model, a * c, a * d)
        return FieldElement(self.model, a * c + b * d * self.model.rhs, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # (a + b y) / (c + d y) = ((ac - bd rhs) + (bc - ad) y) / (c^2 - d^2 rhs);
        # the norm is y-free and vanishes only for the zero element since rhs
        # is not a square.
        other = self._match(other)
        if other.is_zero():
            raise ZeroDenominatorOnSurfaceError("element is zero in the function field")
        a, b, c, d = self.a, self.b, other.a, other.b
        if d.is_zero():
            return FieldElement(self.model, a / c, b / c)
        rhs = self.model.rhs
        norm = c * c - d * d * rhs
        return FieldElement(self.model, (a * c - b * d * rhs) / norm, (b * c - a * d) / norm)

    def __rtruediv__(self, other):
        return FieldElement.const(self.model, other) / self

    def inverse(self) -> "FieldElement":
        return 1 / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, FieldElement.const(self.model, 1))

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            try:
                other = self._match(other)
            except (MixedFieldsError, TypeError):
                return False
        return other.model == self.model and other.a == self.a and other.b == self.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"FieldElement({self})"

    def __str__(self):
        if self.b.is_zero():
            return str(self.a)
        if self.a.is_zero():
            return f"({self.b})*y"
        return f"({self.a}) + ({self.b})*y"


class SurfaceMap:
    """A candidate automorphism: images of (x, y, t) over a fixed model.

    The t image is a rational function of t alone, so the map respects the
    elliptic fibration.  The private slot ``_equation`` holds the map's
    cleared surface equation (``_ClearedEquation``) once one of
    ``verify_morphism``, ``omega_factor``, ``ambient_scalar`` or
    ``morphism_residual`` has built it; it lives and dies with the map,
    whose images never change.
    """

    __slots__ = ("model", "u", "v", "w", "_equation")

    def __init__(self, model, u: FieldElement, v: FieldElement, w: RationalFunction):
        if not w.uses_only("t"):
            raise ValueError("the base image must be a rational function of t alone")
        self.model = model
        self.u = u
        self.v = v
        self.w = w
        self._equation = None

    @classmethod
    def identity(cls, model) -> "SurfaceMap":
        return cls(
            model,
            FieldElement.coordinate(model, "x"),
            FieldElement.coordinate(model, "y"),
            RationalFunction.gen(model.field, "t"),
        )

    @classmethod
    def scaling(cls, model, cx: CycloNum, cy: CycloNum, ct: CycloNum) -> "SurfaceMap":
        """(x, y, t) -> (cx x, cy y, ct t)."""
        return cls(
            model,
            FieldElement.coordinate(model, "x") * cx,
            FieldElement.coordinate(model, "y") * cy,
            RationalFunction.gen(model.field, "t") * ct,
        )

    @classmethod
    def from_expressions(cls, model, ex, ey, et) -> "SurfaceMap":
        """Build from parsed expressions (MultiPoly or RationalFunction)."""
        u = normalize(ex, model)
        v = normalize(ey, model)
        w = et if isinstance(et, RationalFunction) else RationalFunction(et)
        return cls(model, u, v, w)

    def is_identity(self) -> bool:
        # x -> x, y -> y and t -> t, component by component; denominators
        # are monic, so a polynomial part has denominator 1.
        field = self.model.field
        u, v, w = self.u, self.v, self.w
        return (
            u.b.is_zero()
            and v.a.is_zero()
            and u.a.is_polynomial()
            and u.a.num == MultiPoly.gen(field, "x")
            and v.b.is_polynomial()
            and v.b.num == MultiPoly.one(field)
            and w.is_polynomial()
            and w.num == MultiPoly.gen(field, "t")
        )

    def is_diagonal(self) -> bool:
        """Is the map (x, y, t) -> (a x, b y, w) with a and b rational in t?

        Read off the exponents alone: u is free of y with numerator x times
        a polynomial in t, and v is y times a quotient of polynomials in t.
        """
        u, v = self.u, self.v
        return (
            u.b.is_zero()
            and v.a.is_zero()
            and all(e[0] == 1 and not e[1] for e in u.a.num.terms)
            and not any(e[0] or e[1] for p in (u.a.den, v.b.num, v.b.den) for e in p.terms)
        )

    def __eq__(self, other):
        return (
            isinstance(other, SurfaceMap)
            and other.model == self.model
            and other.u == self.u
            and other.v == self.v
            and other.w == self.w
        )

    def __hash__(self):
        return hash((self.u, self.v, self.w))

    def __repr__(self):
        return f"SurfaceMap(x -> {self.u}, y -> {self.v}, t -> {self.w})"


def _by(p: MultiPoly, den: MultiPoly) -> MultiPoly:
    # p * den for a denominator: monic, so a constant den is 1, and then the
    # product is p itself.
    return p if den.is_constant() else p * den


def _cleared_parts(e: FieldElement) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    # (P_a, P_b, D) with e = (P_a + P_b y) / D: D is the product of the
    # denominators of a and b, or one of them when they are equal or the
    # other is 1; no gcd.
    a, b = e.a, e.b
    if b.is_zero() or a.den == b.den:
        return a.num, b.num, a.den
    if a.den.is_constant():
        return a.num * b.den, b.num, b.den
    if b.den.is_constant():
        return a.num, b.num * a.den, a.den
    return a.num * b.den, b.num * a.den, a.den * b.den


def _cleared(e: FieldElement) -> tuple[MultiPoly, MultiPoly]:
    # (P, D) with e = P / D and P = P_a + P_b y, from _cleared_parts.
    pa, pb, den = _cleared_parts(e)
    return (pa if pb.is_zero() else pa + pb * MultiPoly.gen(pa.field, "y")), den


def _reduce_y(p: MultiPoly, rhs: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    # (even, odd) with p = even + odd y on the surface, by y^2 -> rhs.
    if not any(e[1] for e in p.terms):
        return p, MultiPoly.zero(p.field)
    parts = [MultiPoly.zero(p.field), MultiPoly.zero(p.field)]
    for k, c in p.coeffs_in("y").items():
        parts[k % 2] = parts[k % 2] + (c * rhs ** (k // 2) if k > 1 else c)
    return parts[0], parts[1]


def _split(p: MultiPoly, model: WeierstrassModel) -> FieldElement:
    # The polynomial p in x, y, t as the element even + odd y (``_reduce_y``).
    one = MultiPoly.one(p.field)
    return FieldElement(
        model, *(RationalFunction._coprime(q, one) for q in _reduce_y(p, model.rhs.num))
    )


def normalize(expr, model: WeierstrassModel) -> FieldElement:
    """Reduce a rational expression in x, y, t to the a + b*y normal form.

    Numerator and denominator are split by y^2 -> x^3 + A x + B into
    polynomials even + odd y, and divided once; only that division takes
    gcds.
    """
    if isinstance(expr, MultiPoly):
        return _split(expr, model)
    den = _split(expr.den, model)
    if den.is_zero():
        raise ZeroDenominatorOnSurfaceError("denominator is zero on the surface")
    return _split(expr.num, model) / den


def _grown(pows: list, k: int, rhs: MultiPoly | None = None) -> MultiPoly:
    # pows[k] for pows = [1, p, p^2, ...], grown in place as far as k.  With
    # rhs given, p has a y part, and each new power folds y^2 into rhs, so
    # every power has degree at most 1 in y.
    while len(pows) <= k:
        power = pows[-1] * pows[1]
        if rhs is not None:
            even, odd = _reduce_y(power, rhs)
            power = even + odd * MultiPoly.gen(power.field, "y")
        pows.append(power)
    return pows[k]


def _cleared_image(num: MultiPoly, den: MultiPoly, rhs: MultiPoly | None = None) -> tuple:
    # The image num / den of one variable, for _substitute_cleared: the
    # power lists of num and den (None for den, which is monic, when it is
    # 1), and rhs when num has a y part.
    one = MultiPoly.one(num.field)
    return [one, num], (None if den.is_constant() else [one, den]), rhs


def _cleared_power(image, k: int, d: int) -> MultiPoly | None:
    # N^k D^(d - k) for the image N / D of _cleared_image, or None for 1.
    nums, dens, rhs = image
    out = _grown(nums, k, rhs) if k else None
    if dens is not None and d > k:
        den = _grown(dens, d - k)
        out = den if out is None else out * den
    return out


def _substitute_cleared(p: MultiPoly, x_image, t_image, dx: int, dt: int) -> MultiPoly:
    """p(N_x / D_x, N_t / D_t) * D_x^dx * D_t^dt for p in x and t.

    The images are in the form of ``_cleared_image``; x_image may be None
    when p is free of x, and dx, dt are at least p's degrees.  The result
    is a polynomial formed with no gcd: each coefficient of a power x^i,
    a polynomial in t, is substituted term by term as
    c * N_t^k * D_t^(dt - k) and then multiplied by N_x^i * D_x^(dx - i).
    """
    acc = None
    for i, coeff in p.coeffs_in("x").items():
        part = None
        for (_, _, k), c in coeff.terms.items():
            term = _cleared_power(t_image, k, dt)
            term = MultiPoly.constant(p.field, c) if term is None else term * c
            part = term if part is None else part + term
        factor = None if x_image is None else _cleared_power(x_image, i, dx)
        if factor is not None:
            part = part * factor
        acc = part if acc is None else acc + part
    return MultiPoly.zero(p.field) if acc is None else acc


def compose(m1: SurfaceMap, m2: SurfaceMap) -> SurfaceMap:
    """The map m1 after m2: substitute m2's images into m1's components.

    Each component of m1, u and v and then w, is a fraction
    (P_a + P_b y) / D of polynomials in x and t (``_cleared_parts``).
    Substituted at m2's cleared images x = U / D_u and t = w_n / w_d, and
    multiplied through by D_u and w_d to common degrees
    (``_substitute_cleared``), these give polynomials P_a', P_b', D' with
    the component's image (P_a' + P_b' v) / D'; y^2 folds into rhs as
    powers are built, and a y part of D' is cleared by its conjugate.  When
    the image is a polynomial a + b y, so is P_b' v, and both come out of
    exact divisions (``MultiPoly.exact_div``) with no gcd; a polynomial is
    already reduced.  Otherwise a division fails, and that component and
    the ones after it are built part by part: each rational part r of the
    component (a, and b when it is nonzero) has r.num and r.den substituted
    the same way to r's own degrees, each split by y^2 -> rhs into
    polynomials even + odd y, and one division of the two takes the only
    gcds; the image is image(a) + image(b) v.
    """
    if m1.model != m2.model:
        raise ValueError("maps live on different models")
    model = m1.model
    field = model.field
    rhs = model.rhs.num
    one, zero = MultiPoly.one(field), MultiPoly.zero(field)
    U, Du = _cleared(m2.u)
    x_image = _cleared_image(U, Du, None if m2.u.b.is_zero() else rhs)
    t_image = _cleared_image(m2.w.num, m2.w.den)

    def polynomial(e: FieldElement) -> FieldElement | None:
        # e's image when it is a polynomial a + b y, else None.  P_b' v is
        # a polynomial whenever the image is one, so it comes first.
        pa, pb, den = _cleared_parts(e)
        dx, dt = (max(p.degree_in(var) for p in (pa, pb, den)) for var in ("x", "t"))

        def at(p: MultiPoly) -> MultiPoly:
            return _substitute_cleared(p, x_image, t_image, dx, dt)

        try:
            if pb.is_zero():
                n = (zero, zero)
            elif m2.u.b.is_zero():
                # P_b' is free of y, and v_a and v_b are reduced, so P_b' v_a
                # and P_b' v_b are polynomials exactly when P_b' is a
                # multiple of their denominators.
                pb = at(pb)
                n = [zero if r.is_zero() else pb.exact_div(r.den) * r.num
                     for r in (m2.v.a, m2.v.b)]
            else:
                V, Dv = _cleared(m2.v)
                n = [q.exact_div(Dv) for q in _reduce_y(at(pb) * V, rhs)]
            den = at(den)
            if den.is_zero():
                return None  # image() below raises ZeroDenominatorOnSurfaceError
            n0, n1 = (p + q for p, q in zip(n, _reduce_y(at(pa), rhs)))
            e0, e1 = _reduce_y(den, rhs)
            if not e1.is_zero():
                n0, n1 = n0 * e0 - n1 * e1 * rhs, n1 * e0 - n0 * e1
                e0 = e0 * e0 - e1 * e1 * rhs
            a, b = n0.exact_div(e0), n1.exact_div(e0)
        except ArithmeticError:
            return None
        return FieldElement(model, RationalFunction._coprime(a, one), RationalFunction._coprime(b, one))

    def image(r: RationalFunction) -> FieldElement:
        # r at m2's images: numerator over denominator, divided once.
        if r.is_constant():
            return FieldElement.const(model, r.constant_value())
        dx, dt = (max(r.num.degree_in(var), r.den.degree_in(var)) for var in ("x", "t"))
        num, den = (
            _split(_substitute_cleared(p, x_image, t_image, dx, dt), model)
            for p in (r.num, r.den)
        )
        return num / den

    out, by_parts = [], False
    for e in (m1.u, m1.v, FieldElement(model, m1.w, RationalFunction.constant(field, 0))):
        got = None if by_parts else polynomial(e)
        if got is None:
            by_parts = True
            got = image(e.a) if e.b.is_zero() else image(e.a) + image(e.b) * m2.v
        out.append(got)
    u, v, w = out
    return SurfaceMap(model, u, v, w.a)


class _ClearedEquation:
    """The surface equation under a map, over cleared denominators.

    W = den(w)^d for d = max(deg A, deg B), with Aw = W A(w) and
    Bw = W B(w); N is the numerator of ``verify_morphism``, unreduced, and
    holds says whether N reduces to 0 by y^2 -> rhs.
    """

    __slots__ = ("W", "Aw", "Bw", "N", "holds")

    def __init__(self, W: MultiPoly, Aw: MultiPoly, Bw: MultiPoly, N: MultiPoly, holds: bool):
        self.W, self.Aw, self.Bw, self.N, self.holds = W, Aw, Bw, N, holds


def _cleared_equation(m: SurfaceMap) -> _ClearedEquation:
    # The record of m's cleared equation, every part formed with no gcd.
    model = m.model
    U, Du = _cleared(m.u)
    V, Dv = _cleared(m.v)
    d = max(model.A.degree_in("t"), model.B.degree_in("t"))
    image = _cleared_image(m.w.num, m.w.den)
    W = _cleared_power(image, 0, d)
    W = MultiPoly.one(model.field) if W is None else W
    Aw, Bw = (_substitute_cleared(p, None, image, 0, d) for p in (model.A, model.B))
    Du2, Dv2 = _by(Du, Du), _by(Dv, Dv)
    D2 = Dv2 if Du2.is_constant() else _by(Du2, Dv2)
    lhs = _by(_by(V * V, Du2), Du) - _by(U * U * U, Dv2)
    N = _by(lhs, W) - _by(Aw * U + _by(Bw, Du), D2)
    even, odd = _reduce_y(N, model.rhs.num)
    return _ClearedEquation(W, Aw, Bw, N, even.is_zero() and odd.is_zero())


def _equation(m: SurfaceMap) -> _ClearedEquation:
    # m's cleared equation, built on the first call and kept in its slot.
    if m._equation is None:
        m._equation = _cleared_equation(m)
    return m._equation


def morphism_residual(m: SurfaceMap) -> FieldElement:
    """The defect v^2 - u^3 - A(w) u - B(w); zero exactly for morphisms.

    A(w) and B(w) are W A(w) / W and W B(w) / W, read from m's cleared
    equation (``_equation``); the defect is then formed in reduced
    FieldElement arithmetic, so it prints in normal form.
    """
    model = m.model
    eq = _equation(m)
    Aw, Bw = (FieldElement.from_ratfunc(model, RationalFunction(p, eq.W)) for p in (eq.Aw, eq.Bw))
    return m.v * m.v - m.u * m.u * m.u - Aw * m.u - Bw


def verify_morphism(m: SurfaceMap) -> bool:
    """Does the map send the surface to itself: v^2 = u^3 + A(w) u + B(w)?

    Decided by one polynomial identity with no gcd.  Over cleared
    denominators u = U / D_u and v = V / D_v (``_cleared``), w = w_n / w_d,
    W = w_d^d with d = max(deg A, deg B), and A_w, B_w the polynomials
    W A(w), W B(w), the equation times D_u^3 D_v^2 W is N = 0 for

        N = W (V^2 D_u^3 - U^3 D_v^2) - D_u^2 D_v^2 (A_w U + B_w D_u).

    N reduces by y^2 -> x^3 + A x + B to N_0 + N_1 y with N_0, N_1 free of
    y, and the map is a morphism exactly when N_0 = N_1 = 0: every cleared
    factor is a nonzero polynomial, hence a unit of the function field, and
    y is not in Q(zeta)(x, t), so 1 and y are independent over it.  The
    identity is decided once per map object: the verdict is kept with N in
    the map's cleared equation (``_equation``), and later calls read it.
    """
    return _equation(m).holds


def ambient_scalar(m: SurfaceMap) -> CycloNum | None:
    """c with F(u, v, w) = c * F as ambient polynomials, if the map is
    polynomial and such a scalar exists.

    Every denominator of a polynomial map is 1, so the numerator N of the
    map's cleared equation (``_equation``) is F(u, v, w) for
    F = y^2 - rhs, without reduction.
    """
    if not all(r.is_polynomial() for r in (m.w, m.u.a, m.u.b, m.v.a, m.v.b)):
        return None
    image = _equation(m).N
    if image.is_zero():
        return None
    model = m.model
    F = MultiPoly.gen(model.field, "y") ** 2 - model.rhs.num
    # Proportionality: image == c * F with a single scalar c.
    c = None
    if set(image.terms) != set(F.terms):
        return None
    for e, coeff in F.terms.items():
        ratio = image.terms[e] / coeff
        if c is None:
            c = ratio
        elif ratio != c:
            return None
    return c


def omega_factor(m: SurfaceMap) -> CycloNum:
    """The constant c with pullback(omega) = c * omega for omega = dx^dt / y.

    dy is eliminated through 2 y dy = (3 x^2 + A) dx + (A' x + B') dt, so
    with u = a + b y and rhs = x^3 + A x + B the pulled-back form is
    L / v * omega for

        L = w' (b_x rhs + b (3 x^2 + A) / 2) + w' a_x y.

    The factor is the constant c exactly when L = c v, which holds part by
    part in the basis 1, y.  Each part of L and of v is a quotient of
    polynomials, formed with no gcd; the same parts compare cross-multiplied
    by their nonzero denominators, c is the ratio of the lex-leading
    coefficients, and the full identity is checked, so the verdict is
    exact.  The morphism is checked first, by ``verify_morphism``, which
    after an earlier check of the same map object only reads the kept
    verdict.  A map that is not a morphism raises NotAMorphismError with its
    residual; a map whose image is a curve (y goes to 0, or L = 0) raises it
    without one; any other L not in Q(zeta) v raises NotConstantFactorError.
    """
    if not verify_morphism(m):
        raise NotAMorphismError(
            "omega factor of a map that is not a morphism", morphism_residual(m)
        )
    if m.v.is_zero():
        raise NotAMorphismError("the image of y is 0")
    rhs = m.model.rhs.num
    a, b, w, v = m.u.a, m.u.b, m.w, m.v
    # w' = wn / wd, a_x = ax / a.den^2 and b_x = bx / b.den^2.
    wn = _by(w.num.derivative("t"), w.den) - w.num * w.den.derivative("t")
    wd = _by(w.den, w.den)
    ax = _by(a.num.derivative("x"), a.den) - a.num * a.den.derivative("x")
    bx = _by(b.num.derivative("x"), b.den) - b.num * b.den.derivative("x")
    # Each part as (numerator of L * denominator of v, numerator of v *
    # denominator of L): equal exactly when that part of L is c times v's.
    La = wn * (bx * rhs * 2 + _by(b.num, b.den) * rhs.derivative("x"))
    Lb = wn * ax
    parts = (
        (_by(La, v.a.den), _by(_by(_by(v.a.num, wd), b.den), b.den) * 2),
        (_by(Lb, v.b.den), _by(_by(_by(v.b.num, wd), a.den), a.den)),
    )
    if all(lhs.is_zero() for lhs, _ in parts):
        raise NotAMorphismError("the pulled-back 2-form is 0")
    c = next(
        (lhs.leading_coeff_lex() / rhs.leading_coeff_lex()
         for lhs, rhs in parts if not (lhs.is_zero() or rhs.is_zero())),
        None,
    )
    if c is None or any(lhs != rhs * c for lhs, rhs in parts):
        raise NotConstantFactorError("2-form factor did not reduce to a constant")
    return c


# The largest order bound map_order accepts.  The base order costs one 2x2
# matrix step per unit of the bound, so a larger bound would let a map of
# infinite order such as t -> t + 1 run for minutes.
MAX_ORDER = 4096


def check_order_bound(max_order: int) -> None:
    """Raise InputError unless 0 <= max_order <= MAX_ORDER."""
    if max_order < 0:
        raise InputError(f"max_order {max_order} is below 0")
    if max_order > MAX_ORDER:
        raise InputError(f"max_order {max_order} exceeds the bound {MAX_ORDER}")


def _mobius_order(w: RationalFunction, max_order: int) -> int:
    """Least e <= max_order with w composed with itself e times equal to t.

    Only a Moebius map w = (a t + b) / (c t + d) can have finite order, and
    its e-th iterate is t exactly when the matrix [[a, b], [c, d]] raised to
    e is scalar.

    >>> from k3auto.cyclotomic import cyclotomic_field
    >>> F = cyclotomic_field(16)
    >>> t = RationalFunction.gen(F, "t")
    >>> _mobius_order(t * F.zeta(4), 64), _mobius_order(1 / t, 64)
    (4, 2)
    >>> _mobius_order(t + 1, 64)
    Traceback (most recent call last):
    ...
    k3auto.funfield.OrderBoundExceededError: order exceeds 64
    >>> _mobius_order(t * t, 64)
    Traceback (most recent call last):
    ...
    k3auto.funfield.OrderBoundExceededError: order exceeds 64
    """
    exceeded = OrderBoundExceededError(f"order exceeds {max_order}")
    num, den = w.num, w.den
    if max(num.degree_in("t"), den.degree_in("t")) != 1:
        raise exceeded
    zero = w.field.zero()
    a, b = (num.terms.get((0, 0, k), zero) for k in (1, 0))
    c, d = (den.terms.get((0, 0, k), zero) for k in (1, 0))
    p, q, r, s = a, b, c, d
    for e in range(1, max_order + 1):
        if q.is_zero() and r.is_zero() and p == s:
            return e
        p, q, r, s = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
    raise exceeded


def _diagonal_order(m: SurfaceMap, e: int, limit: int) -> int | None:
    """The order of the diagonal map m (``SurfaceMap.is_diagonal``) if it is
    at most limit, else None; e is the order of m's base image w.

    The powers of m = (a x, b y, w) are (a_k x, b_k y, w^k) with a_k the
    product of a(w^i) over i < k, and b_k alike.  So m^e scales x by a_e
    and y by b_e and fixes t, m^(e j) scales them by a_e^j and b_e^j, and
    the order is e times the lcm of the orders of a_e and b_e when both are
    constant roots of unity, and infinite otherwise.  The products are
    formed over cleared denominators with no gcd; a root of unity of
    Q(zeta_n) has order at most 2 n.
    """
    field = m.model.field
    one = MultiPoly.one(field)
    w = m.w
    # (numerator, denominator) of a and of b, and of their products.
    parts = ((m.u.a.num.coeffs_in("x").get(1, MultiPoly.zero(field)), m.u.a.den),
             (m.v.b.num, m.v.b.den))
    products = [(one, one), (one, one)]
    iterate = RationalFunction.gen(field, "t")
    for i in range(e):
        if i:  # w^i = w(w^(i - 1)), a Moebius map, so num and den are coprime
            iterate = RationalFunction._coprime(
                *(_substitute_cleared(p, None, image, 0, 1) for p in (w.num, w.den))
            )
        image = _cleared_image(iterate.num, iterate.den)
        for k, part in enumerate(parts):
            d = max(p.degree_in("t") for p in part)
            products[k] = tuple(
                acc * _substitute_cleared(p, None, image, 0, d)
                for acc, p in zip(products[k], part)
            )
    bound = limit // e
    order = 1
    for num, den in products:
        if num.is_zero():
            return None
        c = num.leading_coeff_lex() / den.leading_coeff_lex()
        if num != den * c:
            return None
        k = c.multiplicative_order(min(bound, 2 * field.order))
        if k is None:
            return None
        order = lcm(order, k)
    return e * order if order <= bound else None


def map_order(m: SurfaceMap, max_order: int = 64) -> int:
    """Least k <= max_order with m^k the identity; 0 <= max_order <= MAX_ORDER.

    The base order e comes first, from w alone (``_mobius_order``): the
    t-image of m^k is w iterated k times, so e divides the order.  Then
    M = m^e is formed by repeated squaring, and the order is e j for the
    least j with M^j the identity.  The walk stops at the first diagonal
    power of m it forms (``SurfaceMap.is_diagonal``), whose order has a
    closed form (``_diagonal_order``).  Diagonal maps form a group under
    composition, so when m has finite order its diagonal powers are the
    multiples of the least one, k0, and the order is k0 times the order of
    m^k0; when m has infinite order, so has every power.  Along the squares
    m^(2^i), the first diagonal one is the least diagonal power; along the
    powers M^j, the first diagonal M^j is m^(e j) with e j the lcm of k0
    and e, which divides the order all the same.

    It does not refute by the 2-form factor c, though m^k = id forces
    c^k = 1: callers check that first, as check-map does, or a map of
    infinite order pays for every composition up to max_order.
    """
    check_order_bound(max_order)
    e = _mobius_order(m.w, max_order)

    def closed_form(power: SurfaceMap, k: int) -> int:
        # The order of m, from its diagonal power m^k with k dividing it.
        order = _diagonal_order(power, e // gcd(e, k), max_order // k)
        if order is None:
            raise OrderBoundExceededError(f"order exceeds {max_order}")
        return k * order

    # M = m^e by square-and-multiply on the squares m^(2^i).
    square, step = m, None
    for i in range(e.bit_length()):
        if i:
            square = compose(square, square)
        if square.is_diagonal():
            return closed_form(square, 1 << i)
        if e >> i & 1:
            step = square if step is None else compose(step, square)
    power, j = step, 1
    while not power.is_identity():
        if power.is_diagonal():
            return closed_form(power, e * j)
        if e * (j + 1) > max_order:
            raise OrderBoundExceededError(f"order exceeds {max_order}")
        power, j = compose(step, power), j + 1
    return e * j


class Section:
    """A section of the fibration: rational x(t), y(t), or the zero section."""

    __slots__ = ("x", "y")

    def __init__(self, x: RationalFunction | None, y: RationalFunction | None):
        if (x is None) != (y is None):
            raise ValueError("both coordinates or neither")
        if x is not None and not (x.uses_only("t") and y.uses_only("t")):
            raise ValueError("section coordinates are functions of t alone")
        self.x = x
        self.y = y

    @classmethod
    def zero(cls) -> "Section":
        return cls(None, None)

    @property
    def is_zero_section(self) -> bool:
        return self.x is None

    def on_model(self, model: WeierstrassModel) -> bool:
        if self.is_zero_section:
            return True
        lhs = self.y * self.y
        rhs = (
            self.x ** 3
            + RationalFunction(model.A) * self.x
            + RationalFunction(model.B)
        )
        return lhs == rhs

    def __eq__(self, other):
        return (
            isinstance(other, Section)
            and other.x == self.x
            and other.y == self.y
        )

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        if self.is_zero_section:
            return "Section(O)"
        return f"Section({self.x}, {self.y})"


def negate(p: Section) -> Section:
    if p.is_zero_section:
        return p
    return Section(p.x, -p.y)


def add_points(model: WeierstrassModel, p: Section, q: Section) -> Section:
    """Chord-tangent addition over Q(zeta)(t), with the zero section as O."""
    if p.is_zero_section:
        return q
    if q.is_zero_section:
        return p
    if p.x == q.x:
        if p.y == -q.y:
            return Section.zero()
        # Doubling (p == q with y != 0).
        slope = (p.x * p.x * 3 + RationalFunction(model.A)) / (p.y * 2)
    else:
        slope = (q.y - p.y) / (q.x - p.x)
    x3 = slope * slope - p.x - q.x
    y3 = slope * (p.x - x3) - p.y
    return Section(x3, y3)


def _chord_part(num: MultiPoly, t_den: MultiPoly, l_powers: list, k: int) -> RationalFunction:
    # num / (t_den L^k) reduced, for t_den monic in t alone and
    # l_powers = [1, L, L^2, L^3] with L = q x - p, gcd(p, q) = 1.
    if num.is_zero():
        return RationalFunction._coprime(num, t_den)  # _store makes it 0/1
    while k:
        try:
            num = num.exact_div(l_powers[1])
        except ArithmeticError:
            break
        k -= 1
    if not t_den.is_constant():
        # A factor of t_den divides num exactly when it divides every
        # x-coefficient of num, so the gcd is taken in t alone.
        g = t_den
        for coeff in num.coeffs_in("x").values():
            g = multi_gcd(g, coeff)
            if g.is_constant():
                break
        if not g.is_constant():
            num, t_den = num.exact_div(g), t_den.exact_div(g)
    return RationalFunction._coprime(num, _by(l_powers[k], t_den))


def translation_map(model: WeierstrassModel, t_section: Section) -> SurfaceMap:
    """The fiberwise map P -> P + T on the generic fiber, with t fixed.

    By the chord law (Silverman, AEC III.2), over cleared denominators.  With
    T = (p/q, r/s) reduced and monic in t, L = q x - p and
    R = x^3 + A x + B, the images u = u_a + u_b y and v = v_a + v_b y are

        u_a = [q^3 s^2 R + q^3 r^2 - s^2 (q x + p) L^2] / (q s^2 L^2)
        u_b = -2 r q^2 / (s L^2)
        v_a = r [3 q^3 s^2 R + q^3 r^2 - s^2 (2 q x + p) L^2] / (s^3 L^3)
        v_b = [s^2 (q x + 2 p) L^2 - q^3 s^2 R - 3 q^3 r^2] / (s^2 L^3).

    They come from the slope (y - r/s) q / L with y^2 -> R, and do not use
    T's own equation, so a section off the model gets the same images as
    chord arithmetic in the function field would give it.  Each part is
    reduced without a gcd in x: L is linear in x and primitive, hence
    irreducible, so a common factor of a numerator N and its denominator is
    a power of L or a factor of the part of the denominator in t alone.
    N is divided by L while L divides it, which happens only when N vanishes
    at x = p/q (for u_a and v_b, when r = 0 on the model).  Then one gcd,
    in t alone, of the denominator's factor in t and the x-coefficients of N
    cancels the rest; it is skipped when that factor is 1, as it is for
    q = s = 1.  A zero part is 0/1, and the zero section gives the identity.

    >>> from k3auto.fixtures import load_bundle
    >>> bundle = load_bundle()
    >>> zero = RationalFunction.constant(bundle.model.field, 0)
    >>> translation_map(bundle.model, Section(zero, zero)) == bundle.maps["tau"]
    True
    """
    if t_section.is_zero_section:
        return SurfaceMap.identity(model)
    field = model.field
    p, q = t_section.x.num, t_section.x.den
    r, s = t_section.y.num, t_section.y.den
    qx = _by(MultiPoly.gen(field, "x"), q)
    L = qx - p
    L2 = L * L
    l_powers = [MultiPoly.one(field), L, L2, L2 * L]
    q2 = _by(q, q)
    q3 = _by(q2, q)
    s2 = _by(s, s)
    s2L2 = _by(L2, s2)
    xS, pS = qx * s2L2, p * s2L2  # s^2 q x L^2 and s^2 p L^2
    R = _by(_by(model.rhs.num, s2), q3)  # q^3 s^2 R
    r2 = _by(r * r, q3)  # q^3 r^2
    u = FieldElement(
        model,
        _chord_part(R + r2 - xS - pS, _by(q, s2), l_powers, 2),
        _chord_part(r * q2 * -2, s, l_powers, 2),
    )
    v = FieldElement(
        model,
        _chord_part(r * (R * 3 + r2 - xS * 2 - pS), _by(s2, s), l_powers, 3),
        _chord_part(xS + pS * 2 - R - r2 * 3, s2, l_powers, 3),
    )
    return SurfaceMap(model, u, v, RationalFunction.gen(field, "t"))
