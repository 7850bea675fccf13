"""Independent reference implementations that the tests compare the library
against; `ellcode` never imports this module.

The subset-sum references count k-subsets by group sum: by brute force up
to n around 16, and by the counting DP (`subset_sum_counts`) on inputs too
large for that.  The library's MDS witness only asks whether a sum is
reachable, so the support of these counts is what it must reproduce.

The singularity references are the b2/b4/b6/b8 discriminant on
`FieldElement`s and a brute-force search of F_q^2 for a point where the
Weierstrass equation and both its partials vanish.

The function-field reference is symbolic: divisors, rational functions
(a(x) + b(x) y) / c(x) in canonical form, their valuations at every
rational point, and the basis functions of an `RRBasis` as such functions,
with `validate_rr_basis` checking div f + G >= 0 for each.  Valuations at
affine points use the conjugate-norm technique: for g = a + b y the product
with its involution image is a polynomial in x alone, whose root
multiplicity at x(P) settles v_P(g) exactly, with no local power-series
machinery.  It rests on the polynomial helpers over GF(q) below, and
`funcspace.evaluate` evaluates its functions at `Point`s.  `rr_basis_rows`
evaluates the basis at encoded points directly: the reference for the
library's closed forms, which never form it."""

from __future__ import annotations

from functools import reduce
from itertools import combinations, zip_longest
from math import lcm
from typing import Mapping, Optional, Sequence

from ellcode.curve import Curve, CurveError, Point, INFINITY
from ellcode.funcspace import FunctionError, RRBasis, _u_values
from ellcode.gf import FieldElement, Poly, poly_eval, poly_mul, poly_trim


def subset_sum_counts_exhaustive(coords: Sequence[tuple[int, int]], k: int,
                                 d1: int, d2: int) -> list[int]:
    """Brute-force oracle for the DP, usable up to n around 16."""
    size = d1 * d2
    out = [0] * size
    for combo in combinations(coords, k):
        si = sum(c[0] for c in combo) % d1
        sj = sum(c[1] for c in combo) % d2
        out[si * d2 + sj] += 1
    return out


def subset_sum_counts(coords: Sequence[tuple[int, int]], k: int,
                      d1: int, d2: int) -> list[int]:
    """Exact counts of k-subsets by group sum, flat-indexed i*d2 + j.

    The DP state is (prefix, subset size, group element); adding one more
    point shifts the previous size's table by the point's coordinates,
    which on the flat layout is a 2-D cyclic rotation done with slices.
    """
    n = len(coords)
    if not 0 <= k <= n:
        return [0] * (d1 * d2)
    size = d1 * d2
    dp = [[0] * size for _ in range(k + 1)]
    dp[0][0] = 1
    for idx, (gi, gj) in enumerate(coords):
        gi %= d1
        gj %= d2
        hi = min(k, idx + 1)
        lo = max(1, k - (n - idx - 1))
        for s in range(hi, lo - 1, -1):
            prev = dp[s - 1]
            if d1 == 1:
                shifted = (prev[-gj:] + prev[:-gj]) if gj else prev
            else:
                shifted = []
                for i in range(d1):
                    base = ((i - gi) % d1) * d2
                    row = prev[base:base + d2]
                    if gj:
                        row = row[-gj:] + row[:-gj]
                    shifted.extend(row)
            cur = dp[s]
            dp[s] = [x + y for x, y in zip(cur, shifted)]
    return dp[k]


def scaling_v_product(spec, points, qa) -> Optional[tuple[int, ...]]:
    """v of the constructions from products of encodings, for encoded
    (x, y) points and Qa: h'(alpha) is the product of alpha - beta over the
    other distinct x's, and v_i is 1/h'(x_i) in characteristic 2 and
    (x_i - beta_a)/(h'(x_i) y_i) otherwise; None where some v_i is zero or
    undefined."""
    mul, sub, inv = spec.mul_enc, spec.sub_enc, spec.inv_enc
    xs = {x for x, _ in points}
    hp = {a: reduce(mul, (sub(a, b) for b in xs - {a}), 1) for a in xs}
    if spec.p == 2:
        return tuple(inv(hp[x]) for x, _ in points)
    beta = qa[0]
    entries = [mul(sub(x, beta), inv(mul(hp[x], y))) if y else 0
               for x, y in points]
    return tuple(entries) if all(entries) else None


def enumerate_points(curve) -> list:
    """E(F_q) on encoded points, None (O) first, then sorted: the roots y
    of the curve's equation on every x, as `ellcode` found them before it
    counted #E without listing the points.  Odd characteristic solves
    (y + b/2)^2 = c + b^2/4, b = a1 x + a3, c = rhs(x), reading the roots
    +-sqrt from the parity of the field log; characteristic 2 solves
    y^2 + b y = c by a square root where b = 0, else as y = b z with
    z^2 + z = c/b^2."""
    s, rhs = curve.spec, curve._law.rhs
    a1, _, a3, _, _ = curve.coefficients()
    add, sub, neg, mul = s.add_enc, s.sub_enc, s.neg_enc, s.mul_enc
    affine = []
    for x in range(s.q):
        b, c = add(mul(a1, x), a3), rhs(x)
        if s.p == 2:
            if not b:
                affine.append((x, s.sqrt_enc(c)))
            elif (z := s.artin_solve(mul(c, s.inv_enc(mul(b, b))))) is not None:
                affine += [(x, mul(b, z)), (x, add(mul(b, z), b))]
            continue
        shift = mul(b, s.inv_enc(2))
        c = add(c, mul(shift, shift))
        r = s.sqrt_enc(c)
        if r is not None:
            affine += sorted({(x, sub(r, shift)), (x, sub(neg(r), shift))})
    return [None, *sorted(affine)]


def group_structure_grid_walk(curve):
    """(d1, d2, p1, p2, dlog) of E(F_q) on encoded points (None for O): p2
    is the first point, in canonical order, whose order is the group's
    exponent d2, and p1 the first point of order d1 = #E/d2 whose d1 x d2
    grid {i p1 + j p2} holds no repeat; dlog maps each grid point to
    (i, j).  Orders come from the smallest divisor of #E that kills the
    point."""
    pts = enumerate_points(curve)
    n = len(pts)
    add, mul = curve._law.add, curve._law.mul
    divisors = [m for m in range(1, n + 1) if n % m == 0]
    orders = {pt: next(m for m in divisors if mul(m, pt) is None) for pt in pts}
    d2 = reduce(lcm, orders.values())
    d1 = n // d2
    p2 = next(pt for pt in pts if orders[pt] == d2)
    for p1 in (pt for pt in pts if orders[pt] == d1):
        dlog, base = {}, None
        for i in range(d1):
            cur = base
            for j in range(d2):
                dlog.setdefault(cur, (i, j))
                cur = add(cur, p2)
            base = add(base, p1)
        if len(dlog) == n:
            return d1, d2, p1, p2, dlog
    raise AssertionError("no p1 covers the group")


def coefficient_elements(curve) -> tuple[FieldElement, ...]:
    """(a1, a2, a3, a4, a6) of a curve as `FieldElement`s."""
    return tuple(curve.spec.element(c) for c in curve.coefficients())


def discriminant(spec, coeffs) -> FieldElement:
    """Standard b2/b4/b6/b8 discriminant, valid in every characteristic, of
    the Weierstrass equation with encoded coefficients (a1, a2, a3, a4, a6),
    on `FieldElement`s, apart from the encoded products of
    `Curve.discriminant` and its shorter b8."""
    s = spec
    two, three, four = s.element(2 % s.p), s.element(3 % s.p), s.element(4 % s.p)
    eight, nine = s.element(8 % s.p), s.element(9 % s.p)
    ts = s.element(27 % s.p)
    a1, a2, a3, a4, a6 = (s.element(c) for c in coeffs)
    b2 = a1 * a1 + four * a2
    b4 = two * a4 + a1 * a3
    b6 = a3 * a3 + four * a6
    b8 = (a1 * a1 * a6 + four * a2 * a6 - a1 * a3 * a4
          + a2 * a3 * a3 - a4 * a4)
    return (-(b2 * b2 * b8) - eight * (b4 ** 3) - ts * (b6 * b6)
            + nine * b2 * b4 * b6)


def singular_points(spec, coeffs) -> list[tuple[int, int]]:
    """Every encoded (x, y) in F_q^2, by brute force, that lies on the
    Weierstrass equation F = y^2 + a1 xy + a3 y - (x^3 + a2 x^2 + a4 x + a6)
    = 0 with both partials, F_x = a1 y - 3 x^2 - 2 a2 x - a4 and
    F_y = 2 y + a1 x + a3, zero.  A singular cubic has exactly one singular
    point, which Frobenius fixes, so it is rational: the equation is
    singular iff this list is not empty."""
    a1, a2, a3, a4, a6 = (spec.element(c) for c in coeffs)
    two, three = spec.element(2 % spec.p), spec.element(3 % spec.p)
    elems = [spec.element(e) for e in range(spec.q)]
    out = []
    for x in elems:
        fx0 = three * x * x + two * a2 * x + a4
        rhs = x * x * x + a2 * x * x + a4 * x + a6
        for y in elems:
            if not (two * y + a1 * x + a3 or a1 * y - fx0
                    or y * y + a1 * x * y + a3 * y - rhs):
                out.append((x.enc, y.enc))
    return out


# ---------------------------------------------------------------------------
# polynomials over GF(q): tuples of FieldElement, index i = coefficient of x^i
# ---------------------------------------------------------------------------

def poly_degree(f: Sequence[FieldElement]) -> int:
    """Degree with the convention deg(0) = -1."""
    return len(poly_trim(f)) - 1


def poly_add(f: Sequence[FieldElement], g: Sequence[FieldElement]) -> Poly:
    return poly_trim([b if a is None else a if b is None else a + b
                      for a, b in zip_longest(f, g)])


def poly_neg(f: Sequence[FieldElement]) -> Poly:
    return tuple(-c for c in f)


def poly_sub(f: Sequence[FieldElement], g: Sequence[FieldElement]) -> Poly:
    return poly_add(f, poly_neg(g))


def poly_scale(f: Sequence[FieldElement], s: FieldElement) -> Poly:
    return poly_trim([c * s for c in f])


def poly_divmod(f: Sequence[FieldElement],
                g: Sequence[FieldElement]) -> tuple[Poly, Poly]:
    f, g = poly_trim(f), poly_trim(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    spec = g[0].spec
    if not f:
        return (), ()
    rem = list(f)
    dg = len(g) - 1
    quot = [spec.zero] * max(0, len(f) - dg)
    inv_lead = g[-1].inverse()
    while True:
        rem = list(poly_trim(rem))
        if not rem or len(rem) - 1 < dg:
            break
        shift = len(rem) - 1 - dg
        factor = rem[-1] * inv_lead
        quot[shift] = factor
        for i, gi in enumerate(g):
            rem[i + shift] = rem[i + shift] - factor * gi
    return poly_trim(quot), poly_trim(rem)


def poly_mod(f: Sequence[FieldElement], g: Sequence[FieldElement]) -> Poly:
    return poly_divmod(f, g)[1]


def poly_monic(f: Sequence[FieldElement]) -> Poly:
    f = poly_trim(f)
    if not f:
        return ()
    lead = f[-1]
    if lead.enc == 1:
        return f
    return poly_scale(f, lead.inverse())


def poly_gcd(f: Sequence[FieldElement], g: Sequence[FieldElement]) -> Poly:
    f, g = poly_trim(f), poly_trim(g)
    while g:
        f, g = g, poly_mod(f, g)
    return poly_monic(f)


def root_multiplicity(f: Sequence[FieldElement], x0: FieldElement) -> int:
    """Multiplicity of x0 as a root of f (0 if not a root).  f must be nonzero."""
    f = poly_trim(f)
    if not f:
        raise ValueError("zero polynomial has no root multiplicity")
    spec = x0.spec
    mult = 0
    coeffs = list(f)
    while True:
        if poly_eval(coeffs, x0).enc != 0:
            return mult
        # synthetic division by (x - x0)
        out = [spec.zero] * (len(coeffs) - 1)
        carry = spec.zero
        for i in range(len(coeffs) - 1, 0, -1):
            carry = coeffs[i] + carry * x0
            out[i - 1] = carry
        coeffs = out
        mult += 1
        if not coeffs:
            return mult


# ---------------------------------------------------------------------------
# divisors, rational functions and valuations
# ---------------------------------------------------------------------------

def is_ramified(curve: Curve, p: Point) -> bool:
    """True iff p is fixed by the hyperelliptic involution (p = -p)."""
    return curve.mul(-1, p) == p


class Divisor:
    """Formal integer combination of rational points on one curve."""

    __slots__ = ("curve", "coeffs")

    def __init__(self, curve: Curve, coeffs: Mapping[Point, int]):
        clean = {}
        for p, n in coeffs.items():
            if n == 0:
                continue
            if not curve.is_on_curve(p):
                raise CurveError(f"divisor point {p} is not on the curve")
            clean[p] = n
        self.curve = curve
        self.coeffs = clean

    def degree(self) -> int:
        return sum(self.coeffs.values())

    def multiplicity(self, p: Point) -> int:
        return self.coeffs.get(p, 0)

    def items(self) -> list[tuple[Point, int]]:
        return [(p, self.coeffs[p]) for p in sorted(self.coeffs, key=Point.key)]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Divisor) and other.curve == self.curve
                and other.coeffs == self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Div(0)"
        return "Div(" + " + ".join(f"{n}*{p}" for p, n in self.items()) + ")"


def divisor_sum(d: Divisor) -> Point:
    """Group sum [a1]P1 + ... + [an]Pn of the divisor's points."""
    acc = INFINITY
    e = d.curve
    for p, n in d.coeffs.items():
        acc = e.add(acc, e.mul(n, p))
    return acc


def is_principal(d: Divisor) -> bool:
    """Abel-Jacobi on an elliptic curve: degree 0 and group sum O."""
    return d.degree() == 0 and divisor_sum(d).is_infinity


class RationalFunction:
    """(a(x) + b(x) y) / c(x) on a fixed curve, in canonical form.

    Canonical form divides out gcd(a, b, c) and scales so c is monic.
    The zero function is rejected: no caller needs it, and rejecting it
    keeps valuations total.
    """

    __slots__ = ("curve", "a", "b", "c")

    def __init__(self, curve: Curve,
                 a: Sequence[FieldElement] | Sequence[int],
                 b: Sequence[FieldElement] | Sequence[int] = (),
                 c: Sequence[FieldElement] | Sequence[int] = (1,)):
        spec = curve.spec
        a = poly_trim([spec.element(v) for v in a])
        b = poly_trim([spec.element(v) for v in b])
        c = poly_trim([spec.element(v) for v in c])
        if not c:
            raise FunctionError("denominator polynomial is zero")
        if not a and not b:
            raise FunctionError("zero function is not representable")
        g = poly_gcd(poly_gcd(a, b) if (a and b) else (a or b), c)
        if poly_degree(g) > 0:
            a, _ = poly_divmod(a, g) if a else ((), ())
            b, _ = poly_divmod(b, g) if b else ((), ())
            c, _ = poly_divmod(c, g)
        lead_inv = c[-1].inverse()
        if lead_inv.enc != 1:
            a = poly_scale(a, lead_inv)
            b = poly_scale(b, lead_inv)
            c = poly_scale(c, lead_inv)
        self.curve = curve
        self.a = a
        self.b = b
        self.c = c

    def __repr__(self) -> str:
        def fmt(poly: Poly) -> str:
            return "[" + ",".join(str(e.enc) for e in poly) + "]"
        return f"RationalFunction(a={fmt(self.a)}, b={fmt(self.b)}, c={fmt(self.c)})"


def valuation(f: RationalFunction, p: Point) -> int:
    """Discrete valuation v_P(f).

    At O the weighted degrees v_O(x) = -2, v_O(y) = -3 give
    v_O = -max(2 deg a, 3 + 2 deg b) + 2 deg c; the two pole orders have
    opposite parity, so no cancellation is possible.  At affine P the
    numerator's valuation comes from the conjugate norm.
    """
    curve = f.curve
    if p.is_infinity:
        da, db = poly_degree(f.a), poly_degree(f.b)
        pole = 0
        if da >= 0:
            pole = 2 * da
        if db >= 0:
            pole = max(pole, 3 + 2 * db)
        return -pole + 2 * poly_degree(f.c)
    if not curve.is_on_curve(p):
        raise CurveError(f"{p} is not on the curve")
    e = 2 if is_ramified(curve, p) else 1
    v_num = _numerator_valuation(curve, f.a, f.b, p, e)
    v_den = root_multiplicity(f.c, p.x) * e
    return v_num - v_den


def _numerator_valuation(curve: Curve, a: Poly, b: Poly, p: Point, e: int) -> int:
    """v_P(a + b y) for an affine P with ramification index e of x - x(P)."""
    spec = curve.spec
    x0, y0 = p.x, p.y
    if not b:
        return root_multiplicity(a, x0) * e
    # factor out the shared power of (x - x0)
    ma = root_multiplicity(a, x0) if a else None
    mb = root_multiplicity(b, x0)
    t = mb if ma is None else min(ma, mb)
    lin = (-x0, spec.one)
    a1p, b1p = a, b
    for _ in range(t):
        if a1p:
            a1p, _ = poly_divmod(a1p, lin)
        b1p, _ = poly_divmod(b1p, lin)
    val = t * e
    g1 = poly_eval(a1p, x0) + poly_eval(b1p, x0) * y0
    if g1:
        return val
    # both the function and enough of the pair vanish: use the norm
    # N = a^2 - a b (a1 x + a3) - b^2 (x^3 + a2 x^2 + a4 x + a6)
    a1, a2, a3, a4, a6 = coefficient_elements(curve)
    line = poly_trim((a3, a1))
    rhs = poly_trim((a6, a4, a2, spec.one))
    norm = poly_sub(
        poly_sub(poly_mul(a1p, a1p),
                 poly_mul(poly_mul(a1p, b1p), line)),
        poly_mul(poly_mul(b1p, b1p), rhs))
    return val + root_multiplicity(norm, x0)


def principal_divisor(f: RationalFunction) -> Divisor:
    """div(f) restricted to rational points (plus O).

    For the construction data every zero and pole is rational, so this is
    the full divisor and must have degree 0 with group sum O.
    """
    coeffs = {}
    for p in f.curve.points():
        v = valuation(f, p)
        if v:
            coeffs[p] = v
    return Divisor(f.curve, coeffs)


# ---------------------------------------------------------------------------
# the basis of an `RRBasis` handle: evaluated at encoded points, which
# the closed forms `systematic_rows` and `point_moments` are tested
# against, and symbolic, with its check
# ---------------------------------------------------------------------------

def basis_divisor(basis: RRBasis) -> Divisor:
    """G = (k-1)O + Q of the handle, Q made a `Point`."""
    q2 = Point(*map(basis.curve.spec.element, basis.point))
    return Divisor(basis.curve, {INFINITY: basis.k - 1, q2: 1})


def pole_orders_at_O(basis: RRBasis) -> tuple[int, ...]:
    return tuple(range(basis.k))


def rr_basis_rows(basis: RRBasis, points: Sequence[tuple[int, int]]) -> list[list[int]]:
    """The functions of an `rr_basis` result evaluated at encoded points, as
    encodings.

    One row per function, in the basis's pole order 1, u, x, u x, x^2, ...;
    a column costs one inverse for u(P) and a running power of x(P).  A
    point where u has a pole raises `FunctionError`, as in `evaluate`, the
    reference the rows are tested against.
    """
    mul, k = basis.curve.spec.mul_enc, basis.k
    rows: list[list[int]] = [[] for _ in range(k)]
    for (x, _), u in zip(points, _u_values(basis, points)):
        power = 1
        for i in range(0, k, 2):
            rows[i].append(power)
            rows[i + 1].append(mul(u, power))
            power = mul(power, x)
    return rows


def basis_functions(basis: RRBasis) -> tuple[RationalFunction, ...]:
    """The basis 1, u, x, u x, ... of L(G) as `RationalFunction`s, in the
    order of `rr_basis_rows`."""
    curve, k, spec = basis.curve, basis.k, basis.curve.spec
    qx, qy = map(spec.element, basis.point)
    # x^i and u x^i have pole orders 2i and 2i + 1 at O; in even
    # characteristic u x^i is x^(i-1) (y - gamma1) once i >= 1
    funcs: list[RationalFunction] = []
    for i in range(k // 2):
        mono = [spec.zero] * i + [spec.one]
        funcs.append(RationalFunction(curve, mono))
        if spec.p != 2:
            u = RationalFunction(curve, (), mono, (-qx, spec.one))
        elif i == 0:
            u = RationalFunction(curve, (-qy,), (spec.one,), (spec.zero, spec.one))
        else:
            u = RationalFunction(curve, poly_scale(mono[1:], -qy), mono[1:])
        funcs.append(u)
    return tuple(funcs)


def validate_rr_basis(basis: RRBasis) -> None:
    """Check div(f) + G >= 0 for every basis function, pointwise.

    Valuations are taken at every rational point of the curve; the pole
    bound at O uses the weighted-degree formula.  Raises on violation.
    """
    curve, g, functions = basis.curve, basis_divisor(basis), basis_functions(basis)
    pole_orders = set()
    for f, stated in zip(functions, pole_orders_at_O(basis)):
        v_inf = valuation(f, INFINITY)
        if -v_inf != stated:
            raise FunctionError(
                f"pole order at O is {-v_inf}, basis claims {stated}")
        if v_inf + g.multiplicity(INFINITY) < 0:
            raise FunctionError(f"{f} violates the bound at O")
        for p in curve.points():
            if p.is_infinity:
                continue
            if valuation(f, p) + g.multiplicity(p) < 0:
                raise FunctionError(f"{f} has a disallowed pole at {p}")
        pole_orders.add(stated)
    if len(pole_orders) != len(functions):
        raise FunctionError("pole orders at O are not pairwise distinct")
    if len(functions) != g.degree():
        raise FunctionError("basis size differs from deg(G)")
