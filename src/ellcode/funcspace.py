"""Divisors and rational functions (a(x) + b(x) y) / c(x) on an elliptic curve.

The only Riemann-Roch spaces are the ones both constructions need,
L((k-1)O + Q) for a rational 2-torsion point Q.  `rr_basis` checks G and
returns `RRBasis`, the handle (curve, Q, k) that the closed forms read,
with the points as the (x, y) encoding pairs a certificate writes; its
symbolic basis functions are the reference, built when read.
Two closed forms serve `isodual`'s construct and verify, with no k^3
elimination: `systematic_rows`, the RREF [I | A] of the evaluated basis
when the first k points are k/2 whole pairs {P, -P} (the elliptic analogue
of the Cauchy systematic form of GRS codes), with the rank-2 factors of
its displacement D_alpha A - A D_x, and `point_moments`, the
3(k-1) sums S[e][t] = sum_j w_j u_j^e x_j^t, the entries S[e + e'][a + a']
at u^e x^a, u^e' x^a' of the Gram of the evaluated basis under weights w,
whose Hankel blocks `isodual` ranks for the hull.  Their test
references are `rr_basis_rows` and `linalg.gram`; the verifier also
takes G from `rr_basis_rows` for a file whose first k points are not whole
pairs.
Valuations at affine points use the conjugate-norm technique: for
g = a + b y the product with its involution image is a polynomial in x
alone, whose root multiplicity at x(P) settles v_P(g) exactly, with no
local power-series machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Sequence

from . import gf
from .gf import FieldElement, Poly
from .curve import Curve, CurveError, Point, INFINITY


class FunctionError(ValueError):
    """Invalid rational-function data or an evaluation at a pole."""


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
        a = gf.poly_trim([spec.element(v) for v in a])
        b = gf.poly_trim([spec.element(v) for v in b])
        c = gf.poly_trim([spec.element(v) for v in c])
        if not c:
            raise FunctionError("denominator polynomial is zero")
        if not a and not b:
            raise FunctionError("zero function is not representable")
        g = gf.poly_gcd(gf.poly_gcd(a, b) if (a and b) else (a or b), c)
        if gf.poly_degree(g) > 0:
            a, _ = gf.poly_divmod(a, g) if a else ((), ())
            b, _ = gf.poly_divmod(b, g) if b else ((), ())
            c, _ = gf.poly_divmod(c, g)
        lead_inv = c[-1].inverse()
        if lead_inv.enc != 1:
            a = gf.poly_scale(a, lead_inv)
            b = gf.poly_scale(b, lead_inv)
            c = gf.poly_scale(c, lead_inv)
        self.curve = curve
        self.a = a
        self.b = b
        self.c = c

    def __repr__(self) -> str:
        def fmt(poly: Poly) -> str:
            return "[" + ",".join(str(e.enc) for e in poly) + "]"
        return f"RationalFunction(a={fmt(self.a)}, b={fmt(self.b)}, c={fmt(self.c)})"


def evaluate(f: RationalFunction, p: Point) -> FieldElement:
    """(a(x) + b(x) y) / c(x) at an affine point away from poles of f."""
    if p.is_infinity:
        raise FunctionError("cannot evaluate at the place at infinity")
    cx = gf.poly_eval(f.c, p.x)
    if not cx:
        raise FunctionError(f"pole or indeterminacy at {p} (denominator vanishes)")
    num = gf.poly_eval(f.a, p.x) + gf.poly_eval(f.b, p.x) * p.y
    return num / cx


def valuation(f: RationalFunction, p: Point) -> int:
    """Discrete valuation v_P(f).

    At O the weighted degrees v_O(x) = -2, v_O(y) = -3 give
    v_O = -max(2 deg a, 3 + 2 deg b) + 2 deg c; the two pole orders have
    opposite parity, so no cancellation is possible.  At affine P the
    numerator's valuation comes from the conjugate norm.
    """
    curve = f.curve
    if p.is_infinity:
        da, db = gf.poly_degree(f.a), gf.poly_degree(f.b)
        pole = 0
        if da >= 0:
            pole = 2 * da
        if db >= 0:
            pole = max(pole, 3 + 2 * db)
        return -pole + 2 * gf.poly_degree(f.c)
    if not curve.is_on_curve(p):
        raise CurveError(f"{p} is not on the curve")
    e = 2 if curve.is_ramified(p) else 1
    v_num = _numerator_valuation(curve, f.a, f.b, p, e)
    v_den = gf.root_multiplicity(f.c, p.x) * e
    return v_num - v_den


def _numerator_valuation(curve: Curve, a: Poly, b: Poly, p: Point, e: int) -> int:
    """v_P(a + b y) for an affine P with ramification index e of x - x(P)."""
    spec = curve.spec
    x0, y0 = p.x, p.y
    if not b:
        return gf.root_multiplicity(a, x0) * e
    # factor out the shared power of (x - x0)
    ma = gf.root_multiplicity(a, x0) if a else None
    mb = gf.root_multiplicity(b, x0)
    t = mb if ma is None else min(ma, mb)
    lin = (-x0, spec.one)
    a1p, b1p = a, b
    for _ in range(t):
        if a1p:
            a1p, _ = gf.poly_divmod(a1p, lin)
        b1p, _ = gf.poly_divmod(b1p, lin)
    val = t * e
    g1 = gf.poly_eval(a1p, x0) + gf.poly_eval(b1p, x0) * y0
    if g1:
        return val
    # both the function and enough of the pair vanish: use the norm
    # N = a^2 - a b (a1 x + a3) - b^2 (x^3 + a2 x^2 + a4 x + a6)
    line = gf.poly_trim((curve.a3, curve.a1))
    rhs = gf.poly_trim((curve.a6, curve.a4, curve.a2, spec.one))
    norm = gf.poly_sub(
        gf.poly_sub(gf.poly_mul(a1p, a1p),
                    gf.poly_mul(gf.poly_mul(a1p, b1p), line)),
        gf.poly_mul(gf.poly_mul(b1p, b1p), rhs))
    return val + gf.root_multiplicity(norm, x0)


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


@dataclass(frozen=True)
class RRBasis:
    """The checked handle (curve, Q, k) of the basis x^i, u x^i of L(G),
    G = (k-1)O + Q, with pole orders 0, ..., k-1 at O: the closed forms read
    it alone.  Its symbolic `functions`, the reference `validate_rr_basis`
    and the tests read, are built on first read."""

    curve: Curve
    point: Point
    k: int

    @property
    def divisor(self) -> Divisor:
        return Divisor(self.curve, {INFINITY: self.k - 1, self.point: 1})

    @property
    def pole_orders_at_O(self) -> tuple[int, ...]:
        return tuple(range(self.k))

    @cached_property
    def functions(self) -> tuple[RationalFunction, ...]:
        curve, k, q2, spec = self.curve, self.k, self.point, self.curve.spec
        # x^i and u x^i have pole orders 2i and 2i + 1 at O; in even
        # characteristic u x^i is x^(i-1) (y - gamma1) once i >= 1
        funcs: list[RationalFunction] = []
        for i in range(k // 2):
            mono = [spec.zero] * i + [spec.one]
            funcs.append(RationalFunction(curve, mono))
            if spec.p != 2:
                u = RationalFunction(curve, (), mono, (-q2.x, spec.one))
            elif i == 0:
                u = RationalFunction(curve, (-q2.y,), (spec.one,), (spec.zero, spec.one))
            else:
                u = RationalFunction(curve, gf.poly_scale(mono[1:], -q2.y), mono[1:])
            funcs.append(u)
        return tuple(funcs)


def rr_basis(curve: Curve, k: int, q2: Point) -> RRBasis:
    """The basis of L((k-1)O + Q) for a 2-torsion point Q, |basis| = k.

    Even characteristic needs the curve shape y^2 + xy = x^3 + a2 x^2 + a6
    with Q = (0, gamma1); odd characteristic needs Q = (beta, 0).  Each
    violation raises `FunctionError`; what comes back is the checked
    handle, whose functions are built only when read.
    """
    spec = curve.spec
    if k < 2 or k % 2:
        raise FunctionError(f"k must be even and >= 2, got {k}")
    if q2.is_infinity or not curve.is_on_curve(q2):
        raise FunctionError("Q must be an affine rational point on the curve")
    if curve.point_order(q2) != 2:
        raise FunctionError("Q must have order 2")
    if spec.p == 2:
        if (curve.a1.enc, curve.a3.enc, curve.a4.enc) != (1, 0, 0):
            raise FunctionError(
                "even characteristic needs the curve shape y^2+xy = x^3+a2x^2+a6")
        if q2.x.enc != 0:
            raise FunctionError("even-characteristic Q must be (0, gamma1)")
    elif q2.y.enc != 0:
        raise FunctionError("odd-characteristic Q must be (beta, 0)")
    return RRBasis(curve, q2, k)


def _u_values(basis: RRBasis, points: Sequence[tuple[int, int]]) -> list[int]:
    """u(P) at each encoded point, as encodings: u = (y - gamma1)/x in
    characteristic 2 and y/(x - beta) otherwise.  The place at infinity
    (None), or a point where u has a pole (x = x(Q), that is P = Q), raises
    `FunctionError`, as in `evaluate`."""
    spec, q2 = basis.curve.spec, basis.point    # Q is (0, gamma1) or (beta, 0)
    mul, sub, inv = spec.mul_enc, spec.sub_enc, spec.inv_enc
    out = []
    for p in points:
        if p is None:
            raise FunctionError("cannot evaluate at the place at infinity")
        x, y = p
        if spec.p == 2:
            num, den = sub(y, q2.y.enc), x
        else:
            num, den = y, sub(x, q2.x.enc)
        if den == 0:
            raise FunctionError(f"pole or indeterminacy at ({x},{y}) (denominator vanishes)")
        out.append(mul(num, inv(den)))
    return out


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


def systematic_rows(basis: RRBasis, points: Sequence[tuple[int, int]]
                    ) -> Optional[tuple[list[list[int]], tuple[list, list]]]:
    """The RREF [I | A] of `rr_basis_rows(basis, points)` in closed form,
    with the rank-2 factors (P, Q) of its displacement R, or None where the
    closed form does not apply.

    It applies when the first k points are k/2 whole pairs {P, -P}: two
    points on each of k/2 x's alpha_r, with distinct u, and no later point
    on an alpha_r.  Row i is f_i / f_i(P_i) with

        f_i = prod_{r != r(i)} (x - alpha_r) * (u - u(P_i')),

    where P_i' = -P_i is P_i's partner.  u - u(-P_i) is l_i / (x - x(Q)),
    l_i the line through Q and -P_i, whose third zero is P_i + Q.  So
    div f_i = sum_{l <= k, l != i} P_l + (P_i + Q) - Q - (k-1) O: f_i lies
    in L(G), vanishes on the other first points and not on P_i.  As
    sum_{l <= k} P_l = O and Q != O, L(G - sum P_l) = 0, so the first k
    columns are independent and [I | A] is the RREF.  f_i is written in
    the basis, so the rows span the rows of `rr_basis_rows` for any
    points, on the curve or not.  In logs, entry (i, j) after the first k
    columns is the column factor prod_r (x_j - alpha_r) over
    x_j - alpha_r(i), times u_j - u(P_i'), over f_i(P_i).  A point at a
    pole of u raises `FunctionError`, as in `rr_basis_rows`.

    So R = D_alpha A - A D_x, alpha_i = x(P_i) and x the x_j, has entries
    (alpha_i - x_j) A_ij = col_j (u(P_i') - u_j) / L_i, col_j =
    prod_r (x_j - alpha_r) and L_i = f_i(P_i): R = P Q with P's columns
    [1/L_i] and [u(P_i')/L_i] and Q's rows [-col_j u_j] and [col_j], each
    k long, for `code.LinearCode._made`'s `r_factors`.
    """
    spec, k = basis.curve.spec, basis.k
    us = _u_values(basis, points)
    xs = [x for x, _ in points]
    pairs: dict[int, list[int]] = {}
    for i, x in enumerate(xs[:k]):
        pairs.setdefault(x, []).append(i)
    if len(pairs) != k // 2 or any(len(g) != 2 or us[g[0]] == us[g[1]]
                                   for g in pairs.values()):
        return None
    sub, log, exp, q1 = spec.sub_enc, spec._log, spec._exp, spec.q - 1
    alphas = list(pairs)
    # diff[r][c]: x_j - alpha_r for the c-th point after the first k
    diff = [[sub(x, a) for x in xs[k:]] for a in alphas]
    if any(0 in row for row in diff):
        return None
    ldiff = [[log[d] for d in row] for row in diff]
    column = [sum(col) for col in zip(*ldiff)]
    rows = [[0] * i + [1] + [0] * (k - 1 - i) for i in range(k)]
    p_cols = [[0] * k, [0] * k]
    for r, a in enumerate(alphas):
        # log of prod_{r' != r} (alpha_r - alpha_r')
        lh = sum(log[sub(a, b)] for b in alphas if b != a)
        base = [c - d for c, d in zip(column, ldiff[r])]
        for i, partner in (pairs[a], pairs[a][::-1]):
            up = us[partner]
            lead = lh + log[sub(us[i], up)]     # log L_i
            rows[i] += [exp[(b + log[d] - lead) % q1] if d else 0
                        for b, d in zip(base, [sub(u, up) for u in us[k:]])]
            p_cols[0][i] = exp[-lead % q1]
            p_cols[1][i] = exp[(log[up] - lead) % q1] if up else 0
    neg = spec.neg_enc
    q_rows = [[neg(exp[(c + log[u]) % q1]) if u else 0 for c, u in zip(column, us[k:])],
              [exp[c % q1] for c in column]]
    return rows, (p_cols, q_rows)


def point_moments(basis: RRBasis, points: Sequence[tuple[int, int]],
                  w: Optional[Sequence[int]] = None) -> list[list[int]]:
    """[S0, S1, S2], S[e][t] = sum_j w_j u_j^e x_j^t for t <= k - 2, w all 1
    when None: 3(k - 1) terms per distinct x, one packed step per (x, e) in
    characteristic 2 (x^t a strided slice of the exp bytes; `FieldSpec`
    caps m at 8, so every such field packs), a term loop for odd q.
    A point at a pole of u raises `FunctionError`, as in `rr_basis_rows`.
    Every moment at the iso-dual scaling w = v is 0 (residue theorem).  At
    w = 1 over whole pairs {P, -P}, S1 = 0 if a1 = a3 = 0 (u(-P) = -u(P)),
    and S0 = 0, S1 = S2 in characteristic 2 (a1 = 1, u(-P) = u(P) + 1)."""
    spec, k = basis.curve.spec, basis.k
    add, mul, log, exp2 = spec.add_enc, spec.mul_enc, spec._log, spec._exp2
    addt, mulb, q1 = spec._addt, spec._mulb, spec.q - 1
    # per distinct x: sum of w_j u_j^e over the points on it, e = 0, 1, 2
    weights: dict[int, list[int]] = {}
    for (x, _), u, wj in zip(points, _u_values(basis, points), w or [1] * len(points)):
        acc = weights.setdefault(x, [0, 0, 0])
        for e in range(3):
            acc[e] = add(acc[e], wj)
            wj = mul(wj, u)
    # the points on x = 0, if any, first: x^t is 1 at t = 0 and 0 after
    moments = [[c] + [0] * (k - 2) for c in weights.pop(0, [0, 0, 0])]
    if mulb is not None:
        expb, packed = bytes(spec._exp) * k, [0, 0, 0]
        for x, acc in weights.items():
            lx = log[x]
            powers = expb[0:(k - 1) * lx:lx] if lx else b"\x01" * (k - 1)
            for e, c in enumerate(acc):
                if c:
                    packed[e] ^= int.from_bytes(powers.translate(mulb[c]), "big")
        return [[m ^ v for m, v in zip(row, acc.to_bytes(k - 1, "big"))]
                for row, acc in zip(moments, packed)]
    if addt is not None:
        # the q x q table, without a call per term; log c + t log x, below
        # k (q - 1), indexes the exp table repeated k times with no modulo
        # (k (q - 1) entries, fewer than the table's q^2 for k < q)
        expk = spec._exp * k
        for x, acc in weights.items():
            lx = log[x]
            lpow = range(0, (k - 1) * lx, lx) if lx else [0] * (k - 1)
            for e, lc in [(e, log[c]) for e, c in enumerate(acc) if c]:
                moments[e] = [addt[s][expk[lc + lp]] for s, lp in zip(moments[e], lpow)]
        return moments
    for x, acc in weights.items():
        lpow = [t * log[x] % q1 for t in range(k - 1)]
        for e, lc in [(e, log[c]) for e, c in enumerate(acc) if c]:
            moments[e] = [add(s, exp2[lc + lp]) for s, lp in zip(moments[e], lpow)]
    return moments


def validate_rr_basis(basis: RRBasis) -> None:
    """Check div(f) + G >= 0 for every basis function, pointwise.

    Valuations are taken at every rational point of the curve; the pole
    bound at O uses the weighted-degree formula.  Raises on violation.
    """
    curve, g = basis.curve, basis.divisor
    pole_orders = set()
    for f, stated in zip(basis.functions, basis.pole_orders_at_O):
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
    if len(pole_orders) != len(basis.functions):
        raise FunctionError("pole orders at O are not pairwise distinct")
    if len(basis.functions) != g.degree():
        raise FunctionError("basis size differs from deg(G)")


def interpolation_poly(xs: Sequence[FieldElement]) -> tuple[Poly, Poly]:
    """Monic h = prod (x - alpha) over distinct alphas, with its derivative."""
    if not xs:
        raise FunctionError("need at least one x-coordinate")
    if len({x.enc for x in xs}) != len(xs):
        raise FunctionError("repeated roots in interpolation set")
    spec = xs[0].spec
    h: Poly = (spec.one,)
    for x0 in xs:
        h = gf.poly_mul(h, (-x0, spec.one))
    return h, gf.poly_derivative(h)
