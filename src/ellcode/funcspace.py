"""Divisors and rational functions (a(x) + b(x) y) / c(x) on an elliptic curve.

The only Riemann-Roch spaces materialized are the ones both constructions
need, L((k-1)O + Q) for a rational 2-torsion point Q, via closed-form bases;
their evaluations at the code's points come in closed form too, on encodings.
Valuations at affine points use the conjugate-norm technique: for
g = a + b y the product with its involution image is a polynomial in x
alone, whose root multiplicity at x(P) settles v_P(g) exactly, with no
local power-series machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

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

    def support(self) -> list[Point]:
        return sorted(self.coeffs, key=Point.key)

    def multiplicity(self, p: Point) -> int:
        return self.coeffs.get(p, 0)

    def items(self) -> list[tuple[Point, int]]:
        return [(p, self.coeffs[p]) for p in self.support()]

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
    """Basis of L(G) with pairwise-distinct pole orders at O."""

    divisor: Divisor
    functions: tuple[RationalFunction, ...]
    pole_orders_at_O: tuple[int, ...]


def rr_basis(curve: Curve, k: int, q2: Point) -> RRBasis:
    """Closed-form basis of L((k-1)O + Q) for a 2-torsion point Q, |basis| = k.

    Even characteristic needs the curve shape y^2 + xy = x^3 + a2 x^2 + a6
    with Q = (0, gamma1); odd characteristic needs Q = (beta, 0).  The basis
    is x^i and u x^j with u = (y - gamma1)/x, resp. u = y/(x - beta).  The
    functions come back sorted by pole order at O (0, 1, ..., k-1), which
    certifies their linear independence.
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
    g = Divisor(curve, {INFINITY: k - 1, q2: 1})
    return RRBasis(g, tuple(funcs), tuple(range(k)))


def rr_basis_rows(basis: RRBasis, points: Sequence[Point]) -> list[list[int]]:
    """The functions of an `rr_basis` result evaluated at the points, as
    encodings.

    One row per function, in the basis's pole order 1, u, x, u x, x^2, ...;
    a column costs one inverse for u(P) and a running power of x(P).  A
    point where u has a pole raises `FunctionError`, as in `evaluate`, the
    reference the rows are tested against.
    """
    spec = basis.divisor.curve.spec
    q2 = basis.divisor.support()[1]         # (0, gamma1) or (beta, 0)
    mul, sub = spec.mul_enc, spec.sub_enc
    k = len(basis.functions)
    rows: list[list[int]] = [[] for _ in range(k)]
    for p in points:
        if p.is_infinity:
            raise FunctionError("cannot evaluate at the place at infinity")
        x, y = p.x.enc, p.y.enc
        if spec.p == 2:
            num, den = sub(y, q2.y.enc), x
        else:
            num, den = y, sub(x, q2.x.enc)
        if den == 0:
            raise FunctionError(f"pole or indeterminacy at {p} (denominator vanishes)")
        u = mul(num, spec.inv_enc(den))
        power = 1
        for i in range(0, k, 2):
            rows[i].append(power)
            rows[i + 1].append(mul(u, power))
            power = mul(power, x)
    return rows


def validate_rr_basis(basis: RRBasis) -> None:
    """Check div(f) + G >= 0 for every basis function, pointwise.

    Valuations are taken at every rational point of the curve; the pole
    bound at O uses the weighted-degree formula.  Raises on violation.
    """
    curve = basis.divisor.curve
    pole_orders = set()
    for f, stated in zip(basis.functions, basis.pole_orders_at_O):
        v_inf = valuation(f, INFINITY)
        if -v_inf != stated:
            raise FunctionError(
                f"pole order at O is {-v_inf}, basis claims {stated}")
        if v_inf + basis.divisor.multiplicity(INFINITY) < 0:
            raise FunctionError(f"{f} violates the bound at O")
        for p in curve.points():
            if p.is_infinity:
                continue
            if valuation(f, p) + basis.divisor.multiplicity(p) < 0:
                raise FunctionError(f"{f} has a disallowed pole at {p}")
        pole_orders.add(stated)
    if len(pole_orders) != len(basis.functions):
        raise FunctionError("pole orders at O are not pairwise distinct")
    if len(basis.functions) != basis.divisor.degree():
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
