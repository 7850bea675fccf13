"""Elliptic curves in general Weierstrass form over GF(q).

One chord-tangent code path covers every characteristic, matching the
curve shapes used on both the even and odd sides of the constructions.
The group law runs on integer encodings: inside this module a point is an
``(x_enc, y_enc)`` tuple, or None for the point at infinity, and the
arithmetic indexes the field's exp/log tables directly.  `Point` and
`FieldElement` are the API layer, built only where a result leaves the
curve.

`Curve.group_structure` is the one place that works out point orders: its
walk over E(F_q) = Z/d1 x Z/d2 is the one discrete-log table, keyed by
encoded points, and orders and torsion are read from it.  It scans one
point of each pair {P, -P} and fills each row's mirror by negation, in
about #E/2 additions.  Its basis and the enumeration behind it, which
reads odd-characteristic square roots from log parity, are encoded too;
`points` and `torsion_points` build `Point`s only for what they return.
`isodual`'s construct and verify read the encoded torsion, group law and
structure directly, so their points and Qa stay ``(x_enc, y_enc)`` pairs,
the certificate's own encoding, and they build no `Point`.

Point lists are always produced in canonical order (infinity first, then
lexicographic by encoded coordinates) so downstream artifacts are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from math import gcd, isqrt, lcm
from typing import Optional

from .gf import _MAX_Q, FieldElement, FieldSpec, factorize


class CurveError(ValueError):
    """Invalid curve data or a point/curve mismatch."""


class Point:
    """A rational point: affine (x, y) or the point at infinity."""

    __slots__ = ("x", "y")

    def __init__(self, x: Optional[FieldElement], y: Optional[FieldElement]):
        if (x is None) != (y is None):
            raise CurveError("affine points need both coordinates")
        self.x = x
        self.y = y

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def key(self) -> tuple[int, int]:
        """Canonical sort key; infinity sorts first."""
        if self.x is None:
            return (-1, -1)
        return (self.x.enc, self.y.enc)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        if self.x is None or other.x is None:
            return self.x is None and other.x is None
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        if self.x is None:
            return hash(("inf",))
        return hash((self.x.enc, self.y.enc))

    def __repr__(self) -> str:
        if self.x is None:
            return "O"
        return f"({self.x.enc},{self.y.enc})"


INFINITY = Point(None, None)


@dataclass(frozen=True)
class GroupStructure:
    """E(F_q) as Z/d1 x Z/d2 with d1 | d2, plus a basis and full dlog table.

    The basis (p1, p2) and the keys of ``dlog``, the walk's own table, are
    encoded points, None for O.
    """

    d1: int
    d2: int
    basis: tuple[Optional[tuple[int, int]], Optional[tuple[int, int]]]
    dlog: dict[Optional[tuple[int, int]], tuple[int, int]]


def _enc(p: Point) -> Optional[tuple[int, int]]:
    return None if p.x is None else (p.x.enc, p.y.enc)


class _GroupLaw:
    """The chord-tangent group law of one curve on encoded points.

    The closures bind the field's exp/log tables and its integer add,
    subtract and negate once.  Points passed in must lie on the curve.
    """

    __slots__ = ("add", "neg", "mul", "rhs", "contains")

    def __init__(self, spec: FieldSpec, a1: int, a2: int, a3: int, a4: int,
                 a6: int):
        zexp, log = spec._zexp, spec._log
        qm1 = spec.q - 1
        fadd, fsub, fneg = spec.add_enc, spec.sub_enc, spec.neg_enc
        two, three = 2 % spec.p, 3 % spec.p

        def fmul(a: int, b: int) -> int:
            return zexp[log[a] + log[b]]

        def fdiv(a: int, b: int) -> int:
            return zexp[log[a] + qm1 - log[b]]

        def rhs(x: int) -> int:
            return fadd(fmul(fadd(fmul(fadd(x, a2), x), a4), x), a6)

        def contains(pt) -> bool:
            if pt is None:
                return True
            x, y = pt
            return fmul(y, fadd(fadd(y, fmul(a1, x)), a3)) == rhs(x)

        def neg(pt):
            if pt is None:
                return None
            x, y = pt
            return (x, fneg(fadd(fadd(y, fmul(a1, x)), a3)))

        def add(pt, qt):
            if pt is None:
                return qt
            if qt is None:
                return pt
            x1, y1 = pt
            x2, y2 = qt
            if x1 != x2:
                lam = fdiv(fsub(y2, y1), fsub(x2, x1))
            else:
                # same x: qt is pt or -pt, and pt = -pt on a vertical tangent
                den = fadd(fadd(fmul(two, y1), fmul(a1, x1)), a3)
                if y1 != y2 or not den:
                    return None
                num = fadd(fadd(fmul(three, fmul(x1, x1)), fmul(two, fmul(a2, x1))),
                           fsub(a4, fmul(a1, y1)))
                lam = fdiv(num, den)
            x3 = fsub(fadd(fmul(lam, lam), fmul(a1, lam)), fadd(fadd(a2, x1), x2))
            y3 = fsub(fmul(lam, fsub(x1, x3)), fadd(fadd(y1, fmul(a1, x3)), a3))
            return (x3, y3)

        def mul(n: int, pt):
            if n < 0:
                n, pt = -n, neg(pt)
            acc = None
            while n:
                if n & 1:
                    acc = add(acc, pt)
                n >>= 1
                if n:
                    pt = add(pt, pt)
            return acc

        self.add, self.neg, self.mul = add, neg, mul
        self.rhs, self.contains = rhs, contains


class Curve:
    """y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6 over a FieldSpec."""

    __slots__ = ("spec", "a1", "a2", "a3", "a4", "a6", "_law", "_encoded",
                 "_structure")

    def __init__(self, spec: FieldSpec, a1, a2, a3, a4, a6):
        self.spec = spec
        self.a1 = spec.element(a1)
        self.a2 = spec.element(a2)
        self.a3 = spec.element(a3)
        self.a4 = spec.element(a4)
        self.a6 = spec.element(a6)
        if not self.discriminant():
            raise CurveError("curve is singular (zero discriminant)")
        self._law = _GroupLaw(spec, *self.coefficients())
        self._encoded: Optional[list] = None
        self._structure: Optional[GroupStructure] = None

    @classmethod
    def from_string(cls, spec: FieldSpec, text: str) -> "Curve":
        """Parse ``a1,a2,a3,a4,a6`` as canonical encodings."""
        parts = [t.strip() for t in text.split(",")]
        if len(parts) != 5:
            raise CurveError(f"curve spec {text!r} needs 5 coefficients")
        try:
            encs = [int(t) for t in parts]
        except ValueError:
            raise CurveError(f"cannot parse curve spec {text!r}") from None
        return cls(spec, *encs)

    def to_string(self) -> str:
        return ",".join(str(c.enc) for c in (self.a1, self.a2, self.a3, self.a4, self.a6))

    def coefficients(self) -> tuple[int, int, int, int, int]:
        return (self.a1.enc, self.a2.enc, self.a3.enc, self.a4.enc, self.a6.enc)

    def discriminant(self) -> FieldElement:
        """Standard b2/b4/b6/b8 discriminant, valid in every characteristic."""
        s = self.spec
        two, three, four = s.element(2 % s.p), s.element(3 % s.p), s.element(4 % s.p)
        eight, nine = s.element(8 % s.p), s.element(9 % s.p)
        ts = s.element(27 % s.p)
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + four * a2
        b4 = two * a4 + a1 * a3
        b6 = a3 * a3 + four * a6
        b8 = (a1 * a1 * a6 + four * a2 * a6 - a1 * a3 * a4
              + a2 * a3 * a3 - a4 * a4)
        return (-(b2 * b2 * b8) - eight * (b4 ** 3) - ts * (b6 * b6)
                + nine * b2 * b4 * b6)

    # -- encodings <-> API points ---------------------------------------------

    def _point(self, e: Optional[tuple[int, int]]) -> Point:
        if e is None:
            return INFINITY
        spec = self.spec
        return Point(FieldElement(spec, e[0]), FieldElement(spec, e[1]))

    # -- point predicates ---------------------------------------------------

    def is_on_curve(self, p: Point) -> bool:
        if not p.is_infinity and p.x.spec != self.spec:
            raise CurveError("point and curve live over different fields")
        return self._law.contains(_enc(p))

    # -- group law ------------------------------------------------------------

    def add(self, p: Point, q: Point) -> Point:
        return self._point(self._law.add(_enc(p), _enc(q)))

    def mul(self, n: int, p: Point) -> Point:
        return self._point(self._law.mul(n, _enc(p)))

    # -- enumeration & structure ---------------------------------------------

    def points(self) -> list[Point]:
        """All rational points in canonical order, infinity first."""
        return [self._point(e) for e in self._enumerate()]

    def _enumerate(self) -> list:
        """The encoded points in canonical order, None (O) first; cached.

        Odd characteristic solves (y + b/2)^2 = c + b^2/4, b = a1 x + a3, or
        y^2 = c when a1 = a3 = 0: the roots are +-exp(log(c)/2) when log(c)
        is even, and there are none when it is odd."""
        if self._encoded is not None:
            return self._encoded
        s = self.spec
        a1, a3 = self.a1.enc, self.a3.enc
        add, sub, neg, mul = s.add_enc, s.sub_enc, s.neg_enc, s.mul_enc
        rhs = self._law.rhs
        affine = []
        if s.p == 2:
            for x in range(s.q):
                b = add(mul(a1, x), a3)
                c = rhs(x)
                if not b:
                    affine.append((x, s.sqrt_enc(c)))
                else:
                    z = s.artin_solve(mul(c, s.inv_enc(mul(b, b))))
                    if z is not None:
                        y = mul(b, z)
                        affine += [(x, y), (x, add(y, b))]
        else:
            exp, log, half = s._exp, s._log, s.inv_enc(2 % s.p)
            for x in range(s.q):
                c, shift = rhs(x), 0
                if a1 or a3:
                    shift = mul(add(mul(a1, x), a3), half)
                    c = add(c, mul(shift, shift))
                if not c:
                    affine.append((x, neg(shift)))
                elif not log[c] & 1:
                    r = exp[log[c] >> 1]
                    affine += [(x, sub(r, shift)), (x, sub(neg(r), shift))]
        affine.sort()
        self._encoded = [None] + affine
        return self._encoded

    def order(self) -> int:
        return len(self._enumerate())

    def point_order(self, p: Point) -> int:
        """Least n >= 1 with [n]p = O, read from the group-structure walk."""
        if not self.is_on_curve(p):
            raise CurveError(f"{p} is not on the curve")
        st = self.group_structure()
        i, j = st.dlog[_enc(p)]
        return lcm(st.d1 // gcd(i, st.d1), st.d2 // gcd(j, st.d2))

    def torsion_points(self, r: int) -> list[Point]:
        """E[r] in canonical order: the points with d1 | r*i and d2 | r*j."""
        return [self._point(e) for e in self._torsion(r)]

    def _torsion(self, r: int) -> list:
        """E[r] as encoded points, None (O) first, in canonical order."""
        if r < 1:
            raise CurveError("torsion order must be positive")
        st = self.group_structure()
        d1, d2, dlog = st.d1, st.d2, st.dlog
        return [e for e in self._encoded
                if (r * dlog[e][0]) % d1 == 0 and (r * dlog[e][1]) % d2 == 0]

    def group_structure(self) -> GroupStructure:
        """(d1, d2), a basis (p1, p2) and the dlog of every point.

        p2 is the smallest-key point of order d2, the group's exponent.
        Points are scanned in canonical order, each one's order found by
        descent over the primes of #E.  A point whose order d2 is the lcm
        of the orders so far is tried as p2: p1 is the smallest-key point
        of order d1 = #E / d2 whose grid {i*p1 + j*p2} covers the group.
        Such a p1 exists exactly when d2 is the exponent, so the first
        point that gets one is the p2 of the rule.  The grid covers the
        group iff <p1> n <p2> = {O}, that is iff for each prime l | d1 the
        order-l point (d1/l)*p1 is not a multiple of p2, so p1 is chosen by
        that test and only its grid is walked.  P and -P, side by side on
        one x, share their order and the p1 test (<p2> = -<p2>), so both
        scans read the first point on each x; O and a point alone on its x
        (order 2) need no descent.  The walk is the dlog table; -(i*p1 +
        j*p2) is at (-i mod d1, -j mod d2), so each row fills its mirror by
        negation, in about #E/2 additions in all.  The order of
        the point at (i, j) is lcm(d1 / gcd(i, d1), d2 / gcd(j, d2)).
        """
        if self._structure is not None:
            return self._structure
        pts = self._enumerate()
        n = len(pts)
        add, neg, mul = self._law.add, self._law.neg, self._law.mul

        def firsts():
            return (next(on_x) for _, on_x in groupby(pts, lambda pt: pt and pt[0]))

        primes = list(factorize(n))
        lcm_so_far, tried = 1, set()
        for p2 in firsts():
            # O has order 1, and a point alone on its x (P = -P) order 2
            d2 = 1 if p2 is None else 2 if neg(p2) == p2 else _order(mul, p2, n, primes)
            lcm_so_far = lcm(lcm_so_far, d2)
            d1 = n // d2
            if d2 != lcm_so_far or d2 in tried or d2 % d1 or (self.spec.q - 1) % d1:
                continue
            tried.add(d2)
            row = {}
            _walk_row(row, add, neg, None, p2, 0, 0, d2)
            cofactors = [d1 // ell for ell in factorize(d1)]
            # (d1/l)*p1 outside <p2>, which holds O, also makes ord(p1) = d1
            for p1 in firsts():
                if (mul(d1, p1) is None
                        and all(mul(c, p1) not in row for c in cofactors)):
                    break
            else:
                continue        # no p1 for this p2
            break
        else:
            raise CurveError("no basis of the group found")
        coords = _grid(add, neg, row, p1, p2, d1, d2)
        if len(coords) != n:
            raise CurveError("the basis grid does not cover the group")
        self._structure = GroupStructure(d1, d2, (p1, p2), coords)
        return self._structure

    def __repr__(self) -> str:
        return f"Curve({self.spec!r}; {self.to_string()})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Curve) and other.spec == self.spec
                and other.coefficients() == self.coefficients())

    def __hash__(self) -> int:
        return hash((self.spec, self.coefficients()))


def _order(mul, pt, m: int, primes) -> int:
    """ord(pt), for a multiple m of it whose prime factors are `primes`."""
    for ell in primes:
        while m % ell == 0 and mul(m // ell, pt) is None:
            m //= ell
    return m


def _walk_row(coords: dict, add, neg, cur, p2, i: int, mirror: int, d2: int) -> None:
    """Enter cur + j*p2, cur = i*p1, as (i, j) and its negation as (mirror,
    -j mod d2), mirror = -i mod d1; a row its own mirror stops at j = d2/2."""
    for j in range(d2 if mirror != i else d2 // 2 + 1):
        coords[cur] = (i, j)
        coords[neg(cur)] = (mirror, -j % d2)
        cur = add(cur, p2)


def _grid(add, neg, row: dict, p1, p2, d1: int, d2: int) -> dict:
    """{i*p1 + j*p2: (i, j)} over the d1 x d2 grid.

    `row` is the first row, the multiples of p2 keyed to (0, j).
    """
    coords = dict(row)
    base = p1
    for i in range(1, d1 // 2 + 1):
        _walk_row(coords, add, neg, base, p2, i, d1 - i, d2)
        base = add(base, p1)
    return coords


# ---------------------------------------------------------------------------
# admissible group orders (exact characterization over any prime power)
# ---------------------------------------------------------------------------

def check_field_size(q: int) -> None:
    """`CurveError` unless 2 <= q and q is at most the field-size cap that
    `FieldSpec` enforces, so no factorization starts on an out-of-range q."""
    if q < 2:
        raise CurveError(f"q={q} is not a prime power")
    if q > _MAX_Q:
        raise CurveError(f"q={q} exceeds the supported field size {_MAX_Q}")


def feasible_orders(q: int) -> list[tuple[int, int, str]]:
    """Every admissible #E(F_q) = q + 1 - beta with the case that admits it.

    Cases (a)-(e) on beta: coprimality with p, and the square/trace
    exceptions depending on the parity of n and p mod 3 / mod 4.
    """
    check_field_size(q)
    fac = factorize(q)
    if len(fac) != 1:
        raise CurveError(f"q={q} is not a prime power")
    (p, n), = fac.items()
    bound = isqrt(4 * q)
    out = []
    for beta in range(-bound, bound + 1):
        case = None
        if gcd(abs(beta), p) == 1 and beta != 0:
            case = "a"
        elif n % 2 == 0 and beta * beta == 4 * q:
            case = "b"
        elif n % 2 == 0 and p % 3 != 1 and beta * beta == q:
            case = "c"
        elif n % 2 == 1 and p in (2, 3) and beta * beta == p ** (n + 1):
            case = "d"
        elif beta == 0 and (n % 2 == 1 or p % 4 != 1):
            case = "e"
        if case is not None:
            out.append((q + 1 - beta, beta, case))
    out.sort()
    return out


def odd_part(n: int) -> int:
    """n with every factor 2 divided out; n must be positive."""
    if n < 1:
        raise ValueError(f"odd_part needs a positive integer, got {n}")
    while n % 2 == 0:
        n //= 2
    return n
