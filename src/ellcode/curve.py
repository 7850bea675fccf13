"""Elliptic curves in general Weierstrass form over GF(q).

One chord-tangent code path covers every characteristic, matching the
curve shapes used on both the even and odd sides of the constructions.
A curve keeps its coefficients as five integer encodings, and its
discriminant, group law, count and walks run on encodings: inside this
module a point is an ``(x_enc, y_enc)`` tuple, or None for the point at
infinity, and the arithmetic indexes the field's exp/log tables directly.
`Point` and `FieldElement` are the API edge, built only in
`Curve._point`, where a result leaves the curve.

#E comes with no point listed (`Curve.order`), and `_on_each_x`, the one
source of points, gives `_basis` the first point on each x as it reads.
`_basis` is the one place that works out point orders: it finds the
basis (p1, p2) of E(F_q) = Z/d1 x Z/d2 from one point of each pair
{P, -P}, with no walk.  Walks fill the one discrete-log table, keyed by
encoded points: E[r], g_i = gcd(r, d_i), is the g1 x g2 grid of
(d1/g1)*p1 and (d2/g2)*p2, each row's mirror filled by negation, and a
translate of two table points enters at their coordinates' sum.  An op
walks E[2] and E[odd part] and translates by Qa and Qb, so the MDS witness
reads its dlogs there; `group_structure`, which the witness calls only for
a point off them, walks E(F_q) whole in about #E/2 additions.  `points`
and `torsion_points` build `Point`s only for what they return.
`isodual`'s construct and verify read the encoded torsion, group law and
dlogs directly, so their points and Qa stay ``(x_enc, y_enc)`` pairs,
the certificate's own encoding, and they build no `Point`.

Point lists are always produced in canonical order (infinity first, then
lexicographic by encoded coordinates) so downstream artifacts are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, tee
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
    """E(F_q) as Z/d1 x Z/d2 with d1 | d2, plus a basis and a dlog table.

    The basis (p1, p2) and the keys of ``dlog`` are encoded points, None
    for O; ``dlog`` holds what the curve's walks entered, every point after
    `Curve.group_structure`.
    """

    d1: int
    d2: int
    basis: tuple[Optional[tuple[int, int]], Optional[tuple[int, int]]]
    dlog: dict[Optional[tuple[int, int]], tuple[int, int]]


def _enc(p: Point) -> Optional[tuple[int, int]]:
    return None if p.x is None else (p.x.enc, p.y.enc)


class _GroupLaw:
    """The chord-tangent group law of one curve on encoded points.

    The closures bind the field's integer add, subtract and negate once, and
    multiply and divide by indexing ``_zexp`` with a sum of two logs, where
    log 0 reads zero (`FieldSpec`).  Points passed in must lie on the curve.
    """

    __slots__ = ("add", "neg", "mul", "rhs", "contains")

    def __init__(self, spec: FieldSpec, a1: int, a2: int, a3: int, a4: int,
                 a6: int):
        zexp, log = spec._zexp, spec._log
        qm1 = spec.q - 1
        fadd, fsub, fneg = spec.add_enc, spec.sub_enc, spec.neg_enc
        la1, ltwo, lthree = log[a1], log[2 % spec.p], log[3 % spec.p]
        twice_a2 = zexp[ltwo + log[a2]]

        def rhs(x: int) -> int:
            lx = log[x]
            return fadd(zexp[lx + log[fadd(zexp[lx + log[fadd(x, a2)]], a4)]], a6)

        def contains(pt) -> bool:
            if pt is None:
                return True
            x, y = pt
            return zexp[log[y] + log[fadd(fadd(y, zexp[la1 + log[x]]), a3)]] == rhs(x)

        def neg(pt):
            if pt is None:
                return None
            x, y = pt
            return (x, fneg(fadd(fadd(y, zexp[la1 + log[x]]), a3)))

        def add(pt, qt):
            if pt is None:
                return qt
            if qt is None:
                return pt
            x1, y1 = pt
            x2, y2 = qt
            if x1 != x2:
                lam = zexp[log[fsub(y2, y1)] + qm1 - log[fsub(x2, x1)]]
            else:
                # same x: qt is pt or -pt, and pt = -pt on a vertical tangent
                den = fadd(fadd(zexp[ltwo + log[y1]], zexp[la1 + log[x1]]), a3)
                if y1 != y2 or not den:
                    return None
                # 3 x1^2 + 2 a2 x1 + a4 - a1 y1, as x1 (3 x1 + 2 a2) + ...
                num = fadd(zexp[log[x1] + log[fadd(zexp[lthree + log[x1]], twice_a2)]],
                           fsub(a4, zexp[la1 + log[y1]]))
                lam = zexp[log[num] + qm1 - log[den]]
            ll = log[lam]
            x3 = fsub(fadd(zexp[ll + ll], zexp[la1 + ll]), fadd(fadd(a2, x1), x2))
            y3 = fsub(zexp[ll + log[fsub(x1, x3)]], fadd(fadd(y1, zexp[la1 + log[x3]]), a3))
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
    """y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6 over a FieldSpec, kept
    as five encodings, each given as an int or a `FieldElement` of the field."""

    __slots__ = ("spec", "_coeffs", "_glaw", "_count", "_scan", "_structure")

    def __init__(self, spec: FieldSpec, a1, a2, a3, a4, a6):
        self.spec = spec
        self._coeffs = tuple(spec.element(c).enc for c in (a1, a2, a3, a4, a6))
        if not self.discriminant():
            raise CurveError("curve is singular (zero discriminant)")
        self._glaw: Optional[_GroupLaw] = None
        self._count = self._scan = None     # #E, and the scan its count made for `_basis`
        self._structure: Optional[GroupStructure] = None

    @property
    def _law(self) -> _GroupLaw:
        """The group law, built on first use, after any add-table request."""
        if self._glaw is None:
            self._glaw = _GroupLaw(self.spec, *self.coefficients())
        return self._glaw

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
        return ",".join(map(str, self._coeffs))

    def coefficients(self) -> tuple[int, int, int, int, int]:
        return self._coeffs

    def discriminant(self) -> int:
        """The b2/b4/b6/b8 discriminant (Silverman, AEC III.1), valid in
        every characteristic, as an encoding, with b8 = b2 a6 - a1 a3 a4 +
        a2 a3^2 - a4^2.  Products nest two factors at a time, so no
        ``_zexp`` read sums more than two logs of zero."""
        s, (a1, a2, a3, a4, a6) = self.spec, self._coeffs
        mul, add, sub, p = s.mul_enc, s.add_enc, s.sub_enc, s.p
        b2 = add(mul(a1, a1), mul(4 % p, a2))
        b4 = add(mul(2 % p, a4), mul(a1, a3))
        b6 = add(mul(a3, a3), mul(4 % p, a6))
        b8 = sub(add(sub(mul(b2, a6), mul(mul(a1, a3), a4)), mul(a2, mul(a3, a3))),
                 mul(a4, a4))
        return sub(add(s.neg_enc(mul(mul(b2, b2), b8)), mul(9 % p, mul(mul(b2, b4), b6))),
                   add(mul(8 % p, mul(mul(b4, b4), b4)), mul(27 % p, mul(b6, b6))))

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

    # -- the count, the points & structure -------------------------------------

    def points(self) -> list[Point]:
        """All rational points in canonical order, infinity first: E[#E]."""
        return self.torsion_points(self.order())

    def order(self) -> int:
        """#E(F_q), with no point built; cached.  Where m > 1 and every
        coefficient lies in F_p, #E(F_p) by Legendre symbols (directly for
        p = 2) gives the trace s1 = p + 1 - #E(F_p), and s_(i+1) = s1 s_i -
        p s_(i-1), s_0 = 2, gives #E = q + 1 - s_m (Washington, Elliptic
        Curves, Thm 4.12); elsewhere `_on_each_x` counts."""
        if self._count is None:
            s, cs = self.spec, self.coefficients()
            if s.m == 1 or max(cs) >= s.p:
                self._count, self._scan = self._on_each_x(count=True)
            else:
                p, (a1, a2, a3, a4, a6) = s.p, cs
                fx = [(a1 * x + a3, ((x + a2) * x + a4) * x + a6) for x in range(p)]
                s1 = -sum(b % 2 * (1 - c % 2 * 2) if p == 2 else
                          (pow(4 * c + b * b, (p - 1) // 2, p) + 1) % p - 1 for b, c in fx)
                prev, trace = 2, s1
                for _ in range(s.m - 1):
                    prev, trace = trace, s1 * trace - p * prev
                self._count = s.q + 1 - trace
        return self._count

    def _on_each_x(self, count: bool = False):
        """The curve's one source of points: O, then the first (least-y)
        point on each x that has one, in x order, each computed as it is
        read; with `count`, #E and that scan.  Odd characteristic solves
        (y + u)^2 = c, u = (a1 x + a3)/2, c = rhs(x) + u^2: two roots where
        log c is even, one where c = 0.  Characteristic 2 takes sqrt(rhs(x))
        where b = a1 x + a3 = 0, else y = b z, z^2 + z = w = rhs(x)/b^2:
        two roots where the trace of w, the parity of w & mask, is 0."""
        s, (a1, a2, a3, a4, a6) = self.spec, self.coefficients()
        p, q, q1, log, zexp, add = s.p, s.q, s.q - 1, s._log, s._zexp, s.add_enc
        if p == 2:
            rhs, la1 = self._law.rhs, log[a1]
            x0 = zexp[log[a3] + q1 - la1] if a1 else -1

            def firsts():
                for x, lx in zip(range(q), log):
                    b, c = zexp[la1 + lx] ^ a3, rhs(x)
                    if x == x0:
                        yield (x, s.sqrt_enc(c))
                    elif (z := s.artin_solve(zexp[log[c] + 2 * (q1 - log[b])])) is not None:
                        y = zexp[log[b] + log[z]]
                        yield (x, min(y, y ^ b))
            if count:   # bit i of mask: the trace of theta^i, sum_j theta^(i 2^j), is 0 or 1
                mask = sum(sum(zexp[(log[1 << i] << j) % q1] & 1 for j in range(s.m)) % 2 << i
                           for i in range(s.m))
                n = 1 + (x0 >= 0) + 2 * sum(1 ^ (zexp[
                    log[zexp[lx + log[zexp[lx + log[x ^ a2]] ^ a4]] ^ a6]
                    + 2 * (q1 - log[zexp[la1 + lx] ^ a3])] & mask).bit_count() & 1
                    for x, lx in zip(range(q), log) if x != x0)
        else:
            mul, half, sub, neg = s.mul_enc, s.inv_enc(2), s.sub_enc, s.neg_enc
            u1, u3 = mul(a1, half), mul(a3, half)       # c = x^3 + k2 x^2 + k4 x + k6
            k2, k4, k6 = add(a2, mul(u1, u1)), add(a4, mul(a1, u3)), add(a6, mul(u3, u3))
            if s.m == 1:
                cubic = lambda x: (((x + k2) * x + k4) * x + k6) % p
            else:
                cubic = lambda x: add(zexp[log[x] + log[add(zexp[log[x] + log[add(x, k2)]], k4)]],
                                      k6)
            if count:
                cs = list(map(cubic, range(q)))
                n, cubic = 1 + 2 * sum(1 - (log[c] & 1) for c in cs) - cs.count(0), cs.__getitem__

            def firsts():
                for x, lx in zip(range(q), log):
                    if (r := s.sqrt_enc(cubic(x))) is not None:
                        u = add(zexp[log[u1] + lx], u3)
                        yield (x, min(sub(r, u), sub(neg(r), u)))
        scan = chain((None,), firsts())
        return (n, scan) if count else scan

    def point_order(self, p: Point) -> int:
        """Least n >= 1 with [n]p = O, read from the full dlog table."""
        if not self.is_on_curve(p):
            raise CurveError(f"{p} is not on the curve")
        st = self.group_structure()
        i, j = st.dlog[_enc(p)]
        return lcm(st.d1 // gcd(i, st.d1), st.d2 // gcd(j, st.d2))

    def torsion_points(self, r: int) -> list[Point]:
        """E[r] in canonical order, from the walk of its sub-grid alone."""
        return [self._point(e) for e in self._torsion(r)]

    def _torsion(self, r: int) -> list:
        """E[r] as encoded points, None (O) first, in canonical order: the
        points of `_walk(r)`, those at (i, j) with d1 | r*i and d2 | r*j."""
        if r < 1:
            raise CurveError("torsion order must be positive")
        return [None, *sorted(filter(None, self._walk(r)))]

    def group_structure(self) -> GroupStructure:
        """`_basis`, whose p1 test reads the order-l subgroups of <p2> and
        walks nothing, with the dlog of every point: the walk of E[d2] =
        E(F_q) in about #E/2 additions, run once, until the table holds
        `order()` points.  The point at (i, j) has order
        lcm(d1 / gcd(i, d1), d2 / gcd(j, d2))."""
        st = self._basis()
        if len(st.dlog) < self.order():
            self._walk(st.d2)
        return st

    def _basis(self) -> GroupStructure:
        """The structure with no walk: its dlog table holds only what walks
        and translates have entered since; cached.

        p2 is the smallest-key point of order d2, the group's exponent.
        Points are scanned in canonical order, as `_on_each_x` computes
        them, each one's order found by descent over the primes of #E.  A point whose order d2 is the lcm
        of the orders so far is tried as p2: p1 is the smallest-key point
        of order d1 = #E / d2 whose grid {i*p1 + j*p2} covers the group.
        Such a p1 exists exactly when d2 is the exponent, so the first
        point that gets one is the p2 of the rule.  The grid covers the
        group iff <p1> n <p2> = {O}, that is iff for each prime l | d1 the
        point (d1/l)*p1, of order l, is not in the order-l subgroup of
        <p2>, generated by t = (d2/l)*p2.  That subgroup holds O and the
        points on the x's of t, 2t, ..., (l//2)t, so p1's test compares
        one x for l <= 3 and walks no multiple of p2.  P and -P, side by
        side on one x, share their order and the p1 test, so both scans
        read the first point on each x; O and a point alone on its x
        (order 2) need no descent.
        """
        if self._structure is not None:
            return self._structure
        n, head, self._scan = self.order(), tee(self._scan or self._on_each_x(), 1)[0], None
        neg, mul = self._law.neg, self._law.mul
        firsts = head.__copy__      # each scan from O, computing each x once

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
            subgroups = [(d1 // ell, {mul(m * d2 // ell, p2)[0]
                                      for m in range(1, ell // 2 + 1)}) for ell in factorize(d1)]
            # (d1/l)*p1 off O, and so of order l, also makes ord(p1) = d1
            for p1 in firsts():
                if mul(d1, p1) is None and all((u := mul(c, p1)) is not None
                                               and u[0] not in xs for c, xs in subgroups):
                    break
            else:
                continue        # no p1 for this p2
            break
        else:
            raise CurveError("no basis of the group found")
        self._structure = GroupStructure(d1, d2, (p1, p2), {})
        return self._structure

    def _walk(self, r: int) -> dict:
        """E[r]'s dlogs, entered in the table and returned.  With
        g_i = gcd(r, d_i), E[r] is the g1 x g2 grid of s1 = (d1/g1)*p1 and
        s2 = (d2/g2)*p2, each point entered at its coordinates in the full
        group; r = d2 walks all of E(F_q)."""
        st, law = self._basis(), self._law
        (p1, p2), d1, d2 = st.basis, st.d1, st.d2
        c1, c2 = d1 // gcd(r, d1), d2 // gcd(r, d2)
        coords = _grid(law.add, law.neg, (c1, c2), law.mul(c1, p1), law.mul(c2, p2),
                       d1, d2)
        if len(coords) * c1 * c2 != d1 * d2:
            raise CurveError("the basis grid does not cover the group")
        st.dlog.update(coords)
        return coords

    def _translate(self, shift, pts) -> list:
        """[shift + P for P in pts], encoded, each sum entered in the dlog
        table at the sum of the coordinates of shift and P mod (d1, d2)."""
        st, add = self._basis(), self._law.add
        dlog, (si, sj) = st.dlog, st.dlog[shift]
        out = [add(shift, p) for p in pts]
        for p, s in zip(pts, out):
            i, j = dlog[p]
            dlog[s] = ((si + i) % st.d1, (sj + j) % st.d2)
        return out

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


def _grid(add, neg, steps, s1, s2, d1: int, d2: int) -> dict:
    """{a*s1 + b*s2: (a*c1, b*c2)} over the (d1/c1) x (d2/c2) grid, with
    (c1, c2) = steps, s1 the point at (c1, 0) and s2 the one at (0, c2).
    Row i fills row -i mod d1 by negation, so rows 0 and d1/2, their own
    mirrors, stop at j = d2/2."""
    c1, c2 = steps
    coords, base = {}, None
    for i in range(0, d1 // 2 + 1, c1):
        cur, mirror = base, -i % d1
        for j in range(0, d2 if mirror != i else d2 // 2 + 1, c2):
            coords[cur] = (i, j)
            coords[neg(cur)] = (mirror, -j % d2)
            cur = add(cur, s2)
        base = s1 if base is None else add(base, s1)
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
