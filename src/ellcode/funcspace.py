"""The Riemann-Roch space L((k-1)O + Q) of both constructions, on encodings.

Q is a rational 2-torsion point: (0, gamma1) on y^2 + xy = x^3 + a2 x^2 + a6
in characteristic 2, (beta, 0) otherwise.  `rr_basis` checks G and returns
`RRBasis`, the handle (curve, Q, k) that the closed forms read, with Q and
the points as the (x, y) encoding pairs a certificate writes.  The basis is
1, u, x, u x, x^2, ..., with pole orders 0, ..., k-1 at O, where
u = (y - gamma1)/x in characteristic 2 and y/(x - beta) otherwise.
Two closed forms serve `isodual`'s construct and verify, with no k^3
elimination and no evaluated basis: `systematic_rows`, the RREF [I | A] of
the basis evaluated at the points when the first k points are k/2 whole
pairs {P, -P} (the elliptic analogue of the Cauchy systematic form of GRS
codes), with the rank-2 factors of its displacement D_alpha A - A D_x, and
`point_moments`, the 3(k-1) sums S[e][t] = sum_j w_j u_j^e x_j^t, the
entries S[e + e'][a + a'] at u^e x^a, u^e' x^a' of the Gram of the
evaluated basis under weights w, whose Hankel blocks `isodual` ranks for
the hull.  The evaluated basis itself (`rr_basis_rows` in
`tests/oracle.py`), its RREF and `linalg.gram` are their test references;
where `systematic_rows` does not apply, the verifier has no code.
The symbolic layer, divisors, rational functions (a(x) + b(x) y) / c(x),
valuations and the check div f + G >= 0 of each basis function, is the
tests' reference, not part of the library.  `evaluate` (such a function at
a `Point`) and `interpolation_poly` remain on `FieldElement` polynomials
for the benchmark's span table, which wraps them; no op calls either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import gf
from .gf import FieldElement, Poly
from .curve import Curve, Point


class FunctionError(ValueError):
    """Invalid Riemann-Roch data or an evaluation at a pole."""


def evaluate(f, p: Point) -> FieldElement:
    """(a(x) + b(x) y) / c(x) at an affine point away from poles of f, for
    any f with polynomials `a`, `b` and `c`."""
    if p.is_infinity:
        raise FunctionError("cannot evaluate at the place at infinity")
    cx = gf.poly_eval(f.c, p.x)
    if not cx:
        raise FunctionError(f"pole or indeterminacy at {p} (denominator vanishes)")
    num = gf.poly_eval(f.a, p.x) + gf.poly_eval(f.b, p.x) * p.y
    return num / cx


@dataclass(frozen=True)
class RRBasis:
    """The checked handle (curve, Q, k) of the basis x^i, u x^i of L(G),
    G = (k-1)O + Q, with pole orders 0, ..., k-1 at O and Q an encoded
    (x, y) pair: the closed forms read it alone."""

    curve: Curve
    point: tuple[int, int]
    k: int


def rr_basis(curve: Curve, k: int, q2: Optional[tuple[int, int]]) -> RRBasis:
    """The basis of L((k-1)O + Q) for a 2-torsion point Q, |basis| = k, with
    Q as its (x, y) encodings (None is O).

    Even characteristic needs the curve shape y^2 + xy = x^3 + a2 x^2 + a6
    with Q = (0, gamma1); odd characteristic needs Q = (beta, 0).  Q is
    checked on the curve's group law, Q + Q = O for order 2.  Each
    violation, or a coordinate outside [0, q), raises `FunctionError`.
    """
    spec, law = curve.spec, curve._law
    if k < 2 or k % 2:
        raise FunctionError(f"k must be even and >= 2, got {k}")
    if q2 is not None and not all(0 <= c < spec.q for c in q2):
        raise FunctionError(f"Q = {q2} has a coordinate outside [0, {spec.q})")
    if q2 is None or not law.contains(q2):
        raise FunctionError("Q must be an affine rational point on the curve")
    if law.add(q2, q2) is not None:
        raise FunctionError("Q must have order 2")
    a1, _, a3, a4, _ = curve.coefficients()
    if spec.p == 2:
        if (a1, a3, a4) != (1, 0, 0):
            raise FunctionError(
                "even characteristic needs the curve shape y^2+xy = x^3+a2x^2+a6")
        if q2[0] != 0:
            raise FunctionError("even-characteristic Q must be (0, gamma1)")
    elif q2[1] != 0:
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
            num, den = sub(y, q2[1]), x
        else:
            num, den = y, sub(x, q2[0])
        if den == 0:
            raise FunctionError(f"pole or indeterminacy at ({x},{y}) (denominator vanishes)")
        out.append(mul(num, inv(den)))
    return out


def systematic_rows(basis: RRBasis, points: Sequence[tuple[int, int]]
                    ) -> Optional[tuple[list[list[int]], tuple[list, list]]]:
    """The RREF [I | A] of the basis evaluated at the points, in closed
    form, with the rank-2 factors (P, Q) of its displacement R, or None
    where the closed form does not apply.

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
    the basis, so the rows lie in the span of the evaluated basis for any
    points, on the curve or not.  In logs, entry (i, j) after the first k
    columns is the column factor prod_r (x_j - alpha_r) over
    x_j - alpha_r(i), times u_j - u(P_i'), over f_i(P_i).  A point at a
    pole of u raises `FunctionError` (`_u_values`).

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
    sub, log, exp, zexp, q1 = spec.sub_enc, spec._log, spec._exp, spec._zexp, spec.q - 1
    alphas = list(pairs)
    # diff[r][c]: x_j - alpha_r for the c-th point after the first k
    diff = [[sub(x, a) for x in xs[k:]] for a in alphas]
    if any(0 in row for row in diff):
        return None
    ldiff = [[log[d] for d in row] for row in diff]
    column = [sum(col) % q1 for col in zip(*ldiff)]
    rows = [[0] * i + [1] + [0] * (k - 1 - i) for i in range(k)]
    p_cols = [[0] * k, [0] * k]
    for r, a in enumerate(alphas):
        # log of prod_{r' != r} (alpha_r - alpha_r')
        lh = sum(log[sub(a, b)] for b in alphas if b != a)
        base = [c - d for c, d in zip(column, ldiff[r])]
        for i, partner in (pairs[a], pairs[a][::-1]):
            up = us[partner]
            linv = -(lh + log[sub(us[i], up)]) % q1     # log 1/L_i
            rows[i] += [zexp[(b + linv) % q1 + log[d]]
                        for b, d in zip(base, [sub(u, up) for u in us[k:]])]
            p_cols[0][i] = exp[linv]
            p_cols[1][i] = zexp[linv + log[up]]
    neg = spec.neg_enc
    q_rows = [[neg(zexp[c + log[u]]) for c, u in zip(column, us[k:])],
              list(map(exp.__getitem__, column))]
    return rows, (p_cols, q_rows)


def point_moments(basis: RRBasis, points: Sequence[tuple[int, int]],
                  w: Optional[Sequence[int]] = None) -> list[list[int]]:
    """[S0, S1, S2], S[e][t] = sum_j w_j u_j^e x_j^t for t <= k - 2, w all 1
    when None: 3(k - 1) terms per distinct x, one packed step per (x, e) in
    characteristic 2 (x^t a strided slice of the exp bytes; `FieldSpec`
    caps m at 8, so every such field packs), a term loop for odd q.
    A point at a pole of u raises `FunctionError` (`_u_values`).
    Every moment at the iso-dual scaling w = v is 0 (residue theorem).  At
    w = 1 over whole pairs {P, -P}, S1 = 0 if a1 = a3 = 0 (u(-P) = -u(P)),
    and S0 = 0, S1 = S2 in characteristic 2 (a1 = 1, u(-P) = u(P) + 1)."""
    spec, k = basis.curve.spec, basis.k
    add, mul, log, zexp = spec.add_enc, spec.mul_enc, spec._log, spec._zexp
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
            moments[e] = [add(s, zexp[lc + lp]) for s, lp in zip(moments[e], lpow)]
    return moments


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
