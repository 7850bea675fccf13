"""Independent reference implementations that the tests compare the library
against; `ellcode` never imports this module."""

from functools import reduce
from itertools import combinations
from math import lcm
from typing import Optional, Sequence


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


def scaling_v_product(spec, points, qa) -> Optional[tuple[int, ...]]:
    """v of the constructions from products of encodings: h'(alpha) is the
    product of alpha - beta over the other distinct x's, and v_i is
    1/h'(x_i) in characteristic 2 and (x_i - beta_a)/(h'(x_i) y_i)
    otherwise; None where some v_i is zero or undefined."""
    mul, sub, inv = spec.mul_enc, spec.sub_enc, spec.inv_enc
    xs = {p.x.enc for p in points}
    hp = {a: reduce(mul, (sub(a, b) for b in xs - {a}), 1) for a in xs}
    if spec.p == 2:
        return tuple(inv(hp[p.x.enc]) for p in points)
    beta = qa.x.enc
    entries = [mul(sub(p.x.enc, beta), inv(mul(hp[p.x.enc], p.y.enc)))
               if p.y.enc else 0 for p in points]
    return tuple(entries) if all(entries) else None


def group_structure_grid_walk(curve):
    """(d1, d2, p1, p2, dlog) of E(F_q) on encoded points (None for O): p2
    is the first point, in canonical order, whose order is the group's
    exponent d2, and p1 the first point of order d1 = #E/d2 whose d1 x d2
    grid {i p1 + j p2} holds no repeat; dlog maps each grid point to
    (i, j).  Orders come from the smallest divisor of #E that kills the
    point."""
    pts = curve._enumerate()
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
