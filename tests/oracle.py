"""Independent reference implementations that the tests compare the library
against; `ellcode` never imports this module.

The subset-sum references count k-subsets by group sum: by brute force up
to n around 16, and by the counting DP (`subset_sum_counts`) on inputs too
large for that.  The library's MDS witness only asks whether a sum is
reachable, so the support of these counts is what it must reproduce."""

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
