"""Batch curve enumeration, length-bound tables, and the small-group
searcher for the combinatorial maximal-length lemma.

Every walk of the curve families is bounded by one budget, `WALK_BUDGET`,
counted in curves walked x q (a point count costs about q); the census
and `realized_orders` accept q up to 32, 27 and 113 in characteristic 2,
3 and above, and the probe, charged q x q per curve, up to 16, 9 and 31.
The witness hunt walks at most WALK_BUDGET // q curves and runs only for
q <= HUNT_MAX_Q.  Whether a construction applies to a curve is decided
by the rules `construct` itself enforces, never by a copy of them here.

The length bound per field size is computed from first principles: over
all admissible group orders (an exact characterization), the even-side
construction caps at the largest n = 0 mod 4 with n <= oddpart(#E) - 1,
the odd side at 2 oddpart(#E) - 2 subject to full rational 2-torsion
(4 | #E).  Closed-form expressions in q agree with this wherever they
apply, but the order-maximization form is what the constructions can
actually attain (q = 49 is the telling case: the naive formula gives 30,
the attainable bound is 28).
"""

from __future__ import annotations

import csv
import io
import sys
from dataclasses import dataclass
from itertools import combinations, islice
from math import comb, isqrt
from typing import Optional, Sequence

from .gf import FieldSpec, _is_irreducible, factorize
from .curve import (Curve, CurveError, check_field_size, feasible_orders,
                    odd_part)
from .code import subset_sum_reachable
from .isodual import (ConstructionInput, ConstructionError,
                      IsoDualCertificate, applicable_two_torsion,
                      canonical_json, construct)


@dataclass(frozen=True)
class BoundTableRow:
    q: int
    case: str
    bound_n: int
    achieved_n: Optional[int] = None
    witness: Optional[IsoDualCertificate] = None

    def to_dict(self) -> dict:
        return {"q": self.q, "case": self.case, "bound_n": self.bound_n,
                "achieved_n": self.achieved_n,
                "witness": None if self.witness is None
                else f"{self.witness.field_spec};{self.witness.curve_spec};k={self.witness.k}"}


@dataclass(frozen=True)
class AbelianGroupSpec:
    """Z/d1 x Z/d2; d1 | d2 is not required for the lemma search."""

    d1: int
    d2: int

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise ValueError(
                f"group Z/{self.d1} x Z/{self.d2} needs d1 >= 1 and d2 >= 1")

    @property
    def size(self) -> int:
        return self.d1 * self.d2

    def elements(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.d1) for j in range(self.d2)]


# curves known to realize the maximal admissible order at each catalogued q;
# used to fill achieved_n without an exhaustive curve hunt
BOUND_WITNESSES: dict[int, dict] = {
    16: {"field": "p=2,m=4,mod=1,1,0,0,1", "curve": "1,8,0,0,9", "construction": 1},
    32: {"field": "p=2,m=5,mod=1,0,1,0,0,1", "curve": "1,1,0,0,6", "construction": 1},
    64: {"field": "p=2,m=6,mod=1,1,0,1,1,0,1", "curve": "1,8,0,0,9", "construction": 1},
    256: {"field": "p=2,m=8,mod=1,0,1,1,1,0,0,0,1", "curve": "1,32,0,0,50",
          "construction": 1},
    25: {"field": "p=5,m=2,mod=2,4,1", "curve": "0,0,0,0,1", "construction": 2},
    49: {"field": "p=7,m=2,mod=3,6,1", "curve": "0,0,0,1,3", "construction": 2},
    289: {"field": "p=17,m=2,mod=3,16,1", "curve": "0,0,0,0,1", "construction": 2},
}


def construction_length_cap(q: int, order: int) -> Optional[int]:
    """Largest code length either construction can reach on a curve of the
    given order, or None when neither applies."""
    m = odd_part(order)
    if order % (4 if q % 2 else 2):
        return None
    n = 2 * m - 2 if q % 2 else (m - 1) - (m - 1) % 4
    return n if n >= 4 else None


def length_bound(q: int) -> tuple[int, int]:
    """(bound_n, order attaining it) maximized over admissible orders."""
    caps = [(cap, -order) for order, _beta, _case in feasible_orders(q)
            if (cap := construction_length_cap(q, order)) is not None]
    if not caps:
        raise CurveError(f"no admissible order over GF({q}) supports a construction")
    best, neg_order = max(caps)
    return best, -neg_order


def bound_table(qs: Sequence[int], achieve: bool = False,
                progress: bool = False) -> list[BoundTableRow]:
    """One row per q with the attainable bound; optionally run the
    catalogued witness construction (or hunt for one within the walk
    budget) to fill achieved_n.  Every q is checked against the field-size
    cap, and with achieve an uncatalogued q against `HUNT_MAX_Q`, before
    any row is computed."""
    for q in qs:
        check_field_size(q)
        if achieve and q not in BOUND_WITNESSES and q > HUNT_MAX_Q:
            raise CurveError(f"q={q} has no catalogued witness and exceeds the "
                             f"witness hunt's range q <= {HUNT_MAX_Q}")
    rows = []
    for q in qs:
        case = "odd" if q % 2 else \
            "even-square" if isqrt(q) ** 2 == q else "even-nonsquare"
        bound, order = length_bound(q)
        witness = None
        if achieve:
            if progress:
                print(f"bound_table: constructing witness for q={q}", file=sys.stderr)
            witness = _achieve(q, bound, order)
        rows.append(BoundTableRow(q, case, bound, witness and witness.n, witness))
    return rows


def _achieve(q: int, bound: int, order: int) -> IsoDualCertificate:
    """The catalogued witness, or else the first curve of the attaining
    order on which `construct` succeeds, among the first WALK_BUDGET // q
    curves of the family."""
    construction = 1 if q % 2 == 0 else 2
    entry = BOUND_WITNESSES.get(q)
    if entry is not None:
        curve = Curve.from_string(FieldSpec.from_string(entry["field"]), entry["curve"])
        return construct(ConstructionInput(curve, bound // 2, construction))
    for curve in islice(_curve_family(q), WALK_BUDGET // q):
        if curve.order() == order:
            try:
                return construct(ConstructionInput(curve, bound // 2, construction))
            except ConstructionError:
                continue
    raise CurveError(f"no curve of order {order} among the first {WALK_BUDGET // q} "
                     f"over GF({q}) reaches n = {bound} (walk budget {WALK_BUDGET})")


# ---------------------------------------------------------------------------
# curve enumeration
# ---------------------------------------------------------------------------

# curves walked x q: the q = 113 census (1.44e6) takes about 18 s on 2
# cores; the longest witness hunt, q = 449, walks 2,744 of its 3,340 curves
WALK_BUDGET = 1_500_000

# the walk budget does not count the hunt's witness construct, which grows
# faster than n^2 (0.12 s at n = 140, 0.6 s at n = 272); every uncatalogued
# q <= 512 hunts in under 4 s, and bound_table refuses a larger one at once
HUNT_MAX_Q = 512


def _default_spec(q: int) -> FieldSpec:
    """Smallest-encoding irreducible monic modulus for GF(q), q a prime power
    (x itself when q is prime)."""
    (p, m), = factorize(q).items()
    mods = ([enc // p ** i % p for i in range(m)] + [1] for enc in range(p ** m))
    return FieldSpec(p, m, next(mod for mod in mods if _is_irreducible(mod, p)))


def _curve_family(q: int):
    """Canonical reduced Weierstrass families per characteristic.

    Char 2 splits into the ordinary shape y^2+xy = x^3+a2x^2+a6 and the
    supersingular shape y^2+a3y = x^3+a4x+a6; char 3 keeps the full cubic
    y^2 = x^3+a2x^2+a4x+a6 (the x^2 term cannot be absorbed); p > 3 uses
    short Weierstrass.  Iteration order is ascending encodings.
    """
    spec = _default_spec(q)
    p = spec.p
    if p == 2:
        for a2 in range(q):
            for a6 in range(1, q):
                yield Curve(spec, 1, a2, 0, 0, a6)
        for a3 in range(1, q):
            for a4 in range(q):
                for a6 in range(q):
                    yield Curve(spec, 0, 0, a3, a4, a6)
    else:
        for a2 in range(q if p == 3 else 1):
            for a4 in range(q):
                for a6 in range(q):
                    try:
                        yield Curve(spec, 0, a2, 0, a4, a6)
                    except CurveError:
                        continue


def _charge(q: int, curves: int, curve_cost: int) -> None:
    """`CurveError` when `curves` x `curve_cost` passes `WALK_BUDGET`."""
    if curves * curve_cost > WALK_BUDGET:
        raise CurveError(f"walking {curves} curves over GF({q}) costs {curves} x "
                         f"{curve_cost} = {curves * curve_cost}, which exceeds the "
                         f"walk budget {WALK_BUDGET}")


def _whole_family(q: int, curve_cost: int):
    """The walk of `_curve_family(q)`, or `CurveError` before any work when
    its closed-form size x curve_cost passes `WALK_BUDGET`."""
    check_field_size(q)
    fac = factorize(q)
    if len(fac) != 1:
        raise CurveError(f"q={q} is not a prime power")
    p = next(iter(fac))
    _charge(q, (q - 1) * q * (q + 1) if p == 2 else q ** 3 if p == 3 else q ** 2,
            curve_cost)
    return _curve_family(q)


def census_rows(qs: Sequence[int]) -> list[dict]:
    """The census table: q, curve, order, d1 and d2 of every curve of the
    families over each GF(q), keeping no curve, with progress on stderr.
    Like `bound_table`, it refuses a q past `WALK_BUDGET` before any walk."""
    rows = []
    for q, walk in [(q, _whole_family(q, q)) for q in qs]:     # charges every q first
        for i, curve in enumerate(walk):
            if i % 500 == 0:
                print(f"census_rows: {i} candidates scanned", file=sys.stderr)
            structure = curve.group_structure()
            rows.append({"q": q, "curve": curve.to_string(), "order": curve.order(),
                         "d1": structure.d1, "d2": structure.d2})
    return rows


def realized_orders(q: int) -> list[int]:
    """Orders attained by the enumerated families, sorted and deduplicated."""
    return sorted({curve.order() for curve in _whole_family(q, q)})


# ---------------------------------------------------------------------------
# maximal-length lemma searcher
# ---------------------------------------------------------------------------

# `lemma_max_search` refuses larger inputs before it builds any list; one
# subset costs about 10 us, so the subset cap holds a run near a second
LEMMA_MAX_GROUP = 64
LEMMA_MAX_SUBSETS = 10 ** 5


def lemma_max_search(g_spec: AbelianGroupSpec, n: int
                     ) -> list[tuple[tuple[tuple[int, int], ...], tuple[int, int]]]:
    """Exhaustive counterexample hunt for the subset-sum step of the
    maximal-length argument.

    For every n-subset A and every g not in A with sum(A) = 2g, check
    g in Sigma_{n/2}(A).  Returns every (A, g) violating the claim; an
    empty list means the claim holds for this group and n.  Small groups
    sit outside the largeness hypothesis the proof uses, so results are
    reported rather than asserted.
    """
    d1, d2 = g_spec.d1, g_spec.d2
    size = g_spec.size
    if size % 2:
        raise ValueError("group order must be even")
    if n % 2:
        raise ValueError("n must be even")
    if not size // 2 + 1 <= n <= size:
        raise ValueError(f"n must lie in [{size // 2 + 1}, {size}]")
    if size > LEMMA_MAX_GROUP:
        raise ValueError(f"group order {size} exceeds the lemma search cap "
                         f"of {LEMMA_MAX_GROUP}")
    if comb(size, n) > LEMMA_MAX_SUBSETS:
        raise ValueError(f"C({size}, {n}) = {comb(size, n)} subsets exceed the "
                         f"lemma search cap of {LEMMA_MAX_SUBSETS}")
    elements = g_spec.elements()
    k = n // 2
    out = []
    for combo in combinations(elements, n):
        s = (sum(c[0] for c in combo) % d1, sum(c[1] for c in combo) % d2)
        in_a = set(combo)
        targets = [g for g in elements
                   if ((2 * g[0]) % d1, (2 * g[1]) % d2) == s and g not in in_a]
        if not targets:
            continue
        reach = subset_sum_reachable(combo, k, d1, d2)
        for g in targets:
            if not reach >> (g[0] * d2 + g[1]) & 1:
                out.append((combo, g))
    return out


# ---------------------------------------------------------------------------
# per-curve maximal-length probe
# ---------------------------------------------------------------------------

def max_length_probe(q: int, curves: Optional[Sequence[Curve]] = None) -> list[dict]:
    """Run `construct` at every k = 2, 4, ... < oddpart(#E) on each curve
    (the family over GF(q) when none are given) and confirm the lengths it
    accepts respect n <= #E / 2.  A curve is applicable when its
    characteristic's construction can run on it at all."""
    # a point count and up to q/2 constructs per curve are charged q x q:
    # the largest probe accepted, q = 31, takes 3.7 s
    if curves is None:
        curves = _whole_family(q, q * q)
    else:
        _charge(q, len(curves), q * q)
    rows = []
    for curve in curves:
        order = curve.order()
        construction = 1 if curve.spec.p == 2 else 2
        try:
            applicable_two_torsion(curve, construction)
            applicable = True
        except ConstructionError:
            applicable = False
        row = {"field": curve.spec.to_string(), "curve": curve.to_string(),
               "order": order, "applicable": applicable,
               "max_n": None, "bound": order // 2, "ok": True, "certificates": 0}
        for k in range(2, odd_part(order), 2) if applicable else ():
            try:
                cert = construct(ConstructionInput(curve, k, construction))
            except ConstructionError:
                continue
            row["certificates"] += 1
            row["max_n"] = max(row["max_n"] or 0, cert.n)
            if cert.n > order // 2:
                row["ok"] = False
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# report writers
# ---------------------------------------------------------------------------

def rows_to_csv(rows: Sequence[dict], columns: Sequence[str]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(columns), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({c: row.get(c) for c in columns})
    return buf.getvalue()


def rows_to_json(rows: Sequence[dict]) -> str:
    return canonical_json(list(rows))
