"""Batch curve enumeration, length-bound tables, and the small-group
searcher for the combinatorial maximal-length lemma.

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
from itertools import combinations
from math import isqrt
from typing import Callable, Optional, Sequence

from .gf import FieldSpec, factorize
from .curve import Curve, CurveError, GroupStructure, feasible_orders, odd_part
from .code import subset_sum_reachable
from .isodual import (ConstructionInput, ConstructionError,
                      IsoDualCertificate, canonical_json, construct)


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


def floor_2sqrt(q: int) -> int:
    """Exact integer floor(2 sqrt(q)) via isqrt(4q); no floating point."""
    return isqrt(4 * q)


def construction_length_cap(q: int, order: int) -> Optional[int]:
    """Largest code length either construction can reach on a curve of the
    given order, or None when neither applies."""
    p = next(iter(factorize(q)))
    m = odd_part(order)
    if p == 2:
        if order % 2:
            return None
        n = (m - 1) - (m - 1) % 4
        return n if n >= 4 else None
    if order % 4:
        return None
    n = 2 * m - 2
    return n if n >= 4 else None


def length_bound(q: int) -> tuple[int, int]:
    """(bound_n, order attaining it) maximized over admissible orders."""
    best = None
    best_order = None
    for order, _beta, _case in feasible_orders(q):
        cap = construction_length_cap(q, order)
        if cap is not None and (best is None or cap > best
                                or (cap == best and order < best_order)):
            best, best_order = cap, order
    if best is None:
        raise CurveError(f"no admissible order over GF({q}) supports a construction")
    return best, best_order


def bound_table(qs: Sequence[int], achieve: bool = False,
                progress: bool = False) -> list[BoundTableRow]:
    """One row per q with the attainable bound; optionally run the
    catalogued witness construction (or enumerate, for small q) to fill
    achieved_n."""
    rows = []
    for q in qs:
        p = next(iter(factorize(q)))
        if p == 2:
            case = "even-square" if isqrt(q) ** 2 == q else "even-nonsquare"
        else:
            case = "odd"
        bound, order = length_bound(q)
        achieved = None
        witness = None
        if achieve:
            if progress:
                print(f"bound_table: constructing witness for q={q}", file=sys.stderr)
            witness = _achieve(q, bound, order)
            achieved = witness.n
        rows.append(BoundTableRow(q, case, bound, achieved, witness))
    return rows


def _achieve(q: int, bound: int, order: int) -> IsoDualCertificate:
    entry = BOUND_WITNESSES.get(q)
    if entry is not None:
        spec = FieldSpec.from_string(entry["field"])
        curve = Curve.from_string(spec, entry["curve"])
    else:
        curve = _find_curve_with_order(q, order)
    construction = 1 if curve.spec.p == 2 else 2
    cert = construct(ConstructionInput(curve, bound // 2, construction))
    if cert.n != bound:
        raise ConstructionError(f"witness length {cert.n} != bound {bound}")
    return cert


def _find_curve_with_order(q: int, order: int) -> Curve:
    if q > ENUMERATION_CAP:
        raise CurveError(f"no catalogued witness for q={q} and enumeration "
                         f"is capped at q <= {ENUMERATION_CAP}")
    for curve in _curve_family(q):
        if curve.order() == order:
            return curve
    raise CurveError(f"no enumerated curve over GF({q}) has order {order}")


# ---------------------------------------------------------------------------
# curve enumeration
# ---------------------------------------------------------------------------

ENUMERATION_CAP = 512


def _default_spec(q: int) -> FieldSpec:
    """Smallest-encoding irreducible monic modulus for GF(q)."""
    fac = factorize(q)
    if len(fac) != 1:
        raise CurveError(f"q={q} is not a prime power")
    (p, m), = fac.items()
    if m == 1:
        return FieldSpec(p, 1, [0, 1])
    from .gf import _is_irreducible
    for mask in range(p ** m):
        coeffs = []
        val = mask
        for _ in range(m):
            coeffs.append(val % p)
            val //= p
        mod = coeffs + [1]
        if _is_irreducible(mod, p):
            return FieldSpec(p, m, mod)
    raise CurveError(f"no irreducible modulus found for GF({q})")


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
    elif p == 3:
        for a2 in range(q):
            for a4 in range(q):
                for a6 in range(q):
                    try:
                        yield Curve(spec, 0, a2, 0, a4, a6)
                    except CurveError:
                        continue
    else:
        for a4 in range(q):
            for a6 in range(q):
                try:
                    yield Curve(spec, 0, 0, 0, a4, a6)
                except CurveError:
                    continue


def enumerate_curves(q: int,
                     predicate: Optional[Callable[[Curve, int], bool]] = None,
                     with_structure: bool = True,
                     progress: bool = False
                     ) -> list[tuple[Curve, int, Optional[GroupStructure]]]:
    """All nonsingular curves of the canonical families over GF(q)."""
    if q > ENUMERATION_CAP:
        raise CurveError(f"enumeration cap is q <= {ENUMERATION_CAP}")
    out = []
    for i, curve in enumerate(_curve_family(q)):
        if progress and i % 500 == 0:
            print(f"enumerate_curves: {i} candidates scanned", file=sys.stderr)
        order = curve.order()
        if predicate is not None and not predicate(curve, order):
            continue
        structure = curve.group_structure() if with_structure else None
        out.append((curve, order, structure))
    return out


def realized_orders(q: int) -> list[int]:
    """Orders attained by the enumerated families, sorted and deduplicated."""
    seen = set()
    for curve in _curve_family(q):
        seen.add(curve.order())
    return sorted(seen)


# ---------------------------------------------------------------------------
# maximal-length lemma searcher
# ---------------------------------------------------------------------------

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

def max_length_probe(q: int, curves: Optional[Sequence[Curve]] = None,
                     progress: bool = False) -> list[dict]:
    """Run every applicable construction size on each curve and confirm
    the produced lengths respect n <= #E / 2."""
    if q > 64:
        raise CurveError("probe cap is q <= 64")
    if curves is None:
        curves = [c for c, _, _ in enumerate_curves(q, with_structure=False)]
    rows = []
    for idx, curve in enumerate(curves):
        if progress and idx % 50 == 0:
            print(f"max_length_probe: curve {idx}/{len(curves)}", file=sys.stderr)
        order = curve.order()
        m = odd_part(order)
        construction = None
        if curve.spec.p == 2:
            if (curve.a1.enc, curve.a3.enc, curve.a4.enc) == (1, 0, 0) \
                    and order % 2 == 0:
                construction = 1
                ks = [k for k in range(2, (m - 1) // 2 + 1, 2)]
        else:
            if len(curve.torsion_points(2)) == 4:
                construction = 2
                ks = [k for k in range(2, m, 2)]
        row = {"field": curve.spec.to_string(), "curve": curve.to_string(),
               "order": order, "applicable": construction is not None,
               "max_n": None, "bound": order // 2, "ok": True, "certificates": 0}
        if construction is not None:
            for k in ks:
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
