"""Iso-dual MDS code constructions on elliptic curves, with certificates.

Construction 1 (even characteristic) translates k inverse-closed pairs of
odd-order points by the 2-torsion point Q1 = (0, gamma1) and evaluates
L((k-1)O + Q1); the dual is the same code scaled by v_i = 1/h'(x_i).
Construction 2 (odd characteristic, full rational 2-torsion) translates a
k-point inverse-closed odd-order set by two 2-torsion points Qa, Qb and
scales by v_i = (x_i - beta_a) / (h'(x_i) y_i).

Every constructor verifies its certificate before returning: the iso-dual
identity, the zero subset-sum witness, the hull bound and the length
bound.  A verification failure inside a constructor is an internal error,
not a user error: the construction succeeds whenever its preconditions
hold, so a failed check means a bug.

Evaluation points are always emitted in canonical order (sorted by
encoded coordinates); a pair selection chooses which pairs participate,
never their order.  This is what makes certificates byte-reproducible.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import gf, funcspace
from ._version import __version__
from .gf import FieldSpec
from .curve import Curve, CurveError, Point, INFINITY, odd_part
from .code import LinearCode, ScalingVector, CodeError, mds_subset_check

CERTIFICATE_SCHEMA = "ellcode.isodual-certificate/1"
BRUTE_FORCE_BUDGET = 2 ** 24


class ConstructionError(ValueError):
    """A construction precondition does not hold for the given input."""


class VerificationError(RuntimeError):
    """An internal consistency check failed; indicates a genuine bug."""


class CertificateSchemaError(ValueError):
    """A certificate file violates the schema (malformed, zero v entry...)."""


@dataclass(frozen=True)
class PairSelection:
    """Which odd-order pairs feed the construction.

    mode "canonical": the first pairs in ascending x order.
    mode "torsion":   all non-identity points of E[r] for odd r.
    mode "pairs_x":   explicit x-coordinates; for construction 1 these are
                      the x's of the translated evaluation pairs, for
                      construction 2 the x's of the odd-order pairs
                      themselves.
    """

    mode: str = "canonical"
    r: Optional[int] = None
    pairs_x: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.mode not in ("canonical", "torsion", "pairs_x"):
            raise ConstructionError(f"unknown pair selection mode {self.mode!r}")
        if self.mode == "torsion" and (self.r is None or self.r < 1 or self.r % 2 == 0):
            raise ConstructionError("torsion selection needs an odd r >= 1")
        if self.mode == "pairs_x" and not self.pairs_x:
            raise ConstructionError("pairs_x selection needs x-coordinates")

    def to_dict(self) -> dict:
        return {"mode": self.mode, "r": self.r,
                "pairs_x": list(self.pairs_x) if self.pairs_x else None}

    @classmethod
    def from_dict(cls, d: dict) -> "PairSelection":
        return cls(d["mode"], d.get("r"),
                   tuple(d["pairs_x"]) if d.get("pairs_x") else None)


@dataclass(frozen=True)
class ConstructionInput:
    curve: Curve
    k: int
    construction: int
    torsion_choice: Optional[tuple[int, int]] = None
    pair_selection: PairSelection = field(default_factory=PairSelection)


@dataclass(frozen=True)
class IsoDualCertificate:
    """Full reproducible record of one construction run."""

    schema: str
    tool_version: str
    field_spec: str
    curve_spec: str
    construction: int
    k: int
    n: int
    torsion_choice: Optional[tuple[int, int]]
    pair_selection: dict
    points: tuple[tuple[int, int], ...]
    g_divisor: tuple[tuple[Optional[tuple[int, int]], int], ...]
    generator_matrix: tuple[tuple[int, ...], ...]
    scaling_v: tuple[int, ...]
    hull_dim: int
    mds_subset_count: int
    min_distance: int
    min_distance_method: str
    iso_dual: bool

    # -- object reconstruction ---------------------------------------------

    def spec(self) -> FieldSpec:
        return FieldSpec.from_string(self.field_spec)

    def curve(self) -> Curve:
        return Curve.from_string(self.spec(), self.curve_spec)

    def code(self, curve: Optional[Curve] = None) -> LinearCode:
        curve = curve or self.curve()
        return LinearCode(curve.spec, self.generator_matrix, n=self.n)

    def scaling(self, curve: Optional[Curve] = None) -> ScalingVector:
        curve = curve or self.curve()
        return ScalingVector(curve.spec, self.scaling_v)

    def point_objects(self, curve: Optional[Curve] = None) -> list[Point]:
        curve = curve or self.curve()
        s = curve.spec
        return [Point(s.element(x), s.element(y)) for x, y in self.points]

    def g_divisor_object(self, curve: Optional[Curve] = None) -> funcspace.Divisor:
        curve = curve or self.curve()
        s = curve.spec
        coeffs = {}
        for pt, mult in self.g_divisor:
            p = INFINITY if pt is None else Point(s.element(pt[0]), s.element(pt[1]))
            coeffs[p] = mult
        return funcspace.Divisor(curve, coeffs)

    # -- wire format ----------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "schema": self.schema,
            "tool_version": self.tool_version,
            "field": self.field_spec,
            "curve": self.curve_spec,
            "construction": self.construction,
            "k": self.k,
            "n": self.n,
            "torsion_choice": list(self.torsion_choice) if self.torsion_choice else None,
            "pair_selection": self.pair_selection,
            "points": [list(p) for p in self.points],
            "g_divisor": [[list(pt) if pt else None, m] for pt, m in self.g_divisor],
            "generator_matrix": [list(r) for r in self.generator_matrix],
            "scaling_v": list(self.scaling_v),
            "hull_dim": self.hull_dim,
            "mds_subset_count": self.mds_subset_count,
            "min_distance": self.min_distance,
            "min_distance_method": self.min_distance_method,
            "iso_dual": self.iso_dual,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "IsoDualCertificate":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CertificateSchemaError(f"not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise CertificateSchemaError("certificate must be a JSON object")
        if doc.get("schema") != CERTIFICATE_SCHEMA:
            raise CertificateSchemaError(
                f"unknown schema {doc.get('schema')!r}, expected {CERTIFICATE_SCHEMA}")
        required = ["tool_version", "field", "curve", "construction", "k", "n",
                    "pair_selection", "points", "g_divisor", "generator_matrix",
                    "scaling_v", "hull_dim", "mds_subset_count", "min_distance",
                    "min_distance_method", "iso_dual"]
        for key in required:
            if key not in doc:
                raise CertificateSchemaError(f"missing field {key!r}")
        if any(v == 0 for v in doc["scaling_v"]):
            raise CertificateSchemaError("scaling vector has a zero entry")
        if len(doc["scaling_v"]) != doc["n"]:
            raise CertificateSchemaError("scaling vector length differs from n")
        if any(len(p) != 2 for p in doc["points"]):
            raise CertificateSchemaError("points must be [x, y] pairs")
        try:
            return cls(
                schema=doc["schema"],
                tool_version=doc["tool_version"],
                field_spec=doc["field"],
                curve_spec=doc["curve"],
                construction=int(doc["construction"]),
                k=int(doc["k"]),
                n=int(doc["n"]),
                torsion_choice=tuple(doc["torsion_choice"]) if doc.get("torsion_choice") else None,
                pair_selection=doc["pair_selection"],
                points=tuple((int(x), int(y)) for x, y in doc["points"]),
                g_divisor=tuple((tuple(pt) if pt else None, int(m))
                                for pt, m in doc["g_divisor"]),
                generator_matrix=tuple(tuple(int(v) for v in r)
                                       for r in doc["generator_matrix"]),
                scaling_v=tuple(int(v) for v in doc["scaling_v"]),
                hull_dim=int(doc["hull_dim"]),
                mds_subset_count=int(doc["mds_subset_count"]),
                min_distance=int(doc["min_distance"]),
                min_distance_method=doc["min_distance_method"],
                iso_dual=bool(doc["iso_dual"]),
            )
        except (TypeError, ValueError) as exc:
            raise CertificateSchemaError(f"malformed certificate: {exc}") from None


# ---------------------------------------------------------------------------
# pair inventories
# ---------------------------------------------------------------------------

def _odd_order_points(curve: Curve) -> list[Point]:
    """Non-identity rational points of odd order; O is excluded even though
    its order 1 is odd, since a pair {P, -P} would degenerate.  They are
    the torsion of the odd part of #E, read from the dlog coordinates."""
    return [p for p in curve.torsion_points(odd_part(curve.order()))
            if not p.is_infinity]


def _group_pairs(points: Sequence[Point]) -> dict[int, list[Point]]:
    """Group an inverse-closed point set into {P, -P} pairs keyed by x."""
    pairs: dict[int, list[Point]] = {}
    for p in points:
        pairs.setdefault(p.x.enc, []).append(p)
    for xe, grp in pairs.items():
        if len(grp) != 2:
            raise ConstructionError(
                f"point set is not inverse-closed at x={xe}")
        grp.sort(key=Point.key)
    return pairs


def _select_pairs(pairs: dict[int, list[Point]], count: int,
                  selection: PairSelection,
                  torsion_pool: Optional[dict[int, list[Point]]]) -> list[int]:
    """Resolve a selection to a sorted list of `count` pair keys."""
    available = sorted(pairs)
    if selection.mode == "canonical":
        if len(available) < count:
            raise ConstructionError(
                f"need {count} odd-order pairs, only {len(available)} available")
        return available[:count]
    if selection.mode == "pairs_x":
        keys = list(dict.fromkeys(selection.pairs_x))
        if len(keys) != len(selection.pairs_x):
            raise ConstructionError("pairs_x contains duplicates")
        missing = [x for x in keys if x not in pairs]
        if missing:
            raise ConstructionError(f"no odd-order pair at x={missing[0]}")
        if len(keys) != count:
            raise ConstructionError(
                f"pairs_x selects {len(keys)} pairs, construction needs {count}")
        return sorted(keys)
    # torsion mode: the caller passes the subgroup pool keyed the same way
    if torsion_pool is None:
        raise ConstructionError("torsion selection is not applicable here")
    if len(torsion_pool) != count:
        raise ConstructionError(
            f"E[{selection.r}] provides {len(torsion_pool)} pairs, need {count}")
    return sorted(torsion_pool)


# ---------------------------------------------------------------------------
# the two constructions
# ---------------------------------------------------------------------------

def construct1(inp: ConstructionInput) -> IsoDualCertificate:
    """Even-characteristic construction: [2k, k, k+1] iso-dual MDS code."""
    curve = inp.curve
    spec = curve.spec
    if spec.p != 2:
        raise ConstructionError("construction 1 needs characteristic 2")
    if (curve.a1.enc, curve.a3.enc, curve.a4.enc) != (1, 0, 0):
        raise ConstructionError(
            "construction 1 needs the curve shape y^2+xy = x^3+a2x^2+a6")
    k = inp.k
    if k < 2 or k % 2:
        raise ConstructionError(f"k must be even and >= 2, got {k}")
    order = curve.order()
    if order % 2:
        raise ConstructionError("#E must be even")
    m = odd_part(order)
    if 2 * k > m - 1:
        raise ConstructionError(
            f"2k = {2 * k} exceeds the odd-order point supply {m - 1}")
    gamma1 = spec.element(spec.sqrt_enc(curve.a6.enc))
    q1 = Point(spec.zero, gamma1)
    if not curve.is_on_curve(q1) or curve.point_order(q1) != 2:
        raise VerificationError("Q1 = (0, sqrt(a6)) is not 2-torsion")
    # translated pairs: {Q1+P, Q1-P} share their x-coordinate
    translated = [curve.add(q1, p) for p in _odd_order_points(curve)]
    pairs = _group_pairs(translated)
    torsion_pool = None
    if inp.pair_selection.mode == "torsion":
        r = inp.pair_selection.r
        pool = [curve.add(q1, p) for p in curve.torsion_points(r)
                if not p.is_infinity]
        torsion_pool = _group_pairs(pool)
    keys = _select_pairs(pairs, k, inp.pair_selection, torsion_pool)
    points = [p for xe in keys for p in pairs[xe]]
    # MDS hypothesis: [k]Q1 + [2-1]Q1 != O, automatic for even k
    if curve.mul(k + 1, q1).is_infinity:
        raise VerificationError("[k+1]Q1 = O; construction hypothesis broken")
    return _finish(inp, curve, k, q1, points)


def construct2(inp: ConstructionInput) -> IsoDualCertificate:
    """Odd-characteristic construction with full rational 2-torsion."""
    curve = inp.curve
    spec = curve.spec
    if spec.p == 2:
        raise ConstructionError("construction 2 needs odd characteristic")
    k = inp.k
    if k < 2 or k % 2:
        raise ConstructionError(f"k must be even and >= 2, got {k}")
    two_torsion = [p for p in curve.torsion_points(2) if not p.is_infinity]
    if len(two_torsion) != 3:
        raise ConstructionError("E[2] is not fully rational over this field")
    choice = inp.torsion_choice or (1, 2)
    a, b = choice
    if not (1 <= a <= 3 and 1 <= b <= 3 and a != b):
        raise ConstructionError(f"torsion choice must pick two of Q1,Q2,Q3, got {choice}")
    qa, qb = two_torsion[a - 1], two_torsion[b - 1]
    order = curve.order()
    m = odd_part(order)
    if k > m - 1:
        raise ConstructionError(
            f"k = {k} exceeds the odd-order point supply {m - 1}")
    odd_pts = _odd_order_points(curve)
    base_pairs = _group_pairs(odd_pts)
    torsion_pool = None
    if inp.pair_selection.mode == "torsion":
        pool = [p for p in curve.torsion_points(inp.pair_selection.r)
                if not p.is_infinity]
        torsion_pool = _group_pairs(pool)
    keys = _select_pairs(base_pairs, k // 2, inp.pair_selection, torsion_pool)
    source = torsion_pool if inp.pair_selection.mode == "torsion" else base_pairs
    pset = [p for xe in keys for p in source[xe]]
    points = sorted([curve.add(qa, p) for p in pset]
                    + [curve.add(qb, p) for p in pset], key=Point.key)
    if len(set(points)) != 2 * k:
        raise VerificationError("translated point families collide")
    # MDS hypothesis: [k1]Qa + [k2]Qb + Qa != O for every split k1+k2 = k
    for k1 in range(k + 1):
        s = curve.add(curve.add(curve.mul(k1, qa), curve.mul(k - k1, qb)), qa)
        if s.is_infinity:
            raise VerificationError("2-torsion split hypothesis broken")
    return _finish(inp, curve, k, qa, points)


def _finish(inp: ConstructionInput, curve: Curve, k: int, qa: Point,
            points: list[Point]) -> IsoDualCertificate:
    """Shared tail: evaluate, scale, verify, certify."""
    spec = curve.spec
    n = 2 * k
    g_div = funcspace.Divisor(curve, {INFINITY: k - 1, qa: 1})
    if any(p in g_div.coeffs for p in points):
        raise VerificationError("evaluation points meet supp(G)")
    basis = funcspace.rr_basis(curve, k, qa)
    rows = [[funcspace.evaluate(f, p) for p in points] for f in basis.functions]
    code = LinearCode(spec, rows, n=n)
    if code.k != k:
        raise VerificationError(f"evaluation code has rank {code.k}, expected {k}")
    xs_enc = sorted({p.x.enc for p in points})
    if len(xs_enc) != k:
        raise VerificationError("expected exactly k distinct x-coordinates")
    h, hp = funcspace.interpolation_poly([spec.element(x) for x in xs_enc])
    v_entries = []
    for p in points:
        hval = gf.poly_eval(hp, p.x)
        if not hval:
            raise VerificationError("h' vanishes at an evaluation point")
        if spec.p == 2:
            v_entries.append(hval.inverse().enc)
        else:
            if not p.y:
                raise VerificationError("evaluation point with y = 0")
            num = p.x - qa.x
            if not num:
                raise VerificationError("evaluation point shares x with Qa")
            v_entries.append((num / (hval * p.y)).enc)
    v = ScalingVector(spec, v_entries)
    iso = code.scale(v).same_code(code.dual())
    if not iso:
        raise VerificationError("iso-dual identity failed")
    structure = curve.group_structure()
    count = mds_subset_check(points, structure, k, funcspace.divisor_sum(g_div))
    if count != 0:
        raise VerificationError(f"MDS subset-sum witness is {count}, expected 0")
    hull = code.hull_dim()
    if (inp.construction == 2 or n >= 8) and hull > k - 1:
        raise VerificationError(f"hull dimension {hull} exceeds k-1")
    if n > curve.order() // 2:
        raise VerificationError("length bound n <= #E/2 violated")
    if spec.q ** k <= BRUTE_FORCE_BUDGET:
        d = code.min_distance()
        if d != k + 1:
            raise VerificationError(f"exhaustive distance {d} != n-k+1")
        method = "exhaustive"
    else:
        d = k + 1
        method = "dp"
    g_items: list[tuple[Optional[tuple[int, int]], int]] = \
        [(None, k - 1), ((qa.x.enc, qa.y.enc), 1)]
    return IsoDualCertificate(
        schema=CERTIFICATE_SCHEMA,
        tool_version=__version__,
        field_spec=spec.to_string(),
        curve_spec=curve.to_string(),
        construction=inp.construction,
        k=k,
        n=n,
        torsion_choice=inp.torsion_choice,
        pair_selection=inp.pair_selection.to_dict(),
        points=tuple((p.x.enc, p.y.enc) for p in points),
        g_divisor=tuple(g_items),
        generator_matrix=code.matrix,
        scaling_v=v.entries,
        hull_dim=hull,
        mds_subset_count=count,
        min_distance=d,
        min_distance_method=method,
        iso_dual=True,
    )


def construct(inp: ConstructionInput) -> IsoDualCertificate:
    if inp.construction == 1:
        return construct1(inp)
    if inp.construction == 2:
        return construct2(inp)
    raise ConstructionError(f"construction must be 1 or 2, got {inp.construction}")


# ---------------------------------------------------------------------------
# certificate verification (from the file contents alone)
# ---------------------------------------------------------------------------

def verify_certificate(cert: IsoDualCertificate) -> list[str]:
    """Re-run every invariant; returns the names of failed checks in order."""
    failures: list[str] = []
    try:
        curve = cert.curve()
    except (gf.FieldError, CurveError) as exc:
        raise CertificateSchemaError(f"field/curve spec invalid: {exc}") from None
    spec = curve.spec
    pts = cert.point_objects(curve)
    if cert.n != 2 * cert.k or len(pts) != cert.n:
        failures.append("n_equals_2k")
    if any(not curve.is_on_curve(p) for p in pts):
        failures.append("points_on_curve")
    if len(set(pts)) != len(pts):
        failures.append("points_distinct")
    try:
        g_div = cert.g_divisor_object(curve)
        q2 = next(p for p in g_div.support() if not p.is_infinity)
        g_ok = (g_div.multiplicity(INFINITY) == cert.k - 1
                and g_div.multiplicity(q2) == 1
                and curve.point_order(q2) == 2
                and g_div.degree() == cert.k)
    except (StopIteration, CurveError):
        g_ok, q2 = False, None
    if not g_ok:
        failures.append("g_shape")
        return failures
    if any(p in g_div.coeffs for p in pts):
        failures.append("points_disjoint_from_G")
    code = cert.code(curve)
    if code.matrix != cert.generator_matrix or code.k != cert.k or code.n != cert.n:
        failures.append("matrix_rref")
        return failures
    v = cert.scaling(curve)
    if not code.scale(v).same_code(code.dual()):
        failures.append("iso_dual_identity")
    basis = funcspace.rr_basis(curve, cert.k, q2)
    rows = [[funcspace.evaluate(f, p) for p in pts] for f in basis.functions]
    if not LinearCode(spec, rows, n=cert.n).same_code(code):
        failures.append("evaluation_matrix")
    structure = curve.group_structure()
    count = mds_subset_check(pts, structure, cert.k, funcspace.divisor_sum(g_div))
    if count != cert.mds_subset_count or count != 0:
        failures.append("mds_witness")
    hull = code.hull_dim()
    if hull != cert.hull_dim:
        failures.append("hull")
    if (cert.construction == 2 or cert.n >= 8) and hull > cert.k - 1:
        failures.append("hull_bound")
    if cert.n > curve.order() // 2:
        failures.append("length_bound")
    if cert.min_distance != cert.k + 1:
        failures.append("min_distance")
    elif cert.min_distance_method == "exhaustive" \
            and spec.q ** cert.k <= BRUTE_FORCE_BUDGET:
        if code.min_distance() != cert.min_distance:
            failures.append("min_distance")
    return failures


# ---------------------------------------------------------------------------
# transforms: self-dual and LCD scalings
# ---------------------------------------------------------------------------

def selfdual_transform(cert: IsoDualCertificate) -> tuple[ScalingVector, LinearCode]:
    """u with u_i^2 = v_i turns the code self-dual (characteristic 2 only)."""
    curve = cert.curve()
    spec = curve.spec
    if spec.p != 2:
        raise ConstructionError(
            "odd characteristic: square roots of v may not exist; "
            "no self-dual scaling is provided")
    u = ScalingVector(spec, [spec.sqrt_enc(e) for e in cert.scaling_v])
    code = cert.code(curve)
    scaled = code.scale(u)
    if scaled.hull_dim() != cert.k:
        raise VerificationError("self-dual transform did not reach hull = k")
    return u, scaled


def lcd_transform(cert: IsoDualCertificate,
                  budget: int = 2000) -> Optional[tuple[ScalingVector, LinearCode]]:
    """Search the canonical ladder of scalings for a zero hull.

    Candidates are 1 everywhere except ell' positions carrying one
    non-square-one entry; ordered by (ell', entry encoding, position
    combination).  Returns the first success within `budget` hull
    evaluations, or None.
    """
    from itertools import combinations

    curve = cert.curve()
    spec = curve.spec
    code = cert.code(curve)
    ell = cert.hull_dim
    if ell == 0:
        return ScalingVector.ones(spec, cert.n), code
    non_square_one = [e for e in range(2, spec.q)
                      if spec.mul_enc(e, e) != 1]
    spent = 0
    for lprime in range(ell, cert.n + 1):
        for entry in non_square_one:
            for combo in combinations(range(cert.n), lprime):
                if spent >= budget:
                    return None
                spent += 1
                entries = [1] * cert.n
                for pos in combo:
                    entries[pos] = entry
                u_hat = ScalingVector(spec, entries)
                scaled = code.scale(u_hat)
                if scaled.hull_dim() == 0:
                    return u_hat, scaled
    return None


# ---------------------------------------------------------------------------
# seeded scaling samplers (hull statistics; used where claims range over
# all (q-1)^n vectors, which is not exhaustively checkable)
# ---------------------------------------------------------------------------

def _random_scaling(code: LinearCode, rng: random.Random, block: int) -> ScalingVector:
    """Random vector, constant on consecutive blocks of the given size.

    block=1 samples all of (F_q*)^n; block=2 samples vectors constant on
    the inverse pairs the constructions emit adjacently, where the rare
    higher hull values actually live.
    """
    if code.n % block:
        raise CodeError(f"block size {block} does not divide n = {code.n}")
    entries: list[int] = []
    for _ in range(code.n // block):
        entries.extend([rng.randrange(1, code.spec.q)] * block)
    return ScalingVector(code.spec, entries)


def sample_scaling_hulls(code: LinearCode, trials: int, seed: int = 0,
                         block: int = 1) -> dict[int, int]:
    """Hull-dimension histogram over `trials` random scaling vectors."""
    rng = random.Random(seed)
    out: dict[int, int] = {}
    for _ in range(trials):
        u = _random_scaling(code, rng, block)
        h = code.scale(u).hull_dim(cross_check=False)
        out[h] = out.get(h, 0) + 1
    return dict(sorted(out.items()))


def find_scaling_with_hull(code: LinearCode, target_hull: int, trials: int = 2000,
                           seed: int = 0, block: int = 1) -> Optional[ScalingVector]:
    """First random scaling vector reaching the target hull dimension."""
    rng = random.Random(seed)
    for _ in range(trials):
        u = _random_scaling(code, rng, block)
        if code.scale(u).hull_dim() == target_hull:
            return u
    return None
