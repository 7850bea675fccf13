"""Iso-dual MDS code constructions on elliptic curves, with certificates.

Both constructions translate inverse-closed pairs of odd-order points by
rational 2-torsion and evaluate L((k-1)O + Qa).  Construction 1 (even
characteristic) translates k pairs by Qa = Q1 = (0, gamma1) and scales by
v_i = 1/h'(x_i).  Construction 2 (odd characteristic, full rational
2-torsion) translates k/2 pairs by two 2-torsion points Qa, Qb and scales
by v_i = (x_i - beta_a) / (h'(x_i) y_i).  One derivation, `_derive_points`,
gives `construct` and the verifier Qa and the points.

`construct` and `verify_certificate` share one ordered table of named
certificate invariants, `INVARIANTS`: construction_matches_field,
iso_dual_claimed, pair_selection_well_formed, n_equals_2k, points_on_curve,
points_distinct, x_pairs, y_nonzero, points_off_qa_x, g_shape,
points_disjoint_from_G, matrix_rref, iso_dual_identity, evaluation_matrix,
points_match_input, mds_witness, hull, hull_bound, length_bound and
min_distance.  points_match_input re-derives Qa and the points, in order,
from the input echo, so the file's points are the ones its input makes.
iso_dual_identity holds when n = 2k and G diag(v) G^T = 0: then C.v lies in
C-perp and both have dimension k, so C.v = C-perp with no nullspace
computed.  hull cross-checks k - rank(G G^T) against n - rank of G stacked
with C.v, the dual that identity proved.  The samplers, the hull search and
the LCD ladder take the hull of u.C from the same stacked rank, against
the cached dual with G scaled by u^2; they form no Gram matrix per trial.

`construct` raises `VerificationError` naming the first invariant that
fails.  That is an internal error, not a user error: the construction succeeds
whenever its preconditions hold, so a failed check means a bug.  The
verifier runs the same table on the certificate file alone and reports
every failure.

Evaluation points are always emitted in canonical order (sorted by
encoded coordinates); a pair selection chooses which pairs participate,
never their order.  This is what makes certificates byte-reproducible.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

from . import gf, funcspace, linalg
from ._version import __version__
from .gf import FieldSpec
from .curve import Curve, CurveError, Point, INFINITY, odd_part
from .code import (BRUTE_FORCE_BUDGET, LinearCode, ScalingVector, CodeError,
                   mds_subset_check)

CERTIFICATE_SCHEMA = "ellcode.isodual-certificate/1"


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
                    "torsion_choice", "pair_selection", "points", "g_divisor",
                    "generator_matrix", "scaling_v", "hull_dim",
                    "mds_subset_count", "min_distance", "min_distance_method",
                    "iso_dual"]
        for key in required:
            if key not in doc:
                raise CertificateSchemaError(f"missing field {key!r}")
        if not isinstance(doc["field"], str) or not isinstance(doc["curve"], str):
            raise CertificateSchemaError("field and curve must be strings")
        if doc["min_distance_method"] not in ("exhaustive", "dp"):
            raise CertificateSchemaError(
                f"unknown min_distance_method {doc['min_distance_method']!r}")
        if type(doc["iso_dual"]) is not bool:
            raise CertificateSchemaError("iso_dual must be true or false")
        if not isinstance(doc["tool_version"], str):
            raise CertificateSchemaError("tool_version must be a string")
        tc = doc["torsion_choice"]
        try:
            cert = cls(
                schema=doc["schema"],
                tool_version=doc["tool_version"],
                field_spec=doc["field"],
                curve_spec=doc["curve"],
                construction=_int(doc["construction"]),
                k=_int(doc["k"]),
                n=_int(doc["n"]),
                torsion_choice=None if tc is None else _int_pair(tc),
                pair_selection=doc["pair_selection"],
                points=tuple(_int_pair(p) for p in _list(doc["points"])),
                g_divisor=tuple((None if pt is None else _int_pair(pt), _int(m))
                                for pt, m in map(_list, _list(doc["g_divisor"]))),
                generator_matrix=tuple(tuple(_int(v) for v in _list(r))
                                       for r in _list(doc["generator_matrix"])),
                scaling_v=tuple(_int(v) for v in _list(doc["scaling_v"])),
                hull_dim=_int(doc["hull_dim"]),
                mds_subset_count=_int(doc["mds_subset_count"]),
                min_distance=_int(doc["min_distance"]),
                min_distance_method=doc["min_distance_method"],
                iso_dual=doc["iso_dual"],
            )
        except (TypeError, ValueError) as exc:
            raise CertificateSchemaError(f"malformed certificate: {exc}") from None
        if 0 in cert.scaling_v:
            raise CertificateSchemaError("scaling vector has a zero entry")
        if len(cert.scaling_v) != cert.n:
            raise CertificateSchemaError("scaling vector length differs from n")
        return cert


def _int(value) -> int:
    """A JSON integer as it was written; a bool, float or string raises
    TypeError, so every file that loads re-serialises to the same bytes."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _list(value) -> list:
    """A JSON list; a string, object or null raises TypeError instead of
    being iterated as if it were one."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return value


def _int_pair(value) -> tuple[int, int]:
    """An [x, y] pair of integers; anything else raises TypeError/ValueError."""
    x, y = _list(value)
    return _int(x), _int(y)


# ---------------------------------------------------------------------------
# pair inventories
# ---------------------------------------------------------------------------

def _pair_pool(curve: Curve, selection: PairSelection,
               shift: Optional[Point] = None) -> dict[int, list[Point]]:
    """The {P, -P} pairs a selection chooses from, keyed by x: the points of
    E[r] other than O, translated by `shift` when given.  r is the
    selection's own in torsion mode and the odd part of #E otherwise, whose
    torsion is every point of odd order; O is left out, since its pair
    {O, O} would degenerate."""
    r = selection.r if selection.mode == "torsion" else odd_part(curve.order())
    pool = [p for p in curve.torsion_points(r) if not p.is_infinity]
    if shift is not None:
        pool = [curve.add(shift, p) for p in pool]
    return _group_pairs(pool)


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
                  selection: PairSelection) -> list[int]:
    """Resolve a selection to a sorted list of `count` keys of its pool
    (a canonical pool is large enough: `_derive_points` checked the supply)."""
    available = sorted(pairs)
    if selection.mode == "canonical":
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
    # torsion mode: the pool is E[r], and all of it is used
    if len(available) != count:
        raise ConstructionError(
            f"E[{selection.r}] provides {len(available)} pairs, need {count}")
    return available


# ---------------------------------------------------------------------------
# the construction
# ---------------------------------------------------------------------------

def _derive_points(curve: Curve, k: int, construction: int,
                   torsion_choice: Optional[tuple[int, int]],
                   selection: PairSelection) -> tuple[Point, list[Point]]:
    """(Qa, points) of a construction input, or `ConstructionError`.

    Construction 1 translates k pairs by Qa = Q1 = (0, gamma1), the
    only rational 2-torsion point of its curve shape, and selects them by
    their translated x's.  Construction 2 translates each point of k/2
    pairs by Qa and by Qb, the 2-torsion points `torsion_choice` names
    ((1, 2) when None).  The points come back in canonical order.
    """
    if construction not in (1, 2):
        raise ConstructionError(f"construction must be 1 or 2, got {construction}")
    if construction == 1 and curve.spec.p != 2:
        raise ConstructionError("construction 1 needs characteristic 2")
    if construction == 2 and curve.spec.p == 2:
        raise ConstructionError("construction 2 needs odd characteristic")
    if construction == 1 and (curve.a1.enc, curve.a3.enc, curve.a4.enc) != (1, 0, 0):
        raise ConstructionError(
            "construction 1 needs the curve shape y^2+xy = x^3+a2x^2+a6")
    if k < 2 or k % 2:
        raise ConstructionError(f"k must be even and >= 2, got {k}")
    two_torsion = [p for p in curve.torsion_points(2) if not p.is_infinity]
    if construction == 1:
        if torsion_choice is not None:
            raise ConstructionError(
                "construction 1 always translates by Q1; it takes no torsion choice")
        qa = two_torsion[0]
        count = k
    else:
        if len(two_torsion) != 3:
            raise ConstructionError("E[2] is not fully rational over this field")
        choice = torsion_choice or (1, 2)
        a, b = choice
        if not (1 <= a <= 3 and 1 <= b <= 3 and a != b):
            raise ConstructionError(
                f"torsion choice must pick two of Q1,Q2,Q3, got {choice}")
        qa, qb = two_torsion[a - 1], two_torsion[b - 1]
        count = k // 2
    supply = odd_part(curve.order()) - 1
    if 2 * count > supply:
        raise ConstructionError(
            f"{2 * count} odd-order points needed, the supply is {supply}")
    # construction 1 selects among the translated pairs {Q1+P, Q1-P}
    pairs = _pair_pool(curve, selection, qa if construction == 1 else None)
    points = [p for xe in _select_pairs(pairs, count, selection) for p in pairs[xe]]
    if construction == 2:
        points = [curve.add(q, p) for q in (qa, qb) for p in points]
    return qa, sorted(points, key=Point.key)


def construct(inp: ConstructionInput) -> IsoDualCertificate:
    """The [2k, k, k+1] iso-dual MDS code of a construction input."""
    curve, k = inp.curve, inp.k
    # the MDS hypothesis [k1]Qa + [k-k1]Qb + Qa != O (Qb = Qa in
    # construction 1) needs no check: for even k the sum is Qa or Qb
    qa, points = _derive_points(curve, k, inp.construction,
                                inp.torsion_choice, inp.pair_selection)
    g_div = funcspace.Divisor(curve, {INFINITY: k - 1, qa: 1})
    ctx = _Context(curve, inp.construction, inp.torsion_choice,
                   inp.pair_selection.to_dict(), k, 2 * k, points, qa, g_div)
    for name, holds in INVARIANTS:
        if not holds(ctx):
            raise VerificationError(f"certificate invariant {name} failed")
    return IsoDualCertificate(
        schema=CERTIFICATE_SCHEMA,
        tool_version=__version__,
        field_spec=curve.spec.to_string(),
        curve_spec=curve.to_string(),
        construction=inp.construction,
        k=k,
        n=ctx.n,
        torsion_choice=inp.torsion_choice,
        pair_selection=ctx.pair_selection,
        points=tuple(p.key() for p in points),
        g_divisor=((None, k - 1), (qa.key(), 1)),
        generator_matrix=ctx.generator_matrix,
        scaling_v=ctx.v.entries,
        hull_dim=ctx.hull_dim,
        mds_subset_count=ctx.mds_subset_count,
        min_distance=ctx.min_distance,
        min_distance_method=ctx.min_distance_method,
        iso_dual=True,
    )


# ---------------------------------------------------------------------------
# certificate invariants, shared by `construct` and the verifier
# ---------------------------------------------------------------------------

class _Context:
    """One op's certificate data and the values derived from it.

    Each derived value is computed on first use and kept, so an invariant
    pays only for what it reads and a failed invariant skips the work of
    the ones after it.  `claim` is the recorded results under check: `cert`
    when verifying.  When constructing, `cert` is None and `claim` is the
    context itself, whose derived values are what the certificate will
    record; the evaluated code is then the code.
    """

    iso_dual = True     # what a construction claims; the identity proves it

    def __init__(self, curve: Curve, construction: int,
                 torsion_choice: Optional[tuple[int, int]], pair_selection: object,
                 k: int, n: int, points: list[Point], qa: Optional[Point],
                 g_div: Optional[funcspace.Divisor],
                 cert: Optional[IsoDualCertificate] = None):
        self.curve, self.spec = curve, curve.spec
        self.construction, self.torsion_choice = construction, torsion_choice
        self.pair_selection = pair_selection
        self.k, self.n = k, n
        self.points, self.qa, self.g_div = points, qa, g_div
        self.cert = cert

    @property
    def claim(self):
        """Computed on each read: storing self would make a reference cycle."""
        return self if self.cert is None else self.cert

    @cached_property
    def evaluated(self) -> LinearCode:
        """The code spanned by the Riemann-Roch basis evaluated at the points."""
        basis = funcspace.rr_basis(self.curve, self.k, self.qa)
        return LinearCode(self.spec, funcspace.rr_basis_rows(basis, self.points),
                          n=self.n)

    @cached_property
    def code(self) -> LinearCode:
        """The RREF code under check; `iso_dual_identity` caches C.v as its
        dual."""
        if self.cert is None:
            return self.evaluated
        return LinearCode(self.spec, self.cert.generator_matrix, n=self.n)

    @property
    def generator_matrix(self) -> tuple[tuple[int, ...], ...]:
        return self.code.matrix

    @cached_property
    def v(self) -> ScalingVector:
        """The scaling carrying the code onto its dual (module docstring)."""
        if self.cert is not None:
            return self.cert.scaling(self.curve)
        spec = self.spec
        xs = sorted({p.x.enc for p in self.points})
        _, hp = funcspace.interpolation_poly([spec.element(x) for x in xs])
        entries = []
        for p in self.points:
            hval = gf.poly_eval(hp, p.x)
            entries.append(hval.inverse() if spec.p == 2
                           else (p.x - self.qa.x) / (hval * p.y))
        return ScalingVector(spec, entries)

    @cached_property
    def mds_subset_count(self) -> int:
        """k-subsets of the points summing to sum(G) (the group structure
        is cached on the curve)."""
        return mds_subset_check(self.points, self.curve.group_structure(),
                                self.k, funcspace.divisor_sum(self.g_div))

    @cached_property
    def hull_dim(self) -> int:
        return self.code.hull_dim()

    @cached_property
    def min_distance_method(self) -> str:
        return "exhaustive" if self.spec.q ** self.k <= BRUTE_FORCE_BUDGET else "dp"

    @cached_property
    def min_distance(self) -> int:
        """Enumerated within the budget; otherwise n-k+1 from the DP witness."""
        if self.min_distance_method == "exhaustive":
            return self.code.min_distance()
        return self.k + 1


def _x_pairs(c: _Context) -> bool:
    """Exactly k distinct x's, each carried by two points."""
    carriers = Counter(p.x.enc for p in c.points)
    return len(carriers) == c.k and set(carriers.values()) == {2}


def _selection(c: _Context) -> Optional[PairSelection]:
    """The recorded pair selection, if it is exactly what
    `PairSelection.to_dict` writes for a valid selection."""
    sel = c.pair_selection
    try:
        r, xs = sel["r"], sel["pairs_x"]
        made = PairSelection(sel["mode"], None if r is None else _int(r),
                             None if xs is None else tuple(map(_int, _list(xs))))
    except (TypeError, KeyError, ConstructionError):
        return None
    return made if made.to_dict() == sel else None


def _points_match_input(c: _Context) -> bool:
    """The input echo (construction, k, torsion choice, pair selection)
    derives exactly the recorded Qa and points, in canonical order."""
    selection = _selection(c)
    if selection is None:
        return False
    try:
        qa, points = _derive_points(c.curve, c.k, c.construction,
                                    c.torsion_choice, selection)
    except ConstructionError:
        return False
    return qa == c.qa and points == c.points


def _iso_dual_identity(c: _Context) -> bool:
    """G diag(v) G^T = 0 puts C.v inside C-perp, and with n = 2k both have
    dimension k, so C.v is C-perp: it becomes the code's cached dual, which
    the `hull` cross-check then reads without a nullspace."""
    code = c.code
    if code.n != 2 * code.k:
        return False
    if any(map(any, linalg.gram(code.matrix, c.spec, c.v.entries))):
        return False
    code._dual = code.scale(c.v)
    return True


# (name, predicate), in the order they run.  `x_pairs` makes the roots of h
# distinct, so h' is nonzero at every point; `y_nonzero` and
# `points_off_qa_x` keep the odd-characteristic v_i finite.
INVARIANTS: tuple[tuple[str, Callable[[_Context], bool]], ...] = (
    ("construction_matches_field",
     lambda c: c.construction == (1 if c.spec.p == 2 else 2)),
    ("iso_dual_claimed", lambda c: c.claim.iso_dual is True),
    ("pair_selection_well_formed", lambda c: _selection(c) is not None),
    ("n_equals_2k", lambda c: c.n == 2 * c.k and len(c.points) == c.n),
    ("points_on_curve", lambda c: all(c.curve.is_on_curve(p) for p in c.points)),
    ("points_distinct", lambda c: len(set(c.points)) == len(c.points)),
    ("x_pairs", _x_pairs),
    ("y_nonzero", lambda c: c.spec.p == 2 or all(p.y for p in c.points)),
    ("points_off_qa_x", lambda c: c.qa is None
     or all(p.x != c.qa.x for p in c.points)),
    ("g_shape", lambda c: c.qa is not None
     and c.g_div.coeffs == {INFINITY: c.k - 1, c.qa: 1}
     and c.curve.point_order(c.qa) == 2),
    ("points_disjoint_from_G", lambda c: not any(p in c.g_div.coeffs
                                                 for p in c.points)),
    ("matrix_rref", lambda c: c.code.matrix == c.claim.generator_matrix
     and (c.code.k, c.code.n) == (c.k, c.n)),
    ("iso_dual_identity", _iso_dual_identity),
    ("evaluation_matrix", lambda c: c.evaluated.same_code(c.code)),
    ("points_match_input", _points_match_input),
    ("mds_witness", lambda c: c.claim.mds_subset_count == c.mds_subset_count == 0),
    ("hull", lambda c: c.claim.hull_dim == c.hull_dim),
    ("hull_bound", lambda c: (c.construction != 2 and c.n < 8)
     or c.hull_dim <= c.k - 1),
    ("length_bound", lambda c: c.n <= c.curve.order() // 2),
    ("min_distance", lambda c: c.claim.min_distance_method == c.min_distance_method
     and c.claim.min_distance == c.k + 1 == c.min_distance),
)

# a failed gate ends verification: the invariants after it read G or the code
_GATES = ("g_shape", "matrix_rref")


def verify_certificate(cert: IsoDualCertificate) -> list[str]:
    """Run `INVARIANTS` on the file's data alone; returns the names of the
    failed invariants in table order.

    Data the library cannot evaluate (a bad encoding, a ragged matrix, a
    point outside the group) raises `CertificateSchemaError`, unless an
    invariant has already failed: the run then ends with those failures.
    """
    failures: list[str] = []
    try:
        curve = cert.curve()
        try:
            g_div = cert.g_divisor_object(curve)
            qa = next(p for p in g_div.support() if not p.is_infinity)
        except (CurveError, StopIteration):     # such a G fails g_shape
            g_div = qa = None
        ctx = _Context(curve, cert.construction, cert.torsion_choice,
                       cert.pair_selection, cert.k, cert.n,
                       cert.point_objects(curve), qa, g_div, cert)
        for name, holds in INVARIANTS:
            if not holds(ctx):
                failures.append(name)
                if name in _GATES:
                    break
    except (gf.FieldError, CurveError, CodeError, funcspace.FunctionError) as exc:
        if not failures:
            raise CertificateSchemaError(f"certificate data invalid: {exc}") from None
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
    return u, _accept(cert.code(curve), u, cert.k, "self-dual transform")


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
                if _scaled_hull_dim(code, u_hat) == 0:
                    return u_hat, _accept(code, u_hat, 0, "LCD search")
    return None


def _scaled_hull_dim(code: LinearCode, u: ScalingVector) -> int:
    """dim of the hull of u.C, with no scaled code and no Gram matrix built:
    it is dim(u^2.C n C-perp), the `stacked_hull_dim` at w = u^2 against
    the dual cached on `code` (C.v once `iso_dual_identity` proved it,
    otherwise one nullspace)."""
    mul = code.spec.mul_enc
    return code.stacked_hull_dim([mul(x, x) for x in u.entries])


def _accept(code: LinearCode, u: ScalingVector, hull: int, what: str) -> LinearCode:
    """Build u.C, whose Gram-matrix hull was `hull`, and cross-check it."""
    scaled = code.scale(u)
    if scaled.hull_dim() != hull:
        raise VerificationError(f"{what} did not reach hull = {hull}")
    return scaled


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
    if block < 1 or code.n % block:
        raise CodeError(f"block size {block} is not a positive divisor "
                        f"of n = {code.n}")
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
        h = _scaled_hull_dim(code, u)
        out[h] = out.get(h, 0) + 1
    return dict(sorted(out.items()))


def find_scaling_with_hull(code: LinearCode, target_hull: int, trials: int = 2000,
                           seed: int = 0, block: int = 1) -> Optional[ScalingVector]:
    """First random scaling vector reaching the target hull dimension."""
    rng = random.Random(seed)
    for _ in range(trials):
        u = _random_scaling(code, rng, block)
        if _scaled_hull_dim(code, u) == target_hull:
            _accept(code, u, target_hull, "hull search")
            return u
    return None
