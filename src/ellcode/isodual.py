"""Iso-dual MDS code constructions on elliptic curves, with certificates.

Both constructions translate inverse-closed pairs of odd-order points by
rational 2-torsion and evaluate L((k-1)O + Qa).  Construction 1 (even
characteristic) translates k pairs by Qa = Q1 = (0, gamma1) and scales by
v_i = 1/h'(x_i).  Construction 2 (odd characteristic, the curve shape
y^2 = x^3+a2x^2+a4x+a6 with full rational 2-torsion) translates k/2 pairs
by two 2-torsion points Qa, Qb and scales by
v_i = (x_i - beta_a) / (h'(x_i) y_i), log h'(x_i) a sum of table lookups.
One derivation, `_derive_points`, gives `construct` and the verifier Qa
and the points as the (x, y) encoding pairs a certificate writes, from the
curve's encoded torsion and group law; both ops keep them so, and G and v
follow from them alone.  Verify compares the file's matrix and v with them.

Neither G nor a Gram matrix takes a k^3 elimination.  The first k points
are k/2 whole pairs {P, -P}, so G is the systematic [I | A] in closed form
(`funcspace.systematic_rows`): row i is f_i / f_i(P_i), f_i the product
of x - alpha over the other first pairs' x's times the line through Qa and
-P_i over x - beta.  The Gram of the basis 1, u, x, u x, ... of L(G)
(u = y/(x - beta), or (y - gamma1)/x in characteristic 2) under weights w
comes from 3(k-1) point moments sum_j w_j u_j^e x_j^t
(`funcspace.point_moments`).  That closed form is the one route to G: a
file whose first k points are not whole pairs, which `construct` never
writes, has no code, and the invariants that read it fail.  Both read only
the checked handle (curve, Qa, k) of `funcspace.rr_basis`, Qa an encoding
like the points: the evaluated and symbolic basis, its divisors and
valuations are the tests' reference and no part of the library, and an op
builds no `Point`.

`construct` and `verify_certificate` share one ordered table of named
certificate invariants, `INVARIANTS`: construction_matches_field,
iso_dual_claimed, pair_selection_well_formed, n_equals_2k, points_on_curve,
points_distinct, x_pairs, y_nonzero, points_off_qa_x, g_shape,
points_disjoint_from_G, matrix_rref, iso_dual_identity,
scaling_matches_points, points_match_input, mds_witness, hull, length_bound
and min_distance.  points_match_input re-derives Qa and the
points, in order, from the input echo, so the file's points are the ones
its input makes.
g_shape checks G exactly as written, ((None, k-1), (Qa, 1)), so the MDS
target sum(G) is Qa, and Qa + Qa = O on the group law.
iso_dual_identity holds when n = 2k and every moment at w = v is 0, the
residue theorem's sum_j v_j (f g)(P_j) = 0 for f, g in L(G): then C.v
lies in C-perp and both have dimension k, so C.v = C-perp with no
nullspace computed; the code carries v, from which the hull cross-check
reads the dual's half A' and displacement factors without building C.v.
`IsoDualCertificate.code`, which the transforms and the samplers start
from, is that same code, kept by a verify with no failure, or proved by the
table up to scaling_matches_points, failing as verify does.  hull is
k - rank of the moment Gram at w = 1, from Berlekamp-Massey ranks of its
Hankel blocks, which read only the points: H(S0) plus H(S2) when S1 = 0
(construction 2), twice H(S1) when S0 = 0 and S1 = S2 (construction 1,
so its hulls are even); points in neither shape have no hull, and hull
fails, as does a file with no code: no G G^T is formed.  Either rank is
cross-checked against `LinearCode.stacked_hull_dim` with C.v, the dual
that identity proved, which reads G and v.  The sampler and the hull search
share one seeded trial loop, `_scaling_trials`; it and the LCD ladder keep
each u as encodings, take the hull of u.C from the same method against the
code's dual at w = u^2, with no Gram matrix per trial, and wrap only the u
they return in a ScalingVector.
That code carries the points' x's as nodes and the closed form's factors
of G's displacement, and `LinearCode.scale` carries both.  So in odd
characteristic, from k = `code._DISPLACEMENT_MIN_K` on, that method ranks
from the displacement generators of the Cauchy-like G and C.v, in O(k^2)
per scaling, with no RREF of the displacement; otherwise it ranks the
k x k M of `LinearCode.stacked_hull_dim`.

`construct` raises `VerificationError` naming the first invariant that
fails.  That is an internal error, not a user error: the construction succeeds
whenever its preconditions hold, so a failed check means a bug.  The
verifier runs the same table on the certificate file alone and reports
every failure; `field` and `curve` spelled otherwise than `construct`
writes them are a schema error.

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
from itertools import combinations
from typing import Callable, ClassVar, Iterator, Optional, Sequence

from . import gf, funcspace, linalg
from ._version import __version__
from .gf import FieldSpec
from .curve import Curve, CurveError, odd_part
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


def canonical_json(doc) -> str:
    """The one spelling of every JSON file ellcode writes: sorted keys, no
    spaces, a final newline; tuples are written as lists."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _exactly(kind: type) -> Callable[[object], object]:
    """A parser passing a JSON value of exactly `kind`, and raising TypeError
    on any other: a bool or float is no integer, a string no list, so every
    file that loads re-serialises to the same bytes."""
    def parse(value):
        if type(value) is not kind:
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        return value
    return parse


_int, _list, _str, _bool = (_exactly(t) for t in (int, list, str, bool))


def _ints(value) -> tuple[int, ...]:
    """A JSON list of integers; the per-entry parser runs only to raise."""
    if type(value) is list and set(map(type, value)) <= {int}:
        return tuple(value)
    return tuple(map(_int, _list(value)))


def _int_pair(value) -> tuple[int, int]:
    """An [x, y] pair of integers; anything else raises TypeError/ValueError."""
    x, y = _list(value)
    return _int(x), _int(y)


def _one_of(*allowed: str) -> Callable[[object], str]:
    """A parser passing only the `allowed` strings, raising ValueError."""
    def parse(value) -> str:
        if value not in allowed:
            raise ValueError(f"expected one of {allowed}, got {value!r}")
        return value
    return parse


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
    # the code its own context proved (never the context: it refers back here)
    _code: Optional[LinearCode] = field(default=None, init=False, repr=False, compare=False)

    # (JSON key, attribute, parser): `to_json` writes each attribute as it
    # is, and `from_json` requires each key, and no other, and parses it
    # back, so writing a file that loads leaves none of its data out.  A parser
    # raises TypeError or ValueError; pair_selection is checked by the
    # `pair_selection_well_formed` invariant, not here.
    _WIRE: ClassVar[tuple[tuple[str, str, Callable[[object], object]], ...]] = (
        ("schema", "schema", _one_of(CERTIFICATE_SCHEMA)),
        ("tool_version", "tool_version", _str),
        ("field", "field_spec", _str),
        ("curve", "curve_spec", _str),
        ("construction", "construction", _int),
        ("k", "k", _int),
        ("n", "n", _int),
        ("torsion_choice", "torsion_choice",
         lambda v: None if v is None else _int_pair(v)),
        ("pair_selection", "pair_selection", lambda v: v),
        ("points", "points", lambda v: tuple(map(_int_pair, _list(v)))),
        ("g_divisor", "g_divisor",
         lambda v: tuple((None if pt is None else _int_pair(pt), _int(m))
                         for pt, m in map(_list, _list(v)))),
        ("generator_matrix", "generator_matrix",
         lambda v: tuple(map(_ints, _list(v)))),
        ("scaling_v", "scaling_v", _ints),
        ("hull_dim", "hull_dim", _int),
        ("mds_subset_count", "mds_subset_count", _int),
        ("min_distance", "min_distance", _int),
        ("min_distance_method", "min_distance_method", _one_of("exhaustive", "dp")),
        ("iso_dual", "iso_dual", _bool),
    )

    # -- object reconstruction ---------------------------------------------

    def spec(self) -> FieldSpec:
        return FieldSpec.from_string(self.field_spec)

    def curve(self) -> Curve:
        return Curve.from_string(self.spec(), self.curve_spec)

    def code(self) -> LinearCode:
        """The closed form [I | A], `_Context.code`, carrying v as its dual
        C.v: the code a verify with no failure kept, or else, kept now, that
        `_run` keeps once `_CODE_INVARIANTS` hold; it fails as verify does,
        `VerificationError` naming the first failure."""
        if self._code is None:
            failures = _run(self, _CODE_INVARIANTS)
            if failures:
                raise VerificationError(f"certificate invariant {failures[0]} failed")
        return self._code

    # -- wire format ----------------------------------------------------------

    def to_json(self) -> str:
        return canonical_json({key: getattr(self, attr) for key, attr, _ in self._WIRE})

    @classmethod
    def from_json(cls, text: str) -> "IsoDualCertificate":
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:     # too deep, too long an int
            raise CertificateSchemaError(f"not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise CertificateSchemaError("certificate must be a JSON object")
        unknown = sorted(doc.keys() - {key for key, _, _ in cls._WIRE})
        if unknown:
            raise CertificateSchemaError(f"unknown field {unknown[0]!r}")
        values = {}
        for key, attr, parse in cls._WIRE:
            if key not in doc:
                raise CertificateSchemaError(f"missing field {key!r}")
            try:
                values[attr] = parse(doc[key])
            except (TypeError, ValueError) as exc:
                raise CertificateSchemaError(f"field {key!r}: {exc}") from None
        cert = cls(**values)
        if 0 in cert.scaling_v:
            raise CertificateSchemaError("scaling vector has a zero entry")
        if len(cert.scaling_v) != cert.n:
            raise CertificateSchemaError("scaling vector length differs from n")
        return cert


# ---------------------------------------------------------------------------
# pair inventories
# ---------------------------------------------------------------------------

def _pair_pool(curve: Curve, selection: PairSelection,
               shift: Optional[tuple[int, int]] = None) -> dict[int, list]:
    """The {P, -P} pairs a selection chooses from, keyed by x: the encoded
    points of E[r] other than O, translated by `shift` when given.  r is
    the selection's own in torsion mode and the odd part of #E otherwise,
    whose torsion is every point of odd order; O is left out, since its
    pair {O, O} would degenerate."""
    r = selection.r if selection.mode == "torsion" else odd_part(curve.order())
    pool = [p for p in curve._torsion(r) if p is not None]
    if shift is not None:
        pool = curve._translate(shift, pool)
    return _group_pairs(pool)


def _group_pairs(points: Sequence[tuple[int, int]]) -> dict[int, list]:
    """Group an inverse-closed set of encoded points into {P, -P} pairs by x."""
    pairs: dict[int, list] = {}
    for p in points:
        pairs.setdefault(p[0], []).append(p)
    for xe, grp in pairs.items():
        if len(grp) != 2:
            raise ConstructionError(
                f"point set is not inverse-closed at x={xe}")
        grp.sort()
    return pairs


def _select_pairs(pairs: dict[int, list], count: int,
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

def applicable_two_torsion(curve: Curve, construction: int) -> list[tuple[int, int]]:
    """The non-identity rational 2-torsion points, encoded, of a curve the
    construction can run on, or `ConstructionError`: construction 1 needs
    characteristic 2 and the shape y^2+xy = x^3+a2x^2+a6, whose one such
    point is Q1; construction 2 needs odd characteristic, the shape
    y^2 = x^3+a2x^2+a4x+a6 and all three points Q1, Q2, Q3."""
    if construction not in (1, 2):
        raise ConstructionError(f"construction must be 1 or 2, got {construction}")
    if construction == 1 and curve.spec.p != 2:
        raise ConstructionError("construction 1 needs characteristic 2")
    if construction == 2 and curve.spec.p == 2:
        raise ConstructionError("construction 2 needs odd characteristic")
    a1, _, a3, a4, _ = curve.coefficients()
    if construction == 1 and (a1, a3, a4) != (1, 0, 0):
        raise ConstructionError(
            "construction 1 needs the curve shape y^2+xy = x^3+a2x^2+a6")
    if construction == 2 and (a1, a3) != (0, 0):
        raise ConstructionError(
            "construction 2 needs the curve shape y^2 = x^3+a2x^2+a4x+a6")
    two_torsion = [p for p in curve._torsion(2) if p is not None]
    if construction == 2 and len(two_torsion) != 3:
        raise ConstructionError("E[2] is not fully rational over this field")
    return two_torsion


def _derive_points(curve: Curve, k: int, construction: int,
                   torsion_choice: Optional[tuple[int, int]],
                   selection: PairSelection) -> tuple[tuple[int, int], tuple]:
    """(Qa, points) of a construction input, encoded, or `ConstructionError`.

    Construction 1 translates k pairs by Qa = Q1 = (0, gamma1), the
    only rational 2-torsion point of its curve shape, and selects them by
    their translated x's.  Construction 2 translates each point of k/2
    pairs by Qa and by Qb, the 2-torsion points `torsion_choice` names
    ((1, 2) when None).  The points come back in canonical order.
    """
    two_torsion = applicable_two_torsion(curve, construction)
    if k < 2 or k % 2:
        raise ConstructionError(f"k must be even and >= 2, got {k}")
    if construction == 1:
        if torsion_choice is not None:
            raise ConstructionError(
                "construction 1 always translates by Q1; it takes no torsion choice")
        qa = two_torsion[0]
        count = k
    else:
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
        points = [*curve._translate(qa, points), *curve._translate(qb, points)]
    return qa, tuple(sorted(points))


def construct(inp: ConstructionInput) -> IsoDualCertificate:
    """The [2k, k, k+1] iso-dual MDS code of a construction input."""
    curve, k = inp.curve, inp.k
    # the MDS hypothesis [k1]Qa + [k-k1]Qb + Qa != O (Qb = Qa in
    # construction 1) needs no check: for even k the sum is Qa or Qb
    ctx = _Context(curve, inp.construction, k, 2 * k, inp.torsion_choice,
                   inp.pair_selection.to_dict())
    _require(ctx, INVARIANTS)
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
        points=ctx.points,
        g_divisor=ctx.g_divisor,
        generator_matrix=ctx.generator_matrix,
        scaling_v=ctx.scaling_v,
        hull_dim=ctx.hull_dim,
        mds_subset_count=ctx.mds_subset_count,
        min_distance=ctx.min_distance,
        min_distance_method=ctx.min_distance_method,
        iso_dual=True,
    )


# ---------------------------------------------------------------------------
# certificate invariants, shared by `construct` and the verifier
# ---------------------------------------------------------------------------

_ADD_TABLE_Q_PER_K = (12, 16)
"""An op asks for the field's add table (`FieldSpec.add_table`) when
q <= c k, c = 12 in prime fields and 16 in extension fields: its build
grows as q^2, the adds it speeds up as k^2.  Construct and verify of
[2k, k] curve codes, each with its field build, took this many times as
long on split adds as on the table (medians of 5-9 runs, Python 3.11,
2-core Xeon): over GF(289) 0.92 at k = 16, 0.87-1.24 at 20 and 1.02-1.12
at 22; over GF(625) 0.84-0.98 at 36 and 1.08-1.24 at 44; over GF(729)
0.33-0.44 at 4, 0.91-1.01 at 44, 1.01-1.08 at 48, 1.54-1.57 at 64.  On
adds mod p, cheaper than the split, it was 0.79 at k = 64, 0.87-0.89 at
72, 1.01-1.10 at 80, 1.19-1.22 at 88 and 1.35-1.36 at 100 over GF(997),
and 0.72-0.75, 0.89-0.90, 0.90-1.00, 1.11-1.33 and 1.17-1.27 over
GF(1021).  The transforms (`lcd_transform`, the scaling samplers) rank so
many scaled hulls that they ask for it whatever k is."""


class _Context:
    """One op's certificate fields and the values derived from it.

    `cert` is the recorded claim under check, or None when constructing:
    then the input echo's one derivation gives Qa and the points, and
    `claim` is the context itself.  G and v always come from Qa and the
    points, (x, y) encodings as the file writes them.  Each derived value is
    computed on first use and kept, so an invariant pays only for what it
    reads and a failed invariant skips the work of the ones after it.
    """

    iso_dual = True     # what a construction claims; the identity proves it

    def __init__(self, curve: Curve, construction: int, k: int, n: int,
                 torsion_choice: Optional[tuple[int, int]], pair_selection: object,
                 cert: Optional[IsoDualCertificate] = None):
        self.curve, self.spec = curve, curve.spec
        self.construction, self.k, self.n = construction, k, n
        self.torsion_choice, self.pair_selection = torsion_choice, pair_selection
        self.cert = cert
        if self.spec.q <= _ADD_TABLE_Q_PER_K[self.spec.m > 1] * k:
            self.spec.add_table()
        if cert is None:        # a ConstructionError surfaces here
            self.qa, self.points = self.derived
            self.g_divisor = ((None, k - 1), (self.qa, 1))
        else:
            self.points, self.g_divisor = cert.points, cert.g_divisor
            self.qa = next((pt for pt, _ in cert.g_divisor if pt is not None), None)

    @property
    def claim(self):
        """Computed on each read: storing self would make a reference cycle."""
        return self if self.cert is None else self.cert

    @cached_property
    def derived(self) -> tuple[tuple[int, int], tuple]:
        """(Qa, points) of the input echo, or `ConstructionError`."""
        selection = _selection(self)
        if selection is None:
            raise ConstructionError("the pair selection is not well formed")
        return _derive_points(self.curve, self.k, self.construction,
                              self.torsion_choice, selection)

    @cached_property
    def basis(self) -> funcspace.RRBasis:
        """The checked handle (curve, Qa, k) of the basis 1, u, x, u x, ...
        of L((k-1)O + Qa); `FunctionError` for a G no construction has."""
        return funcspace.rr_basis(self.curve, self.k, self.qa)

    @cached_property
    def code(self) -> Optional[LinearCode]:
        """The systematic generator [I | A] of the points, in closed form
        (`funcspace.systematic_rows`), with the points' x's as its nodes
        and the closed form's factors of its displacement R;
        `iso_dual_identity` has it carry v, so C.v is its dual.  The closed
        form is already an RREF of k rows n long (the `n_equals_2k` gate),
        so it skips `LinearCode`'s entry checks.  None where the first k
        points are not k/2 whole pairs, which the canonical order of
        `construct`'s points never gives: `matrix_rref`,
        `iso_dual_identity`, `hull` and an exhaustive `min_distance` then
        fail."""
        made = funcspace.systematic_rows(self.basis, self.points)
        if made is None:
            return None
        rows, r_factors = made
        return LinearCode._made(self.spec, self.n, tuple(map(tuple, rows)),
                                tuple(x for x, _ in self.points), r_factors)

    @property
    def generator_matrix(self) -> tuple[tuple[int, ...], ...]:
        return self.code.matrix

    @cached_property
    def scaling_v(self) -> Optional[tuple[int, ...]]:
        """The scaling carrying the code onto its dual (module docstring),
        with log h'(alpha) the sum of log (alpha - beta) over all distinct
        x's beta, alpha's own term adding log 0 = 4(q - 1), 0 mod q - 1.
        None when a point with y = 0 or x = beta leaves some v_i undefined
        or zero, which only a file failing an earlier invariant holds."""
        spec, points = self.spec, self.points
        log, exp, q1 = spec._log, spec._exp, spec.q - 1
        xs = {x for x, _ in points}
        if spec.p == 2:
            lhp = {a: sum([log[a ^ b] for b in xs]) for a in xs}
            return tuple([exp[-lhp[x] % q1] for x, _ in points])
        beta, sub = self.qa[0], spec.sub_enc
        if any(x == beta or not y for x, y in points):
            return None
        if spec._addt is None:
            lhp = {a: sum([log[sub(a, b)] for b in xs]) for a in xs}
        else:
            addt, neg_xs = spec._addt, [spec._negt[b] for b in xs]
            lhp = {a: sum(map(log.__getitem__, map(addt[a].__getitem__, neg_xs))) for a in xs}
        return tuple([exp[(log[sub(x, beta)] - lhp[x] - log[y]) % q1]
                      for x, y in points])

    @cached_property
    def mds_subset_count(self) -> int:
        """1 if some k-subset of the points sums to sum(G) = Qa, else 0; an
        int, so the certificate writes 0, not false.  The dlogs come from
        the derivation's walks; a point or Qa off them, on a file whose
        points the derivation does not give, pays for the full walk."""
        try:
            return mds_subset_check(self.points, self.curve._basis(), self.k, self.qa)
        except CurveError:
            return mds_subset_check(self.points, self.curve.group_structure(),
                                    self.k, self.qa)

    @cached_property
    def hull_dim(self) -> Optional[int]:
        """k - rank of the moment Gram at w = 1, entry S[e + e'][a + a'] at
        u^e x^a, u^e' x^a', from its (k/2) x (k/2) Hankel blocks H(S)
        (`linalg.hankel_rank`); `LinearCode.hull_dim` cross-checks it
        against G.  Reordered, the Gram is diag(H, H) [[0, I], [I, I]] of
        rank 2 rank H, H = H(S1), when S0 = 0 and S1 = S2, diag(H(S0), H(S2))
        when S1 = 0 (`funcspace.point_moments`).  None with no code or
        points in neither shape, which no construction gives."""
        if self.code is None:
            return None
        spec, (s0, s1, s2) = self.spec, funcspace.point_moments(self.basis, self.points)
        if not any(s0) and s1 == s2:
            rank = 2 * linalg.hankel_rank(s1, spec)
        elif not any(s1):
            rank = linalg.hankel_rank(s0, spec) + linalg.hankel_rank(s2, spec)
        else:
            return None
        return self.code.hull_dim(rank)

    @cached_property
    def min_distance_method(self) -> str:
        return "exhaustive" if self.spec.q ** self.k <= BRUTE_FORCE_BUDGET else "dp"

    @cached_property
    def min_distance(self) -> Optional[int]:
        """Enumerated within the budget, None with no code; otherwise n-k+1
        from the DP witness."""
        if self.min_distance_method == "exhaustive":
            return None if self.code is None else self.code.min_distance()
        return self.k + 1


def _x_pairs(c: _Context) -> bool:
    """Exactly k distinct x's, each carried by two points."""
    carriers = Counter(x for x, _ in c.points)
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
    try:
        return c.derived == (c.qa, c.points)
    except ConstructionError:
        return False


def _iso_dual_identity(c: _Context) -> bool:
    """A zero Gram under v of a basis of C puts C.v inside C-perp, and with
    n = 2k (the `n_equals_2k` gate) both have dimension k, so C.v is C-perp:
    the code carries v as its dual, which the `hull` cross-check then reads
    without a nullspace or the matrix of C.v.  For even k every point
    moment at w = v is a Gram entry, so the Gram is 0 iff the 3(k-1)
    moments are."""
    code, v = c.code, c.scaling_v
    if code is None or v is None or any(
            map(any, funcspace.point_moments(c.basis, c.points, v))):
        return False
    code._carry_dual(v)
    return True


# (name, predicate), in the order they run.  `x_pairs` makes the roots of h
# distinct, so h' is nonzero at every point; `y_nonzero` and
# `points_off_qa_x` keep the odd-characteristic v_i finite and nonzero.
INVARIANTS: tuple[tuple[str, Callable[[_Context], bool]], ...] = (
    ("construction_matches_field",
     lambda c: c.construction == (1 if c.spec.p == 2 else 2)),
    ("iso_dual_claimed", lambda c: c.claim.iso_dual is True),
    ("pair_selection_well_formed", lambda c: _selection(c) is not None),
    ("n_equals_2k", lambda c: c.n == 2 * c.k and len(c.points) == c.n),
    ("points_on_curve", lambda c: all(map(c.curve._law.contains, c.points))),
    ("points_distinct", lambda c: len(set(c.points)) == len(c.points)),
    ("x_pairs", _x_pairs),
    ("y_nonzero", lambda c: c.spec.p == 2 or all(y for _, y in c.points)),
    ("points_off_qa_x", lambda c: c.qa is None
     or all(x != c.qa[0] for x, _ in c.points)),
    ("g_shape", lambda c: c.qa is not None
     and c.g_divisor == ((None, c.k - 1), (c.qa, 1))
     and c.curve._law.contains(c.qa) and c.curve._law.add(c.qa, c.qa) is None),
    ("points_disjoint_from_G", lambda c: c.qa not in c.points),
    ("matrix_rref", lambda c: c.code is not None
     and c.code.matrix == c.claim.generator_matrix),
    ("iso_dual_identity", _iso_dual_identity),
    ("scaling_matches_points", lambda c: c.scaling_v is not None
     and c.claim.scaling_v == c.scaling_v),
    ("points_match_input", _points_match_input),
    ("mds_witness", lambda c: c.claim.mds_subset_count == c.mds_subset_count == 0),
    ("hull", lambda c: c.hull_dim is not None and c.claim.hull_dim == c.hull_dim),
    ("length_bound", lambda c: c.n <= c.curve.order() // 2),
    ("min_distance", lambda c: c.claim.min_distance_method == c.min_distance_method
     and c.claim.min_distance == c.k + 1 == c.min_distance),
)

# a failed gate ends verification: the invariants after it read Qa, or
# build G from the file's k, which only n = 2k = #points bounds
_GATES = ("n_equals_2k", "g_shape")

# what `IsoDualCertificate.code` proves: the table up to the file's matrix
# being the closed form of its points, that code carrying the v they give,
# and that v being the file's
_CODE_INVARIANTS = INVARIANTS[:[name for name, _ in INVARIANTS].index(
    "scaling_matches_points") + 1]


def _require(ctx: _Context, invariants) -> None:
    """`VerificationError` naming the first of `invariants` that fails."""
    for name, holds in invariants:
        if not holds(ctx):
            raise VerificationError(f"certificate invariant {name} failed")


def _file_context(cert: IsoDualCertificate) -> _Context:
    """The file's context, for the verifier and `IsoDualCertificate.code`,
    or `CertificateSchemaError`: its field and curve build, spelled as
    `construct` writes them, every matrix row is n long, and the matrix, v,
    the points and G's first affine point hold field encodings only."""
    try:
        curve = cert.curve()
    except (gf.FieldError, CurveError) as exc:
        raise CertificateSchemaError(f"certificate data invalid: {exc}") from None
    if (curve.spec.to_string(), curve.to_string()) != (cert.field_spec, cert.curve_spec):
        raise CertificateSchemaError(
            "field and curve must be spelled as construct writes them")
    ctx = _Context(curve, cert.construction, cert.k, cert.n,
                   cert.torsion_choice, cert.pair_selection, cert)
    q, n = curve.spec.q, len(cert.scaling_v)    # n, as `from_json` checks
    rows = (*cert.generator_matrix, cert.scaling_v)
    coords = [c for p in (*ctx.points, ctx.qa or ()) for c in p]
    if not (all(len(r) == n for r in rows) and all(
            not r or 0 <= min(r) and max(r) < q for r in (*rows, coords))):
        raise CertificateSchemaError(
            "generator_matrix rows must be n long, and they, scaling_v, the "
            "points and G's point must hold field encodings only")
    return ctx


class Failures(list):
    """The names of the invariants a file fails, in table order; `complete`
    is False where the run stopped early and the rest never ran."""

    complete = True


def _run(cert: IsoDualCertificate, invariants) -> Failures:
    """The `invariants` that fail on the file's context; a failed gate ends
    the run, and with none `cert` keeps its code.  A file `_file_context`
    refuses is a `CertificateSchemaError`, as is other data the library
    cannot evaluate (a bad point, one outside the group, a curve of the
    wrong shape) before any invariant fails; after one, it ends the run."""
    failures = Failures()
    try:
        ctx = _file_context(cert)
        for name, holds in invariants:
            if not holds(ctx):
                failures.append(name)
                if name in _GATES:
                    failures.complete = False
                    break
    except (gf.FieldError, CurveError, CodeError, funcspace.FunctionError) as exc:
        if not failures:
            raise CertificateSchemaError(f"certificate data invalid: {exc}") from None
        failures.complete = False
    if not failures:
        object.__setattr__(cert, "_code", ctx.code)
    return failures


def verify_certificate(cert: IsoDualCertificate) -> Failures:
    """The failures of `INVARIANTS` on the file's data alone (`_run`)."""
    return _run(cert, INVARIANTS)


# ---------------------------------------------------------------------------
# transforms: self-dual and LCD scalings
# ---------------------------------------------------------------------------

def selfdual_transform(cert: IsoDualCertificate) -> tuple[ScalingVector, LinearCode]:
    """u with u_i^2 = v_i turns the code self-dual (characteristic 2 only,
    read before any table is built).  `cert` must be verified
    (`verify_certificate`): u is read from its v and scales the kept code."""
    if FieldSpec.parse(cert.field_spec)[0] != 2:
        raise ConstructionError(
            "odd characteristic: square roots of v may not exist; "
            "no self-dual scaling is provided")
    code = cert.code()
    u = [code.spec.sqrt_enc(e) for e in cert.scaling_v]
    return ScalingVector(code.spec, u), _accept(code, u, cert.k, "self-dual transform")


def lcd_transform(cert: IsoDualCertificate,
                  budget: int = 2000) -> Optional[tuple[ScalingVector, LinearCode]]:
    """Search the canonical ladder of scalings for a zero hull.

    Candidates are 1 everywhere except ell' positions carrying one
    non-square-one entry; ordered by (ell', entry encoding, position
    combination).  Returns the first success within `budget` hull
    evaluations, or None; a budget below 1 is a `ValueError`.  `cert` must
    be verified (`verify_certificate`): the search scales the code it kept,
    its recorded hull_dim starts the ladder, and hull_dim 0 returns the
    all-ones scaling with no search.
    """
    if budget < 1:
        raise ValueError(f"LCD search budget must be at least 1, got {budget}")
    code = cert.code()
    spec, ell = code.spec, cert.hull_dim
    if ell == 0:
        return ScalingVector(spec, [1] * cert.n), code
    spec.add_table()        # for up to `budget` scaled hulls
    mul = spec.mul_enc
    non_square_one = [e for e in range(2, spec.q) if mul(e, e) != 1]
    spent = 0
    for lprime in range(ell, cert.n + 1):
        for entry in non_square_one:
            for combo in combinations(range(cert.n), lprime):
                if spent >= budget:
                    return None
                spent += 1
                u = [1] * cert.n
                for pos in combo:
                    u[pos] = entry
                if code.stacked_hull_dim([mul(x, x) for x in u]) == 0:
                    return ScalingVector(spec, u), _accept(code, u, 0, "LCD search")
    return None


def _accept(code: LinearCode, u: Sequence[int], hull: int, what: str) -> LinearCode:
    """Build u.C, whose hull was `hull`, and cross-check it against its
    dual, carried by `LinearCode.scale` where `code` has one: a carried v
    goes over as v u^-2."""
    scaled = code.scale(u)
    if scaled.hull_dim() != hull:
        raise VerificationError(f"{what} did not reach hull = {hull}")
    return scaled


# ---------------------------------------------------------------------------
# seeded scaling samplers (hull statistics; used where claims range over
# all (q-1)^n vectors, which is not exhaustively checkable)
# ---------------------------------------------------------------------------

def _scaling_trials(code: LinearCode, trials: int, seed: int,
                    block: int) -> Iterator[tuple[list[int], int]]:
    """`trials` seeded random scalings u, each with the hull of u.C.

    u is constant on blocks of `block` coordinates, one `randrange(1, q)`
    per block: block=1 samples all of (F_q*)^n, block=2 the vectors
    constant on the inverse pairs the constructions emit adjacently, where
    the rare higher hulls live.  The hull is the `stacked_hull_dim` at
    w = u^2 against the dual of `code` (the carried v once C.v is proved,
    otherwise one nullspace), with no scaled code and no Gram matrix
    built, on the field's add table, which so many ranks pay for.  A
    negative trial count is a `ValueError`, and a block size that does not
    divide n a `CodeError`, both before the first draw."""
    if trials < 0:
        raise ValueError(f"trials must be at least 0, got {trials}")
    if block < 1 or code.n % block:
        raise CodeError(f"block size {block} is not a positive divisor of n = {code.n}")
    rng, q, mul = random.Random(seed), code.spec.q, code.spec.mul_enc
    code.spec.add_table()
    for _ in range(trials):
        u: list[int] = []
        for _ in range(code.n // block):
            u.extend([rng.randrange(1, q)] * block)
        yield u, code.stacked_hull_dim([mul(x, x) for x in u])


def sample_scaling_hulls(code: LinearCode, trials: int, seed: int = 0,
                         block: int = 1) -> dict[int, int]:
    """Hull-dimension histogram over `trials` random scaling vectors."""
    hulls = Counter(h for _, h in _scaling_trials(code, trials, seed, block))
    return dict(sorted(hulls.items()))


def find_scaling_with_hull(code: LinearCode, target_hull: int, trials: int = 2000,
                           seed: int = 0, block: int = 1) -> Optional[ScalingVector]:
    """First random scaling vector reaching the target hull dimension."""
    for u, h in _scaling_trials(code, trials, seed, block):
        if h == target_hull:
            _accept(code, u, target_hull, "hull search")
            return ScalingVector(code.spec, u)
    return None
