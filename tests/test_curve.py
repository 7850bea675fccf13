import os
import random
from itertools import product

import pytest

from ellcode import FieldError, FieldSpec, feasible_orders, odd_part
from ellcode import curve as curve_module
from ellcode.curve import Curve, CurveError, Point, INFINITY
from ellcode.isodual import (ConstructionInput, IsoDualCertificate, PairSelection,
                             construct, verify_certificate)
from ellcode.search import _curve_family, _default_spec, realized_orders
from oracle import (coefficient_elements, discriminant, enumerate_points,
                    group_structure_grid_walk, singular_points)


def test_known_points_lie_on_curves(f16, e16, f25, e25):
    assert e25.is_on_curve(Point(f25.element(4), f25.element(0)))   # (-1, 0)
    assert e25.is_on_curve(Point(f25.element(2), f25.element(3)))   # 9 = 8 + 1
    assert e16.is_on_curve(Point(f16.element(0), f16.element(11)))


def test_field_mismatch_rejected(e16, f25):
    with pytest.raises(CurveError):
        e16.is_on_curve(Point(f25.element(1), f25.element(1)))


def test_singular_curve_rejected(f25):
    with pytest.raises(CurveError):
        Curve(f25, 0, 0, 0, 0, 0)     # y^2 = x^3


def test_curve_refuses_non_integer_coefficients(f25):
    with pytest.raises(FieldError):
        Curve(f25, 0, 0, 0, 0, 1.9)     # once read as y^2 = x^3 + 1


@pytest.mark.parametrize("bad, match", [
    (True, "not an int encoding"), ("1", "not an int encoding"), (25, "out of range"),
    (-1, "out of range")])
def test_curve_validates_each_coefficient_as_an_encoding(f25, bad, match):
    for i in range(5):
        coeffs = [0, 0, 0, 0, 1]
        coeffs[i] = bad
        with pytest.raises(FieldError, match=match):
            Curve(f25, *coeffs)


def test_curve_keeps_its_coefficients_as_encodings(f16, f25, e25):
    # a FieldElement of the field reads as its encoding, one of another
    # field is refused, and the curve keeps one tuple of five ints
    curve = Curve(f25, *(f25.element(c) for c in (0, 0, 0, 0, 1)))
    assert curve == e25 and curve.to_string() == "0,0,0,0,1"
    assert curve.coefficients() is curve.coefficients() == (0, 0, 0, 0, 1)
    assert all(type(c) is int for c in curve.coefficients())
    assert not any(hasattr(curve, name) for name in ("a1", "a2", "a3", "a4", "a6"))
    with pytest.raises(FieldError, match="different field"):
        Curve(f25, 0, 0, 0, 0, f16.element(1))


def _singular_at(spec, rng):
    """Encoded coefficients of y^2 + a1 xy = x^3 + a2 x^2, singular at the
    origin, moved by x -> x - r, y -> y - s to be singular at (r, s)."""
    a1, a2, r, s = (spec.element(rng.randrange(spec.q)) for _ in range(4))
    three = spec.element(3 % spec.p)
    a3 = -(s + s) - a1 * r
    a4 = three * r * r - (a2 + a2) * r + a1 * s
    a6 = a2 * r * r - r * r * r - s * s - a1 * r * s
    return (a1.enc, (a2 - three * r).enc, a3.enc, a4.enc, a6.enc), (r.enc, s.enc)


DISCRIMINANT_FIELDS = [4, 16, 25, 27, 61, 256, 729, 1031, 37 ** 3]


@pytest.mark.parametrize("q", DISCRIMINANT_FIELDS)
def test_discriminant_matches_the_oracle(q):
    # random coefficients, and curves moved to be singular at a random point:
    # the encoded discriminant is the FieldElement formula's, zero exactly
    # where the oracle's is, and `Curve` refuses exactly those
    spec = _default_spec(q)     # GF(37^3) over x^3 + 2, which splits its adds twice
    rng, zeros = random.Random(q), 0
    bare = Curve.__new__(Curve)
    bare.spec = spec
    for i in range(300):
        if i % 3:
            coeffs = tuple(rng.randrange(q) for _ in range(5))
        else:
            coeffs, at = _singular_at(spec, rng)
            if q <= 27:
                assert singular_points(spec, coeffs) == [at]
        bare._coeffs = coeffs
        expected = discriminant(spec, coeffs).enc
        assert type(bare.discriminant()) is int and bare.discriminant() == expected
        if expected:
            assert Curve(spec, *coeffs).discriminant() == expected
        else:
            zeros += 1
            with pytest.raises(CurveError, match="singular"):
                Curve(spec, *coeffs)
    assert zeros >= 100


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_curve_is_singular_exactly_where_a_singular_point_is(q):
    # every 5-tuple of coefficients: `Curve` refuses the curve exactly when
    # brute force finds a rational point where F and both partials vanish
    spec, singular = _default_spec(q), 0
    for coeffs in product(range(q), repeat=5):
        found = singular_points(spec, coeffs)
        assert len(found) <= 1, coeffs
        if found:
            singular += 1
            with pytest.raises(CurveError, match="singular"):
                Curve(spec, *coeffs)
        else:
            assert Curve(spec, *coeffs).discriminant()
    assert 0 < singular < q ** 5


def test_negation(f16, e16, f25, e25):
    q1 = Point(f16.element(0), f16.element(11))
    assert e16.mul(-1, q1) == q1          # order 2
    p = Point(f25.element(2), f25.element(3))
    assert e25.mul(-1, p) == Point(f25.element(2), -f25.element(3))
    assert e16.mul(-1, INFINITY) == INFINITY


def test_identity_and_two_torsion(e16, e25, f25):
    for p in e16.points()[:6]:
        assert e16.add(p, INFINITY) == p
        assert e16.add(INFINITY, p) == p
    q = Point(f25.element(4), f25.element(0))
    assert e25.add(q, q) == INFINITY


def test_odd_order_points_killed_by_11(e16):
    for p in e16.points():
        if not p.is_infinity and e16.point_order(p) % 2 == 1:
            assert e16.mul(11, p) == INFINITY


def test_point_counts(e16, e25):
    assert e16.order() == 22
    assert e25.order() == 36


def test_point_count_gf49():
    f49 = FieldSpec(7, 2, [3, 6, 1])
    e49 = Curve(f49, 0, 0, 0, 1, 3)
    assert e49.order() == 60


def test_canonical_point_order(e25):
    pts = e25.points()
    assert pts[0] == INFINITY
    keys = [p.key() for p in pts[1:]]
    assert keys == sorted(keys)


def test_point_order_examples(e16, e25, f16):
    assert e16.point_order(INFINITY) == 1
    assert e16.point_order(Point(f16.element(0), f16.element(11))) == 2
    for p in e25.points():
        assert 6 % e25.point_order(p) == 0


def test_group_structure_examples(e16, e25):
    st = e16.group_structure()
    assert (st.d1, st.d2) == (1, 22)
    st = e25.group_structure()
    assert (st.d1, st.d2) == (6, 6)


def test_group_structure_gf289():
    f = FieldSpec(17, 2, [3, 16, 1])
    e = Curve(f, 0, 0, 0, 0, 1)
    assert e.order() == 324
    st = e.group_structure()
    assert (st.d1, st.d2) == (18, 18)


def test_structure_invariants_and_reconstruction(e16, e25):
    for curve in (e16, e25):
        st = curve.group_structure()
        assert st.d1 * st.d2 == curve.order()
        assert st.d2 % st.d1 == 0
        if st.d1 > 1:
            assert (curve.spec.q - 1) % st.d1 == 0
        p1, p2 = map(curve._point, st.basis)
        points = curve.points()
        assert len(st.dlog) == len(points)
        for point in points:
            i, j = st.dlog[curve_module._enc(point)]
            rebuilt = curve.add(curve.mul(i, p1), curve.mul(j, p2))
            assert rebuilt == point
        assert st.dlog[p2.key()] == (0, 1 % st.d2)


def test_coords_rejects_a_point_over_another_field(e25, f25):
    # the dlog table is keyed by encodings, O by None: (2, 2) is a point of
    # the GF(25) curve, and an encoding pair off the curve is no key
    st = e25.group_structure()
    own = Point(f25.element(2), f25.element(2))
    assert e25.is_on_curve(own) and st.dlog[own.key()] == (0, 1)
    off = next(e for e in product(range(25), repeat=2) if not e25._law.contains(e))
    assert off not in st.dlog and len(st.dlog) == e25.order()
    assert st.dlog[None] == (0, 0)


def test_points_built_only_at_the_edge(monkeypatch):
    # order, structure and point_order run on encodings, the basis too, so
    # none builds a Point; torsion_points builds exactly the points it returns
    f = FieldSpec(17, 2, [3, 16, 1])
    curve = Curve(f, 0, 0, 0, 0, 1)
    q = Point(f.element(16), f.element(0))
    built, make = [], Curve._point

    def counted(self, e):
        built.append(e)
        return make(self, e)

    monkeypatch.setattr(Curve, "_point", counted)
    assert curve.order() == 324
    assert (curve.group_structure().d1, curve.point_order(q)) == (18, 2)
    assert built == []
    torsion = curve.torsion_points(3)
    assert len(built) == len(torsion) == 9


GOLDENS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "goldens")


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(GOLDENS) if f.startswith("q")))
def test_construct_and_verify_build_points_only_at_the_edge(monkeypatch, name):
    # the evaluation points, Qa, which `rr_basis` takes, and the group basis
    # all stay (x, y) encodings, as the certificate writes them: an op builds
    # no Point
    with open(os.path.join(GOLDENS, name)) as fh:
        text = fh.read()
    cert = IsoDualCertificate.from_json(text)
    sel = cert.pair_selection
    inp = ConstructionInput(cert.curve(), cert.k, cert.construction, cert.torsion_choice,
                            PairSelection(sel["mode"], sel["r"],
                                          sel["pairs_x"] and tuple(sel["pairs_x"])))
    built, init = [], Point.__init__

    def counted(self, x, y):
        built.append((x, y))
        init(self, x, y)

    monkeypatch.setattr(Point, "__init__", counted)
    assert construct(inp).to_json() == text
    assert built == []
    assert verify_certificate(cert) == []
    assert built == []


def test_torsion_points(e25, f25):
    assert e25.torsion_points(1) == [INFINITY]
    t2 = e25.torsion_points(2)
    assert t2 == [INFINITY,
                  Point(f25.element(4), f25.element(0)),
                  Point(f25.element(12), f25.element(0)),
                  Point(f25.element(19), f25.element(0))]
    assert len(e25.torsion_points(3)) == 9


def test_two_torsion_matches_doubling_kernel(e16, e25):
    for curve in (e16, e25):
        kernel = [p for p in curve.points() if curve.add(p, p) == INFINITY]
        assert curve.torsion_points(2) == kernel
        assert len(kernel) in (1, 2, 4)


def test_associativity_exhaustive_small(e16):
    pts = e16.points()
    for a in pts:
        for b in pts:
            ab = e16.add(a, b)
            for c in pts:
                assert e16.add(ab, c) == e16.add(a, e16.add(b, c))


def test_order_annihilates_curve(e16, e25):
    for curve in (e16, e25):
        n = curve.order()
        for p in curve.points():
            assert curve.mul(n, p) == INFINITY


def test_scalar_mul_negative(e25):
    p = e25.points()[5]
    assert e25.mul(-3, p) == e25.mul(-1, e25.mul(3, p))


def test_hasse_bound_small_fields():
    for q in (2, 3, 5):
        for n in realized_orders(q):
            assert (n - q - 1) ** 2 <= 4 * q


def test_feasible_orders_gf4_all_orders():
    orders = sorted({n for n, _, _ in feasible_orders(4)})
    assert orders == list(range(1, 10))


def test_feasible_orders_gf16_includes_22():
    entries = {n: case for n, beta, case in feasible_orders(16)}
    assert entries[22] == "a"


def test_feasible_orders_gf2_case_d():
    entries = [(beta, case) for _, beta, case in feasible_orders(2)]
    assert (2, "d") in entries and (-2, "d") in entries


def test_feasible_orders_rejects_non_prime_power():
    with pytest.raises(CurveError):
        feasible_orders(12)


def test_curve_string_round_trip(e16, f16):
    assert Curve.from_string(f16, e16.to_string()) == e16
    with pytest.raises(CurveError):
        Curve.from_string(f16, "1,2,3")


def test_odd_part():
    assert odd_part(22) == 11
    assert odd_part(36) == 9
    assert odd_part(7) == 7
    assert odd_part(1) == 1


@pytest.mark.parametrize("n", [0, -1, -8])
def test_odd_part_rejects_non_positive(n):
    with pytest.raises(ValueError):
        odd_part(n)


# -- the group law on encodings against a FieldElement reference -------------

def _reference_add(curve, p, q):
    """The chord-tangent law written on FieldElement coordinates."""
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    s = curve.spec
    a1, a2, a3, a4, _ = coefficient_elements(curve)
    x1, y1, x2, y2 = p.x, p.y, q.x, q.y
    if x1 == x2:
        if y2 == -y1 - a1 * x1 - a3:
            return INFINITY
        two, three = s.element(2 % s.p), s.element(3 % s.p)
        lam = ((three * x1 * x1 + two * a2 * x1 + a4 - a1 * y1)
               / (two * y1 + a1 * x1 + a3))
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = lam * (x1 - x3) - y1 - a1 * x3 - a3
    return Point(x3, y3)


# (q, field, curve, (d1, d2), (p1, p2) as encodings with None for O,
#  number of points of odd order other than O)
PAPER_CURVES = [
    (16, "p=2,m=4,mod=1,1,0,0,1", "1,8,0,0,9", (1, 22), (None, (1, 0)), 10),
    (32, "p=2,m=5,mod=1,0,1,0,0,1", "1,1,0,0,6", (1, 42), (None, (6, 17)), 20),
    (64, "p=2,m=6,mod=1,1,0,1,1,0,1", "1,8,0,0,9", (1, 78), (None, (1, 0)), 38),
    (256, "p=2,m=8,mod=1,0,1,1,1,0,0,0,1", "1,32,0,0,50", (1, 286),
     (None, (1, 208)), 142),
    (25, "p=5,m=2,mod=2,4,1", "0,0,0,0,1", (6, 6), ((8, 14), (2, 2)), 8),
    (49, "p=7,m=2,mod=3,6,1", "0,0,0,1,3", (2, 30), ((14, 0), (9, 19)), 14),
    (289, "p=17,m=2,mod=3,16,1", "0,0,0,0,1", (18, 18), ((22, 146), (6, 8)), 80),
    (729, "p=3,m=6,mod=2,1,0,0,0,0,1", "0,0,0,2,0", (28, 28),
     ((4, 309), (3, 309)), 48),
    (1031, "p=1031,m=1,mod=0,1", "0,1028,0,2,0", (2, 516), ((0, 0), (19, 367)), 128),
]
_CURVES: dict[int, Curve] = {}


def paper_curve(q: int) -> Curve:
    if q not in _CURVES:
        _, field, text, *_ = next(row for row in PAPER_CURVES if row[0] == q)
        _CURVES[q] = Curve.from_string(FieldSpec.from_string(field), text)
    return _CURVES[q]


# every coefficient in use, in characteristics 2, 3 and 5
GENERAL_CURVES = [
    ("p=2,m=4,mod=1,1,0,0,1", "1,2,3,4,5"),
    ("p=2,m=4,mod=1,1,0,0,1", "0,0,1,0,0"),
    ("p=3,m=3,mod=1,2,0,1", "1,2,3,4,5"),
    ("p=5,m=2,mod=2,4,1", "3,1,2,1,1"),
]


def general_curves() -> list[Curve]:
    return [Curve.from_string(FieldSpec.from_string(f), c) for f, c in GENERAL_CURVES]


def test_add_matches_reference_on_all_pairs(e16, e25):
    for curve in [e16, e25] + general_curves():
        pts = curve.points()
        for p in pts:
            for q in pts:
                assert curve.add(p, q) == _reference_add(curve, p, q)


@pytest.mark.parametrize("q", [289, 729, 1031])
def test_add_matches_reference_on_random_pairs(q):
    curve = paper_curve(q)
    pts = curve.points()
    rng = random.Random(q)
    pairs = [(rng.choice(pts), rng.choice(pts)) for _ in range(400)]
    pairs += [(p, p) for p in rng.sample(pts, 50)]
    pairs += [(p, curve.mul(-1, p)) for p in rng.sample(pts, 50)]
    pairs += [(p, p) for p in curve.torsion_points(2)]
    for p, r in pairs:
        assert curve.add(p, r) == _reference_add(curve, p, r)


def test_mul_matches_repeated_add(e16, e25):
    for curve in [e16, e25] + general_curves():
        for p in curve.points():
            acc = INFINITY
            for n in range(2 * curve.order() + 1):
                assert curve.mul(n, p) == acc
                assert curve.mul(-n, p) == curve.mul(-1, acc)
                acc = curve.add(acc, p)


def test_prime_field_above_table_cap_adds_mod_p():
    p = 1031
    spec = FieldSpec.from_string("p=1031,m=1,mod=0,1")
    rng = random.Random(5)
    samples = [(0, 0), (p - 1, 1), (1, p - 1), (p - 1, p - 1)]
    samples += [(rng.randrange(p), rng.randrange(p)) for _ in range(2000)]
    for a, b in samples:
        assert spec.add_enc(a, b) == (a + b) % p
        assert spec.sub_enc(a, b) == (a - b) % p
        assert spec.neg_enc(a) == (-a) % p


# -- structure, orders and torsion pinned to their exact values ---------------

@pytest.mark.parametrize("q, field, text, shape, basis, odd_count", PAPER_CURVES,
                         ids=[f"q{row[0]}" for row in PAPER_CURVES])
def test_pinned_group_structure(q, field, text, shape, basis, odd_count):
    curve = paper_curve(q)
    st = curve.group_structure()
    assert (st.d1, st.d2) == shape
    assert st.basis == basis
    odd = [p for p in curve.points()
           if not p.is_infinity and curve.point_order(p) % 2 == 1]
    assert len(odd) == odd_count


def _brute_order(curve, p):
    n, acc = 1, p
    while not acc.is_infinity:
        acc = curve.add(acc, p)
        n += 1
    return n


def test_walk_orders_and_torsion_match_brute_force():
    for curve in [paper_curve(q) for q in (16, 25, 49)] + general_curves():
        pts = curve.points()
        for p in pts:
            assert curve.point_order(p) == _brute_order(curve, p)
        for r in (2, 3, 9, 15):
            assert curve.torsion_points(r) == [p for p in pts
                                               if curve.mul(r, p).is_infinity]


def _sweep_curves(q: int, rng: random.Random, count: int) -> list[Curve]:
    """`count` random nonsingular curves over GF(q), every coefficient drawn."""
    spec, out = _default_spec(q), []
    while len(out) < count:
        try:
            out.append(Curve(spec, *(rng.randrange(q) for _ in range(5))))
        except CurveError:
            continue
    return out


@pytest.mark.parametrize("q", [5, 7, 9, 16, 25, 27, 49, 243, 1031])
def test_group_structure_matches_the_grid_walk_rule(q):
    # the basis is chosen by the prime-order test and one grid is walked;
    # the oracle walks grids until one covers the group.  Every curve of
    # the census family over GF(5), 7 and 9, sampled general curves of
    # every field (only a few over GF(1031), above the add-table cap), and
    # the paper curves of the field where there is one
    rng = random.Random(q)
    curves = _sweep_curves(q, rng, 3 if q == 1031 else 40)
    if q in (5, 7, 9):
        curves += list(_curve_family(q))
    curves += [paper_curve(row[0]) for row in PAPER_CURVES if row[0] == q]
    for curve in curves:
        st = curve.group_structure()
        assert (st.d1, st.d2, *st.basis, st.dlog) == \
            group_structure_grid_walk(curve), curve


# (q, curve, (d1, d2)) of census-family curves: odd d1 >= 3, where rows i
# and d1 - i of the walk differ, and odd d2
ODD_GROUPS = [
    (7, "0,0,0,0,2", (3, 3)),
    (13, "0,0,0,7,0", (3, 6)),
    (19, "0,0,0,0,5", (3, 9)),
    (16, "0,0,1,0,8", (5, 5)),
    (61, "0,0,0,0,4", (5, 15)),
    (43, "0,0,0,0,3", (7, 7)),
    (64, "0,0,1,0,0", (9, 9)),
    (16, "0,0,1,2,0", (1, 17)),
]


@pytest.mark.parametrize("q, text, group", ODD_GROUPS)
def test_group_structure_matches_the_grid_walk_rule_on_odd_groups(q, text, group):
    curve = Curve.from_string(_default_spec(q), text)
    st = curve.group_structure()
    assert (st.d1, st.d2) == group
    assert (st.d1, st.d2, *st.basis, st.dlog) == group_structure_grid_walk(curve)


def _first_on_each_x(pts: list) -> list:
    return [pt for k, pt in enumerate(pts) if k < 2 or pts[k - 1][0] != pt[0]]


@pytest.mark.parametrize("q", [row[0] for row in PAPER_CURVES])
def test_group_structure_walks_one_grid_on_the_paper_curves(monkeypatch, q):
    # one grid, walked with each row's mirror filled by negation in at most
    # #E/2 + d1 + 1 additions; orders are found by descent for the first
    # point on each x up to p2 only, but for O and the points alone on their
    # x (order 2): over GF(1031), the first of 9 pairs where p2 is the 21st
    walks, scanned = [], []
    real_grid, real_order = curve_module._grid, curve_module._order
    monkeypatch.setattr(curve_module, "_grid",
                        lambda *args: walks.append(args[3]) or real_grid(*args))
    monkeypatch.setattr(curve_module, "_order",
                        lambda *args: scanned.append(args[1]) or real_order(*args))
    _, field, text, *_ = next(row for row in PAPER_CURVES if row[0] == q)
    curve = Curve.from_string(FieldSpec.from_string(field), text)    # uncached
    adds, real_add = [], curve._law.add
    curve._law.add = lambda pt, qt: adds.append(pt) or real_add(pt, qt)
    st = curve.group_structure()
    walk_adds = len(adds)
    d1, d2, p1, p2, dlog = group_structure_grid_walk(curve)
    assert walks == [p1] and st.dlog == dlog and len(dlog) == curve.order()
    assert walk_adds <= curve.order() // 2 + d1 + 1
    firsts = _first_on_each_x(enumerate_points(curve))
    assert scanned == [pt for pt in firsts[:firsts.index(p2) + 1]
                       if pt is not None and curve._law.neg(pt) != pt]
    if q == 1031:
        assert len(scanned) == 9 and enumerate_points(curve).index(p2) == 20


@pytest.mark.parametrize("q", [row[0] for row in PAPER_CURVES])
def test_torsion_walks_match_the_grid_walk_filter(q):
    # E[r] for every r | #E on the golden curves (d1 = 6, 18 and 28 among
    # them) is the oracle's dlog filter {d1 | r i, d2 | r j}, walked as a
    # sub-grid from the basis alone, and every point a walk enters has the
    # oracle's dlog; a walk covers the group only where d2 | r
    _, field, text, *_ = next(row for row in PAPER_CURVES if row[0] == q)
    curve = Curve.from_string(FieldSpec.from_string(field), text)    # uncached
    d1, d2, p1, p2, dlog = group_structure_grid_walk(paper_curve(q))
    n = curve.order()
    assert curve._basis().basis == (p1, p2) and curve._structure.dlog == {}
    for r in [r for r in range(1, n + 1) if n % r == 0]:
        walked = curve._walk(r)
        assert walked == {pt: dlog[pt] for pt in walked}
        assert curve._torsion(r) == [pt for pt in enumerate_points(curve)
                                     if r * dlog[pt][0] % d1 == r * dlog[pt][1] % d2 == 0]
        assert (len(walked) == n) is (r % d2 == 0)
    assert curve.group_structure().dlog == dlog


def _scan_points(curve: Curve) -> list:
    """O and every (x, y) with y^2 + b y = rhs(x), b = a1 x + a3, found by
    trying every y against every x."""
    spec, (a1, _, a3, _, _) = curve.spec, curve.coefficients()
    mul, add, q = spec.mul_enc, spec.add_enc, spec.q
    lhs: dict[int, dict[int, list[int]]] = {}       # b -> {y^2 + b y: ys}
    pts = [None]
    for x in range(q):
        b = add(mul(a1, x), a3)
        if b not in lhs:
            lhs[b] = {}
            for y in range(q):
                lhs[b].setdefault(add(mul(y, y), mul(b, y)), []).append(y)
        pts += [(x, y) for y in lhs[b].get(curve._law.rhs(x), ())]
    return pts


@pytest.mark.parametrize("q", [3, 5, 25, 27, 729, 1031])
def test_enumerate_matches_a_scan_of_every_pair(q):
    # the oracle's enumeration, and the library's count and first point on
    # each x, where odd characteristic reads roots from the parity of the
    # field log and completes the square when a1 or a3 is nonzero.  Random
    # curves of both kinds (above 100, with a1 = 0 to keep the scan short);
    # the first of each has a6 = -(a3/2)^2, so (0, -a3/2) is the one point
    # on x = 0
    spec, rng = _default_spec(q), random.Random(q)
    half = spec.inv_enc(2)
    for plain in (True, False):
        made = 0
        while made < 4:
            a1, a3 = (0, 0) if plain else (rng.randrange(q) * (q < 100),
                                           rng.randrange(1, q))
            y0 = spec.neg_enc(spec.mul_enc(a3, half))
            a6 = rng.randrange(q) if made else spec.neg_enc(spec.mul_enc(y0, y0))
            try:
                curve = Curve(spec, a1, rng.randrange(q), a3, rng.randrange(q), a6)
            except CurveError:
                continue
            pts = enumerate_points(curve)
            assert pts == _scan_points(curve), curve
            assert curve.order() == len(pts), curve
            assert list(curve._on_each_x()) == _first_on_each_x(pts), curve
            if not made:
                assert [pt for pt in pts[1:] if pt[0] == 0] == [(0, y0)], curve
            made += 1


def _counted_scans(monkeypatch) -> list:
    """Patch the per-x routine so each scan it makes records, in one list
    per scan, the affine points read from it."""
    scans, real = [], Curve._on_each_x

    def counted(self, count=False):
        made = real(self, count)
        n, scan = made if count else (None, made)
        scans.append(read := [])
        scan = (pt for pt in scan if pt is None or not read.append(pt))
        return (n, scan) if count else scan

    monkeypatch.setattr(Curve, "_on_each_x", counted)
    return scans


# x's the basis scan reads on each golden, of the x's that carry points
GOLDEN_SCAN_READS = {"q16.json": (2, 11), "q32.json": (5, 21), "q64.json": (2, 39),
                     "q256.json": (2, 143), "q25.json": (8, 19), "q49.json": (11, 31),
                     "q289.json": (20, 163), "q729.json": (5, 393),
                     "q1031.json": (12, 517)}


@pytest.mark.parametrize("name", sorted(GOLDEN_SCAN_READS))
def test_construct_and_verify_list_no_point_of_the_group(monkeypatch, name):
    # #E comes from a count or the trace lift and the basis from a scan of
    # the first point on each x, read only as far as p1 and p2: neither op
    # lists E(F_q), so `points` and `group_structure` can raise
    def listed(self):
        raise AssertionError("E(F_q) listed")

    with open(os.path.join(GOLDENS, name)) as fh:
        text = fh.read()
    cert = IsoDualCertificate.from_json(text)
    sel = cert.pair_selection
    inp = ConstructionInput(cert.curve(), cert.k, cert.construction, cert.torsion_choice,
                            PairSelection(sel["mode"], sel["r"],
                                          sel["pairs_x"] and tuple(sel["pairs_x"])))
    monkeypatch.setattr(Curve, "points", listed)
    monkeypatch.setattr(Curve, "group_structure", listed)
    scans = _counted_scans(monkeypatch)
    assert construct(inp).to_json() == text
    assert verify_certificate(IsoDualCertificate.from_json(text)) == []
    reads, on_x = GOLDEN_SCAN_READS[name]
    assert [len(scan) for scan in scans] == [reads, reads]
    assert len(_first_on_each_x(enumerate_points(inp.curve))) == on_x + 1


@pytest.mark.parametrize("q", [16, 25, 27, 61])
def test_order_and_the_scan_match_the_oracle_on_every_curve_of_the_family(q):
    # the trace-mask count in characteristic 2, the character sums of the
    # odd extension and prime fields, and the first point on each x
    for curve in _curve_family(q):
        pts = enumerate_points(curve)
        assert curve.order() == len(pts), curve
        assert list(curve._on_each_x()) == _first_on_each_x(pts), curve


@pytest.mark.parametrize("q", [729, 625, 256])
def test_trace_lift_matches_the_oracle_on_subfield_curves(monkeypatch, q):
    # every short curve with coefficients in F_p, and 12 general ones, over
    # GF(3^6), GF(5^4) and GF(2^8): #E from #E(F_p) alone, no count over F_q
    spec, rng = _default_spec(q), random.Random(q)
    p, counts = spec.p, []
    real = Curve._on_each_x
    monkeypatch.setattr(Curve, "_on_each_x",
                        lambda self, count=False: counts.append(count) or real(self, count))
    shapes = [(a1, 0, a3, a4, a6) for a1, a3 in ((1, 0), (0, 1)) for a4 in range(p)
              for a6 in range(p)] if p == 2 else \
        [(0, 0, 0, a4, a6) for a4 in range(p) for a6 in range(p)]
    shapes += [tuple(rng.randrange(p) for _ in range(5)) for _ in range(12)]
    lifted = 0
    for coefficients in shapes:
        try:
            curve = Curve(spec, *coefficients)
        except CurveError:
            continue
        assert curve.order() == len(enumerate_points(curve)), curve
        lifted += 1
    assert lifted > 12 and True not in counts


@pytest.mark.parametrize("q", [row[0] for row in PAPER_CURVES])
def test_points_match_the_oracle_on_the_paper_curves(q):
    _, field, text, *_ = next(row for row in PAPER_CURVES if row[0] == q)
    curve = Curve.from_string(FieldSpec.from_string(field), text)    # uncached
    assert [None if p.is_infinity else p.key() for p in curve.points()] == \
        enumerate_points(paper_curve(q))
