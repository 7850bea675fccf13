"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines live.
The heavyweight certificates are session fixtures shared across criteria.
"""

import json
import time

import pytest

from ellcode.gf import FieldSpec
from ellcode.curve import Curve, Point, INFINITY, feasible_orders
from ellcode.funcspace import rr_basis
from ellcode.code import ScalingVector, subset_sum_reachable
from ellcode.isodual import (ConstructionInput, IsoDualCertificate,
                             PairSelection, construct, find_scaling_with_hull,
                             lcd_transform, selfdual_transform)
from ellcode.eaqecc import derive
from ellcode.search import (AbelianGroupSpec, bound_table, lemma_max_search,
                            realized_orders)
from ellcode.cli import main as cli_main
from oracle import (coefficient_elements, pole_orders_at_O, subset_sum_counts,
                    subset_sum_counts_exhaustive, validate_rr_basis)


def _report(criterion, message):
    print(f"\nACCEPTANCE {criterion}: PASS - {message}", flush=True)


# ---------------------------------------------------------------------------
# session fixtures for the heavyweight constructions
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def e32():
    return Curve(FieldSpec(2, 5, [1, 0, 1, 0, 0, 1]), 1, 1, 0, 0, 6)


@pytest.fixture(scope="session")
def e49():
    return Curve(FieldSpec(7, 2, [3, 6, 1]), 0, 0, 0, 1, 3)


@pytest.fixture(scope="session")
def e64():
    return Curve(FieldSpec(2, 6, [1, 1, 0, 1, 1, 0, 1]), 1, 8, 0, 0, 9)


@pytest.fixture(scope="session")
def e256():
    return Curve(FieldSpec(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1]), 1, 32, 0, 0, 50)


@pytest.fixture(scope="session")
def e289():
    return Curve(FieldSpec(17, 2, [3, 16, 1]), 0, 0, 0, 0, 1)


@pytest.fixture(scope="session")
def cert32(e32):
    return construct(ConstructionInput(e32, 10, 1))


@pytest.fixture(scope="session")
def cert49(e49):
    return construct(ConstructionInput(
        e49, 14, 2, torsion_choice=(1, 2),
        pair_selection=PairSelection("torsion", r=15)))


@pytest.fixture(scope="session")
def cert289(e289):
    return construct(ConstructionInput(
        e289, 80, 2, torsion_choice=(2, 3),
        pair_selection=PairSelection("torsion", r=9)))


def _pair_keys(curve):
    """x-coordinates of the translated odd-order pairs, ascending."""
    spec = curve.spec
    gamma1 = coefficient_elements(curve)[4].sqrt()
    q1 = Point(spec.zero, gamma1)
    keys = set()
    for p in curve.points():
        if not p.is_infinity and curve.point_order(p) % 2 == 1:
            keys.add(curve.add(q1, p).x.enc)
    return sorted(keys)


def _leave_one_out_search(curve, k, target_hull):
    """Drop one pair at a time (canonical order) until the hull hits the
    target; returns (certificate, candidates tried)."""
    keys = _pair_keys(curve)
    assert len(keys) == k + 1
    for tried, drop in enumerate(keys, start=1):
        selection = tuple(x for x in keys if x != drop)
        cert = construct(ConstructionInput(
            curve, k, 1, pair_selection=PairSelection("pairs_x", pairs_x=selection)))
        if cert.hull_dim == target_hull:
            return cert, tried
    raise AssertionError(f"no {k}-of-{k + 1} selection reached hull {target_hull}")


@pytest.fixture(scope="session")
def cert64_hull2(e64):
    return _leave_one_out_search(e64, 18, 2)


@pytest.fixture(scope="session")
def cert256_hull2(e256):
    return _leave_one_out_search(e256, 70, 2)


# ---------------------------------------------------------------------------
# criterion 1: Example IV.1 exact reproduction, < 1 s
# ---------------------------------------------------------------------------

def test_criterion_1_example_iv1(e16, f16):
    t0 = time.time()
    cert = construct(ConstructionInput(
        e16, 4, 1, pair_selection=PairSelection("pairs_x", pairs_x=(5, 1, 2, 7))))
    assert (cert.n, cert.k, cert.min_distance) == (8, 4, 5)
    assert cert.min_distance_method == "exhaustive"
    code = cert.code()
    v = ScalingVector(e16.spec, cert.scaling_v)
    assert code.scale(v).matrix == code.dual().matrix
    assert cert.hull_dim == 0 and code.hull_dim() == 0
    u = ScalingVector(f16, [4, 4, 3, 3, 2, 2, 5, 5])   # theta^2,...,theta^2+1
    assert code.scale(u).hull_dim() == 4
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    _report(1, f"[8,4,5] iso-dual, hull 0, hull(u.C) = 4 in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: Section V Example 1, < 10 s
# ---------------------------------------------------------------------------

def test_criterion_2_example_v1(e25, cert25):
    t0 = time.time()
    assert (cert25.n, cert25.k, cert25.min_distance) == (16, 8, 9)
    assert cert25.min_distance_method == "dp"
    assert cert25.mds_subset_count == 0
    assert cert25.hull_dim == 0
    code = cert25.code()
    assert code.scale(ScalingVector(e25.spec, cert25.scaling_v)).matrix == code.dual().matrix
    # 25^8 brute force is infeasible; the k=4 sibling is checked exhaustively
    sibling = construct(ConstructionInput(e25, 4, 2))
    assert sibling.min_distance_method == "exhaustive"
    assert (sibling.n, sibling.k, sibling.min_distance) == (8, 4, 5)
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.2f}s"
    _report(2, f"[16,8,9] iso-dual MDS hull 0; sibling [8,4,5] exhaustive "
               f"in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 3: pair-subset search for q = 64 and q = 256, < 5 min total
# ---------------------------------------------------------------------------

def test_criterion_3_pair_subset_search(cert64_hull2, cert256_hull2):
    t0 = time.time()
    cert64, tried64 = cert64_hull2
    assert tried64 <= 19
    assert (cert64.n, cert64.k, cert64.hull_dim) == (36, 18, 2)
    u64, selfdual64 = selfdual_transform(cert64)
    assert selfdual64.hull_dim() == 18
    cert256, tried256 = cert256_hull2
    assert tried256 <= 71
    assert (cert256.n, cert256.k, cert256.hull_dim) == (140, 70, 2)
    u256, selfdual256 = selfdual_transform(cert256)
    assert selfdual256.hull_dim() == 70
    elapsed = time.time() - t0
    _report(3, f"q=64 hull 2 after {tried64} candidate(s), self-dual hull 18; "
               f"q=256 hull 2 after {tried256} candidate(s), self-dual hull 70 "
               f"(+{elapsed:.1f}s on top of fixtures)")


# ---------------------------------------------------------------------------
# criterion 4: Section V Examples 2 and 3, < 2 min
# ---------------------------------------------------------------------------

def test_criterion_4_v2_and_v3(cert49, cert289):
    t0 = time.time()
    assert (cert49.n, cert49.k, cert49.min_distance, cert49.hull_dim) == \
        (28, 14, 15, 0)
    assert cert49.iso_dual and cert49.mds_subset_count == 0
    assert (cert289.n, cert289.k, cert289.min_distance, cert289.hull_dim) == \
        (160, 80, 81, 0)
    assert cert289.iso_dual and cert289.mds_subset_count == 0
    # G = 79 O + Q2 with Q2 the second 2-torsion point in canonical order
    g_points = dict(cert289.g_divisor)
    assert g_points[None] == 79
    elapsed = time.time() - t0
    _report(4, f"[28,14,15] and [160,80,81] iso-dual MDS, hull 0 "
               f"(+{elapsed:.1f}s on top of fixtures)")


# ---------------------------------------------------------------------------
# criterion 5: the EAQECC table, exact parameter tuples
# ---------------------------------------------------------------------------

def test_criterion_5_eaqecc_table(cert16, cert25, cert32, cert49, cert289,
                                  cert64_hull2, cert256_hull2, e25):
    cert64, _ = cert64_hull2
    cert256, _ = cert256_hull2
    rows = []

    def row(cert, hull):
        p = derive(cert.n, cert.k, cert.min_distance, hull, cert.spec().q)
        assert p.mds
        rows.append(p.label())
        return p

    row(cert16, cert16.hull_dim)                       # [[8,4,5;4]]_16
    row(cert32, cert32.hull_dim)                       # [[20,8,11;8]]_32
    row(cert64, cert64.hull_dim)                       # [[36,16,19;16]]_64
    lcd64 = lcd_transform(cert64)
    assert lcd64 is not None and lcd64[1].hull_dim() == 0
    row(cert64, 0)                                     # [[36,18,19;18]]_64
    row(cert256, cert256.hull_dim)                     # [[140,68,71;68]]_256
    lcd256 = lcd_transform(cert256)
    assert lcd256 is not None and lcd256[1].hull_dim() == 0
    row(cert256, 0)                                    # [[140,70,71;70]]_256
    row(cert25, cert25.hull_dim)                       # [[16,8,9;8]]_25
    code25 = cert25.code()
    u2 = find_scaling_with_hull(code25, 2, trials=3000, seed=0, block=2)
    assert u2 is not None and code25.scale(u2).hull_dim() == 2
    row(cert25, 2)                                     # [[16,6,9;6]]_25
    row(cert49, cert49.hull_dim)                       # [[28,14,15;14]]_49
    row(cert289, cert289.hull_dim)                     # [[160,80,81;80]]_289

    assert rows == [
        "[[8,4,5;4]]_16",
        "[[20,8,11;8]]_32",
        "[[36,16,19;16]]_64",
        "[[36,18,19;18]]_64",
        "[[140,68,71;68]]_256",
        "[[140,70,71;70]]_256",
        "[[16,8,9;8]]_25",
        "[[16,6,9;6]]_25",
        "[[28,14,15;14]]_49",
        "[[160,80,81;80]]_289",
    ]
    _report(5, "all ten entanglement-assisted rows reproduced exactly")


# ---------------------------------------------------------------------------
# criterion 6: bound table with achieved lengths, < 10 min
# ---------------------------------------------------------------------------

def test_criterion_6_bound_table():
    t0 = time.time()
    rows = bound_table([16, 32, 64, 256, 25, 49, 289], achieve=True)
    got = [(r.q, r.bound_n, r.achieved_n) for r in rows]
    assert got == [(16, 8, 8), (32, 20, 20), (64, 36, 36), (256, 140, 140),
                   (25, 16, 16), (49, 28, 28), (289, 160, 160)]
    for r in rows:
        assert r.witness is not None and r.witness.iso_dual
    elapsed = time.time() - t0
    assert elapsed < 600, f"criterion 6 took {elapsed:.1f}s"
    _report(6, f"bounds 8/20/36/140/16/28/160 each achieved in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 7: property suites, < 15 min total
# ---------------------------------------------------------------------------

def test_criterion_7a_field_and_group_axioms(f16, f25, e16, e25):
    t0 = time.time()
    specs = [f16, f25, FieldSpec(3, 3, [1, 2, 0, 1]),
             FieldSpec(2, 5, [1, 0, 1, 0, 0, 1])]
    for spec in specs:
        add, mul = spec.add_enc, spec.mul_enc
        rng = range(spec.q)
        for a in rng:
            for b in rng:
                for c in rng:
                    assert add(add(a, b), c) == add(a, add(b, c))
                    assert mul(mul(a, b), c) == mul(a, mul(b, c))
                    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        for a in range(1, spec.q):
            assert mul(a, spec.inv_enc(a)) == 1
    for curve in (e16, e25):
        pts = curve.points()
        for a in pts:
            for b in pts:
                ab = curve.add(a, b)
                for c in pts:
                    assert curve.add(ab, c) == curve.add(a, curve.add(b, c))
        n = curve.order()
        for p in pts:
            assert curve.mul(n, p) == INFINITY
    _report("7a", f"field axioms exhaustive for q in (16,25,27,32); group "
                  f"axioms exhaustive for #E in (22,36) in {time.time()-t0:.1f}s")


def test_criterion_7b_7c_hasse_and_feasible_orders():
    t0 = time.time()
    for q in (2, 3, 4, 5, 7, 8, 9):
        realized = realized_orders(q)
        for n in realized:
            assert (n - q - 1) ** 2 <= 4 * q, f"Hasse violated at q={q}, n={n}"
        feasible = sorted({n for n, _, _ in feasible_orders(q)})
        assert realized == feasible, f"q={q}: {realized} != {feasible}"
    _report("7b+7c", f"Hasse bound and exact order characterization for "
                     f"q in 2..9 in {time.time()-t0:.1f}s")


def test_criterion_7d_basis_divisor_constraints(e16, e25, e49, e64, e256, e289,
                                                cert49, cert289):
    t0 = time.time()
    jobs = [
        (e16, 4, (0, 11)),
        (e25, 8, (4, 0)),
        (e64, 18, (0, 62)),
        (e256, 70, (0, 175)),
        (e49, 14, cert49.g_divisor[1][0]),
        (e289, 80, cert289.g_divisor[1][0]),
    ]
    for curve, k, q2 in jobs:
        basis = rr_basis(curve, k, q2)
        validate_rr_basis(basis)
        assert pole_orders_at_O(basis) == tuple(range(k))
    _report("7d", f"div(f)+G >= 0 verified pointwise for all six bases "
                  f"in {time.time()-t0:.1f}s")


def test_criterion_7e_dp_equals_exhaustive(e25):
    t0 = time.time()
    st = e25.group_structure()
    pts = [p for p in e25.points() if not p.is_infinity][:16]
    coords = [st.dlog[p.key()] for p in pts]
    for k in (0, 1, 5, 8, 16):
        _assert_dps_match_exhaustive(coords, k, st.d1, st.d2)
    import random
    rng = random.Random(17)
    for _ in range(10):
        d1, d2 = rng.choice([(1, 8), (2, 6), (4, 4), (3, 9)])
        n = rng.randrange(10, 17)
        k = rng.randrange(0, n + 1)
        abstract = [(rng.randrange(d1), rng.randrange(d2)) for _ in range(n)]
        _assert_dps_match_exhaustive(abstract, k, d1, d2)
    _report("7e", f"DP equals exhaustive subset enumeration for n <= 16 "
                  f"in {time.time()-t0:.1f}s")


def _assert_dps_match_exhaustive(coords, k, d1, d2):
    """The oracle's counting DP equals brute force, and the library's
    packed witness reaches exactly the sums with a nonzero count."""
    exact = subset_sum_counts_exhaustive(coords, k, d1, d2)
    assert subset_sum_counts(coords, k, d1, d2) == exact
    assert subset_sum_reachable(coords, k, d1, d2) == \
        sum(1 << i for i, c in enumerate(exact) if c)


def test_criterion_7f_certificate_bounds(cert16, cert25, cert32, cert49,
                                         cert289, cert64_hull2, cert256_hull2):
    certs = [cert16, cert25, cert32, cert49, cert289,
             cert64_hull2[0], cert256_hull2[0]]
    for cert in certs:
        curve = cert.curve()
        assert cert.n <= curve.order() // 2
        assert cert.hull_dim <= cert.k - 1
    _report("7f", "n <= #E/2 and hull <= k-1 on every certificate")


def test_criterion_7g_lemma_search_complete_and_stable():
    t0 = time.time()
    groups = [(d1, d2) for d1 in range(1, 13) for d2 in range(d1, 13)
              if d1 * d2 <= 12 and (d1 * d2) % 2 == 0]
    report = {}
    for d1, d2 in groups:
        g = AbelianGroupSpec(d1, d2)
        size = d1 * d2
        for n in range(size // 2 + 1, size + 1):
            if n % 2:
                continue
            first = lemma_max_search(g, n)
            second = lemma_max_search(g, n)
            assert first == second, "lemma search output is unstable"
            report[(d1, d2, n)] = len(first)
    assert report[(2, 2, 4)] == 0
    assert report[(1, 6, 4)] == 2
    total = sum(report.values())
    _report("7g", f"lemma searcher stable over {len(report)} (group, n) cases; "
                  f"{total} small-group counterexamples catalogued "
                  f"in {time.time()-t0:.1f}s")


# ---------------------------------------------------------------------------
# criterion 8: certificate round-trip and tamper detection
# ---------------------------------------------------------------------------

def test_criterion_8_round_trip_and_tampering(cert16, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(cert16.to_json())
    assert cli_main(["verify", str(path)]) == 0
    # bit-exact round trip
    assert IsoDualCertificate.from_json(path.read_text()).to_json() == \
        cert16.to_json()
    # single-entry generator mutation -> exit 1
    doc = json.loads(cert16.to_json())
    for i, j in [(0, 0), (2, 6), (3, 7)]:
        bad = json.loads(cert16.to_json())
        bad["generator_matrix"][i][j] = (bad["generator_matrix"][i][j] + 1) % 16
        p = tmp_path / f"bad_{i}_{j}.json"
        p.write_text(json.dumps(bad))
        assert cli_main(["verify", str(p)]) == 1
    # single scaling-vector mutation (still nonzero) -> exit 1
    bad = json.loads(cert16.to_json())
    bad["scaling_v"][0] = 9
    p = tmp_path / "bad_v.json"
    p.write_text(json.dumps(bad))
    assert cli_main(["verify", str(p)]) == 1
    # zeroed scaling entry violates the schema -> exit 2
    bad = json.loads(cert16.to_json())
    bad["scaling_v"][5] = 0
    p = tmp_path / "bad_v0.json"
    p.write_text(json.dumps(bad))
    assert cli_main(["verify", str(p)]) == 2
    _report(8, "verify: fresh 0, mutated matrix/v 1, zeroed v schema 2")
