import math
import os
import random
from functools import reduce
from itertools import combinations, product

import pytest

from ellcode import FieldError, FieldSpec, IsoDualCertificate, code, linalg
from ellcode.curve import INFINITY, CurveError
from ellcode.code import (CodeError, LinearCode, ScalingVector,
                          mds_subset_check, subset_sum_reachable)
from oracle import subset_sum_counts, subset_sum_counts_exhaustive

GOLDENS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "goldens")


@pytest.fixture(scope="module")
def code16(cert16, e16):
    return cert16.code(e16)


def test_rref_canonical(f25):
    rows = [[1, 2, 3, 4], [2, 4, 1, 3], [3, 1, 4, 2]]
    red, pivots = linalg.rref([list(r) for r in rows], f25)
    again, _ = linalg.rref([list(r) for r in red], f25)
    assert red == again
    for i, c in enumerate(pivots):
        assert red[i][c] == 1
        assert all(red[j][c] == 0 for j in range(len(red)) if j != i)


def _gauss_jordan(rows, spec):
    """Plain reference RREF on the field's encoded add/sub/mul/inv."""
    a, pivots = [list(r) for r in rows], []
    for c in range(len(a[0])):
        r = len(pivots)
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = spec.inv_enc(a[r][c])
        a[r] = [spec.mul_enc(inv, x) for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [spec.sub_enc(x, spec.mul_enc(f, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a[:len(pivots)], pivots


GF256 = (2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1])
CHAR2 = {"GF(2)": (2, 1, [0, 1]), "GF(16)": (2, 4, [1, 1, 0, 0, 1]), "GF(256)": GF256}
# GF(1031) and GF(2187) are above the add-table cap
ODD = {"GF(25)": (5, 2, [2, 4, 1]), "GF(289)": (17, 2, [3, 16, 1]),
       "GF(1031)": (1031, 1, [0, 1]), "GF(2187)": (3, 7, [1, 0, 2, 0, 0, 0, 0, 1])}


@pytest.mark.parametrize("p, m, modulus", [(1031, 1, [0, 1]), (5, 2, [2, 4, 1]),
                                            (3, 7, [1, 0, 2, 0, 0, 0, 0, 1]),
                                            *CHAR2.values()],
                         ids=["GF(1031)", "GF(25)", "GF(2187)", *CHAR2])
def test_rref_matches_plain_gauss_jordan(p, m, modulus):
    # GF(1031) and GF(2187) are above the add-table cap, so rref subtracts
    # with sub_enc: mod p for the prime field, digit by digit for GF(2187);
    # characteristic-2 fields run on rows packed one byte per entry
    spec = FieldSpec(p, m, modulus)
    rng = random.Random(7)
    rows = [[rng.randrange(spec.q) for _ in range(12)] for _ in range(5)]
    rows.append([spec.add_enc(x, y) for x, y in zip(rows[0], rows[3])])
    assert linalg.rref(rows, spec) == _gauss_jordan(rows, spec)
    _check_echelon(rows, spec)


def _check_echelon(rows, spec):
    """rref(reduced=False): the same pivots, each a 1 with zeros left of it
    and below it, and rows that reduce to the same RREF."""
    red, pivots = linalg.rref(rows, spec)
    echelon, echelon_pivots = linalg.rref(rows, spec, reduced=False)
    assert echelon_pivots == pivots and len(echelon) == linalg.rank(rows, spec)
    for i, c in enumerate(pivots):
        assert echelon[i][c] == 1 and not any(echelon[i][:c])
        assert all(echelon[j][c] == 0 for j in range(i + 1, len(echelon)))
    assert linalg.rref(echelon, spec) == (red, pivots)


def test_rref_packed_gf256_dependent_and_zero_rows():
    spec = FieldSpec(*GF256)
    rng = random.Random(256)
    rows = [[rng.randrange(256) for _ in range(40)] for _ in range(18)]
    rows.insert(4, [0] * 40)
    rows.insert(11, [spec.add_enc(spec.mul_enc(7, x), y)
                     for x, y in zip(rows[2], rows[9])])
    red, pivots = linalg.rref(rows, spec)
    assert (red, pivots) == _gauss_jordan(rows, spec)
    assert len(red) == 18
    _check_echelon(rows, spec)


@pytest.mark.parametrize("p, m, modulus", [ODD[f] for f in ("GF(25)", "GF(1031)", "GF(2187)")],
                         ids=["GF(25)", "GF(1031)", "GF(2187)"])
def test_rref_odd_dependent_and_zero_rows(p, m, modulus):
    spec = FieldSpec(p, m, modulus)
    rng = random.Random(spec.q)
    # sparse rows, so that pivot rows have zeros right of the pivot
    rows = [[rng.randrange(spec.q) if rng.random() < 0.6 else 0 for _ in range(30)]
            for _ in range(14)]
    rows.insert(3, [0] * 30)
    rows.insert(9, [spec.add_enc(spec.mul_enc(7, x), y)
                    for x, y in zip(rows[1], rows[7])])
    rows.append([0] * 30)
    red, pivots = linalg.rref(rows, spec)
    assert (red, pivots) == _gauss_jordan(rows, spec)
    assert len(red) == 14
    _check_echelon(rows, spec)


def _plain_product(a, b, spec):
    """A B entry by entry on the field's encoded add and mul."""
    out = []
    for row in a:
        out_row = []
        for col in zip(*b):
            acc = 0
            for x, y in zip(row, col):
                acc = spec.add_enc(acc, spec.mul_enc(x, y))
            out_row.append(acc)
        out.append(out_row)
    return out


@pytest.mark.parametrize("p, m, modulus", [*CHAR2.values(), *ODD.values()],
                         ids=[*CHAR2, *ODD])
@pytest.mark.parametrize("shape", [(6, 13, 5), (1, 9, 1), (0, 7, 3)],
                         ids=["6x13x5", "1x9x1", "0-rows"])
def test_gram_matches_plain_dot(p, m, modulus, shape):
    spec = FieldSpec(p, m, modulus)
    rng = random.Random(spec.q)
    r, k, _ = shape
    a = [[rng.randrange(spec.q) for _ in range(k)] for _ in range(r)]
    a_t = [list(col) for col in zip(*a)]
    assert linalg.gram(a, spec) == _plain_product(a, a_t, spec)
    # the weighted Gram A diag(w) A^T, w nonzero
    w = [rng.randrange(1, spec.q) for _ in range(k)]
    wa_t = [[spec.mul_enc(wj, x) for x in col] for wj, col in zip(w, a_t)]
    assert linalg.gram(a, spec, w) == _plain_product(a, wa_t, spec)


def test_dual_orthogonality_and_dims(code16, f16):
    d = code16.dual()
    assert (d.n, d.k) == (8, 4)
    assert code16.k + d.k == code16.n
    prod = _plain_product(code16.matrix, list(zip(*d.matrix)), f16)
    assert all(v == 0 for row in prod for v in row)


def test_dual_is_involution(code16):
    assert code16.dual().dual().matrix == code16.matrix
    assert code16.dual().matrix != code16.matrix


def test_full_and_zero_codes(f16):
    full = LinearCode(f16, [[1 if i == j else 0 for j in range(3)]
                            for i in range(3)])
    zero = full.dual()
    assert zero.k == 0 and zero.n == 3
    assert zero.dual().matrix == full.matrix
    with pytest.raises(CodeError):
        LinearCode(f16, [])


def test_hull_examples(code16, f16):
    assert code16.hull_dim() == 0
    u = ScalingVector(f16, [4, 4, 3, 3, 2, 2, 5, 5])
    assert code16.scale(u).hull_dim() == 4


def test_hull_of_dual_matches(code16):
    assert code16.dual().hull_dim() == code16.hull_dim()


def test_min_distance_examples(code16, f16):
    assert code16.min_distance() == 5
    rep = LinearCode(f16, [[1] * 6])
    assert rep.min_distance() == 6


def test_min_distance_budget(monkeypatch, f25):
    monkeypatch.setattr(code, "BRUTE_FORCE_BUDGET", 2 ** 20)
    big = LinearCode(f25, [[1 if i == j else 0 for j in range(12)]
                           for i in range(6)])
    with pytest.raises(CodeError):
        big.min_distance()


def test_scale_identities(code16, f16):
    ones = ScalingVector(f16, [1] * 8)
    assert code16.scale(ones).matrix == code16.matrix
    v = ScalingVector(f16, [3, 7, 2, 9, 11, 4, 6, 13])
    assert code16.scale(v).scale([f16.inv_enc(e) for e in v]).matrix == code16.matrix
    assert code16.scale(v).weight_distribution() == code16.weight_distribution()


def test_codes_and_scalings_refuse_non_integer_entries(f25):
    for row in ([2.7, 1, 0, 3], [True, False, 2], [7, "3", 1]):
        with pytest.raises(FieldError):
            LinearCode(f25, [row])
    with pytest.raises(FieldError):
        ScalingVector(f25, [2.9, "4"])


def test_scaling_vector_rejects_zero(f16):
    with pytest.raises(CodeError):
        ScalingVector(f16, [1, 0, 1])


def test_scale_length_mismatch(code16, f16):
    with pytest.raises(CodeError):
        code16.scale(ScalingVector(f16, [1, 1]))


def test_iso_dual_identity_via_scale(cert16, code16, f16):
    v = ScalingVector(f16, cert16.scaling_v)
    assert code16.scale(v).matrix == code16.dual().matrix


def test_mds_subset_check_construction(cert16, e16):
    # the points and the target are the certificate's encodings, O is None
    st = e16.group_structure()
    pts, q1 = cert16.points, (0, 11)
    assert mds_subset_check(pts, st, 4, q1) == 0
    assert not any(_group_sum(e16, combo) == q1 for combo in combinations(pts, 4))
    # pairs of inverse pairs alone give C(4,2) = 6 subsets summing to O;
    # the witness answers 1, not their number
    exhaustive = sum(
        1 for combo in combinations(pts, 4)
        if _group_sum(e16, combo) is None)
    assert exhaustive >= 6
    assert mds_subset_check(pts, st, 4, None) == 1
    # the empty subset sums to O
    assert mds_subset_check(pts, st, 0, None) == 1
    assert mds_subset_check(pts, st, 0, q1) == 0


def _group_sum(curve, pts):
    return reduce(curve._law.add, pts, None)


def test_mds_subset_check_rejects_duplicates(cert16, e16):
    st = e16.group_structure()
    pts = cert16.points
    with pytest.raises(CodeError):
        mds_subset_check(pts + pts[:1], st, 4, None)
    # a point, or a target, off the dlog table is a CurveError
    with pytest.raises(CurveError, match="not in the discrete-log table"):
        mds_subset_check(pts[:-1] + ((0, 0),), st, 4, None)
    with pytest.raises(CurveError, match="not in the discrete-log table"):
        mds_subset_check(pts, st, 4, INFINITY)


def test_dp_matches_exhaustive_random_groups():
    rng = random.Random(5)
    for _ in range(25):
        d1 = rng.choice([1, 2, 3, 4, 6])
        d2 = rng.choice([4, 6, 9, 12])
        n = rng.randrange(6, 17)
        k = rng.randrange(0, n + 1)
        coords = [(rng.randrange(d1), rng.randrange(d2)) for _ in range(n)]
        counts = subset_sum_counts_exhaustive(coords, k, d1, d2)
        assert subset_sum_counts(coords, k, d1, d2) == counts
        _assert_witness_is_support(coords, k, d1, d2, counts)


def _support(counts):
    return sum(1 << i for i, c in enumerate(counts) if c)


class _Labelled:
    """A stand-in group structure for `mds_subset_check` on a bare set of
    coordinates: its dlog maps point i, the label i, to coords[i], and
    each target (i, j) of Z/d1 x Z/d2 to itself."""

    def __init__(self, coords, d1, d2):
        self.d1, self.d2 = d1, d2
        self.dlog = {**{t: t for t in product(range(d1), range(d2))},
                     **dict(enumerate(coords))}


def _assert_witness_is_support(coords, k, d1, d2, counts):
    """`mds_subset_check` answers 1 exactly where the oracle's count is
    nonzero, on every target of Z/d1 x Z/d2."""
    st = _Labelled(coords, d1, d2)
    for i, j in product(range(d1), range(d2)):
        assert mds_subset_check(range(len(coords)), st, k, (i, j)) == \
            (counts[i * d2 + j] != 0), (coords, k, d1, d2, (i, j))


def test_reachable_matches_exhaustive_random_groups():
    rng = random.Random(11)
    cases = []
    for _ in range(40):
        d1 = rng.choice([1, 1, 2, 3, 4, 6])
        d2 = rng.choice([1, 2, 5, 6, 9, 12])
        n = rng.randrange(1, 13)
        k = rng.choice([0, n, rng.randrange(0, n + 1)])
        coords = [(rng.choice([0, rng.randrange(d1)]),
                   rng.choice([0, rng.randrange(d2)])) for _ in range(n)]
        cases.append((coords, k, d1, d2))
    # unreduced coordinates, a k outside [0, n], the trivial group
    cases += [([(5, 7), (2, 13), (0, 0)], 2, 2, 6), ([(0, 1)] * 3, 4, 1, 3),
              ([(0, 0)] * 4, 2, 1, 1), ([], 0, 3, 4)]
    for coords, k, d1, d2 in cases:
        exact = subset_sum_counts_exhaustive(
            [(i % d1, j % d2) for i, j in coords], k, d1, d2)
        assert subset_sum_reachable(coords, k, d1, d2) == _support(exact), \
            (coords, k, d1, d2)
        _assert_witness_is_support(coords, k, d1, d2, exact)


def _golden_groups():
    """(name, certificate, curve, group structure, points, Qa) of each of
    the nine benchmark certificates, the points and Qa as the file's
    encodings."""
    names = sorted(f for f in os.listdir(GOLDENS) if f.startswith("q"))
    assert len(names) == 9
    for name in names:
        with open(os.path.join(GOLDENS, name)) as fh:
            cert = IsoDualCertificate.from_json(fh.read())
        curve = cert.curve()
        yield name, cert, curve, curve.group_structure(), cert.points, cert.g_divisor[1][0]


def test_reachable_matches_counts_on_golden_curves():
    # every target, not only sum(G), on the nine benchmark certificates:
    # the packed witness, and `mds_subset_check` on each group element,
    # answer 1 exactly where the oracle's count is nonzero
    for name, cert, curve, st, points, _ in _golden_groups():
        coords = [st.dlog[p] for p in points]
        counts = subset_sum_counts(coords, cert.k, st.d1, st.d2)
        assert subset_sum_reachable(coords, cert.k, st.d1, st.d2) == \
            _support(counts), name
        assert len(st.dlog) == st.d1 * st.d2 == len(counts)
        for enc, (i, j) in st.dlog.items():
            assert mds_subset_check(points, st, cert.k, enc) == \
                (counts[i * st.d2 + j] != 0), (name, enc)


def _witness_groups(monkeypatch):
    """The (d1, d2) of every `subset_sum_reachable` call `code` makes."""
    groups = []

    def witness(coords, k, d1, d2):
        groups.append((d1, d2))
        return subset_sum_reachable(coords, k, d1, d2)
    monkeypatch.setattr(code, "subset_sum_reachable", witness)
    return groups


def test_mds_subset_check_pays_for_the_full_group_only_past_the_quotient(
        cert16, e16, monkeypatch):
    # #E = 22, so the 2-primary quotient is Z/1 x Z/2: sum(G) = Q1 is
    # unreachable there and one call settles it; O is reachable there, so
    # the full group decides it with one more call
    groups = _witness_groups(monkeypatch)
    pts, st = cert16.points, e16.group_structure()
    assert (st.d1, st.d2) == (1, 22)
    assert mds_subset_check(pts, st, 4, (0, 11)) == 0
    assert groups == [(1, 2)]
    assert mds_subset_check(pts, st, 4, None) == 1
    assert groups == [(1, 2), (1, 2), (1, 22)]


def test_the_quotient_settles_the_witness_of_every_golden(monkeypatch):
    # the paper's parity argument: an even k-subset of points odd-order +
    # Qa or Qb sums to O or Qa + Qb in the 2-primary part, never to Qa
    groups = _witness_groups(monkeypatch)
    for name, cert, _, st, points, qa in _golden_groups():
        groups.clear()
        assert mds_subset_check(points, st, cert.k, qa) == 0, name
        assert groups == [(st.d1 & -st.d1, st.d2 & -st.d2)], name


def test_a_target_the_quotient_reaches_pays_for_the_full_witness(monkeypatch):
    # the files of test_cli's reachable-target test: G's point moved to
    # Qa + Qb, which some k-subset reaches in the quotient and in the group
    groups = _witness_groups(monkeypatch)
    moved = {"q25.json": 19, "q49.json": 37, "q289.json": 16}
    for name, cert, curve, st, points, _ in _golden_groups():
        if name in moved:
            groups.clear()
            target = (moved[name], 0)
            assert mds_subset_check(points, st, cert.k, target) == 1, name
            assert groups == [(st.d1 & -st.d1, st.d2 & -st.d2), (st.d1, st.d2)], name


def test_mds_subset_check_is_the_count_support_on_random_sets(monkeypatch):
    # the 300 sets of the packed-witness sweep as points, on every target:
    # the quotient's 0 and the full witness's answer are the oracle's
    # support; each DP is run once per (set, group) and then read back
    seen, reached_in_quotient_only = {}, 0

    def witness(coords, k, d1, d2):
        key = (tuple(coords), k, d1, d2)
        if key not in seen:
            seen[key] = subset_sum_reachable(coords, k, d1, d2)
        return seen[key]
    monkeypatch.setattr(code, "subset_sum_reachable", witness)
    rng = random.Random(25)
    for _ in range(300):
        d1 = rng.choice([1, 1, 2, 3, 6])
        d2 = d1 * rng.choice([1, 2, 5, 13, 43])
        n = rng.randrange(0, 25)
        k = rng.choice([0, n, n + 1, rng.randrange(0, n + 1), rng.randrange(0, n + 1)])
        coords = [(rng.randrange(-d1, 2 * d1), rng.randrange(-d2, 2 * d2))
                  for _ in range(n)]
        support = _support(subset_sum_counts(coords, k, d1, d2))
        st, e1, e2 = _Labelled(coords, d1, d2), d1 & -d1, d2 & -d2
        quotient = subset_sum_reachable([(i % e1, j % e2) for i, j in coords], k, e1, e2)
        for i, j in product(range(d1), range(d2)):
            answer = mds_subset_check(range(n), st, k, (i, j))
            assert answer == support >> (i * d2 + j) & 1, (coords, k, d1, d2, i, j)
            reached_in_quotient_only += (not answer
                                         and quotient >> (i % e1 * e2 + j % e2) & 1)
    assert reached_in_quotient_only > 10000


def test_dp_total_count_is_binomial():
    coords = [(0, i % 7) for i in range(16)]
    counts = subset_sum_counts(coords, 8, 1, 7)
    assert sum(counts) == math.comb(16, 8)


def test_min_distance_vs_dp_consistency(e25, f25):
    # brute-forceable construction instances: d = n-k+1 iff DP count is 0
    from ellcode import ConstructionInput, construct
    cert = construct(ConstructionInput(e25, 4, 2))
    code = cert.code(e25)
    assert cert.mds_subset_count == 0
    assert code.min_distance() == code.n - code.k + 1


def test_singleton_bound_random_codes(f25):
    rng = random.Random(2)
    for _ in range(10):
        k, n = rng.randrange(1, 4), rng.randrange(4, 8)
        rows = [[rng.randrange(25) for _ in range(n)] for _ in range(k)]
        code = LinearCode(f25, rows, n=n)
        if code.k == 0:
            continue
        assert code.min_distance() <= code.n - code.k + 1


def test_codewords_in_odometer_order(code16, f16):
    # generic reference: message digit 0 fastest, word = sum of digit * row
    rows = code16.matrix
    expected = []
    for msg in range(16 ** code16.k):
        word = [0] * code16.n
        for i, row in enumerate(rows):
            d = msg // 16 ** i % 16
            word = [f16.add_enc(w, f16.mul_enc(d, x)) for w, x in zip(word, row)]
        expected.append(tuple(word))
    assert list(code16.codewords()) == expected
    assert code16.weight_distribution() == [1, 0, 0, 0, 0, 840, 4620, 21000, 39075]


def test_mds_weight_count(code16, f16):
    # A_{n-k+1} = (q-1) C(n, k-1) for MDS codes
    wd = code16.weight_distribution()
    assert wd[5] == 15 * math.comb(8, 3)


def _random_codes(spec, seed):
    # seeded codes with k = 1..3, each with one all-zero column
    rng = random.Random(seed)
    codes = []
    for k, n in ((1, 5), (2, 6), (3, 5), (3, 7)):
        zero = rng.randrange(n)
        codes.append(LinearCode(spec, [[0 if j == zero else rng.randrange(spec.q)
                                        for j in range(n)] for _ in range(k)], n=n))
    return codes


def _enumeration_cases(name, request):
    if name == "code16":
        return [request.getfixturevalue("code16")]
    if name == "construct2-25":
        from ellcode import ConstructionInput, construct
        e25 = request.getfixturevalue("e25")
        return [construct(ConstructionInput(e25, 4, 2)).code(e25)]
    spec = request.getfixturevalue({"random-16": "f16", "random-25": "f25"}[name])
    codes = _random_codes(spec, spec.q)
    assert {c.k for c in codes} >= {1, 3}
    assert all(any(not any(col) for col in zip(*c.matrix)) for c in codes)
    return codes


@pytest.mark.parametrize("name", ["code16", "construct2-25", "random-16",
                                  "random-25"])
def test_scalar_class_enumeration_matches_full(name, request):
    # one word per scalar class must give the same weights as every word
    for c in _enumeration_cases(name, request):
        reference = [0] * (c.n + 1)
        for word in c.codewords():
            reference[c.n - word.count(0)] += 1
        assert c.weight_distribution() == reference
        assert sum(reference) == c.spec.q ** c.k
        assert c.min_distance() == min(w for w in range(1, c.n + 1) if reference[w])


def test_zero_code_weight_distribution(f16, f25):
    for spec in (f16, f25):
        zero = LinearCode(spec, [], n=5)
        assert zero.weight_distribution() == [1, 0, 0, 0, 0, 0]
        with pytest.raises(CodeError):
            zero.min_distance()


def test_budget_still_bounds_q_to_the_k(monkeypatch, code16, f25):
    # the budget tests q^k, not the (q^k - 1)/(q - 1) words enumerated
    rep = LinearCode(f25, [[1, 2, 3, 4], [0, 1, 1, 2]])
    for c in (code16, rep):
        qk = c.spec.q ** c.k
        for enumerate_ in (c.min_distance, c.weight_distribution):
            monkeypatch.setattr(code, "BRUTE_FORCE_BUDGET", qk - 1)
            with pytest.raises(CodeError, match="exceeds the brute-force budget"):
                enumerate_()
            monkeypatch.setattr(code, "BRUTE_FORCE_BUDGET", qk)
            enumerate_()


@pytest.mark.parametrize("fixture", ["cert16", "cert25"])
@pytest.mark.parametrize("block", [1, 2])
def test_weighted_gram_hull_matches_scaled_code(request, fixture, block):
    # hull(u.C) = k - rank(G diag(u^2) G^T) for the unscaled RREF generator G
    cert = request.getfixturevalue(fixture)
    code, spec = cert.code(), cert.spec()
    rng = random.Random(block)
    hulls = []
    for _ in range(40):
        u = [e for _ in range(code.n // block) for e in [rng.randrange(1, spec.q)] * block]
        w = [spec.mul_enc(x, x) for x in u]
        h = code.k - linalg.rank(linalg.gram(code.matrix, spec, w), spec)
        assert h == code.scale(u).hull_dim()
        hulls.append(h)
    assert max(hulls) > 0


def test_hull_gram_vs_stacked_on_scaled_codes(code16, f16):
    rng = random.Random(9)
    for _ in range(6):
        u = ScalingVector(f16, [rng.randrange(1, 16) for _ in range(8)])
        scaled = code16.scale(u)
        g = linalg.gram([list(r) for r in scaled.matrix], f16)
        h_gram = scaled.k - linalg.rank(g, f16)
        stacked = [list(r) for r in scaled.matrix] + \
            [list(r) for r in scaled.dual().matrix]
        h_stack = scaled.n - linalg.rank(stacked, f16)
        assert h_gram == h_stack == scaled.hull_dim()


_F25 = FieldSpec(5, 2, [2, 4, 1])     # equal to the f25 fixture


@pytest.mark.parametrize("rows, encs", [
    ([[0, 24, 3]], [[0, 24, 3]]),
    ([[_F25.element(1), _F25.element(0), 2]], [[1, 0, 2]]),
    ([[7, _F25.element(3), 1]], [[7, 3, 1]]),
])
def test_code_rows_keep_in_range_ints_and_convert_the_rest(f25, rows, encs):
    # plain ints in range are kept as they are; everything else goes through
    # spec.element, which converts a FieldElement and refuses any other type
    # (test_codes_and_scalings_refuse_non_integer_entries)
    assert [list(r) for r in LinearCode(f25, rows).matrix] == \
        linalg.rref(encs, f25)[0]
    assert [[f25.element(v).enc for v in row] for row in rows] == encs
    assert all(type(x) is int for r in LinearCode(f25, rows).matrix for x in r)


@pytest.mark.parametrize("bad", [25, -1, -24, 2 ** 70])
def test_code_rows_reject_out_of_range_ints(f25, bad):
    with pytest.raises(FieldError, match="out of range"):
        LinearCode(f25, [[1, bad, 0]])
    with pytest.raises(FieldError, match="out of range"):
        f25.element(bad)


def test_code_rows_take_field_elements_of_their_own_field_only(f16, f25):
    own = LinearCode(f25, [[f25.element(3), 1, f25.element(0)]])
    assert own.matrix == LinearCode(f25, [[3, 1, 0]]).matrix
    with pytest.raises(FieldError, match="different field"):
        LinearCode(f25, [[f16.element(3), 1, 0]])


def _random_weights(spec, n, rng):
    return [rng.randrange(1, spec.q) for _ in range(n)]


# non-MDS codes whose dual's pivot columns differ from their own, each with
# a self-orthogonal first row so that nonzero hulls occur
STACKED_CODES = {
    "gf5": ((5, 1, [3, 1]), [[1, 2, 0, 0, 0, 0, 0],
                             [0, 0, 1, 0, 2, 0, 1],
                             [0, 0, 0, 1, 4, 0, 2]]),
    "gf16": ((2, 4, [1, 1, 0, 0, 1]), [[1, 1, 0, 0, 0, 0],
                                        [0, 0, 1, 0, 7, 0],
                                        [0, 0, 0, 0, 3, 1]]),
}


@pytest.mark.parametrize("field, rows", STACKED_CODES.values(),
                         ids=STACKED_CODES.keys())
def test_stacked_hull_matches_weighted_gram_on_non_mds_codes(field, rows):
    # dim(w.C n C-perp) = n - rank([G diag(w); H]) for any code, checked
    # against k - rank(G diag(w) G^T) and, at w = u^2, the scaled code's hull
    spec = FieldSpec(*field)
    c = LinearCode(spec, rows)
    assert linalg.rref(list(c.dual().matrix), spec)[1] != \
        linalg.rref(list(c.matrix), spec)[1]
    rng = random.Random(spec.q)
    hulls = set()
    for _ in range(60):
        w = _random_weights(spec, c.n, rng)
        assert linalg.scale_columns(c.matrix, w, spec) == \
            [[spec.mul_enc(x, wj) for x, wj in zip(row, w)] for row in c.matrix]
        h = c.stacked_hull_dim(w)
        assert h == c.k - linalg.rank(linalg.gram(c.matrix, spec, w), spec)
        u = _random_weights(spec, c.n, rng)
        h = c.stacked_hull_dim([spec.mul_enc(x, x) for x in u])
        assert h == c.scale(u).hull_dim()
        hulls.add(h)
    assert c.stacked_hull_dim() == c.hull_dim() > 0
    assert len(hulls) > 1


def test_stacked_hull_rejects_wrong_length(code16):
    for n in (code16.n - 1, code16.n + 1, 0):
        with pytest.raises(CodeError, match="length mismatch"):
            code16.stacked_hull_dim([1] * n)


# -- Hankel ranks by Berlekamp-Massey ----------------------------------------

HANKEL_FIELDS = {"GF(5)": (5, 1, [3, 1]), "GF(7)": (7, 1, [0, 1]),
                 "GF(9)": (3, 2, [1, 0, 1]), **ODD, "GF(16)": CHAR2["GF(16)"],
                 "GF(64)": (2, 6, [1, 1, 0, 1, 1, 0, 1]), "GF(256)": GF256}


def _hankel_cases(spec, rng):
    """Sequences s_0 ... s_(2m-2), m <= 9: uniform, sparse, with a zero
    prefix, sums of up to m geometric sequences (rank-deficient), and the
    all-zero and m = 1 edges."""
    q = spec.q
    cases = [[0] * (2 * m - 1) for m in (1, 2, 5)] + [[x] for x in (1, q - 1)]
    for _ in range(40):
        length = 2 * rng.randrange(1, 10) - 1
        cases.append([rng.randrange(q) for _ in range(length)])
        cases.append([rng.choice([0, 0, 0, rng.randrange(q)]) for _ in range(length)])
        zeros = rng.randrange(length + 1)
        cases.append([0] * zeros + [rng.randrange(q) for _ in range(length - zeros)])
        s = [0] * length
        for _ in range(rng.randrange(length // 2 + 2)):
            ratio, term = rng.randrange(q), rng.randrange(1, q)
            for t in range(length):
                s[t] = spec.add_enc(s[t], term)
                term = spec.mul_enc(term, ratio)
        cases.append(s)
    return cases


@pytest.mark.parametrize("field", HANKEL_FIELDS.values(), ids=HANKEL_FIELDS.keys())
def test_hankel_rank_matches_dense_rank(field):
    # GF(1031) adds mod p and GF(2187) by `_split_add`, above the add-table
    # cap; GF(16), GF(64) and GF(256) add by XOR
    spec = FieldSpec(*field)
    deficient = 0
    for s in _hankel_cases(spec, random.Random(spec.q)):
        m = (len(s) + 1) // 2
        dense = linalg.rank([s[i:i + m] for i in range(m)], spec)
        assert linalg.hankel_rank(s, spec) == dense, s
        deficient += 0 < dense < m
    assert deficient > 10
    with pytest.raises(ValueError, match="2m - 1"):
        linalg.hankel_rank([1, 2], spec)


# -- scaled hulls from displacement generators ------------------------------

CAUCHY_FIELDS = {"gf25": (5, 2, [2, 4, 1]), "gf49": (7, 2, [3, 6, 1]),
                 "gf289": (17, 2, [3, 16, 1])}


def _cauchy_dense(spec, a, b, g, h):
    """M_ij = (row i of G . column j of H) / (a_i - b_j), entry by entry."""
    mul, add, sub, inv = spec.mul_enc, spec.add_enc, spec.sub_enc, spec.inv_enc
    out = []
    for i, ai in enumerate(a):
        row = []
        for j, bj in enumerate(b):
            acc = 0
            for col, hrow in zip(g, h):
                acc = add(acc, mul(col[i], hrow[j]))
            row.append(mul(acc, inv(sub(ai, bj))))
        out.append(row)
    return out


def _cauchy_cases(spec, rng):
    """(name, a, b, G by columns, H by rows), with repeated row nodes."""
    q, mul, neg = spec.q, spec.mul_enc, spec.neg_enc
    pool = rng.sample(range(q), 10)
    for trial in range(12):
        m, n = rng.randint(1, 11), rng.randint(1, 11)
        a = [rng.choice(pool[:4]) for _ in range(m)]
        b = [rng.choice(pool[4:]) for _ in range(n)]

        def rand(size, zeros=0):
            return [0] * zeros + [rng.randrange(q) for _ in range(size - zeros)]

        r = rng.randint(1, 4)
        yield "random", a, b, [rand(m) for _ in range(r)], [rand(n) for _ in range(r)]
        # M = X Y of rank at most rho: D_a M - M D_b = [D_a X, -X] [Y; Y D_b];
        # Y's zero leading columns make M's, which the kernel drops
        rho = rng.randint(0, min(m, n) - 1) if min(m, n) > 1 else 0
        xs = [rand(m) for _ in range(rho)]
        ys = [rand(n, zeros=trial % 4) for _ in range(rho)]
        g = [[mul(ai, x) for ai, x in zip(a, col)] for col in xs] + \
            [[neg(x) for x in col] for col in xs]
        h = ys + [[mul(y, bj) for y, bj in zip(row, b)] for row in ys]
        yield "planted", a, b, g, h
        # G H = 0 with G and H nonzero: every column is zero
        col, row = rand(m), rand(n)
        yield "zero", a, b, [col, col], [row, [neg(x) for x in row]]


@pytest.mark.parametrize("field", CAUCHY_FIELDS.values(), ids=CAUCHY_FIELDS.keys())
def test_cauchy_like_rank_matches_dense_rank(field):
    spec = FieldSpec(*field)
    rng = random.Random(spec.q)
    ranks = {}
    for name, a, b, g, h in _cauchy_cases(spec, rng):
        dense = _cauchy_dense(spec, a, b, g, h)
        frozen = ([list(x) for x in g], [list(x) for x in h])
        got = linalg.cauchy_like_rank(a, b, g, h, spec)
        assert got == linalg.rank(dense, spec), name
        assert (g, h) == frozen      # the generators are not modified
        ranks.setdefault(name, []).append((got, min(len(a), len(b))))
    assert all(r == 0 for r, _ in ranks["zero"])
    assert any(0 < r < full for r, full in ranks["planted"])
    assert any(r == full for r, full in ranks["random"])


def test_cauchy_like_rank_rejects_shared_nodes_and_characteristic_2(f16, f25):
    with pytest.raises(ValueError, match="disjoint"):
        linalg.cauchy_like_rank([1, 2], [3, 2], [[1, 1]], [[1, 1]], f25)
    with pytest.raises(ValueError, match="odd q"):
        linalg.cauchy_like_rank([1, 2], [3, 4], [[1, 1]], [[1, 1]], f16)


@pytest.mark.parametrize("fixture", ["cert16", "cert25"])
def test_stacked_hull_rejects_a_zero_weight(request, fixture):
    # log[0] reads as the log of 1, so a zero weight would count as a 1
    cert = request.getfixturevalue(fixture)
    c = cert.code()
    for pos in (0, c.n - 1):
        w = [1] * c.n
        w[pos] = 0
        with pytest.raises(CodeError, match="nonzero"):
            c.stacked_hull_dim(w)


def test_code_nodes_are_checked_and_carried(cert25, f25):
    c = cert25.code()
    assert c.nodes == tuple(x for x, _ in cert25.points)
    assert c.dual().nodes == c.scale([2] * c.n).nodes == c.nodes
    assert LinearCode(f25, c.matrix).nodes is None
    for bad in (c.nodes[:-1], (*c.nodes[:-1], 25), (*c.nodes[:-1], -1)):
        with pytest.raises(CodeError, match="nodes"):
            LinearCode(f25, c.matrix, nodes=bad)


def _golden_code(q):
    with open(os.path.join(GOLDENS, f"q{q}.json")) as fh:
        return IsoDualCertificate.from_json(fh.read()).code()


def test_generator_route_runs_from_the_crossover(monkeypatch):
    # the q = 289 code (k = 80) ranks from generators, the q = 49 code
    # (k = 14) below the crossover ranks the k x k W1 A' - A W2
    big, small = _golden_code(289), _golden_code(49)
    assert big.k >= code._DISPLACEMENT_MIN_K > small.k
    assert big._displacement_factors() is not None
    assert small._displacement_factors() is None
    assert small._systematic_halves() is not None
    calls = []
    for name in ("rank", "cauchy_like_rank"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    for c in (big, small):
        c.stacked_hull_dim([3] * c.n)
    assert calls == ["cauchy_like_rank", "rank"]


def test_generator_route_falls_back_where_it_does_not_apply(monkeypatch, cert16,
                                                            cert25, f16, f25):
    # with no crossover, every code that qualifies takes the route, and
    # every code that does not keeps the stacked rank
    monkeypatch.setattr(code, "_DISPLACEMENT_MIN_K", 1)
    route = cert25.code()
    assert route._displacement_factors() is not None
    nodes, k = list(route.nodes), route.k
    shared = LinearCode(f25, route.matrix, nodes=[*nodes[:k], nodes[0], *nodes[k + 1:]])
    systematic_no_dual = LinearCode(f25, [[int(i == j) for j in range(6)]
                                          for i in range(3)], nodes=range(6))
    gf5, rows = STACKED_CODES["gf5"]
    rng = random.Random(5)
    random_a = LinearCode(f25, [[int(i == j) for j in range(k)]
                                + [rng.randrange(1, 25) for _ in range(k)]
                                for i in range(k)], nodes=nodes)
    assert any(random_a.dual().matrix[-1][:k])      # only R's rank fails
    fallbacks = {
        "no nodes": LinearCode(f25, route.matrix),
        "shared node": shared,
        "dual not systematic": systematic_no_dual,
        "non-systematic, n != 2k": LinearCode(FieldSpec(*gf5), rows,
                                              nodes=[0, 1, 2, 3, 4, 0, 1]),
        "non-systematic": LinearCode(f25, [[1, 2, 0, 0, 0, 0], [0, 0, 1, 0, 2, 1],
                                           [0, 0, 0, 1, 4, 2]], nodes=range(6)),
        "displacement rank above 2": random_a,
        "characteristic 2": cert16.code(),
    }
    for name, c in fallbacks.items():
        assert c._displacement_factors() is None, name
    plain = fallbacks["no nodes"]
    for _ in range(20):
        w = _random_weights(f25, route.n, rng)
        assert route.stacked_hull_dim(w) == plain.stacked_hull_dim(w)
    # characteristic 2 ranks the k x k matrix W1 A' - A W2 where G and its
    # dual lead with I_k, and the packed 2k-row stack only where they do not
    packed = []
    real = linalg._rref_packed
    monkeypatch.setattr(linalg, "_rref_packed",
                        lambda rows, *args: packed.append(len(rows)) or real(rows, *args))
    c16 = fallbacks["characteristic 2"]
    assert c16.stacked_hull_dim([1] * c16.n) == c16.hull_dim()
    assert c16.k in packed and 2 * c16.k not in packed
    no_dual16 = LinearCode(f16, systematic_no_dual.matrix)
    assert no_dual16._systematic_halves() is None
    packed.clear()
    assert no_dual16.stacked_hull_dim([1] * 6) == no_dual16.hull_dim() == 0
    assert 2 * no_dual16.k in packed


# -- scaling in RREF, the carried dual and the k x k hull route --------------

GF289 = (17, 2, [3, 16, 1])
SCALE_FIELDS = {"gf16": CHAR2["GF(16)"], "gf25": ODD["GF(25)"], "gf256": GF256,
                "gf289": GF289}


def _random_rref_codes(spec, rng):
    """Codes with systematic and non-systematic pivots, k = 0 and k = n."""
    q = spec.q
    for n in (1, 4, 7, 10):
        yield LinearCode(spec, [], n=n)
        yield LinearCode(spec, [[int(i == j) or rng.randrange(1, q) * (j > i)
                                 for j in range(n)] for i in range(n)])
        for _ in range(4):
            k = rng.randint(1, n)
            # zero leading columns and repeated rows move the pivots
            lead = rng.randint(0, n - 1)
            rows = [[0] * lead + [rng.randrange(q) for _ in range(n - lead)]
                    for _ in range(k)]
            yield LinearCode(spec, rows + rows[:rng.randint(0, k)], n=n)


def _stack_hull(c, w):
    """dim(w.C n C-perp) as n - rank of the 2k x 2k stack [G diag(w); H]."""
    rows = [*linalg.scale_columns(c.matrix, w, c.spec), *c.dual().matrix]
    return c.n - linalg.rank(rows, c.spec)


@pytest.mark.parametrize("field", SCALE_FIELDS.values(), ids=SCALE_FIELDS.keys())
def test_scale_writes_the_rref_and_carries_the_dual(field):
    # RREF(G diag(w)) is row i of G diag(w) over w at row i's pivot, and
    # (w.C)-perp = w^-1.C-perp, with no elimination
    spec = FieldSpec(*field)
    rng = random.Random(spec.q)
    shapes = set()
    for c in _random_rref_codes(spec, rng):
        pivots = linalg.rref([list(r) for r in c.matrix], spec)[1]
        shapes.add((c.k, c.n, pivots == list(range(c.k))))
        w = _random_weights(spec, c.n, rng)
        fresh = c.scale(w)
        assert fresh._dual is None and fresh.k == c.k and fresh.nodes == c.nodes
        expected = linalg.rref(linalg.scale_columns(c.matrix, w, spec), spec)[0]
        assert fresh.matrix == tuple(map(tuple, expected))
        assert all(type(x) is int for row in fresh.matrix for x in row)
        c.dual()
        scaled = c.scale(ScalingVector(spec, w))
        assert scaled.matrix == fresh.matrix and scaled._dual is not None
        kernel = LinearCode(spec, linalg.nullspace(list(scaled.matrix), spec, c.n),
                            n=c.n)
        assert scaled._dual.matrix == kernel.matrix
        assert scaled.stacked_hull_dim() == _stack_hull(fresh, [1] * c.n)
    assert {k for k, _, _ in shapes} >= {0, 1, 10}
    assert any(not systematic for k, _, systematic in shapes if k)
    assert any(k == n for k, n, _ in shapes)


@pytest.mark.parametrize("q", [16, 25, 32, 49, 64, 256, 289, 729, 1031])
def test_every_hull_route_gives_the_stacked_hull_on_the_goldens(q):
    # the k x k rank (and at q = 289 the generator route) against the stack,
    # with the dual from a nullspace and with C.v, the dual iso_dual_identity
    # proves; w = lambda v has hull k, and v on a prefix hulls in between
    with open(os.path.join(GOLDENS, f"q{q}.json")) as fh:
        cert = IsoDualCertificate.from_json(fh.read())
    kernel, spec = cert.code(), cert.spec()
    v, k = cert.scaling_v, kernel.k
    proved = cert.code()
    proved._carry_dual(v)
    assert proved._dual.matrix == kernel.dual().matrix
    dense = LinearCode(spec, kernel.matrix, n=kernel.n)
    assert dense._systematic_halves() is not None
    assert dense._displacement_factors() is None
    assert (kernel._displacement_factors() is not None) == (
        spec.p != 2 and k >= code._DISPLACEMENT_MIN_K and spec._addt is not None)
    rng = random.Random(q)
    weights = [_random_weights(spec, kernel.n, rng) for _ in range(4)]
    weights += [[spec.mul_enc(lam, x) for x in v]
                for lam in (1, spec.q - 1, rng.randrange(2, spec.q))]
    weights += [[*v[:size], *_random_weights(spec, kernel.n - size, rng)]
                for size in (k // 2, k + 1, k + k // 2, 2 * k - 1)]
    hulls = []
    for w in weights:
        h = _stack_hull(kernel, w)
        assert [c.stacked_hull_dim(w) for c in (kernel, proved, dense)] == [h] * 3
        hulls.append(h)
    assert hulls[4:7] == [k] * 3 and min(hulls[7:]) < k


@pytest.mark.parametrize("fixture, bad", [("f25", -1), ("f25", 30), ("f25", 0),
                                          ("f16", 200), ("f16", 16), ("f16", True)])
def test_hull_weights_and_scalings_outside_the_field_are_refused(request, fixture, bad):
    # a negative encoding read log[-1], one past q an IndexError
    spec = request.getfixturevalue(fixture)
    c = LinearCode(spec, [[1, 2, 3, 4], [0, 1, 1, 2]])
    for call in (c.stacked_hull_dim, c.scale):
        with pytest.raises(CodeError, match="nonzero encodings"):
            call([1, 1, 1, bad])


def test_scalings_over_another_field_are_refused(f16, f25):
    f256 = FieldSpec(*GF256)
    c16 = LinearCode(f16, [[1, 2, 3, 4], [0, 1, 1, 2]])
    for other in (ScalingVector(f256, [200, 1, 1, 1]), ScalingVector(f25, [3, 1, 1, 1])):
        for call in (c16.scale, c16.stacked_hull_dim):
            with pytest.raises(CodeError, match="scaling vector over"):
                call(other)
    assert c16.scale(ScalingVector(FieldSpec(*CHAR2["GF(16)"]), [3, 1, 1, 1])).k == 2


@pytest.mark.parametrize("fixture", ["f16", "f25"])
def test_gram_and_scale_columns_refuse_a_zero_weight(request, fixture):
    # in odd characteristic log[0] == 0 read a zero weight as 1: over GF(25)
    # gram([[1, 2, 3]], w = (0, 1, 1)) gave [[4]], the value at w = 1
    spec = request.getfixturevalue(fixture)
    for w in ([0, 1, 1], [1, 1, 0]):
        with pytest.raises(ValueError, match="nonzero"):
            linalg.gram([[1, 2, 3]], spec, w)
        with pytest.raises(ValueError, match="nonzero"):
            linalg.scale_columns([[1, 2, 3]], w, spec)
    assert linalg.gram([[1, 2, 3]], spec, [1, 1, 1]) == linalg.gram([[1, 2, 3]], spec)


def test_dual_factors_from_v_reproduce_r_prime(monkeypatch):
    # with the dual C.v, A' = D_v1^-1 A D_v2, so the dual's displacement
    # R' = D_alpha A' - A' D_x is P' Q' for P' = D_v1^-1 P and Q' = Q D_v2:
    # one RREF (of R) where the kernel's dual takes two
    with open(os.path.join(GOLDENS, "q289.json")) as fh:
        cert = IsoDualCertificate.from_json(fh.read())
    spec, v = cert.spec(), cert.scaling_v
    proved, kernel = cert.code(), cert.code()
    proved._carry_dual(v)
    kernel_factors = kernel._displacement_factors()
    rrefs = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda rows, *args, **kw:
                        rrefs.append(len(rows)) or real(rows, *args, **kw))
    alpha, x, p_cols, q_rows, dual_p, dual_q = proved._displacement_factors()
    assert rrefs == [proved.k] and kernel_factors[:4] == (alpha, x, p_cols, q_rows)
    k, mul, add, sub = proved.k, spec.mul_enc, spec.add_enc, spec.sub_enc
    dual_a = [row[k:] for row in proved.dual().matrix]
    for i in range(k):
        for j in range(k):
            r = mul(sub(alpha[i], x[j]), dual_a[i][j])
            assert r == reduce(add, (mul(col[i], row[j])
                                     for col, row in zip(dual_p, dual_q)), 0)
    rng = random.Random(289)
    for _ in range(30):
        w = _random_weights(spec, proved.n, rng)
        assert proved.stacked_hull_dim(w) == kernel.stacked_hull_dim(w)


def test_reachable_packs_long_inputs_and_wide_groups():
    # sizes cut off at both ends once n passes 2k, masks wider than one
    # machine word, and every shift; the oracle's counting DP is the
    # reference
    rng = random.Random(25)
    for _ in range(300):
        d1 = rng.choice([1, 1, 2, 3, 6])
        d2 = d1 * rng.choice([1, 2, 5, 13, 43])
        n = rng.randrange(0, 25)
        k = rng.choice([0, n, n + 1, rng.randrange(0, n + 1), rng.randrange(0, n + 1)])
        coords = [(rng.randrange(-d1, 2 * d1), rng.randrange(-d2, 2 * d2))
                  for _ in range(n)]
        counts = subset_sum_counts(coords, k, d1, d2)
        assert subset_sum_reachable(coords, k, d1, d2) == _support(counts), \
            (coords, k, d1, d2)
        _assert_witness_is_support(coords, k, d1, d2, counts)


@pytest.mark.parametrize("field", [CHAR2["GF(16)"], ODD["GF(25)"], ODD["GF(1031)"]],
                         ids=["gf16", "gf25", "gf1031"])
def test_systematic_generator_is_kept_without_rref(monkeypatch, field):
    # [I | A] is its own RREF; any other generator is still reduced
    spec = FieldSpec(*field)
    rng = random.Random(spec.q)
    reduced = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda rows, *args, **kw:
                        reduced.append(len(rows)) or real(rows, *args, **kw))
    for k, n in ((1, 1), (3, 3), (2, 5), (4, 8)):
        rows = [[int(i == j) for j in range(k)] + [rng.randrange(spec.q) for _ in range(n - k)]
                for i in range(k)]
        c = LinearCode(spec, rows)
        assert not reduced and [list(r) for r in c.matrix] == rows
        assert LinearCode(spec, map(iter, rows)).matrix == c.matrix   # rows read once
        assert c.matrix == tuple(map(tuple, real(rows, spec)[0]))
    for rows in ([[2, 0, 1]], [[0, 1, 3]], [[1, 0, 4], [1, 1, 0]], [[0, 1], [1, 0]],
                 [[1, 0], [0, 1], [1, 1]]):
        c = LinearCode(spec, rows)
        assert reduced and c.matrix == tuple(map(tuple, real(rows, spec)[0]))


BAD_ENTRIES = {"bool": True, "float": 2.0, "str": "3", "negative": -1, "too-large": 25}


@pytest.mark.parametrize("bad", BAD_ENTRIES.values(), ids=BAD_ENTRIES.keys())
def test_row_and_scaling_checks_raise_the_entrywise_errors(f25, bad):
    # rows and scalings of in-range ints pass in one C-level pass; any other
    # entry goes through spec.element, whose error is raised unchanged
    with pytest.raises(FieldError) as expected:
        f25.element(bad)
    for build in (lambda: LinearCode(f25, [[1, 2, 3], [0, 1, bad]]),
                  lambda: ScalingVector(f25, [1, 2, bad])):
        with pytest.raises(FieldError) as raised:
            build()
        assert str(raised.value) == str(expected.value)
    with pytest.raises(CodeError, match="nonzero"):
        ScalingVector(f25, [1, 0, 2])
    assert ScalingVector(f25, [1, 24, f25.element(3)]).entries == (1, 24, 3)
