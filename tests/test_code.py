import math
import os
import random
from itertools import combinations

import pytest

from ellcode import FieldError, FieldSpec, IsoDualCertificate, code, linalg
from ellcode.curve import INFINITY, Point
from ellcode.code import (CodeError, LinearCode, ScalingVector,
                          mds_subset_check, subset_sum_counts,
                          subset_sum_counts_exhaustive, subset_sum_reachable)

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
    assert code16.dual().dual().same_code(code16)


def test_full_and_zero_codes(f16):
    full = LinearCode(f16, [[1 if i == j else 0 for j in range(3)]
                            for i in range(3)])
    zero = full.dual()
    assert zero.k == 0 and zero.n == 3
    assert zero.dual().same_code(full)
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


def test_min_distance_budget(f25):
    big = LinearCode(f25, [[1 if i == j else 0 for j in range(12)]
                           for i in range(6)])
    with pytest.raises(CodeError):
        big.min_distance(budget=2 ** 20)


def test_scale_identities(code16, f16):
    ones = ScalingVector.ones(f16, 8)
    assert code16.scale(ones).same_code(code16)
    v = ScalingVector(f16, [3, 7, 2, 9, 11, 4, 6, 13])
    assert code16.scale(v).scale(v.inverse()).same_code(code16)
    assert code16.scale(v).weight_distribution() == code16.weight_distribution()


def test_scaling_vector_rejects_zero(f16):
    with pytest.raises(CodeError):
        ScalingVector(f16, [1, 0, 1])


def test_scale_length_mismatch(code16, f16):
    with pytest.raises(CodeError):
        code16.scale(ScalingVector(f16, [1, 1]))


def test_same_code(code16, f16):
    assert code16.same_code(code16)
    assert not code16.same_code(code16.dual())
    with pytest.raises(CodeError):
        code16.same_code(LinearCode(f16, [[1, 1]]))


def test_iso_dual_identity_via_scale(cert16, code16, f16):
    v = ScalingVector(f16, cert16.scaling_v)
    assert code16.scale(v).same_code(code16.dual())


def test_mds_subset_check_construction(cert16, e16, f16):
    st = e16.group_structure()
    pts = cert16.point_objects(e16)
    q1 = Point(f16.element(0), f16.element(11))
    assert mds_subset_check(pts, st, 4, q1) == 0
    count_zero = mds_subset_check(pts, st, 4, INFINITY)
    # pairs of inverse pairs alone give C(4,2) = 6 such subsets
    assert count_zero >= 6
    exhaustive = sum(
        1 for combo in combinations(pts, 4)
        if _group_sum(e16, combo) == INFINITY)
    assert count_zero == exhaustive
    assert mds_subset_check(pts, st, 0, INFINITY) == 1


def _group_sum(curve, pts):
    acc = INFINITY
    for p in pts:
        acc = curve.add(acc, p)
    return acc


def test_mds_subset_check_rejects_duplicates(cert16, e16):
    st = e16.group_structure()
    pts = cert16.point_objects(e16)
    with pytest.raises(CodeError):
        mds_subset_check(pts + [pts[0]], st, 4, INFINITY)


def test_dp_matches_exhaustive_random_groups():
    rng = random.Random(5)
    for _ in range(25):
        d1 = rng.choice([1, 2, 3, 4, 6])
        d2 = rng.choice([4, 6, 9, 12])
        n = rng.randrange(6, 17)
        k = rng.randrange(0, n + 1)
        coords = [(rng.randrange(d1), rng.randrange(d2)) for _ in range(n)]
        assert subset_sum_counts(coords, k, d1, d2) == \
            subset_sum_counts_exhaustive(coords, k, d1, d2)


def _support(counts):
    return sum(1 << i for i, c in enumerate(counts) if c)


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


def test_reachable_matches_counts_on_golden_curves():
    # every target, not only sum(G), on the nine benchmark certificates
    names = sorted(f for f in os.listdir(GOLDENS) if f.startswith("q"))
    assert len(names) == 9
    for name in names:
        with open(os.path.join(GOLDENS, name)) as fh:
            cert = IsoDualCertificate.from_json(fh.read())
        curve = cert.curve()
        st = curve.group_structure()
        coords = [st.coords(p) for p in cert.point_objects(curve)]
        assert subset_sum_reachable(coords, cert.k, st.d1, st.d2) == \
            _support(subset_sum_counts(coords, cert.k, st.d1, st.d2)), name


def test_mds_subset_check_counts_only_reachable_targets(cert16, e16, f16,
                                                       monkeypatch):
    def no_counts(*args):
        raise AssertionError("exact count run for an unreachable target")
    monkeypatch.setattr(code, "subset_sum_counts", no_counts)
    q1 = Point(f16.element(0), f16.element(11))
    assert mds_subset_check(cert16.point_objects(e16),
                            e16.group_structure(), 4, q1) == 0


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


def test_budget_still_bounds_q_to_the_k(code16, f25):
    # the budget tests q^k, not the (q^k - 1)/(q - 1) words enumerated
    rep = LinearCode(f25, [[1, 2, 3, 4], [0, 1, 1, 2]])
    for c in (code16, rep):
        qk = c.spec.q ** c.k
        for enumerate_ in (c.min_distance, c.weight_distribution):
            with pytest.raises(CodeError, match="exceeds the brute-force budget"):
                enumerate_(budget=qk - 1)
            enumerate_(budget=qk)


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


@pytest.mark.parametrize("rows, encs", [
    ([[0, 24, 3]], [[0, 24, 3]]),
    ([[True, False, 2]], [[1, 0, 2]]),
    ([[7.9, "3", 1]], [[7, 3, 1]]),
])
def test_code_rows_keep_in_range_ints_and_convert_the_rest(f25, rows, encs):
    # plain ints in range are kept as they are; everything else still goes
    # through spec.element, so what it accepts and how it converts are unchanged
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
