import os
import random
from itertools import permutations

import pytest

from ellcode import IsoDualCertificate, gf, linalg
from ellcode.curve import Point, INFINITY
from ellcode.funcspace import (FunctionError, evaluate, interpolation_poly,
                               point_moments, rr_basis, systematic_rows)
from oracle import (Divisor, RationalFunction, basis_divisor, basis_functions,
                    divisor_sum, is_principal, pole_orders_at_O, poly_degree,
                    principal_divisor, rr_basis_rows, valuation,
                    validate_rr_basis)

GOLDENS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "goldens")


def _as_points(curve, encoded):
    """The `Point`s of encoded (x, y) pairs, for the symbolic layer."""
    return [curve._point(e) for e in encoded]


@pytest.fixture(scope="module")
def q1_16(f16):
    return Point(f16.element(0), f16.element(11))


@pytest.fixture(scope="module")
def q1_25(f25):
    return Point(f25.element(4), f25.element(0))


def test_weighted_degrees_at_infinity(e16):
    x = RationalFunction(e16, (0, 1))
    y = RationalFunction(e16, (), (1,))
    assert valuation(x, INFINITY) == -2
    assert valuation(y, INFINITY) == -3


def test_valuation_y_minus_gamma_over_x(e16, q1_16):
    f = RationalFunction(e16, (11,), (1,), (0, 1))
    assert valuation(f, q1_16) == -1
    div = principal_divisor(f)
    assert div.degree() == 0
    assert is_principal(div)
    assert div.multiplicity(q1_16) == -1
    assert div.multiplicity(INFINITY) == -1
    zeros = [p for p, m in div.items() if m > 0]
    assert len(zeros) == 2 and all(m == 1 for p, m in div.items() if m > 0)


def test_valuation_ramified_norm_trick(e25, q1_25):
    f = RationalFunction(e25, (1, 1))        # x + 1
    assert valuation(f, q1_25) == 2
    assert principal_divisor(f).coeffs == {q1_25: 2, INFINITY: -2}


def test_valuation_of_y_at_two_torsion(e25, q1_25, f25):
    y = RationalFunction(e25, (), (1,))
    assert valuation(y, q1_25) == 1
    div = principal_divisor(y)
    assert div.degree() == 0
    assert div.multiplicity(INFINITY) == -3
    assert sorted(m for p, m in div.items() if m > 0) == [1, 1, 1]


def test_divisor_sum_examples(e16, q1_16):
    p = next(q for q in e16.points() if not q.is_infinity
             and e16.point_order(q) == 11)
    pair = Divisor(e16, {p: 1, e16.mul(-1, p): 1})
    assert divisor_sum(pair) == INFINITY
    g = Divisor(e16, {INFINITY: 3, q1_16: 1})
    assert divisor_sum(g) == q1_16


def test_construction_point_sum_is_identity(e16, cert16):
    pts = _as_points(e16, cert16.points)
    d = Divisor(e16, {p: 1 for p in pts})
    assert divisor_sum(d) == INFINITY


def test_is_principal(e16, q1_16):
    p = e16.points()[3]
    assert is_principal(Divisor(e16, {}))
    assert not is_principal(Divisor(e16, {p: 1, INFINITY: -1}))


def test_interpolation_divisor_matches_construction(e16, cert16, f16):
    pts = _as_points(e16, cert16.points)
    xs = sorted({p.x.enc for p in pts})
    h, _ = interpolation_poly([f16.element(x) for x in xs])
    div = principal_divisor(RationalFunction(e16, h))
    expected = {p: 1 for p in pts}
    expected[INFINITY] = -8
    assert div.coeffs == expected


def test_interpolation_poly_derivative_identity(f16):
    xs = [f16.element(e) for e in (5, 1, 2, 7)]
    h, hp = interpolation_poly(xs)
    assert poly_degree(h) == 4 and h[-1].enc == 1
    assert poly_degree(hp) == 2           # k - 2 in characteristic 2
    for j, xj in enumerate(xs):
        prod = f16.one
        for i, xi in enumerate(xs):
            if i != j:
                prod = prod * (xj - xi)
        assert gf.poly_eval(hp, xj) == prod
        assert prod.enc != 0


def test_interpolation_poly_single_and_errors(f16):
    h, hp = interpolation_poly([f16.element(3)])
    assert [c.enc for c in h] == [3, 1]
    assert [c.enc for c in hp] == [1]
    with pytest.raises(FunctionError):
        interpolation_poly([])
    with pytest.raises(FunctionError):
        interpolation_poly([f16.element(3), f16.element(3)])


def test_rr_basis_even_char(e16, q1_16):
    basis = rr_basis(e16, 4, q1_16.key())
    assert pole_orders_at_O(basis) == (0, 1, 2, 3)
    assert basis_divisor(basis).multiplicity(INFINITY) == 3
    assert basis_divisor(basis).multiplicity(q1_16) == 1
    validate_rr_basis(basis)


def test_rr_basis_odd_char(e25, q1_25):
    basis = rr_basis(e25, 8, q1_25.key())
    assert pole_orders_at_O(basis) == tuple(range(8))
    validate_rr_basis(basis)


def test_rr_basis_smallest_case(e16, q1_16):
    basis = rr_basis(e16, 2, q1_16.key())
    assert len(basis_functions(basis)) == 2
    validate_rr_basis(basis)


def test_rr_basis_preconditions(e16, e25, q1_16, q1_25):
    with pytest.raises(FunctionError):
        rr_basis(e16, 3, q1_16.key())        # odd k
    with pytest.raises(FunctionError):
        rr_basis(e16, 4, None)
    p = next(q for q in e25.points() if not q.is_infinity
             and e25.point_order(q) == 3)
    with pytest.raises(FunctionError):
        rr_basis(e25, 4, p.key())            # not 2-torsion
    with pytest.raises(FunctionError, match="outside"):
        rr_basis(e16, 4, (0, 16))            # not an encoding of GF(16)
    with pytest.raises(FunctionError, match="outside"):
        rr_basis(e25, 4, (-1, 0))


def _evaluated(basis, points):
    return [[evaluate(f, p).enc for p in points] for f in basis_functions(basis)]


@pytest.mark.parametrize("k", [2, 4, 8])
def test_rr_basis_rows_match_evaluate(e16, e25, q1_16, q1_25, k):
    # every affine point off the pole of u: x != 0 in char 2, x != beta else
    for curve, q2, pole_x in ((e16, q1_16, 0), (e25, q1_25, q1_25.x.enc)):
        basis = rr_basis(curve, k, q2.key())
        pts = [p for p in curve.points()
               if not p.is_infinity and p.x.enc != pole_x]
        assert rr_basis_rows(basis, [p.key() for p in pts]) == _evaluated(basis, pts)


@pytest.mark.parametrize("name", ["q16.json", "q25.json", "q49.json"])
def test_rr_basis_rows_match_evaluate_on_certificates(name):
    with open(os.path.join(GOLDENS, name)) as fh:
        cert = IsoDualCertificate.from_json(fh.read())
    curve = cert.curve()
    basis = rr_basis(curve, cert.k, cert.g_divisor[1][0])
    rows = rr_basis_rows(basis, cert.points)
    assert rows == _evaluated(basis, _as_points(curve, cert.points))
    assert len(rows) == cert.k and {len(r) for r in rows} == {cert.n}


def _refusals(basis, points):
    """Whether the oracle's rows and the library's two closed forms each
    raise `FunctionError` on the points: the closed forms refuse a pole of
    u by themselves, not through the oracle."""
    out = []
    for fn in (rr_basis_rows, systematic_rows, point_moments):
        try:
            fn(basis, points)
        except FunctionError:
            out.append(True)
        else:
            out.append(False)
    return out


def test_rr_basis_rows_pole_rejected(e16, e25, q1_16, q1_25):
    # Q1 = (0, gamma1) is the only point with x = 0 in characteristic 2
    basis16 = rr_basis(e16, 4, q1_16.key())
    assert _refusals(basis16, [q1_16.key()]) == [True] * 3
    assert _refusals(basis16, [None]) == [True] * 3
    basis25 = rr_basis(e25, 4, q1_25.key())
    at_beta = [p for p in e25.points()
               if not p.is_infinity and p.x.enc == q1_25.x.enc]
    assert at_beta
    for p in at_beta:
        assert _refusals(basis25, [p.key()]) == [True] * 3
        with pytest.raises(FunctionError):
            _evaluated(basis25, [p])


def test_evaluate_basics(e16, f16):
    p = next(q for q in e16.points() if not q.is_infinity and q.x.enc == 5)
    assert evaluate(RationalFunction(e16, (0, 1)), p).enc == 5
    assert evaluate(RationalFunction(e16, (1,)), p).enc == 1
    with pytest.raises(FunctionError):
        evaluate(RationalFunction(e16, (0, 1)), INFINITY)


def test_evaluate_at_pole_rejected(e16, q1_16):
    f = RationalFunction(e16, (11,), (1,), (0, 1))
    with pytest.raises(FunctionError):
        evaluate(f, q1_16)


def test_zero_function_rejected(e16):
    with pytest.raises(FunctionError):
        RationalFunction(e16, (), ())
    with pytest.raises(FunctionError):
        RationalFunction(e16, (1,), (), ())


def test_canonical_form_reduces_common_factors(e16, f16):
    # (x^2 + x) / x reduces to x + 1
    f = RationalFunction(e16, (0, 1, 1), (), (0, 1))
    assert [c.enc for c in f.a] == [1, 1]
    assert [c.enc for c in f.c] == [1]


def test_principal_divisors_have_zero_sum(e25, cert25, f25):
    pts = _as_points(e25, cert25.points)
    xs = sorted({p.x.enc for p in pts})
    h, _ = interpolation_poly([f25.element(x) for x in xs])
    f = RationalFunction(e25, h)
    div = principal_divisor(f)
    assert div.degree() == 0
    assert is_principal(div)
    assert div.coeffs == {**{p: 1 for p in pts}, INFINITY: -16}


# -- the closed forms of the op path: systematic rows and the moment Gram ------

def _golden_inputs():
    """(spec, basis, points) of each of the nine golden certificates."""
    names = sorted(f for f in os.listdir(GOLDENS) if f.startswith("q"))
    assert len(names) == 9
    for name in names:
        with open(os.path.join(GOLDENS, name)) as fh:
            cert = IsoDualCertificate.from_json(fh.read())
        yield cert, rr_basis(cert.curve(), cert.k, cert.g_divisor[1][0]), cert.points


def test_systematic_rows_are_the_rref_on_the_goldens():
    for cert, basis, pts in _golden_inputs():
        rows, _ = systematic_rows(basis, pts)
        assert rows == linalg.rref(rr_basis_rows(basis, pts), cert.spec())[0]
        assert tuple(map(tuple, rows)) == cert.generator_matrix


def _assert_factors_give_r(spec, rows, factors, points):
    """R = D_alpha A - A D_x equals P Q entry for entry, alpha the first k
    points' x's and x the others'."""
    k, (p_cols, q_rows) = len(rows), factors
    add, mul, sub = spec.add_enc, spec.mul_enc, spec.sub_enc
    xs = [x for x, _ in points]
    assert [len(v) for v in (*p_cols, *q_rows)] == [k] * 4
    for i, row in enumerate(rows):
        for j, a in enumerate(row[k:]):
            r = mul(sub(xs[i], xs[k + j]), a)
            assert r == add(mul(p_cols[0][i], q_rows[0][j]),
                            mul(p_cols[1][i], q_rows[1][j])), (spec, k, i, j)


def test_systematic_factors_give_r_on_the_goldens_and_the_sweep(sweep):
    # R = P Q with P = [1/L_i, u(P_i')/L_i] and Q = [-col_j u_j; col_j]
    inputs = [(cert.spec(), basis, pts) for cert, basis, pts in _golden_inputs()]
    inputs += [(curve.spec, rr_basis(curve, k, qa), pts)
               for curve, k, _, _, qa, pts in sweep]
    for spec, basis, pts in inputs:
        _assert_factors_give_r(spec, *systematic_rows(basis, pts), pts)


def test_systematic_rows_are_the_rref_on_a_field_sweep(sweep):
    seen = set()
    for curve, k, choice, sel, qa, pts in sweep:
        basis = rr_basis(curve, k, qa)
        assert (systematic_rows(basis, pts)[0]
                == linalg.rref(rr_basis_rows(basis, pts), curve.spec)[0]), (curve, k)
        seen.add((curve.spec.q, choice, sel.mode))
    # every field, both constructions, every torsion choice, both selections
    assert {q for q, _, _ in seen} == {8, 16, 32, 9, 25, 27, 49}
    assert {c for _, c, _ in seen} == {None, *permutations((1, 2, 3), 2)}
    assert {(q % 2, m) for q, _, m in seen} == {(0, "canonical"), (0, "torsion"),
                                                (1, "canonical"), (1, "torsion")}


def _random_weights(rng, q, n):
    return [rng.randrange(1, q) for _ in range(n)]


def _assert_moments_give_the_gram(basis, pts, w=None):
    """Entry (i, j) of the Gram of `rr_basis_rows` under w, in the basis
    order 1, u, x, u x, ..., is S[i % 2 + j % 2][i // 2 + j // 2]."""
    moments = point_moments(basis, pts, w)
    gram = linalg.gram(rr_basis_rows(basis, pts), basis.curve.spec, w)
    assert len(gram) == basis.k
    for i, row in enumerate(gram):
        assert row == [moments[i % 2 + j % 2][i // 2 + j // 2]
                       for j in range(basis.k)], i


def test_point_moments_are_the_gram_of_the_rows(sweep):
    rng = random.Random(17)
    cases = [(basis, pts) for _, basis, pts in _golden_inputs()]
    cases += [(rr_basis(c, k, qa), pts)
              for c, k, _, _, qa, pts in sweep[::10]]
    for basis, pts in cases:
        spec = basis.curve.spec
        _assert_moments_give_the_gram(basis, pts)
        w = _random_weights(rng, spec.q, len(pts))
        _assert_moments_give_the_gram(basis, pts, w)


def test_point_moments_read_any_points_off_the_pole(e16, e25, q1_16, q1_25):
    # not the points of a construction: unpaired, with x = 0 in odd
    # characteristic, where x^t is 0 after t = 0
    rng = random.Random(3)
    for curve, q2 in ((e16, q1_16), (e25, q1_25)):
        pts = [p.key() for p in curve.points()
               if not p.is_infinity and p.x != q2.x][::3]
        assert curve.spec.p == 2 or any(x == 0 for x, _ in pts)
        for k in (2, 6):
            basis = rr_basis(curve, k, q2.key())
            w = _random_weights(rng, curve.spec.q, len(pts))
            _assert_moments_give_the_gram(basis, pts, w)


@pytest.mark.parametrize("name", ["q16.json", "q64.json", "q256.json"])
def test_packed_characteristic_2_moments_give_the_gram(name):
    # one packed step per (x, e) where _mulb exists: every affine point off
    # the pole, x = 1 among them (log x = 0, the all-ones powers), at k = 2,
    # 6 and the golden's k, for w = 1 and random w
    with open(os.path.join(GOLDENS, name)) as fh:
        cert = IsoDualCertificate.from_json(fh.read())
    curve = cert.curve()
    spec, qa = curve.spec, cert.g_divisor[1][0]
    pts = [p.key() for p in curve.points() if not p.is_infinity and p.x.enc != qa[0]]
    assert spec._mulb is not None and any(x == 1 for x, _ in pts)
    rng = random.Random(spec.q)
    for k in (2, 6, cert.k):
        basis = rr_basis(curve, k, qa)
        _assert_moments_give_the_gram(basis, pts)
        w = _random_weights(rng, spec.q, len(pts))
        _assert_moments_give_the_gram(basis, pts, w)


def test_iso_dual_scaling_zeroes_every_moment():
    for cert, basis, pts in _golden_inputs():
        assert not any(map(any, point_moments(basis, pts, cert.scaling_v)))


def test_systematic_rows_apply_only_to_whole_first_pairs(e25, q1_25, cert25):
    basis = rr_basis(e25, cert25.k, q1_25.key())
    pts = cert25.points
    k = cert25.k
    # the first k points in any order still give the RREF
    shuffled = pts[:k][::-1] + pts[k:]
    assert (systematic_rows(basis, shuffled)[0]
            == linalg.rref(rr_basis_rows(basis, shuffled), e25.spec)[0])
    # a pair split across the first k, a repeated point, a 2-torsion point
    two_torsion = next(p.key() for p in e25.points()
                       if not p.is_infinity and not p.y and p.x != q1_25.x)
    for bad in (_swap(pts, 1, k), _replace_at(pts, 1, pts[0]),
                _replace_at(pts, 1, two_torsion), _replace_at(pts, k, pts[0])):
        assert systematic_rows(basis, bad) is None
    with pytest.raises(FunctionError):
        systematic_rows(basis, _replace_at(pts, k, q1_25.key()))


def _swap(seq, i, j):
    out = list(seq)
    out[i], out[j] = out[j], out[i]
    return out


def _replace_at(seq, i, value):
    out = list(seq)
    out[i] = value
    return out
