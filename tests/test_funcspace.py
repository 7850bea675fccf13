import os

import pytest

from ellcode import IsoDualCertificate, gf
from ellcode.curve import Point, INFINITY
from ellcode.funcspace import (Divisor, FunctionError, RationalFunction,
                               divisor_sum, evaluate, interpolation_poly,
                               is_principal, principal_divisor, rr_basis,
                               rr_basis_rows, valuation, validate_rr_basis)

GOLDENS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "goldens")


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
    pair = Divisor(e16, {p: 1, e16.neg(p): 1})
    assert divisor_sum(pair) == INFINITY
    g = Divisor(e16, {INFINITY: 3, q1_16: 1})
    assert divisor_sum(g) == q1_16


def test_construction_point_sum_is_identity(e16, cert16):
    pts = cert16.point_objects(e16)
    d = Divisor(e16, {p: 1 for p in pts})
    assert divisor_sum(d) == INFINITY


def test_is_principal(e16, q1_16):
    p = e16.points()[3]
    assert is_principal(Divisor(e16, {}))
    assert not is_principal(Divisor(e16, {p: 1, INFINITY: -1}))


def test_interpolation_divisor_matches_construction(e16, cert16, f16):
    pts = cert16.point_objects(e16)
    xs = sorted({p.x.enc for p in pts})
    h, _ = interpolation_poly([f16.element(x) for x in xs])
    div = principal_divisor(RationalFunction(e16, h))
    expected = {p: 1 for p in pts}
    expected[INFINITY] = -8
    assert div.coeffs == expected


def test_interpolation_poly_derivative_identity(f16):
    xs = [f16.element(e) for e in (5, 1, 2, 7)]
    h, hp = interpolation_poly(xs)
    assert gf.poly_degree(h) == 4 and h[-1].enc == 1
    assert gf.poly_degree(hp) == 2           # k - 2 in characteristic 2
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
    basis = rr_basis(e16, 4, q1_16)
    assert basis.pole_orders_at_O == (0, 1, 2, 3)
    assert basis.divisor.multiplicity(INFINITY) == 3
    assert basis.divisor.multiplicity(q1_16) == 1
    validate_rr_basis(basis)


def test_rr_basis_odd_char(e25, q1_25):
    basis = rr_basis(e25, 8, q1_25)
    assert basis.pole_orders_at_O == tuple(range(8))
    validate_rr_basis(basis)


def test_rr_basis_smallest_case(e16, q1_16):
    basis = rr_basis(e16, 2, q1_16)
    assert len(basis.functions) == 2
    validate_rr_basis(basis)


def test_rr_basis_preconditions(e16, e25, q1_16, q1_25):
    with pytest.raises(FunctionError):
        rr_basis(e16, 3, q1_16)              # odd k
    with pytest.raises(FunctionError):
        rr_basis(e16, 4, INFINITY)
    p = next(q for q in e25.points() if not q.is_infinity
             and e25.point_order(q) == 3)
    with pytest.raises(FunctionError):
        rr_basis(e25, 4, p)                  # not 2-torsion


def _evaluated(basis, points):
    return [[evaluate(f, p).enc for p in points] for f in basis.functions]


@pytest.mark.parametrize("k", [2, 4, 8])
def test_rr_basis_rows_match_evaluate(e16, e25, q1_16, q1_25, k):
    # every affine point off the pole of u: x != 0 in char 2, x != beta else
    for curve, q2, pole_x in ((e16, q1_16, 0), (e25, q1_25, q1_25.x.enc)):
        basis = rr_basis(curve, k, q2)
        pts = [p for p in curve.points()
               if not p.is_infinity and p.x.enc != pole_x]
        assert rr_basis_rows(basis, pts) == _evaluated(basis, pts)


@pytest.mark.parametrize("name", ["q16.json", "q25.json", "q49.json"])
def test_rr_basis_rows_match_evaluate_on_certificates(name):
    with open(os.path.join(GOLDENS, name)) as fh:
        cert = IsoDualCertificate.from_json(fh.read())
    curve = cert.curve()
    qa = Point(*map(curve.spec.element, cert.g_divisor[1][0]))
    basis = rr_basis(curve, cert.k, qa)
    pts = cert.point_objects(curve)
    rows = rr_basis_rows(basis, pts)
    assert rows == _evaluated(basis, pts)
    assert len(rows) == cert.k and {len(r) for r in rows} == {cert.n}


def test_rr_basis_rows_pole_rejected(e16, e25, q1_16, q1_25):
    # Q1 = (0, gamma1) is the only point with x = 0 in characteristic 2
    basis16 = rr_basis(e16, 4, q1_16)
    with pytest.raises(FunctionError):
        rr_basis_rows(basis16, [q1_16])
    with pytest.raises(FunctionError):
        rr_basis_rows(basis16, [INFINITY])
    basis25 = rr_basis(e25, 4, q1_25)
    at_beta = [p for p in e25.points()
               if not p.is_infinity and p.x.enc == q1_25.x.enc]
    assert at_beta
    for p in at_beta:
        with pytest.raises(FunctionError):
            rr_basis_rows(basis25, [p])
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
    pts = cert25.point_objects(e25)
    xs = sorted({p.x.enc for p in pts})
    h, _ = interpolation_poly([f25.element(x) for x in xs])
    f = RationalFunction(e25, h)
    div = principal_divisor(f)
    assert div.degree() == 0
    assert is_principal(div)
    assert div.coeffs == {**{p: 1 for p in pts}, INFINITY: -16}
