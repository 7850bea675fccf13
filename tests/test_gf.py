import json
import os
import random
from itertools import product

import pytest

from ellcode import gf, search
from ellcode.gf import FieldError, FieldSpec
from oracle import poly_add, poly_degree, poly_divmod, root_multiplicity


@pytest.fixture(scope="module")
def f27():
    # x^3 + 2x + 1 has no roots mod 3
    return FieldSpec(3, 3, [1, 2, 0, 1])


@pytest.fixture(scope="module")
def f32():
    return FieldSpec(2, 5, [1, 0, 1, 0, 0, 1])


def test_gf16_addition_encodings(f16):
    assert (f16.element(2) + f16.element(3)).enc == 1
    assert (f16.element(5) + f16.element(5)).enc == 0


def test_gf25_additive_identity(f25):
    assert (f25.element(0) + f25.element(7)).enc == 7


def test_defining_relation_products(f16, f25):
    # theta * theta^3 = theta + 1 under theta^4 = theta + 1
    assert f16.mul_enc(2, 8) == 3
    # theta^2 = theta + 3 under theta^2 = theta - 2
    assert f25.mul_enc(5, 5) == 8


def test_inverse_identity(f16, f25):
    assert f16.inv_enc(1) == 1
    assert f25.inv_enc(1) == 1
    for spec in (f16, f25):
        for enc in range(1, spec.q):
            assert spec.mul_enc(enc, spec.inv_enc(enc)) == 1


def test_inv_zero_raises(f16):
    with pytest.raises(ZeroDivisionError):
        f16.inv_enc(0)


def test_cross_field_operations_rejected(f16, f25):
    with pytest.raises(FieldError):
        f16.element(3) + f25.element(3)
    with pytest.raises(FieldError):
        f16.element(3) * f25.element(3)


@pytest.mark.parametrize("value", [2.7, "3", True, None])
def test_element_takes_only_int_encodings_and_elements(f25, value):
    # int() once read 2.7 as 2, "3" as 3 and True as 1
    with pytest.raises(FieldError, match="int encoding"):
        f25.element(value)
    three = f25.element(3)
    assert f25.element(three) is three and three.enc == 3


def test_sqrt_char2_is_total_frobenius_inverse(f16):
    for enc in range(16):
        r = f16.sqrt_enc(enc)
        assert r is not None
        assert f16.mul_enc(r, r) == enc
    assert f16.sqrt_enc(f16.mul_enc(2, 2)) == 2


def test_sqrt_gf25_against_exhaustive_squaring(f25):
    squares = {f25.mul_enc(e, e) for e in range(25)}
    for enc in range(25):
        r = f25.sqrt_enc(enc)
        if enc in squares:
            assert r is not None and f25.mul_enc(r, r) == enc
            # deterministic tie-break toward the smaller encoding
            assert r <= f25.neg_enc(r)
        else:
            assert r is None


def test_sqrt_minus_one_exists_gf25(f25):
    # q = 25 = 1 mod 4
    minus_one = f25.neg_enc(1)
    assert f25.sqrt_enc(minus_one) is not None


def _mult_order(spec, enc):
    order, acc = 1, enc
    while acc != 1:
        acc = spec.mul_enc(acc, enc)
        order += 1
    return order


def test_generator_is_theta_with_full_order(f16, f25):
    assert f16.generator().enc == 2
    assert _mult_order(f16, 2) == 15
    assert f25.generator().enc == 5
    assert _mult_order(f25, 5) == 24


def test_generator_gf2():
    f2 = FieldSpec(2, 1, [0, 1])
    assert f2.generator().enc == 1


@pytest.mark.parametrize("spec_name", ["f16", "f25", "f27", "f32"])
def test_field_axioms_exhaustive(spec_name, request):
    spec = request.getfixturevalue(spec_name)
    q = spec.q
    add, mul = spec.add_enc, spec.mul_enc
    for a in range(q):
        for b in range(q):
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            for c in range(q):
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_field_axioms_sampled_gf64():
    spec = FieldSpec(2, 6, [1, 1, 0, 1, 1, 0, 1])
    rng = random.Random(13)
    for _ in range(1500):
        a, b, c = (rng.randrange(64) for _ in range(3))
        assert spec.mul_enc(spec.mul_enc(a, b), c) == spec.mul_enc(a, spec.mul_enc(b, c))
        assert spec.mul_enc(a, spec.add_enc(b, c)) == \
            spec.add_enc(spec.mul_enc(a, b), spec.mul_enc(a, c))
        if a:
            assert spec.mul_enc(a, spec.inv_enc(a)) == 1


@pytest.mark.parametrize("spec_name", ["f16", "f25"])
def test_frobenius_is_a_homomorphism(spec_name, request):
    spec = request.getfixturevalue(spec_name)
    p = spec.p
    for a in range(spec.q):
        for b in range(spec.q):
            assert spec.pow_enc(spec.add_enc(a, b), p) == \
                spec.add_enc(spec.pow_enc(a, p), spec.pow_enc(b, p))
            assert spec.pow_enc(spec.mul_enc(a, b), p) == \
                spec.mul_enc(spec.pow_enc(a, p), spec.pow_enc(b, p))


def test_pow_negative_and_zero(f25):
    assert f25.pow_enc(7, 0) == 1
    assert f25.pow_enc(7, -1) == f25.inv_enc(7)
    assert f25.pow_enc(0, 3) == 0
    with pytest.raises(ZeroDivisionError):
        f25.pow_enc(0, -2)


def test_derivative_of_x_squared_vanishes_char2(f16):
    f = (f16.zero, f16.zero, f16.one)
    assert gf.poly_derivative(f) == ()


def test_derivative_product_rule_random(f25):
    rng = random.Random(7)
    for _ in range(60):
        f = [f25.element(rng.randrange(25)) for _ in range(rng.randrange(1, 7))]
        g = [f25.element(rng.randrange(25)) for _ in range(rng.randrange(1, 7))]
        lhs = gf.poly_derivative(gf.poly_mul(f, g))
        rhs = poly_add(gf.poly_mul(gf.poly_derivative(f), g),
                       gf.poly_mul(f, gf.poly_derivative(g)))
        assert lhs == rhs


def test_poly_eval_matches_naive(f25):
    rng = random.Random(3)
    for _ in range(40):
        coeffs = [f25.element(rng.randrange(25)) for _ in range(rng.randrange(1, 8))]
        a = f25.element(rng.randrange(25))
        naive = f25.zero
        for i, c in enumerate(coeffs):
            naive = naive + c * (a ** i)
        assert gf.poly_eval(coeffs, a) == naive


def test_poly_divmod_and_gcd(f25):
    rng = random.Random(11)
    for _ in range(40):
        f = [f25.element(rng.randrange(25)) for _ in range(rng.randrange(1, 8))]
        g = [f25.element(rng.randrange(25)) for _ in range(rng.randrange(1, 5))]
        if poly_degree(g) < 0:
            continue
        quot, rem = poly_divmod(f, g)
        assert poly_add(gf.poly_mul(quot, g), rem) == gf.poly_trim(f)
        assert poly_degree(rem) < poly_degree(g)


def test_root_multiplicity(f25):
    x0 = f25.element(3)
    lin = (-x0, f25.one)
    f = gf.poly_mul(gf.poly_mul(lin, lin), (f25.one, f25.one))
    assert root_multiplicity(f, x0) == 2
    assert root_multiplicity(f, f25.element(9)) == 0


def _monic(p, m):
    return [list(c) + [1] for c in product(range(p), repeat=m)]


def _poly_product(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return out


@pytest.mark.parametrize("p, max_m", [(2, 5), (3, 5), (5, 3), (7, 3)])
def test_irreducibility_matches_factor_search(p, max_m):
    # every monic polynomial of degree 1..max_m, reducible exactly when it
    # is a product of two monic factors of degree >= 1
    reducible = {tuple(_poly_product(f, g, p))
                 for d in range(1, max_m) for e in range(d, max_m - d + 1)
                 for f in _monic(p, d) for g in _monic(p, e)}
    for m in range(1, max_m + 1):
        for f in _monic(p, m):
            assert gf._is_irreducible(f, p) == (tuple(f) not in reducible), f


GOLDENS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "goldens")
GOLDEN_GENERATORS = {16: 2, 25: 5, 32: 2, 49: 7, 64: 2, 256: 2, 289: 17, 729: 3,
                     1031: 14}


@pytest.mark.parametrize("q, gen", GOLDEN_GENERATORS.items(),
                         ids=map(str, GOLDEN_GENERATORS))
def test_golden_field_generators(q, gen):
    with open(os.path.join(GOLDENS, f"q{q}.json")) as fh:
        spec = FieldSpec.from_string(json.load(fh)["field"])
    assert spec.q == q and spec.generator().enc == gen
    assert _mult_order(spec, gen) == q - 1


def test_no_primitive_candidate_fails_the_cycle_check(monkeypatch):
    # over x^2 + 1, theta = i has order 4 of 8, so the search runs
    monkeypatch.setattr(FieldSpec, "_is_primitive", lambda self, enc, factors: False)
    with pytest.raises(FieldError, match="cycle"):
        FieldSpec(3, 2, [1, 0, 1])


@pytest.mark.parametrize("p, m", [(2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 3),
                                  (3, 4), (5, 2), (7, 2)])
def test_generator_is_the_smallest_primitive_encoding(monkeypatch, p, m):
    # over every irreducible modulus: the walk by theta (enc p) settles it
    # where theta is primitive, and only otherwise does the search run
    calls, real = [], FieldSpec._is_primitive
    monkeypatch.setattr(FieldSpec, "_is_primitive",
                        lambda self, enc, factors: calls.append(enc) or real(self, enc, factors))
    q, thetas = p ** m, 0
    for mod in (f for f in _monic(p, m) if gf._is_irreducible(f, p)):
        calls.clear()
        spec = FieldSpec(p, m, mod)
        assert spec._gen_enc == next(c for c in range(1, q) if _mult_order(spec, c) == q - 1)
        assert (calls == []) is (spec._gen_enc == p)
        thetas += spec._gen_enc == p
    assert 0 < thetas


def test_prime_field_generator_is_the_smallest_primitive_root():
    for p in (c for c in range(2, 400) if gf.is_prime(c)):
        spec = FieldSpec(p, 1, [0, 1])
        assert spec._gen_enc == next(c for c in range(1, p) if _mult_order(spec, c) == p - 1)


def test_reducible_modulus_rejected():
    # x^5 + x + 1 = (x^2+x+1)(x^3+x^2+1) over GF(2)
    with pytest.raises(FieldError):
        FieldSpec(2, 5, [1, 1, 0, 0, 0, 1])


@pytest.mark.parametrize("p, modulus", [(2, [1, 1, 0, 0, 0, 1]), (2, [1, 0, 1]),
                                         (3, [0, 0, 1]), (5, [1, 0, 0, 1])])
def test_reducible_modulus_fails_the_theta_walk_then_rabin(p, modulus):
    # theta of too small an order ((x + 1)^2 over GF(2), x^3 + 1 over
    # GF(5)) or nilpotent (x^2) does not prove the ring a field
    with pytest.raises(FieldError, match="reducible"):
        FieldSpec(p, len(modulus) - 1, modulus)


def test_nonprime_p_rejected():
    with pytest.raises(FieldError):
        FieldSpec(4, 2, [1, 1, 1])


def test_nonmonic_modulus_rejected():
    with pytest.raises(FieldError):
        FieldSpec(5, 2, [2, 4, 2])


def test_spec_string_round_trip(f25, f16):
    for spec in (f25, f16):
        assert FieldSpec.from_string(spec.to_string()) == spec
    assert FieldSpec.from_string("p=2,m=4,mod=1,1,0,0,1") == f16
    assert FieldSpec.from_string(" p=5 , m=2,mod= 2, 4 ,1 ,") == f25
    with pytest.raises(FieldError):
        FieldSpec.from_string("p=2,mod=1,1")
    with pytest.raises(FieldError):
        FieldSpec.from_string("garbage")


@pytest.mark.parametrize("text", ["p=17,p=5,m=2,mod=2,4,1", "p=5,m=3,m=2,mod=2,4,1",
                                  "p=5,m=2,mod=2,mod=4,1", "m=2,mod=2,4,1,p=5"],
                         ids=["p-twice", "m-twice", "mod-twice", "p-after-mod"])
def test_spec_string_refuses_repeated_or_late_keys(text):
    # each spelling builds GF(25) if the last value or the merged list wins
    with pytest.raises(FieldError, match="cannot parse"):
        FieldSpec.from_string(text)


def test_encoding_bijection(f27):
    seen = {f27._enc_of(f27._coeffs_of(e)) for e in range(27)}
    assert seen == set(range(27))


def _digits(enc, p, m):
    return [enc // p ** i % p for i in range(m)]


def _digitwise_sum(a, b, p, m):
    return sum((x + y) % p * p ** i
               for i, (x, y) in enumerate(zip(_digits(a, p, m), _digits(b, p, m))))


def _digitwise_neg(a, p, m):
    return sum(-x % p * p ** i for i, x in enumerate(_digits(a, p, m)))


def _digitwise_row(a, p, m):
    """``[_digitwise_sum(a, b, p, m) for b in range(p ** m)]``, one digit at a time."""
    row = [0] * p ** m
    for i in range(m):
        w, ai = p ** i, a // p ** i % p
        row = [r + (ai + b // w) % p * w for r, b in zip(row, range(p ** m))]
    return row


ODD_TABLE_FIELDS = {
    "GF(9)": (3, 2, [1, 0, 1]),
    "GF(25)": (5, 2, [2, 4, 1]),
    "GF(27)": (3, 3, [1, 2, 0, 1]),
    "GF(49)": (7, 2, [3, 6, 1]),
    "GF(243)": (3, 5, [1, 0, 0, 0, 2, 1]),
    "GF(289)": (17, 2, [3, 16, 1]),
    "GF(343)": (7, 3, [2, 0, 0, 1]),
    "GF(625)": (5, 4, [2, 0, 0, 0, 1]),
    "GF(1021)": (1021, 1, [0, 1]),
}


def _assert_shared_ints(spec):
    # one shared int object per encoding, not one per cell
    assert len({id(x) for row in spec.add_table() for x in row}) <= spec.q


@pytest.mark.parametrize("p, m, modulus", ODD_TABLE_FIELDS.values(),
                         ids=ODD_TABLE_FIELDS.keys())
def test_addition_table_matches_digitwise_sums(p, m, modulus):
    spec = FieldSpec(p, m, modulus)
    q, addt, negt = spec.q, spec.add_table(), spec._negt
    assert spec.add_table() is addt         # built once, then kept
    for a in range(q):
        assert addt[a] == _digitwise_row(a, p, m)
        assert negt[a] == _digitwise_neg(a, p, m)
        assert addt[a][negt[a]] == 0
    _assert_shared_ints(spec)


def _check_sampled_table(spec, seed):
    p, m, q, addt, negt = spec.p, spec.m, spec.q, spec.add_table(), spec._negt
    rng = random.Random(seed)
    for _ in range(20000):
        a, b = rng.randrange(q), rng.randrange(q)
        assert addt[a][b] == _digitwise_sum(a, b, p, m)
    assert all(addt[a][negt[a]] == 0 for a in range(q))
    _assert_shared_ints(spec)


def test_addition_table_gf729_sampled_and_shared():
    _check_sampled_table(FieldSpec(3, 6, [2, 1, 0, 0, 0, 0, 1]), 729)


def test_addition_table_gf961_sampled_and_shared():
    _check_sampled_table(FieldSpec(31, 2, [1, 0, 1]), 961)


def _prime_power_degree(q):
    fac = gf.factorize(q)
    return next(iter(fac.values())) if len(fac) == 1 else 0


# every odd extension field above the add-table cap that FieldSpec accepts:
# 16 with m >= 3, and p^2 for each prime p from 37 to 251
SPLIT_ADD_FIELDS = [q for q in range(gf._ADD_TABLE_MAX_Q + 1, gf._MAX_Q + 1, 2)
                    if 2 <= _prime_power_degree(q) <= 8]
# and the 17 below it, GF(9) through GF(961), until a table is requested
SPLIT_ADD_FIELDS_BELOW_CAP = [q for q in range(9, gf._ADD_TABLE_MAX_Q + 1, 2)
                              if _prime_power_degree(q) >= 2]


def test_split_add_fields_listed():
    assert len(SPLIT_ADD_FIELDS) == 59
    assert sum(_prime_power_degree(q) >= 3 for q in SPLIT_ADD_FIELDS) == 16
    assert len(SPLIT_ADD_FIELDS_BELOW_CAP) == 17
    assert SPLIT_ADD_FIELDS_BELOW_CAP[::16] == [9, 961]


@pytest.mark.parametrize("q", SPLIT_ADD_FIELDS_BELOW_CAP + SPLIT_ADD_FIELDS,
                         ids=lambda q: f"GF({q})")
def test_split_addition_above_table_cap(monkeypatch, q):
    splits, real = [], gf._split_add

    def recorded(p, m):
        splits.append((p, m))
        return real(p, m)
    monkeypatch.setattr(gf, "_split_add", recorded)
    spec = search._default_spec(q)
    p, m = spec.p, spec.m
    # the field adds by the split until a table is requested, and above the
    # cap a request builds none; only GF(37^3), whose high digits form
    # GF(37^2), above the cap, splits a second time
    assert splits == [(p, m)] + [(p, m - m // 2)] * (q == 37 ** 3)
    assert spec._addt is None and spec.add_enc.__qualname__.startswith("_split_add")
    if q > gf._ADD_TABLE_MAX_Q:
        assert spec.add_table() is None
    rng = random.Random(q)
    for _ in range(1000):
        a, b = rng.randrange(spec.q), rng.randrange(spec.q)
        assert spec.add_enc(a, b) == _digitwise_sum(a, b, p, m)
        assert spec.sub_enc(a, b) == _digitwise_sum(a, _digitwise_neg(b, p, m), p, m)
        assert spec.neg_enc(a) == _digitwise_neg(a, p, m)


@pytest.mark.parametrize("p, m", [(2 ** 61 - 1, 1), (65537, 1), (3, 11), (2, 9)])
def test_field_size_bounded_before_any_work(monkeypatch, p, m):
    def refuse(*args):
        raise AssertionError("work done before the field size was checked")

    monkeypatch.setattr(gf, "is_prime", refuse)
    monkeypatch.setattr(FieldSpec, "_build_tables", refuse)
    with pytest.raises(FieldError):
        FieldSpec(p, m, [0] * m + [1])


CHAR2_FIELDS = {
    "GF(2)": [0, 1],
    "GF(4)": [1, 1, 1],
    "GF(8)": [1, 1, 0, 1],
    "GF(16)": [1, 1, 0, 0, 1],
    "GF(32)": [1, 0, 1, 0, 0, 1],
    "GF(64)": [1, 1, 0, 1, 1, 0, 1],
    "GF(128)": [1, 1, 0, 0, 0, 0, 0, 1],
    "GF(256)": [1, 0, 1, 1, 1, 0, 0, 0, 1],
}


@pytest.mark.parametrize("modulus", CHAR2_FIELDS.values(), ids=CHAR2_FIELDS.keys())
def test_char2_translate_tables_are_multiplication(modulus):
    spec = FieldSpec(2, len(modulus) - 1, modulus)
    q, mulb = spec.q, spec._mulb
    assert len(mulb) == q
    for s in range(q):
        assert len(mulb[s]) == 256
        assert list(mulb[s][:q]) == [spec.mul_enc(s, x) for x in range(q)]
        assert not any(mulb[s][q:])


def test_odd_fields_have_no_translate_tables(f25):
    assert f25._mulb is None


BOOTSTRAP_FIELDS = {
    **{f"GF(2^{len(mod) - 1})": (2, len(mod) - 1, mod) for mod in CHAR2_FIELDS.values()},
    "GF(243)": (3, 5, [1, 0, 0, 0, 2, 1]),
    "GF(625)": (5, 4, [2, 0, 0, 0, 1]),
    "GF(729)": (3, 6, [2, 1, 0, 0, 0, 0, 1]),
    "GF(1021)": (1021, 1, [0, 1]),
    "GF(1031)": (1031, 1, [0, 1]),
    "GF(65521)": (65521, 1, [0, 1]),
    "GF(2187)": (3, 7, [1, 0, 2, 0, 0, 0, 0, 1]),
}


@pytest.mark.parametrize("p, m, modulus", BOOTSTRAP_FIELDS.values(),
                         ids=BOOTSTRAP_FIELDS.keys())
def test_exp_log_follow_the_generator(p, m, modulus):
    # exp[i + 1] = exp[i] * gen by the polynomial product itself, around
    # the whole cycle, and log inverts exp
    spec = FieldSpec(p, m, modulus)
    exp, log, gen, q1 = spec._exp, spec._log, spec._gen_enc, spec.q - 1
    assert exp[0] == 1 and len(exp) == q1
    for i, x in enumerate(exp):
        assert exp[(i + 1) % q1] == spec._raw_mul(x, gen)
        assert log[x] == i


def test_gf729_bootstrap_makes_about_sqrt_q_products(monkeypatch):
    # at most 2 * ceil(sqrt(729)) polynomial products, where a walk by one
    # product per step makes 728; theta is primitive, so no search runs
    calls = []
    raw_mul = FieldSpec._raw_mul

    def counted(self, a, b):
        calls.append((a, b))
        return raw_mul(self, a, b)

    monkeypatch.setattr(FieldSpec, "_raw_mul", counted)
    FieldSpec(3, 6, [2, 1, 0, 0, 0, 0, 1])
    assert 0 < len(calls) <= 2 * 27


ZEXP_FIELDS = {
    "GF(2)": (2, 1, CHAR2_FIELDS["GF(2)"]),
    "GF(16)": (2, 4, CHAR2_FIELDS["GF(16)"]),
    "GF(25)": (5, 2, [2, 4, 1]),
    "GF(1031)": BOOTSTRAP_FIELDS["GF(1031)"],
    "GF(2187)": BOOTSTRAP_FIELDS["GF(2187)"],
}


@pytest.mark.parametrize("p, m, modulus", ZEXP_FIELDS.values(), ids=ZEXP_FIELDS.keys())
def test_zero_has_one_log_which_zexp_reads_as_zero(p, m, modulus):
    # log 0 = 4(q-1), and _zexp is exp four times over, then 6(q-1) zeros:
    # a sum of two logs is the product's index, with no zero test
    spec = FieldSpec(p, m, modulus)
    q, q1 = spec.q, spec.q - 1
    assert not hasattr(spec, "_exp2")
    assert spec._log[0] == 4 * q1 and len(spec._zexp) == 10 * q1
    assert spec._zexp == [spec._exp[i % q1] for i in range(4 * q1)] + [0] * (6 * q1)
    if q <= 32:
        pairs = product(range(q), repeat=2)
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
        pairs += [(0, 0), (0, q - 1), (q - 1, 0), (1, q - 1)]
    for a, b in pairs:
        assert spec.mul_enc(a, b) == spec._raw_mul(a, b), (a, b)
