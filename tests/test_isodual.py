import dataclasses
import gc
import hashlib
import json
import os
import random
import weakref
from functools import reduce
from itertools import product
from operator import xor
from types import SimpleNamespace

import pytest

from ellcode import FieldSpec, funcspace, gf, linalg, search
from ellcode.curve import Curve, CurveError
from ellcode import code as code_module
from ellcode.code import CodeError, LinearCode, ScalingVector
from ellcode import isodual
from oracle import rr_basis_rows, scaling_v_product
from ellcode.isodual import (INVARIANTS, CertificateSchemaError,
                             ConstructionError, ConstructionInput,
                             IsoDualCertificate, PairSelection,
                             VerificationError, construct, find_scaling_with_hull,
                             lcd_transform,
                             sample_scaling_hulls, selfdual_transform,
                             verify_certificate)


def test_example_iv1_certificate(cert16):
    assert (cert16.n, cert16.k, cert16.min_distance) == (8, 4, 5)
    assert cert16.hull_dim == 0
    assert cert16.iso_dual and cert16.mds_subset_count == 0
    assert cert16.min_distance_method == "exhaustive"
    # canonical point order groups the pairs by ascending x
    assert cert16.points == ((1, 0), (1, 1), (2, 13), (2, 15),
                             (5, 0), (5, 5), (7, 11), (7, 12))
    assert cert16.scaling_v == (3, 3, 5, 5, 4, 4, 2, 2)
    assert verify_certificate(cert16) == []


def test_example_v1_certificate(cert25):
    assert (cert25.n, cert25.k, cert25.min_distance) == (16, 8, 9)
    assert cert25.hull_dim == 0
    assert cert25.min_distance_method == "dp"
    assert verify_certificate(cert25) == []


def test_construct_dispatch(e16):
    cert = construct(ConstructionInput(e16, 2, 1))
    assert (cert.n, cert.k) == (4, 2)
    with pytest.raises(ConstructionError):
        construct(ConstructionInput(e16, 2, 3))


def test_selection_modes_agree(e16, cert16):
    # {5,1,2,7} are four of the five available pairs; torsion r=11 needs all 5
    by_canonical = construct(ConstructionInput(e16, 4, 1))
    assert by_canonical.points != cert16.points      # different pair subset
    assert verify_certificate(by_canonical) == []


def test_odd_k_rejected(e16, e25):
    with pytest.raises(ConstructionError):
        construct(ConstructionInput(e16, 3, 1))
    with pytest.raises(ConstructionError):
        construct(ConstructionInput(e25, 5, 2))


def test_wrong_characteristic_rejected(e16, e25):
    with pytest.raises(ConstructionError):
        construct(ConstructionInput(e25, 4, 1))
    with pytest.raises(ConstructionError):
        construct(ConstructionInput(e16, 4, 2))


def test_wrong_curve_shape_rejected(f16):
    supersingular = Curve(f16, 0, 0, 1, 0, 1)    # y^2 + y = x^3 + 1
    with pytest.raises(ConstructionError):
        construct(ConstructionInput(supersingular, 2, 1))


def test_insufficient_pairs_rejected(e16):
    # odd part of 22 is 11: five pairs, so 2k <= 10 caps k at 4
    with pytest.raises(ConstructionError):
        construct(ConstructionInput(e16, 6, 1))


def test_partial_two_torsion_rejected():
    f7 = FieldSpec(7, 1, [0, 1])
    e = Curve(f7, 0, 0, 0, 1, 1)     # x^3 + x + 1 has no roots mod 7
    with pytest.raises(ConstructionError):
        construct(ConstructionInput(e, 2, 2))


def test_construction_2_needs_the_shape_without_a1_a3():
    # every GF(7) curve with (a1, a3) != (0, 0) and full rational 2-torsion,
    # at k = 2 and 4: the evaluation rows and the scaling assume the shape
    # y^2 = x^3 + a2x^2 + a4x + a6, so each is refused up front
    f7 = FieldSpec(7, 1, [0, 1])
    tried = 0
    for a1, a2, a3, a4, a6 in product(range(7), repeat=5):
        if (a1, a3) == (0, 0):
            continue
        try:
            curve = Curve(f7, a1, a2, a3, a4, a6)
        except CurveError:
            continue
        if len(curve.torsion_points(2)) != 4:
            continue
        for k in (2, 4):
            with pytest.raises(ConstructionError, match="curve shape"):
                construct(ConstructionInput(curve, k, 2))
            tried += 1
    assert tried == 3360


def test_pairs_x_validation(e16):
    with pytest.raises(ConstructionError):
        construct(ConstructionInput(
            e16, 4, 1, pair_selection=PairSelection("pairs_x", pairs_x=(5, 5, 1, 2))))
    with pytest.raises(ConstructionError):
        construct(ConstructionInput(
            e16, 4, 1, pair_selection=PairSelection("pairs_x", pairs_x=(4, 1, 2, 7))))
    with pytest.raises(ConstructionError):
        construct(ConstructionInput(
            e16, 4, 1, pair_selection=PairSelection("pairs_x", pairs_x=(5, 1, 2))))


def test_torsion_selection_size_mismatch(e25):
    with pytest.raises(ConstructionError):
        construct(ConstructionInput(
            e25, 6, 2, pair_selection=PairSelection("torsion", r=3)))


def test_torsion_choice_validation(e25):
    with pytest.raises(ConstructionError):
        construct(ConstructionInput(e25, 4, 2, torsion_choice=(1, 1)))
    with pytest.raises(ConstructionError):
        construct(ConstructionInput(e25, 4, 2, torsion_choice=(0, 2)))


def test_construction_1_rejects_a_torsion_choice(e16):
    with pytest.raises(ConstructionError, match="takes no torsion choice"):
        construct(ConstructionInput(e16, 4, 1, torsion_choice=(1, 2)))


def test_supply_check_counts_points(e16, e25):
    # #E = 22 over GF(16): ten odd-order points, k pairs for construction 1;
    # #E = 36 over GF(25): eight, k/2 pairs for construction 2
    with pytest.raises(ConstructionError, match="12 odd-order points needed, "
                                                "the supply is 10"):
        construct(ConstructionInput(e16, 6, 1))
    with pytest.raises(ConstructionError, match="10 odd-order points needed, "
                                                "the supply is 8"):
        construct(ConstructionInput(e25, 10, 2))


def test_construct_and_verify_share_one_derivation(monkeypatch, e25):
    calls = []
    derive = isodual._derive_points

    def spy(*args):
        calls.append(args[2:4])
        return derive(*args)

    monkeypatch.setattr(isodual, "_derive_points", spy)
    cert = construct(ConstructionInput(e25, 4, 2))
    assert calls == [(2, None)]     # construct and its invariant share one
    assert verify_certificate(cert) == []
    assert calls[1:] == [(2, None)]


def test_torsion_choice_changes_g(e25):
    c12 = construct(ConstructionInput(e25, 4, 2, torsion_choice=(1, 2)))
    c23 = construct(ConstructionInput(e25, 4, 2, torsion_choice=(2, 3)))
    assert c12.g_divisor != c23.g_divisor
    assert verify_certificate(c23) == []


def test_certificate_round_trip_bit_exact(cert16, cert25):
    for cert in (cert16, cert25):
        text = cert.to_json()
        again = IsoDualCertificate.from_json(text)
        assert again == cert
        assert again.to_json() == text


@pytest.mark.parametrize("coeffs, order", [("0,0,0,36,0", 50440), ("0,1,0,2,0", 50764)])
def test_gf37_cubed_round_trip(coeffs, order):
    # k = 4 over GF(37^3), whose adds take `_split_add`'s second split:
    # construct, write, read back and verify, with no add table built
    spec = FieldSpec(37, 3, [2, 0, 0, 1])
    curve = Curve.from_string(spec, coeffs)
    assert curve.order() == order
    text = construct(ConstructionInput(curve, 4, 2)).to_json()
    cert = IsoDualCertificate.from_json(text)
    assert cert.to_json() == text and verify_certificate(cert) == []
    assert spec._addt is None and cert.curve().spec._addt is None


def test_certificate_determinism(e16, cert16):
    rebuilt = construct(ConstructionInput(
        e16, 4, 1, pair_selection=PairSelection("pairs_x", pairs_x=(5, 1, 2, 7))))
    assert rebuilt.to_json() == cert16.to_json()


def test_schema_rejects_zero_scaling(cert16):
    doc = cert16.to_json().replace('"scaling_v":[3,3,5,5,4,4,2,2]',
                                   '"scaling_v":[3,3,5,5,4,4,2,0]')
    assert doc != cert16.to_json()
    with pytest.raises(CertificateSchemaError):
        IsoDualCertificate.from_json(doc)


def test_schema_rejects_unknown_version(cert16):
    doc = cert16.to_json().replace("isodual-certificate/1", "isodual-certificate/9")
    with pytest.raises(CertificateSchemaError):
        IsoDualCertificate.from_json(doc)


def test_schema_rejects_garbage():
    with pytest.raises(CertificateSchemaError):
        IsoDualCertificate.from_json("{not json")
    with pytest.raises(CertificateSchemaError):
        IsoDualCertificate.from_json('{"schema":"ellcode.isodual-certificate/1"}')


@pytest.mark.parametrize("key, value", [("extra", [1, 2, 3]), ("", None),
                                        ("Schema", "ellcode.isodual-certificate/1")])
def test_schema_refuses_unknown_keys(key, value):
    # a file that loads re-serialises to its own bytes, so it names no key
    # that `to_json` does not write
    text = _golden_text(16)
    assert IsoDualCertificate.from_json(text).to_json() == text
    doc = json.loads(text)
    doc[key] = value
    with pytest.raises(CertificateSchemaError, match=f"unknown field {key!r}"):
        IsoDualCertificate.from_json(json.dumps(doc))


def _tamper(cert, **overrides):
    import dataclasses
    return dataclasses.replace(cert, **overrides)


def test_verify_detects_matrix_tampering(cert16):
    rows = [list(r) for r in cert16.generator_matrix]
    rows[1][5] = (rows[1][5] + 1) % 16 or 1
    bad = _tamper(cert16, generator_matrix=tuple(tuple(r) for r in rows))
    assert verify_certificate(bad) != []


def test_verify_detects_scaling_tampering(cert16):
    v = list(cert16.scaling_v)
    v[0] = 7
    bad = _tamper(cert16, scaling_v=tuple(v))
    failures = verify_certificate(bad)
    assert "scaling_matches_points" in failures


def test_verify_detects_wrong_hull(cert16):
    bad = _tamper(cert16, hull_dim=3)
    assert "hull" in verify_certificate(bad)


def test_selfdual_transform_reproduces_printed_u(cert16):
    u, scaled = selfdual_transform(cert16)
    assert list(u.entries) == [4, 4, 3, 3, 2, 2, 5, 5]
    assert scaled.hull_dim() == 4


def test_selfdual_transform_rejects_odd_characteristic(cert25):
    with pytest.raises(ConstructionError):
        selfdual_transform(cert25)


def test_lcd_transform_trivial_when_already_lcd(cert16):
    result = lcd_transform(cert16)
    assert result is not None
    u_hat, code = result
    assert list(u_hat.entries) == [1] * 8
    assert code.hull_dim() == 0


def _scaled_source(monkeypatch, cert, scaled, hull):
    """`cert` recording the scaled code `scaled`, with the v that code
    carries and `hull`.  Its matrix is not the closed form of its points,
    so `IsoDualCertificate.code` refuses it, and so do the transforms; with
    `code` patched to give `scaled`, the LCD ladder runs on it."""
    source = _tamper(cert, generator_matrix=scaled.matrix,
                     scaling_v=scaled._dual_v, hull_dim=hull)
    with pytest.raises(VerificationError, match="matrix_rref"):
        lcd_transform(source)
    monkeypatch.setattr(IsoDualCertificate, "code", lambda self, curve=None: scaled)
    return source


def test_lcd_transform_search_from_selfdual(monkeypatch, cert16, e16, f16):
    # start from the hull-4 scaled code and search back down to hull 0;
    # u.C with u^2 = v is self-dual, so it carries v u^-2 = 1
    u, scaled = selfdual_transform(cert16)
    assert scaled._dual_v == (1,) * 8
    source = _scaled_source(monkeypatch, cert16, scaled, 4)
    result = lcd_transform(source, budget=4000)
    assert result is not None
    u_hat, code = result
    assert code.hull_dim() == 0
    non_one = [e for e in u_hat.entries if e != 1]
    assert non_one and all(f16.mul_enc(e, e) != 1 for e in non_one)


def test_lcd_transform_budget_exhaustion(monkeypatch, cert16, e16, f16):
    # a hull-1 scaling whose LCD search succeeds on its second candidate;
    # w.C carries v w^-2
    w = ScalingVector(f16, [1, 12, 5, 6, 12, 3, 5, 13])
    scaled = cert16.code().scale(w)
    assert scaled.hull_dim() == 1
    assert scaled._dual_v == tuple(f16.mul_enc(e, f16.inv_enc(f16.mul_enc(c, c)))
                                   for e, c in zip(cert16.scaling_v, w.entries))
    source = _scaled_source(monkeypatch, cert16, scaled, 1)
    assert lcd_transform(source, budget=1) is None
    assert lcd_transform(source, budget=2) is not None


@pytest.mark.parametrize("budget", [0, -3])
def test_lcd_transform_refuses_budget_below_one(cert16, budget):
    # refused before the hull-0 shortcut, so an LCD certificate is no exception
    assert cert16.hull_dim == 0
    with pytest.raises(ValueError, match="at least 1"):
        lcd_transform(cert16, budget=budget)


def test_scaling_samplers_deterministic(cert25, e25):
    code = cert25.code()
    h1 = sample_scaling_hulls(code, trials=60, seed=4)
    h2 = sample_scaling_hulls(code, trials=60, seed=4)
    assert h1 == h2
    assert set(h1) <= {0, 1, 2}


def test_find_scaling_with_hull_two(cert25, e25):
    code = cert25.code()
    u = find_scaling_with_hull(code, 2, trials=3000, seed=0, block=2)
    assert u is not None
    assert code.scale(u).hull_dim() == 2


def test_smallest_construction_n4(e16):
    cert = construct(ConstructionInput(e16, 2, 1))
    assert (cert.n, cert.k, cert.min_distance) == (4, 2, 3)
    assert verify_certificate(cert) == []


def test_invariant_names_unique_and_in_table_order():
    names = [name for name, _ in INVARIANTS]
    assert names == ["construction_matches_field", "iso_dual_claimed",
                     "pair_selection_well_formed", "n_equals_2k", "points_on_curve", "points_distinct",
                     "x_pairs", "y_nonzero", "points_off_qa_x", "g_shape",
                     "points_disjoint_from_G", "matrix_rref",
                     "iso_dual_identity", "scaling_matches_points",
                     "points_match_input", "mds_witness",
                     "hull", "length_bound", "min_distance"]
    assert len(set(names)) == len(names)


def _inv16(e):
    return FieldSpec.from_string("p=2,m=4,mod=1,1,0,0,1").inv_enc(e)


def _swap(seq, i, j):
    out = list(seq)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def _replace_at(seq, i, value):
    out = list(seq)
    out[i] = value
    return tuple(out)


# Every invariant a single tampered field can make fail first, and
# points_match_input, which takes two points swapped together with their G
# columns and v entries: the code and its identity hold, the canonical
# order does not.  The others cannot: a point with y = 0, at x(Qa) or in
# supp(G) is alone on its x, so x_pairs fails before y_nonzero,
# points_off_qa_x or points_disjoint_from_G; iso_dual_identity holds for
# the G and v derived from any k pairs {P, -P} off x(Qa), and length_bound
# for every point set that passes the invariants before it.
TAMPERS = [
    ("construction_matches_field", "cert16", lambda c: {"construction": 2}),
    ("construction_matches_field", "cert25", lambda c: {"construction": 1}),
    ("construction_matches_field", "cert25", lambda c: {"construction": 0}),
    ("iso_dual_claimed", "cert16", lambda c: {"iso_dual": False}),
    ("pair_selection_well_formed", "cert16", lambda c: {"pair_selection": True}),
    ("pair_selection_well_formed", "cert16",
     lambda c: {"pair_selection": {**c.pair_selection, "extra": 1}}),
    ("pair_selection_well_formed", "cert16",
     lambda c: {"pair_selection": {**c.pair_selection, "mode": "bogus"}}),
    ("pair_selection_well_formed", "cert25",
     lambda c: {"pair_selection": {**c.pair_selection, "r": 4}}),
    ("pair_selection_well_formed", "cert25",
     lambda c: {"pair_selection": {**c.pair_selection, "r": "3"}}),
    ("pair_selection_well_formed", "cert16",
     lambda c: {"pair_selection": {**c.pair_selection, "pairs_x": []}}),
    ("pair_selection_well_formed", "cert16",
     lambda c: {"pair_selection": {**c.pair_selection, "pairs_x": [5, 1.0, 2, 7]}}),
    ("n_equals_2k", "cert16", lambda c: {"n": 10}),
    ("points_on_curve", "cert16", lambda c: {"points": _replace_at(c.points, 1, (1, 2))}),
    ("points_distinct", "cert16", lambda c: {"points": _replace_at(c.points, 1, c.points[0])}),
    ("x_pairs", "cert16", lambda c: {"points": _replace_at(c.points, 7, (3, 12))}),
    ("g_shape", "cert16", lambda c: {"g_divisor": ((None, 2), c.g_divisor[1])}),
    ("g_shape", "cert25", lambda c: {"g_divisor": (c.g_divisor[0],)}),
    ("matrix_rref", "cert16", lambda c: {"generator_matrix": _swap(c.generator_matrix, 0, 1)}),
    ("scaling_matches_points", "cert16", lambda c: {"scaling_v": _replace_at(c.scaling_v, 0, 7)}),
    ("scaling_matches_points", "cert25", lambda c: {"scaling_v": _replace_at(c.scaling_v, 0, 7)}),
    ("points_match_input", "cert16", lambda c: {
        "points": _swap(c.points, 5, 7), "scaling_v": _swap(c.scaling_v, 5, 7),
        "generator_matrix": tuple(_swap(r, 5, 7) for r in c.generator_matrix)}),
    ("mds_witness", "cert16", lambda c: {"mds_subset_count": 1}),
    ("hull", "cert25", lambda c: {"hull_dim": 1}),
    ("min_distance", "cert16", lambda c: {"min_distance": 6}),
    ("min_distance", "cert16", lambda c: {"min_distance_method": "dp"}),
    ("min_distance", "cert25", lambda c: {"min_distance_method": "exhaustive"}),
]


@pytest.mark.parametrize("name, fixture, overrides", TAMPERS,
                         ids=[f"{n}-{f}" for n, f, _ in TAMPERS])
def test_tampered_certificate_fails_that_invariant_first(request, name, fixture,
                                                         overrides):
    cert = request.getfixturevalue(fixture)
    failures = verify_certificate(_tamper(cert, **overrides(cert)))
    assert failures[:1] == [name]


GOLDENS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "goldens")


def test_golden_certificates_verify_without_a_nullspace(monkeypatch):
    # iso_dual_identity proves C.v = C-perp, and the hull cross-check reads
    # that as the dual, so no kernel is computed
    def no_nullspace(*args):
        raise AssertionError("verify computed a nullspace")

    monkeypatch.setattr(linalg, "nullspace", no_nullspace)
    names = sorted(f for f in os.listdir(GOLDENS) if f.startswith("q"))
    assert len(names) == 9
    for name in names:
        with open(os.path.join(GOLDENS, name)) as fh:
            cert = IsoDualCertificate.from_json(fh.read())
        assert verify_certificate(cert) == [], name


def test_construct_and_verify_at_q289_take_no_rref_and_no_scale(monkeypatch):
    # the closed form gives R's factors and the carried v those of R', so
    # neither op takes R's RREF or builds C.v; the w = 1 cross-check still
    # ranks M from generators, once per op, against the Hankel rank
    cert = _golden_cert(289)
    sel = cert.pair_selection
    inp = ConstructionInput(cert.curve(), cert.k, cert.construction,
                            torsion_choice=cert.torsion_choice,
                            pair_selection=PairSelection(sel["mode"], sel["r"]))

    def refused(name):
        def call(*args, **kwargs):
            raise AssertionError(f"the op called {name}")
        return call

    ranks, real = [], linalg.cauchy_like_rank
    monkeypatch.setattr(linalg, "rref", refused("linalg.rref"))
    monkeypatch.setattr(LinearCode, "scale", refused("LinearCode.scale"))
    monkeypatch.setattr(linalg, "cauchy_like_rank",
                        lambda *args: ranks.append(args[0]) or real(*args))
    assert construct(inp).to_json() == cert.to_json()
    assert verify_certificate(cert) == [] and len(ranks) == 2


# a v that is right up to order, or right but for one entry's inverse: v is
# compared as written with the v the points give.  Kept out of TAMPERS,
# where a repeated id would rename the cases already there.
SCALING_TAMPERS = {
    "swapped-cert25": ("cert25", lambda v: _swap(v, 0, 2)),
    "one-inverted-cert16": ("cert16", lambda v: _replace_at(v, 3, _inv16(v[3]))),
}


@pytest.mark.parametrize("fixture, tamper", SCALING_TAMPERS.values(),
                         ids=SCALING_TAMPERS.keys())
def test_tampered_scaling_reports_scaling_matches_points_first(request, fixture,
                                                               tamper):
    cert = request.getfixturevalue(fixture)
    bad = _tamper(cert, scaling_v=tamper(cert.scaling_v))
    assert verify_certificate(bad)[:1] == ["scaling_matches_points"]


# two points swapped: G and v follow the points, so the file's matrix no
# longer is their RREF.  Kept out of TAMPERS for the same reason.
POINT_TAMPERS = {
    "swapped-cert16": "cert16",
    "swapped-cert25": "cert25",
}


@pytest.mark.parametrize("fixture", POINT_TAMPERS.values(),
                         ids=POINT_TAMPERS.keys())
def test_swapped_points_report_matrix_rref_first(request, fixture):
    cert = request.getfixturevalue(fixture)
    bad = _tamper(cert, points=_swap(cert.points, 0, 2))
    assert verify_certificate(bad)[:1] == ["matrix_rref"]


def test_construct_names_the_failed_invariant(monkeypatch, e16):
    monkeypatch.setattr(isodual, "mds_subset_check", lambda *args: 1)
    with pytest.raises(VerificationError, match="mds_witness"):
        construct(ConstructionInput(e16, 2, 1))


def _golden_text(q):
    with open(os.path.join(GOLDENS, f"q{q}.json")) as fh:
        return fh.read()


def _golden_cert(q):
    return IsoDualCertificate.from_json(_golden_text(q))


def _construct_echo(cert):
    """What `construct` writes for the certificate's input echo."""
    sel = cert.pair_selection
    pairs_x = sel["pairs_x"] and tuple(sel["pairs_x"])
    return construct(ConstructionInput(
        cert.curve(), cert.k, cert.construction, cert.torsion_choice,
        PairSelection(sel["mode"], sel["r"], pairs_x)))


def test_goldens_rebuild_byte_identical_from_their_echoes():
    names = sorted(f for f in os.listdir(GOLDENS) if f.startswith("q"))
    assert len(names) == 9
    for name in names:
        with open(os.path.join(GOLDENS, name)) as fh:
            text = fh.read()
        cert = IsoDualCertificate.from_json(text)
        assert _construct_echo(cert).to_json() == text, name
        assert verify_certificate(cert) == [], name


def test_golden_ops_walk_only_the_torsion_they_read(monkeypatch):
    # construct and verify read E[2], E[r] and the translates of its pairs:
    # neither runs the full walk, and every dlog they entered, the MDS
    # witness's among them, is the full table's
    def no_full_walk(curve):
        raise AssertionError("the full walk ran")

    contexts, real = [], isodual._file_context
    monkeypatch.setattr(isodual, "_file_context",
                        lambda c: contexts.append(real(c)) or contexts[-1])
    certs = [_golden_cert(q) for q in (16, 25, 32, 49, 64, 256, 289, 729, 1031)]
    with monkeypatch.context() as patch:
        patch.setattr(Curve, "group_structure", no_full_walk)
        for cert in certs:
            assert _construct_echo(cert).to_json() == cert.to_json()
            assert verify_certificate(cert) == [], cert.field_spec
    for cert, ctx in zip(certs, contexts, strict=True):
        dlog, full = ctx.curve._structure.dlog, cert.curve().group_structure().dlog
        assert {*cert.points, ctx.qa} <= dlog.keys()
        assert all(full[pt] == ij for pt, ij in dlog.items())


def _law_adds(curve):
    """The field add and subtract that the curve's group law bound."""
    law = curve._law.add
    cells = dict(zip(law.__code__.co_freevars, law.__closure__))
    return cells["fadd"].cell_contents, cells["fsub"].cell_contents


def test_q729_golden_ops_build_no_add_table(monkeypatch):
    # k = 4 over GF(729), where q > 16 k: construct, verify and the kept
    # code add by the split over two GF(27) tables, and no op builds the
    # 729 x 729 one
    def small_only(p, m):
        assert p ** m < 729, "the 729 x 729 add table was built"
        return real(p, m)

    real = gf._addition_table
    monkeypatch.setattr(gf, "_addition_table", small_only)
    cert = _golden_cert(729)
    assert _construct_echo(cert).to_json() == _golden_text(729)
    assert verify_certificate(cert) == [] and cert.code().spec._addt is None


def test_q289_golden_ops_build_the_add_table_once_before_the_group_law(monkeypatch):
    # k = 80 over GF(289): each op asks for its field's table once, before
    # its curve binds the group law, so the group structure adds on it
    built, real_table = [], gf._addition_table

    def counted(p, m):
        built.append(p ** m)
        return real_table(p, m)

    monkeypatch.setattr(gf, "_addition_table", counted)
    cert = _golden_cert(289)
    curve = cert.curve()
    sel = cert.pair_selection
    made = construct(ConstructionInput(curve, cert.k, cert.construction,
                                       cert.torsion_choice,
                                       PairSelection(sel["mode"], sel["r"], None)))
    assert made.to_json() == _golden_text(289) and built.count(289) == 1
    contexts, real = [], isodual._file_context
    monkeypatch.setattr(isodual, "_file_context",
                        lambda c: contexts.append(real(c)) or contexts[-1])
    assert verify_certificate(cert) == [] and built.count(289) == 2
    for c in (curve, contexts[0].curve):
        spec, (fadd, fsub) = c.spec, _law_adds(c)
        assert spec._addt is not None and (fadd, fsub) == (spec.add_enc, spec.sub_enc)
        assert fadd.__qualname__ == "FieldSpec.add_table.<locals>.<lambda>"
        # the op's walks of E[2] and E[9] and its translates, not the full walk
        dlog = c._structure.dlog
        assert set(made.points) < dlog.keys() and len(dlog) < c.order()


@pytest.mark.parametrize("k, table", [(8, False), (10, True)])
def test_prime_fields_ask_for_the_add_table_from_q_at_most_12_k(k, table):
    # 12 k < 101 <= 16 k at k = 8: an extension field that size would take
    # the table, while adds mod p cost less than the split
    curve = Curve.from_string(FieldSpec.from_string("p=101,m=1,mod=0,1"), "0,0,0,1,0")
    construct(ConstructionInput(curve, k, 2))
    assert (curve.spec._addt is not None) is table


@pytest.fixture(scope="module")
def q625_hull1_text():
    # k = 36 over GF(625), hull 1: q > 16 k, so construct and verify build
    # no add table, while the generator route (k >= 22) needs one
    curve = Curve.from_string(FieldSpec.from_string("p=5,m=4,mod=2,0,0,0,1"), "0,0,0,10,1")
    cert = construct(ConstructionInput(curve, 36, 2))
    assert cert.hull_dim == 1 and curve.spec._addt is None
    return cert.to_json()


@pytest.mark.parametrize("op", [lambda cert: lcd_transform(cert)[1].hull_dim(),
                                lambda cert: sample_scaling_hulls(cert.code(), 3, seed=1)],
                         ids=["lcd", "sample"])
def test_transforms_ask_for_the_add_table_and_rank_on_generators(monkeypatch,
                                                                q625_hull1_text, op):
    # verify ranks its one hull densely on split adds and keeps no answer
    # on the generator route, which the transform's table then opens
    cert = IsoDualCertificate.from_json(q625_hull1_text)
    assert verify_certificate(cert) == [] and cert.code().spec._addt is None
    ranks, real = [], linalg.cauchy_like_rank
    monkeypatch.setattr(linalg, "cauchy_like_rank",
                        lambda *args: ranks.append(args[0]) or real(*args))
    op(cert)
    kept = cert.code()
    assert kept.spec._addt is not None and kept._displacement_factors() is not None
    assert ranks


def test_construct_and_verify_need_no_interpolation_polynomial(monkeypatch):
    # G and v come from encodings alone: the closed forms read the basis
    # handle, h'(alpha) is a product of differences, and no FieldElement
    # polynomial is built or evaluated; q = 16 and q = 289 cover both forms
    # of u
    def banned(*args):
        raise AssertionError("a FieldElement polynomial was used")

    for module, name in ((funcspace, "evaluate"), (funcspace, "interpolation_poly"),
                         (gf, "poly_eval"), (gf, "poly_mul")):
        monkeypatch.setattr(module, name, banned)
    for q in (16, 289):
        cert = _golden_cert(q)
        assert _construct_echo(cert) == cert
        assert verify_certificate(cert) == []


def test_constant_v_gives_a_self_dual_code_that_constructs():
    # four x's on an affine F_2-plane (x1 + x2 + x3 + x4 = 0) make h'
    # constant, so v is constant and C = C.v = C-perp: hull = k
    found = 0
    for field in ("p=2,m=3,mod=1,1,0,1", "p=2,m=4,mod=1,1,0,0,1",
                  "p=2,m=5,mod=1,0,1,0,0,1"):
        spec = FieldSpec.from_string(field)
        for a2 in range(spec.q):
            for a6 in range(1, spec.q):
                curve = Curve(spec, 1, a2, 0, 0, a6)
                try:
                    _, points = isodual._derive_points(curve, 4, 1, None,
                                                       PairSelection())
                except ConstructionError:
                    continue
                if reduce(xor, {x for x, _ in points}):
                    continue
                cert = construct(ConstructionInput(curve, 4, 1))
                assert cert.hull_dim == 4 and len(set(cert.scaling_v)) == 1
                assert verify_certificate(cert) == []
                found += 1
    assert found == 56


def _moment_fields(cert):
    """The basis handle and points whose moments give a context's Gram."""
    return {"basis": funcspace.rr_basis(cert.curve(), cert.k, cert.g_divisor[1][0]),
            "points": cert.points}


def _three_duals(cert):
    """The code of `cert` three times: with its dual proved to be C.v by
    iso_dual_identity, with the dual from a nullspace, and as
    `IsoDualCertificate.code` gives it."""
    spec = cert.spec()
    proved = _verify_context(cert).code
    ctx = SimpleNamespace(code=proved, spec=spec, scaling_v=cert.scaling_v,
                          **_moment_fields(cert))
    assert isodual._iso_dual_identity(ctx) and proved._dual_v == tuple(cert.scaling_v)
    kernel = LinearCode(spec, cert.generator_matrix)
    kernel.dual()
    assert kernel.dual().matrix == proved.dual().matrix
    return proved, kernel, cert.code()


@pytest.mark.parametrize("fixture", ["cert16", "cert25"])
def test_iso_dual_identity_rejects_a_wrong_scaling(request, fixture):
    # no TAMPERS edit reaches it, since it reads the v the points give
    cert = request.getfixturevalue(fixture)
    spec, code = cert.spec(), _verify_context(cert).code
    v = _replace_at(cert.scaling_v, 0, 7)
    assert v != cert.scaling_v
    ctx = SimpleNamespace(code=code, spec=spec, scaling_v=v, **_moment_fields(cert))
    assert not isodual._iso_dual_identity(ctx) and code._dual is code._dual_v is None


@pytest.mark.parametrize("q", [16, 25, 32, 49, 64, 256, 289, 729, 1031])
def test_certificate_code_is_the_closed_form_carrying_v(monkeypatch, q):
    # the verifier's code: the file's matrix, from the closed form, with v
    # carried from the point moments, and no nullspace, Gram or RREF taken
    cert = _golden_cert(q)
    for name in ("nullspace", "gram", "rref"):
        monkeypatch.setattr(linalg, name, lambda *args, name=name, **kw:
                            pytest.fail(f"cert.code() called linalg.{name}"))
    c = cert.code()
    assert (c.matrix, c.k, c.n) == (cert.generator_matrix, cert.k, cert.n)
    assert c._dual_v == cert.scaling_v and c._dual is None
    assert c.nodes == tuple(x for x, _ in cert.points) and c._r_factors is not None


@pytest.mark.parametrize("fixture", ["cert16", "cert25"])
@pytest.mark.parametrize("edit, failure", [("scaled matrix", "matrix_rref"),
                                           ("changed v", "scaling_matches_points"),
                                           ("scaled matrix and its v", "matrix_rref")])
def test_certificate_code_and_transforms_refuse_a_code_the_points_do_not_give(
        request, fixture, edit, failure):
    cert = request.getfixturevalue(fixture)
    spec = cert.spec()
    w = [spec.mul_enc(2, e) if i % 3 else e for i, e in enumerate(cert.scaling_v)]
    scaled = cert.code().scale(w)
    bad = _tamper(cert, **{
        "scaled matrix": {"generator_matrix": scaled.matrix},
        "changed v": {"scaling_v": _replace_at(cert.scaling_v, 0, 7)},
        "scaled matrix and its v": {"generator_matrix": scaled.matrix,
                                    "scaling_v": scaled._dual_v}}[edit])
    assert bad != cert and failure in verify_certificate(bad)
    calls = {"code": bad.code, "lcd": lambda: lcd_transform(bad)}
    if spec.p == 2:
        calls["selfdual"] = lambda: selfdual_transform(bad)
    for name, call in calls.items():
        with pytest.raises(VerificationError, match=f"invariant {failure} failed"):
            call()


def test_certificate_code_refuses_what_verify_cannot_evaluate(cert25):
    # a point coordinate outside [0, q) is a schema error before any table
    # is read, as in verify
    bad = _tamper(cert25, points=((25, 1), *cert25.points[1:]))
    for call in (lambda: verify_certificate(bad), bad.code, lambda: lcd_transform(bad)):
        with pytest.raises(CertificateSchemaError, match="field encodings only"):
            call()


@pytest.mark.parametrize("edit, gate", [("g names no affine point", "g_shape"),
                                        ("one point short", "n_equals_2k")])
def test_certificate_code_runs_the_gates_first(edit, gate):
    # the closed form reads G's affine point and 2k points, so a file the
    # gates refuse is a VerificationError naming the gate, as verify reports
    wire = json.loads(_golden_text(25))
    wire.update({"g names no affine point": {"g_divisor": [[None, wire["k"]]]},
                 "one point short": {"points": wire["points"][:-1]}}[edit])
    bad = IsoDualCertificate.from_json(json.dumps(wire))
    assert verify_certificate(bad) == [gate]
    with pytest.raises(VerificationError, match=f"invariant {gate} failed"):
        bad.code()


def _counted(monkeypatch, module, name):
    """Record each call of `module.name`, which still runs."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("q", [16, 289])
def test_verified_certificate_keeps_its_code(monkeypatch, q):
    # a verify with no failure keeps the code it proved: code() builds no
    # closed form and no moments, and returns that one object each time
    cert = _golden_cert(q)
    assert verify_certificate(cert) == []
    rows = _counted(monkeypatch, funcspace, "systematic_rows")
    moments = _counted(monkeypatch, funcspace, "point_moments")
    c = cert.code()
    assert c is cert.code() is cert.code()
    assert rows == moments == []
    assert (c.matrix, c._dual_v) == (cert.generator_matrix, cert.scaling_v)
    # the kept code is no part of equality, repr or the wire
    fresh = IsoDualCertificate.from_json(cert.to_json())
    assert fresh == cert and repr(fresh) == repr(cert)
    assert cert.to_json() == _golden_text(q)


def test_code_proves_once_and_keeps_its_code(monkeypatch):
    # with no verify, the first code() proves the code invariants; later
    # calls return the same code
    cert = _golden_cert(25)
    rows = _counted(monkeypatch, funcspace, "systematic_rows")
    assert cert.code() is cert.code() and len(rows) == 1


def test_a_replaced_copy_does_not_inherit_the_kept_code():
    # dataclasses.replace builds a new certificate, which keeps nothing:
    # its own code() proves the scaled matrix wrong
    cert = _golden_cert(25)
    assert verify_certificate(cert) == []
    spec = cert.spec()
    w = [spec.mul_enc(2, e) if i % 3 else e for i, e in enumerate(cert.scaling_v)]
    bad = dataclasses.replace(cert, generator_matrix=cert.code().scale(w).matrix)
    with pytest.raises(VerificationError, match="invariant matrix_rref failed"):
        bad.code()
    assert cert.code().matrix == cert.generator_matrix


@pytest.mark.parametrize("failure", ["scaling_matches_points", "hull"])
def test_a_failed_verify_keeps_no_code(monkeypatch, failure):
    # the context of a failed verify holds a code here; the certificate
    # keeps none of it, so code() proves the code invariants afresh: v[0]
    # changed fails one of them, a wrong hull_dim none
    wire = json.loads(_golden_text(25))
    if failure == "hull":
        wire["hull_dim"] = 5
    else:
        wire["scaling_v"][0] = 7
    cert = IsoDualCertificate.from_json(json.dumps(wire))
    assert verify_certificate(cert) == [failure]
    rows = _counted(monkeypatch, funcspace, "systematic_rows")
    if failure == "hull":
        assert cert.code().matrix == cert.generator_matrix
    else:
        with pytest.raises(VerificationError, match=f"invariant {failure} failed"):
            cert.code()
    assert len(rows) == 1


@pytest.mark.parametrize("by", ["verify", "code"])
def test_a_kept_code_makes_no_reference_cycle(by):
    # the certificate keeps the code, never the context, whose `cert` refers
    # back to it: with the collector off, dropping the certificate frees it
    gc.disable()
    try:
        cert = _golden_cert(729)
        if by == "verify":
            assert verify_certificate(cert) == []
        else:
            cert.code()
        assert cert.code() is not None
        assert not any(isinstance(v, isodual._Context) for v in vars(cert).values())
        dropped = weakref.ref(cert)
        del cert
        assert dropped() is None
    finally:
        gc.enable()


SCHEMA_EDITS = {
    "q16-field-respelled": (16, {"field": "p=2,m=4,mod=3,1,0,0,1"}),
    "q16-curve-singular": (16, {"curve": "0,0,0,0,0"}),
    "q25-field-respelled": (25, {"field": "p=5,m=2,mod=7,4,1"}),
    "q25-curve-singular": (25, {"curve": "0,0,0,0,0"}),
}


@pytest.mark.parametrize("q, edit", SCHEMA_EDITS.values(), ids=SCHEMA_EDITS.keys())
def test_every_entry_refuses_what_verify_refuses_as_a_schema_error(q, edit):
    # the field and curve are built and their spelling checked in one place,
    # `_file_context`, which the verifier, code() and the transforms share
    wire = json.loads(_golden_text(q))
    wire.update(edit)
    text = json.dumps(wire)
    calls = [verify_certificate, IsoDualCertificate.code, lcd_transform]
    if q == 16:
        calls.append(selfdual_transform)
    for call in calls:
        with pytest.raises(CertificateSchemaError):
            call(IsoDualCertificate.from_json(text))


def _point_at(i, point):
    def edit(wire):
        wire["points"][i] = point
    return edit


def _cut_to_k(k):
    def edit(wire):
        n = 2 * k
        wire.update(k=k, n=n, points=wire["points"][:n], scaling_v=wire["scaling_v"][:n],
                    generator_matrix=[row[:n] for row in wire["generator_matrix"][:k]])
        wire["g_divisor"][0][1] = k - 1
    return edit


# files the closed form cannot evaluate: a point at x(Qa), the pole of u,
# or on Qa itself; a curve of the wrong characteristic-2 shape; an odd k.
# Verify's outcome: its failures, or None for a schema error
UNEVALUABLE_EDITS = {
    "q25-point-0-at-qa-x": (25, _point_at(0, [4, 1]),
                            ["points_on_curve", "x_pairs", "points_off_qa_x"]),
    "q16-point-1-on-qa": (16, _point_at(1, [0, 11]),
                          ["x_pairs", "points_off_qa_x", "points_disjoint_from_G"]),
    "q16-point-0-at-qa-x": (16, _point_at(0, [0, 3]),
                            ["points_on_curve", "x_pairs", "points_off_qa_x"]),
    "q289-point-5-at-qa-x": (289, _point_at(5, [100, 1]),
                             ["points_on_curve", "x_pairs", "points_off_qa_x"]),
    "q16-curve-odd-shape": (16, lambda wire: wire.update(curve="1,8,0,5,9"),
                            ["points_on_curve"]),
    "q16-cut-to-k3": (16, _cut_to_k(3), None),
}


@pytest.mark.parametrize("q, edit, failures", UNEVALUABLE_EDITS.values(),
                         ids=UNEVALUABLE_EDITS.keys())
def test_every_entry_fails_as_verify_does_where_the_closed_form_cannot_evaluate(
        q, edit, failures):
    # code() runs verify's loop over the table up to scaling_matches_points,
    # so the closed form's FunctionError never escapes: after a failure it
    # ends the run, before one it is a schema error
    wire = json.loads(_golden_text(q))
    edit(wire)
    text = json.dumps(wire)
    calls = [IsoDualCertificate.code, lcd_transform]
    if q == 16:
        calls.append(selfdual_transform)
    if failures is None:
        with pytest.raises(CertificateSchemaError):
            verify_certificate(IsoDualCertificate.from_json(text))
    else:
        assert verify_certificate(IsoDualCertificate.from_json(text)) == failures
    for call in calls:
        if failures is None:
            with pytest.raises(CertificateSchemaError):
                call(IsoDualCertificate.from_json(text))
        else:
            with pytest.raises(VerificationError, match=f"invariant {failures[0]} failed"):
                call(IsoDualCertificate.from_json(text))


def test_selfdual_transform_refuses_odd_characteristic_before_any_table(monkeypatch):
    # p comes from the field string alone, so no field is built
    cert = _golden_cert(289)

    def refuse(*args):
        raise AssertionError("a field was built")
    monkeypatch.setattr(FieldSpec, "__init__", refuse)
    with pytest.raises(ConstructionError, match="odd characteristic"):
        selfdual_transform(cert)


@pytest.mark.parametrize("source, block, trials", [
    ("cert16", 1, 40), ("cert25", 1, 40), ("cert25", 2, 40), (289, 1, 3),
    (49, 1, 30), (49, 2, 30), (289, 1, 6), (289, 2, 4)])
def test_scaled_hull_dim_matches_gram_and_scaled_code(request, source, block,
                                                      trials):
    # hull(u.C) = n - rank([G diag(u^2); H]); the Gram formula is the
    # reference.  The closed-form codes carry v and their factors, so from
    # the crossover on they rank from displacement generators; the kernel's
    # code ranks the 2k-row stack, and a fourth carrying v without the
    # factors ranks the k x k M = A' - W1^-1 A W2.
    cert = (_golden_cert(source) if isinstance(source, int)
            else request.getfixturevalue(source))
    codes = _three_duals(cert)
    code, spec = codes[0], codes[0].spec
    dense = LinearCode(spec, code.matrix, n=code.n)
    dense._carry_dual(cert.scaling_v)
    codes += (dense,)
    k = code.k
    assert (code._displacement_factors() is not None) == (
        spec.p != 2 and k >= code_module._DISPLACEMENT_MIN_K)
    assert dense._displacement_factors() is None and dense._systematic_halves()
    assert codes[1]._systematic_halves() is None

    def reference(w):
        return k - linalg.rank(linalg.gram(code.matrix, spec, w), spec)

    # the trial loop draws one randrange(1, q) per block, in order
    rng = random.Random(block)
    hulls = []
    for u, trial_hull in isodual._scaling_trials(code, trials, block, block):
        assert u == [e for _ in range(code.n // block)
                     for e in [rng.randrange(1, spec.q)] * block]
        w = [spec.mul_enc(x, x) for x in u]
        h = reference(w)
        assert [trial_hull, *(c.stacked_hull_dim(w) for c in codes[1:])] == [h] * 4
        assert h == code.scale(u).hull_dim()
        hulls.append(h)
    if source != 289:
        assert max(hulls) > 0
    # w = lambda v makes the Gram zero, so the hull is k; w equal to v on a
    # prefix of L coordinates and random after it gives hulls in between
    v = cert.scaling_v
    for lam in (1, spec.q - 1, rng.randrange(2, spec.q)):
        w = [spec.mul_enc(lam, x) for x in v]
        assert reference(w) == k
        assert [c.stacked_hull_dim(w) for c in codes] == [k] * 4
    for size in (k // 2, k + 1, k + k // 2, 2 * k - 1):
        w = [*v[:size], *(rng.randrange(1, spec.q) for _ in v[size:])]
        assert [c.stacked_hull_dim(w) for c in codes] == [reference(w)] * 4


def test_sample_scaling_hulls_forms_no_gram(monkeypatch, cert25):
    expected = sample_scaling_hulls(cert25.code(), 30, seed=5, block=2)

    def no_gram(*args, **kwargs):
        raise AssertionError("a hull sample formed a Gram matrix")

    monkeypatch.setattr(linalg, "gram", no_gram)
    assert sample_scaling_hulls(cert25.code(), 30, seed=5, block=2) == expected
    assert max(expected) > 0


@pytest.mark.parametrize("block", [0, -2, 3])
def test_samplers_reject_bad_blocks(cert25, block):
    code = cert25.code()
    # checked before the first draw, so also when there is none
    for trials in (2, 0):
        with pytest.raises(CodeError, match="positive divisor"):
            sample_scaling_hulls(code, trials, block=block)
        with pytest.raises(CodeError, match="positive divisor"):
            find_scaling_with_hull(code, 0, trials=trials, block=block)
    with pytest.raises(ValueError, match="at least 0"):
        sample_scaling_hulls(code, -5)
    with pytest.raises(ValueError, match="at least 0"):
        find_scaling_with_hull(code, 1, trials=-1)


def test_scaled_hull_dim_rejects_wrong_length(cert25):
    code = cert25.code()
    for n in (code.n - 2, code.n + 1, 0):
        with pytest.raises(CodeError, match="length mismatch"):
            code.stacked_hull_dim([1] * n)


def test_samplers_keep_their_draw_order(cert25):
    # the values demos/03_odd_characteristic_construction.py prints
    code = cert25.code()
    assert sample_scaling_hulls(code, 300, seed=0) == {0: 287, 1: 13}
    assert sample_scaling_hulls(code, 300, seed=0, block=2) == {0: 276, 1: 24}
    u = find_scaling_with_hull(code, 2, trials=3000, seed=0, block=2)
    assert u.entries == (14, 14, 14, 14, 14, 14, 12, 12,
                         19, 19, 4, 4, 3, 3, 18, 18)


def _count_scaling_vectors(monkeypatch) -> list:
    """A list that grows by one on each `ScalingVector.__init__` call."""
    calls, init = [], ScalingVector.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)
    monkeypatch.setattr(ScalingVector, "__init__", counted)
    return calls


@pytest.mark.parametrize("q", [25, 289])
def test_construct_and_verify_build_no_scaling_vector(monkeypatch, q):
    cert = _golden_cert(q)
    built = _count_scaling_vectors(monkeypatch)
    assert _construct_echo(cert) == cert
    assert verify_certificate(cert) == []
    assert built == []


def test_samplers_wrap_only_the_scaling_they_return(monkeypatch, cert25):
    code = cert25.code()
    built = _count_scaling_vectors(monkeypatch)
    assert sum(sample_scaling_hulls(code, 30, seed=0, block=2).values()) == 30
    assert len(built) == 0
    u = find_scaling_with_hull(code, 1, trials=300, seed=0)
    assert u is not None and len(built) == 1
    assert find_scaling_with_hull(code, code.k + 1, trials=30, seed=0) is None
    assert len(built) == 1


def _ladder_cert():
    """A [12, 6] code over GF(32) with hull 2, whose LCD ladder accepts its
    22nd candidate; the goldens' ladders accept their first."""
    spec = _golden_cert(32).spec()
    return construct(ConstructionInput(Curve(spec, 1, 1, 0, 0, 15), 6, 1))


@pytest.mark.parametrize("source, hull, u", [
    (64, 2, (2, 2) + (1,) * 34), (16, 0, (1,) * 8),
    ("ladder", 2, (1, 1, 2, 2) + (1,) * 8)])
def test_lcd_transform_wraps_only_the_scaling_it_returns(monkeypatch, source,
                                                         hull, u):
    # hull 0 is the shortcut, with no search
    cert = _golden_cert(source) if isinstance(source, int) else _ladder_cert()
    built = _count_scaling_vectors(monkeypatch)
    got, _ = lcd_transform(cert)
    assert (cert.hull_dim, got.entries, len(built)) == (hull, u, 1)


def _verify_context(cert):
    curve = cert.curve()
    return isodual._Context(curve, cert.construction, cert.k, cert.n,
                            cert.torsion_choice, cert.pair_selection, cert)


@pytest.mark.parametrize("q", [16, 25, 32, 49, 64, 256, 289, 729, 1031])
def test_v_from_log_sums_matches_the_product_formula(q):
    # characteristic 2, the add-table rows of odd q up to the cap, and
    # sub_enc above it (GF(1031))
    ctx = _verify_context(_golden_cert(q))
    assert ctx.scaling_v == ctx.cert.scaling_v == \
        scaling_v_product(ctx.spec, ctx.points, ctx.qa)


@pytest.mark.parametrize("q", [16, 25, 32, 49, 64, 256, 289, 729, 1031])
def test_library_rows_skip_the_entry_checks_and_give_the_checked_code(monkeypatch, q):
    # the closed form [I | A] and scale's rows build their codes without
    # `LinearCode.__init__`; that constructor, checking the same rows (and
    # reducing G diag(v)), gives the same code
    ctx, checked_init = _verify_context(_golden_cert(q)), LinearCode.__init__

    def no_checks(*args, **kwargs):
        raise AssertionError("the library's own rows were checked")
    monkeypatch.setattr(LinearCode, "__init__", no_checks)
    made, scaled = ctx.code, ctx.code.scale(ctx.scaling_v)
    monkeypatch.setattr(LinearCode, "__init__", checked_init)
    spec, nodes = ctx.spec, tuple(x for x, _ in ctx.points)
    checked = LinearCode(spec, funcspace.systematic_rows(ctx.basis, ctx.points)[0],
                         n=ctx.n)
    checked_scaled = LinearCode(
        spec, linalg.scale_columns(checked.matrix, ctx.scaling_v, spec), n=ctx.n)
    for got, want in ((made, checked), (scaled, checked_scaled)):
        assert (got.matrix, got.nodes, got.k, got.n) == \
            (want.matrix, nodes, want.k, want.n)
    assert made.matrix == ctx.cert.generator_matrix


@pytest.mark.parametrize("point", ["y = 0", "x = beta"])
def test_v_is_none_where_a_point_leaves_it_undefined(cert25, point):
    # v_i = (x_i - beta)/(h'(x_i) y_i) is undefined at y = 0 and zero at
    # x = beta; only a file failing an earlier invariant holds such a point
    ctx = _verify_context(cert25)
    beta = ctx.qa[0]
    x, _ = next(p for p in cert25.points if p[0] != beta)
    bad = (x, 0) if point == "y = 0" else (beta, 3)
    ctx = _verify_context(_tamper(cert25, points=(bad, *cert25.points[1:])))
    assert ctx.scaling_v is None
    assert scaling_v_product(ctx.spec, ctx.points, ctx.qa) is None


@pytest.mark.parametrize("q", [64, 256])
def test_transforms_take_the_dual_from_v(monkeypatch, q):
    # G diag(v) G^T = 0 on the file's matrix makes C.v the dual: no
    # nullspace, and the outputs are the benchmark's goldens
    with open(os.path.join(GOLDENS, "manifest.json")) as fh:
        golden = json.load(fh)["transforms"][str(q)]
    cert = _golden_cert(q)

    def no_nullspace(*args):
        raise AssertionError("a transform computed a nullspace")

    monkeypatch.setattr(linalg, "nullspace", no_nullspace)
    for name, transform in (("selfdual", selfdual_transform), ("lcd", lcd_transform)):
        u, scaled = transform(cert)
        rows = json.dumps([list(r) for r in scaled.matrix], separators=(",", ":"))
        assert list(u.entries) == golden[name]["u"], name
        assert hashlib.sha256(rows.encode()).hexdigest() == \
            golden[name]["matrix_sha256"], name


BAD_FILE_ENTRIES = {"bool": (True, "expected int"), "float": (2.0, "expected int"),
                    "str": ("3", "expected int"),
                    "negative": (-1, "field encodings only"),
                    "too-large": (25, "field encodings only")}


@pytest.mark.parametrize("key", ["generator_matrix", "scaling_v", "points", "g_divisor"])
@pytest.mark.parametrize("bad, message", BAD_FILE_ENTRIES.values(),
                         ids=BAD_FILE_ENTRIES.keys())
def test_file_entries_are_checked_per_row(cert25, key, bad, message):
    # a list of ints parses in one C-level pass and each row's range is its
    # min and max; anything else is refused as by the per-entry checks.  The
    # points' and G's point's coordinates are range-checked with the rows
    doc = json.loads(cert25.to_json())
    if key == "scaling_v":
        doc[key][3] = bad
    elif key == "points":
        doc[key][3][1] = bad
    elif key == "g_divisor":
        doc[key][1][0][0] = bad
    else:
        doc[key][1][3] = bad
    with pytest.raises(CertificateSchemaError, match=message):
        verify_certificate(IsoDualCertificate.from_json(json.dumps(doc)))


# -- the w = 1 hull from the point moments -----------------------------------

def _hull_routes(monkeypatch):
    """The sequences `linalg.hankel_rank` reads and the matrices
    `linalg.rank` reads, as every later call records them."""
    seen = SimpleNamespace(hankel=[], ranked=[])
    hankel_rank, rank = linalg.hankel_rank, linalg.rank

    def hankel(s, spec):
        seen.hankel.append(list(s))
        return hankel_rank(s, spec)

    def ranked(rows, spec):
        seen.ranked.append([list(r) for r in rows])
        return rank(rows, spec)
    monkeypatch.setattr(linalg, "hankel_rank", hankel)
    monkeypatch.setattr(linalg, "rank", ranked)
    return seen


def _moments(cert):
    """The w = 1 point moments of the file's points, the Gram of the
    evaluated basis, whose entries they are (`tests/test_funcspace.py`),
    and G G^T for G, that basis's RREF, the matrix the verifier derives."""
    curve = cert.curve()
    basis = funcspace.rr_basis(curve, cert.k, cert.g_divisor[1][0])
    points = cert.points
    rows = rr_basis_rows(basis, points)
    return (funcspace.point_moments(basis, points), linalg.gram(rows, curve.spec),
            linalg.gram(LinearCode(curve.spec, rows).matrix, curve.spec))


def test_golden_hulls_take_berlekamp_massey_in_odd_characteristic(monkeypatch):
    # every golden ranks Hankel blocks, S0 and S2 in odd characteristic and
    # S1 alone in characteristic 2, where S0 = 0 and S1 = S2; neither the
    # moment Gram nor G G^T reaches linalg.rank
    seen = _hull_routes(monkeypatch)
    names = sorted(f for f in os.listdir(GOLDENS) if f.startswith("q"))
    assert len(names) == 9
    for name in names:
        with open(os.path.join(GOLDENS, name)) as fh:
            cert = IsoDualCertificate.from_json(fh.read())
        (s0, s1, s2), gram, gram_of_g = _moments(cert)
        seen.hankel.clear()
        seen.ranked.clear()
        assert verify_certificate(cert) == [], name
        if cert.spec().p == 2:
            assert not any(s0) and s1 == s2 and seen.hankel == [s1], name
        else:
            assert not any(s1) and seen.hankel == [s0, s2], name
        assert gram not in seen.ranked and gram_of_g not in seen.ranked, name


# odd codes with hull > 0 from random pairs_x selections over GF(25) ...
# GF(169), k <= 24: (q, curve, k, torsion choice, pairs_x, hull)
ODD_HULLS = [
    (25, "0,0,0,18,12", 6, (3, 2), (20, 23, 13), 1),
    (49, "0,0,0,0,38", 4, (3, 2), (47, 20), 2),
    (49, "0,0,0,6,28", 10, (2, 1), (37, 42, 21, 40, 7), 1),
    (81, "0,0,0,9,77", 12, (2, 1), (73, 10, 21, 30, 75, 46), 3),
    (81, "0,0,0,9,20", 20, (1, 2), (75, 64, 8, 46, 57, 19, 35, 48, 10, 71), 2),
    (121, "0,0,0,0,71", 24, (2, 1), (103, 53, 101, 33, 31, 82, 46, 3, 70, 62, 26, 50), 2),
    (125, "0,0,0,2,10", 22, (2, 1), (31, 3, 18, 102, 90, 100, 17, 71, 14, 47, 89), 1),
    (169, "0,0,0,1,9", 24, (3, 2), (24, 145, 45, 4, 67, 1, 136, 9, 165, 6, 28, 0), 1),
]


@pytest.mark.parametrize("q, curve, k, choice, pairs_x, hull", ODD_HULLS,
                         ids=[f"q{c[0]}-k{c[2]}" for c in ODD_HULLS])
def test_berlekamp_massey_gives_nonzero_odd_hulls(monkeypatch, q, curve, k, choice,
                                                  pairs_x, hull):
    seen = _hull_routes(monkeypatch)
    spec = search._default_spec(q)
    cert = construct(ConstructionInput(Curve.from_string(spec, curve), k, 2, choice,
                                       PairSelection("pairs_x", pairs_x=pairs_x)))
    (s0, _, s2), gram, _ = _moments(cert)
    assert seen.hankel == [s0, s2] and gram not in seen.ranked
    assert cert.hull_dim == hull == k - linalg.rank(
        linalg.gram([list(r) for r in cert.generator_matrix], spec), spec)


# characteristic-2 codes with hull > 0 from random pairs_x selections over
# GF(32) ... GF(256), construction 1: (q, curve, k, pairs_x, hull)
CHAR2_HULLS = [
    (32, "1,1,0,0,10", 6, (9, 13, 15, 22, 27, 29), 2),
    (64, "1,0,0,0,43", 6, (2, 8, 12, 13, 18, 25), 6),
    (128, "1,0,0,0,1", 10, (26, 34, 50, 56, 58, 66, 86, 90, 94, 114), 2),
    (128, "1,1,0,0,42", 12, (14, 18, 40, 44, 52, 56, 58, 78, 88, 92, 96, 102), 4),
    (256, "1,0,0,0,86", 6, (31, 71, 166, 226, 239, 241), 2),
]


@pytest.mark.parametrize("q, curve, k, pairs_x, hull", CHAR2_HULLS,
                         ids=[f"q{c[0]}-k{c[2]}-h{c[4]}" for c in CHAR2_HULLS])
def test_berlekamp_massey_gives_even_characteristic_2_hulls(monkeypatch, q, curve, k,
                                                            pairs_x, hull):
    # the hull is k - 2 rank H(S1): one Hankel rank, of S1
    seen = _hull_routes(monkeypatch)
    spec = search._default_spec(q)
    cert = construct(ConstructionInput(Curve.from_string(spec, curve), k, 1, None,
                                       PairSelection("pairs_x", pairs_x=pairs_x)))
    (s0, s1, s2), _, _ = _moments(cert)
    assert not any(s0) and s1 == s2 and seen.hankel == [s1]
    assert cert.hull_dim == hull == k - linalg.rank(
        linalg.gram([list(r) for r in cert.generator_matrix], spec), spec)


# a golden with one point moved to a curve point on a new x: the points are
# in neither Hankel shape, so the verifier has no w = 1 hull and `hull`
# fails, with no G G^T formed or ranked
OFF_SHAPE = {
    "q25": ("q25.json", 9, [0, 1], ["x_pairs", "matrix_rref", "iso_dual_identity",
                                    "scaling_matches_points", "points_match_input",
                                    "mds_witness", "hull"]),
    "q64": ("q64.json", 5, [1, 0], ["x_pairs", "matrix_rref", "iso_dual_identity",
                                    "scaling_matches_points", "points_match_input",
                                    "hull"]),
}


@pytest.mark.parametrize("name, index, point, failures", OFF_SHAPE.values(),
                         ids=OFF_SHAPE.keys())
def test_points_off_both_hankel_shapes_fail_hull(monkeypatch, name, index, point,
                                                 failures):
    with open(os.path.join(GOLDENS, name)) as fh:
        doc = json.load(fh)
    doc["points"][index] = point
    cert = IsoDualCertificate.from_json(json.dumps(doc))
    (s0, s1, s2), _, gram_of_g = _moments(cert)
    assert any(s1) and (any(s0) or s1 != s2)
    seen = _hull_routes(monkeypatch)
    grams, gram = [], linalg.gram

    def recorded(*args, **kwargs):
        grams.append(args)
        return gram(*args, **kwargs)
    monkeypatch.setattr(linalg, "gram", recorded)
    assert verify_certificate(cert) == failures
    assert seen.hankel == [] and grams == [] and gram_of_g not in seen.ranked
