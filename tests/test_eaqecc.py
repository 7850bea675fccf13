import os

import pytest

from ellcode import FieldSpec, IsoDualCertificate
from ellcode.eaqecc import (TABLE_COLUMNS, EaqeccError, derive,
                            derive_from_certificate, table_rows)
from ellcode.search import rows_to_csv, rows_to_json


def test_derive_example_iv1():
    p = derive(8, 4, 5, 0, 16)
    assert (p.n, p.k_q, p.d, p.c) == (8, 4, 5, 4)
    assert p.mds and p.maximal_entanglement
    assert p.label() == "[[8,4,5;4]]_16"


def test_derive_hull_two_gf64():
    p = derive(36, 18, 19, 2, 64)
    assert p.label() == "[[36,16,19;16]]_64"
    assert p.mds
    assert not p.maximal_entanglement     # c = 16 < n - k_q = 20


def test_derive_selfdual_collapse():
    p = derive(8, 4, 5, 4, 16)
    assert (p.k_q, p.c) == (0, 0)


def test_is_mds_examples():
    # [[8,4,5;4]]_16, [[20,8,11;8]]_32 and [[160,80,81;80]]_289 meet the
    # Singleton-type bound with equality; [[8,4,4;4]]_16 does not
    assert derive(8, 4, 5, 0, 16).mds
    assert derive(20, 10, 11, 2, 32).mds
    assert derive(160, 80, 81, 0, 289).mds
    assert not derive(8, 4, 4, 0, 16).mds


def test_is_mds_precondition():
    # [[8,1,6;1]]_16 has 2d > n + 2, outside the bound's range: never MDS
    p = derive(8, 4, 6, 3, 16)
    assert (p.k_q, p.c) == (1, 1)
    assert not p.mds


def test_derive_parameter_validation():
    with pytest.raises(EaqeccError):
        derive(8, 9, 5, 0, 16)
    with pytest.raises(EaqeccError):
        derive(8, 4, 5, 5, 16)
    with pytest.raises(EaqeccError):
        derive(8, 4, 0, 0, 16)


def test_half_length_plus_one_is_always_mds():
    # n = 2k, d = k+1 sits exactly on the bound for every hull value
    for k in (2, 4, 10):
        for hull in range(k):
            p = derive(2 * k, k, k + 1, hull, 25)
            assert p.mds
            assert p.maximal_entanglement == (hull == 0)


def test_construction1_certificates_have_kq_equal_c(cert16):
    p = derive_from_certificate(cert16)
    assert p.k_q == p.c
    assert p.k_q >= 1


GOLDENS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "goldens")
GOLDEN_LABELS = {
    "q16.json": "[[8,4,5;4]]_16", "q25.json": "[[16,8,9;8]]_25",
    "q32.json": "[[20,8,11;8]]_32", "q49.json": "[[28,14,15;14]]_49",
    "q64.json": "[[36,16,19;16]]_64", "q256.json": "[[140,68,71;68]]_256",
    "q289.json": "[[160,80,81;80]]_289", "q729.json": "[[8,4,5;4]]_729",
    "q1031.json": "[[8,4,5;4]]_1031",
}


def test_derive_from_certificate_builds_no_field(monkeypatch):
    # q comes from the field string's p and m; no FieldSpec, and so no
    # table, is built for it
    def no_field(*args):
        raise AssertionError("a field was built")

    monkeypatch.setattr(FieldSpec, "__init__", no_field)
    for name, label in GOLDEN_LABELS.items():
        with open(os.path.join(GOLDENS, name)) as fh:
            cert = IsoDualCertificate.from_json(fh.read())
        assert derive_from_certificate(cert).label() == label, name


def test_derive_from_certificate_with_override(cert16):
    p = derive(cert16.n, cert16.k, cert16.min_distance, 2, cert16.spec().q)
    assert p.label() == "[[8,2,5;2]]_16"


def test_table_writers(cert16, cert25):
    items = [(cert16, derive_from_certificate(cert16)),
             (cert25, derive_from_certificate(cert25))]
    rows = table_rows(items)
    csv_text = rows_to_csv(rows, TABLE_COLUMNS)
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("q,n,k,d,hull")
    assert len(lines) == 3
    json_text = rows_to_json(rows)
    import json
    parsed = json.loads(json_text)
    assert parsed[0]["qk"] == 4 and parsed[1]["qk"] == 8
