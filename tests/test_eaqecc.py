import pytest

from ellcode.eaqecc import (TABLE_COLUMNS, EaqeccError, EaqeccParams, derive,
                            derive_from_certificate, is_mds_eaqecc, table_rows)
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
    assert is_mds_eaqecc(EaqeccParams(8, 4, 5, 4, 16, True, True))
    assert is_mds_eaqecc(EaqeccParams(20, 8, 11, 8, 32, True, True))
    assert is_mds_eaqecc(EaqeccParams(160, 80, 81, 80, 289, True, True))
    assert not is_mds_eaqecc(EaqeccParams(8, 4, 4, 4, 16, False, True))


def test_is_mds_precondition():
    with pytest.raises(EaqeccError):
        is_mds_eaqecc(EaqeccParams(8, 1, 6, 1, 16, False, False))


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
