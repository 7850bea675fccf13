import hashlib
import time
import tracemalloc

import pytest

from ellcode import isodual, search
from ellcode.curve import CurveError, feasible_orders
from ellcode.search import (AbelianGroupSpec, bound_table, census_rows,
                            lemma_max_search, length_bound,
                            max_length_probe, realized_orders, rows_to_csv,
                            rows_to_json)


def test_bound_table_reference_values():
    rows = bound_table([16, 32, 64, 256, 25, 49, 289])
    assert [(r.q, r.bound_n) for r in rows] == \
        [(16, 8), (32, 20), (64, 36), (256, 140), (25, 16), (49, 28), (289, 160)]
    cases = {r.q: r.case for r in rows}
    assert cases[16] == "even-square"
    assert cases[32] == "even-nonsquare"
    assert cases[25] == "odd"


def test_census_rows_pinned():
    # every curve's order and (d1, d2) over eight fields of both parities
    rows = search.census_rows([4, 5, 7, 8, 9, 11, 13, 16])
    assert len(rows) == 5620
    digest = hashlib.sha256(isodual.canonical_json(rows).encode()).hexdigest()
    assert digest == "14734abd5d8f576fa9d6c1cee62a55a5ef1a6ac44e7d487aaf0fa1e2456b923b"


def test_census_rows_pinned_up_to_gf27():
    # the rest of GF(4 ... 27), digest as written before group_structure
    # chose p1 by the prime-order test instead of trial grid walks
    rows = search.census_rows([17, 19, 23, 25, 27])
    assert len(rows) == 20674
    digest = hashlib.sha256(isodual.canonical_json(rows).encode()).hexdigest()
    assert digest == "e31040affda720ddfbfd36e51051cdb0e66410374f13425106b2d9828e282ee5"


def test_census_rows_pinned_gf61():
    # a prime field whose groups have d1 up to 6, odd d1 = 3 and 5 among
    # them; digest as written before the walk filled each row's mirror
    rows = search.census_rows([61])
    assert len(rows) == 3660
    digest = hashlib.sha256(isodual.canonical_json(rows).encode()).hexdigest()
    assert digest == "c70d4119040a58188d487b17da463a5f4b2b05b518c3d4bb78a4c13144a9f2cb"


def test_length_bound_returns_attaining_order():
    bound, order = length_bound(49)
    assert bound == 28 and order == 60
    bound, order = length_bound(16)
    assert bound == 8 and order in (18, 22)


def test_bound_achieved_small():
    rows = bound_table([16], achieve=True)
    row = rows[0]
    assert row.achieved_n == row.bound_n == 8
    assert row.witness is not None and row.witness.n == 8


@pytest.mark.parametrize("q", [11, 17, 23, 83])
def test_bound_achieved_where_the_first_curve_of_the_order_lacks_e2(q):
    # the first curve of the attaining order has no full rational E[2], so
    # the hunt must go on to the first curve construction 2 runs on
    row, = bound_table([q], achieve=True)
    assert row.achieved_n == row.bound_n
    assert row.witness.curve().order() == length_bound(q)[1]


@pytest.mark.parametrize("qs", [[521], [16, 8839]])
def test_witness_hunt_refuses_past_its_range_at_once(qs):
    start = time.perf_counter()
    with pytest.raises(CurveError, match="witness hunt's range"):
        bound_table(qs, achieve=True)
    assert time.perf_counter() - start < 1
    assert bound_table(qs)[-1].bound_n > 0


def test_witness_hunt_stops_at_the_walk_budget(monkeypatch):
    monkeypatch.setattr(search, "WALK_BUDGET", 11 * 10)
    with pytest.raises(CurveError, match="walk budget"):
        bound_table([11], achieve=True)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_realized_orders_match_feasible(q):
    assert realized_orders(q) == sorted({n for n, _, _ in feasible_orders(q)})


def test_enumerate_curves_gf4():
    rows = census_rows([4])
    orders = {row["order"] for row in rows}
    assert orders == set(range(1, 10))
    for row in rows:
        assert row["d1"] * row["d2"] == row["order"]
        assert (row["order"] - 5) ** 2 <= 16      # Hasse window around q + 1


def test_enumerate_curves_predicate():
    curves = [curve for curve in search._whole_family(4, 4) if curve.order() == 9]
    assert curves and all(curve.order() == 9 for curve in curves)


def _refused_at_once(walk, q):
    start = time.perf_counter()
    with pytest.raises(CurveError, match="exceeds the walk budget"):
        walk(q)
    assert time.perf_counter() - start < 1


def test_enumerate_curves_cap():
    # GF(64) has 262,080 curves in its family, 1.7e7 curves x q
    for walk in (lambda q: census_rows([q]), realized_orders):
        _refused_at_once(walk, 64)
        _refused_at_once(walk, 1024)


def test_census_keeps_no_curve(capsys):
    # each Curve caches its points and group structure; the 504 rows over
    # GF(8) take about 0.15 MB, the 504 curves with their caches 3.2 MB more
    tracemalloc.start()
    try:
        rows = search.census_rows([8])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 504 and peak < 1_000_000
    assert capsys.readouterr().err == "census_rows: q=8: 0 candidates scanned\n" \
        "census_rows: q=8: 500 candidates scanned\n"


def test_census_gf16_realizes_order_22():
    curve = next(c for c in search._whole_family(16, 16) if c.order() == 22)
    structure = curve.group_structure()
    assert structure.d1 * structure.d2 == 22


def test_max_length_probe_gf25_curve(e25):
    rows = max_length_probe(25, curves=[e25])
    row = rows[0]
    assert row["applicable"] and row["max_n"] == 16
    assert row["bound"] == 18 and row["ok"]


def test_lemma_search_z6_counterexamples():
    # exhaustive truth for Z/6, n = 4: exactly two (A, g) pairs violate the
    # subset-sum claim; tiny groups sit outside the proof's largeness
    # hypothesis, so violations here are expected and reported, not asserted
    out = lemma_max_search(AbelianGroupSpec(1, 6), 4)
    shaped = [( tuple(j for _, j in combo), g[1]) for combo, g in out]
    assert shaped == [((0, 1, 2, 5), 4), ((0, 1, 4, 5), 2)]


def test_lemma_search_klein_four_vacuous():
    assert lemma_max_search(AbelianGroupSpec(2, 2), 4) == []


def test_lemma_search_stability():
    g = AbelianGroupSpec(2, 6)
    assert lemma_max_search(g, 8) == lemma_max_search(g, 8)


def test_lemma_search_validation():
    with pytest.raises(ValueError):
        lemma_max_search(AbelianGroupSpec(1, 5), 4)      # odd order
    with pytest.raises(ValueError):
        lemma_max_search(AbelianGroupSpec(1, 6), 3)      # odd n
    with pytest.raises(ValueError):
        lemma_max_search(AbelianGroupSpec(1, 6), 2)      # below #G/2 + 1
    for d1, d2 in ((0, 6), (2, -6), (1, 0)):
        with pytest.raises(ValueError, match="needs d1 >= 1 and d2 >= 1"):
            AbelianGroupSpec(d1, d2)


def test_max_length_probe_gf4_has_no_room():
    # over GF(4) no curve has odd part >= 5, so nothing is constructible
    rows = max_length_probe(4)
    assert all(row["ok"] for row in rows)
    assert any(not row["applicable"] for row in rows)    # odd-order curves
    assert all(row["certificates"] == 0 for row in rows)


@pytest.mark.parametrize("q", [7, 8])
def test_max_length_probe_produces_certificates(q):
    rows = max_length_probe(q)
    assert all(row["ok"] for row in rows)
    assert any(not row["applicable"] for row in rows)
    produced = [row for row in rows if row["certificates"]]
    assert produced
    for row in produced:
        assert row["max_n"] <= row["bound"]


def test_max_length_probe_single_curve(e16):
    rows = max_length_probe(16, curves=[e16])
    row = rows[0]
    assert row["applicable"] and row["max_n"] == 8 and row["bound"] == 11
    assert row["ok"]


def test_probe_cap(e25):
    # each curve is charged q x q: 37^2 curves x 37^2 = 1.87e6
    for q in (37, 64, 128):
        _refused_at_once(max_length_probe, q)
    # 2,500 given curves x 25^2 = 1.56e6
    with pytest.raises(CurveError, match="exceeds the walk budget"):
        max_length_probe(25, curves=[e25] * 2500)


@pytest.mark.parametrize("q, curves, applicable, certificates",
                         [(8, 504, 56, 16), (9, 648, 84, 36), (13, 156, 22, 14),
                          (17, 272, 40, 40)])
def test_max_length_probe_totals(q, curves, applicable, certificates):
    rows = max_length_probe(q)
    assert len(rows) == curves
    assert sum(row["applicable"] for row in rows) == applicable
    assert sum(row["certificates"] for row in rows) == certificates


def test_report_writers():
    rows = [{"q": 16, "bound_n": 8}, {"q": 25, "bound_n": 16}]
    text = rows_to_csv(rows, ["q", "bound_n"])
    assert text.splitlines() == ["q,bound_n", "16,8", "25,16"]
    import json
    assert json.loads(rows_to_json(rows)) == rows
