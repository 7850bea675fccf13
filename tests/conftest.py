from itertools import islice, permutations, product

import pytest

from ellcode import (Curve, FieldSpec, ConstructionInput, PairSelection,
                     construct, isodual, linalg, search)


@pytest.fixture(scope="session")
def f16():
    return FieldSpec(2, 4, [1, 1, 0, 0, 1])


@pytest.fixture(scope="session")
def e16(f16):
    return Curve(f16, 1, 8, 0, 0, 9)


@pytest.fixture(scope="session")
def f25():
    return FieldSpec(5, 2, [2, 4, 1])


@pytest.fixture(scope="session")
def e25(f25):
    return Curve(f25, 0, 0, 0, 0, 1)


@pytest.fixture(scope="session")
def cert16(e16):
    return construct(ConstructionInput(
        e16, 4, 1, pair_selection=PairSelection("pairs_x", pairs_x=(5, 1, 2, 7))))


@pytest.fixture(scope="session")
def cert25(e25):
    return construct(ConstructionInput(
        e25, 8, 2, torsion_choice=(1, 2),
        pair_selection=PairSelection("torsion", r=3)))


@pytest.fixture
def no_rref_or_gram(monkeypatch):
    """`linalg.rref`, and so `linalg.rank`, and `linalg.gram` fail any call
    for the test's length: a route that forms an RREF or a G G^T shows as
    a traceback."""
    def refuse(*args, **kwargs):
        raise AssertionError("no RREF or G G^T may be formed here")
    monkeypatch.setattr(linalg, "rref", refuse)
    monkeypatch.setattr(linalg, "gram", refuse)


@pytest.fixture(scope="session")
def sweep():
    """(curve, k, torsion choice, selection, Qa, points) of every input that
    `_derive_points` accepts on the first 24 curves a construction runs on,
    among every (q^2 // 48 + 1)-th curve of the canonical families over
    GF(8), 16, 32, 9, 25, 27 and 49: k = 2, 4, ..., every torsion choice,
    canonical and torsion selections."""
    selections = [PairSelection()] + [PairSelection("torsion", r) for r in (3, 5, 7)]
    out = []
    for q in (8, 16, 32, 9, 25, 27, 49):
        construction = 1 if q % 2 == 0 else 2
        choices = [None] if construction == 1 else list(permutations((1, 2, 3), 2))
        curves = []
        for curve in islice(search._curve_family(q), 0, None, q * q // 48 + 1):
            try:
                isodual.applicable_two_torsion(curve, construction)
            except isodual.ConstructionError:
                continue
            curves.append(curve)
            if len(curves) == 24:
                break
        for curve in curves:
            for k, choice, sel in product(range(2, curve.order() // 2 + 1, 2),
                                          choices, selections):
                try:
                    qa, pts = isodual._derive_points(curve, k, construction, choice, sel)
                except isodual.ConstructionError:
                    continue
                out.append((curve, k, choice, sel, qa, pts))
    return out
