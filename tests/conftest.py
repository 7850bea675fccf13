import pytest

from ellcode import (Curve, FieldSpec, ConstructionInput, PairSelection,
                     construct)


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
