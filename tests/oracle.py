"""Independent reference implementations that the tests compare the library
against; `ellcode` never imports this module."""

from itertools import combinations
from typing import Sequence


def subset_sum_counts_exhaustive(coords: Sequence[tuple[int, int]], k: int,
                                 d1: int, d2: int) -> list[int]:
    """Brute-force oracle for the DP, usable up to n around 16."""
    size = d1 * d2
    out = [0] * size
    for combo in combinations(coords, k):
        si = sum(c[0] for c in combo) % d1
        sj = sum(c[1] for c in combo) % d2
        out[si * d2 + sj] += 1
    return out
