"""Entanglement-assisted quantum code parameters from classical hulls.

Everything here is parameter arithmetic: an [n, k, d] code with hull
dimension ell yields an [[n, k - ell, d; n - k - ell]]_q EAQECC, and the
Singleton-type bound 2d <= n - k + c + 2 (valid for d <= (n+2)/2) decides
the MDS flag.  No stabilizer machinery is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .isodual import IsoDualCertificate


class EaqeccError(ValueError):
    """Parameter ranges or bound preconditions violated."""


@dataclass(frozen=True)
class EaqeccParams:
    n: int
    k_q: int
    d: int
    c: int
    q: int
    mds: bool
    maximal_entanglement: bool

    def label(self) -> str:
        return f"[[{self.n},{self.k_q},{self.d};{self.c}]]_{self.q}"


def derive(n: int, k: int, d: int, hull_dim: int, q: int) -> EaqeccParams:
    """Lemma-level derivation [[n, k - hull, d; n - k - hull]]_q."""
    if not (1 <= k <= n and 1 <= d <= n):
        raise EaqeccError(f"invalid classical parameters [{n},{k},{d}]")
    if not 0 <= hull_dim <= min(k, n - k):
        raise EaqeccError(
            f"hull dimension {hull_dim} outside [0, min(k, n-k)] for [{n},{k}]")
    k_q = k - hull_dim
    c = n - k - hull_dim
    mds = 2 * d <= n + 2 and 2 * d == n - k_q + c + 2
    return EaqeccParams(n=n, k_q=k_q, d=d, c=c, q=q, mds=mds,
                        maximal_entanglement=(c == n - k_q))


def is_mds_eaqecc(p: EaqeccParams) -> bool:
    """Equality in the Singleton-type bound; d must satisfy 2d <= n + 2."""
    if 2 * p.d > p.n + 2:
        raise EaqeccError("Singleton-type bound precondition violated")
    return 2 * p.d == p.n - p.k_q + p.c + 2


def derive_from_certificate(cert: IsoDualCertificate) -> EaqeccParams:
    """Parameters from a verified construction certificate: its n, k, d
    and hull are taken as recorded."""
    return derive(cert.n, cert.k, cert.min_distance, cert.hull_dim, cert.spec().q)


TABLE_COLUMNS = ["q", "n", "k", "d", "hull", "qk", "qd", "c", "mds",
                 "maximal_entanglement"]


def table_rows(items: Iterable[tuple[IsoDualCertificate, EaqeccParams]]) -> list[dict]:
    rows = []
    for cert, params in items:
        rows.append({
            "q": params.q,
            "n": cert.n,
            "k": cert.k,
            "d": cert.min_distance,
            "hull": cert.k - params.k_q,
            "qk": params.k_q,
            "qd": params.d,
            "c": params.c,
            "mds": params.mds,
            "maximal_entanglement": params.maximal_entanglement,
        })
    return rows
