"""Iso-dual MDS algebraic-geometry codes on elliptic curves over GF(q).

Modules
-------
gf         exact GF(p) / GF(p^m) arithmetic in a fixed polynomial basis
curve      Weierstrass curves: group law, enumeration, orders, structure
funcspace  the checked Riemann-Roch basis of L((k-1)O + Q), the closed-form
           systematic generator and moment Grams
code       linear codes: duals, hulls, distances, the subset-sum certifier
isodual    the constructions, certificates, self-dual / LCD scalings
eaqecc     entanglement-assisted quantum code parameters
search     bound tables, curve census, small-group lemma searcher
cli        command-line front-end (construct / verify / transform / ...)
"""

from ._version import __version__
from .gf import FieldElement, FieldSpec, FieldError
from .curve import (Curve, CurveError, GroupStructure, Point, INFINITY,
                    feasible_orders, odd_part)
from .funcspace import RRBasis, FunctionError, rr_basis
from .code import (CodeError, LinearCode, ScalingVector, mds_subset_check,
                   subset_sum_reachable)
from .isodual import (CertificateSchemaError, ConstructionError,
                      ConstructionInput, IsoDualCertificate, PairSelection,
                      VerificationError, construct, find_scaling_with_hull,
                      lcd_transform, sample_scaling_hulls, selfdual_transform,
                      verify_certificate)
from .eaqecc import EaqeccError, EaqeccParams, derive, derive_from_certificate
from .search import (AbelianGroupSpec, BoundTableRow, bound_table,
                     lemma_max_search, length_bound, max_length_probe,
                     realized_orders)

__all__ = [name for name in dir() if not name.startswith("_")]
