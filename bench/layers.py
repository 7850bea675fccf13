"""The library entry points the traced run wraps, and the per-layer metrics.

Spans sit on the public functions and methods of gf, curve, funcspace,
linalg, code, isodual and cli.  Functions that a module imports by name
from another (isodual's `mds_subset_check`) are wrapped where the caller
looks them up as well as where they are defined.  Methods are wrapped on
their class, so calls between methods nest.

`Curve.add` and the `FieldElement` arithmetic operators run millions of
times per pass; a span on each would dominate the traced time, so they are
only counted, in a pass of their own.

Work counts (`rref_cells`, `gram_dots`, `dp_cells`, `codewords`) are
computed from the input sizes at the boundary, not measured inside the
library: rows x columns into `rref`, k^2 dot products in `gram`,
n * k * d1 * d2 DP cells per `mds_subset_check`, and q^k codewords per
`min_distance`.
"""

from __future__ import annotations

import importlib
import statistics

from tracer import Tracer, child_calls, layer_totals

ELEMENT_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__",
               "__pow__", "inverse", "sqrt")


def _rref_cells(a, result):
    rows = a["rows"]
    return len(rows) * (len(rows[0]) if rows else 0)


def _gram_dots(a, result):
    return len(a["a"]) ** 2


def _dp_cells(a, result):
    st = a["structure"]
    return len(a["points"]) * a["k"] * st.d1 * st.d2


def _codewords(a, result):
    code = a["self"]
    return code.spec.q ** code.k


def _lcd_hit(a, result):
    return 0 if result is None else 1


# (module, attribute path, span name, work count)
SPAN_TARGETS = (
    ("gf", "FieldSpec.__init__", "gf.field_build", None),
    ("curve", "Curve.points", "curve.points", None),
    ("curve", "Curve.group_structure", "curve.group_structure", None),
    ("curve", "Curve.point_order", "curve.point_order", None),
    ("funcspace", "rr_basis", "funcspace.rr_basis", None),
    ("funcspace", "evaluate", "funcspace.evaluate", None),
    ("funcspace", "interpolation_poly", "funcspace.interpolation", None),
    ("linalg", "rref", "linalg.rref", _rref_cells),
    ("linalg", "gram", "linalg.gram", _gram_dots),
    ("linalg", "nullspace", "linalg.nullspace", None),
    ("code", "LinearCode.scale", "code.scale", None),
    ("code", "LinearCode.dual", "code.dual", None),
    ("code", "LinearCode.hull_dim", "code.hull", None),
    ("code", "LinearCode.min_distance", "code.min_distance", _codewords),
    ("code", "mds_subset_check", "code.mds_dp", _dp_cells),
    ("isodual", "mds_subset_check", "code.mds_dp", _dp_cells),
    ("isodual", "construct", "isodual.construct", None),
    ("isodual", "verify_certificate", "isodual.verify", None),
    ("isodual", "IsoDualCertificate.to_json", "isodual.json", None),
    ("isodual", "IsoDualCertificate.from_json", "isodual.json", None),
    ("isodual", "selfdual_transform", "isodual.selfdual", None),
    ("isodual", "lcd_transform", "isodual.lcd", _lcd_hit),
    ("isodual", "sample_scaling_hulls", "isodual.sample_hulls", None),
    ("cli", "main", "cli.main", None),
)

# (module, attribute path, counter name)
COUNT_TARGETS = tuple(("gf", f"FieldElement.{op}", "gf.elem_ops")
                      for op in ELEMENT_OPS) + (
    ("curve", "Curve.add", "curve.add_calls"),
)


def _owner(module: str, path: str):
    """Resolve 'Class.attr' or 'attr' in ellcode.<module> to (owner, attr)."""
    owner = importlib.import_module(f"ellcode.{module}")
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


def targets(kind: str) -> list[tuple[object, str]]:
    """(owner, attribute) of every target of one kind, 'span' or 'count'."""
    table = SPAN_TARGETS if kind == "span" else COUNT_TARGETS
    return [_owner(row[0], row[1]) for row in table]


def install_spans(tracer: Tracer) -> None:
    for module, path, name, work in SPAN_TARGETS:
        owner, attr = _owner(module, path)
        tracer.install(owner, attr,
                       lambda fn, n=name, w=work: tracer.spanned(fn, n, w))


def install_counters(tracer: Tracer) -> None:
    for module, path, key in COUNT_TARGETS:
        owner, attr = _owner(module, path)
        tracer.install(owner, attr, lambda fn, k=key: tracer.counted(fn, k))


# name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "gf.field_build_s": ("s", "lower"),
    "gf.field_builds": ("count", "lower"),
    "gf.elem_ops": ("count", "lower"),
    "curve.points_s": ("s", "lower"),
    "curve.group_structure_s": ("s", "lower"),
    "curve.point_order_s": ("s", "lower"),
    "curve.point_order_calls": ("count", "lower"),
    "curve.add_calls": ("count", "lower"),
    "funcspace.rr_basis_s": ("s", "lower"),
    "funcspace.evaluate_s": ("s", "lower"),
    "funcspace.evaluate_calls": ("count", "lower"),
    "funcspace.interpolation_s": ("s", "lower"),
    "linalg.rref_s": ("s", "lower"),
    "linalg.rref_calls": ("count", "lower"),
    "linalg.rref_cells": ("cells_computed", "lower"),
    "linalg.gram_s": ("s", "lower"),
    "linalg.gram_dots": ("dots_computed", "lower"),
    "linalg.nullspace_s": ("s", "lower"),
    "code.scale_s": ("s", "lower"),
    "code.dual_s": ("s", "lower"),
    "code.hull_s": ("s", "lower"),
    "code.mds_dp_s": ("s", "lower"),
    "code.dp_cells": ("cells_computed", "lower"),
    "code.min_distance_s": ("s", "lower"),
    "code.codewords": ("words_computed", "lower"),
    "isodual.construct_self_s": ("s", "lower"),
    "isodual.verify_self_s": ("s", "lower"),
    "isodual.json_s": ("s", "lower"),
    "isodual.transform_self_s": ("s", "lower"),
    "isodual.sample_hulls_self_s": ("s", "lower"),
    "isodual.lcd_candidates": ("count", "lower"),
    "isodual.lcd_hit_ratio": ("ratio", "higher"),
    "cli.verify_self_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# span-derived metric -> (span name, field of its totals)
_FROM_SPANS = {
    "gf.field_build_s": ("gf.field_build", "self_s"),
    "gf.field_builds": ("gf.field_build", "calls"),
    "curve.points_s": ("curve.points", "self_s"),
    "curve.group_structure_s": ("curve.group_structure", "self_s"),
    "curve.point_order_s": ("curve.point_order", "self_s"),
    "curve.point_order_calls": ("curve.point_order", "calls"),
    "funcspace.rr_basis_s": ("funcspace.rr_basis", "self_s"),
    "funcspace.evaluate_s": ("funcspace.evaluate", "self_s"),
    "funcspace.evaluate_calls": ("funcspace.evaluate", "calls"),
    "funcspace.interpolation_s": ("funcspace.interpolation", "self_s"),
    "linalg.rref_s": ("linalg.rref", "self_s"),
    "linalg.rref_calls": ("linalg.rref", "calls"),
    "linalg.rref_cells": ("linalg.rref", "work"),
    "linalg.gram_s": ("linalg.gram", "self_s"),
    "linalg.gram_dots": ("linalg.gram", "work"),
    "linalg.nullspace_s": ("linalg.nullspace", "self_s"),
    "code.scale_s": ("code.scale", "self_s"),
    "code.dual_s": ("code.dual", "self_s"),
    "code.hull_s": ("code.hull", "self_s"),
    "code.mds_dp_s": ("code.mds_dp", "self_s"),
    "code.dp_cells": ("code.mds_dp", "work"),
    "code.min_distance_s": ("code.min_distance", "self_s"),
    "code.codewords": ("code.min_distance", "work"),
    "isodual.construct_self_s": ("isodual.construct", "self_s"),
    "isodual.verify_self_s": ("isodual.verify", "self_s"),
    "isodual.json_s": ("isodual.json", "self_s"),
    "isodual.sample_hulls_self_s": ("isodual.sample_hulls", "self_s"),
    "cli.verify_self_s": ("cli.main", "self_s"),
}


def pass_metrics(spans: list[list], scale: dict[int, float]) -> dict[str, float]:
    """Span-derived per-layer metrics of one traced pass.

    `scale` maps the pass's op ids to the factor that brings their times to
    the reference speed (calibrate.py).
    """
    totals = layer_totals(spans, scale)

    def get(name, field):
        return totals.get(name, {}).get(field, 0)

    out = {metric: get(*src) for metric, src in _FROM_SPANS.items()}
    out["isodual.transform_self_s"] = (get("isodual.selfdual", "self_s")
                                       + get("isodual.lcd", "self_s"))
    candidates = child_calls(spans, "isodual.lcd", "code.scale", scale)
    out["isodual.lcd_candidates"] = candidates
    out["isodual.lcd_hit_ratio"] = (get("isodual.lcd", "work") / candidates
                                    if candidates else 0.0)
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
