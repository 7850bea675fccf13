"""Tests of the benchmark's tracer and speed meter:

    python3 -m pytest bench/test_tracer.py
"""

import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import calibrate  # noqa: E402
import layers  # noqa: E402
from tracer import (END, NAME, OP, PARENT, START, WORK, Tracer,  # noqa: E402
                    child_calls, layer_totals, self_times, top_level_time)


def _span(name, start, end, parent, op=0, work=0):
    return [name, start, end, parent, op, work]


def test_self_times_of_nested_spans():
    spans = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 4.0, 0),
        _span("c", 2.0, 3.0, 1),
        _span("d", 5.0, 9.0, 0),
        _span("a", 11.0, 12.0, -1, op=1),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    totals = layer_totals(spans, {0: 1.0})
    assert totals["a"] == {"self_s": 3.0, "calls": 1, "work": 0}
    assert set(totals) == {"a", "b", "c", "d"}
    assert layer_totals(spans, {0: 0.5, 1: 2.0})["a"]["self_s"] == 3.0 * 0.5 + 2.0
    assert top_level_time(spans, 0) == 10.0
    assert top_level_time(spans, 1) == 1.0


def test_child_calls_counts_direct_children_only():
    spans = [
        _span("lcd", 0, 10, -1),
        _span("scale", 1, 2, 0),
        _span("scale", 3, 4, 0),
        _span("other", 5, 8, 0),
        _span("scale", 6, 7, 3),
    ]
    assert child_calls(spans, "lcd", "scale", [0]) == 2


class _Owner:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2

    @classmethod
    def make(cls):
        return cls()


def test_wrappers_record_nesting_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    for attr in ("outer", "inner", "make"):
        tracer.install(_Owner, attr,
                       lambda fn, a=attr: tracer.spanned(fn, a, lambda args, r: r))
    tracer.op = 7
    try:
        assert _Owner.make().outer(3) == 7
    finally:
        tracer.uninstall()
    names = [s[NAME] for s in tracer.spans]
    assert names == ["make", "outer", "inner"]
    make, outer, inner = tracer.spans
    assert make[PARENT] == -1 and outer[PARENT] == -1 and inner[PARENT] == 1
    assert all(s[OP] == 7 for s in tracer.spans)
    assert inner[WORK] == 6 and outer[WORK] == 7
    # make: ticks 0..1, outer: ticks 2..5, inner: ticks 3..4
    assert (outer[START], outer[END], inner[START], inner[END]) == (2, 5, 3, 4)
    assert self_times(tracer.spans)[1] == 2.0


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise RuntimeError("x")

    wrapped = tracer.spanned(boom, "boom")
    with pytest.raises(RuntimeError):
        wrapped()
    assert tracer._stack == []
    assert tracer.spans[0][END] >= tracer.spans[0][START]


def test_uninstall_restores_every_library_attribute():
    kinds = ("span", "count")
    before = {kind: [(owner, attr, vars(owner)[attr]) for owner, attr in
                     layers.targets(kind)] for kind in kinds}
    tracer = Tracer()
    layers.install_spans(tracer)
    layers.install_counters(tracer)
    try:
        assert tracer.missing == []
        for kind in kinds:
            for owner, attr, original in before[kind]:
                assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for kind in kinds:
        for owner, attr, original in before[kind]:
            assert vars(owner)[attr] is original, (owner, attr)


def test_traced_construction_nests_and_counts():
    from ellcode import Curve, FieldSpec, isodual, linalg
    tracer = Tracer()
    layers.install_spans(tracer)
    try:
        assert linalg.rref([[1, 2, 3], [0, 1, 1]], FieldSpec(5, 1, [0, 1]))
        tracer.op = 1
        spec = FieldSpec.from_string("p=2,m=4,mod=1,1,0,0,1")
        cert = isodual.construct(isodual.ConstructionInput(
            Curve(spec, 1, 8, 0, 0, 9), 4, 1,
            pair_selection=isodual.PairSelection("pairs_x", pairs_x=(5, 1, 2, 7))))
        assert isodual.IsoDualCertificate.from_json(cert.to_json()) == cert
    finally:
        tracer.uninstall()
    assert tracer.spans[0][NAME] == "gf.field_build"
    assert tracer.spans[1][NAME] == "linalg.rref" and tracer.spans[1][WORK] == 6
    spans = [s for s in tracer.spans if s[OP] == 1]
    construct = next(i for i, s in enumerate(tracer.spans) if s[NAME] == "isodual.construct")
    children = {s[NAME] for s in tracer.spans if s[PARENT] == construct}
    assert {"funcspace.rr_basis", "code.mds_dp", "code.hull",
            "code.min_distance"} <= children
    metrics = layers.pass_metrics(tracer.spans, {1: 1.0})
    assert metrics["code.codewords"] == 16 ** 4
    assert metrics["code.dp_cells"] > 0
    assert metrics["isodual.json_s"] > 0
    assert metrics["gf.field_builds"] == sum(s[NAME] == "gf.field_build" for s in spans)


def test_meter_samples_during_the_op_and_restores_signal_state():
    handler = signal.getsignal(signal.SIGALRM)
    meter = calibrate.Meter()

    def busy():
        end = time.perf_counter() + 4 * calibrate.TICK_S
        while time.perf_counter() < end:
            pass
        return "done"

    t = meter.time(busy)
    assert (t.result, t.error) == ("done", None)
    assert len(meter._samples) > 2 * calibrate._AROUND      # ticks ran inside
    assert t.tick_s > 0
    assert abs(t.wall_s + t.tick_s - 4 * calibrate.TICK_S) < calibrate.TICK_S
    assert t.s > 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert meter.time(lambda: 1 / 0).error.startswith("ZeroDivisionError")
