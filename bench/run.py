"""Benchmark of ellcode: build and re-verify the paper's certificates.

    python3 bench/run.py --workload paper-even --seed 1 --seconds 20 --trace 0

Runs whole passes of one workload (see workloads.py) until --seconds have
been measured, checks every output, and prints a report followed by one
JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0  end-to-end metrics of untraced passes:
           pass_s       seconds per pass: the sum over its ops of each
                        op's median time;
           setup_s      median of SETUP_REPEATS set-ups, each a fresh
                        import of ellcode plus building the inputs and
                        loading the goldens;
           peak_rss_mb  the process's maximum resident set size.
--trace 1  per-layer metrics: untraced and traced passes alternate; the
           traced ones record spans around the library's entry points
           (layers.py), and a last pass only counts field-element
           operations and curve additions.  Spans go to bench/out/.

Times, per-layer self times included, are seconds at the reference speed
of calibrate.py, which samples the host's speed before, during and after
each op.  The report also prints the raw wall seconds.  Everything runs in
this one process and thread.  The full result, stamped with the python
version, nproc, commit, seed, pass count and load average at start, is
written to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 9

sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, top_level_time  # noqa: E402

clock = time.perf_counter


def _commit() -> str:
    """HEAD from .git without running git; 'unknown' outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _import_fresh():
    """Import ellcode anew from SRC, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "ellcode" or m.startswith("ellcode.")]:
        del sys.modules[name]
    lib = workloads.import_library()
    origin = os.path.dirname(os.path.abspath(lib.gf.__file__))
    if origin != os.path.join(SRC, "ellcode"):
        raise ImportError(f"ellcode was imported from {origin}, not from {SRC}")
    return lib


def timed_setups(meter: calibrate.Meter, name: str, seed: int, workdir: str):
    """Set up SETUP_REPEATS times.

    Returns (reference times, wall times, ops), the ops from the last set-up.
    """
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        t = meter.time(lambda: workloads.build(name, _import_fresh(), seed, workdir))
        if t.error is not None:
            raise RuntimeError(t.error)
        wall.append(t.wall_s)
        scaled.append(t.s)
    return scaled, wall, t.result


class Run:
    """Timings and failures of every op of every pass of one run."""

    def __init__(self, meter: calibrate.Meter):
        self.meter = meter
        self.records: list[dict] = []     # one per op; its index is the op id
        self.passes: list[dict] = []

    def run_pass(self, ops, tracer: Tracer | None, mode: str) -> dict:
        # every pass starts from a collected heap, so no pass pays for
        # garbage that an earlier one left behind
        gc.collect()
        first = len(self.records)
        for op in ops:
            op_id = len(self.records)
            if tracer is not None:
                tracer.op = op_id
            t = self.meter.time(op.run)
            if tracer is not None:
                tracer.op = -1
            error = t.error if t.error is not None else op.check(t.result)
            if error is not None:
                print(f"# FAILED {op.name}: {error}", file=sys.stderr)
            self.records.append({"id": op_id, "pass": len(self.passes), "mode": mode,
                                 "op": op.name, "kind": op.kind, "wall_s": t.wall_s,
                                 "tick_s": t.tick_s, "s": t.s, "samples": op.samples,
                                 "error": error})
        recs = self.records[first:]
        # spans time the speed samples taken inside them too; this factor
        # brings span times to reference seconds with that share taken out
        summary = {"mode": mode,
                   "ops": {r["id"]: r["s"] / (r["wall_s"] + r["tick_s"]) for r in recs},
                   "pass_s": sum(r["s"] for r in recs),
                   "wall_pass_s": sum(r["wall_s"] for r in recs),
                   "tick_s": sum(r["tick_s"] for r in recs)}
        for kind in ("construct", "verify", "transform", "hulls"):
            mine = [r for r in recs if r["kind"] == kind]
            if mine:
                summary[f"{kind}_s"] = sum(r["s"] for r in mine)
        self.passes.append(summary)
        return summary

    def op_median_sum(self, kinds=None) -> float:
        """Seconds per untraced pass: the sum over ops of each op's median time.

        Taking the median op by op rather than over whole passes keeps one
        slow stretch of the host in one op from moving the whole pass.
        """
        times: dict[str, list[float]] = {}
        for r in self.records:
            if r["mode"] == "untraced" and (kinds is None or r["kind"] in kinds):
                times.setdefault(r["op"], []).append(r["s"])
        return sum(statistics.median(v) for v in times.values())

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["error"] is not None)


def measure_untraced(run: Run, ops, seconds: float) -> None:
    deadline = clock() + seconds
    while True:
        run.run_pass(ops, None, "untraced")
        if clock() >= deadline:
            break


def measure_traced(run: Run, ops, seconds: float, tracer: Tracer) -> dict:
    """Alternate untraced and traced passes, then run one counting pass."""
    deadline = clock() + seconds
    traced = []
    while True:
        run.run_pass(ops, None, "untraced")
        layers.install_spans(tracer)
        try:
            traced.append(run.run_pass(ops, tracer, "traced"))
        finally:
            tracer.uninstall()
        if clock() >= deadline:
            break
    layers.install_counters(tracer)
    try:
        run.run_pass(ops, tracer, "counted")
    finally:
        tracer.uninstall()
    per_pass = []
    for p in traced:
        m = layers.pass_metrics(tracer.spans, p["ops"])
        # spans include the speed samples taken inside them, so compare
        # with the ops' wall time including those samples
        covered = sum(top_level_time(tracer.spans, op) for op in p["ops"])
        m["trace.coverage"] = covered / (p["wall_pass_s"] + p["tick_s"])
        per_pass.append(m)
    metrics = layers.median_metrics(per_pass)
    metrics["gf.elem_ops"] = tracer.counters["gf.elem_ops"]
    metrics["curve.add_calls"] = tracer.counters["curve.add_calls"]
    untraced = [p["pass_s"] for p in run.passes if p["mode"] == "untraced"]
    metrics["trace.overhead_ratio"] = (statistics.median([p["pass_s"] for p in traced])
                                       / statistics.median(untraced))
    return {k: metrics[k] for k in layers.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    stamp = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "seconds": args.seconds, "python": platform.python_version(),
             "nproc": os.cpu_count(), "commit": _commit(),
             "loadavg_start": " ".join(f"{x:.2f}" for x in os.getloadavg())}
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    meter = calibrate.Meter()
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        try:
            setup_s, setup_wall, ops = timed_setups(meter, args.workload, args.seed,
                                                    workdir)
        except RuntimeError as exc:
            print(f"error: cannot set up {args.workload}: {exc}", file=sys.stderr)
            return 2
        for op in ops:
            if op.prepare is not None:
                op.prepare()
        run = Run(meter)
        if args.trace:
            tracer = Tracer()
            metrics = measure_traced(run, ops, args.seconds, tracer)
            units = {k: layers.PER_LAYER[k][0] for k in metrics}
            _write_spans(args, tracer, run)
        else:
            measure_untraced(run, ops, args.seconds)
            metrics = {"pass_s": run.op_median_sum(),
                       "setup_s": statistics.median(setup_s),
                       "peak_rss_mb":
                           resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            units = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    stamp["passes"] = len(run.passes)
    report = _report(stamp, run, {"setup_s": setup_s, "wall_setup_s": setup_wall},
                     metrics, units)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"correct": run.failed == 0, "attempted": len(run.records),
                      "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def _report(stamp, run: Run, setups: dict, metrics, units) -> dict:
    """Print the human-readable report; return the full result document."""
    print("# " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    untraced = [p for p in run.passes if p["mode"] == "untraced"]
    e2e = {}
    for key, values in setups.items():
        e2e[key] = {"median": statistics.median(values), "min": min(values),
                    "max": max(values), "n": len(values)}
    for key, kinds in (("pass_s", None), ("construct_s", ("construct",)),
                       ("verify_s", ("verify",)), ("transform_s", ("transform",)),
                       ("hulls_s", ("hulls",))):
        per_pass = [p[key] for p in untraced if key in p]
        if per_pass:
            e2e[key] = {"median": run.op_median_sum(kinds), "min": min(per_pass),
                        "max": max(per_pass), "n": len(per_pass)}
    wall = [p["wall_pass_s"] for p in untraced]
    e2e["wall_pass_s"] = {"median": statistics.median(wall), "min": min(wall),
                          "max": max(wall), "n": len(wall)}
    if "hulls_s" in e2e:
        samples = sum(r["samples"] for r in run.records if r["pass"] == 0)
        e2e["hull_samples_per_s"] = {
            k: samples / e2e["hulls_s"][v] for k, v in
            (("median", "median"), ("min", "max"), ("max", "min"))}
        e2e["hull_samples_per_s"]["n"] = e2e["hulls_s"]["n"]
    for key, s in e2e.items():
        unit = "1/s" if key.endswith("per_s") else "s"
        print(f"# {key} median={s['median']:.6g} min={s['min']:.6g} "
              f"max={s['max']:.6g} n={s['n']} {unit}")
    e2e["ops"] = len(run.records)
    e2e["ops_failed"] = run.failed
    print(f"# ops {e2e['ops']} ops_failed {e2e['ops_failed']}")
    for key, value in metrics.items():
        note = " (computed from input sizes)" if units[key].endswith("_computed") else ""
        print(f"# metric {key} = {value:.6g} {units[key]}{note}")
    return {"stamp": stamp, "end_to_end": e2e, "metrics": metrics, "units": units,
            "passes": run.passes, "ops": run.records}


def _write_spans(args, tracer: Tracer, run: Run) -> None:
    path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "work"],
                   "ops": run.records, "spans": tracer.spans,
                   "missing_targets": tracer.missing}, fh)


if __name__ == "__main__":
    sys.exit(main())
