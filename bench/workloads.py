"""The four benchmark workloads: their inputs, their ops and the output checks.

Each workload is built from a seed and yields the list of ops that make one
pass.  An op is timed as a whole; its check runs outside the timed region
and returns an error message, or None when the output is right.

paper-even  the q = 16, 32, 64, 256 paper certificates (characteristic 2:
            every add is an XOR; the only exhaustive distance, 16^4 words)
paper-odd   the q = 25, 49, 289 paper certificates (adds via the q x q table)
hull-scan   self-dual and LCD transforms and seeded hull sampling on codes
            loaded from the goldens: linalg only, no curve or DP work
wide-field  k = 4 on q = 729 (the 729^2 add table) and q = 1031 (above the
            add-table cap, digitwise adds; large group structure)

Paper inputs are the tests/test_acceptance.py fixtures.  For q = 64 and 256
the pair selection is the hull-2 `pairs_x` set that the acceptance suite's
`_leave_one_out_search` finds first; record_goldens.py re-derives it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional

DEFAULT_SEED = 0
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens")


@dataclass(frozen=True)
class Job:
    """One construction: field and curve strings plus the construction input."""

    q: int
    field: str
    curve: str
    k: int
    construction: int
    torsion: Optional[tuple[int, int]] = None
    selection: tuple = ("canonical", None, None)   # (mode, r, pairs_x)


P64 = (2, 5, 6, 17, 18, 19, 20, 21, 22, 32, 36, 38, 39, 48, 50, 52, 53, 54)
P256 = (3, 4, 5, 6, 7, 8, 11, 15, 16, 17, 19, 21, 24, 25, 29, 30, 64, 66, 68,
        72, 74, 75, 76, 77, 78, 80, 81, 84, 85, 86, 87, 89, 90, 91, 95, 129,
        130, 132, 135, 136, 138, 139, 141, 144, 147, 149, 150, 151, 152, 153,
        155, 157, 158, 192, 194, 196, 197, 198, 199, 200, 203, 204, 207, 208,
        211, 213, 215, 216, 218, 219)

PAPER_EVEN = (
    Job(16, "p=2,m=4,mod=1,1,0,0,1", "1,8,0,0,9", 4, 1,
        selection=("pairs_x", None, (5, 1, 2, 7))),
    Job(32, "p=2,m=5,mod=1,0,1,0,0,1", "1,1,0,0,6", 10, 1),
    Job(64, "p=2,m=6,mod=1,1,0,1,1,0,1", "1,8,0,0,9", 18, 1,
        selection=("pairs_x", None, P64)),
    Job(256, "p=2,m=8,mod=1,0,1,1,1,0,0,0,1", "1,32,0,0,50", 70, 1,
        selection=("pairs_x", None, P256)),
)
PAPER_ODD = (
    Job(25, "p=5,m=2,mod=2,4,1", "0,0,0,0,1", 8, 2, (1, 2), ("torsion", 3, None)),
    Job(49, "p=7,m=2,mod=3,6,1", "0,0,0,1,3", 14, 2, (1, 2), ("torsion", 15, None)),
    Job(289, "p=17,m=2,mod=3,16,1", "0,0,0,0,1", 80, 2, (2, 3), ("torsion", 9, None)),
)
WIDE_FIELD = (
    Job(729, "p=3,m=6,mod=2,1,0,0,0,0,1", "0,0,0,2,0", 4, 2),
    Job(1031, "p=1031,m=1,mod=0,1", "0,1028,0,2,0", 4, 2),
)
ALL_JOBS = PAPER_EVEN + PAPER_ODD + WIDE_FIELD

TRANSFORM_SOURCES = (64, 256)
# (q, block) for sample_scaling_hulls; each code gets HULL_PARTS calls of
# HULL_TRIALS trials per pass, so that no op runs long enough for the host's
# speed to change much inside it (see calibrate.py)
HULL_SAMPLES = ((256, 2), (289, 1))
HULL_TRIALS = 3
HULL_PARTS = 4


def sampling_jobs(seed: int) -> list[tuple[int, int, int, int]]:
    """(q, block, part, sampler seed) of every sampling op of one pass."""
    return [(q, block, part, seed * HULL_PARTS + part)
            for q, block in HULL_SAMPLES for part in range(HULL_PARTS)]


@dataclass
class Op:
    name: str
    kind: str                 # construct | verify | transform | hulls
    run: Callable[[], object]
    check: Optional[Callable[[object], Optional[str]]] = None
    samples: int = 0          # hull evaluations the op performs
    # one-off work after set-up and before any timing; it sets `check`
    prepare: Optional[Callable[[], None]] = None


def import_library() -> SimpleNamespace:
    """The library modules the workloads call, looked up at call time."""
    from ellcode import cli, curve, gf, isodual
    return SimpleNamespace(cli=cli, curve=curve, gf=gf, isodual=isodual)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_manifest() -> dict:
    with open(os.path.join(GOLDEN_DIR, "manifest.json")) as fh:
        return json.load(fh)


def load_golden_certificate(manifest: dict, q: int) -> str:
    entry = manifest["certificates"][str(q)]
    with open(os.path.join(GOLDEN_DIR, entry["file"])) as fh:
        text = fh.read()
    if sha256(text) != entry["sha256"]:
        raise ValueError(f"golden file {entry['file']} does not match its sha256")
    return text


def matrix_sha256(matrix) -> str:
    return sha256(json.dumps([list(r) for r in matrix], separators=(",", ":")))


def selection_of(lib, job: Job):
    mode, r, pairs_x = job.selection
    return lib.isodual.PairSelection(mode, r, pairs_x)


def build_certificate(lib, job: Job, selection) -> str:
    """Construct one certificate from its strings and return its JSON."""
    spec = lib.gf.FieldSpec.from_string(job.field)
    curve = lib.curve.Curve.from_string(spec, job.curve)
    inp = lib.isodual.ConstructionInput(curve, job.k, job.construction,
                                        torsion_choice=job.torsion,
                                        pair_selection=selection)
    return lib.isodual.construct(inp).to_json()


# -- construct-and-verify workloads (paper-even, paper-odd, wide-field) ---------

def construction_ops(lib, jobs, seed: int, workdir: str) -> list[Op]:
    manifest = load_manifest()
    order = list(jobs)
    random.Random(seed).shuffle(order)
    constructs, verifies = [], []
    for job in order:
        golden = load_golden_certificate(manifest, job.q)
        path = os.path.join(workdir, f"q{job.q}.json")
        constructs.append(Op(f"construct q={job.q}", "construct",
                             _construct_run(lib, job, selection_of(lib, job), path),
                             _golden_check(golden)))
        verifies.append(Op(f"verify q={job.q}", "verify",
                           _verify_run(lib, path), _verify_check))
    return constructs + verifies


def _construct_run(lib, job, selection, path):
    def run():
        text = build_certificate(lib, job, selection)
        with open(path, "w") as fh:
            fh.write(text)
        return text
    return run


def _golden_check(golden: str):
    def check(text):
        return None if text == golden else "certificate differs from its golden"
    return check


def _verify_run(lib, path):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = lib.cli.main(["verify", path])
        return rc, out.getvalue()
    return run


def _verify_check(result):
    rc, out = result
    if rc != 0 or out.strip() != "certificate verifies":
        return f"ellcode verify exited {rc}: {out.strip()!r}"
    return None


# -- hull-scan ------------------------------------------------------------------

def hull_ops(lib, seed: int) -> list[Op]:
    """Ops of one hull-scan pass.

    The golden certificates are parsed and their codes built here, as part
    of set-up; the ops reuse them.
    """
    manifest = load_manifest()
    certs = {q: lib.isodual.IsoDualCertificate.from_json(
                 load_golden_certificate(manifest, q))
             for q in set(TRANSFORM_SOURCES) | {q for q, _ in HULL_SAMPLES}}
    ops: list[Op] = []
    for q in TRANSFORM_SOURCES:
        golden = manifest["transforms"][str(q)]
        ops.append(Op(f"selfdual q={q}", "transform",
                      _selfdual_run(lib, certs[q]), _transform_check(golden["selfdual"])))
        ops.append(Op(f"lcd q={q}", "transform",
                      _lcd_run(lib, certs[q]), _transform_check(golden["lcd"])))
    golden = manifest["hull_histograms"]
    codes = {q: certs[q].code() for q, _ in HULL_SAMPLES}
    for q, block, part, op_seed in sampling_jobs(seed):
        expected = None
        if seed == golden["seed"]:
            expected = {int(h): c for h, c in golden["parts"][f"{q}/{part}"].items()}
        ops.append(_sampling_op(lib, codes[q], block, part, op_seed, expected))
    return ops


def _sampling_op(lib, code, block, part, seed, expected) -> Op:
    def run():
        return lib.isodual.sample_scaling_hulls(code, HULL_TRIALS, seed=seed,
                                                block=block)

    op = Op(f"hulls q={code.spec.q} block={block} part={part}", "hulls", run,
            samples=HULL_TRIALS)

    def prepare():
        op.check = _hull_check(hull_reference(code, HULL_TRIALS, block, seed),
                               expected)

    op.prepare = prepare
    return op


def _selfdual_run(lib, cert):
    def run():
        u, code = lib.isodual.selfdual_transform(cert)
        return u.entries, code.matrix
    return run


def _lcd_run(lib, cert):
    def run():
        result = lib.isodual.lcd_transform(cert)
        if result is None:
            return None
        u, code = result
        return u.entries, code.matrix
    return run


def _transform_check(golden: dict):
    def check(result):
        if result is None:
            return "no scaling found"
        u, matrix = result
        if list(u) != golden["u"] or matrix_sha256(matrix) != golden["matrix_sha256"]:
            return "transform output differs from its golden"
        return None
    return check


def hull_reference(code, trials: int, block: int, seed: int) -> dict[int, int]:
    """The hull histogram of `sample_scaling_hulls`, recomputed independently.

    The scaling vectors are drawn exactly as the sampler draws them (one
    `randrange(1, q)` per block, repeated over the block).  The hull of u.C
    is then k - rank(G diag(u^2) G^T) for the stored RREF generator G,
    formed and ranked here with the field's `*_enc` arithmetic, without the
    library's scale, gram or rref.
    """
    spec, matrix = code.spec, code.matrix
    mul, add, sub, inv = spec.mul_enc, spec.add_enc, spec.sub_enc, spec.inv_enc
    rng = random.Random(seed)
    out: dict[int, int] = {}
    for _ in range(trials):
        u: list[int] = []
        for _ in range(code.n // block):
            u.extend([rng.randrange(1, spec.q)] * block)
        w = [mul(x, x) for x in u]
        scaled = [[mul(g, wj) for g, wj in zip(row, w)] for row in matrix]
        k = len(matrix)
        gram = [[0] * k for _ in range(k)]
        for i in range(k):
            si = scaled[i]
            for j in range(i, k):
                acc = 0
                for a, b in zip(si, matrix[j]):
                    if a and b:
                        acc = add(acc, mul(a, b))
                gram[i][j] = gram[j][i] = acc
        h = k - _rank(gram, mul, sub, inv)
        out[h] = out.get(h, 0) + 1
    return dict(sorted(out.items()))


def _rank(rows: list[list[int]], mul, sub, inv) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pinv = inv(rows[rank][c])
        prow = [mul(x, pinv) for x in rows[rank]]
        rows[rank] = prow
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [sub(x, mul(f, y)) for x, y in zip(rows[i], prow)]
        rank += 1
    return rank


def _hull_check(reference: dict[int, int], expected: Optional[dict[int, int]]):
    def check(hist):
        if hist != reference:
            return f"hull histogram {hist} != independent recount {reference}"
        if expected is not None and hist != expected:
            return f"hull histogram {hist} != golden {expected}"
        return None
    return check


# -- registry -------------------------------------------------------------------

CONSTRUCTION_WORKLOADS = {
    "paper-even": PAPER_EVEN,
    "paper-odd": PAPER_ODD,
    "wide-field": WIDE_FIELD,
}
WORKLOADS = sorted([*CONSTRUCTION_WORKLOADS, "hull-scan"])


def build(name: str, lib, seed: int, workdir: str) -> list[Op]:
    """The ops of one pass of workload `name`."""
    if name == "hull-scan":
        return hull_ops(lib, seed)
    return construction_ops(lib, CONSTRUCTION_WORKLOADS[name], seed, workdir)
