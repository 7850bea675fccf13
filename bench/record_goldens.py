"""Record the benchmark goldens from the library as it stands.

    python3 bench/record_goldens.py

Writes bench/goldens/: the nine certificate JSONs, and manifest.json with
their sha256, the self-dual and LCD transform outputs (u, hull, sha256 of
the generator matrix) for q = 64 and 256, and the hull histograms of the
default seed.  The goldens were recorded at the commit that introduced the
benchmark; re-record only for a deliberate change of the certificate bytes.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402


def _check_pair_selections(lib) -> None:
    """The fixed q = 64 / 256 selections are what the acceptance suite finds."""
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    from test_acceptance import _leave_one_out_search
    for job, target_k in ((wl.PAPER_EVEN[2], 18), (wl.PAPER_EVEN[3], 70)):
        spec = lib.gf.FieldSpec.from_string(job.field)
        curve = lib.curve.Curve.from_string(spec, job.curve)
        cert, _ = _leave_one_out_search(curve, target_k, 2)
        if tuple(cert.pair_selection["pairs_x"]) != job.selection[2]:
            raise SystemExit(f"q={job.q}: pairs_x differs from the acceptance search")


def main() -> int:
    lib = wl.import_library()
    _check_pair_selections(lib)
    os.makedirs(wl.GOLDEN_DIR, exist_ok=True)
    manifest: dict = {"certificates": {}, "transforms": {}, "hull_histograms": {}}
    certs = {}
    for job in wl.ALL_JOBS:
        text = wl.build_certificate(lib, job, wl.selection_of(lib, job))
        name = f"q{job.q}.json"
        with open(os.path.join(wl.GOLDEN_DIR, name), "w") as fh:
            fh.write(text)
        manifest["certificates"][str(job.q)] = {"file": name, "sha256": wl.sha256(text)}
        certs[job.q] = lib.isodual.IsoDualCertificate.from_json(text)
        print(f"q={job.q} {wl.sha256(text)[:16]}")
    for q in wl.TRANSFORM_SOURCES:
        u, code = lib.isodual.selfdual_transform(certs[q])
        u_lcd, code_lcd = lib.isodual.lcd_transform(certs[q])
        manifest["transforms"][str(q)] = {
            "selfdual": {"u": list(u.entries), "hull": code.hull_dim(),
                         "matrix_sha256": wl.matrix_sha256(code.matrix)},
            "lcd": {"u": list(u_lcd.entries), "hull": code_lcd.hull_dim(),
                    "matrix_sha256": wl.matrix_sha256(code_lcd.matrix)},
        }
    hist = manifest["hull_histograms"]
    hist["seed"] = wl.DEFAULT_SEED
    hist["parts"] = {}
    codes = {q: certs[q].code() for q, _ in wl.HULL_SAMPLES}
    for q, block, part, seed in wl.sampling_jobs(wl.DEFAULT_SEED):
        got = lib.isodual.sample_scaling_hulls(codes[q], wl.HULL_TRIALS, seed=seed,
                                               block=block)
        if got != wl.hull_reference(codes[q], wl.HULL_TRIALS, block, seed):
            raise SystemExit(f"q={q}: sampler and independent recount disagree")
        hist["parts"][f"{q}/{part}"] = {str(h): c for h, c in got.items()}
        print(f"q={q} block={block} part={part} hulls {got}")
    with open(os.path.join(wl.GOLDEN_DIR, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
