"""Command-line front-end: construct, verify, transform, eaqecc, search.

Exit codes: 0 success, 1 verification failure, 2 usage or schema error,
for every subcommand and any input file; an output file that cannot be
written is a usage error.  `main` alone maps failures to them.  Every
certificate a subcommand names is read, parsed and verified before the
subcommand runs (`_load_certificate`), so `transform` and `eaqecc` work
only on claims that verify, and `verify` has nothing left to do but say so.
Output files are written atomically (temp file + rename) and are
byte-reproducible for identical configurations.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from typing import Optional, Sequence

from . import eaqecc, isodual, search
from ._version import __version__
from .gf import FieldSpec
from .curve import Curve
from .isodual import (ConstructionError, ConstructionInput, IsoDualCertificate,
                      PairSelection, VerificationError)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2


def _atomic_write(path: str, text: str) -> None:
    """Write `text` to a temp file beside `path`, then rename it over `path`;
    a failure names `path`, not the temp file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ellcode-")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _load_certificate(path: str) -> IsoDualCertificate:
    """The certificate at `path`, parsed and verified; `VerificationError`
    names the invariants it fails, the first one first."""
    with open(path) as handle:
        cert = IsoDualCertificate.from_json(handle.read())
    failures = isodual.verify_certificate(cert)
    if failures:
        raise VerificationError(f"{failures[0]} (all failures: {', '.join(failures)})")
    return cert


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip() != ""]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellcode",
        description="iso-dual MDS codes on elliptic curves over small fields")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="run a construction, write a certificate")
    p.add_argument("--field", required=True,
                   help="field spec, e.g. p=2,m=4,mod=1,1,0,0,1")
    p.add_argument("--curve", required=True,
                   help="a1,a2,a3,a4,a6 as canonical encodings")
    p.add_argument("--k", required=True, type=int, help="code dimension (even)")
    p.add_argument("--construction", required=True, type=int, choices=(1, 2))
    p.add_argument("--pairs-x", help="explicit pair x-coordinates, comma separated")
    p.add_argument("--p-torsion", type=int,
                   help="take the odd-order set from E[r] minus identity")
    p.add_argument("--torsion", help="construction 2 only: indices a,b of the "
                                     "2-torsion points to use (default 1,2)")
    p.add_argument("--out", default="certificate.json", help="certificate path")

    p = sub.add_parser("verify", help="re-run all invariants of a certificate")
    p.add_argument("certificate", nargs=1)

    p = sub.add_parser("transform", help="self-dual or LCD scaling of a certificate")
    p.add_argument("certificate", nargs=1)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--selfdual", action="store_true")
    group.add_argument("--lcd", action="store_true")
    p.add_argument("--budget", type=int, default=2000,
                   help="LCD search budget (hull evaluations)")
    p.add_argument("--out", help="write the transformed code as JSON")

    p = sub.add_parser("eaqecc", help="entanglement-assisted parameters of a certificate")
    p.add_argument("certificate", nargs="+")
    p.add_argument("--out", help="write the table")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("search", help="bound tables, curve census, lemma search")
    p.add_argument("--table", required=True, choices=("bounds", "census", "lemma-max"))
    p.add_argument("--q", help="comma-separated prime powers")
    p.add_argument("--achieve", action="store_true",
                   help="bounds: also construct achieving certificates")
    p.add_argument("--group", help="lemma-max: group as d1xd2, e.g. 2x6")
    p.add_argument("--n", type=int, help="lemma-max: subset size (even)")
    p.add_argument("--out", help="write the table")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _cmd_construct(args: argparse.Namespace) -> int:
    spec = FieldSpec.from_string(args.field)
    curve = Curve.from_string(spec, args.curve)
    if args.pairs_x is not None and args.p_torsion is not None:
        raise ConstructionError("--pairs-x and --p-torsion are exclusive")
    if args.pairs_x is not None:
        selection = PairSelection("pairs_x", pairs_x=tuple(_int_list(args.pairs_x)))
    elif args.p_torsion is not None:
        selection = PairSelection("torsion", r=args.p_torsion)
    else:
        selection = PairSelection()
    torsion_choice = None
    if args.torsion is not None:
        pair = _int_list(args.torsion)
        if len(pair) != 2:
            raise ConstructionError("--torsion needs exactly two indices")
        torsion_choice = (pair[0], pair[1])
    inp = ConstructionInput(curve, args.k, args.construction,
                            torsion_choice=torsion_choice,
                            pair_selection=selection)
    cert = isodual.construct(inp)
    _atomic_write(args.out, cert.to_json())
    print(f"[{cert.n},{cert.k},{cert.min_distance}] hull={cert.hull_dim} "
          f"iso_dual={str(cert.iso_dual).lower()} "
          f"mds_witness={cert.mds_subset_count} -> {args.out}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, cert: IsoDualCertificate) -> int:
    print("certificate verifies")
    return EXIT_OK


def _cmd_transform(args: argparse.Namespace, cert: IsoDualCertificate) -> int:
    if args.selfdual:
        u, code = isodual.selfdual_transform(cert)
        kind = "selfdual"
        hull = cert.k       # certified by selfdual_transform
    else:
        result = isodual.lcd_transform(cert, budget=args.budget)
        if result is None:
            print("lcd: no scaling found within budget", file=sys.stderr)
            return EXIT_VERIFY_FAIL
        u, code = result
        kind = "lcd"
        hull = 0
    if args.out:
        doc = {"transform": kind, "source_certificate_n": cert.n,
               "u": u.entries, "hull_dim": hull,
               "generator_matrix": code.matrix}
        _atomic_write(args.out, isodual.canonical_json(doc))
    print(f"{kind}: hull={hull} u={','.join(str(e) for e in u.entries)}")
    return EXIT_OK


def _write_rows(args: argparse.Namespace, rows: list[dict],
                columns: Sequence[str]) -> None:
    """A table to `--out`, when given, as `--format` CSV or JSON."""
    if args.out:
        _atomic_write(args.out, search.rows_to_csv(rows, columns)
                      if args.format == "csv" else search.rows_to_json(rows))


def _cmd_eaqecc(args: argparse.Namespace, *certs: IsoDualCertificate) -> int:
    items = [(cert, eaqecc.derive_from_certificate(cert)) for cert in certs]
    _write_rows(args, eaqecc.table_rows(items), eaqecc.TABLE_COLUMNS)
    for cert, params in items:
        print(f"{params.label()} mds={str(params.mds).lower()}")
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    if args.table == "bounds":
        if not args.q:
            raise ValueError("--q is required for the bounds table")
        qs = _int_list(args.q)
        rows = [r.to_dict() for r in
                search.bound_table(qs, achieve=args.achieve, progress=True)]
        columns = ["q", "case", "bound_n", "achieved_n", "witness"]
    elif args.table == "census":
        if not args.q:
            raise ValueError("--q is required for the census table")
        rows = search.census_rows(_int_list(args.q))
        columns = ["q", "curve", "order", "d1", "d2"]
    else:
        if not args.group or args.n is None:
            raise ValueError("lemma-max needs --group d1xd2 and --n")
        d1, d2 = (int(t) for t in args.group.lower().split("x"))
        hits = search.lemma_max_search(search.AbelianGroupSpec(d1, d2), args.n)
        rows = [{"group": f"{d1}x{d2}", "n": args.n,
                 "subset": ";".join(f"{i},{j}" for i, j in combo),
                 "g": f"{g[0]},{g[1]}"} for combo, g in hits]
        columns = ["group", "n", "subset", "g"]
    _write_rows(args, rows, columns)
    if args.table == "lemma-max":
        print(f"{len(rows)} counterexample(s)")
    if not args.out:
        for row in rows:
            print(" ".join(f"{c}={row.get(c)}" for c in columns))
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "construct": _cmd_construct,
        "verify": _cmd_verify,
        "transform": _cmd_transform,
        "eaqecc": _cmd_eaqecc,
        "search": _cmd_search,
    }
    # while the certificates load, a failure is the file's: it cannot be
    # read or parsed (2), or it fails an invariant (1); after that it is a
    # usage error (2) or a check inside the library that broke (1)
    usage, invariant = "schema error", "verification failed"
    try:
        certs = [_load_certificate(path) for path in getattr(args, "certificate", ())]
        usage, invariant = "error", "internal verification failure"
        return handlers[args.command](args, *certs)
    except VerificationError as exc:
        print(f"{invariant}: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except (OSError, ValueError) as exc:
        print(f"{usage}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
