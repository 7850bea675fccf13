"""Property test: `ellcode verify` on mutated q = 16, 25, 256, 289, 729
and 1031 certificates.

Whatever the mutation, the exit code means what it says (0 verified,
1 invariant failed, 2 usage or schema error), `eaqecc` and `transform`
exit with the same code on the same file, nothing escapes as a traceback,
and a file that verifies is exactly the canonical serialisation of what
was read from it and what `construct` writes for its input echo.  On a
tweaked file, `cert.code()` in process fails as verify does: a schema
error exactly when verify raises one, otherwise verify's first failure
when it lies in the code's prefix of the table, and it returns the code
when verify lists no failure there; a tweak that moves a point onto Qa,
the pole of u, must not escape as a `FunctionError`.  The q = 16 file is
characteristic 2 with an exhaustive distance and the packed kernels, and
the q = 256 file (k = 70) runs them at scale; the q = 25 golden reaches
the odd routes: the add table, the Berlekamp-Massey hull, the MDS witness's
2-primary quotient and, where a tweak moves G to a target the quotient
reaches, the full witness.  Where a
tweak moves a point off the pairs, the moments leave both Hankel shapes
and `hull` fails with no G G^T formed; where it permutes the points or
swaps a first-k point with a later one, the first k points are no longer
whole pairs, so the closed form gives no code and the invariants that
read it fail, with no RREF of the evaluated basis.  The q = 289 golden
(k = 80) is the one that ranks its hulls on the generator route.  The
q = 1031 golden lies above the add-table cap, so its adds go mod p: the
same tweaks reach the mod-p branches of `hankel_rank`, `point_moments`
and v.  The q = 729 golden (k = 4) is too small for its op to ask for the
add table, so the same tweaks run those branches on `gf._split_add`.
"""

import contextlib
import copy
import dataclasses
import io
import json
import os
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellcode import Curve, FieldSpec, code, gf, isodual, linalg
from ellcode.cli import main
from ellcode.isodual import (CertificateSchemaError, ConstructionInput,
                             IsoDualCertificate, PairSelection, VerificationError,
                             construct, verify_certificate)

INT_FIELDS = ("construction", "k", "n", "hull_dim", "mds_subset_count",
              "min_distance")
LIST_FIELDS = ("points", "g_divisor", "generator_matrix", "scaling_v")
KEYS = INT_FIELDS + LIST_FIELDS + (
    "schema", "tool_version", "field", "curve", "torsion_choice",
    "pair_selection", "min_distance_method", "iso_dual")

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-(2 ** 70), 2 ** 70),
    st.floats(allow_nan=False), st.text(max_size=4),
    st.lists(st.integers(-2, 20), max_size=3), st.just({}))
# three in four values keep the type, and three in four edits change an
# integer or a list entry, so about half of the files reach the invariants
VALUE = st.sampled_from([st.integers(-1, 20)] * 3 + [JUNK]).flatmap(lambda s: s)
EDITS = st.tuples(
    st.sampled_from(["list_entry"] * 3 + ["int_field"] * 3 + ["type_swap", "drop_key"]),
    st.integers(0, 10 ** 6), VALUE, JUNK)


GOLDENS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "goldens")
GOLDEN25 = os.path.join(GOLDENS, "q25.json")


@pytest.fixture(scope="module")
def cert16_doc(cert16):
    return json.loads(cert16.to_json())


@pytest.fixture(scope="module")
def cert25_doc():
    with open(GOLDEN25) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def cert1031_doc():
    with open(os.path.join(GOLDENS, "q1031.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def e1031(cert1031_doc):
    return _curve(cert1031_doc)


@pytest.fixture(scope="module")
def cert729_doc():
    with open(os.path.join(GOLDENS, "q729.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def e729(cert729_doc):
    return _curve(cert729_doc)


@pytest.fixture(scope="module")
def cert256_doc():
    with open(os.path.join(GOLDENS, "q256.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def e256(cert256_doc):
    return _curve(cert256_doc)


@pytest.fixture(scope="module")
def cert289_doc():
    with open(os.path.join(GOLDENS, "q289.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def e289(cert289_doc):
    return _curve(cert289_doc)


def _curve(doc):
    return Curve.from_string(FieldSpec.from_string(doc["field"]), doc["curve"])


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _entry_paths(value, path=()):
    """Index paths of the scalars inside nested lists."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _entry_paths(item, path + (i,))
    else:
        yield path


def _apply(doc, edits):
    """(kind, index, value, junk) edits: set an integer field or a nested
    list entry to value, swap a top-level value for junk, or drop a key;
    index picks the field, key or entry."""
    doc = copy.deepcopy(doc)
    for kind, index, value, junk in edits:
        if kind == "int_field":
            doc[INT_FIELDS[index % len(INT_FIELDS)]] = value
        elif kind == "type_swap":
            doc[KEYS[index % len(KEYS)]] = junk
        elif kind == "drop_key":
            doc.pop(KEYS[index % len(KEYS)], None)
        else:
            key = LIST_FIELDS[index % len(LIST_FIELDS)]
            paths = [p for p in _entry_paths(doc.get(key)) if p]
            if paths:
                *parents, last = paths[index // len(LIST_FIELDS) % len(paths)]
                target = doc[key]
                for i in parents:
                    target = target[i]
                target[last] = value
    return doc


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _exit_code(argv) -> int:
    """`main`'s exit code, which a traceback on stderr must not accompany."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code


def _verify_exit_means_what_it_says(work_dir, doc) -> int:
    """Exit 0, 1 or 2 with no traceback, and `eaqecc` and `transform --lcd`
    exit as `verify` does; on 0 the file is its own canonical serialisation
    and what `construct` writes for its input echo.  Returns the code."""
    text = _canonical(doc)
    path = work_dir / "c.json"
    path.write_text(text)
    code = _exit_code(["verify", str(path)])
    assert code in (0, 1, 2)
    assert _exit_code(["eaqecc", str(path)]) == code
    assert _exit_code(["transform", str(path), "--lcd"]) == code
    if code == 0:
        cert = IsoDualCertificate.from_json(text)
        assert cert.to_json() == text
        # verify leaves tool_version free, so it comes from the file
        sel = cert.pair_selection
        pairs_x = sel["pairs_x"] and tuple(sel["pairs_x"])
        made = construct(ConstructionInput(
            cert.curve(), cert.k, cert.construction, cert.torsion_choice,
            PairSelection(sel["mode"], sel["r"], pairs_x)))
        made = dataclasses.replace(made, tool_version=cert.tool_version)
        assert made.to_json() == text
    return code


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(edits=st.lists(EDITS, min_size=1, max_size=2))
def test_verify_exit_codes_on_mutated_certificates(cert16_doc, work_dir, edits):
    _verify_exit_means_what_it_says(work_dir, _apply(cert16_doc, edits))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(edits=st.lists(EDITS, min_size=1, max_size=2))
def test_verify_exit_codes_on_mutated_q25_certificates(cert25_doc, work_dir, edits):
    _verify_exit_means_what_it_says(work_dir, _apply(cert25_doc, edits))


# edits that keep every value valid and often the code too: two entries of
# a list swapped, a field or curve number respelled with a space or a
# leading zero, a zero-multiplicity G entry appended, every v entry times
# a constant other than 1 (which keeps G diag(v) G^T = 0), another
# tool_version; and two that keep the file well formed but move it off the
# closed form: one permutation of the points, G's columns and v together,
# and a first-k point swapped with a later one; one that puts a point
# on Qa, at the pole of u, where the closed form cannot evaluate; and one
# that sets a curve coefficient to a value in [0, q], so that some files
# name a value out of range or a singular curve (a schema error) and the
# rest another curve, which the invariants judge
KINDS = ["swap", "respell", "zero_entry", "scale_v", "version", "permute",
         "swap_first_k", "onto_qa", "coeff"]
TWEAKS = st.tuples(st.sampled_from(KINDS), st.integers(0, 10 ** 6),
                   st.integers(0, 10 ** 6))
# the q = 25 file may also move G's point to another rational 2-torsion
# point, a target the MDS witness's 2-primary quotient can reach, so the
# full witness runs, or move a point to a curve point on an unused x,
# which leaves both Hankel shapes of the hull's moment Gram
TWEAKS25 = st.tuples(st.sampled_from(KINDS + ["torsion", "off_x"]),
                     st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
SWAPPABLE = ("points", "g_divisor", "generator_matrix", "scaling_v")


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(edits=st.lists(EDITS, min_size=1, max_size=2))
def test_verify_exit_codes_on_mutated_q256_certificates(cert256_doc, work_dir, edits):
    _verify_exit_means_what_it_says(work_dir, _apply(cert256_doc, edits))


# the q = 729 and 1031 witnesses read the dlogs the derivation's walks
# entered, and a mutated point or G off them makes the witness walk E(F_q)
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(edits=st.lists(EDITS, min_size=1, max_size=2))
def test_verify_exit_codes_on_mutated_q729_certificates(cert729_doc, work_dir, edits):
    _verify_exit_means_what_it_says(work_dir, _apply(cert729_doc, edits))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(edits=st.lists(EDITS, min_size=1, max_size=2))
def test_verify_exit_codes_on_mutated_q1031_certificates(cert1031_doc, work_dir, edits):
    _verify_exit_means_what_it_says(work_dir, _apply(cert1031_doc, edits))


def _tweak(doc, tweaks, curve):
    doc = copy.deepcopy(doc)
    spec = curve.spec
    for kind, i, j in tweaks:
        if kind == "swap":
            target = doc[SWAPPABLE[i % len(SWAPPABLE)]]
            a, b = i // len(SWAPPABLE) % len(target), j % len(target)
            target[a], target[b] = target[b], target[a]
        elif kind == "respell":
            key = ("field", "curve")[i % 2]
            starts = [m.start() for m in re.finditer(r"(?<![0-9])[0-9]", doc[key])]
            at = starts[j % len(starts)]
            doc[key] = doc[key][:at] + " 0"[i // 2 % 2] + doc[key][at:]
        elif kind == "zero_entry":
            doc["g_divisor"].append([doc["points"][i % len(doc["points"])], 0])
        elif kind == "scale_v":
            c = 2 + i % (spec.q - 2)
            doc["scaling_v"] = [spec.mul_enc(c, e) for e in doc["scaling_v"]]
        elif kind == "torsion":
            torsion = [[p.x.enc, p.y.enc] for p in curve.torsion_points(2)
                       if not p.is_infinity]
            entries = [e for e in doc["g_divisor"] if e[0] in torsion]
            others = [t for t in torsion if t not in [e[0] for e in entries]]
            for e in entries:
                e[0] = others[i % len(others)]
        elif kind == "permute":
            order = list(range(len(doc["points"])))
            random.Random(i).shuffle(order)
            for key in ("points", "scaling_v"):
                doc[key] = [doc[key][c] for c in order]
            doc["generator_matrix"] = [[row[c] for c in order]
                                       for row in doc["generator_matrix"]]
        elif kind == "onto_qa":
            qa = next(pt for pt, _ in doc["g_divisor"] if pt is not None)
            doc["points"][i % len(doc["points"])] = list(qa)
        elif kind == "swap_first_k":
            points, k = doc["points"], doc["k"]
            a, b = i % k, k + j % (len(points) - k)
            points[a], points[b] = points[b], points[a]
        elif kind == "coeff":
            coeffs = doc["curve"].split(",")
            coeffs[i % 5] = str(j % (spec.q + 1))
            doc["curve"] = ",".join(coeffs)
        elif kind == "off_x":
            used = {x for x, _ in doc["points"]}
            free = [[p.x.enc, p.y.enc] for p in curve.points()
                    if not p.is_infinity and p.y.enc and p.x.enc not in used]
            doc["points"][i % len(doc["points"])] = free[j % len(free)]
        else:
            doc["tool_version"] = str(i)
    return doc


@pytest.mark.parametrize("i, j, code", [(4, 0, 2), (4, 25, 2), (3, 1, 1), (0, 0, 0)])
def test_q25_coefficient_tweak_exits_as_the_curve_reads(cert25_doc, e25, work_dir, i, j,
                                                       code):
    # a6 = 0 makes y^2 = x^3, which is singular, and a6 = 25 lies out of
    # range: both are schema errors; a4 = 1 names another nonsingular curve,
    # off which the file's points lie; a1 = 0 leaves the file as it was
    doc = _tweak(cert25_doc, [("coeff", i, j)], e25)
    assert _verify_exit_means_what_it_says(work_dir, doc) == code


def _code_fails_as_verify_does(doc):
    """`cert.code()` on a fresh parse raises only what verify's outcome
    says: `CertificateSchemaError` exactly when verify raises one, and
    otherwise `VerificationError` naming verify's first failure when that
    lies in `_CODE_INVARIANTS`, the table's prefix, or no error when it
    lists no failure there."""
    text = _canonical(doc)
    cert = IsoDualCertificate.from_json(text)
    try:
        failures = verify_certificate(IsoDualCertificate.from_json(text))
    except CertificateSchemaError:
        with pytest.raises(CertificateSchemaError):
            cert.code()
        return
    prefix = [name for name, _ in isodual._CODE_INVARIANTS]
    first = failures[0] if failures and failures[0] in prefix else None
    if first is None:
        assert cert.code().matrix == cert.generator_matrix
    else:
        with pytest.raises(VerificationError, match=f"invariant {first} failed"):
            cert.code()


def _tweaked_file_means_what_it_says(work_dir, doc):
    _verify_exit_means_what_it_says(work_dir, doc)
    _code_fails_as_verify_does(doc)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(tweaks=st.lists(TWEAKS, min_size=1, max_size=2))
def test_verified_tweaked_certificate_is_what_construct_writes(cert16_doc, e16, work_dir,
                                                              tweaks):
    _tweaked_file_means_what_it_says(work_dir, _tweak(cert16_doc, tweaks, e16))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(tweaks=st.lists(TWEAKS25, min_size=1, max_size=2))
def test_verified_tweaked_q25_certificate_is_what_construct_writes(cert25_doc, e25,
                                                                  work_dir, tweaks):
    _tweaked_file_means_what_it_says(work_dir, _tweak(cert25_doc, tweaks, e25))


def _calls(monkeypatch, module, name):
    """The argument tuples of every later call of `module.name`."""
    calls, fn = [], getattr(module, name)

    def recorded(*args):
        calls.append(args)
        return fn(*args)
    monkeypatch.setattr(module, name, recorded)
    return calls


def test_q25_torsion_tweak_pays_for_the_full_witness(cert25_doc, e25, work_dir,
                                                     monkeypatch):
    # G's point moved from (4, 0) to (19, 0), which the quotient Z/2 x Z/2
    # reaches: each command runs the witness once there and once on Z/6 x Z/6
    doc = _tweak(cert25_doc, [("torsion", 1, 0)], e25)
    assert doc["g_divisor"][1][0] == [19, 0]
    calls = _calls(monkeypatch, code, "subset_sum_reachable")
    assert _verify_exit_means_what_it_says(work_dir, doc) == 1
    assert [args[2:] for args in calls] == [(2, 2), (6, 6)] * 3


def _failures(doc):
    return verify_certificate(IsoDualCertificate.from_json(_canonical(doc)))


def test_q25_off_x_tweak_fails_hull_with_no_gram(cert25_doc, e25, work_dir, monkeypatch,
                                                 no_rref_or_gram):
    # point 9 moved to (0, 1), on an unused x: the moments leave both Hankel
    # shapes, so `hull` fails in each command with no Hankel rank, no hull
    # cross-check and no G G^T
    doc = _tweak(cert25_doc, [("off_x", 9, 0)], e25)
    assert doc["points"][9] == [0, 1]
    hankel = _calls(monkeypatch, linalg, "hankel_rank")
    hulls = _calls(monkeypatch, code.LinearCode, "hull_dim")
    assert _verify_exit_means_what_it_says(work_dir, doc) == 1
    assert "hull" in _failures(doc)
    assert hankel == [] and hulls == []


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(tweaks=st.lists(TWEAKS, min_size=1, max_size=2))
def test_verified_tweaked_q256_certificate_is_what_construct_writes(cert256_doc, e256,
                                                                   work_dir, tweaks):
    _tweaked_file_means_what_it_says(work_dir, _tweak(cert256_doc, tweaks, e256))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(tweaks=st.lists(TWEAKS25, min_size=1, max_size=2))
def test_verified_tweaked_q1031_certificate_is_what_construct_writes(cert1031_doc, e1031,
                                                                    work_dir, tweaks):
    _tweaked_file_means_what_it_says(work_dir, _tweak(cert1031_doc, tweaks, e1031))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(tweaks=st.lists(TWEAKS25, min_size=1, max_size=2))
def test_verified_tweaked_q729_certificate_is_what_construct_writes(cert729_doc, e729,
                                                                   work_dir, tweaks):
    # k = 4 over GF(729) asks for no add table: every command adds by the
    # split over two GF(27) tables, and none builds the 729 x 729 one
    def small_only(p, m):
        assert p ** m < 729, "the 729 x 729 add table was built"
        return real(p, m)

    real = gf._addition_table
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gf, "_addition_table", small_only)
        _tweaked_file_means_what_it_says(work_dir, _tweak(cert729_doc, tweaks, e729))


OFF_X_1031_FAILURES = ["x_pairs", "matrix_rref", "iso_dual_identity", "scaling_matches_points",
                       "points_match_input", "mds_witness", "hull"]


def test_q1031_off_x_tweak_fails_hull_with_no_gram(cert1031_doc, e1031, work_dir,
                                                  monkeypatch, no_rref_or_gram):
    # point 3 moved off the pairs, to (3, 359), above the add-table cap:
    # there is no code, since the first pair is split, and `hull` fails in
    # each command with no Hankel rank, no hull cross-check and no G G^T.
    # (3, 359) has order 129, so the witness reads its dlog from the walk of
    # E[129] that the derivation ran, and no command walks E(F_q)
    doc = _tweak(cert1031_doc, [("off_x", 3, 0)], e1031)
    assert e1031.spec.add_table() is None and doc["points"][3] == [3, 359]
    hankel = _calls(monkeypatch, linalg, "hankel_rank")
    hulls = _calls(monkeypatch, code.LinearCode, "hull_dim")
    walks = _calls(monkeypatch, Curve, "group_structure")
    assert _verify_exit_means_what_it_says(work_dir, doc) == 1
    assert _failures(doc) == OFF_X_1031_FAILURES
    assert hankel == [] and hulls == [] and walks == []


def test_q1031_off_x_tweak_off_the_walks_pays_for_the_full_walk(cert1031_doc, e1031,
                                                                  work_dir, monkeypatch):
    # point 3 moved to (4, 313), of order 258: off the derivation's walks of
    # E[2] and E[129] and their translates, so each command's witness walks
    # E(F_q) once, and the file fails as the one above does
    doc = _tweak(cert1031_doc, [("off_x", 3, 2)], e1031)
    assert doc["points"][3] == [4, 313] and e1031.point_order(e1031._point((4, 313))) == 258
    walks = _calls(monkeypatch, Curve, "group_structure")
    assert _verify_exit_means_what_it_says(work_dir, doc) == 1
    assert _failures(doc) == OFF_X_1031_FAILURES and len(walks) == 4


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(tweaks=st.lists(TWEAKS25, min_size=1, max_size=2))
def test_verified_tweaked_q289_certificate_is_what_construct_writes(cert289_doc, e289,
                                                                   work_dir, tweaks):
    _tweaked_file_means_what_it_says(work_dir, _tweak(cert289_doc, tweaks, e289))


def test_q289_first_point_off_x_exits_1_with_no_rref_or_gram(cert289_doc, e289,
                                                              work_dir, no_rref_or_gram):
    # the first point moved to a curve point on an unused x: the first pair
    # is split, so there is no code; each command exits 1 with neither an
    # RREF of the evaluated basis nor a G G^T
    doc = _tweak(cert289_doc, [("off_x", 0, 0)], e289)
    assert doc["points"][0] != cert289_doc["points"][0]
    assert _verify_exit_means_what_it_says(work_dir, doc) == 1
    assert _failures(doc) == ["x_pairs", "matrix_rref", "iso_dual_identity",
                              "scaling_matches_points", "points_match_input",
                              "mds_witness", "hull"]
