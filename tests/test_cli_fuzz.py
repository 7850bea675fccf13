"""Property test: `ellcode verify` on mutated q = 16 certificates.

Whatever the mutation, the exit code means what it says (0 verified,
1 invariant failed, 2 usage or schema error), `eaqecc` and `transform`
exit with the same code on the same file, nothing escapes as a traceback,
and a file that verifies is exactly the canonical serialisation of what
was read from it and what `construct` writes for its input echo.
"""

import contextlib
import copy
import dataclasses
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellcode import FieldSpec
from ellcode.cli import main
from ellcode.isodual import (ConstructionInput, IsoDualCertificate,
                             PairSelection, construct)

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


@pytest.fixture(scope="module")
def cert16_doc(cert16):
    return json.loads(cert16.to_json())


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


def _verify_exit_means_what_it_says(work_dir, doc):
    """Exit 0, 1 or 2 with no traceback, and `eaqecc` and `transform --lcd`
    exit as `verify` does; on 0 the file is its own canonical serialisation
    and what `construct` writes for its input echo."""
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


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(edits=st.lists(EDITS, min_size=1, max_size=2))
def test_verify_exit_codes_on_mutated_certificates(cert16_doc, work_dir, edits):
    _verify_exit_means_what_it_says(work_dir, _apply(cert16_doc, edits))


# edits that keep every value valid and often the code too: two entries of
# a list swapped, a field or curve number respelled with a space or a
# leading zero, a zero-multiplicity G entry appended, every v entry times
# a constant other than 1 (which keeps G diag(v) G^T = 0), another
# tool_version
TWEAKS = st.tuples(st.sampled_from(["swap", "respell", "zero_entry", "scale_v",
                                    "version"]),
                   st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
SWAPPABLE = ("points", "g_divisor", "generator_matrix", "scaling_v")
F16 = FieldSpec.from_string("p=2,m=4,mod=1,1,0,0,1")


def _tweak(doc, tweaks):
    doc = copy.deepcopy(doc)
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
            c = 2 + i % (F16.q - 2)
            doc["scaling_v"] = [F16.mul_enc(c, e) for e in doc["scaling_v"]]
        else:
            doc["tool_version"] = str(i)
    return doc


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(tweaks=st.lists(TWEAKS, min_size=1, max_size=2))
def test_verified_tweaked_certificate_is_what_construct_writes(cert16_doc, work_dir,
                                                              tweaks):
    _verify_exit_means_what_it_says(work_dir, _tweak(cert16_doc, tweaks))
