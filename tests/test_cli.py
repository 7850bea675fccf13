import hashlib
import json
import os
import stat
import time

import pytest

from ellcode import Curve, FieldSpec, cli, funcspace, isodual
from ellcode.cli import main

FIELD16 = "p=2,m=4,mod=1,1,0,0,1"
CURVE16 = "1,8,0,0,9"
FIELD25 = "p=5,m=2,mod=2,4,1"
CURVE25 = "0,0,0,0,1"


def _construct16(path):
    return main(["construct", "--field", FIELD16, "--curve", CURVE16,
                 "--k", "4", "--construction", "1", "--pairs-x", "5,1,2,7",
                 "--out", str(path)])


def test_construct_example_iv1(tmp_path, capsys):
    out = tmp_path / "c16.json"
    assert _construct16(out) == 0
    printed = capsys.readouterr().out
    assert "[8,4,5]" in printed and "hull=0" in printed
    doc = json.loads(out.read_text())
    assert doc["n"] == 8 and doc["hull_dim"] == 0


def test_construct_example_v1(tmp_path, capsys):
    out = tmp_path / "c25.json"
    code = main(["construct", "--field", FIELD25, "--curve", CURVE25,
                 "--k", "8", "--construction", "2", "--out", str(out)])
    assert code == 0
    assert "[16,8,9]" in capsys.readouterr().out


def test_construct_missing_k_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--field", FIELD16, "--curve", CURVE16,
              "--construction", "1"])
    assert exc.value.code == 2


def test_construct_bad_k_exit_2(tmp_path, capsys):
    code = main(["construct", "--field", FIELD16, "--curve", CURVE16,
                 "--k", "3", "--construction", "1",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--pairs-x", "5,1,2,7"]],
                         ids=["alone", "with-pairs-x"])
def test_construct_p_torsion_zero_exit_2(tmp_path, capsys, extra):
    out = tmp_path / "x.json"
    code = main(["construct", "--field", FIELD16, "--curve", CURVE16,
                 "--k", "4", "--construction", "1", "--p-torsion", "0",
                 *extra, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert ("exclusive" if extra else "needs an odd r >= 1") in err
    assert not out.exists()


@pytest.mark.parametrize("extra, message", [
    ([], "needs x-coordinates"),
    (["--p-torsion", "3"], "exclusive"),
], ids=["alone", "with-p-torsion"])
def test_construct_empty_pairs_x_exit_2(tmp_path, capsys, extra, message):
    out = tmp_path / "x.json"
    code = main(["construct", "--field", FIELD16, "--curve", CURVE16,
                 "--k", "4", "--construction", "1", "--pairs-x", "",
                 *extra, "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_construct_empty_torsion_exit_2(tmp_path, capsys):
    out = tmp_path / "x.json"
    code = main(["construct", "--field", FIELD25, "--curve", CURVE25,
                 "--k", "4", "--construction", "2", "--torsion", "",
                 "--out", str(out)])
    assert code == 2
    assert "--torsion needs exactly two indices" in capsys.readouterr().err
    assert not out.exists()


def test_construct_1_with_torsion_exit_2(tmp_path, capsys):
    out = tmp_path / "x.json"
    code = main(["construct", "--field", FIELD16, "--curve", CURVE16,
                 "--k", "4", "--construction", "1", "--torsion", "1,2",
                 "--out", str(out)])
    assert code == 2
    assert "takes no torsion choice" in capsys.readouterr().err
    assert not out.exists()


def test_construct_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert _construct16(a) == 0
    assert _construct16(b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "c.json"
    _construct16(out)
    assert main(["verify", str(out)]) == 0


def test_verify_detects_tampered_matrix(tmp_path, capsys):
    out = tmp_path / "c.json"
    _construct16(out)
    doc = json.loads(out.read_text())
    row = list(doc["generator_matrix"][2])
    row[6] = (row[6] + 1) % 16
    doc["generator_matrix"][2] = row
    out.write_text(json.dumps(doc))
    assert main(["verify", str(out)]) == 1
    assert "verification failed" in capsys.readouterr().err


def test_verify_zeroed_scaling_is_schema_error(tmp_path, capsys):
    out = tmp_path / "c.json"
    _construct16(out)
    doc = json.loads(out.read_text())
    doc["scaling_v"][3] = 0
    out.write_text(json.dumps(doc))
    assert main(["verify", str(out)]) == 2
    assert "schema error" in capsys.readouterr().err


def _ragged(doc):
    doc["generator_matrix"][1] = doc["generator_matrix"][1][:-1]


HOSTILE = {
    "points-null": lambda doc: doc.update(points=None),
    # a string where a list belongs must not be read as an empty list
    "points-empty-string": lambda doc: doc.update(points=""),
    "matrix-empty-string": lambda doc: doc.update(generator_matrix=""),
    "g-divisor-empty-string": lambda doc: doc.update(g_divisor=""),
    "point-encoding-99": lambda doc: doc["points"][0].__setitem__(0, 99),
    "scaling-encoding-99": lambda doc: doc["scaling_v"].__setitem__(0, 99),
    "ragged-matrix": _ragged,
    "field-not-string": lambda doc: doc.update(field=5),
    "tool-version-not-string": lambda doc: doc.update(tool_version=5),
    "tool-version-null": lambda doc: doc.update(tool_version=None),
    "unknown-distance-method": lambda doc: doc.update(min_distance_method="bogus"),
    # verify compares the matrix as written, so only its own encoding
    # check keeps these from reading as a mere mismatch (exit 1)
    "matrix-encoding-16": lambda doc: doc["generator_matrix"][0].__setitem__(5, 16),
    "matrix-encoding-255": lambda doc: doc["generator_matrix"][0].__setitem__(5, 255),
    "matrix-encoding-256": lambda doc: doc["generator_matrix"][0].__setitem__(5, 256),
    "matrix-encoding-negative": lambda doc: doc["generator_matrix"][0].__setitem__(5, -1),
    "g-divisor-encoding-99": lambda doc: doc["g_divisor"][1][0].__setitem__(0, 99),
    # field and curve are checked as construct spells them, so every file
    # that verifies names its curve in one way only
    "field-spaced": lambda doc: doc.update(field="p=2, m=4, mod=1,1,0,0,1"),
    "field-modulus-unreduced": lambda doc: doc.update(field="p=2,m=4,mod=3,1,0,0,1"),
    "curve-spaced": lambda doc: doc.update(curve="1, 8,0,0,9"),
    "curve-leading-zero": lambda doc: doc.update(curve="1,8,0,0,09"),
}


# every subcommand that reads a certificate, as its arguments after the path
READERS = {"verify": ["verify"], "transform-lcd": ["transform", "--lcd"],
           "transform-selfdual": ["transform", "--selfdual"], "eaqecc": ["eaqecc"]}


def _read(command, path):
    return main([command[0], str(path), *command[1:]])


# verify's cases keep the ids they had before the other readers joined
@pytest.mark.parametrize("mutate, command", [
    pytest.param(mutate, command, id=name + ("" if key == "verify" else f"-{key}"))
    for name, mutate in HOSTILE.items() for key, command in READERS.items()])
def test_verify_hostile_certificate_is_schema_error(tmp_path, capsys, mutate,
                                                     command):
    out = tmp_path / "c.json"
    _construct16(out)
    doc = json.loads(out.read_text())
    mutate(doc)
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert _read(command, out) == 2
    err = capsys.readouterr().err
    assert "schema error" in err and "Traceback" not in err


def test_verify_oversized_field_is_schema_error(tmp_path, capsys):
    out = tmp_path / "c.json"
    _construct16(out)
    doc = json.loads(out.read_text())
    doc["field"] = "p=1000003,m=1,mod=0,1"
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 2
    err = capsys.readouterr().err
    assert "schema error" in err and "Traceback" not in err


def test_verify_rejects_dp_claim_within_budget(tmp_path, capsys):
    out = tmp_path / "c.json"
    _construct16(out)
    doc = json.loads(out.read_text())
    doc["min_distance_method"] = "dp"
    out.write_text(json.dumps(doc))
    assert main(["verify", str(out)]) == 1
    assert "verification failed: min_distance" in capsys.readouterr().err


HEADER_TAMPERS = {
    "construction_matches_field": lambda doc: doc.update(construction=0),
    "iso_dual_claimed": lambda doc: doc.update(iso_dual=False),
    "pair_selection_well_formed": lambda doc: doc.update(pair_selection=True),
}


@pytest.mark.parametrize("name, mutate", HEADER_TAMPERS.items(),
                         ids=HEADER_TAMPERS.keys())
def test_verify_unchecked_header_fields_exit_1(tmp_path, capsys, name, mutate):
    out = tmp_path / "c.json"
    _construct16(out)
    doc = json.loads(out.read_text())
    mutate(doc)
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1
    assert f"verification failed: {name} " in capsys.readouterr().err


def test_verify_missing_file(capsys):
    assert main(["verify", "/nonexistent/cert.json"]) == 2


# files no certificate can be parsed from: not UTF-8, arrays nested past the
# parser's recursion limit, an integer past Python's digit limit
UNPARSABLE = {"not-utf8": b"\xff\xfe",
              "nested-too-deep": b"[" * 10 ** 5 + b"]" * 10 ** 5,
              "integer-too-long": b'{"k": ' + b"1" * 5000 + b"}"}


@pytest.mark.parametrize("command", READERS.values(), ids=READERS.keys())
@pytest.mark.parametrize("content", UNPARSABLE.values(), ids=UNPARSABLE.keys())
def test_unparsable_file_is_schema_error(tmp_path, capsys, content, command):
    path = tmp_path / "c.json"
    path.write_bytes(content)
    assert _read(command, path) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error: ") and "Traceback" not in err


# valid JSON that is not an object
NOT_OBJECTS = {"list": b"[]", "number": b"3", "string": b'"x"', "null": b"null"}


@pytest.mark.parametrize("command", READERS.values(), ids=READERS.keys())
@pytest.mark.parametrize("content", NOT_OBJECTS.values(), ids=NOT_OBJECTS.keys())
def test_non_object_json_is_schema_error(tmp_path, capsys, content, command):
    path = tmp_path / "c.json"
    path.write_bytes(content)
    assert _read(command, path) == 2
    assert capsys.readouterr().err == \
        "schema error: certificate must be a JSON object\n"


# --out in a directory that does not exist, after each subcommand's own
# arguments; the file named is a certificate that verifies
OUT_WRITERS = {
    "construct": ["construct", "--field", FIELD16, "--curve", CURVE16, "--k", "4",
                  "--construction", "1"],
    "transform": ["transform", "{cert}", "--lcd"],
    "eaqecc": ["eaqecc", "{cert}"],
    "search": ["search", "--table", "lemma-max", "--group", "1x6", "--n", "4"],
}


@pytest.mark.parametrize("command", READERS.values(), ids=READERS.keys())
def test_unknown_key_is_schema_error(tmp_path, capsys, command):
    # the q = 16 golden with a key the schema does not name, which would
    # not re-serialise to the file
    path = _edited_golden(tmp_path, "q16.json", {"extra": [1, 2, 3]})
    assert _read(command, path) == 2
    assert capsys.readouterr() == ("", "schema error: unknown field 'extra'\n")


@pytest.mark.parametrize("umask", [0o022, 0o077])
@pytest.mark.parametrize("argv", [OUT_WRITERS["construct"], OUT_WRITERS["search"]],
                         ids=["construct", "search"])
def test_out_file_mode_follows_the_umask(tmp_path, capsys, argv, umask):
    # --out gets the mode open(path, "w") gives a new file, not the temp
    # file's 0600
    old = os.umask(umask)
    try:
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(old)
    mode = stat.S_IMODE(os.stat(tmp_path / "out").st_mode)
    assert mode == stat.S_IMODE(os.stat(tmp_path / "plain").st_mode) == 0o666 & ~umask


@pytest.mark.parametrize("argv", OUT_WRITERS.values(), ids=OUT_WRITERS.keys())
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv):
    cert = tmp_path / "c.json"
    _construct16(cert)
    capsys.readouterr()
    argv = [a.format(cert=cert) for a in argv]
    out = tmp_path / "missing" / "x"
    assert main([*argv, "--out", str(out)]) == 2
    printed = capsys.readouterr()
    # nothing is claimed on stdout, and the error names the path given,
    # not the temp file beside it
    assert printed.out == ""
    assert printed.err.startswith("error: ") and "Traceback" not in printed.err
    assert repr(str(out)) in printed.err


def test_transform_selfdual(tmp_path, capsys):
    cert = tmp_path / "c.json"
    _construct16(cert)
    capsys.readouterr()
    out = tmp_path / "sd.json"
    assert main(["transform", str(cert), "--selfdual", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed == "selfdual: hull=4 u=4,4,3,3,2,2,5,5\n"
    doc = json.loads(out.read_text())
    assert doc["u"] == [4, 4, 3, 3, 2, 2, 5, 5]
    assert doc["hull_dim"] == 4


def test_transform_selfdual_odd_char_rejected(tmp_path, capsys):
    cert = tmp_path / "c25.json"
    main(["construct", "--field", FIELD25, "--curve", CURVE25,
          "--k", "4", "--construction", "2", "--out", str(cert)])
    assert main(["transform", str(cert), "--selfdual"]) == 2
    assert "odd characteristic" in capsys.readouterr().err


def test_transform_lcd(tmp_path, capsys):
    cert = tmp_path / "c.json"
    _construct16(cert)
    assert main(["transform", str(cert), "--lcd"]) == 0
    assert "hull=0" in capsys.readouterr().out


@pytest.mark.parametrize("golden, flag", [("q289.json", "--lcd"),
                                          ("q256.json", "--selfdual")])
def test_transform_derives_the_code_once(monkeypatch, capsys, golden, flag):
    # the verify that loads the file keeps the code it proved, and the
    # transform starts from that code: one closed form per run
    calls = []
    real = funcspace.systematic_rows
    monkeypatch.setattr(funcspace, "systematic_rows",
                        lambda *args: calls.append(args) or real(*args))
    assert main(["transform", os.path.join(GOLDENS, golden), flag]) == 0
    assert "hull=" in capsys.readouterr().out
    assert len(calls) == 1


FIELD2187 = "p=3,m=7,mod=1,0,2,0,0,0,0,1"
CURVE2187 = "0,0,0,2,0"


@pytest.mark.parametrize("k, digest", [
    (4, "e2ae8a528eb2cfe1c1576cfe780c62a9c0bb0e6fcc58eb0bc533b01809adb441"),
    (24, "f53b51bf732c352b7a3e5868bfe7ed46eb45fbdfa51921c821882add34ece939")],
    ids=["k4", "k24"])
def test_gf2187_round_trip_above_the_add_table_cap(tmp_path, capsys, k, digest):
    # GF(3^7) lies above the add-table cap with m > 1, so every sum of the
    # whole run, from the exp/log walk on, goes through the split adds; its
    # curve y^2 = x^3 + 2x has full rational 2-torsion
    curve = Curve.from_string(FieldSpec.from_string(FIELD2187), CURVE2187)
    structure = curve.group_structure()
    assert curve.order() == 2188 and (structure.d1, structure.d2) == (2, 1094)
    cert = tmp_path / "c2187.json"
    assert main(["construct", "--field", FIELD2187, "--curve", CURVE2187,
                 "--k", str(k), "--construction", "2", "--out", str(cert)]) == 0
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == digest
    assert json.loads(cert.read_text())["hull_dim"] == 0
    assert main(["verify", str(cert)]) == 0
    assert main(["transform", str(cert), "--lcd"]) == 0
    assert main(["eaqecc", str(cert)]) == 0
    out = capsys.readouterr().out
    assert "hull=0" in out and f"[[{2 * k},{k},{k + 1};{k}]]_2187 mds=true" in out


@pytest.mark.parametrize("golden", ["q16.json", "q64.json"])
@pytest.mark.parametrize("budget", ["0", "-3"])
def test_transform_lcd_budget_below_one_is_a_usage_error(tmp_path, capsys,
                                                         golden, budget):
    # q16 has hull 0 and q64 hull 2: both refuse the budget, neither searches
    out = tmp_path / "lcd.json"
    assert main(["transform", os.path.join(GOLDENS, golden), "--lcd",
                 "--budget", budget, "--out", str(out)]) == 2
    printed = capsys.readouterr()
    assert printed.out == "" and "budget must be at least 1" in printed.err
    assert not out.exists()


def test_eaqecc_row(tmp_path, capsys):
    cert = tmp_path / "c.json"
    _construct16(cert)
    out = tmp_path / "table.csv"
    assert main(["eaqecc", str(cert), "--out", str(out)]) == 0
    assert "[[8,4,5;4]]_16 mds=true" in capsys.readouterr().out
    assert out.read_text().startswith("q,n,k,d,hull")


def test_search_bounds(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    assert main(["search", "--table", "bounds", "--q", "16,32,64,256",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("q,")
    bound_by_q = {int(l.split(",")[0]): int(l.split(",")[2]) for l in lines[1:]}
    assert bound_by_q == {16: 8, 32: 20, 64: 36, 256: 140}


def test_search_bounds_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["search", "--table", "bounds", "--q", "25,49", "--out", str(a)])
    main(["search", "--table", "bounds", "--q", "25,49", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_search_bounds_achieve_uncatalogued_q(capsys):
    # the first curve of order 12 over GF(11) has one rational 2-torsion
    # point, so the witness is the first one construction 2 runs on
    assert main(["search", "--table", "bounds", "--q", "11", "--achieve"]) == 0
    assert capsys.readouterr().out == \
        "q=11 case=odd bound_n=4 achieved_n=4 witness=p=11,m=1,mod=0,1;0,0,0,2,0;k=2\n"


def test_search_census(tmp_path):
    out = tmp_path / "census.json"
    assert main(["search", "--table", "census", "--q", "4",
                 "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert {r["order"] for r in rows} == set(range(1, 10))


def test_search_census_refuses_every_q_before_walking_any(capsys):
    # GF(64) passes the walk budget, so GF(16), listed first, is not walked:
    # the walk would print its progress on the first curve
    assert main(["search", "--table", "census", "--q", "16,64"]) == 2
    printed = capsys.readouterr()
    assert printed.out == "" and "exceeds the walk budget" in printed.err
    assert "scanned" not in printed.err


# inputs the search must refuse before any work: a q past the field-size
# cap (trial division would run for hours), an uncatalogued witness past
# the hunt's range (q = 8839 would construct n = 4512), a census whose
# curve family times q passes the walk budget and C(40, 22) lemma subsets
OUT_OF_RANGE_SEARCHES = {
    "bounds-huge-q": ["--table", "bounds", "--q", "1000000000000000003"],
    "bounds-huge-q-last": ["--table", "bounds", "--q", "16,1000000000000000003"],
    "bounds-achieve-8839": ["--table", "bounds", "--q", "8839", "--achieve"],
    "bounds-achieve-8839-last": ["--table", "bounds", "--q", "16,8839", "--achieve"],
    **{f"census-{q}": ["--table", "census", "--q", str(q)] for q in (64, 81, 128, 256)},
    "lemma-max-large-group": ["--table", "lemma-max", "--group", "1x40", "--n", "22"],
    "lemma-max-group-order": ["--table", "lemma-max", "--group", "1x100000000",
                              "--n", "100000000"],
}


@pytest.mark.parametrize("argv", OUT_OF_RANGE_SEARCHES.values(),
                         ids=OUT_OF_RANGE_SEARCHES.keys())
def test_search_out_of_range_input_exit_2_at_once(capsys, argv):
    start = time.perf_counter()
    assert main(["search", *argv]) == 2
    assert time.perf_counter() - start < 1
    printed = capsys.readouterr()
    assert printed.out == "" and "exceed" in printed.err


@pytest.mark.parametrize("table, q", [("bounds", "0"), ("bounds", "-3"), ("bounds", "1"),
                                      ("census", "0"), ("census", "-3")])
def test_search_q_below_2_is_not_a_prime_power(capsys, table, q):
    # q = 1 and q < 1 get the same message, not factorization's internal one
    assert main(["search", "--table", table, "--q", q]) == 2
    assert capsys.readouterr() == ("", f"error: q={q} is not a prime power\n")


def test_construct_2_wrong_curve_shape_exit_2(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert main(["construct", "--field", "p=7,m=1,mod=0,1", "--curve", "1,0,0,6,0",
                 "--k", "2", "--construction", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: construction 2 needs the curve shape y^2 = x^3+a2x^2+a4x+a6\n"
    assert not out.exists()


def test_construct_repeated_field_key_exit_2(tmp_path, capsys):
    # the last p= would otherwise win and build GF(25)
    out = tmp_path / "c.json"
    assert main(["construct", "--field", "p=17,p=5,m=2,mod=2,4,1", "--curve", CURVE25,
                 "--k", "8", "--construction", "2", "--out", str(out)]) == 2
    printed = capsys.readouterr()
    assert printed.out == "" and "repeated 'p=5'" in printed.err
    assert not out.exists()


def test_search_lemma_max(capsys):
    assert main(["search", "--table", "lemma-max", "--group", "1x6",
                 "--n", "4"]) == 0
    assert "2 counterexample(s)" in capsys.readouterr().out


def test_search_usage_errors(capsys):
    assert main(["search", "--table", "bounds"]) == 2
    assert main(["search", "--table", "lemma-max", "--group", "1x6"]) == 2


def test_search_has_no_seed_option():
    with pytest.raises(SystemExit) as exc:
        main(["search", "--table", "lemma-max", "--group", "2x4", "--n", "6",
              "--seed", "5"])
    assert exc.value.code == 2


def _argparse_outcome(parse, argv, capsys) -> tuple:
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    printed = capsys.readouterr()
    return exc.value.code, printed.out, printed.err


@pytest.mark.parametrize("argv", [
    *([command, "-h"] for command in ("construct", "verify", "transform",
                                      "eaqecc", "search")),
    # the usage errors above, and one more for each other subcommand
    ["construct", "--field", FIELD16, "--curve", CURVE16, "--construction", "1"],
    ["search", "--table", "lemma-max", "--group", "2x4", "--n", "6", "--seed", "5"],
    ["verify", "a.json", "b.json"],
    ["transform", "a.json"],
    ["eaqecc", "a.json", "--format", "xml"],
    [], ["-h"], ["--version"], ["bogus"],
], ids=lambda argv: " ".join(argv) or "empty")
def test_one_subcommand_parser_answers_as_the_full_parser(argv, capsys):
    # main builds the named subcommand's parser only; its help, usage
    # errors and exit codes are the full parser's, byte for byte
    full = _argparse_outcome(lambda a: cli._build_parser().parse_args(a), argv, capsys)
    assert _argparse_outcome(main, argv, capsys) == full


@pytest.mark.parametrize("group", ["0x6", "2x-6"])
def test_search_lemma_max_bad_group_exit_2(capsys, group):
    assert main(["search", "--table", "lemma-max", "--group", group,
                 "--n", "4"]) == 2
    err = capsys.readouterr().err
    assert "needs d1 >= 1 and d2 >= 1" in err and "must lie in" not in err


GOLDENS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "goldens")

# input echoes edited so that they no longer make the recorded points or Qa;
# q = 25 with [2, 1] makes the same points but Qa = Q2
ECHO_EDITS = {
    "q25-torsion-3-1": ("q25.json", {"torsion_choice": [3, 1]}),
    "q25-torsion-2-1": ("q25.json", {"torsion_choice": [2, 1]}),
    "q25-r-5": ("q25.json", {"pair_selection": {"mode": "torsion", "r": 5,
                                                "pairs_x": None}}),
    "q16-torsion-1-2": ("q16.json", {"torsion_choice": [1, 2]}),
    "q16-pairs-x-3": ("q16.json", {"pair_selection": {"mode": "pairs_x", "r": None,
                                                      "pairs_x": [3]}}),
}


def _golden(name):
    with open(os.path.join(GOLDENS, name)) as handle:
        return json.load(handle)


def _edited_golden(tmp_path, name, edit):
    doc = _golden(name)
    doc.update(edit)
    out = tmp_path / name
    out.write_text(json.dumps(doc))
    return out


def _matrix_entry(value):
    matrix = _golden("q16.json")["generator_matrix"]
    matrix[0][5] = value
    return {"generator_matrix": matrix}


# edited goldens that a subcommand must refuse just as verify does, before
# it prints a claim: (file, edit, command, exit code, start of the message)
READER_EDITS = {
    "q16-matrix-99-lcd": ("q16.json", _matrix_entry(99), READERS["transform-lcd"],
                          2, "schema error: "),
    "q16-matrix-99-selfdual": ("q16.json", _matrix_entry(99),
                               READERS["transform-selfdual"], 2, "schema error: "),
    "q16-matrix-99-eaqecc": ("q16.json", _matrix_entry(99), READERS["eaqecc"],
                             2, "schema error: "),
    # lcd_transform starts its ladder at the recorded hull; the true one is 2
    "q64-hull-0-lcd": ("q64.json", {"hull_dim": 0}, READERS["transform-lcd"],
                       1, "verification failed: hull "),
    "q16-distance-3-eaqecc": ("q16.json", {"min_distance": 3}, READERS["eaqecc"],
                              1, "verification failed: min_distance "),
}


@pytest.mark.parametrize("name, edit, command, code, message", READER_EDITS.values(),
                         ids=READER_EDITS.keys())
def test_readers_refuse_what_verify_refuses(tmp_path, capsys, name, edit, command,
                                            code, message):
    path = _edited_golden(tmp_path, name, edit)
    capsys.readouterr()
    assert _read(command, path) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(message)
    assert main(["verify", str(path)]) == code


@pytest.mark.parametrize("name, edit", ECHO_EDITS.values(), ids=ECHO_EDITS.keys())
def test_verify_edited_input_echo_exit_1(tmp_path, capsys, name, edit):
    path = _edited_golden(tmp_path, name, edit)
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert "verification failed: points_match_input " in err
    assert "Traceback" not in err


# G is checked exactly as construct writes it, ((None, k-1), (Qa, 1)):
# reordered or padded with a zero multiplicity it is the same divisor, but
# not the same file
G_EDITS = {
    "q16-g-swapped": {"g_divisor": [[[0, 11], 1], [None, 3]]},
    "q16-g-zero-entry": {"g_divisor": [[None, 3], [[0, 11], 1], [[1, 0], 0]]},
    "q16-g-off-curve": {"g_divisor": [[None, 3], [[0, 12], 1]]},
    # on the curve, off the points' x's, of order 22: Qa + Qa is not O
    "q16-g-order-22": {"g_divisor": [[None, 3], [[3, 12], 1]]},
}


@pytest.mark.parametrize("edit", G_EDITS.values(), ids=G_EDITS.keys())
def test_verify_g_not_as_written_exit_1(tmp_path, capsys, edit):
    path = _edited_golden(tmp_path, "q16.json", edit)
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert "verification failed: g_shape " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["q16.json", "q25.json"])
def test_verify_doubled_scaling_exit_1(tmp_path, capsys, name):
    # 2v satisfies G diag(2v) G^T = 0 as well; only the v the points give
    # is the certificate's
    doc = _golden(name)
    mul = FieldSpec.from_string(doc["field"]).mul_enc
    path = _edited_golden(tmp_path, name,
                          {"scaling_v": [mul(2, e) for e in doc["scaling_v"]]})
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert "verification failed: scaling_matches_points " in err


def test_verify_two_torsion_point_exit_1(tmp_path, capsys, no_rref_or_gram):
    # (12, 0) has y = 0, where v is undefined: a failed invariant, not a
    # crash; the first pair is split, so there is no code and no hull
    points = _golden("q25.json")["points"]
    path = _edited_golden(tmp_path, "q25.json", {"points": [[12, 0]] + points[1:]})
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert ("(all failures: x_pairs, y_nonzero, matrix_rref, iso_dual_identity, "
            "scaling_matches_points, points_match_input, hull)") in err
    assert "Traceback" not in err


def _points_at(name, i, point):
    points = _golden(name)["points"]
    points[i] = point
    return points


def _points_swapped(name, i, j):
    points = _golden(name)["points"]
    points[i], points[j] = points[j], points[i]
    return points


# point sets on which the closed-form generator does not apply: a y = 0
# point or one at x(Qa) = beta (q25: Qa = (4, 0); q16: Q1 = (0, 11)), where
# u has its pole, or first k = 8 (q25), 4 (q16) points that are not whole
# pairs {P, -P}, where there is no code: the invariants that read it,
# matrix_rref, iso_dual_identity, hull and the exhaustive min_distance
# (q16), fail, never with a traceback.  At beta the basis cannot evaluate,
# which ends the run after points_disjoint_from_G: the message then lists
# the failures before the stop, and does not call them all.
HOSTILE_POINTS = {
    "y-zero-in-first-k-q25": ("q25.json", _points_at("q25.json", 3, [12, 0]),
                              "x_pairs, y_nonzero, matrix_rref, iso_dual_identity, "
                              "scaling_matches_points, points_match_input, hull", True),
    "at-beta-in-first-k-q25": ("q25.json", _points_at("q25.json", 3, [4, 0]),
                               "x_pairs, y_nonzero, points_off_qa_x, "
                               "points_disjoint_from_G", False),
    "at-beta-after-first-k-q25": ("q25.json", _points_at("q25.json", 12, [4, 0]),
                                  "x_pairs, y_nonzero, points_off_qa_x, "
                                  "points_disjoint_from_G", False),
    "at-beta-q16": ("q16.json", _points_at("q16.json", 1, [0, 11]),
                    "x_pairs, points_off_qa_x, points_disjoint_from_G", False),
    "unpaired-first-k-q25": ("q25.json", _points_swapped("q25.json", 1, 8),
                             "matrix_rref, iso_dual_identity, scaling_matches_points, "
                             "points_match_input, hull", True),
    "unpaired-first-k-q16": ("q16.json", _points_swapped("q16.json", 1, 4),
                             "matrix_rref, iso_dual_identity, scaling_matches_points, "
                             "points_match_input, hull, min_distance", True),
}


@pytest.mark.parametrize("name, points, failures, complete", HOSTILE_POINTS.values(),
                         ids=HOSTILE_POINTS.keys())
def test_verify_points_off_the_closed_form_exit_1(tmp_path, capsys, no_rref_or_gram,
                                                  name, points, failures, complete):
    path = _edited_golden(tmp_path, name, {"points": points})
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    first = failures.split(",")[0]
    listed = "all failures" if complete else "failures before verification stopped"
    assert f"verification failed: {first} ({listed}: {failures})" in err
    assert "Traceback" not in err


# G's point moved from Qa to the third 2-torsion point Qa + Qb: g_shape
# still holds, but some k-subset of the points now sums to the target
# sum(G), so mds_witness fails along with the invariants that re-derive G
# and v from Qa
TARGET_REACHED = {"q25": 19, "q49": 37, "q289": 16}


@pytest.mark.parametrize("key", ["verify", "eaqecc", "transform-lcd"])
@pytest.mark.parametrize("name", TARGET_REACHED)
def test_reachable_mds_target_exit_1(tmp_path, capsys, name, key):
    g_divisor = _golden(f"{name}.json")["g_divisor"]
    g_divisor[1][0] = [TARGET_REACHED[name], 0]
    path = _edited_golden(tmp_path, f"{name}.json", {"g_divisor": g_divisor})
    capsys.readouterr()
    assert _read(READERS[key], path) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith(
        "verification failed: matrix_rref (all failures: matrix_rref, "
        "scaling_matches_points, points_match_input, mds_witness)")


def test_verify_huge_k_stops_at_n_equals_2k(tmp_path, capsys):
    # G would be built from k = 10**6; n = 2k = #points bounds it by the file
    g_divisor = _golden("q16.json")["g_divisor"]
    g_divisor[0][1] = 10 ** 6 - 1
    path = _edited_golden(tmp_path, "q16.json",
                          {"k": 10 ** 6, "g_divisor": g_divisor})
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    # the gate ends the run, so the message does not call its list complete
    assert ("verification failed: n_equals_2k (failures before verification "
            "stopped: n_equals_2k)" in capsys.readouterr().err)


def test_verify_wrong_curve_shape_lists_failures_before_the_stop(tmp_path, capsys):
    # the q = 16 golden on 1,8,0,5,9: its points fall off the curve, then
    # the basis cannot evaluate, which ends the run, so iso_dual_identity
    # through min_distance never run and the list is not called complete
    path = _edited_golden(tmp_path, "q16.json", {"curve": "1,8,0,5,9"})
    cert = isodual.IsoDualCertificate.from_json(path.read_text())
    failures = isodual.verify_certificate(cert)
    assert failures == ["points_on_curve"] and not failures.complete
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == ("verification failed: points_on_curve (failures before "
                   "verification stopped: points_on_curve)\n")
    golden = isodual.IsoDualCertificate.from_json(json.dumps(_golden("q16.json")))
    assert isodual.verify_certificate(golden).complete


def test_construct_self_dual_code_with_constant_v(tmp_path, capsys):
    # the four x's form an affine F_2-plane, so h' and v are constant and
    # the code is self-dual: hull = k, which only a constant v allows
    out = tmp_path / "c.json"
    assert main(["construct", "--field", FIELD16, "--curve", "1,14,0,0,1",
                 "--k", "4", "--construction", "1", "--out", str(out)]) == 0
    assert "[8,4,5] hull=4 " in capsys.readouterr().out
    assert len(set(json.loads(out.read_text())["scaling_v"])) == 1
    assert main(["verify", str(out)]) == 0


def test_verify_canonical_echo_of_the_same_points_exit_0(tmp_path):
    # #E = 36, so the odd-order points are E[3]: its four pairs are also the
    # canonical choice, and the echo reproduces the points however spelled
    path = _edited_golden(tmp_path, "q25.json", {
        "pair_selection": {"mode": "canonical", "r": None, "pairs_x": None}})
    assert main(["verify", str(path)]) == 0
