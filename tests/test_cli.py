"""Command-line surface: subcommands, formats, determinism, exit codes."""

import json
from pathlib import Path

import pytest

from bigraded.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_report_dot(capsys):
    code, doc = run_json(capsys, "report", "example://dot", "--rmax", "3")
    assert code == 0
    assert doc["format_version"] == 3
    assert "validation" not in doc and "pages_match" not in doc  # they could never be false
    for v in doc["verdicts"].values():  # nor could the inequality flags
        assert set(v["inequality"]) == {"bott_chern_plus_aeppli", "pages_plus_conjugate",
                                        "twice_betti"}
    assert doc["degeneration_page"] == 1
    assert doc["einfty_ok"] is True
    for r in ("1", "2", "3"):
        assert doc["pages"][r] == {"0,0": 1}
        assert doc["bott_chern"][r] == {"0,0": 1}
        assert doc["aeppli"][r] == {"0,0": 1}
        assert doc["verdicts"][r]["verdict"] is True


def test_report_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        code, _ = run(capsys, "report", "example://random?grid=3,3&seed=5&maxdim=3",
                      "--rmax", "3", "--out", str(target))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_example_roundtrip_through_file(tmp_path, capsys):
    path = tmp_path / "z.json"
    code, _ = run(capsys, "example", "example://zigzag?start=0,1&gens=2&right=1",
                  "-o", str(path))
    assert code == 0
    code, doc = run_json(capsys, "validate", str(path))
    assert code == 0 and doc["ok"] is True
    code, doc = run_json(capsys, "check-pageddbar", str(path), "--r", "2")
    assert code == 0 and doc["verdict"] is False
    code, doc = run_json(capsys, "check-pageddbar", str(path), "--r", "3")
    assert code == 0 and doc["verdict"] is True


def test_pages_calabi_eckmann(tmp_path, capsys):
    path = tmp_path / "ce.json"
    code, _ = run(capsys, "example", "example://ce?u=1&v=1", "-o", str(path))
    assert code == 0
    code, doc = run_json(capsys, "pages", str(path), "--rmax", "3")
    assert code == 0
    assert doc["pages"]["1"]["3,2"] == 1
    assert "3,2" not in doc["pages"]["2"]
    assert doc["degeneration_page"] == 2
    assert "suppressed_cells" in doc  # truncation artifacts beyond p = 5


@pytest.mark.parametrize("command", ["pages", "bca", "report"])
def test_suppressed_cells_are_the_union_over_the_printed_tables(capsys, command):
    # (8,8) and (10,9) carry page and Aeppli entries only, (8,9) and (10,10) Bott-Chern too
    code, doc = run_json(capsys, command, "example://ce?u=1&v=1")
    assert code == 0
    assert doc["suppressed_cells"] == ["8,8", "8,9", "10,9", "10,10"]
    assert doc["note"] == "entries beyond the certified truncation range p <= 5 are suppressed"
    grids = [doc[key][r] for key in ("pages", "pages_conjugate", "bott_chern", "aeppli")
             if key in doc for r in doc[key]]
    assert not any(int(cell.split(",")[0]) > 5 for grid in grids for cell in grid)


def test_cdga_file_ingestion(tmp_path, capsys):
    spec = {
        "name": "hopf-like",
        "generators": [{"name": "x01", "bidegree": [0, 1]},
                       {"name": "x11", "bidegree": [1, 1]},
                       {"name": "y", "bidegree": [1, 0]},
                       {"name": "xv", "bidegree": [2, 1]}],
        "d1": {"x01": "x11"},
        "d2": {"y": "x11"},
        "truncation": {"max_p": 5, "max_q": 5,
                       "weights": {"x11": 1, "y": 1}, "max_weight": 4},
    }
    path = tmp_path / "cdga.json"
    path.write_text(json.dumps(spec))
    code, doc = run_json(capsys, "validate", str(path))
    assert code == 0 and doc["ok"] is True


def test_decompose_command(capsys):
    code, doc = run_json(capsys, "decompose", "example://random?grid=3,3&seed=2&maxdim=3")
    assert code == 0
    assert doc["decomposition"]["status"] == "unique"
    total = sum(item["shape"]["length"] if item["shape"]["kind"] != "square" else 4
                for item in doc["decomposition"]["inventory"]
                for _ in range(item["multiplicity"]))
    assert total == doc["decomposition"]["total_dim"]


def test_decompose_constructive_certificate_verifies(capsys):
    from bigraded.cli import load_input
    from bigraded.zigzag import certificate_from_dict, verify_certificate
    uri = "example://random?grid=3,3&seed=2&maxdim=3"
    code, plain = run_json(capsys, "decompose", uri)
    assert code == 0 and "certificate" not in plain["decomposition"]
    code, doc = run_json(capsys, "decompose", uri, "--constructive")
    assert code == 0
    cert = certificate_from_dict(doc["decomposition"].pop("certificate"))
    assert doc == plain
    assert verify_certificate(load_input(uri), cert).ok
    claimed = sum(1 for _ in cert.blocks)
    assert claimed == sum(item["multiplicity"] for item in plain["decomposition"]["inventory"])


def test_hodge_command(capsys):
    code, doc = run_json(capsys, "hodge", "example://square", "--rmax", "2")
    assert code == 0
    assert doc["three_space_checks"] is True
    assert doc["harmonic_dims"]["1"] == {}


def test_hodge_rmax_is_the_last_page(capsys):
    # --rmax is the last page on every command: six harmonic grids, each the page grid
    uri = "example://ce?u=2&v=3"
    code, doc = run_json(capsys, "hodge", uri, "--rmax", "6")
    assert code == 0
    _, pages = run_json(capsys, "pages", uri, "--rmax", "6")
    assert sorted(doc["harmonic_dims"], key=int) == [str(r) for r in range(1, 7)]
    assert doc["harmonic_dims"] == pages["pages"]


def test_duality_command(tmp_path, capsys):
    from bigraded.bicomplex import dump_complex
    from bigraded.models import ZigzagShape, build_shape
    from bigraded.pairing import pairing_to_dict, sum_with_dual
    tot, pairing = sum_with_dual(build_shape(ZigzagShape(((0, 1), (1, 0)), False, True)))
    cpath = tmp_path / "c.json"
    ppath = tmp_path / "p.json"
    dump_complex(tot, cpath)
    ppath.write_text(json.dumps(pairing_to_dict(pairing)))
    code, doc = run_json(capsys, "duality", str(cpath), "--pairing", str(ppath),
                         "--rmax", "3")
    assert code == 0
    assert doc["perfect"] is True
    assert doc["by_page"]["2"]["bc_bc_nondegenerate"] is False
    assert doc["by_page"]["3"]["bc_bc_nondegenerate"] is True
    # the pairing is perfect, so each page's non-degeneracy is its verdict, or it raises
    for page in doc["by_page"].values():
        assert set(page) == {"cells", "bc_bc_nondegenerate"}
        for cell in page["cells"].values():
            assert set(cell) == {"page_pairing_nondegenerate", "bc_a_pairing_nondegenerate"}


def test_report_with_a_pairing_decides_each_verdict_once(monkeypatch):
    # the duality section reads the report's verdicts instead of deciding them again
    from bigraded import bca, pairing
    from bigraded.cli import build_report, load_input
    tot, form = pairing.sum_with_dual(load_input("example://random?grid=3,3&seed=5&maxdim=3"))
    real = bca.page_ddbar_verdict
    pages = []

    def counted(c, r, *args, **kwargs):
        pages.append(r)
        return real(c, r, *args, **kwargs)
    monkeypatch.setattr(bca, "page_ddbar_verdict", counted)
    monkeypatch.setattr(pairing, "page_ddbar_verdict", counted)
    build_report(tot, 4, duality_pairing=form)
    assert sorted(pages) == [1, 2, 3, 4]


def test_markdown_output(capsys):
    code, out = run(capsys, "report", "example://dot", "--rmax", "2",
                    "--format", "md")
    assert code == 0
    assert "| p \\ q |" in out
    assert "## Page dimensions" in out
    assert "Decomposition" in out
    # an acyclic complex renders empty grids explicitly
    code, out = run(capsys, "report", "example://square", "--rmax", "2",
                    "--format", "md")
    assert code == 0
    assert "(all zero)" in out


def test_markdown_grids_span_the_bounding_box_of_their_cells(tmp_path, capsys):
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"grid": [1000, 1000], "dims": {"1000,1000": 1}}))
    code, out = run(capsys, "report", str(path), "--rmax", "4", "--format", "md")
    assert code == 0
    assert len(out.encode()) < 10_000
    assert "| p \\ q | 1000 |\n|---|---|\n| 1000 | 1 |" in out


def test_invalid_complex_exits_one(tmp_path, capsys):
    from bigraded.bicomplex import complex_to_dict
    from bigraded.models import Square, build_shape
    obj = complex_to_dict(build_shape(Square(0, 0)))
    obj["d2"]["1,0"] = [["1"]]  # break anticommutation
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, doc = run_json(capsys, "validate", str(path))
    assert code == 1
    assert doc["ok"] is False and doc["violations"]
    for command in ("pages", "report"):
        code, doc = run_json(capsys, command, str(path))
        assert code == 1, command
        assert doc["error"]["kind"] == "input", command
        assert doc["error"]["message"].startswith("invalid double complex:\n"), command


def test_invalid_complex_error_is_bounded(tmp_path, capsys):
    # d1 d1 at (0,0) is the 60x60 product of two all-ones matrices: 3,600 nonzero entries
    ones = [["1"] * 60 for _ in range(60)]
    obj = {"grid": [2, 0], "dims": {"0,0": 60, "1,0": 60, "2,0": 60},
           "d1": {"0,0": ones, "1,0": ones}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out = run(capsys, "report", str(path))
    assert code == 1
    assert len(out.encode()) < 1024
    doc = json.loads(out)
    assert doc["error"]["kind"] == "input"
    assert doc["error"]["message"] == (
        "invalid double complex:\n"
        "d1∘d1 fails at (0,0): the 60x60 product has 3600 nonzero entries: "
        "[0,0] = 60, [0,1] = 60, [0,2] = 60, ...")


def test_invalid_complex_error_is_bounded_in_total(tmp_path, capsys):
    # a chain of 200 one-dimensional cells with every d1 = 1: d1 d1 fails at 198 cells
    obj = {"grid": [199, 0], "dims": {f"{p},0": 1 for p in range(200)},
           "d1": {f"{p},0": [["1"]] for p in range(199)}}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(obj))
    code, out = run(capsys, "report", str(path))
    assert code == 1
    assert len(out.encode()) < 1024
    lines = json.loads(out)["error"]["message"].split("\n")
    assert lines[0] == "invalid double complex:" and len(lines) == 7
    assert lines[5] == ("d1∘d1 fails at (4,0): the 1x1 product has 1 nonzero entry: "
                        "[0,0] = 1")
    assert lines[6] == "… and 193 more"


@pytest.mark.parametrize("argv,message", [
    (("report", "example://dot", "--rmax", "x"),
     "bigraded report: argument --rmax: invalid int value: 'x'"),
    # argparse reads -1,0 as an option, so --r is left without its value
    (("check-pageddbar", "example://dot", "--r", "-1,0"),
     "bigraded check-pageddbar: argument --r: expected one argument"),
    (("pages",), "bigraded pages: the following arguments are required: input"),
], ids=["rmax-not-an-int", "negative-looking-value", "missing-input"])
def test_argparse_errors_print_the_error_object(capsys, argv, message):
    code, doc = run_json(capsys, *argv)
    assert code == 2
    assert doc == {"error": {"kind": "usage", "message": message}}


def test_missing_file_exits_two(capsys):
    code, doc = run_json(capsys, "validate", "/does/not/exist.json")
    assert code == 2
    assert doc["error"]["kind"] == "usage"


def test_json_syntax_error_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"grid": [1, 1]')
    code, doc = run_json(capsys, "validate", str(path))
    assert code == 2
    assert "line" in doc["error"]["message"]


@pytest.mark.parametrize("content", ["5", "null"])
def test_json_that_is_not_an_object_is_input_error(tmp_path, capsys, content):
    path = tmp_path / "c.json"
    path.write_text(content)
    _assert_input_error(capsys, str(path))


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 10_000 + b"]" * 10_000,
                                     b'{"0,0": [[' + b"9" * 5_000 + b"]]}"],
                         ids=["not-utf8", "nested-too-deep", "integer-too-long"])
def test_json_that_python_cannot_load_is_usage_error(tmp_path, capsys, content):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    for argv in (("validate", str(path)), ("hodge", "example://dot", "--gram", str(path)),
                 ("duality", "example://dot", "--pairing", str(path))):
        code, doc = run_json(capsys, *argv)
        assert code == 2 and doc["error"]["kind"] == "usage", argv
        assert "cannot read" in doc["error"]["message"], argv


def test_unknown_example_uri(capsys):
    code, doc = run_json(capsys, "validate", "example://banana")
    assert code == 2


def test_explain_prints_witness(capsys):
    code, doc = run_json(capsys, "check-pageddbar", "example://ce?u=1&v=1",
                         "--r", "2", "--explain")
    assert code == 0
    assert doc["verdict"] is False
    assert "witness" in doc and doc["witness"]["vector"]


def test_show_reps(capsys):
    code, doc = run_json(capsys, "pages", "example://dot", "--rmax", "1",
                         "--show-reps")
    assert code == 0
    assert doc["representatives"]["1"]["0,0"] == [["1"]]


def _write(tmp_path, obj):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(obj))
    return str(path)


def _assert_input_error(capsys, path):
    for command in ("validate", "report"):
        code, doc = run_json(capsys, command, path)
        assert code == 1, command
        assert doc["error"]["kind"] == "input", command


def test_dims_outside_grid_is_input_error(tmp_path, capsys):
    path = _write(tmp_path, {"grid": [1, 1], "dims": {"0,0": 1, "5,5": 2}})
    _assert_input_error(capsys, path)


@pytest.mark.parametrize("grid", [None, 5, [1], [1, 2, 3]], ids=["null", "int", "one", "three"])
def test_malformed_grid_is_input_error_naming_grid(tmp_path, capsys, grid):
    code, doc = run_json(capsys, "validate", _write(tmp_path, {"grid": grid, "dims": {"0,0": 1}}))
    assert code == 1 and doc["error"]["kind"] == "input"
    assert "grid" in doc["error"]["message"]


def test_unparsable_entry_is_input_error(tmp_path, capsys):
    path = _write(tmp_path, {"grid": [1, 1], "dims": {"0,0": 1, "1,0": 1},
                             "d1": {"0,0": [["abc"]]}})
    _assert_input_error(capsys, path)


def test_zero_denominator_is_input_error(tmp_path, capsys):
    path = _write(tmp_path, {"grid": [1, 1], "dims": {"0,0": 1, "1,0": 1},
                             "d1": {"0,0": [["1/0"]]}})
    _assert_input_error(capsys, path)


def test_malformed_cell_key_is_input_error(tmp_path, capsys):
    path = _write(tmp_path, {"grid": [1, 1], "dims": {"0,0": 1, "1,0": 1},
                             "d1": {"0;0": [["1"]]}})
    _assert_input_error(capsys, path)


_ONE_CELL = {"grid": [1, 1], "dims": {"0,0": 1, "1,0": 1}}


@pytest.mark.parametrize("changes", [
    {"grid": ["1", 1]},
    {"grid": [1.5, 1]},
    {"grid": [True, 1]},
    {"grid": [-1, 1], "dims": {}},
    {"dims": {"0,0": 1.5}},
    {"dims": {"0,0": True}},
    {"dims": {"0,0": "2"}},
    {"dims": {"0,0": 1, "0,0 ": 2}},
    {"d1": {"0,0": [["1"]], " 0,0": [["0"]]}},
    {"meta": 5},
], ids=["grid-string", "grid-float", "grid-bool", "grid-negative", "dim-float",
        "dim-bool", "dim-string", "dims-cell-twice", "map-cell-twice", "meta-not-object"])
def test_malformed_grid_dimension_or_repeated_cell_is_input_error(tmp_path, capsys, changes):
    _assert_input_error(capsys, _write(tmp_path, {**_ONE_CELL, **changes}))


@pytest.mark.parametrize("bound", ["x", 1.5, True, -1, None],
                         ids=["string", "float", "bool", "negative", "null"])
def test_certified_max_p_must_be_a_nonnegative_integer(tmp_path, capsys, bound):
    path = _write(tmp_path, {"grid": [1, 1], "dims": {"0,0": 1},
                             "meta": {"certified_max_p": bound}})
    for command in ("validate", "report", "pages", "bca"):
        code, doc = run_json(capsys, command, path)
        assert code == 1 and doc["error"]["kind"] == "input", command
        assert "meta.certified_max_p" in doc["error"]["message"], command


@pytest.mark.parametrize("argv", [("example", "example://dot"), ("validate", "example://dot"),
                                  ("report", "example://dot")],
                         ids=["example", "validate", "report"])
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv):
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, doc = run_json(capsys, *argv, "-o", str(target))
        assert code == 2 and doc["error"]["kind"] == "usage", target
        assert doc["error"]["message"].startswith(f"cannot write {str(target)!r}: "), target


def test_negative_maxdim_is_usage_error(capsys):
    for command in ("validate", "example"):
        code, doc = run_json(capsys, command, "example://random?grid=2,2&maxdim=-1")
        assert code == 2, command
        assert doc["error"]["kind"] == "usage", command


@pytest.mark.parametrize("content", [None, '{"n": [0, 0],'], ids=["missing", "invalid-json"])
def test_bad_pairing_file_is_usage_error(tmp_path, capsys, content):
    path = tmp_path / "pairing.json"
    if content is not None:
        path.write_text(content)
    for command in ("duality", "report"):
        code, doc = run_json(capsys, command, "example://dot", "--pairing", str(path))
        assert code == 2, command
        assert doc["error"]["kind"] == "usage", command


def test_rmax_only_where_read(capsys):
    for command in ("validate", "decompose", "check-pageddbar"):
        argv = [command, "example://dot", "--rmax", "2"]
        if command == "check-pageddbar":
            argv += ["--r", "1"]
        code, doc = run_json(capsys, *argv)
        assert code == 2, command
        assert doc["error"] == {"kind": "usage", "message":
                                "bigraded: unrecognized arguments: --rmax 2"}, command
    for command in ("pages", "bca", "hodge", "report"):
        code, _ = run_json(capsys, command, "example://dot", "--rmax", "2")
        assert code == 0, command


@pytest.mark.parametrize("argv", [
    ("pages", "--rmax", "0"), ("bca", "--rmax", "0"), ("hodge", "--rmax", "0"),
    ("duality", "--rmax", "0"), ("report", "--rmax", "0"), ("report", "--rmax", "-1"),
    ("check-pageddbar", "--r", "0"), ("check-pageddbar", "--r", "-1"),
], ids=lambda arg: arg if isinstance(arg, str) else " ".join(arg))
def test_page_index_below_one_is_usage_error(tmp_path, capsys, argv):
    command, flag, value = argv
    extra = []
    if command == "duality":
        pairing = tmp_path / "pairing.json"
        pairing.write_text('{"n": [0, 0], "pairs": {"0,0": [["1"]]}}')
        extra = ["--pairing", str(pairing)]
    code, doc = run_json(capsys, command, "example://dot", flag, value, *extra)
    assert code == 2
    assert doc["error"] == {"kind": "usage", "message": f"{flag} must be at least 1, got {value}"}


def test_zero_denominator_in_gram_or_pairing_is_error_object(tmp_path, capsys):
    gram = tmp_path / "gram.json"
    gram.write_text('{"0,0": [["1/0"]]}')
    code, doc = run_json(capsys, "hodge", "example://dot", "--gram", str(gram))
    assert code == 2 and doc["error"]["kind"] == "usage"
    pairing = tmp_path / "pairing.json"
    pairing.write_text('{"n": [0, 0], "pairs": {"0,0": [["1/0"]]}}')
    code, doc = run_json(capsys, "duality", "example://dot", "--pairing", str(pairing))
    assert code == 1 and doc["error"]["kind"] == "input"


def test_bad_example_values_are_usage_errors(capsys):
    for uri in ("example://square?at=abc", "example://random?grid=4",
                "example://square?at=-1,0", "example://zigzag?gens=0"):
        for command in ("example", "validate"):
            code, doc = run_json(capsys, command, uri)
            assert code == 2, (command, uri)
            assert doc["error"]["kind"] == "usage", (command, uri)


@pytest.mark.parametrize("uri,key,accepted", [
    ("example://ce?u=1&vv=5", "vv", "u, v, w"),
    ("example://dot?at=1,1&bogus=3", "bogus", "at"),
    ("example://random?seed=1&max-dim=2", "max-dim", "grid, seed, maxdim"),
    ("example://zigzag?gens=2&rigth", "rigth", "start, gens, left, right"),
], ids=["ce-misspelt", "dot-extra", "random-option-spelling", "key-without-value"])
def test_unknown_example_key_is_usage_error(capsys, uri, key, accepted):
    kind = uri.split("?")[0]
    code, doc = run_json(capsys, "validate", uri)
    assert code == 2
    assert doc == {"error": {"kind": "usage", "message":
                             f"unknown key {key!r} in {kind} (accepted: {accepted})"}}


@pytest.mark.parametrize("uri, message", [
    ("example://zigzag?gens=2&left=2", "bad zigzag example: left must be 0 or 1, got '2'"),
    ("example://zigzag?gens=2&right=yes", "bad zigzag example: right must be 0 or 1, got 'yes'"),
], ids=["left-2", "right-yes"])
def test_zigzag_arrow_outside_zero_or_one_is_usage_error(capsys, uri, message):
    for command in ("validate", "example"):
        code, doc = run_json(capsys, command, uri)
        assert (code, doc) == (2, {"error": {"kind": "usage", "message": message}}), command


@pytest.mark.parametrize("uri, key", [
    ("example://dot?at=1,1&at=2,2", "at"),
    ("example://ce?u=1&v=2&u=0", "u"),
    ("example://random?seed=&seed=3", "seed"),
], ids=["dot-at", "ce-u", "random-blank-then-given"])
def test_repeated_example_key_is_usage_error(capsys, uri, key):
    kind = uri.split("?")[0]
    code, doc = run_json(capsys, "validate", uri)
    assert (code, doc) == (2, {"error": {"kind": "usage",
                                         "message": f"key {key!r} given twice in {kind}"}})


@pytest.mark.parametrize("uri", [
    "example://dot", "example://square?at=1,2", "example://zigzag?start=0,1&gens=2&right=1",
    "example://ce?u=1&v=1", "example://random?grid=4,4&seed=7&maxdim=4"])
def test_example_prints_the_complex_of_its_input(capsys, uri):
    from bigraded.bicomplex import complex_to_dict
    from bigraded.cli import load_input
    code, doc = run_json(capsys, "example", uri)
    assert code == 0
    assert doc == complex_to_dict(load_input(uri))


_REQUIRED = {"check-pageddbar": ("--r", "1"), "duality": ("--pairing", "p.json")}
_ONE_SPELLING = [
    *[((command, "example://dot", *_REQUIRED.get(command, ()), "--seed", "1"),
       "bigraded: unrecognized arguments: --seed 1")
      for command in ("validate", "pages", "bca", "check-pageddbar", "hodge", "decompose",
                      "duality", "report", "example")],
    *[((command, "example://dot", *_REQUIRED.get(command, ()), "--format", "md"),
       "bigraded: unrecognized arguments: --format md")
      for command in ("validate", "check-pageddbar", "hodge", "duality")],
    (("example", "ce", "--u", "2"), "bigraded: unrecognized arguments: --u 2"),
    (("example", "random", "--max-dim", "2"), "bigraded: unrecognized arguments: --max-dim 2"),
    (("pages", "example://dot", "--show-reps", "--format", "md"),
     "--show-reps has no Markdown form; use --format json"),
    (("decompose", "example://dot", "--constructive", "--format", "md"),
     "--constructive has no Markdown form; use --format json"),
]


@pytest.mark.parametrize("argv,message", _ONE_SPELLING,
                         ids=[" ".join(argv) for argv, _ in _ONE_SPELLING])
def test_each_setting_has_one_spelling(capsys, argv, message):
    code, doc = run_json(capsys, *argv)
    assert code == 2
    assert doc == {"error": {"kind": "usage", "message": message}}


def test_gram_file_checked_against_complex(tmp_path, capsys):
    gram = tmp_path / "gram.json"
    # a cell the complex lacks, a wrong-size Gram, and no cell map at all
    for content in ('{"5,5": [["1"]]}', '{"0,0": [["1", "0"], ["0", "1"]]}', "[]"):
        gram.write_text(content)
        code, doc = run_json(capsys, "hodge", "example://square", "--gram", str(gram))
        assert code == 2, content
        assert doc["error"]["kind"] == "usage", content
    gram.write_text('{"1,1": [["2"]]}')
    code, _ = run_json(capsys, "hodge", "example://square", "--gram", str(gram))
    assert code == 0


def test_hodge_with_rational_gram(tmp_path, capsys):
    """Non-diagonal rational Grams give the same harmonic dimensions as the identity."""
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps({
        "0,1": [["1/2", "1/2"], ["1/2", "7/6"]], "0,2": [["1/2", "-1/2"], ["-1/2", "7/6"]],
        "0,3": [["1/2"]], "1,0": [["1/2", "1/2"], ["1/2", "7/6"]]}))
    uri = "example://random?grid=3,3&seed=5&maxdim=3"
    stable = {"0,1": 1, "0,2": 1, "0,3": 1, "3,1": 1}
    expected = {"harmonic_dims": {"1": dict(stable, **{"1,3": 1, "2,3": 1}), "2": stable,
                                  "3": stable},
                "name": "random-5", "three_space_checks": True}
    for extra in ((), ("--gram", str(gram))):
        code, doc = run_json(capsys, "hodge", uri, "--rmax", "3", *extra)
        assert (code, doc) == (0, expected), extra


def _cdga(**changes):
    obj = {"name": "t",
           "generators": [{"name": "a", "bidegree": [1, 0]}, {"name": "b", "bidegree": [0, 1]}],
           "d1": {}, "d2": {}, "truncation": {"max_p": 2, "max_q": 2}}
    for key, value in changes.items():
        obj[key] = value
    return obj


def test_cdga_rule_that_is_not_a_string_is_input_error(tmp_path, capsys):
    _assert_input_error(capsys, _write(tmp_path, _cdga(d1={"a": 5})))


def test_cdga_boolean_bidegree_is_input_error(tmp_path, capsys):
    gens = [{"name": "a", "bidegree": [True, 0]}, {"name": "b", "bidegree": [0, 1]}]
    _assert_input_error(capsys, _write(tmp_path, _cdga(generators=gens)))


def test_cdga_negative_truncation_is_input_error(tmp_path, capsys):
    _assert_input_error(capsys, _write(tmp_path, _cdga(truncation={"max_p": -1, "max_q": 2})))


def test_cdga_weight_of_unknown_generator_is_input_error(tmp_path, capsys):
    trunc = {"max_p": 2, "max_q": 2, "weights": {"zz": 3}}
    _assert_input_error(capsys, _write(tmp_path, _cdga(truncation=trunc)))


def test_pairing_of_wrong_shape_at_a_real_cell_is_shape_violation(tmp_path, capsys):
    pairing = tmp_path / "pairing.json"
    for n in (0, 1):
        pairing.write_text(json.dumps({"n": [n, n], "pairs": {"0,0": [["1", "2"]]}}))
        code, doc = run_json(capsys, "duality", "example://dot", "--pairing", str(pairing))
        assert code == 0, n
        assert doc["compatible"] is False and doc["violations"] == [["shape", 0, 0]], n


@pytest.mark.parametrize("n", [[2.5, 2.5], ["2", "2"], [True, True], [-1, -1], [2, 2, 2], 2],
                         ids=["float", "string", "bool", "negative", "three", "scalar"])
def test_pairing_top_degree_must_be_a_pair_of_integers(tmp_path, capsys, n):
    pairing = tmp_path / "pairing.json"
    pairing.write_text(json.dumps({"n": n, "pairs": {"0,0": [["1"]]}}))
    for command in ("duality", "report"):
        code, doc = run_json(capsys, command, "example://dot", "--pairing", str(pairing))
        assert code == 1 and doc["error"]["kind"] == "input", (command, doc)


def test_gram_file_naming_a_cell_twice_is_usage_error(tmp_path, capsys):
    gram = tmp_path / "gram.json"
    gram.write_text('{"0,0": [["0"]], "0, 0": [["1"]]}')
    code, doc = run_json(capsys, "hodge", "example://square", "--gram", str(gram))
    assert code == 2 and doc["error"]["kind"] == "usage"
    assert "0,0 twice" in doc["error"]["message"]


def test_pairing_file_naming_a_cell_twice_is_input_error(tmp_path, capsys):
    pairing = tmp_path / "pairing.json"
    pairing.write_text('{"n": [1, 1], "pairs": {"0,0": [["1"]], " 0,0": [["0"]]}}')
    code, doc = run_json(capsys, "duality", "example://square", "--pairing", str(pairing))
    assert code == 1 and doc["error"]["kind"] == "input"
    assert "0,0 twice" in doc["error"]["message"]
    pairing.write_text('{"n": [1, 1], "pairs": []}')  # no cell map at all
    code, doc = run_json(capsys, "duality", "example://square", "--pairing", str(pairing))
    assert code == 1 and doc["error"]["kind"] == "input"


def test_report_bytes_do_not_depend_on_the_shared_memo():
    from bigraded import linalg
    from bigraded.cli import build_report, load_input, render_json
    uri = "example://ce?u=1&v=1"
    build_report(load_input(uri), 4)
    warm = render_json(build_report(load_input(uri), 4))
    linalg._memo.cache_clear()
    assert render_json(build_report(load_input(uri), 4)) == warm


# ---------------------------------------------------------------------------
# CDGA inputs: d^2 = 0 decided on the generators, the matrices validated once

_INVALID_CDGA = {"name": "bad", "generators": [{"name": "a", "bidegree": [0, 1]},
                                               {"name": "b", "bidegree": [1, 1]},
                                               {"name": "x", "bidegree": [1, 1]}],
                 "d1": {"a": "b"}, "d2": {"b": "a*x"}, "truncation": {"max_p": 3, "max_q": 3}}


@pytest.mark.parametrize("argv", [
    ("validate",), ("pages",), ("bca",), ("check-pageddbar", "--r", "1"), ("hodge",),
    ("decompose",), ("duality", "--pairing", "unused.json"), ("example",), ("report",),
], ids=lambda argv: argv[0])
def test_invalid_cdga_is_input_error_naming_the_generator(tmp_path, capsys, argv):
    path = _write(tmp_path, _INVALID_CDGA)
    code, doc = run_json(capsys, argv[0], path, *argv[1:])
    assert (code, doc) == (1, {"error": {"kind": "input", "message":
                                         "invalid CDGA: d1 d2 a + d2 d1 a = a*x, not 0"}})


@pytest.mark.parametrize("rule", ["1" + "0" * 5_000 + "*b", "b^" + "1" * 5_000],
                         ids=["coefficient", "exponent"])
def test_over_long_integer_in_a_rule_is_input_error(tmp_path, capsys, rule):
    path = _write(tmp_path, dict(_INVALID_CDGA, d1={"a": rule}, d2={}))
    for command in ("validate", "report"):
        code, doc = run_json(capsys, command, path)
        assert code == 1 and doc["error"]["kind"] == "input", command
        assert "digits is too long (at position" in doc["error"]["message"], command


@pytest.mark.parametrize("command", ["validate", "report"])
def test_cdga_input_is_validated_once(tmp_path, capsys, monkeypatch, command):
    from bigraded import bicomplex
    seen = []
    original = bicomplex.validate

    def counting(c):
        seen.append(c.name)
        return original(c)

    monkeypatch.setattr(bicomplex, "validate", counting)
    path = str(Path(__file__).parent / "data" / "models" / "iwasawa.json")
    code, _ = run(capsys, command, path, *(("--rmax", "2") if command == "report" else ()))
    assert code == 0
    assert seen.count("iwasawa") == 1, seen


# ---------------------------------------------------------------------------
# implementation faults: a quotient the library forms itself that is not nested


def _break_page_exact_at_page_two(monkeypatch):
    from bigraded import spectral
    from bigraded.linalg import Subspace
    build = spectral._build_space

    def broken(ws, kind, r, p, q):
        if kind == spectral.TowerKind.PAGE_EXACT and r == 2:
            return Subspace.full(ws.c.dim(p, q))
        return build(ws, kind, r, p, q)

    monkeypatch.setattr(spectral, "_build_space", broken)


def _break_bca(name):
    def breaker(monkeypatch):
        from bigraded import bca
        from bigraded.linalg import Subspace
        monkeypatch.setattr(bca, name, lambda ws, *cell: Subspace.full(ws.c.dim(*cell[-2:])))
    return breaker


def _break_splitter_complement(monkeypatch):
    from types import SimpleNamespace
    from bigraded import splitter
    from bigraded.linalg import Subspace
    # the complement of im d1 + im d2 is sought inside the zero space
    monkeypatch.setattr(splitter, "Subspace", SimpleNamespace(full=Subspace.zero,
                                                              zero=Subspace.zero))


_CELL = r"at \(\d+, \d+\)"
_NOT_NESTED = r"quotient of non-nested pair \(dims \d+ / \d+\)"


@pytest.mark.parametrize("breaker, commands, message", [
    (_break_page_exact_at_page_two, ("pages", "report"),
     rf"E_r = Z_r / C_r {_CELL}, page 2: {_NOT_NESTED}"),
    (_break_bca("ddbar_exact"), ("bca", "report"),
     rf"BC_r = \(ker d1 ∩ ker d2\) / ddbar-exact {_CELL}, page \d: {_NOT_NESTED}"),
    (_break_bca("im_both"), ("bca", "report"),
     rf"A_r = ddbar-closed / \(im d1 \+ im d2\) {_CELL}, page \d: {_NOT_NESTED}"),
    (_break_splitter_complement, ("decompose", "report"),
     rf"complement of im d1 \+ im d2 {_CELL}: {_NOT_NESTED}"),
], ids=["page-exact", "ddbar-exact", "im-both", "splitter-complement"])
def test_non_nested_internal_quotient_is_a_consistency_error(capsys, monkeypatch, breaker,
                                                             commands, message):
    """The error names the quotient, its cell and page; it is never an input error."""
    import re
    breaker(monkeypatch)
    for command in commands:
        rmax = () if command == "decompose" else ("--rmax", "3")
        code, doc = run_json(capsys, command, "example://ce?u=1&v=1", *rmax)
        assert code == 1, command
        assert doc["error"]["kind"] == "consistency", (command, doc)
        assert re.fullmatch(message, doc["error"]["message"]), (command, doc)


def _dual_sum_files(tmp_path):
    from bigraded.bicomplex import dump_complex
    from bigraded.models import ZigzagShape, build_shape
    from bigraded.pairing import pairing_to_dict, sum_with_dual
    tot, pairing = sum_with_dual(build_shape(ZigzagShape(((0, 1), (1, 0)), False, True)))
    dump_complex(tot, tmp_path / "c.json")
    (tmp_path / "p.json").write_text(json.dumps(pairing_to_dict(pairing)))
    return str(tmp_path / "c.json"), "--pairing", str(tmp_path / "p.json")


def _patched(module, name, make):
    """Replace `bigraded.module.name` by `make` applied to the real one."""
    def breaker(monkeypatch):
        import importlib
        mod = importlib.import_module(f"bigraded.{module}")
        monkeypatch.setattr(mod, name, make(getattr(mod, name)))
    return breaker


def _with_false(field):
    """Wrap a record-returning function so that its record has `field` set to False."""
    def make(real):
        def broken(*args, **kwargs):
            record = real(*args, **kwargs)
            setattr(record, field, False)
            return record
        return broken
    return make


@pytest.mark.parametrize("breaker, argv, message", [
    (_patched("pairing", "induced_pairing_er", _with_false("well_defined")), ("duality",),
     r"a compatible pairing induces a pairing that is not well defined at \(\d+, \d+\), page 1"),
    (_patched("hodge", "_is_orthogonal", lambda real: lambda a, b, gram: False),
     ("hodge", "example://ce?u=1&v=1"),
     r"harmonic ⊕ page-exact ⊕ adjoint-page-exact does not split the component "
     r"at \(\d+, \d+\), page 2"),
    (_patched("spectral", "de_rham_dims",
              lambda real: lambda total: {k: b + 1 for k, b in real(total).items()}),
     ("report", "example://ce?u=1&v=1"),
     r"stable page sums differ from the Betti numbers at page \d+: .*"),
], ids=["pairing-not-well-defined", "three-space", "einfty"])
def test_failed_theorem_is_a_consistency_error(tmp_path, capsys, monkeypatch, breaker, argv,
                                                message):
    """A relation the report used to print as a flag now stops the command."""
    import re
    breaker(monkeypatch)
    if argv == ("duality",):
        argv += _dual_sum_files(tmp_path)
    code, doc = run_json(capsys, *argv, "--rmax", "3")
    assert code == 1 and doc["error"]["kind"] == "consistency", doc
    assert re.fullmatch(message, doc["error"]["message"]), doc
