"""Matrix tables `{"p,q": [[entry, ...], ...]}` of complex, Gram, pairing and certificate files.

All four go through one reader.  A row that is not a JSON array (a string, an
object) is an input error naming the table and the cell, never a matrix read
character by character or key by key.
"""

import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bigraded.bicomplex import complex_from_dict
from bigraded.cli import UsageError, _load_gram, main
from bigraded.linalg import LinalgError
from bigraded.models import build_shape, dot_shape
from bigraded.pairing import pairing_from_dict
from bigraded.zigzag import certificate_from_dict

# Rows that a character-by-character or key-by-key reader took for the 1x2 matrix [[1, 2]].
BAD_ROWS = {"string": ["12"], "object": [{"1": 0, "2": 0}]}
# Their 1x1 forms, [[2]], which passed as a Gram matrix of a one-dimensional cell.
BAD_SQUARE_ROWS = {"string": ["2"], "object": [{"2": 0}]}


def _complex(which, rows):
    target = "1,0" if which == "d1" else "0,1"
    return {"grid": [1, 1], "dims": {"0,0": 2, target: 1}, which: {"0,0": rows}}


def _pairing(rows):
    return {"n": [0, 0], "pairs": {"0,0": rows}}


def _certificate(rows):
    return {"transforms": {"0,0": rows}, "blocks": []}


def run_json(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
@pytest.mark.parametrize("table, read", [
    ("d1", lambda rows: complex_from_dict(_complex("d1", rows))),
    ("d2", lambda rows: complex_from_dict(_complex("d2", rows))),
    ("pairing", lambda rows: pairing_from_dict(_pairing(rows))),
    ("transforms", lambda rows: certificate_from_dict(_certificate(rows))),
], ids=["d1", "d2", "pairing", "certificate"])
def test_row_that_is_not_an_array_is_linalg_error(table, read, kind):
    with pytest.raises(LinalgError, match=f"{table} at 0,0 must be an array of rows"):
        read(BAD_ROWS[kind])


@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
@pytest.mark.parametrize("table", ["d1", "d2", "Gram", "pairing"])
def test_row_that_is_not_an_array_is_an_error_object(tmp_path, capsys, table, kind):
    path = tmp_path / "table.json"
    if table in ("d1", "d2"):
        path.write_text(json.dumps(_complex(table, BAD_ROWS[kind])))
        argv, exit_code, error = ("validate", str(path)), 1, "input"
    elif table == "Gram":
        path.write_text(json.dumps({"0,0": BAD_SQUARE_ROWS[kind]}))
        argv, exit_code, error = ("hodge", "example://dot", "--gram", str(path)), 2, "usage"
    else:
        path.write_text(json.dumps(_pairing(BAD_ROWS[kind])))
        argv, exit_code, error = ("duality", "example://dot", "--pairing", str(path)), 1, "input"
    code, doc = run_json(capsys, *argv)
    assert code == exit_code and doc["error"]["kind"] == error, doc
    assert f"{table} at 0,0 must be an array of rows" in doc["error"]["message"]


@pytest.mark.parametrize("entry", [0.5, 2.0, "1e5", "2.5E-1", True, None, [1]],
                         ids=["float", "integral-float", "exponent", "exponent-upper", "bool",
                              "null", "array"])
def test_entry_that_is_not_an_integer_or_a_rational_string_is_refused(entry):
    with pytest.raises(LinalgError, match="pairing at 0,0: not a rational number"):
        pairing_from_dict(_pairing([[entry]]))


def test_rows_of_different_lengths_name_their_lengths():
    with pytest.raises(LinalgError, match=r"pairing at 0,0 has rows of lengths \[1, 2\]"):
        pairing_from_dict(_pairing([["1"], ["1", "2"]]))
    with pytest.raises(LinalgError, match=r"d1 at 0,0 has rows of lengths \[2\], expected 1x1"):
        complex_from_dict({"grid": [1, 1], "dims": {"0,0": 1, "1,0": 1},
                           "d1": {"0,0": [["1", "2"]]}})


def test_integer_and_rational_string_entries_are_read_exactly():
    pairing = pairing_from_dict(_pairing([[3, "-1/2", "0.25", " 7 "]]))
    assert pairing.pairs[(0, 0)].data == ((3, Fraction(-1, 2), Fraction(1, 4), 7),)


# ---------------------------------------------------------------------------
# fuzzing: arbitrary JSON at one cell of each table

_entries = st.integers(-3, 3) | st.sampled_from(["0", "1", "-1/2", "0.25", "12", "1/0", "1e3"])
_leaves = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | _entries
_json = st.recursive(_leaves, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=10)
# arbitrary JSON, arrays of arrays, and arrays of equal-length arrays of likely entries
_cell_values = (_json | st.lists(st.lists(_leaves, max_size=3), max_size=3)
                | st.integers(0, 2).flatmap(lambda n: st.lists(
                    st.lists(_entries, min_size=n, max_size=n), max_size=2)))
_FUZZ = settings(max_examples=100, deadline=None)


def _check(table, value, read):
    """`read()` returns the matrix at cell 0,0 of `value`, or raises LinalgError naming the cell.

    The one error that does not come from the reader is a Gram matrix that is
    not symmetric positive definite.
    """
    try:
        m = read()
    except LinalgError as exc:
        assert f"{table} at 0,0" in str(exc) or "Gram at (0, 0) is not" in str(exc), (
            value, str(exc))
        return
    assert _well_formed(value), value
    assert m.rows == len(value) and list(map(list, m.data)) == [
        [Fraction(x) for x in row] for row in value]


def _well_formed(value):
    """An array of arrays of JSON integers and strings (which may still fail to parse)."""
    return isinstance(value, list) and all(
        isinstance(row, list) and all(type(x) is int or isinstance(x, str) for x in row)
        for row in value)


@_FUZZ
@given(value=_cell_values, dims=st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_complex_map_reader_returns_matrices_or_raises_linalg_error(value, dims):
    obj = {"grid": [1, 1], "dims": {"0,0": dims[0], "1,0": dims[1]}, "d1": {"0,0": value}}
    _check("d1", value, lambda: complex_from_dict(obj).d1_at(0, 0))


@_FUZZ
@given(value=_cell_values, n=st.integers(1, 2))
def test_gram_reader_returns_matrices_or_raises_usage_error(value, n):
    c = build_shape(dot_shape(0, 0)) if n == 1 else complex_from_dict(
        {"grid": [0, 0], "dims": {"0,0": 2}})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "gram.json")
        with open(path, "w") as fh:
            json.dump({"0,0": value}, fh)

        def read():
            try:
                return _load_gram(path, c).grams[(0, 0)]
            except UsageError as exc:
                assert isinstance(exc.__cause__, LinalgError), exc
                raise exc.__cause__
        _check("Gram", value, read)


@_FUZZ
@given(value=_cell_values)
def test_pairing_reader_returns_matrices_or_raises_linalg_error(value):
    _check("pairing", value, lambda: pairing_from_dict(_pairing(value)).pairs[(0, 0)])


@_FUZZ
@given(value=_cell_values)
def test_certificate_reader_returns_matrices_or_raises_linalg_error(value):
    _check("transforms", value,
           lambda: certificate_from_dict(_certificate(value)).transforms[(0, 0)])
