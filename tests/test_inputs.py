"""Arbitrary JSON in each field of a CDGA file and of the complex header.

Every read returns a complex or raises `LinalgError`; nothing else escapes,
and a CDGA that is read is a valid double complex.  (The four matrix tables
are fuzzed in `test_tables.py`.)

Integers stay within -3..8, so truncation bounds and grid sizes are at most
8.  The size of a truncated algebra grows with its bound: a (1,1) generator
under ``max_p: 10**6`` is a million monomials.  And several loops walk the
whole grid, so a 1000x1000 grid holding one cell takes seconds to report.
Large values would time those, not test the reader.
"""

import copy

from hypothesis import given, settings, strategies as st

from bigraded.bicomplex import DoubleComplex, complex_from_dict, validate
from bigraded.linalg import LinalgError
from bigraded.models import cdga_from_dict

_ints = st.integers(-3, 8)
_leaves = st.none() | st.booleans() | _ints | st.floats() | st.text(max_size=4)
_json = st.recursive(_leaves, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=8)
_pairs = st.lists(_ints, min_size=2, max_size=2)
# the declared names a, b, c and one undeclared
_names = st.sampled_from(["a", "b", "c", "x"])
_rule_text = st.lists(st.sampled_from(["a", "b", "c", "x", "0", "1", "2", "12", "+", "-", "*",
                                       "/", "^", "(", ")", " "]), max_size=12).map("".join)
_FUZZ = settings(max_examples=100, deadline=None)

# a valid model: d1 b = c and d2 a = -c, with a weight truncation
_CDGA = {"name": "fuzz",
         "generators": [{"name": "a", "bidegree": [1, 0]}, {"name": "b", "bidegree": [0, 1]},
                        {"name": "c", "bidegree": [1, 1]}],
         "d1": {"b": "c"}, "d2": {"a": "-c"},
         "truncation": {"max_p": 4, "max_q": 4, "weights": {"c": 1}, "max_weight": 3}}


def read_cdga(obj):
    """`cdga_from_dict(obj)`, which must be a valid complex or raise LinalgError."""
    try:
        c = cdga_from_dict(obj)
    except LinalgError:
        return None
    assert isinstance(c, DoubleComplex) and validate(c).ok, obj
    return c


def read_complex(obj):
    try:
        c = complex_from_dict(obj)
    except LinalgError:
        return None
    assert isinstance(c, DoubleComplex), obj
    return c


def _with(**fields):
    obj = copy.deepcopy(_CDGA)
    obj.update(fields)
    return obj


def test_the_fuzzed_model_reads():
    c = read_cdga(_CDGA)
    assert c is not None and c.total_dim() > 1


@_FUZZ
@given(gens=_json | st.lists(st.fixed_dictionaries({"name": _names | _json,
                                                    "bidegree": _pairs | _json}), max_size=4))
def test_cdga_generators(gens):
    read_cdga(_with(generators=gens))


@_FUZZ
@given(index=st.integers(0, 2), bidegree=_pairs | _json)
def test_cdga_bidegrees(index, bidegree):
    obj = _with()
    obj["generators"][index]["bidegree"] = bidegree
    read_cdga(obj)


@_FUZZ
@given(which=st.sampled_from(["d1", "d2"]), rules=st.dictionaries(_names, _rule_text | _json,
                                                                  max_size=3) | _json)
def test_cdga_rule_strings(which, rules):
    read_cdga(_with(**{which: rules}))


@_FUZZ
@given(truncation=_json | st.fixed_dictionaries({"max_p": _ints | _json, "max_q": _ints | _json}))
def test_cdga_truncation(truncation):
    read_cdga(_with(truncation=truncation))


@_FUZZ
@given(weights=_json | st.dictionaries(_names, _ints | _json, max_size=3))
def test_cdga_weights(weights):
    obj = _with()
    obj["truncation"]["weights"] = weights
    read_cdga(obj)


@_FUZZ
@given(max_weight=_json)
def test_cdga_max_weight(max_weight):
    obj = _with()
    obj["truncation"]["max_weight"] = max_weight
    read_cdga(obj)


_HEADER = {"grid": [1, 1], "dims": {"0,0": 1, "1,0": 1}, "d1": {"0,0": [["1"]]}}
_cells = st.sampled_from(["0,0", "1,0", "0,1", "1,1", "8,8", "-1,0", "a", "1,1,1", " 1 , 0 "])


@_FUZZ
@given(grid=_pairs | _json)
def test_header_grid(grid):
    read_complex(dict(_HEADER, grid=grid))


@_FUZZ
@given(dims=_json | st.dictionaries(_cells | st.text(max_size=4), _ints | _json, max_size=4))
def test_header_dims(dims):
    read_complex(dict(_HEADER, dims=dims))


@_FUZZ
@given(meta=_json | st.dictionaries(st.sampled_from(["certified_max_p", "u", ""]),
                                    _ints | _json, max_size=3))
def test_header_meta(meta):
    read_complex(dict(_HEADER, meta=meta))
