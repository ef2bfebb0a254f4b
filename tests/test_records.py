"""What importing the CLI loads, and how the hand-written record classes behave."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bigraded
from bigraded.linalg import LinalgError
from bigraded.models import Square, ZigzagShape, dot_shape
from bigraded.spectral import Invariants

SRC = Path(bigraded.__file__).resolve().parents[1]


def test_cli_import_leaves_out_dataclasses_inspect_and_pairing():
    # every `bigraded report` pays for what this import loads, in a fresh interpreter,
    # and compiling the package is about a third of a report process
    code = ("import sys, bigraded.cli; "
            "print(sorted({'dataclasses', 'inspect', 'bigraded.pairing', 'bigraded.splitter'}"
            " & set(sys.modules)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_shape_reprs_are_pinned():
    # `cli._decompose_section` orders the report inventory by these strings
    assert repr(Square(1, 2)) == "Square(p=1, q=2)"
    assert repr(ZigzagShape(((0, 2), (1, 1)), True, False)) == (
        "ZigzagShape(generators=((0, 2), (1, 1)), d2_out_first=True, d1_out_last=False)")
    assert str(dot_shape(0, 0)) == (
        "ZigzagShape(generators=((0, 0),), d2_out_first=False, d1_out_last=False)")


def test_shapes_are_values():
    z = ZigzagShape(((0, 1), (1, 0)), False, True)
    same = ZigzagShape(tuple([(0, 1), (1, 0)]), False, True)
    assert z == same and hash(z) == hash(same) and len({z, same}) == 1
    assert z != ZigzagShape(((0, 1), (1, 0)), True, True)
    assert Square(0, 1) == Square(0, 1) and hash(Square(0, 1)) == hash(Square(0, 1))
    assert Square(0, 1) != Square(1, 0)
    # a square never equals a zigzag, even one whose fields look alike
    assert Square(0, 0) != dot_shape(0, 0) and dot_shape(0, 0) != Square(0, 0)
    assert Square(0, 0) != (0, 0)
    assert {Square(0, 0): 1, dot_shape(0, 0): 2}[Square(0, 0)] == 1


@pytest.mark.parametrize("shape", [Square(0, 0), dot_shape(1, 1)])
def test_shapes_are_immutable(shape):
    for field in ("p", "generators", "d1_out_last", "extra"):
        with pytest.raises(AttributeError):
            setattr(shape, field, 1)
    with pytest.raises(AttributeError):
        delattr(shape, shape.__slots__[0])


@pytest.mark.parametrize("gens", [(), ((0, 1), (1, 1)), ((0, 1), (2, -1)), ((-1, 0),)])
def test_malformed_staircase_raises(gens):
    with pytest.raises(LinalgError):
        ZigzagShape(gens, False, False)


def test_record_defaults_are_fresh_per_instance():
    s, t = Invariants(3), Invariants(3)
    for tag in Invariants.TAGS:
        getattr(s, tag)[0] = 1
        assert getattr(t, tag) == {}, tag


def test_invariants_add_sums_tables_and_drops_zeros():
    s, t = Invariants(2), Invariants(2)
    s.e[(1, 0, 0)] = s.bc[(2, 1, 0)] = s.b[0] = 1
    t.e[(1, 0, 0)] = t.a[(1, 0, 1)] = 2
    assert s.add(t, 3) is s
    assert (s.e, s.bc, s.a, s.b) == ({(1, 0, 0): 7}, {(2, 1, 0): 1}, {(1, 0, 1): 6}, {0: 1})
    assert s.total("e", 1) == 7 and s.total("e", 2) == 0 and s.dim(1, 0, 0) == 7
    assert s.degree_sums("a", 1) == {1: 6} and s.degree_sums("a", 2) == {}
    s.add(t, -3).add(t, -1)
    assert s.e == {(1, 0, 0): -1} and s.a == {(1, 0, 1): -2}
    s.add(t, 1)
    assert s.e == {(1, 0, 0): 1} and s.a == {} and s.bc == {(2, 1, 0): 1}
