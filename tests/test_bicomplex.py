"""Double complex model: validation, constructions, total complex, file format."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from bigraded.bicomplex import (DoubleComplex, change_of_basis,
                                complex_from_dict, complex_to_dict,
                                de_rham_dims, direct_sum, euler_characteristic,
                                random_complex, random_invertible,
                                swap_complex, total_complex, validate)
from bigraded.linalg import Matrix
from bigraded.models import (Square, ZigzagShape, build_shape, cdga_from_dict, dot_shape,
                             example_calabi_eckmann)
from bigraded.spectral import (Invariants, Workspace, degeneration_page, einfty_check,
                               page_dims)
from bigraded.bca import bca_dims, page_ddbar_verdict
from bigraded.cli import build_report
from bigraded.zigzag import decompose, measured_invariants


def test_square_is_valid():
    assert validate(build_shape(Square(0, 0))).ok


def test_negated_map_breaks_anticommutation():
    sq = build_shape(Square(0, 0))
    d2 = dict(sq.d2)
    d2[(0, 0)] = -d2[(0, 0)]
    bad = DoubleComplex("bad", sq.pmax, sq.qmax, dict(sq.dims), dict(sq.d1), d2)
    report = validate(bad)
    assert not report.ok
    assert any(kind == "anticommutation" and (p, q) == (0, 0)
               for kind, p, q, _ in report.violations)


def test_validate_describes_violations_next_to_empty_cells():
    # (1,1) and (2,2) are empty, so several products there have an empty factor
    M = Matrix.from_rows
    dims = {(0, 0): 1, (1, 0): 2, (2, 0): 1, (0, 1): 1, (2, 1): 1, (0, 2): 1, (1, 2): 1}
    d1 = {(0, 0): M([[1], [2]]), (1, 0): M([[1, 1]]), (0, 2): M([[3]])}
    d2 = {(0, 0): M([[1]]), (0, 1): M([[1]]), (2, 0): M([[1]])}
    report = validate(DoubleComplex("broken", 2, 2, dims, d1, d2))
    assert report.describe() == (
        "d1∘d1 fails at (0,0): the 1x1 product has 1 nonzero entry: [0,0] = 3\n"
        "d2∘d2 fails at (0,0): the 1x1 product has 1 nonzero entry: [0,0] = 1\n"
        "anticommutation fails at (0,1): the 1x1 product has 1 nonzero entry: [0,0] = 3\n"
        "anticommutation fails at (1,0): the 1x2 product has 2 nonzero entries: "
        "[0,0] = 1, [0,1] = 1")


def test_absent_maps_are_the_shared_zero_and_never_kept():
    # one generator x at (1,1): 20,001 cells on the diagonal and no nonzero map
    c = cdga_from_dict({"generators": [{"name": "x", "bidegree": [1, 1]}],
                        "truncation": {"max_p": 20000, "max_q": 20000}})
    assert c.total_dim() == 20001
    assert validate(c).ok
    held = [v for slot in type(c).__slots__ if isinstance(getattr(c, slot), dict)
            for v in getattr(c, slot).values()]
    assert not any(isinstance(v, Matrix) for v in held)
    assert c.d1_at(7, 7) is Matrix.zero(0, 1) and c.d2_at(7, 7) is Matrix.zero(0, 1)


def test_entry_edit_is_rejected():
    sq = build_shape(Square(0, 0))
    d2 = dict(sq.d2)
    d2[(1, 0)] = Matrix.from_rows([[1]])  # sign flip relative to the valid build
    tampered = DoubleComplex("bad", sq.pmax, sq.qmax, dict(sq.dims), dict(sq.d1), d2)
    assert not validate(tampered).ok


def test_random_complex_valid_and_deterministic():
    for seed in (0, 1, 2):
        c1 = random_complex((3, 3), 3, seed)
        c2 = random_complex((3, 3), 3, seed)
        assert validate(c1).ok
        assert complex_to_dict(c1) == complex_to_dict(c2)


def test_random_complex_max_dim_zero():
    c = random_complex((3, 3), 0, 5)
    assert c.total_dim() == 0


def test_direct_sum_zero_neutral():
    a = build_shape(Square(0, 0))
    zero = DoubleComplex("zero", 1, 1, {}, {}, {})
    s = direct_sum(a, zero)
    ws_a, ws_s = Workspace(a), Workspace(s)
    assert page_dims(a, 3, ws_a).e == page_dims(s, 3, ws_s).e
    assert bca_dims(a, 3, ws_a).bc == bca_dims(s, 3, ws_s).bc


def test_direct_sum_dots_additive():
    dot = build_shape(dot_shape(1, 1))
    two = direct_sum(dot, dot)
    table = page_dims(two, 3, Workspace(two))
    assert table.dim(1, 1, 1) == 2 and table.dim(3, 1, 1) == 2
    bca = bca_dims(two, 2, Workspace(two))
    assert bca.bc.get((2, 1, 1), 0) == 2 and bca.a.get((2, 1, 1), 0) == 2


def test_direct_sum_general_additivity():
    a = build_shape(Square(0, 0), grid=(3, 3))
    b = build_shape(ZigzagShape(((0, 1),), True, True), grid=(3, 3))
    s = direct_sum(a, b)
    wa, wb, ws = Workspace(a), Workspace(b), Workspace(s)
    ta, tb, ts = (page_dims(x, 4, w) for x, w in ((a, wa), (b, wb), (s, ws)))
    for key in set(ta.e) | set(tb.e) | set(ts.e):
        assert ts.e.get(key, 0) == ta.e.get(key, 0) + tb.e.get(key, 0)
    ba, bb, bs = (bca_dims(x, 4, w) for x, w in ((a, wa), (b, wb), (s, ws)))
    for key in set(ba.bc) | set(bb.bc) | set(bs.bc):
        assert bs.bc.get(key, 0) == ba.bc.get(key, 0) + bb.bc.get(key, 0)


def test_change_of_basis_identity():
    c = build_shape(Square(1, 1))
    same = change_of_basis(c, {})
    assert complex_to_dict(same)["d1"] == complex_to_dict(c)["d1"]


def test_change_of_basis_preserves_invariants():
    rng = random.Random(23)
    dot = build_shape(dot_shape(0, 1), grid=(2, 2))
    sq = build_shape(Square(0, 0), grid=(2, 2))
    c = direct_sum(dot, sq)
    transforms = {cell: random_invertible(c.dim(*cell), rng)
                  for cell in c.support()}
    moved = change_of_basis(c, transforms)
    assert validate(moved).ok
    assert page_dims(c, 3, Workspace(c)).e == page_dims(moved, 3, Workspace(moved)).e
    bc0 = bca_dims(c, 3, Workspace(c))
    bc1 = bca_dims(moved, 3, Workspace(moved))
    assert bc0.bc == bc1.bc and bc0.a == bc1.a


GRIDS = st.sampled_from([(1, 1), (2, 2), (3, 2), (2, 3), (3, 3)])


def _all_zero(table):
    return not any(getattr(table, tag) for tag in Invariants.TAGS)


@settings(max_examples=25, deadline=None)
@given(grid=GRIDS, seed=st.integers(0, 10**6), scramble=st.integers(0, 10**6))
def test_every_invariant_table_is_unchanged_by_change_of_basis(grid, seed, scramble):
    # pages, conjugate pages, BC_r, A_r, Betti numbers and dimensions
    c = random_complex(grid, 3, seed)
    rng = random.Random(scramble)
    moved = change_of_basis(c, {cell: random_invertible(n, rng) for cell, n in c.dims.items()})
    assert _all_zero(measured_invariants(c, 4).add(measured_invariants(moved, 4), -1))


@settings(max_examples=25, deadline=None)
@given(grids=st.tuples(GRIDS, GRIDS), seeds=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)))
def test_every_invariant_table_is_additive_under_direct_sum(grids, seeds):
    a, b = (random_complex(grid, 2, seed) for grid, seed in zip(grids, seeds))
    whole = measured_invariants(direct_sum(a, b), 4)
    assert _all_zero(whole.add(measured_invariants(a, 4), -1).add(measured_invariants(b, 4), -1))


SHIFTS = st.tuples(st.integers(0, 6), st.integers(0, 6))


def _translated(c, a, b):
    """`c` moved by (a, b), on its grid grown by as much."""
    def move(table):
        return {(p + a, q + b): v for (p, q), v in table.items()}
    return DoubleComplex(c.name, c.pmax + a, c.qmax + b, move(c.dims), move(c.d1), move(c.d2),
                         meta=dict(c.meta))


def _translated_shape(shape, a, b):
    if isinstance(shape, Square):
        return Square(shape.p + a, shape.q + b)
    return ZigzagShape(tuple((p + a, q + b) for p, q in shape.generators),
                       shape.d2_out_first, shape.d1_out_last)


@settings(max_examples=25, deadline=None)
@given(grid=GRIDS, seed=st.integers(0, 10**6), pad=SHIFTS)
def test_a_report_does_not_see_grid_padding(grid, seed, pad):
    c = random_complex(grid, 2, seed)
    padded = DoubleComplex(c.name, c.pmax + pad[0], c.qmax + pad[1], c.dims, c.d1, c.d2,
                           meta=dict(c.meta))
    report, again = build_report(c, 4), build_report(padded, 4)
    assert report.pop("grid") == [c.pmax, c.qmax]
    assert again.pop("grid") == [c.pmax + pad[0], c.qmax + pad[1]]
    assert again == report


@settings(max_examples=25, deadline=None)
@given(grid=GRIDS, seed=st.integers(0, 10**6), shift=SHIFTS)
def test_translation_moves_every_table_and_keeps_every_verdict(grid, seed, shift):
    a, b = shift
    c = random_complex(grid, 2, seed)
    moved = _translated(c, a, b)
    ws, wm = Workspace(c), Workspace(moved)
    before, after = measured_invariants(c, 4, ws), measured_invariants(moved, 4, wm)
    assert after.dims == {(p + a, q + b): n for (p, q), n in before.dims.items()}
    for tag in ("e", "ebar", "bc", "a"):
        assert getattr(after, tag) == {(r, p + a, q + b): v
                                       for (r, p, q), v in getattr(before, tag).items()}
    assert after.b == {k + a + b: v for k, v in before.b.items()}
    assert decompose(moved, wm).inventory == {
        _translated_shape(s, a, b): m for s, m in decompose(c, ws).inventory.items()}
    assert degeneration_page(moved, wm) == degeneration_page(c, ws)
    assert einfty_check(moved, wm).ok == einfty_check(c, ws).ok
    for r in range(1, 5):
        v, w = page_ddbar_verdict(c, r, ws), page_ddbar_verdict(moved, r, wm)
        assert (w.verdict, w.criteria, w.duality_gap) == (v.verdict, v.criteria, v.duality_gap)


@settings(max_examples=25, deadline=None)
@given(grid=GRIDS, seed=st.integers(0, 10**6))
def test_pages_of_the_swapped_complex_are_the_conjugate_pages(grid, seed):
    c = random_complex(grid, 3, seed)
    swapped = page_dims(swap_complex(c), 4).e
    assert swapped == {(r, q, p): v for (r, p, q), v in page_dims(c, 4).ebar.items()}


def test_change_of_basis_scaling_one_vector():
    c = build_shape(Square(0, 0))
    t = {(0, 0): Matrix.from_rows([[5]])}
    moved = change_of_basis(c, t)
    assert page_dims(c, 2, Workspace(c)).e == page_dims(moved, 2, Workspace(moved)).e


def test_total_complex_dot():
    dot = build_shape(dot_shape(1, 1))
    t = total_complex(dot)
    assert [t.dim(k) for k in (0, 1, 2)] == [0, 0, 1]
    assert t.differential(2).is_zero()
    assert de_rham_dims(t) == {2: 1}  # one Betti number per degree that holds a cell


def test_total_complex_square_dims():
    sq = build_shape(Square(0, 0))
    t = total_complex(sq)
    assert [t.dim(k) for k in (0, 1, 2)] == [1, 2, 1]
    assert all(v == 0 for v in de_rham_dims(t).values())


def test_total_complex_calabi_eckmann_betti():
    ce = example_calabi_eckmann(1, 1)
    betti = de_rham_dims(total_complex(ce))
    assert [betti.get(k, 0) for k in range(7)] == [1, 0, 0, 2, 0, 0, 1]
    assert all(v == 0 for k, v in betti.items() if k > 6)


def test_total_rank_oracle_sympy():
    sympy = pytest.importorskip("sympy")
    ce = example_calabi_eckmann(1, 1)
    t = total_complex(ce)
    for k in (2, 3, 4):
        d = t.differential(k)
        sm = sympy.Matrix([[int(x) for x in row] for row in d.data])
        ker = t.dim(k) - sm.rank()
        prev = sympy.Matrix([[int(x) for x in row] for row in t.differential(k - 1).data])
        assert de_rham_dims(t)[k] == ker - prev.rank()


def test_betti_numbers_rank_each_differential_once(monkeypatch):
    ws = Workspace(example_calabi_eckmann(1, 1))
    t = ws.total
    ranked = []
    rank = Matrix.rank
    monkeypatch.setattr(Matrix, "rank", lambda m: ranked.append(m) or rank(m))
    betti = ws.betti
    assert len(ranked) == len(t.degree_dims) == 21  # degrees 0..20 all hold a cell
    assert ws.betti is betti and len(ranked) == 21
    assert [betti[k] for k in range(7)] == [1, 0, 0, 2, 0, 0, 1]


def test_euler_characteristic_consistency(random_suite):
    for _, c, ws in random_suite[:8]:
        betti = de_rham_dims(ws.total)
        lhs = sum(((-1) ** k) * b for k, b in betti.items())
        assert lhs == euler_characteristic(c)


def test_swap_involution():
    c = random_complex((3, 2), 3, 9)
    back = swap_complex(swap_complex(c))
    assert complex_to_dict(back)["dims"] == complex_to_dict(c)["dims"]
    assert complex_to_dict(back)["d1"] == complex_to_dict(c)["d1"]


def test_json_roundtrip():
    c = random_complex((3, 3), 3, 31)
    obj = complex_to_dict(c)
    text = json.dumps(obj)
    back = complex_from_dict(json.loads(text))
    assert complex_to_dict(back) == obj
    assert validate(back).ok


def test_commuting_convention_twist():
    # commuting input data: d1 d2 = d2 d1; ingestion must twist to anticommuting
    obj = {
        "name": "commuting-square",
        "convention": "commute",
        "grid": [1, 1],
        "dims": {"0,0": 1, "1,0": 1, "0,1": 1, "1,1": 1},
        "d1": {"0,0": [["1"]], "0,1": [["1"]]},
        "d2": {"0,0": [["1"]], "1,0": [["1"]]},
    }
    c = complex_from_dict(obj)
    assert validate(c).ok
    # the untwisted matrices would anticommute-fail
    obj_bad = dict(obj, convention="anticommute")
    assert not validate(complex_from_dict(obj_bad)).ok


def test_malformed_file_rejected():
    from bigraded.linalg import LinalgError
    with pytest.raises(LinalgError):
        complex_from_dict({"grid": [1, 1], "dims": {"0,0": 1}, "d1": {"0,0": [["1", "2"]]}, "d2": {}})


@pytest.mark.parametrize("obj", [
    {"grid": [1, 1], "dims": {"0,0": 1}, "d1": [1]},
    {"grid": [1, 1], "dims": [["0,0", 1]]},
    {"grid": [1, 1], "dims": {"0,0": -1}},
    {"grid": [1, 1], "dims": {"0,0": 1, "1,0": 1}, "d1": {"0,0": [[True]]}},
])
def test_misshapen_file_rejected(obj):
    from bigraded.linalg import LinalgError
    with pytest.raises(LinalgError):
        complex_from_dict(obj)


@pytest.mark.parametrize("grid", [None, 5, [1], [1, 2, 3]], ids=["null", "int", "one", "three"])
def test_malformed_grid_names_grid(grid):
    from bigraded.linalg import LinalgError
    with pytest.raises(LinalgError, match="grid"):
        complex_from_dict({"grid": grid, "dims": {"0,0": 1}})


def test_dimension_outside_grid_is_refused():
    from bigraded.linalg import LinalgError
    for cell in ((2, 0), (0, 2), (-1, 0)):
        with pytest.raises(LinalgError, match="outside the grid"):
            DoubleComplex("x", 1, 1, {(0, 0): 1, cell: 1}, {}, {})
    c = DoubleComplex("x", 1, 1, {(0, 0): 1, (2, 0): 0}, {}, {})
    assert c.dims == {(0, 0): 1} and c.dim(2, 0) == 0 and c.dim(-1, 0) == 0
