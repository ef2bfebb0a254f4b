"""Shape builders, the expression parser and CDGA models."""

import json
from pathlib import Path

import pytest

from bigraded.bicomplex import complex_to_dict, validate
from bigraded.linalg import LinalgError
from bigraded.models import (CdgaSpec, ParseError, Square, ZigzagShape, build_cdga,
                             build_shape, cdga_from_dict,
                             example_calabi_eckmann, expression_to_str,
                             parse_expression, shape_cells, shape_length)
from bigraded.spectral import Workspace, degeneration_page, page_dims
from bigraded.zigzag import _shape_to_dict, enumerate_shapes, split, verify_certificate


# ---------------------------------------------------------------------------
# shapes


def test_square_total_dimension():
    sq = build_shape(Square(2, 1))
    assert validate(sq).ok
    assert sq.total_dim() == 4


def test_zigzag_length_matches_dimension():
    for gens in (1, 2, 3):
        for bf in (False, True):
            for bl in (False, True):
                shape = ZigzagShape(tuple((i, 3 - i) for i in range(gens)), bf, bl)
                z = build_shape(shape)
                assert validate(z).ok
                assert z.total_dim() == shape_length(shape)
                assert z.total_dim() == len(shape_cells(shape))


def test_malformed_staircase_rejected():
    with pytest.raises(LinalgError):
        ZigzagShape(((0, 0), (1, 1)), False, False)
    with pytest.raises(LinalgError):
        ZigzagShape((), False, False)


def test_square_outside_the_first_quadrant_rejected():
    with pytest.raises(LinalgError, match="square outside the first quadrant"):
        Square(-1, 0)


def test_built_shapes_match_the_golden_file():
    # complexes, names and labels of every shape fitting a 4x4 grid, as the
    # separate square and zigzag builders wrote them
    golden = json.loads((Path(__file__).parent / "data" / "shapes_4x4.json").read_text())
    shapes = enumerate_shapes((4, 4))
    assert [entry["shape"] for entry in golden] == [_shape_to_dict(s) for s in shapes]
    for entry, shape in zip(golden, shapes):
        c = build_shape(shape)
        assert complex_to_dict(c) == entry["complex"]
        assert {f"{p},{q}": v for (p, q), v in c.labels.items()} == entry["labels"]


def test_every_built_shape_is_its_own_one_summand():
    for shape in enumerate_shapes((4, 4)):
        c = build_shape(shape)
        assert validate(c).ok
        assert c.total_dim() == shape_length(shape)
        dec = split(c)
        assert dec.inventory == {shape: 1}
        assert verify_certificate(c, dec.certificate).ok


def test_shape_does_not_fit_grid():
    with pytest.raises(LinalgError):
        build_shape(Square(1, 1), grid=(1, 1))


# ---------------------------------------------------------------------------
# parser


@pytest.fixture
def ce_spec():
    return CdgaSpec(
        generators=[("x01", (0, 1)), ("x11", (1, 1)), ("y", (2, 1)), ("xv", (2, 1))],
        d1_rules={"x01": "x11"},
        d2_rules={"y": "x11^2"},
        truncation=(8, 8),
    )


def test_parse_power(ce_spec):
    poly = parse_expression("x11^2", ce_spec)
    assert poly == {(0, 2, 0, 0): 1}


def test_parse_odd_square_vanishes(ce_spec):
    assert parse_expression("x01*x01", ce_spec) == {}


def test_koszul_sign_oracle(ce_spec):
    # reordering two odd generators of total degrees |y| = 3, |x01| = 1
    # must produce the sign (-1)^{3*1} relative to the canonical order
    lhs = parse_expression("y*x01", ce_spec)
    rhs = parse_expression("x01*y", ce_spec)
    sign = (-1) ** ((2 + 1) * (0 + 1))
    assert lhs == {m: sign * c for m, c in rhs.items()}


def test_parse_coefficients_and_sums(ce_spec):
    from fractions import Fraction
    poly = parse_expression("3/2*x11 - x11 + 2", ce_spec)
    assert poly[(0, 1, 0, 0)] == Fraction(1, 2)
    assert poly[(0, 0, 0, 0)] == 2


def test_parse_errors_have_positions(ce_spec):
    with pytest.raises(ParseError) as exc:
        parse_expression("x11 + zz", ce_spec)
    assert "position" in str(exc.value)
    with pytest.raises(ParseError):
        parse_expression("x11^-2", ce_spec)
    with pytest.raises(ParseError):
        parse_expression("x11 $ 2", ce_spec)


def test_parser_roundtrip(ce_spec):
    for src in ("x11^2", "x01*y - 2*xv", "1/3*x11*x01 + x11^3"):
        poly = parse_expression(src, ce_spec)
        assert parse_expression(expression_to_str(poly, ce_spec), ce_spec) == poly


# ---------------------------------------------------------------------------
# CDGA builder


def test_single_even_generator_powers():
    spec = CdgaSpec(generators=[("x", (1, 1))], d1_rules={}, d2_rules={},
                    truncation=(3, 3))
    c = build_cdga(spec)
    assert {cell: c.dim(*cell) for cell in c.support()} == {
        (0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1}


def test_cdga_rule_bidegree_checked():
    spec = CdgaSpec(generators=[("a", (0, 1)), ("b", (2, 0))],
                    d1_rules={"a": "b"}, d2_rules={}, truncation=(3, 3))
    with pytest.raises(LinalgError):
        build_cdga(spec)


def test_cdga_truncation_stability_checked():
    # a rule that lowers the declared weight must be rejected
    spec = CdgaSpec(generators=[("a", (0, 1)), ("b", (1, 1))],
                    d1_rules={"a": "b"}, d2_rules={}, truncation=(4, 4),
                    weights={"a": 3, "b": 1}, max_weight=4)
    with pytest.raises(LinalgError):
        build_cdga(spec)


def test_cdga_from_dict_roundtrip():
    obj = {
        "name": "ce11",
        "generators": [{"name": "x01", "bidegree": [0, 1]},
                       {"name": "x11", "bidegree": [1, 1]},
                       {"name": "y", "bidegree": [2, 1]},
                       {"name": "xv", "bidegree": [2, 1]}],
        "d1": {"x01": "x11"},
        "d2": {"y": "x11^2"},
        "truncation": {"max_p": 6, "max_q": 6,
                       "weights": {"x11": 1, "y": 2}, "max_weight": 5},
    }
    c = cdga_from_dict(obj)
    assert validate(c).ok


# ---------------------------------------------------------------------------
# Calabi-Eckmann


def test_ce11_dolbeault_groups():
    c = example_calabi_eckmann(1, 1)
    ws = Workspace(c)
    table = page_dims(c, 1, ws)
    assert table.dim(1, 2, 2) == 1
    assert c.labels[(2, 2)]  # the representative x01*xv is in the monomial basis
    assert "x01*xv" in c.labels[(2, 2)]
    assert table.dim(1, 3, 2) == 1
    assert "x11*xv" in c.labels[(3, 2)]


def test_ce11_second_page_kills_top_corner():
    c = example_calabi_eckmann(1, 1)
    ws = Workspace(c)
    table = page_dims(c, 2, ws)
    assert table.dim(1, 3, 2) == 1
    assert table.dim(2, 3, 2) == 0


def test_ce_degeneration_pages():
    assert degeneration_page(example_calabi_eckmann(1, 1)) == 2
    assert degeneration_page(example_calabi_eckmann(0, 1)) == 1


def test_ce_hopf_first_page_survives():
    c = example_calabi_eckmann(0, 1)
    ws = Workspace(c)
    table = page_dims(c, 4, ws)
    assert [table.dim(r, 2, 1) for r in (1, 2, 3, 4)] == [1, 1, 1, 1]


def test_ce_monomial_count_oracle():
    # direct enumeration: monomials x01^e0 x11^a y^ey xv^ev with
    # weight a + (u+1)ey <= W
    u = v = 1
    W = 2 * (u + v + 2)
    count = 0
    for e0 in (0, 1):
        for ey in (0, 1):
            for ev in (0, 1):
                for a in range(W + 1):
                    if a + (u + 1) * ey <= W:
                        count += 1
    c = example_calabi_eckmann(u, v)
    assert c.total_dim() == count


def test_ce_truncation_stability_regression():
    # dimensions in the certified zone are unchanged by raising the bound
    small = example_calabi_eckmann(1, 1)
    big = example_calabi_eckmann(1, 1, weight_bound=2 * (1 + 1 + 2) + 1)
    bound = small.meta["certified_max_p"]
    for p in range(bound + 1):
        for q in range(small.qmax + 1):
            assert small.dim(p, q) == big.dim(p, q)
    ws_small, ws_big = Workspace(small), Workspace(big)
    ts = page_dims(small, 3, ws_small)
    tb = page_dims(big, 3, ws_big)
    for r in (1, 2, 3):
        for p in range(bound + 1):
            for q in range(small.qmax + 1):
                assert ts.dim(r, p, q) == tb.dim(r, p, q)


def test_ce_rejects_too_small_weight_bound():
    with pytest.raises(LinalgError):
        example_calabi_eckmann(1, 1, weight_bound=3)
    with pytest.raises(LinalgError):
        example_calabi_eckmann(2, 1)  # u > v


def test_ce11_total_degree_dims_enumeration_oracle():
    # independent monomial enumeration by total degree
    u = v = 1
    W = 2 * (u + v + 2)
    from collections import Counter
    want = Counter()
    for e0 in (0, 1):
        for ey in (0, 1):
            for ev in (0, 1):
                for a in range(W + 1):
                    if a + (u + 1) * ey <= W:
                        deg = e0 * 1 + a * 2 + ey * 3 + ev * 3
                        want[deg] += 1
    c = example_calabi_eckmann(u, v)
    got = Counter()
    for (p, q), n in c.dims.items():
        got[p + q] += n
    assert got == want


def test_ce11_first_differential_on_middle_page_class():
    # the page-1 class at (2,2) maps isomorphically onto the one at (3,2)
    from bigraded.spectral import dr_matrix
    c = example_calabi_eckmann(1, 1)
    ws = Workspace(c)
    m = dr_matrix(c, 1, 2, 2, ws)
    assert m.rows == m.cols == 1
    assert m.data[0][0] != 0
