"""Shape builders, the expression parser and CDGA models."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from bigraded import models
from bigraded.bca import bca_dims, page_ddbar_verdict
from bigraded.bicomplex import complex_to_dict, validate
from bigraded.linalg import LinalgError
from bigraded.models import (CdgaSpec, ParseError, Square, ZigzagShape, _derive, build_cdga,
                             build_shape, cdga_from_dict,
                             example_calabi_eckmann, expression_to_str, mono_mul,
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


def test_parse_odd_power_vanishes(ce_spec):
    assert parse_expression("x01^2 + x01^3*x11", ce_spec) == {}
    assert parse_expression("x01^1*x11*x01^0", ce_spec) == {(1, 1, 0, 0): 1}


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


# ---------------------------------------------------------------------------
# the paper's models: nilmanifolds as CDGA files (ROADMAP "Measurements")

MODELS = Path(__file__).parent / "data" / "models"


def _model(name):
    return cdga_from_dict(json.loads((MODELS / f"{name}.json").read_text()))


def _filiform(n):
    """z1..zn in (1,0), Z1..Zn in (0,1); d1 z_k = z1*z_{k-1}, d2 Z_k = Z1*Z_{k-1} for k >= 3."""
    gens = [{"name": f"{z}{k}", "bidegree": [1, 0] if z == "z" else [0, 1]}
            for z in "zZ" for k in range(1, n + 1)]
    return {"name": f"filiform-{n}", "generators": gens,
            "d1": {f"z{k}": f"z1*z{k - 1}" for k in range(3, n + 1)},
            "d2": {f"Z{k}": f"Z1*Z{k - 1}" for k in range(3, n + 1)},
            "truncation": {"max_p": n, "max_q": n}}


DEF5 = {"name": "def5",
        "generators": [{"name": g, "bidegree": [1, 0]} for g in "abcef"]
        + [{"name": g, "bidegree": [0, 1]} for g in "ABCEF"],
        "d1": {"c": "a*b", "e": "a*c", "f": "b*c", "F": "-a*A - 2*b*B"},
        "d2": {"C": "A*B", "E": "A*C", "F": "B*C", "f": "a*A + 2*b*B"},
        "truncation": {"max_p": 5, "max_q": 5}}


def _digest(c):
    doc = {"complex": complex_to_dict(c),
           "labels": {f"{p},{q}": v for (p, q), v in sorted(c.labels.items())}}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# complex_to_dict plus labels, pinned from a builder that sorted factors pairwise for the signs
@pytest.mark.parametrize("build, digest", [
    (lambda: example_calabi_eckmann(0, 1),
     "42632a264b12a33874188db729f7fc4a3219397f6278949fd00cdbf31458fa01"),
    (lambda: example_calabi_eckmann(1, 1),
     "f953ccf6587947e2b7c5d38468ae1fc62133aa14fe36d126c5867fee2fc415c3"),
    (lambda: example_calabi_eckmann(2, 3),
     "3ab67bc23c8029dd334d85175b33d522c0e2e5136212dc5a670b0be78fb9ed51"),
    (lambda: example_calabi_eckmann(5, 8),
     "087f223a061f6c4d85f82dd4908fa40e3bad96a9e1be8074d3bb9a5543379631"),
    (lambda: cdga_from_dict(_filiform(5)),
     "0d88b05e40afb0e306e7bf59af7161ed40f75f1eba26cccdfd945565e7241a09"),
    (lambda: cdga_from_dict(DEF5),
     "b3f02e4ba6c5e9013b85e5920c2e1e6e607ee6f2c012080525829871140c7c7e"),
    (lambda: _model("iwasawa"), "d15dff3e03e6a09e28bf4f105a3842bfd0d00654028e951ebc1c9efb8ec513b8"),
    (lambda: _model("iwdef"), "8c56eb075585c1bf28366ae6aaa968b735d1bf715c3ea195ef7b38221525934b"),
    (lambda: _model("filiform4"),
     "3dca9d478a112b9e33196ce8945d08b354ff8f0fe6ac2c1f997e79bef0538c80"),
], ids=["ce-0-1", "ce-1-1", "ce-2-3", "ce-5-8", "filiform-5", "def5", "iwasawa", "iwdef",
        "filiform-4"])
def test_built_models_are_pinned(build, digest):
    assert _digest(build()) == digest


def test_filiform4_file_is_the_filiform_family_at_4():
    assert _digest(_model("filiform4")) == _digest(cdga_from_dict(_filiform(4)))


@pytest.mark.parametrize("name, page, verdicts", [
    ("iwasawa", 2, [False, True, True, True]),
    ("iwdef", 1, [False, False, False, False]),
])
def test_iwasawa_and_its_deformation(name, page, verdicts):
    # one rational deformation keeps the Betti numbers and flips the page-1 verdict
    c = _model(name)
    ws = Workspace(c)
    assert [ws.betti.get(k, 0) for k in range(7)] == [1, 4, 8, 10, 8, 4, 1]
    assert degeneration_page(c, ws) == page
    assert [page_ddbar_verdict(c, r, ws).verdict for r in range(1, 5)] == verdicts


def test_iwasawa_first_bott_chern_numbers():
    c = _model("iwasawa")
    bc = bca_dims(c, 1).bc
    assert [bc.get((1, p, q), 0) for p, q in ((1, 0), (1, 1), (2, 1))] == [2, 4, 6]


@pytest.mark.parametrize("name", ["iwasawa", "iwdef", "filiform4"])
def test_serre_symmetry_of_the_dimensions(name):
    # dim E_r^{p,q} = dim E_r^{n-p,n-q} and dim BC_r^{p,q} = dim A_r^{n-p,n-q}
    c = _model(name)
    ws = Workspace(c)
    n = c.pmax
    assert c.qmax == n
    table = page_dims(c, 4, ws).add(bca_dims(c, 4, ws))
    for r in range(1, 5):
        for p in range(n + 1):
            for q in range(n + 1):
                assert table.e.get((r, p, q), 0) == table.e.get((r, n - p, n - q), 0)
                assert table.bc.get((r, p, q), 0) == table.a.get((r, n - p, n - q), 0)


# ---------------------------------------------------------------------------
# the algebra: one monomial product, the derivations, the generator check

# generators that may be odd or even; a few of each in every drawn algebra
_BIDEGREES = [(1, 0), (0, 1), (1, 1), (2, 1), (0, 2)]


@st.composite
def _algebras(draw, max_gens=4):
    bidegrees = draw(st.lists(st.sampled_from(_BIDEGREES), min_size=2, max_size=max_gens))
    return CdgaSpec([(f"g{i}", b) for i, b in enumerate(bidegrees)], {}, {}, (6, 6))


def _monomials(spec):
    """Monomials of `spec`: odd exponents at most 1, even ones at most 2."""
    return st.tuples(*[st.integers(0, 1 if odd else 2) for odd in spec.odd])


def _degree(spec, mono):
    return sum(spec.mono_bidegree(mono))


def _product(f, g, spec):
    out = {}
    for m1, x in f.items():
        for m2, y in g.items():
            s, m = mono_mul(m1, m2, spec)
            if s:
                out[m] = out.get(m, 0) + s * x * y
    return {m: x for m, x in out.items() if x}


def _plus(f, g):
    out = dict(f)
    for m, x in g.items():
        out[m] = out.get(m, 0) + x
    return {m: x for m, x in out.items() if x}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mono_mul_is_associative(data):
    spec = data.draw(_algebras())
    m1, m2, m3 = (data.draw(_monomials(spec)) for _ in range(3))
    unit = (0,) * len(m1)
    assert mono_mul(unit, m1, spec) == mono_mul(m1, unit, spec) == (1, m1)
    left = _product(_product({m1: 1}, {m2: 1}, spec), {m3: 1}, spec)
    right = _product({m1: 1}, _product({m2: 1}, {m3: 1}, spec), spec)
    assert left == right


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mono_mul_is_graded_commutative(data):
    spec = data.draw(_algebras())
    m1, m2 = (data.draw(_monomials(spec)) for _ in range(2))
    s12, p12 = mono_mul(m1, m2, spec)
    s21, p21 = mono_mul(m2, m1, spec)
    assert p12 == p21
    assert s12 == (-1) ** (_degree(spec, m1) * _degree(spec, m2)) * s21


def _all_monomials(spec):
    out = [()]
    for odd in spec.odd:
        out = [m + (e,) for m in out for e in range(2 if odd else 3)]
    return out


def _rules(spec, shift, draw):
    """A random derivation of bidegree `shift`, as rules {generator index: polynomial}.

    Each generator goes to a sum of at most two monomials of its bidegree
    plus `shift`, with small integer coefficients.
    """
    rules = {}
    for i, (p, q) in enumerate(spec.bidegrees):
        target = (p + shift[0], q + shift[1])
        monos = [m for m in _all_monomials(spec) if spec.mono_bidegree(m) == target]
        chosen = draw(st.lists(st.sampled_from(monos), max_size=2, unique=True)) if monos else []
        poly = {m: Fraction(draw(st.sampled_from([-2, -1, 1, 3]))) for m in chosen}
        if poly:
            rules[i] = poly
    return rules


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_derivation_obeys_the_leibniz_rule(data):
    # d(m1 m2) = d(m1) m2 + (-1)^{|m1|} m1 d(m2), for a derivation of degree (1,0) or (0,1)
    spec = data.draw(_algebras())
    shift = data.draw(st.sampled_from([(1, 0), (0, 1)]))
    rules = _rules(spec, shift, data.draw)
    m1, m2 = (data.draw(_monomials(spec)) for _ in range(2))
    s, m = mono_mul(m1, m2, spec)
    lhs = _derive({m: s}, rules, spec) if s else {}
    sign = (-1) ** _degree(spec, m1)
    rhs = _plus(_product(_derive({m1: 1}, rules, spec), {m2: 1}, spec),
                {k: sign * x for k, x in _product({m1: 1}, _derive({m2: 1}, rules, spec),
                                                   spec).items()})
    assert lhs == {k: x for k, x in rhs.items() if spec.kept(k)}


def test_derivation_of_a_power():
    # d x^3 = 3 x^2 dx for an even x, whatever the factors around it
    spec = CdgaSpec([("a", (1, 0)), ("x", (1, 1)), ("y", (2, 1))], {"x": "y"}, {}, (8, 8))
    d1 = {1: {(0, 0, 1): 1}}
    assert _derive({(0, 3, 0): 1}, d1, spec) == {(0, 2, 1): 3}
    assert _derive({(1, 3, 0): 1}, d1, spec) == {(1, 2, 1): -3}  # d passes the odd a


@st.composite
def _rule_sets(draw):
    """A small algebra, its two differentials and a truncation, with or without weights.

    Each rule is a random sum of at most two monomials of the right bidegree,
    so some sets satisfy d^2 = 0 and some do not.  Under a weight truncation
    the terms that weigh less than their generator are dropped, since such a
    rule is refused before d^2 is looked at.
    """
    bare = draw(_algebras(max_gens=5))
    d1, d2 = (_rules(bare, shift, draw) for shift in ((1, 0), (0, 1)))
    weights = max_weight = None
    if draw(st.booleans()):
        max_weight = draw(st.integers(0, 4))
        weight = [draw(st.integers(0, 2)) for _ in bare.names]
        weights = dict(zip(bare.names, weight))
        for rules in (d1, d2):
            for i in rules:
                rules[i] = {m: x for m, x in rules[i].items()
                            if sum(e * w for e, w in zip(m, weight)) >= weight[i]}
    texts = [{bare.names[i]: expression_to_str(poly, bare) for i, poly in rules.items()}
             for rules in (d1, d2)]
    trunc = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    return CdgaSpec(bare.generators, texts[0], texts[1], trunc, weights, max_weight)


def _generator_check_agrees(spec):
    """Whether `build_cdga` accepts `spec` exactly when its matrices pass `validate`.

    Returns the verdict, for the counts in a long run.
    """
    try:
        build_cdga(spec)
        accepted = True
    except LinalgError as exc:
        assert str(exc).startswith("invalid CDGA: d"), str(exc)
        accepted = False
    with mock.patch.object(models, "_check_square_zero", lambda *args: None):
        valid = validate(build_cdga(spec)).ok
    assert accepted == valid, (spec.generators, spec.d1_rules, spec.d2_rules, spec.truncation,
                               spec.weights, spec.max_weight)
    return valid


@settings(max_examples=100, deadline=None)
@given(spec=_rule_sets())
def test_generator_check_agrees_with_matrix_validation(spec):
    _generator_check_agrees(spec)


def test_generator_check_names_the_identity_and_the_generator():
    # d1 a = b, d2 b = a*x: d1 d2 a + d2 d1 a = a*x, and d2 d2 holds on every generator
    spec = CdgaSpec([("a", (0, 1)), ("b", (1, 1)), ("x", (1, 1))], {"a": "b"},
                    {"b": "a*x"}, (3, 3))
    with pytest.raises(LinalgError) as exc:
        build_cdga(spec)
    assert str(exc.value) == "invalid CDGA: d1 d2 a + d2 d1 a = a*x, not 0"
    rules = {"a": "b", "b": "x"}  # d a = b, d b = x
    for identity, x, d1, d2 in (("d1 d1 a", (2, 1), rules, {}), ("d2 d2 a", (1, 2), {}, rules)):
        a = (x[0] - 2, x[1]) if d1 else (x[0], x[1] - 2)
        b = (x[0] - 1, x[1]) if d1 else (x[0], x[1] - 1)
        spec = CdgaSpec([("a", a), ("b", b), ("x", x)], d1, d2, (4, 4))
        with pytest.raises(LinalgError, match=f"^invalid CDGA: {identity} = x, not 0$"):
            build_cdga(spec)


def test_generator_check_message_is_bounded():
    # d2 d1 a is a sum of 100 monomials
    gens = [("a", (0, 1)), ("b", (1, 1))] + [(f"x{k:03}", (1, 1)) for k in range(100)]
    spec = CdgaSpec(gens, {"a": "b"}, {"b": " + ".join(f"a*x{k:03}" for k in range(100))},
                    (3, 3))
    with pytest.raises(LinalgError) as exc:
        build_cdga(spec)
    message = str(exc.value)
    assert message.startswith("invalid CDGA: d1 d2 a + d2 d1 a = a*x099 + a*x098 + ")
    assert message.endswith(" …, not 0") and len(message) < 300


@pytest.mark.parametrize("src", ["1" + "0" * 5000 + "*x11", "x11^" + "1" * 5000],
                         ids=["coefficient", "exponent"])
def test_over_long_integers_are_parse_errors(ce_spec, src):
    with pytest.raises(ParseError, match=r"number of \d+ digits is too long \(at position \d+\)"):
        parse_expression(src, ce_spec)
