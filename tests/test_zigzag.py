"""Shape enumeration, closed-form invariants, decompositions, certificates."""

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from bigraded import zigzag
from bigraded.bca import bca_dims
from bigraded.bicomplex import (change_of_basis, de_rham_dims, direct_sum,
                                random_complex, random_invertible,
                                swap_complex, validate)
from bigraded.linalg import Matrix, _span
from bigraded.models import Square, ZigzagShape, build_shape, dot_shape, shape_length
from bigraded.spectral import ConsistencyError, Invariants, Workspace, page_dims
from bigraded.splitter import split_complex
from bigraded.zigzag import (DecompositionCertificate, certificate_from_dict,
                             certificate_to_dict, decompose, enumerate_shapes,
                             hom_dim, measured_invariants, multiplicity_solve,
                             predicted_invariants, structure_verdict, verify_certificate)


SMALL = st.sampled_from([(1, 1), (2, 2), (3, 2), (3, 3)])


def test_enumerate_1x1_grid():
    shapes = enumerate_shapes((0, 0))
    assert shapes == [dot_shape(0, 0)]


def test_enumerate_2x2_grid_hand_count():
    shapes = enumerate_shapes((1, 1))
    squares = [s for s in shapes if isinstance(s, Square)]
    assert squares == [Square(0, 0)]
    dots = [s for s in shapes if isinstance(s, ZigzagShape) and s.is_dot()]
    assert len(dots) == 4
    # single-generator non-dots: vertical pairs at q=0 cells, horizontal
    # pairs at p=0 cells, the full corner shape at (0,0)
    one_gen = [s for s in shapes if isinstance(s, ZigzagShape)
               and s.gen_count == 1 and not s.is_dot()]
    assert len(one_gen) == 5
    # two-generator staircases: gens ((0,1),(1,0)), no room for outer arrows
    two_gen = [s for s in shapes if isinstance(s, ZigzagShape) and s.gen_count == 2]
    assert len(two_gen) == 1 and not two_gen[0].d2_out_first and not two_gen[0].d1_out_last
    assert len(shapes) == 11


def test_enumerate_shapes_order_fresh_lists_hashes_and_reprs():
    import hashlib
    shapes = enumerate_shapes((3, 3))
    # the order, and every repr, as they were before the shapes were kept per grid
    assert len(shapes) == 93
    digest = hashlib.sha256("\n".join(map(repr, shapes)).encode()).hexdigest()
    assert digest.startswith("09678f7da3f9b4a2")
    assert repr(shapes[0]) == "Square(p=0, q=0)"
    assert repr(dot_shape(1, 2)) == (
        "ZigzagShape(generators=((1, 2),), d2_out_first=False, d1_out_last=False)")
    shapes.reverse()
    shapes.append(None)
    again = enumerate_shapes((3, 3))
    assert len(again) == 93 and again == shapes[-2::-1]
    assert again is not enumerate_shapes((3, 3))
    for s in again:
        if isinstance(s, Square):
            assert hash(s) == hash((s.p, s.q))
        else:
            assert hash(s) == hash((s.generators, s.d2_out_first, s.d1_out_last))


def test_every_enumerated_shape_builds_valid():
    for shape in enumerate_shapes((2, 2)):
        c = build_shape(shape, (2, 2))
        assert validate(c).ok
        assert c.total_dim() == shape_length(shape)


def test_predictions_match_direct_computation_all_shapes():
    """The central oracle: closed forms against full tower computation.

    Covers every shape of length <= 8 on a 4x4 grid (both even
    orientations, both odd types) and r = 1..4, per bidegree.
    """
    shapes = [s for s in enumerate_shapes((3, 3)) if shape_length(s) <= 8]
    assert len(shapes) > 40
    for shape in shapes:
        c = build_shape(shape, (3, 3))
        ws = Workspace(c)
        pages = page_dims(c, 4, ws)
        bca = bca_dims(c, 4, ws)
        betti = {k: v for k, v in de_rham_dims(ws.total).items() if v}
        pred = predicted_invariants(shape, 4)
        assert pred.e == pages.e, shape
        assert pred.ebar == pages.ebar, shape
        assert pred.bc == bca.bc, shape
        assert pred.a == bca.a, shape
        assert pred.b == betti, shape
        assert pred.dims == dict(c.dims), shape


def test_predictions_match_measured_long_zigzags():
    """Every zigzag of up to 10 generators, with each arrow choice, to page g + 3."""
    for g in range(1, 11):
        gens = tuple((i, g - 1 - i) for i in range(g))
        for bf in (False, True):
            for bl in (False, True):
                shape = ZigzagShape(gens, bf, bl)
                pred = predicted_invariants(shape, g + 3)
                got = measured_invariants(build_shape(shape), g + 3)
                for tag in Invariants.TAGS:
                    assert getattr(pred, tag) == getattr(got, tag), (shape, tag)


def test_hom_dim_end_of_indecomposable_is_one():
    # endomorphisms of dots and squares are scalars
    for shape in (dot_shape(1, 1), Square(0, 0)):
        c = build_shape(shape)
        assert hom_dim(c, c) == 1
    # the same square with maps of denominators 2, 3, 1 and 1
    c = change_of_basis(build_shape(Square(0, 0)), {(1, 0): Matrix.from_rows([[2]]),
                                                    (0, 1): Matrix.from_rows([[3]])})
    assert {m.den for m in (*c.d1.values(), *c.d2.values())} == {1, 2, 3}
    assert hom_dim(c, c) == hom_dim(c, build_shape(Square(0, 0))) == 1


def test_hom_dim_additive():
    z = build_shape(ZigzagShape(((0, 1), (1, 0)), False, True), grid=(2, 2))
    d = build_shape(dot_shape(0, 1), grid=(2, 2))
    s = direct_sum(z, d)
    assert hom_dim(z, s) == hom_dim(z, z) + hom_dim(z, d)


def test_multiplicity_square_alone():
    c = build_shape(Square(0, 0))
    res = multiplicity_solve(c)
    assert res.status == "unique"
    assert res.inventory == {Square(0, 0): 1}


def test_multiplicity_double_dot():
    dot = build_shape(dot_shape(1, 1))
    c = direct_sum(dot, dot)
    res = multiplicity_solve(c)
    assert res.inventory == {dot_shape(1, 1): 2}


def test_multiplicity_roundtrip(structured_suite):
    for seed, c, inventory, _ in structured_suite:
        res = multiplicity_solve(c)
        assert res.status == "unique", seed
        assert res.inventory == inventory, seed


def _overlapping_odd_zigzags():
    # dimension-type invariants alone cannot tell these two sums apart; the
    # Hom features must
    a1 = direct_sum(
        build_shape(ZigzagShape(((0, 3), (1, 2), (2, 1)), True, True), (4, 4)),
        build_shape(ZigzagShape(((1, 2), (2, 1), (3, 0)), True, True), (4, 4)))
    a2 = direct_sum(
        build_shape(ZigzagShape(((0, 3), (1, 2), (2, 1), (3, 0)), True, True), (4, 4)),
        build_shape(ZigzagShape(((1, 2), (2, 1)), True, True), (4, 4)))
    return a1, a2


def test_multiplicity_resolves_overlapping_odd_zigzags():
    a1, a2 = _overlapping_odd_zigzags()
    r1 = multiplicity_solve(a1)
    r2 = multiplicity_solve(a2)
    assert r1.status == r2.status == "unique"
    assert r1.inventory != r2.inventory
    assert sum(r1.inventory.values()) == 2 and sum(r2.inventory.values()) == 2


# the oracle's one elimination of [H | h], then the table comparison it shares with decompose


@settings(max_examples=30, deadline=None)
@given(support=st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1))
def test_hom_panel_of_a_support_has_full_rank(support):
    # Auslander: dim Hom(t, -) over the indecomposables t determines a module,
    # so the panel of the shapes that fit a support has no kernel
    shapes = zigzag._shapes_in(support)
    panel = [[zigzag._shape_hom(t, s) for s in shapes] for t in shapes]
    assert _span(panel, len(shapes)).dim == len(shapes)


def _moved(shape, a, b):
    if isinstance(shape, Square):
        return Square(shape.p + a, shape.q + b)
    return ZigzagShape(tuple((p + a, q + b) for p, q in shape.generators),
                       shape.d2_out_first, shape.d1_out_last)


@settings(max_examples=15, deadline=None)
@given(support=st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=6),
       shift=st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_hom_dims_agree_at_the_origin_and_after_translation(support, shift):
    # `_shape_hom` keeps one solve per translation class of a pair, so its answers must
    # be the Hom dimensions solved afresh for the pair and for the pair moved by `shift`
    shapes = zigzag._shapes_in(support)
    moved = [_moved(shape, *shift) for shape in shapes]
    built = [build_shape(shape) for shape in shapes + moved]
    n = len(shapes)
    for i, t in enumerate(shapes):
        for j, s in enumerate(shapes):
            want = hom_dim(built[i], built[j])
            assert hom_dim(built[n + i], built[n + j]) == want
            assert zigzag._shape_hom(t, s) == zigzag._shape_hom(moved[i], moved[j]) == want


def test_multiplicity_inconsistent_system_raises(monkeypatch):
    real = zigzag.measured_invariants

    def measured(c, r_max, ws=None):
        out = real(c, r_max, ws)
        out.b[99] = 1       # a Betti number no shape contributes to
        return out
    monkeypatch.setattr(zigzag, "measured_invariants", measured)
    with pytest.raises(ConsistencyError, match="no shape inventory"):
        multiplicity_solve(random_complex((2, 2), 3, 4))


def test_multiplicity_rank_deficient_hom_panel_raises(monkeypatch):
    monkeypatch.setattr(zigzag, "hom_dim", lambda a, b: 0)
    monkeypatch.setattr(zigzag, "_shape_hom", lambda test, target: 0)
    a1, _ = _overlapping_odd_zigzags()
    with pytest.raises(ConsistencyError, match="has rank below"):
        multiplicity_solve(a1)


def test_decompose_and_the_oracle_measure_a_workspace_once(monkeypatch):
    real, calls = zigzag.measured_invariants, []

    def measured(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(zigzag, "measured_invariants", measured)
    c = random_complex((2, 2), 3, 4)
    ws = Workspace(c)
    assert decompose(c, ws).inventory == multiplicity_solve(c, ws=ws).inventory
    assert len(calls) == 1


@pytest.mark.parametrize("scale", [2, -1], ids=["half", "negative"])
def test_multiplicity_non_integral_or_negative_solution_raises(monkeypatch, scale):
    # every predicted count scaled by `scale` makes the unique solution 1/scale
    real_pred, real_hom = zigzag.predicted_invariants, zigzag._shape_hom

    def predicted(shape, r_max):
        pred = real_pred(shape, r_max)
        for tag in Invariants.TAGS:
            table = getattr(pred, tag)
            for key in table:
                table[key] *= scale
        return pred
    monkeypatch.setattr(zigzag, "predicted_invariants", predicted)
    monkeypatch.setattr(zigzag, "_shape_hom", lambda test, target: scale * real_hom(test, target))
    with pytest.raises(ConsistencyError, match="nonnegative integer"):
        multiplicity_solve(build_shape(dot_shape(0, 0)))


@settings(max_examples=10, deadline=None)
@given(grid=SMALL, seed=st.integers(0, 10**6), tseed=st.integers(0, 10**6))
def test_multiplicity_solve_is_split_and_basis_invariant(grid, seed, tseed):
    c = random_complex(grid, 2, seed)
    rng = random.Random(tseed)
    moved = change_of_basis(c, {cell: random_invertible(n, rng) for cell, n in c.dims.items()})
    res = multiplicity_solve(c)
    assert res.status == "unique" and res.inventory == _inventory(split_complex(c))
    assert multiplicity_solve(moved).inventory == res.inventory


def test_structure_verdict_from_inventory():
    assert structure_verdict({dot_shape(0, 0): 3, Square(1, 1): 2}, 1) is True
    z4 = ZigzagShape(((0, 1), (1, 0)), False, True)
    assert structure_verdict({z4: 1}, 2) is False
    assert structure_verdict({z4: 1}, 3) is True
    z3 = ZigzagShape(((0, 1),), True, True)
    for r in (1, 2, 3, 4):
        assert structure_verdict({z3: 1}, r) is False


def test_structure_verdict_agrees_with_criteria(random_suite):
    from bigraded.bca import page_ddbar_verdict
    for seed, c, ws in random_suite[:8]:
        res = multiplicity_solve(c, ws=ws)
        assert res.status == "unique"
        for r in (1, 2, 3):
            v = page_ddbar_verdict(c, r, ws, use_structure=False)
            assert structure_verdict(res.inventory, r) == v.verdict, (seed, r)


def test_certificate_identity_transform_accepted():
    dot = build_shape(dot_shape(0, 1), grid=(2, 2))
    sq = Square(0, 0)
    c = direct_sum(dot, build_shape(sq, (2, 2)))
    cert = DecompositionCertificate(
        transforms={},
        blocks=[(dot_shape(0, 1), {(0, 1): (0,)}),
                (sq, {(0, 0): (0,), (1, 0): (0,), (0, 1): (1,), (1, 1): (0,)})])
    assert verify_certificate(c, cert).ok


def test_certificate_wrong_label_rejected():
    dot = build_shape(dot_shape(0, 1), grid=(2, 2))
    sq = Square(0, 0)
    c = direct_sum(dot, build_shape(sq, (2, 2)))
    # swap the two indices at (0,1): the square block then claims the dot's
    # basis vector, which has no d2 arrow into (1,1)
    cert = DecompositionCertificate(
        transforms={},
        blocks=[(dot_shape(0, 1), {(0, 1): (1,)}),
                (sq, {(0, 0): (0,), (1, 0): (0,), (0, 1): (0,), (1, 1): (0,)})])
    report = verify_certificate(c, cert)
    assert not report.ok


def test_certificate_roundtrip_scrambled(structured_suite):
    for seed, c, inventory, cert in structured_suite:
        report = verify_certificate(c, cert)
        assert report.ok, (seed, report.reason)
        claimed = {}
        for shape, _ in cert.blocks:
            claimed[shape] = claimed.get(shape, 0) + 1
        assert claimed == inventory, seed


def test_certificate_singular_transform_rejected():
    dot = build_shape(dot_shape(0, 0))
    cert = DecompositionCertificate(
        transforms={(0, 0): Matrix.from_rows([[0]])},
        blocks=[(dot_shape(0, 0), {(0, 0): (0,)})])
    report = verify_certificate(dot, cert)
    assert not report.ok and "invertible" in report.reason


def test_certificate_unassigned_index_rejected():
    dot = build_shape(dot_shape(0, 0))
    two = direct_sum(dot, dot)
    cert = DecompositionCertificate(
        transforms={}, blocks=[(dot_shape(0, 0), {(0, 0): (0,)})])
    report = verify_certificate(two, cert)
    assert not report.ok and "unassigned" in report.reason


def test_certificate_json_roundtrip(structured_suite):
    import json
    from bigraded.zigzag import certificate_from_dict, certificate_to_dict
    for seed, c, _, cert in structured_suite[:4]:
        obj = json.loads(json.dumps(certificate_to_dict(cert)))
        back = certificate_from_dict(obj)
        assert back.transforms == cert.transforms
        assert back.blocks == cert.blocks
        assert verify_certificate(c, back).ok


def _certificate_dict():
    from bigraded.zigzag import certificate_to_dict
    c = random_complex((2, 2), 3, 4)
    return certificate_to_dict(decompose(c).certificate)


def _zero_denominator(obj):
    rows = next(iter(obj["transforms"].values()))
    rows[0][0] = "1/0"


def _no_shape(obj):
    del obj["blocks"][0]["shape"]


def _semicolon_key(obj):
    key = next(iter(obj["transforms"]))
    obj["transforms"][key.replace(",", ";")] = obj["transforms"].pop(key)


def _transform_cell_twice(obj):
    key = next(iter(obj["transforms"]))
    obj["transforms"]["0" + key] = obj["transforms"][key]


def _block_cell_twice(obj):
    cells = obj["blocks"][0]["cells"]
    key = next(iter(cells))
    cells["0" + key] = cells[key]


def _float_index(obj):
    cells = obj["blocks"][0]["cells"]
    key = next(iter(cells))
    cells[key] = [float(i) for i in cells[key]]


def _negative_index(obj):
    cells = obj["blocks"][0]["cells"]
    cells[next(iter(cells))] = [-1]


@pytest.mark.parametrize("breakage", [_zero_denominator, _no_shape, _semicolon_key,
                                      _transform_cell_twice, _block_cell_twice,
                                      _float_index, _negative_index])
def test_malformed_certificate_is_linalg_error(breakage):
    from bigraded.linalg import LinalgError
    from bigraded.zigzag import certificate_from_dict
    obj = _certificate_dict()
    certificate_from_dict(obj)
    breakage(obj)
    with pytest.raises(LinalgError):
        certificate_from_dict(obj)


@pytest.mark.parametrize("field, value", [
    ("at", ["0", "0"]), ("at", [0.0, 0]), ("at", [True, 0]), ("at", [0]), ("at", None),
    ("generators", [["0", "0"]]), ("generators", [[0.0, 0]]), ("generators", [0]),
    ("d2_out_first", "false"), ("d1_out_last", 0), ("d1_out_last", None),
])
def test_certificate_shape_fields_are_checked(field, value):
    from bigraded.linalg import LinalgError
    c = build_shape(Square(0, 0)) if field == "at" else build_shape(dot_shape(0, 0))
    obj = certificate_to_dict(decompose(c).certificate)
    assert verify_certificate(c, certificate_from_dict(obj)).ok
    obj["blocks"][0]["shape"][field] = value
    with pytest.raises(LinalgError):
        certificate_from_dict(obj)


# ---------------------------------------------------------------------------
# the constructive splitter

def _transpose(shape):
    if isinstance(shape, Square):
        return Square(shape.q, shape.p)
    return ZigzagShape(tuple((q, p) for p, q in reversed(shape.generators)),
                       shape.d1_out_last, shape.d2_out_first)


def _inventory(cert):
    """Shape -> multiplicity over a certificate's blocks."""
    return dict(Counter(shape for shape, _ in cert.blocks))


def test_split_roundtrip_criterion_9_batch():
    """The acceptance suite's scrambled sums: certificates verify, inventories match."""
    for seed in range(100):
        c, inventory, _ = random_complex((4, 4), 4, 5000 + seed, structure=True,
                                         max_shapes=10)
        cert = split_complex(c)
        report = verify_certificate(c, cert)
        assert report.ok, (seed, report.reason)
        assert _inventory(cert) == inventory, seed


def test_split_agrees_with_multiplicity_solve(random_suite):
    for seed, c, ws in random_suite:
        assert decompose(c, ws).inventory == multiplicity_solve(c, ws=ws).inventory, seed


def test_decompose_memoised_on_workspace():
    c = random_complex((2, 2), 3, 4)
    ws = Workspace(c)
    assert decompose(c, ws) is decompose(c, ws)


@settings(max_examples=25, deadline=None)
@given(grid=SMALL, seed=st.integers(0, 10**6), tseed=st.integers(0, 10**6))
def test_split_invariant_under_change_of_basis(grid, seed, tseed):
    c = random_complex(grid, 3, seed)
    rng = random.Random(tseed)
    moved = change_of_basis(c, {cell: random_invertible(n, rng)
                                for cell, n in c.dims.items()})
    cert = split_complex(moved)
    assert verify_certificate(moved, cert).ok
    assert _inventory(cert) == _inventory(split_complex(c))


@settings(max_examples=10, deadline=None)
@given(grid=SMALL, seed=st.integers(0, 10**6), tseed=st.integers(0, 10**6))
def test_certificate_survives_a_json_round_trip(grid, seed, tseed):
    c = random_complex(grid, 3, seed)
    rng = random.Random(tseed)
    moved = change_of_basis(c, {cell: random_invertible(n, rng)
                                for cell, n in c.dims.items()})
    obj = certificate_to_dict(split_complex(moved))
    back = certificate_from_dict(json.loads(json.dumps(obj)))
    assert verify_certificate(moved, back).ok
    assert certificate_to_dict(back) == obj


@settings(max_examples=25, deadline=None)
@given(grid=SMALL, a=st.integers(0, 10**6), b=st.integers(0, 10**6))
def test_split_additive_under_direct_sum(grid, a, b):
    ca, cb = random_complex(grid, 2, a), random_complex(grid, 2, b)
    want = _inventory(split_complex(ca))
    for shape, m in _inventory(split_complex(cb)).items():
        want[shape] = want.get(shape, 0) + m
    assert _inventory(split_complex(direct_sum(ca, cb))) == want


@settings(max_examples=25, deadline=None)
@given(grid=SMALL, seed=st.integers(0, 10**6))
def test_split_of_swap_is_transposed(grid, seed):
    c = random_complex(grid, 3, seed)
    swapped = swap_complex(c)
    cert = split_complex(swapped)
    assert verify_certificate(swapped, cert).ok
    assert _inventory(cert) == {_transpose(s): m for s, m in _inventory(split_complex(c)).items()}


def _zero_first_transform(cert):
    cell = min(cert.transforms)
    m = cert.transforms[cell]
    zeroed = Matrix.zero(m.rows, m.cols)
    return DecompositionCertificate({**cert.transforms, cell: zeroed}, cert.blocks)


def _drop_last_block(cert):
    return DecompositionCertificate(cert.transforms, cert.blocks[:-1])


@pytest.mark.parametrize("breakage", [_zero_first_transform, _drop_last_block])
def test_broken_splitter_raises(monkeypatch, breakage):
    from bigraded import splitter
    real = splitter.split_complex
    monkeypatch.setattr(splitter, "split_complex", lambda c: breakage(real(c)))
    c = random_complex((3, 3), 3, 8)
    with pytest.raises(ConsistencyError):
        decompose(c)


@pytest.mark.parametrize("engine", [decompose, multiplicity_solve],
                         ids=["decompose", "multiplicity_solve"])
def test_wrong_invariant_tables_raise(monkeypatch, engine):
    monkeypatch.setattr(zigzag, "predicted_invariants",
                        lambda shape, r_max: Invariants(r_max))
    with pytest.raises(ConsistencyError):
        engine(random_complex((3, 3), 3, 8))


def test_certificate_transform_outside_the_grid_rejected():
    from bigraded.linalg import LinalgError
    c = build_shape(Square(0, 0))
    obj = certificate_to_dict(decompose(c).certificate)
    obj["transforms"]["9,9"] = [["1"]]
    cert = certificate_from_dict(obj)
    with pytest.raises(LinalgError, match=r"transform at \(9, 9\) lies outside the grid 1x1"):
        change_of_basis(c, cert.transforms)
    report = verify_certificate(c, cert)
    assert not report.ok and "(9, 9)" in report.reason


@pytest.mark.parametrize("block, reason", [
    ((dot_shape(9, 9), {(9, 9): (0,)}),
     "block 1 index 0 at (9, 9) lies outside the complex (dimension 0 there)"),
    ((dot_shape(0, 0), {(0, 0): (5,)}),
     "block 1 index 5 at (0, 0) lies outside the complex (dimension 1 there)"),
], ids=["cell-outside-the-grid", "index-outside-the-cell"])
def test_certificate_block_outside_the_complex_rejected(block, reason):
    c = build_shape(Square(0, 0))
    cert = decompose(c).certificate
    assert verify_certificate(c, cert).ok
    report = verify_certificate(c, DecompositionCertificate(cert.transforms,
                                                            cert.blocks + [block]))
    assert not report.ok
    assert (report.reason, report.failing_block) == (reason, 1)
