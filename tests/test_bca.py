"""Higher-page Bott-Chern/Aeppli groups, comparison maps, verdicts, inequality."""

import pytest

from bigraded import bca
from bigraded.bca import (bca_dims, canonical_maps, closed_pure, ddbar_closed, ddbar_exact,
                          exact_pure, im_both, inequality_check, page_ddbar_verdict)
from bigraded.bicomplex import direct_sum
from bigraded.linalg import (Matrix, Subspace, image_basis, kernel_basis,
                             subspace_intersection, subspace_sum)
from bigraded.models import (Square, ZigzagShape, build_shape, dot_shape,
                             example_calabi_eckmann)
from bigraded.spectral import ConsistencyError, TowerKind, Workspace, page_dims


def classical_bc_a_dims(c, p, q):
    """Independent first-page oracle: the textbook kernel/image formulas.

    bc = dim(ker d1 ∩ ker d2) - rank(d1 d2),
    a  = dim ker(d1 d2) - dim(im d1 + im d2),
    computed with plain rank arithmetic, not with the tower machinery.
    """
    both = subspace_intersection(kernel_basis(c.d1_at(p, q)),
                                 kernel_basis(c.d2_at(p, q)))
    dd_in = c.d1_at(p - 1, q) * c.d2_at(p - 1, q - 1)
    bc = both.dim - dd_in.rank()
    dd_out = c.d1_at(p, q + 1) * c.d2_at(p, q)
    imboth = subspace_sum(image_basis(c.d1_at(p - 1, q)), image_basis(c.d2_at(p, q - 1)))
    a = (c.dim(p, q) - dd_out.rank()) - imboth.dim
    return bc, a


def test_first_page_equals_classical_oracle(random_suite):
    for seed, c, ws in random_suite[:10]:
        table = bca_dims(c, 1, ws)
        for (p, q) in c.support():
            bc, a = classical_bc_a_dims(c, p, q)
            assert table.bc.get((1, p, q), 0) == bc, (seed, p, q)
            assert table.a.get((1, p, q), 0) == a, (seed, p, q)


def test_ddbar_spaces_first_page():
    sq = build_shape(Square(0, 0))
    ws = Workspace(sq)
    assert ddbar_closed(ws, 1, 0, 0) == Subspace.zero(1)  # d1 d2 a != 0
    assert ddbar_exact(ws, 1, 1, 1).dim == 1              # the corner


def test_ddbar_closed_monotone(random_suite):
    for _, c, ws in random_suite[:6]:
        for (p, q) in c.support():
            prev = None
            for r in (1, 2, 3, 4):
                cur = ddbar_closed(ws, r, p, q)
                if prev is not None:
                    assert prev.contains_subspace(cur)
                prev = cur


def test_ddbar_closed_full_on_dot():
    ws = Workspace(build_shape(dot_shape(0, 0)))
    for r in (1, 2, 3):
        assert ddbar_closed(ws, r, 0, 0) == Subspace.full(1)


def test_exact_pure_is_image_meet_component(random_suite):
    # reference: (im D) ∩ A^{p,q}, intersected as subspaces of the total degree
    for _, c, ws in random_suite[:8]:
        t = ws.total
        for (p, q) in c.support():
            k, n = p + q, c.dim(p, q)
            block = image_basis(t.inject(p, q, Matrix.identity(n)))
            meet = subspace_intersection(ws.total_image(k), block)
            want = image_basis(t.project(k, p, q, meet.basis))
            assert exact_pure(ws, p, q) == want, (c.name, p, q)


def test_ddbar_exact_one_way_inclusions(random_suite):
    # page-r ddbar-exact elements are page-exact, conjugate-page-exact,
    # d-closed and d-exact, unconditionally
    for _, c, ws in random_suite[:6]:
        for (p, q) in c.support():
            for r in (1, 2, 3):
                d = ddbar_exact(ws, r, p, q)
                assert ws.space(TowerKind.PAGE_EXACT, r, p, q).contains_subspace(d)
                assert ws.swapped.space(TowerKind.PAGE_EXACT, r, q, p).contains_subspace(d)
                assert closed_pure(ws, p, q).contains_subspace(d)
                assert exact_pure(ws, p, q).contains_subspace(d)


def test_report_decides_each_verdict_once(monkeypatch):
    """The inequality check reads the criteria the report's verdict section decided."""
    from bigraded import cli
    calls = []
    maps = bca._criterion_bc_a_maps
    monkeypatch.setattr(bca, "_criterion_bc_a_maps",
                        lambda ws, r: calls.append(r) or maps(ws, r))
    c = direct_sum(build_shape(Square(0, 0), grid=(2, 2)),
                   build_shape(ZigzagShape(((0, 1), (1, 0)), False, False), grid=(2, 2)))
    verdicts = cli.build_report(c, 3)["verdicts"]
    assert calls == [1, 2, 3]
    for v in verdicts.values():
        assert set(v["inequality"]) == {"bott_chern_plus_aeppli", "pages_plus_conjugate",
                                        "twice_betti"}
        if v["verdict"]:
            assert v["inequality"]["bott_chern_plus_aeppli"] == v["inequality"]["twice_betti"]


def test_bc_to_a_map_built_once_per_cell(monkeypatch):
    """Criteria (B) and (D) read subspace dimensions and build no class matrix at all."""
    built = []
    class_coordinates = bca.class_coordinates
    monkeypatch.setattr(bca, "class_coordinates",
                        lambda *args: built.append(1) or class_coordinates(*args))
    c = direct_sum(direct_sum(build_shape(dot_shape(0, 1), grid=(2, 2)),
                              build_shape(Square(0, 0), grid=(2, 2))),
                   build_shape(dot_shape(2, 2), grid=(2, 2)))
    v = bca.page_ddbar_verdict(c, 1, Workspace(c), use_structure=False)
    assert v.criteria["B"] and v.criteria["D"]
    assert built == []


def test_bc_to_a_rank_from_subspaces(random_suite):
    """The explicit BC_r -> A_r matrix has rank dim K - dim(K ∩ I), as (B) and (D) assume."""
    for seed, c, ws in random_suite:
        for r in (1, 2, 3):
            maps = canonical_maps(c, r, ws)
            for (p, q) in c.support():
                k = closed_pure(ws, p, q)
                meet = subspace_intersection(k, im_both(ws, p, q))
                assert maps.bc_to_a[(p, q)].rank() == k.dim - meet.dim, (seed, r, p, q)


def test_exact_sum_identity(random_suite):
    # C_r + conjugate C_r = im d1 + im d2, for every r
    for _, c, ws in random_suite[:6]:
        for (p, q) in c.support():
            target = im_both(ws, p, q)
            for r in (1, 2, 3):
                s = subspace_sum(ws.space(TowerKind.PAGE_EXACT, r, p, q),
                                 ws.swapped.space(TowerKind.PAGE_EXACT, r, q, p))
                assert s == target


def test_bca_monotone(random_suite):
    for _, c, ws in random_suite[:8]:
        table = bca_dims(c, 4, ws)
        for (p, q) in c.support():
            for r in (1, 2, 3):
                assert table.bc.get((r + 1, p, q), 0) <= table.bc.get((r, p, q), 0)
                assert table.a.get((r + 1, p, q), 0) <= table.a.get((r, p, q), 0)


# ---------------------------------------------------------------------------
# zigzag closed forms (first-principles values)


@pytest.mark.parametrize("gens,bf,bl,r,bc,a", [
    # dot
    (1, False, False, 1, 1, 1), (1, False, False, 3, 1, 1),
    # length 3 with both outer arrows: bc = gens+1, a = max(gens-2(r-1), 0)
    (1, True, True, 1, 2, 1), (1, True, True, 2, 2, 0),
    # length 5, r = 2
    (2, True, True, 2, 3, 0),
    # even length 4: bc = a = max(gens - r + 1, 0)
    (2, False, True, 2, 1, 1), (2, False, True, 3, 0, 0),
    (2, True, False, 2, 1, 1),
    # even length 6, r = 2 and 3
    (3, False, True, 2, 2, 2), (3, False, True, 3, 1, 1),
])
def test_zigzag_totals(gens, bf, bl, r, bc, a):
    z = build_shape(ZigzagShape(tuple((i, 3 - i) for i in range(gens)), bf, bl))
    table = bca_dims(z, r, Workspace(z))
    assert table.total("bc", r) == bc
    assert table.total("a", r) == a


def test_square_zero_for_all_pages():
    sq = build_shape(Square(1, 1))
    table = bca_dims(sq, 4, Workspace(sq))
    for r in (1, 2, 3, 4):
        assert table.total("bc", r) == 0 and table.total("a", r) == 0


# ---------------------------------------------------------------------------
# canonical maps


def test_canonical_maps_dot():
    dot = build_shape(dot_shape(1, 1))
    maps = canonical_maps(dot, 2)
    one = Matrix.identity(1)
    for table in (maps.bc_to_page, maps.bc_to_a, maps.page_to_a,
                  maps.bc_to_de_rham, maps.de_rham_to_a):
        assert table[(1, 1)] == one


def test_canonical_maps_all_iso_on_dots_and_squares():
    c = direct_sum(direct_sum(build_shape(dot_shape(0, 1), grid=(2, 2)),
                              build_shape(Square(0, 0), grid=(2, 2))),
                   build_shape(dot_shape(2, 2), grid=(2, 2)))
    ws = Workspace(c)
    for r in (1, 2, 3):
        maps = canonical_maps(c, r, ws)  # raises unless the triangles commute
        for (p, q) in c.support():
            m = maps.bc_to_a[(p, q)]
            assert m.rows == m.cols and m.rank() == m.rows


def test_canonical_maps_zero_between_unequal_dims():
    # length-3 zigzag with both outer arrows at page 2: Bott-Chern has
    # dimension 2, Aeppli dimension 0, so the comparison map is forced zero
    z = build_shape(ZigzagShape(((0, 1),), True, True))
    ws = Workspace(z)
    maps = canonical_maps(z, 2, ws)
    total_bc = sum(m.cols for m in maps.bc_to_a.values())
    total_a = sum(m.rows for m in maps.bc_to_a.values())
    assert total_bc == 2 and total_a == 0


def test_canonical_maps_properties_random(random_suite):
    """The triangles commute, BC_1 -> BC_r is onto and A_r -> A_1 one-to-one, or it raises."""
    for seed, c, ws in random_suite[:6]:
        for r in (1, 2, 3):
            maps = canonical_maps(c, r, ws)
            assert set(maps.bc_to_a) == set(c.support()), (seed, r)


@pytest.mark.parametrize("shape, broken, message", [
    # zero representatives of the dot's BC_r: BC_1 -> BC_r is no longer onto
    (dot_shape(1, 1), lambda n, k: Matrix.zero(n, k), r"BC_1 -> BC_r is not onto at \(1, 1\)"),
    # the square's generator, which is not d-closed, as a class of BC_r: it has no class in A_r
    (Square(0, 0), lambda n, k: Matrix.identity(n),
     r"bc_to_a class coordinates at \(0, 0\), page 2: .*not in numerator span"),
], ids=["not-onto", "not-closed"])
def test_broken_bc_reps_make_canonical_maps_raise(monkeypatch, shape, broken, message):
    real = bca.bc_reps
    monkeypatch.setattr(bca, "bc_reps",
                        lambda ws, r, p, q: broken(ws.c.dim(p, q), real(ws, r, p, q).cols))
    c = build_shape(shape)
    with pytest.raises(ConsistencyError, match=message):
        canonical_maps(c, 2)


# ---------------------------------------------------------------------------
# verdicts


def test_verdict_dots_and_squares_true():
    c = direct_sum(build_shape(dot_shape(0, 0), grid=(2, 2)),
                   build_shape(Square(1, 1), grid=(2, 2)))
    ws = Workspace(c)
    for r in (1, 2, 3):
        assert page_ddbar_verdict(c, r, ws).verdict is True


def test_verdict_length_four_zigzag():
    z = build_shape(ZigzagShape(((0, 1), (1, 0)), False, True))
    ws = Workspace(z)
    assert page_ddbar_verdict(z, 2, ws).verdict is False
    assert page_ddbar_verdict(z, 3, ws).verdict is True


def test_verdict_odd_zigzag_false_forever():
    z = build_shape(ZigzagShape(((0, 1),), True, True))
    ws = Workspace(z)
    for r in (1, 2, 3, 4):
        assert page_ddbar_verdict(z, r, ws).verdict is False


def test_criterion_f_swapped_pass_matches_swapped_complex():
    """(F)'s swapped pass reads im(d1 d2), closed and exact spaces at transposed cells.

    Where only that pass fails, its witness must be the one (F) finds in the
    forward pass of the swapped complex, which computes those spaces itself.
    """
    from bigraded.bicomplex import swap_complex
    from bigraded.zigzag import enumerate_shapes
    seen = 0
    for shape in enumerate_shapes((3, 3)):
        c = build_shape(shape, (3, 3))
        ws = Workspace(c)
        for r in (1, 2, 3, 4):
            ok, witness = bca._criterion_subspace_identities(ws, r, want_witness=True)
            if witness is None or not witness.get("swapped_orientation"):
                continue
            seen += 1
            _, forward = bca._criterion_subspace_identities(Workspace(swap_complex(c)), r,
                                                            want_witness=True)
            assert not ok and witness == dict(forward, swapped_orientation=True), (shape, r)
    assert seen


def test_verdict_criteria_agree_random(random_suite):
    # (B), (F), structure agreement and the (D) == (E), verdict => (C) ^ (D)
    # relations are enforced inside the call; here we additionally pin down
    # the reported shape of the result
    for seed, c, ws in random_suite:
        for r in (1, 2, 3, 4):
            v = page_ddbar_verdict(c, r, ws, use_structure=True)
            decided = {k for k, val in v.criteria.items() if val is not None}
            assert {"B", "C", "D", "E", "F"} <= decided, (seed, r)
            assert v.criteria["B"] == v.criteria["F"] == v.verdict
            if v.criteria.get("structure") is not None:
                assert v.criteria["structure"] == v.verdict
            assert v.criteria["D"] == v.criteria["E"]
            if v.verdict:
                assert v.criteria["C"] and v.criteria["D"]
            assert v.duality_gap == ((v.criteria["C"] or v.criteria["D"])
                                     and not v.verdict)


def test_duality_gap_on_inward_odd_zigzag():
    # odd zigzag with both outer arrows missing: injectivity (D) and the
    # exactness equivalence (E) hold from r = 2 on although the property
    # fails; this is exactly the gap that Serre-type duality closes on
    # manifolds
    z = build_shape(ZigzagShape(((0, 1), (1, 0)), False, False))
    ws = Workspace(z)
    v = page_ddbar_verdict(z, 2, ws)
    assert v.verdict is False
    assert v.criteria["D"] is True and v.criteria["E"] is True
    assert v.duality_gap


def test_duality_gap_on_antidiagonal_cancellation():
    # a type-L zigzag plus a type-M zigzag one degree up, placed so the
    # generators of the latter sit on the upper cells of the former: at r=2
    # every bidegree has equal Bott-Chern and Aeppli dimensions, yet the
    # comparison map vanishes, so (C) holds while the property fails
    from bigraded.bicomplex import direct_sum
    L5 = build_shape(ZigzagShape(((2, 3), (3, 2)), True, True), grid=(4, 4))
    M5 = build_shape(ZigzagShape(((2, 4), (3, 3), (4, 2)), False, False), grid=(4, 4))
    s = direct_sum(L5, M5)
    ws = Workspace(s)
    v = page_ddbar_verdict(s, 2, ws)
    assert v.verdict is False
    assert v.criteria["C"] is True
    assert v.duality_gap
    table = bca_dims(s, 2, ws)
    for (p, q) in s.support():
        assert table.bc.get((2, p, q), 0) == table.a.get((2, p, q), 0)


def test_verdict_explain_witness():
    z = build_shape(ZigzagShape(((0, 0),), False, True))  # length-2, fails at r=1
    v = page_ddbar_verdict(z, 1, Workspace(z), use_structure=False, explain=True)
    assert v.verdict is False
    assert v.witness is not None
    assert v.witness["memberships"]["ddbar_exact"] is False


def test_calabi_eckmann_never_page_ddbar():
    ce = example_calabi_eckmann(1, 1)
    ws = Workspace(ce)
    v = page_ddbar_verdict(ce, 2, ws, use_structure=False, explain=True)
    assert v.verdict is False
    # the witness is a concrete form exhibiting the failure: here criterion
    # (E) holds (a duality gap), so the witness comes from the subspace
    # identities of (F)
    assert v.witness is not None
    assert v.duality_gap


# ---------------------------------------------------------------------------
# the dimension inequality


def test_inequality_length_three_zigzag_equality_without_property():
    z = build_shape(ZigzagShape(((0, 1),), True, True))
    ws = Workspace(z)
    rep = inequality_check(z, 2, ws)
    assert (rep.bca_total, rep.page_total, rep.betti_doubled) == (2, 2, 2)
    assert rep.verdict is False  # equality does not force the property


def test_inequality_square():
    rep = inequality_check(build_shape(Square(0, 0)), 2)
    assert (rep.bca_total, rep.page_total, rep.betti_doubled) == (0, 0, 0)


def test_inequality_random(random_suite):
    """Both inequalities, and the equality under a true verdict, hold, or the check raises."""
    for seed, c, ws in random_suite:
        for r in (1, 2, 3, 4):
            rep = inequality_check(c, r, ws)
            assert rep.bca_total >= rep.page_total >= rep.betti_doubled, (seed, r)


@pytest.mark.parametrize("tag, shift, message", [
    ("e", 1, "BC \\+ A >= E \\+ conjugate E >= 2b fails at page 2: BC \\+ A = 4, "
             "E \\+ conjugate E = 5"),
    ("ebar", -1, "BC \\+ A >= E \\+ conjugate E >= 2b fails at page 2: .* = 3, 2b = 4"),
    ("bc", 1, "ddbar property holds but BC \\+ A != 2b at page 2: BC \\+ A = 5"),
], ids=["pages-above-bca", "pages-below-betti", "no-equality"])
def test_patched_tables_make_the_inequality_check_raise(monkeypatch, tag, shift, message):
    # two dots: every table holds 2 at (0,0) on every page, and 2b = 4
    dots = direct_sum(build_shape(dot_shape(0, 0)), build_shape(dot_shape(0, 0)))
    ws = Workspace(dots)
    # the criteria are decided (all true) before the tables break; deciding
    # them on broken tables would fail criterion (C) and raise elsewhere
    assert all(bca._criteria(ws, 2).values())
    real_bca, real_pages = bca.bca_dims, bca.page_dims

    def patched(real):
        def tables(c, r_max, ws):
            table = real(c, r_max, ws)
            for key in getattr(table, tag, {}):
                getattr(table, tag)[key] += shift
            return table
        return tables

    monkeypatch.setattr(bca, "bca_dims", patched(real_bca))
    monkeypatch.setattr(bca, "page_dims", patched(real_pages))
    with pytest.raises(ConsistencyError, match=message):
        inequality_check(dots, 2, ws)


def test_hopf_model_never_page_ddbar():
    # the Hopf-surface model degenerates at page 1 yet is not a page-r
    # del-delbar complex for any r: its decomposition keeps odd non-dot
    # zigzags
    ce = example_calabi_eckmann(0, 1)
    ws = Workspace(ce)
    for r in (1, 2, 3):
        assert page_ddbar_verdict(ce, r, ws, use_structure=False).verdict is False


# ---------------------------------------------------------------------------
# per-cell memo


def _restrict(table, r_max):
    return {key: v for key, v in table.items() if key[0] <= r_max}


def test_smaller_rmax_tables_are_restrictions(random_suite):
    for seed, c, _ in random_suite[:3]:
        ws = Workspace(c)
        big_bca, big_pages = bca_dims(c, 4, ws), page_dims(c, 4, ws)
        small_bca, small_pages = bca_dims(c, 2, ws), page_dims(c, 2, ws)
        fresh = Workspace(c)
        assert small_bca.bc == _restrict(big_bca.bc, 2) == bca_dims(c, 2, fresh).bc, seed
        assert small_bca.a == _restrict(big_bca.a, 2) == bca_dims(c, 2, fresh).a, seed
        assert small_pages.e == _restrict(big_pages.e, 2) == page_dims(c, 2, fresh).e, seed
        assert small_pages.ebar == _restrict(big_pages.ebar, 2), seed


def test_broken_ddbar_exact_worker_raises(monkeypatch):
    # the whole component is ddbar-exact: not inside ker d1 ∩ ker d2 at the
    # square's generator, so the Bott-Chern quotient is of a non-nested pair
    monkeypatch.setattr(bca, "ddbar_exact",
                        lambda ws, r, p, q: Subspace.full(ws.c.dim(p, q)))
    c = build_shape(Square(0, 0))
    with pytest.raises(ConsistencyError):
        bca_dims(c, 2, Workspace(c))


def test_accessors_with_equal_arguments_keep_separate_entries(random_suite):
    _, c, _ = random_suite[0]
    by_cell = (closed_pure, im_both, bca.im_dd, exact_pure)
    by_page_cell = (ddbar_closed, ddbar_exact, bca.bc_reps, bca.a_reps,
                    Workspace.page_reps, Workspace.dr_matrix)
    for (p, q) in c.support():
        shared = Workspace(c)
        calls = [(fn, (p, q)) for fn in by_cell] + [(fn, (2, p, q)) for fn in by_page_cell]
        for fn, args in calls:
            assert fn(shared, *args) == fn(Workspace(c), *args), (fn.__name__, args)
            assert (f"{fn.__module__}.{fn.__qualname__}",) + args in shared.memo
