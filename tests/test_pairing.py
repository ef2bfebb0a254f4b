"""Duality pairings: chain-level validation and induced pairings on cohomology."""

import json
import random
from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

from bigraded.bicomplex import direct_sum, random_complex, validate
from bigraded.linalg import Matrix
from bigraded.models import Square, ZigzagShape, build_shape, dot_shape
from bigraded.pairing import (DualityPairing, dual_complex,
                              induced_pairing_bc_a, induced_pairing_bc_bc,
                              induced_pairing_er, pairing_from_dict,
                              pairing_to_dict, sum_with_dual, validate_pairing)
from bigraded.spectral import TowerKind, Workspace


def test_dual_complex_valid():
    for shape in (dot_shape(1, 1), Square(0, 0),
                  ZigzagShape(((0, 2), (1, 1), (2, 0)), True, True)):
        c = build_shape(shape)
        d = dual_complex(c, 3)
        assert validate(d).ok


def test_sum_with_dual_pairing_valid_and_perfect():
    z = build_shape(ZigzagShape(((0, 2), (1, 1)), False, True))
    tot, pairing = sum_with_dual(z)
    assert validate(tot).ok
    report = validate_pairing(tot, pairing)
    assert report.ok and report.perfect


def test_broken_pairing_violations_in_cell_order():
    z = build_shape(ZigzagShape(((0, 2), (1, 1)), False, True))
    tot, pairing = sum_with_dual(z)
    pairs = dict(pairing.pairs)
    for cell in ((0, 1), (0, 2), (1, 0)):
        pairs[cell] = pairs[cell].scale(2)
    report = validate_pairing(tot, DualityPairing(pairing.n, pairs))
    assert not report.ok and report.perfect
    assert report.violations == [("d1-compatibility", 0, 1, None),
                                 ("d1-compatibility", 0, 2, None),
                                 ("d1-compatibility", 1, 0, None),
                                 ("d2-compatibility", 1, 0, None)]


def test_dot_with_dual_dot():
    dot = build_shape(dot_shape(1, 0))
    tot, pairing = sum_with_dual(dot, 2)
    report = validate_pairing(tot, pairing)
    assert report.ok and report.perfect
    ws = Workspace(tot)
    rep = induced_pairing_er(tot, pairing, 1, 1, 0, ws)
    assert rep.well_defined and rep.nondegenerate
    assert rep.gram.rank() == rep.gram.rows == 1


def test_sign_flip_rejected():
    dot = build_shape(dot_shape(0, 1))
    tot, pairing = sum_with_dual(dot, 1)
    bad_pairs = dict(pairing.pairs)
    z = build_shape(ZigzagShape(((0, 1),), True, False))  # vertical pair
    tot2, pairing2 = sum_with_dual(z, 2)
    bad = dict(pairing2.pairs)
    key = (0, 1)
    bad[key] = bad[key].scale(-1)
    report = validate_pairing(tot2, DualityPairing(2, bad))
    assert not report.ok
    assert any(kind.endswith("compatibility") for kind, _, _, _ in report.violations)


def test_er_pairing_nondegenerate_on_duals():
    for shape in (dot_shape(0, 1),
                  ZigzagShape(((0, 1), (1, 0)), False, True),
                  ZigzagShape(((0, 2), (1, 1), (2, 0)), False, False)):
        c = build_shape(shape)
        tot, pairing = sum_with_dual(c)
        ws = Workspace(tot)
        n = pairing.n
        for r in (1, 2, 3, 4):
            for (p, q) in tot.support():
                rep = induced_pairing_er(tot, pairing, r, p, q, ws)
                assert rep.well_defined, (shape, r, p, q)
                assert rep.nondegenerate, (shape, r, p, q)


def test_bc_a_pairing_nondegenerate_on_duals():
    for shape in (dot_shape(0, 1),
                  ZigzagShape(((0, 1), (1, 0)), False, True),
                  ZigzagShape(((1, 1),), True, True)):
        c = build_shape(shape)
        tot, pairing = sum_with_dual(c)
        ws = Workspace(tot)
        n = pairing.n
        for r in (1, 2, 3):
            for (p, q) in tot.support():
                rep = induced_pairing_bc_a(tot, pairing, r, p, q, ws)
                assert rep.well_defined, (shape, r, p, q)
                assert rep.nondegenerate, (shape, r, p, q)
                # non-degeneracy forces dim BC at (p,q) to equal
                # dim A at the complementary bidegree
                assert rep.dims_match, (shape, r, p, q)


def test_er_pairing_perturbation_invariance():
    rng = random.Random(12)
    z = build_shape(ZigzagShape(((0, 1), (1, 0)), False, True))
    tot, pairing = sum_with_dual(z)
    ws = Workspace(tot)
    n = pairing.n
    for r in (1, 2):
        for (p, q) in tot.support():
            left = ws.page_reps(r, p, q)
            right = ws.page_reps(r, n - p, n - q)
            if not left or not right:
                continue
            exact = ws.space(TowerKind.PAGE_EXACT, r, p, q)
            form = pairing.at(tot, p, q)
            for x in left:
                for y in right:
                    base = sum(a * form.data[i][j] * b
                               for i, a in enumerate(x) if a
                               for j, b in enumerate(y) if b)
                    noise = [Q(0)] * len(x)
                    for col in exact.basis_columns():
                        f = rng.randint(-2, 2)
                        noise = [u + f * v for u, v in zip(noise, col)]
                    moved = tuple(a + u for a, u in zip(x, noise))
                    val = sum(a * form.data[i][j] * b
                              for i, a in enumerate(moved) if a
                              for j, b in enumerate(y) if b)
                    assert val == base


def test_zero_pairing_on_exact_closed_pairs():
    z = build_shape(ZigzagShape(((0, 1), (1, 0)), False, True))
    tot, pairing = sum_with_dual(z)
    ws = Workspace(tot)
    n = pairing.n
    for (p, q) in tot.support():
        exact = ws.space(TowerKind.PAGE_EXACT, 2, p, q)
        closed = ws.space(TowerKind.PAGE_CLOSED, 2, n - p, n - q)
        form = pairing.at(tot, p, q)
        for x in exact.basis_columns():
            for y in closed.basis_columns():
                v = sum(a * form.data[i][j] * b
                        for i, a in enumerate(x) if a
                        for j, b in enumerate(y) if b)
                assert v == 0


def test_bc_bc_matches_verdict_on_length_four_zigzag():
    z4 = build_shape(ZigzagShape(((0, 1), (1, 0)), False, True))
    tot, pairing = sum_with_dual(z4)
    ws = Workspace(tot)
    r2 = induced_pairing_bc_bc(tot, pairing, 2, ws)
    assert not r2.nondegenerate and r2.verdict is False and r2.agrees
    r3 = induced_pairing_bc_bc(tot, pairing, 3, ws)
    assert r3.nondegenerate and r3.verdict is True and r3.agrees


def test_bc_bc_nondegenerate_on_good_sum():
    c = direct_sum(build_shape(dot_shape(0, 1), grid=(1, 1)),
                   build_shape(Square(0, 0), (1, 1)))
    tot, pairing = sum_with_dual(c)
    ws = Workspace(tot)
    for r in (1, 2):
        rep = induced_pairing_bc_bc(tot, pairing, r, ws)
        assert rep.nondegenerate and rep.verdict is True and rep.agrees


def test_duality_closes_the_criterion_gap():
    # the inward odd zigzag alone satisfies (D)/(E) while failing the
    # property; summed with its dual (placed apart, top bidegree 2) the
    # injectivity criterion fails as well, and the BC x BC pairing is
    # degenerate in agreement with the verdict
    from bigraded.bca import page_ddbar_verdict
    z = build_shape(ZigzagShape(((0, 1), (1, 0)), False, False))
    tot, pairing = sum_with_dual(z, 2)
    ws = Workspace(tot)
    v = page_ddbar_verdict(tot, 2, ws)
    assert v.verdict is False
    assert not v.duality_gap
    assert v.criteria["C"] is False and v.criteria["D"] is False
    rep = induced_pairing_bc_bc(tot, pairing, 2, ws)
    assert not rep.nondegenerate and rep.agrees


def test_bc_bc_stays_consistent_under_cell_collisions():
    # with the tight top bidegree the dual's upper cells land on the
    # zigzag's generators and every dimension count balances, but the
    # BC x BC pairing still detects the failure (dual classes pair to zero
    # among themselves)
    from bigraded.bca import page_ddbar_verdict
    z = build_shape(ZigzagShape(((0, 1), (1, 0)), False, False))
    tot, pairing = sum_with_dual(z, 1)
    ws = Workspace(tot)
    v = page_ddbar_verdict(tot, 2, ws)
    assert v.verdict is False and v.criteria["C"] is True and v.duality_gap
    rep = induced_pairing_bc_bc(tot, pairing, 2, ws)
    assert not rep.nondegenerate and rep.agrees


def test_pairing_json_roundtrip():
    z = build_shape(ZigzagShape(((0, 1),), True, True))
    tot, pairing = sum_with_dual(z)
    obj = pairing_to_dict(pairing)
    back = pairing_from_dict(obj)
    assert back.n == pairing.n
    assert back.pairs == pairing.pairs


@settings(max_examples=10, deadline=None)
@given(grid=st.sampled_from([(1, 1), (2, 2), (3, 2), (3, 3)]), seed=st.integers(0, 10**6),
       factor=st.fractions().filter(bool))
def test_pairing_survives_a_json_round_trip(grid, seed, factor):
    tot, pairing = sum_with_dual(random_complex(grid, 2, seed))
    # a nonzero multiple stays compatible and perfect and brings in denominators
    pairing = DualityPairing(pairing.n,
                             {cell: m.scale(factor) for cell, m in pairing.pairs.items()})
    obj = pairing_to_dict(pairing)
    back = pairing_from_dict(json.loads(json.dumps(obj)))
    assert back.n == pairing.n and back.pairs == pairing.pairs
    report = validate_pairing(tot, back)
    assert report.ok and report.perfect


def test_perfect_pairing_restores_injectivity_criteria():
    # on c + dual(c) with the evaluation pairing, injectivity (D) and the
    # exactness equivalence (E) match the verdict exactly; the antidiagonal
    # counts (C) may still balance accidentally, and the BC x BC pairing
    # always tracks the verdict (enforced with an error inside the call)
    from bigraded.bca import page_ddbar_verdict
    for seed in range(8):
        c = random_complex((3, 3), 3, 3100 + seed)
        tot, pairing = sum_with_dual(c)
        assert validate_pairing(tot, pairing).perfect
        ws = Workspace(tot)
        for r in (1, 2, 3):
            v = page_ddbar_verdict(tot, r, ws, use_structure=True)
            assert v.criteria["D"] == v.verdict, (seed, r)
            assert v.criteria["E"] == v.verdict, (seed, r)
            induced_pairing_bc_bc(tot, pairing, r, ws)


def _value(form, x, y):
    """The form on x and y as a plain `Fraction` sum over all entries."""
    return sum((Q(a) * form.data[i][j] * b for i, a in enumerate(x) for j, b in enumerate(y)),
               Q(0))


def _assert_matches_oracle(got, pairing, c, p, q, left, right, left_null, right_null):
    n = pairing.n
    form, back = pairing.at(c, p, q), pairing.at(c, n - p, n - q)
    assert [list(row) for row in got.gram.data] == [[_value(form, x, y) for y in right]
                                                    for x in left], (p, q)
    assert got.well_defined == (
        all(_value(form, x, y) == 0 for x in left_null.basis_columns() for y in right)
        and all(_value(back, x, y) == 0 for x in right_null.basis_columns() for y in left)), (p, q)


def _induced_against_oracle(tot, pairing, ws, rmax):
    """Every induced pairing of `tot` checked against the oracle; the well_defined flags seen."""
    from bigraded.bca import a_reps, bc_reps, ddbar_exact_space, im_both
    n = pairing.n
    seen = []
    for r in range(1, rmax + 1):
        for (p, q) in tot.support():
            er = induced_pairing_er(tot, pairing, r, p, q, ws)
            _assert_matches_oracle(er, pairing, tot, p, q, ws.page_reps(r, p, q),
                                   ws.page_reps(r, n - p, n - q),
                                   ws.space(TowerKind.PAGE_EXACT, r, p, q),
                                   ws.space(TowerKind.PAGE_EXACT, r, n - p, n - q))
            ba = induced_pairing_bc_a(tot, pairing, r, p, q, ws)
            _assert_matches_oracle(ba, pairing, tot, p, q, bc_reps(ws, r, p, q),
                                   a_reps(ws, r, n - p, n - q),
                                   ddbar_exact_space(tot, r, p, q, ws), im_both(ws, n - p, n - q))
            seen += [er.well_defined, ba.well_defined]
        bb = induced_pairing_bc_bc(tot, pairing, r, ws, compare_verdict=False)
        for (p, q), cell in bb.per_cell.items():
            _assert_matches_oracle(cell, pairing, tot, p, q, bc_reps(ws, r, p, q),
                                   bc_reps(ws, r, n - p, n - q),
                                   ddbar_exact_space(tot, r, p, q, ws),
                                   ddbar_exact_space(tot, r, n - p, n - q, ws))
            seen.append(cell.well_defined)
        assert bb.nondegenerate == all(cell.nondegenerate for cell in bb.per_cell.values())
    return seen


def test_induced_pairings_match_a_fraction_oracle():
    for seed in (1, 5, 9):
        tot, pairing = sum_with_dual(random_complex((3, 3), 3, seed))
        assert all(_induced_against_oracle(tot, pairing, Workspace(tot), 3)), seed


def test_induced_pairings_match_the_oracle_on_a_broken_cell():
    # the largest form plus the all-ones matrix is no longer compatible, so
    # some induced pairings are not well defined; the oracle must agree on which
    tot, pairing = sum_with_dual(random_complex((2, 2), 2, 1))
    broken = dict(pairing.pairs)
    cell = max(broken, key=lambda k: (broken[k].rows, k))
    m = broken[cell]
    broken[cell] = m + Matrix(m.rows, m.cols, [[1] * m.cols for _ in range(m.rows)])
    broken = DualityPairing(pairing.n, broken)
    assert not validate_pairing(tot, broken).ok
    seen = _induced_against_oracle(tot, broken, Workspace(tot), 3)
    assert not all(seen) and any(seen)


@settings(max_examples=25, deadline=None)
@given(grid=st.sampled_from([(1, 1), (2, 2), (3, 2), (2, 3)]), seed=st.integers(0, 10**6),
       extra=st.integers(0, 2))
def test_dual_of_the_dual_negates_both_differentials(grid, seed, extra):
    c = random_complex(grid, 2, seed)
    n = max(grid) + extra
    back = dual_complex(dual_complex(c, n), n)
    assert validate(back).ok
    assert back.dims == c.dims
    assert back.d1 == {cell: -m for cell, m in c.d1.items()}
    assert back.d2 == {cell: -m for cell, m in c.d2.items()}
