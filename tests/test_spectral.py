"""Tower spaces, page tables, page differentials and convergence."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bigraded.bicomplex import random_complex, swap_complex
from bigraded.linalg import (Matrix, Subspace, image_basis, kernel_basis,
                             subspace_sum)
from bigraded.models import (Square, ZigzagShape, build_shape, dot_shape,
                             example_calabi_eckmann)
from bigraded.spectral import (ConsistencyError, TowerKind, Workspace, degeneration_page,
                               einfty_check, iterated_pages_oracle, page_dims)
from bigraded.zigzag import _shape_stable_page, measured_invariants, predicted_invariants


def test_first_page_spaces_are_kernel_and_image(random_suite):
    for _, c, ws in random_suite[:6]:
        for (p, q) in c.support():
            assert ws.space(TowerKind.PAGE_CLOSED, 1, p, q) == kernel_basis(c.d2_at(p, q))
            assert ws.space(TowerKind.PAGE_EXACT, 1, p, q) == image_basis(c.d2_at(p, q - 1))


def test_tower_nesting(random_suite):
    # exact spaces grow, closed spaces shrink, exact stays inside closed
    for _, c, ws in random_suite[:6]:
        for (p, q) in c.support():
            for r in (1, 2, 3):
                cr = ws.space(TowerKind.PAGE_EXACT, r, p, q)
                cr1 = ws.space(TowerKind.PAGE_EXACT, r + 1, p, q)
                zr1 = ws.space(TowerKind.PAGE_CLOSED, r + 1, p, q)
                zr = ws.space(TowerKind.PAGE_CLOSED, r, p, q)
                assert cr1.contains_subspace(cr)
                assert zr1.contains_subspace(cr1)
                assert zr.contains_subspace(zr1)


def test_square_generator_cell_not_closed():
    sq = build_shape(Square(0, 0))
    # brute force on the 1-dimensional component: d2 a != 0
    assert Workspace(sq).space(TowerKind.PAGE_CLOSED, 1, 0, 0) == Subspace.zero(1)


def test_page_dims_dot():
    dot = build_shape(dot_shape(2, 1))
    table = page_dims(dot, 5, Workspace(dot))
    assert all(table.dim(r, 2, 1) == 1 for r in range(1, 6))


def test_page_dims_length_two_zigzag():
    z = build_shape(ZigzagShape(((0, 0),), False, True))
    ws = Workspace(z)
    table = page_dims(z, 2, ws)
    assert table.dim(1, 0, 0) == 1 and table.dim(1, 1, 0) == 1
    assert table.dim(2, 0, 0) == 0 and table.dim(2, 1, 0) == 0
    d1 = ws.dr_matrix(1, 0, 0)
    assert d1.rows == d1.cols == 1 and d1.rank() == 1  # an isomorphism


def test_dr_matrix_first_page_is_induced_map(random_suite):
    for _, c, ws in random_suite[:4]:
        for (p, q) in c.support():
            m = ws.dr_matrix(1, p, q)
            reps = ws.page_reps(1, p, q)
            for j in range(reps.cols):
                v = c.d1_at(p, q) * reps.select([j])
                # the matrix column is the page class of d1(alpha)
                from bigraded.linalg import class_coordinates
                cc = ws.space(TowerKind.PAGE_EXACT, 1, p + 1, q)
                dst = ws.page_reps(1, p + 1, q)
                assert class_coordinates(cc, dst, v).column(0) == m.column(j)


def test_dr_squares_to_zero(random_suite):
    for _, c, ws in random_suite[:6]:
        for r in (1, 2, 3):
            for (p, q) in c.support():
                a = ws.dr_matrix(r, p, q)
                b = ws.dr_matrix(r, p + r, q - r + 1)
                if a.rows and b.rows:
                    assert (b * a).is_zero()


def test_dr_rank_invariant_under_representative_choice(random_suite):
    # recompute d_r with randomly perturbed representatives: the rank and the
    # induced next-page dimensions must not move
    rng = random.Random(99)
    for _, c, ws in random_suite[:3]:
        for r in (1, 2):
            for (p, q) in c.support():
                base = ws.dr_matrix(r, p, q)
                reps = ws.page_reps(r, p, q)
                if not reps.cols:
                    continue
                cr = ws.space(TowerKind.PAGE_EXACT, r, p, q)
                noise = [[rng.randint(-2, 2) for _ in range(cr.dim)] for _ in range(reps.cols)]
                perturbed = reps + cr.basis * Matrix.from_columns(noise, cr.dim)
                fresh = Workspace(c)
                fresh.memo[("bigraded.spectral.Workspace.page_reps", r, p, q)] = perturbed
                other = fresh.dr_matrix(r, p, q)
                assert other.rank() == base.rank()


def test_dr_image_lands_in_closed_space(random_suite):
    from bigraded.spectral import _dr_image
    for _, c, ws in random_suite[:3]:
        for r in (1, 2, 3):
            for (p, q) in c.support():
                images = _dr_image(ws, r, p, q, ws.page_reps(r, p, q))
                z = ws.space(TowerKind.PAGE_CLOSED, r, p + r, q - r + 1)
                for v in images.columns():
                    if any(x != 0 for x in v):
                        assert z.contains(v)


def _sympy_tower(c, blocks, equations):
    """Kernel of a block system, projected to the first block, through sympy.

    `blocks` lists the cells of the unknowns; each equation is a list of
    ``(block index, sign, map)`` terms whose signed sum must vanish.
    """
    sympy = pytest.importorskip("sympy")
    dims = [c.dim(*cell) for cell in blocks]
    offsets = [sum(dims[:i]) for i in range(len(dims))]
    rows = []
    for terms in equations:
        for i in range(terms[0][2].rows):
            row = [0] * sum(dims)
            for block, sign, m in terms:
                for j in range(m.cols):
                    row[offsets[block] + j] += sign * m.data[i][j]
            rows.append(row)
    system = sympy.Matrix(len(rows), sum(dims),
                          [sympy.Rational(x.numerator, x.denominator)
                           for row in rows for x in row])
    vectors = [tuple(Fraction(int(x.p), int(x.q)) for x in v[: dims[0]])
               for v in system.nullspace()]
    return Subspace.from_columns(vectors, dims[0])


def _runs_equations(c, blocks):
    return [[(i, 1, c.d1_at(*blocks[i])), (i + 1, -1, c.d2_at(*blocks[i + 1]))]
            for i in range(len(blocks) - 1)]


def test_tower_recursion_matches_block_systems(random_suite):
    # the defining block systems of Z_r, runs_s and reaches-zero_s, solved by
    # sympy, against the memoised one-step recursions
    for seed, c, ws in random_suite[:5]:
        for (p, q) in c.support():
            for r in range(1, 5):
                diag = [(p + i, q - i) for i in range(r)]
                z = _sympy_tower(c, diag, [[(0, 1, c.d2_at(p, q))]] + _runs_equations(c, diag))
                assert ws.space(TowerKind.PAGE_CLOSED, r, p, q) == z, (seed, r, p, q)
            for s in range(0, 5):
                diag = [(p + i, q - i) for i in range(s + 1)]
                runs = _sympy_tower(c, diag, _runs_equations(c, diag))
                assert ws.space(TowerKind.RUNS, s, p, q) == runs, (seed, s, p, q)
            for s in range(1, 5):
                anti = [(p - i, q + i) for i in range(s)]
                eqs = [[(i, 1, c.d2_at(*anti[i])), (i + 1, -1, c.d1_at(*anti[i + 1]))]
                       for i in range(s - 1)]
                eqs.append([(s - 1, 1, c.d2_at(*anti[-1]))])
                reaches = _sympy_tower(c, anti, eqs)
                assert ws.space(TowerKind.REACHES_ZERO, s, p, q) == reaches, (seed, s, p, q)


def test_oracle_agreement(random_suite):
    for seed, c, ws in random_suite:
        direct = page_dims(c, 5, ws)
        iterated = iterated_pages_oracle(c, 5, ws)
        assert direct.e == iterated.e, f"seed {seed}"


def _filtration_pages(c, r_max):
    """Independent textbook route: subquotients of the filtered total complex.

    Z_r = F^p ∩ D^{-1}(F^{p+r}),
    e_r = dim Z_r - dim(Z_{r-1} one step deeper + D(Z_{r-1} from r-1 back)),
    everything computed inside the total complex, never through towers.
    """
    t = Workspace(c).total

    def filt(p, k):
        cols = []
        n = t.dim(k)
        for (pp, _, off, d) in t.layout.get(k, []):
            if pp >= p:
                for i in range(d):
                    v = [0] * n
                    v[off + i] = 1
                    cols.append(tuple(v))
        return Subspace.from_columns(cols, n)

    def zrs(r, p, k):
        big = filt(p, k)
        if big.dim == 0:
            return big
        sub = big.basis
        taller = t.differential(k) * sub
        rows = []
        for (pp, _, off, dd) in t.layout.get(k + 1, []):
            if pp < p + r:  # complement of the target filtration level
                for i in range(dd):
                    rows.append(list(taller.data[off + i]))
        if not rows:
            return big
        ker = kernel_basis(Matrix(len(rows), taller.cols, rows))
        return image_basis(sub * ker.basis)

    out = {}
    for r in range(1, r_max + 1):
        for (p, q) in c.support():
            k = p + q
            z = zrs(r, p, k)
            deeper = zrs(r - 1, p + 1, k)
            images = image_basis(t.differential(k - 1) * zrs(r - 1, p - r + 1, k - 1).basis)
            boundary = subspace_sum(deeper, images)
            dim = z.dim - boundary.dim
            if dim:
                out[(r, p, q)] = dim
    return out


def test_filtration_formula_oracle(random_suite):
    for seed, c, ws in random_suite[:4]:
        table = page_dims(c, 3, ws)
        alt = _filtration_pages(c, 3)
        assert {k: v for k, v in table.e.items() if k[0] <= 3} == alt, f"seed {seed}"


def test_degeneration_dot_and_square():
    assert degeneration_page(build_shape(dot_shape(0, 0))) == 1
    assert degeneration_page(build_shape(Square(0, 0))) == 1


def test_degeneration_even_zigzags():
    for g in (1, 2, 3):
        z = build_shape(ZigzagShape(tuple((i, 3 - i) for i in range(g)), False, True))
        assert degeneration_page(z) == g + 1


def test_einfty_always_matches_betti(random_suite):
    for seed, c, ws in random_suite:
        einfty_check(c, ws)  # raises ConsistencyError on a mismatch


def test_einfty_square_both_sides_zero():
    sq = build_shape(Square(0, 0))
    ws = Workspace(sq)
    einfty_check(sq, ws)
    assert not any(ws.betti.values())
    assert all(ws.page_reps(ws.stable_page, p, q).cols == 0 for p, q in sq.support())


def _more_betti(monkeypatch):
    from bigraded import spectral
    real = spectral.de_rham_dims
    monkeypatch.setattr(spectral, "de_rham_dims",
                        lambda total: {k: b + 1 for k, b in real(total).items()})
    return einfty_check


def _never_orthogonal(monkeypatch):
    from bigraded import hodge
    monkeypatch.setattr(hodge, "_is_orthogonal", lambda a, b, gram: False)
    return lambda c: hodge.three_space_decomposition(c, None, 2, *min(c.support()))


@pytest.mark.parametrize("breaker", [_more_betti, _never_orthogonal],
                         ids=["einfty", "three-space"])
def test_failed_theorem_raises_where_it_is_computed(monkeypatch, breaker):
    check = breaker(monkeypatch)
    with pytest.raises(ConsistencyError):
        check(example_calabi_eckmann(1, 1))


def test_tower_requires_positive_page():
    dot = build_shape(dot_shape(0, 0))
    with pytest.raises(ValueError):
        Workspace(dot).space(TowerKind.PAGE_CLOSED, 0, 0, 0)


def test_swapped_kinds_match_swap_complex(random_suite):
    # the conjugate towers at (p,q) are those of the swapped complex at (q,p);
    # at r = 1 they are ker d1 and im d1 of the original
    from bigraded.bicomplex import swap_complex
    for _, c, ws in random_suite[:4]:
        sw = swap_complex(c)
        wsw = Workspace(sw)
        for (p, q) in c.support():
            assert ws.swapped.space(TowerKind.PAGE_CLOSED, 1, q, p) == kernel_basis(c.d1_at(p, q))
            assert ws.swapped.space(TowerKind.PAGE_EXACT, 1, q, p) == image_basis(c.d1_at(p - 1, q))
            for r in (1, 2):
                for kind in (TowerKind.PAGE_CLOSED, TowerKind.PAGE_EXACT,
                             TowerKind.RUNS, TowerKind.REACHES_ZERO):
                    assert ws.swapped.space(kind, r, q, p) == wsw.space(kind, r, q, p)


# the stable page: every table is read only up to it, so it must never undercut


def _rows(table, start, stop):
    """The pages start..stop of an (r,p,q)-keyed table, each as {(p, q): value}."""
    return [{(p, q): v for (rr, p, q), v in table.items() if rr == r}
            for r in range(start, stop + 1)]


def _constant_from(table, start, stop):
    rows = _rows(table, start, stop)
    return all(row == rows[0] for row in rows)


def _span_bound_degeneration(c):
    """`degeneration_page` read off every page up to max(span) + 1."""
    last = max(c.span()) + 1
    table = page_dims(c, last, Workspace(c))
    drops = [r for r in range(1, last) if table.total("e", r) != table.total("e", r + 1)]
    return max(drops, default=0) + 1


def _assert_stable_page_never_undercuts(c):
    for ws in (Workspace(c), Workspace(swap_complex(c))):
        last = max(ws.c.span()) + 1
        table = measured_invariants(ws.c, last, ws)
        both = max(ws.stable_page, ws.swapped.stable_page)
        for tag, start in (("e", ws.stable_page), ("ebar", ws.swapped.stable_page),
                           ("bc", both), ("a", both)):
            assert _constant_from(getattr(table, tag), start, last), (tag, start, last)
        assert degeneration_page(ws.c, ws) == _span_bound_degeneration(ws.c)


@settings(max_examples=40, deadline=None)
@given(grid=st.sampled_from([(1, 1), (2, 2), (3, 2), (2, 3), (3, 3), (4, 4)]),
       max_dim=st.integers(1, 4), seed=st.integers(0, 10**6))
def test_stable_page_never_undercuts_on_random_complexes(grid, max_dim, seed):
    _assert_stable_page_never_undercuts(random_complex(grid, max_dim, seed))


def _zigzags(max_generators):
    for g in range(1, max_generators + 1):
        gens = tuple((i, g - 1 - i) for i in range(g))
        for first in (False, True):
            for last in (False, True):
                yield ZigzagShape(gens, first, last)


def test_stable_page_never_undercuts_on_shapes():
    for shape in [Square(0, 0), Square(2, 1), *_zigzags(10)]:
        _assert_stable_page_never_undercuts(build_shape(shape))


def test_shape_stable_page_is_where_the_predictions_stop_changing():
    for shape in [Square(0, 0), *_zigzags(11)]:
        last = len(getattr(shape, "generators", ())) + 3
        pred = predicted_invariants(shape, last)
        first_fixed = min(r for r in range(1, last + 1)
                          if all(_constant_from(getattr(pred, tag), r, last)
                                 for tag in ("e", "ebar", "bc", "a")))
        assert _shape_stable_page(shape) == first_fixed, shape


def test_degeneration_page_stops_where_the_towers_do():
    # an 18x18 grid whose towers stop at page 3 and whose pages degenerate at page 2
    ws = Workspace(example_calabi_eckmann(2, 3))
    assert degeneration_page(ws.c, ws) == 2
    assert len(ws.spaces) <= 1800


def test_broken_dr_lift_target_is_a_consistency_error(monkeypatch):
    """A d_r image outside the target's Z_r has no class there; the error names page and cell."""
    from bigraded import spectral
    from bigraded.spectral import ConsistencyError

    real = spectral._dr_image

    def outside_closed(ws, r, p, q, alpha):
        cell = (p + r, q - r + 1)
        closed = ws.space(TowerKind.PAGE_CLOSED, r, *cell)
        n = ws.c.dim(*cell)
        outside = [col for col in Matrix.identity(n).columns() if not closed.contains(col)]
        if not outside:
            return real(ws, r, p, q, alpha)
        return Matrix.from_columns(outside[:1] * alpha.cols, n)

    monkeypatch.setattr(spectral, "_dr_image", outside_closed)
    c = example_calabi_eckmann(1, 1)
    with pytest.raises(ConsistencyError,
                       match=r"^d_r image in E_r at \(\d+, \d+\), page 1: class_coord"):
        iterated_pages_oracle(c, 3)
