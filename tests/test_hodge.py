"""Harmonic realisations: adjoints, Green inverses, towers, decompositions."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from bigraded.bicomplex import random_complex
from bigraded.hodge import (InnerProduct, adjoint, bc_a_harmonic_spaces,
                            flipped_adjoint_workspace, green_inverse,
                            harmonic_tower, three_space_decomposition)
from bigraded.linalg import (LinalgError, Matrix, Subspace, image_basis, kernel_basis,
                             subspace_intersection)
from bigraded.models import Square, ZigzagShape, build_shape, dot_shape
from bigraded.spectral import ConsistencyError, TowerKind, Workspace


def random_spd(rng, n):
    """Random positive-definite Gram: B^T B + n * identity with integer B."""
    b = Matrix(n, n, [[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
    return b.transpose() * b + Matrix.identity(n).scale(n)


def test_adjoint_identity_grams_is_transpose():
    m = Matrix.from_rows([[1, 2], [3, 4], [5, 6]])
    adj = adjoint(m, Matrix.identity(2), Matrix.identity(3))
    assert adj == m.transpose()


def test_adjoint_involution_and_defining_identity():
    rng = random.Random(4)
    g1 = random_spd(rng, 3)
    g2 = random_spd(rng, 2)
    m = Matrix(2, 3, [[Q(rng.randint(-3, 3)) for _ in range(3)] for _ in range(2)])
    adj = adjoint(m, g1, g2)
    assert adjoint(adj, g2, g1) == m
    for _ in range(10):
        x = Matrix(3, 1, [[rng.randint(-3, 3)] for _ in range(3)])
        y = Matrix(2, 1, [[rng.randint(-3, 3)] for _ in range(2)])
        lhs = (m * x).transpose() * g2 * y
        rhs = x.transpose() * g1 * (adj * y)
        assert lhs == rhs


def test_inner_product_rejects_non_spd():
    with pytest.raises(LinalgError):
        InnerProduct({(0, 0): Matrix.from_rows([[1, 2], [3, 4]])})  # not symmetric
    with pytest.raises(LinalgError):
        InnerProduct({(0, 0): Matrix.from_rows([[1, 2], [2, 1]])})  # not definite


def test_green_inverse_properties():
    rng = random.Random(8)
    for n in (2, 3, 4):
        b = Matrix(n, n, [[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
        lap = b * b.transpose()  # self-adjoint, usually singular
        plus = green_inverse(lap)
        assert (plus * kernel_basis(lap).basis).is_zero()
        # on the image the composition is the identity
        im = image_basis(lap).basis
        assert plus * (lap * (plus * im)) == plus * im
        assert lap * (plus * im) == im


def test_green_inverse_with_gram():
    # L = G^-1 S with S symmetric is self-adjoint for the Gram G, so its Green
    # inverse is its group inverse: the two are mutual generalised inverses
    # and commute
    rng = random.Random(13)
    for n in (2, 3, 4, 5):
        g = random_spd(rng, n)
        b = Matrix(n - 1, n, [[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n - 1)])
        lap = g.inverse() * b.transpose() * b
        plus = green_inverse(lap)
        assert lap * plus * lap == lap
        assert plus * lap * plus == plus
        assert lap * plus == plus * lap


def test_green_inverse_rejects_meeting_kernel_and_image():
    with pytest.raises(ConsistencyError):
        green_inverse(Matrix.from_rows([[0, 1], [0, 0]]))


def _transfer_chain(c, ip, tower, r, p, q):
    """D_r(p,q) as the r-1 step product (L_1^+ d2* d1) ... (L_{r-1}^+ d2* d1)."""
    m = Matrix.identity(c.dim(p, q))
    cp, cq = p, q
    for i in range(r - 1, 0, -1):
        tgt = (cp + 1, cq - 1)
        n = c.dim(*tgt)
        lap = tower.laplacians.get((i,) + tgt, Matrix.zero(n, n))
        down = adjoint(c.d2_at(*tgt), ip.gram(c, *tgt), ip.gram(c, cp + 1, cq))
        m = green_inverse(lap) * down * c.d1_at(cp, cq) * m
        cp, cq = tgt
    return m


def test_transfer_recursion_matches_step_chain(random_suite):
    rng = random.Random(17)
    for seed, c, ws in random_suite:
        ip = InnerProduct({cell: random_spd(rng, n) for cell, n in sorted(c.dims.items())})
        tower = harmonic_tower(c, ip, 4, ws)
        for (r, p, q), m in tower.transfer.items():
            assert m == _transfer_chain(c, ip, tower, r, p, q), (seed, r, p, q)


def test_harmonic_dims_match_pages_identity_gram(random_suite):
    for seed, c, ws in random_suite[:8]:
        harmonic_tower(c, None, 3, ws)  # raises internally on any mismatch


def test_harmonic_dims_match_pages_random_gram():
    rng = random.Random(21)
    for seed in range(4):
        c = random_complex((3, 3), 3, 40 + seed)
        grams = {cell: random_spd(rng, c.dim(*cell)) for cell in c.support()}
        ip = InnerProduct(grams)
        ws = Workspace(c)
        tower = harmonic_tower(c, ip, 3, ws)  # dims checked inside
        # dimension tables are metric-independent
        base = harmonic_tower(c, None, 3, Workspace(c))
        for key, sub in tower.spaces.items():
            assert sub.dim == base.spaces[key].dim


def test_dot_harmonic_full():
    dot = build_shape(dot_shape(1, 1))
    tower = harmonic_tower(dot, None, 4)
    for r in (1, 2, 3, 4):
        assert tower.space(r, 1, 1) == Subspace.full(1)


def test_length_two_zigzag_tower():
    z = build_shape(ZigzagShape(((0, 0),), False, True))
    tower = harmonic_tower(z, None, 2)
    assert tower.space(1, 0, 0).dim == 1
    assert tower.space(1, 1, 0).dim == 1
    assert tower.space(2, 0, 0).dim == 0
    assert tower.space(2, 1, 0).dim == 0


def test_three_space_decomposition_random(random_suite):
    for seed, c, ws in random_suite[:5]:
        for r in (1, 2, 3):
            tower = harmonic_tower(c, None, r, ws)
            for (p, q) in c.support():
                dec = three_space_decomposition(c, None, r, p, q, ws, tower)
                assert dec.ok(), (seed, r, p, q)


def test_three_space_square_at_generator():
    sq = build_shape(Square(0, 0))
    dec = three_space_decomposition(sq, None, 1, 0, 0)
    assert dec.harmonic.dim == 0
    assert dec.exact.dim == 0
    assert dec.coexact.dim == 1


def _star_closed(c, ip, r, p, q, ws):
    """The adjoint-side page-closed space at (p,q): the flip's page-closed space."""
    flip = flipped_adjoint_workspace(c, ip, ws)
    return flip.space(TowerKind.PAGE_CLOSED, r, c.pmax - p, c.qmax - q)


def test_harmonic_equals_closed_meet_star_closed(random_suite):
    ip = InnerProduct()
    for seed, c, ws in random_suite[:4]:
        tower = harmonic_tower(c, None, 3, ws)
        for r in (1, 2, 3):
            for (p, q) in c.support():
                z = ws.space(TowerKind.PAGE_CLOSED, r, p, q)
                zs = _star_closed(c, ip, r, p, q, ws)
                assert subspace_intersection(z, zs) == tower.space(r, p, q), (seed, r, p, q)


def test_star_first_page_is_adjoint_kernel():
    z = build_shape(ZigzagShape(((0, 1), (1, 0)), True, True))
    ws = Workspace(z)
    ip = InnerProduct()
    for (p, q) in z.support():
        got = _star_closed(z, ip, 1, p, q, ws)
        want = kernel_basis(adjoint(z.d2_at(p, q - 1),
                                    InnerProduct().gram(z, p, q - 1),
                                    InnerProduct().gram(z, p, q)))
        assert got == want


def test_star_exact_orthogonal_to_ddbar_exact(random_suite):
    # the adjoint-side two-tower-closed space is orthogonal to the
    # ddbar-exact space of the same bidegree
    from bigraded.bca import ddbar_closed, ddbar_exact
    for seed, c, ws in random_suite[:4]:
        flip = flipped_adjoint_workspace(c, InnerProduct(), ws)
        for r in (1, 2):
            for (p, q) in c.support():
                star = ddbar_closed(flip, r, c.pmax - p, c.qmax - q)
                exact = ddbar_exact(ws, r, p, q)
                if star.dim and exact.dim:
                    assert (star.basis.transpose() * exact.basis).is_zero(), (seed, r, p, q)


def test_bc_a_harmonic_dims(random_suite):
    for seed, c, ws in random_suite[:5]:
        for r in (1, 2, 3):
            for (p, q) in c.support():
                bc_a_harmonic_spaces(c, None, r, p, q, ws)  # raises on mismatch


def test_bc_a_harmonic_explicit_zigzag():
    # length-3 with both outer arrows at r=2: one-dimensional harmonic
    # Bott-Chern space on the upper antidiagonal, zero Aeppli space
    z = build_shape(ZigzagShape(((0, 1),), True, True))
    ws = Workspace(z)
    h_bc, h_a = bc_a_harmonic_spaces(z, None, 2, 0, 2, ws)
    assert h_bc.dim == 1 and h_a.dim == 0
    h_bc, h_a = bc_a_harmonic_spaces(z, None, 2, 0, 1, ws)
    assert h_bc.dim == 0 and h_a.dim == 0


def test_flip_complex_is_valid(random_suite):
    for _, c, ws in random_suite[:3]:
        flip = flipped_adjoint_workspace(c, InnerProduct(), ws)
        assert flip.c.total_dim() == c.total_dim()


def test_metric_page_map_rank_matches_page_differential(random_suite):
    # the harmonic realisation of d_r must have the same rank as d_r itself
    for seed, c, ws in random_suite[:6]:
        tower = harmonic_tower(c, None, 3, ws)
        for r in (1, 2):
            for (p, q) in c.support():
                m = tower.page_maps.get((r, p, q))
                if m is not None:
                    assert m.rank() == ws.dr_matrix(r, p, q).rank(), (seed, r, p, q)


def test_flip_cache_follows_gram_contents():
    """Inner products that come and go on one workspace never see a stale flip."""
    from bigraded.models import example_calabi_eckmann
    c = example_calabi_eckmann(1, 1)
    rng = random.Random(11)
    gram_sets = [{cell: random_spd(rng, n) for cell, n in sorted(c.dims.items())}
                 for _ in range(2)]
    fresh = []
    for grams in gram_sets:
        flip = flipped_adjoint_workspace(c, InnerProduct(grams), Workspace(c)).c
        fresh.append((flip.d1, flip.d2))
    assert fresh[0] != fresh[1]
    ws = Workspace(c)
    for i in range(12):
        ip = InnerProduct(gram_sets[i % 2])
        flip = flipped_adjoint_workspace(c, ip, ws).c
        assert (flip.d1, flip.d2) == fresh[i % 2], i
        del ip, flip


@settings(max_examples=20, deadline=None)
@given(grid=st.sampled_from([(1, 1), (2, 2), (3, 2), (2, 3)]), seed=st.integers(0, 10**6))
def test_flipping_the_flip_gives_back_the_complex(grid, seed):
    rng = random.Random(seed)
    c = random_complex(grid, 2, seed)
    grams = {cell: random_spd(rng, n) for cell, n in c.dims.items()}
    flip = flipped_adjoint_workspace(c, InnerProduct(grams))
    # the flip's cell (pmax-p, qmax-q) is c's cell (p,q), with the same basis
    carried = InnerProduct({(c.pmax - p, c.qmax - q): g for (p, q), g in grams.items()})
    back = flipped_adjoint_workspace(flip.c, carried, flip).c
    assert (back.pmax, back.qmax) == (c.pmax, c.qmax)
    assert back.dims == c.dims and back.d1 == c.d1 and back.d2 == c.d2
