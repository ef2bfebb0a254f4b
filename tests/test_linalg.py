"""Exact linear algebra: elimination oracles, subspace calculus, preimages."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from bigraded.linalg import (ContainmentError, LinalgError, Matrix, Subspace,
                             class_coordinates, extend_basis, image_basis,
                             kernel_basis, map_subspace, orthogonal_complement,
                             preimage, quotient_dim, rref,
                             subspace_intersection, subspace_sum)


def random_matrix(rng, rows, cols, span=5, denoms=False):
    def entry():
        if denoms:
            return Q(rng.randint(-span, span), rng.randint(1, 3))
        return Q(rng.randint(-span, span))
    return Matrix(rows, cols, [[entry() for _ in range(cols)] for _ in range(rows)])


def test_rref_identity():
    m = Matrix.identity(2)
    red, pivots, rank = rref(m)
    assert red == m
    assert pivots == (0, 1)
    assert rank == 2


def test_rref_proportional_rows():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    red, pivots, rank = rref(m)
    assert red == Matrix.from_rows([[1, 2], [0, 0]])
    assert rank == 1


def test_rref_rank_matches_bareiss_oracle():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    for _ in range(50):
        m = random_matrix(rng, 6, 6)
        _, _, rank = rref(m)
        assert rank == sympy.Matrix([[int(x) for x in row] for row in m.data]).rank()


def test_rref_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    for _ in range(20):
        m = random_matrix(rng, 5, 7, denoms=True)
        sm = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                           for row in m.data])
        assert m.rref()[2] == sm.rank()


def test_rref_idempotent():
    rng = random.Random(3)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), denoms=True)
        red, _, _ = rref(m)
        again, _, _ = rref(red)
        assert again == red


def test_kernel_zero_and_identity():
    assert kernel_basis(Matrix.zero(3, 3)) == Subspace.full(3)
    assert kernel_basis(Matrix.identity(3)) == Subspace.zero(3)


def test_kernel_of_row_vector():
    k = kernel_basis(Matrix.from_rows([[1, 1]]))
    assert k.dim == 1
    assert k.contains((1, -1))


def test_rank_nullity():
    rng = random.Random(5)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert m.rref()[2] + kernel_basis(m).dim == m.cols
        for col in kernel_basis(m).basis_columns():
            assert all(x == 0 for x in m.apply(col))


def test_image_cases():
    assert image_basis(Matrix.zero(3, 2)) == Subspace.zero(3)
    assert image_basis(Matrix.identity(4)) == Subspace.full(4)
    outer = Matrix.from_rows([[2, 4], [3, 6], [1, 2]])  # rank-one outer product
    im = image_basis(outer)
    assert im.dim == 1
    assert im.contains((2, 3, 1))


def test_canonical_form_is_unique():
    a = Subspace.from_columns([(1, 1, 0), (0, 1, 1)], 3)
    b = Subspace.from_columns([(1, 2, 1), (2, 3, 1)], 3)  # same span, other basis
    assert a == b
    assert a.basis == b.basis


def test_sum_intersection_trivia():
    a = Subspace.from_columns([(1, 0)], 2)
    assert subspace_sum(a, Subspace.zero(2)) == a
    assert subspace_intersection(a, Subspace.full(2)) == a
    b = Subspace.from_columns([(0, 1)], 2)
    assert subspace_sum(a, b) == Subspace.full(2)
    assert subspace_intersection(a, b) == Subspace.zero(2)


def test_dimension_formula_random():
    rng = random.Random(13)
    for _ in range(40):
        a = Subspace.from_columns(
            [tuple(Q(rng.randint(-4, 4)) for _ in range(8)) for _ in range(rng.randint(0, 5))], 8)
        b = Subspace.from_columns(
            [tuple(Q(rng.randint(-4, 4)) for _ in range(8)) for _ in range(rng.randint(0, 5))], 8)
        s = subspace_sum(a, b)
        i = subspace_intersection(a, b)
        assert a.dim + b.dim == s.dim + i.dim
        assert s.contains_subspace(a) and s.contains_subspace(b)
        assert a.contains_subspace(i) and b.contains_subspace(i)


def test_quotient_dim():
    plane = Subspace.full(2)
    line = Subspace.from_columns([(1, 1)], 2)
    assert quotient_dim(plane, plane) == 0
    assert quotient_dim(plane, line) == 1
    with pytest.raises(ContainmentError):
        quotient_dim(line, plane)


def test_quotient_requires_containment():
    a = Subspace.from_columns([(1, 0)], 2)
    b = Subspace.from_columns([(0, 1)], 2)
    with pytest.raises(ContainmentError):
        quotient_dim(a, b)


def test_preimage_of_zero_is_kernel():
    m = Matrix.from_rows([[1, 2, 3], [0, 1, 1]])
    assert preimage(m, Subspace.zero(2)) == kernel_basis(m)


def test_preimage_of_everything_is_domain():
    m = Matrix.from_rows([[1, 2, 3], [0, 1, 1]])
    assert preimage(m, Subspace.full(2)) == Subspace.full(3)
    assert preimage(Matrix.zero(0, 2), Subspace.zero(0)) == Subspace.full(2)


def test_preimage_matches_brute_force_membership():
    # rank 2 map Q^4 -> Q^3; the target line meets the image only in 0, the
    # plane meets it in a line
    m = Matrix.from_rows([[1, 0, 1, 2], [0, 1, 1, -1], [1, 1, 2, 1]])
    assert m.rank() == 2
    line = Subspace.from_columns([(1, 0, 0)], 3)
    plane = Subspace.from_columns([(1, 0, 1), (0, 0, 1)], 3)
    grid = [(a, b, c, d) for a in range(-2, 3) for b in range(-2, 3)
            for c in range(-2, 3) for d in range(-2, 3)]
    for target in (line, plane, image_basis(m)):
        got = preimage(m, target)
        meet = subspace_intersection(target, image_basis(m)).dim
        assert got.dim == kernel_basis(m).dim + meet
        for x in grid:
            assert got.contains(x) == target.contains(m.apply(x))


def test_extend_basis_deterministic():
    small = Subspace.from_columns([(1, 0, 0)], 3)
    big = Subspace.full(3)
    reps = extend_basis(small, big)
    assert reps == extend_basis(small, big)
    assert len(reps) == 2
    span = small
    for v in reps:
        span = subspace_sum(span, Subspace.from_columns([v], 3))
    assert span == big


def test_class_coordinates_roundtrip():
    rng = random.Random(17)
    denom = Subspace.from_columns([(1, 1, 0, 0), (0, 0, 1, 1)], 4)
    reps = [(1, 0, 0, 0), (0, 0, 1, 0)]
    for _ in range(20):
        cs = [Q(rng.randint(-3, 3)) for _ in range(2)]
        noise = denom.basis.apply((Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3))))
        v = tuple(cs[0] * a + cs[1] * b + n for a, b, n in zip(*reps, noise))
        assert list(class_coordinates(denom, reps, v)) == cs


def test_orthogonal_complement():
    s = Subspace.from_columns([(1, 1, 0)], 3)
    comp = orthogonal_complement(s)
    assert comp.dim == 2
    for v in comp.basis_columns():
        assert sum(a * b for a, b in zip(v, (1, 1, 0))) == 0


def test_map_subspace():
    m = Matrix.from_rows([[1, 0], [1, 0]])
    s = Subspace.full(2)
    assert map_subspace(m, s) == Subspace.from_columns([(1, 1)], 2)


def test_zero_matrices_are_shared_and_immutable():
    z = Matrix.zero(2, 3)
    assert Matrix.zero(2, 3) is z
    assert Matrix.zero(3, 2) is not z
    assert z == Matrix(2, 3, [[0, 0, 0], [0, 0, 0]])
    with pytest.raises(AttributeError):
        z.data = ((Q(1),) * 3,) * 2
    assert isinstance(z.data, tuple) and all(isinstance(row, tuple) for row in z.data)
    assert Matrix.zero(2, 3).is_zero()


def test_equal_subspaces_from_different_spanning_sets_hash_equal():
    a = Subspace.from_columns([(Q(1, 2), 0, Q(-3, 7)), (0, 5, 1), (1, 5, Q(1, 7))], 3)
    b = Subspace.from_columns([(7, 35, 1), (Q(-7, 3), 0, 2), (0, 0, 0)], 3)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != Subspace.from_columns([(7, 35, 1)], 3)


# ---------------------------------------------------------------------------
# the integer core against sympy

SMALL = st.integers(-6, 6)
RATIONALS = st.one_of(
    SMALL.map(Q),
    st.builds(Q, SMALL, st.integers(1, 4)),
    st.builds(Q, st.integers(-10**7, 10**7), st.integers(10**6 + 1, 10**9)))


@st.composite
def matrices(draw, max_rows=4, max_cols=4):
    """Rational matrices, 0xn and nx0 included, often rank-deficient (a product)."""
    rows, cols = draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols))

    def block(r, c):
        return Matrix(r, c, [[draw(RATIONALS) for _ in range(c)] for _ in range(r)])
    if draw(st.booleans()):
        return block(rows, cols)
    k = draw(st.integers(0, 3))
    return block(rows, k) * block(k, cols)


def _sym_rational(x):
    import sympy
    return sympy.Rational(x.numerator, x.denominator)


def _sym(m):
    import sympy
    return sympy.Matrix(m.rows, m.cols, [_sym_rational(x) for row in m.data for x in row])


def _sym_span(vectors):
    """sympy's canonical echelon basis (unit-pivot rows) of the span of column vectors."""
    import sympy
    if not vectors:
        return []
    red, pivots = sympy.Matrix.hstack(*vectors).T.rref()
    return [tuple(red.row(i)) for i in range(len(pivots))]


def _sym_kernel(sm):
    import sympy
    if sm.rows == 0:
        return [sympy.eye(sm.cols).col(j) for j in range(sm.cols)]
    return sm.nullspace()


def _ours(s):
    return [tuple(_sym_rational(x) for x in col) for col in s.basis_columns()]


@settings(max_examples=60, deadline=None)
@given(m=matrices(), t=matrices(), coeffs=st.lists(RATIONALS, min_size=4, max_size=4),
       probe=st.lists(RATIONALS, min_size=4, max_size=4))
def test_integer_core_matches_sympy(m, t, coeffs, probe):
    sympy = pytest.importorskip("sympy")
    sm = _sym(m)
    red, pivots, rank = rref(m)
    sred, spivots = sm.rref()
    assert _sym(red) == sred and pivots == tuple(spivots)
    assert rank == m.rank() == sm.rank()
    assert _ours(kernel_basis(m)) == _sym_span(_sym_kernel(sm))
    im = image_basis(m)
    assert _ours(im) == _sym_span([sm.col(j) for j in range(sm.cols)])

    # a second subspace of the codomain: t's columns cut or padded to length m.rows
    n = m.rows
    cols = [tuple(col[:n]) + (Q(0),) * (n - len(col)) for col in t.columns()]
    s = Subspace.from_columns(cols, n)
    assert _ours(s) == _sym_span([sympy.Matrix(n, 1, [_sym_rational(x) for x in col])
                                  for col in cols])
    s_cols = [sympy.Matrix(v) for v in _ours(s)]

    # preimage: the kernel of (rows annihilating s) * m
    if s_cols:
        ann = sympy.Matrix.hstack(*s_cols).T.nullspace()
    else:
        ann = [sympy.eye(n).col(j) for j in range(n)]
    cut = sympy.Matrix.hstack(*ann).T * sm if ann else sympy.zeros(0, m.cols)
    assert _ours(preimage(m, s)) == _sym_span(_sym_kernel(cut))

    # intersection with the image, through the kernel of [A | -B]
    im_cols = [sympy.Matrix(v) for v in _ours(im)]
    meet = []
    if im_cols and s_cols:
        stacked = sympy.Matrix.hstack(*im_cols, *[-b for b in s_cols])
        meet = [sympy.Matrix.hstack(*im_cols) * k[:len(im_cols), :]
                for k in stacked.nullspace()]
    assert _ours(subspace_intersection(im, s)) == _sym_span(meet)

    # membership and coordinates
    vec = tuple(probe[i % 4] for i in range(n))
    svec = sympy.Matrix(n, 1, [_sym_rational(x) for x in vec])
    inside = sympy.Matrix.hstack(*s_cols, svec).rank() == len(s_cols) if n else True
    assert s.contains(vec) == inside
    c = tuple(coeffs[j % 4] for j in range(s.dim))
    member = s.basis.apply(c)
    assert s.contains(member) and s.coordinates(member) == c
    if not inside:
        with pytest.raises(LinalgError):
            s.coordinates(vec)
