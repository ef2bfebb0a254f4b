"""Exact linear algebra: elimination oracles, subspace calculus, preimages."""

import random
from fractions import Fraction as Q

import pytest

from bigraded.linalg import (ContainmentError, Matrix, Subspace,
                             class_coordinates, extend_basis, image_basis,
                             kernel_basis, map_subspace, orthogonal_complement,
                             preimage, quotient_dim, rank_bareiss, rref,
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
    rng = random.Random(7)
    for _ in range(50):
        m = random_matrix(rng, 6, 6)
        _, _, rank = rref(m)
        assert rank == rank_bareiss(m)


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
