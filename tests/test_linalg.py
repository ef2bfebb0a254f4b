"""Exact linear algebra: elimination oracles, subspace calculus, preimages."""

import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from bigraded import linalg
from bigraded.linalg import (ContainmentError, LinalgError, Matrix, Subspace,
                             class_coordinates, extend_basis, image_basis,
                             kernel_basis, map_subspace, preimage, rref,
                             subspace_intersection, subspace_sum)


def random_matrix(rng, rows, cols, span=5, denoms=False):
    def entry():
        if denoms:
            return Q(rng.randint(-span, span), rng.randint(1, 3))
        return Q(rng.randint(-span, span))
    return Matrix(rows, cols, [[entry() for _ in range(cols)] for _ in range(rows)])


def as_column(vec):
    """The vector `vec` as a one-column matrix."""
    return Matrix.from_columns([tuple(vec)], len(vec))


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
        assert rref(m)[2] == sm.rank()


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
        assert rref(m)[2] + kernel_basis(m).dim == m.cols
        assert (m * kernel_basis(m).basis).is_zero()


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


def test_extend_basis_counts_the_quotient():
    plane = Subspace.full(2)
    line = Subspace.from_columns([(1, 1)], 2)
    assert extend_basis(plane, plane).cols == 0
    assert extend_basis(line, plane).cols == 1
    with pytest.raises(ContainmentError):
        extend_basis(plane, line)


def test_equal_dimensions_that_are_not_nested_raise():
    # equal subspaces skip the scan; equal dimensions alone must not
    a = Subspace.from_columns([(1, 0, 0), (0, 1, 1)], 3)
    b = Subspace.from_columns([(1, 0, 0), (0, 1, 0)], 3)
    assert extend_basis(a, a) == Matrix.zero(3, 0)
    for small, big in ((a, b), (b, a)):
        with pytest.raises(ContainmentError, match=r"non-nested pair \(dims 2 / 2\)"):
            extend_basis(small, big)


def test_quotient_requires_containment():
    a = Subspace.from_columns([(1, 0)], 2)
    b = Subspace.from_columns([(0, 1)], 2)
    with pytest.raises(ContainmentError):
        extend_basis(b, a)
    with pytest.raises(LinalgError, match="ambient dimension mismatch") as info:
        extend_basis(Subspace.zero(3), a)
    assert not isinstance(info.value, ContainmentError)


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
            assert got.contains(x) == target.contains((m * as_column(x)).column(0))


def test_extend_basis_deterministic():
    small = Subspace.from_columns([(1, 0, 0)], 3)
    big = Subspace.full(3)
    reps = extend_basis(small, big)
    assert reps == extend_basis(small, big)
    assert (reps.rows, reps.cols) == (3, 2)
    assert reps.columns() == [(0, 1, 0), (0, 0, 1)]
    assert subspace_sum(small, image_basis(reps)) == big


def test_class_coordinates_roundtrip():
    rng = random.Random(17)
    denom = Subspace.from_columns([(1, 1, 0, 0), (0, 0, 1, 1)], 4)
    reps = Matrix.from_columns([(1, 0, 0, 0), (0, 0, 1, 0)], 4)
    coords, noise = [], []
    for _ in range(20):
        coords.append([Q(rng.randint(-3, 3)) for _ in range(2)])
        noise.append((Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3))))
        v = reps * as_column(coords[-1]) + denom.basis * as_column(noise[-1])
        assert list(class_coordinates(denom, reps, v).column(0)) == coords[-1]
    # all twenty columns in one call
    vectors = reps * Matrix.from_columns(coords, 2) + denom.basis * Matrix.from_columns(noise, 2)
    assert class_coordinates(denom, reps, vectors) == Matrix.from_columns(coords, 2)


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
def shaped(draw, rows, cols):
    """A rows x cols rational matrix, often rank-deficient (a product)."""
    def block(r, c):
        return Matrix(r, c, [[draw(RATIONALS) for _ in range(c)] for _ in range(r)])
    if draw(st.booleans()):
        return block(rows, cols)
    k = draw(st.integers(0, 3))
    return block(rows, k) * block(k, cols)


@st.composite
def sparse(draw, rows, cols):
    """A rows x cols rational matrix with few nonzero entries.

    Identity-like (a scaled identity, cut to the shape), a signed partial
    permutation, one nonzero entry per row, or a dense block whose other
    rows and columns are zero.
    """
    entries = [[Q(0)] * cols for _ in range(rows)]
    kind = draw(st.sampled_from(["identity", "permutation", "one-per-row", "empty-lines"]))
    if kind == "identity":
        c = draw(RATIONALS)
        for i in range(min(rows, cols)):
            entries[i][i] = c
    elif kind == "permutation":
        perm = draw(st.permutations(range(max(rows, cols))))
        for i in range(rows):
            if perm[i] < cols:
                entries[i][perm[i]] = draw(st.sampled_from([Q(1), Q(-1)]))
    elif kind == "one-per-row" and cols:
        for i in range(rows):
            entries[i][draw(st.integers(0, cols - 1))] = draw(RATIONALS)
    elif kind == "empty-lines":
        live_rows = draw(st.sets(st.integers(0, rows - 1))) if rows else set()
        live_cols = draw(st.sets(st.integers(0, cols - 1))) if cols else set()
        for i in live_rows:
            for j in live_cols:
                entries[i][j] = draw(RATIONALS)
    return Matrix(rows, cols, entries)


def dense_or_sparse(rows, cols):
    return st.one_of(shaped(rows, cols), sparse(rows, cols))


@st.composite
def matrices(draw, max_rows=4, max_cols=4):
    """Rational matrices, 0xn and nx0 included, often rank-deficient or sparse."""
    return draw(dense_or_sparse(draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols))))


def _reference_extend_basis(small, big):
    """The `Fraction` vectors of `big`'s unit-pivot basis that add rank to `small`, in order."""
    chosen = []
    span = list(zip(small.echelon, small.pivot_rows))
    for row, p in zip(big.echelon, big.pivot_rows):
        v = linalg._residue(span, row)
        if any(v):
            chosen.append(tuple(Q(x, row[p]) for x in row))
            span.append((v, next(i for i, x in enumerate(v) if x)))
    return chosen


def _reference_class_coordinates(denominator, representatives, vec):
    """The coordinates of one vector's class, solved alone over `Fraction` columns."""
    n = denominator.ambient_dim
    m = Matrix.from_columns(list(denominator.echelon) + list(representatives), n)
    sol = m.solve(Matrix.from_columns([tuple(vec)], n))
    if sol is None:
        raise LinalgError("class_coordinates: vector not in numerator span")
    return sol.column(0)[denominator.dim:]


@st.composite
def nested(draw):
    """(small, big): a subspace of Q^n, n <= 5, and a subspace of it."""
    n = draw(st.integers(0, 5))
    big = image_basis(draw(shaped(n, draw(st.integers(0, 5)))))
    small = image_basis(big.basis * draw(shaped(big.dim, draw(st.integers(0, 4)))))
    return small, big


@settings(max_examples=60, deadline=None)
@given(pair=nested())
def test_extend_basis_is_the_unit_pivot_completion(pair):
    small, big = pair
    reps = extend_basis(small, big)
    assert (reps.rows, reps.cols) == (big.ambient_dim, big.dim - small.dim)
    assert reps.columns() == _reference_extend_basis(small, big)
    assert subspace_sum(small, image_basis(reps)) == big


@st.composite
def subspace_pairs(draw):
    """(a, b): two subspaces of one Q^n, n <= 5, often but not always nested."""
    if draw(st.booleans()):
        return draw(nested())
    n = draw(st.integers(0, 5))
    return tuple(image_basis(draw(shaped(n, draw(st.integers(0, 4))))) for _ in "ab")


@settings(max_examples=80, deadline=None)
@given(pair=subspace_pairs())
def test_extend_basis_raises_exactly_for_a_non_nested_pair(pair):
    a, b = pair
    if not b.contains_subspace(a):
        with pytest.raises(ContainmentError):
            extend_basis(a, b)
        return
    reps = extend_basis(a, b)
    assert reps.cols == b.dim - a.dim
    assert subspace_sum(a, image_basis(reps)) == b


@settings(max_examples=60, deadline=None)
@given(pair=nested(), data=st.data())
def test_class_coordinates_solve_every_column_at_once(pair, data):
    small, big = pair
    reps = extend_basis(small, big)
    vectors = big.basis * data.draw(shaped(big.dim, data.draw(st.integers(0, 4))))
    x = class_coordinates(small, reps, vectors)
    assert (x.rows, x.cols) == (reps.cols, vectors.cols)
    for j, rest in enumerate((vectors - reps * x).columns()):
        assert small.contains(rest)
        assert x.column(j) == _reference_class_coordinates(small, reps.columns(),
                                                           vectors.column(j))


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
    return [tuple(_sym_rational(x) for x in col) for col in s.basis.columns()]


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
    member = s.basis * Matrix.from_columns([c], s.dim)
    assert s.contains(member.column(0))
    assert class_coordinates(Subspace.zero(n), s.basis, member).column(0) == c
    if not inside:
        with pytest.raises(LinalgError):
            class_coordinates(Subspace.zero(n), s.basis, as_column(vec))


# ---------------------------------------------------------------------------
# the shared memo


def _memoised_calls(m, t):
    """(memoised primitive, arguments) for each memoised primitive on m.

    t's columns, cut or padded, span a subspace of m's domain and one of its
    codomain.
    """
    def span_in(n):
        return Subspace.from_columns(
            [tuple(col[:n]) + (Q(0),) * (n - len(col)) for col in t.columns()], n)
    return [(kernel_basis, (m,)), (image_basis, (m,)), (map_subspace, (m, span_in(m.cols))),
            (preimage, (m, span_in(m.rows))), (Matrix.inverse, (m,))]


def _outcome(fn, args):
    try:
        return fn(*args)
    except LinalgError as exc:  # inverse of a singular or non-square matrix
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(m=matrices(), t=matrices())
def test_memoised_primitives_equal_their_uncached_computation(m, t):
    calls = _memoised_calls(m, t)
    for _ in range(2):  # a miss, then a hit
        for fn, args in calls:
            assert _outcome(fn, args) == _outcome(fn.__wrapped__, args)
    for i in range(linalg._MEMO_SIZE + 1):  # distinct keys evict every entry
        kernel_basis(Matrix(1, 2, [[1, i]]))
    assert linalg._memo.cache_info().currsize == linalg._MEMO_SIZE
    for fn, args in calls:
        assert _outcome(fn, args) == _outcome(fn.__wrapped__, args)


def test_equal_matrices_share_one_memo_entry():
    from_ints = Matrix(2, 3, [[1, 2, 3], [2, 4, 6]])
    built = [
        from_ints,
        Matrix(2, 3, [[Q(1), Q(4, 2), Q(3)], [Q(2), Q(4), Q(12, 2)]]),
        Matrix(2, 3, [["1", "2", "6/2"], [" 2", "4/1", "12/2"]]),
        Matrix(2, 1, [[Q(1, 3)], [Q(2, 3)]]) * Matrix(1, 3, [[3, 6, 9]]),
        Matrix(2, 3, [["1/2", 1, "3/2"], [1, 2, 3]]).scale(2) - Matrix(2, 3, [[0] * 3, [1, 2, 3]]).scale(0),
    ]
    for m in built:
        assert m == from_ints and hash(m) == hash(from_ints)
        assert (m.num, m.den) == (((1, 2, 3), (2, 4, 6)), 1)
    assert len({id(m) for m in built}) == len(built)
    linalg._memo.cache_clear()
    assert len({id(kernel_basis(m)) for m in built}) == 1
    info = linalg._memo.cache_info()
    assert (info.misses, info.hits) == (1, len(built) - 1)


def test_rational_matrices_keep_one_lowest_denominator():
    halves = Matrix(1, 3, [["1/2", "-3/4", 0]])
    assert (halves.num, halves.den) == (((2, -3, 0),), 4)
    assert halves == Matrix(1, 3, [[Q(2, 4), Q(-6, 8), Q(0, 5)]])
    assert halves.data == ((Q(1, 2), Q(-3, 4), Q(0)),)
    assert halves.scale(4) == Matrix(1, 3, [[2, -3, 0]]) and halves.scale(4).den == 1
    assert (halves - halves).den == 1 and (halves - halves) == Matrix.zero(1, 3)


def test_identity_is_shared_and_skipped_by_products():
    one = Matrix.identity(3)
    assert Matrix.identity(3) is one and one.inverse() is one
    m = Matrix(3, 2, [["1/2", 0], [1, "-2/3"], [4, 5]])
    t = m.transpose()
    assert one * m is m and t * one is t
    built = Matrix(3, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert built == one and built is not one
    assert built * m == m and t * built == t
    assert built.inverse() == one


def _ref(m):
    """`m` as a list of lists of `Fraction`s."""
    return [list(row) for row in m.data]


def _ref_mul(a, b, inner, cols):
    return [[sum((row[k] * b[k][j] for k in range(inner)), Q(0)) for j in range(cols)]
            for row in a]


def _ref_rref(a, ncols):
    """Gauss-Jordan elimination over `Fraction`s: (reduced rows, pivot columns)."""
    a = [list(row) for row in a]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(a)) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def _ref_solve(a, b, ncols, rhs_cols):
    """One solution of a x = b with free variables zero, or None."""
    red, pivots = _ref_rref([ra + rb for ra, rb in zip(a, b)], ncols + rhs_cols)
    if pivots and pivots[-1] >= ncols:
        return None
    sol = [[Q(0)] * rhs_cols for _ in range(ncols)]
    for i, p in enumerate(pivots):
        sol[p] = red[i][ncols:]
    return sol


def _assert_canonical(m):
    """Integer rows of the declared shape over a positive denominator, in lowest terms."""
    assert len(m.num) == m.rows and all(len(row) == m.cols for row in m.num)
    assert all(type(x) is int for row in m.num for x in row)
    assert type(m.den) is int and m.den > 0
    assert math.gcd(m.den, *[x for row in m.num for x in row]) == 1
    assert Matrix(m.rows, m.cols, m.data) == m


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_matrix_operations_match_a_fraction_reference(data):
    sympy = pytest.importorskip("sympy")
    r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
    m, u, t = (data.draw(dense_or_sparse(*shape)) for shape in ((r, k), (r, k), (k, c)))
    square, rhs = data.draw(dense_or_sparse(r, r)), data.draw(dense_or_sparse(r, c))
    s = data.draw(RATIONALS)
    vec = tuple(data.draw(RATIONALS) for _ in range(k))
    a, b = _ref(m), _ref(u)
    expected = [
        (m * t, _ref_mul(a, _ref(t), k, c)),
        (m + u, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]),
        (m - u, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]),
        (-m, [[-x for x in row] for row in a]),
        (m.scale(s), [[s * x for x in row] for row in a]),
        (s * m, [[s * x for x in row] for row in a]),
        (m.transpose(), [[a[i][j] for i in range(r)] for j in range(k)]),
        (m.hstack(u), [ra + rb for ra, rb in zip(a, b)]),
        (m.scale(-3), [[-3 * x for x in row] for row in a]),
        (m.select(list(range(k))[::-1]), [row[::-1] for row in a]),
        (m * Matrix.from_columns([vec], k), [[sum((x * y for x, y in zip(row, vec)), Q(0))]
                                             for row in a]),
    ]
    for got, want in expected:
        _assert_canonical(got)
        assert _ref(got) == want

    red, pivots, rank = rref(m)
    want_red, want_pivots = _ref_rref(a, k)
    _assert_canonical(red)
    assert _ref(red) == want_red and pivots == tuple(want_pivots)
    assert rank == m.rank() == len(want_pivots) == _sym(m).rank()

    sol = m.solve(rhs)
    want_sol = _ref_solve(a, _ref(rhs), k, c)
    assert (sol is None) == (want_sol is None)
    if sol is not None:
        _assert_canonical(sol)
        assert _ref(sol) == want_sol and m * sol == rhs

    want_inv = _ref_solve(_ref(square), _ref(Matrix.identity(r)), r, r)
    if want_inv is None:
        with pytest.raises(LinalgError, match="singular"):
            square.inverse()
    else:
        inv = square.inverse()
        _assert_canonical(inv)
        assert _ref(inv) == want_inv and square * inv == Matrix.identity(r)
    for sub in (kernel_basis(m), image_basis(m)):
        _assert_canonical(sub.basis)
    assert map_subspace(m, image_basis(t)) == image_basis(m * t)


def test_singular_inverse_raises_on_every_call():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    linalg._memo.cache_clear()
    for _ in range(2):
        with pytest.raises(LinalgError, match="singular"):
            m.inverse()
    info = linalg._memo.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 0, 0)
