"""Dense exact linear algebra over Q and the subspace calculus built on it.

Values are exact integers and `fractions.Fraction`s, never floats.  The one
elimination routine, `_echelon`, is Gauss-Jordan elimination on primitive
integer rows (fraction-free in the sense of Bareiss, Math. Comp. 1968; Cohen,
*A Course in Computational Algebraic Number Theory*, §2.2).  `rref` adds the
division by the pivots, and `Matrix.rank` is its pivot count; the test suite
checks both against sympy.  A `Subspace` keeps its canonical echelon basis as
primitive integer rows with positive pivots, a unique form, so equality is
plain ``==`` and the subspace calculus stays in the integers.

A `Matrix` is `num`, a tuple of integer row tuples, over `den`, one positive
integer, in lowest terms.  That form is unique, so ``==`` and `hash` compare
plain int tuples.  Products, sums, `transpose`, `scale`, `select`, `hstack`,
`rank`, `rref`, `solve`, `inverse`, kernels, images, preimages and
`Subspace.basis` work on `num` and `den`, and build their results with
`_matrix`, the one internal constructor, which divides out a common factor;
every integer product of rows and vectors goes through `_dots`.

A `Matrix` is also the one vector type: a family of vectors is the matrix
whose columns they are, as `extend_basis` and `class_coordinates` return
them, so a product applies a map to all of them at once and one `solve`
finds all their coordinates.  `Fraction`s are made only at the boundary:
`Matrix(rows, cols, data)`, the checking constructor for parsed and
user-built entries (ints, `Fraction`s or strings), `Matrix.from_columns` and
`Subspace.from_columns` take them in, `data` (and with it `column` and
`columns`) is a view built on first use and kept, and `scale` takes a
non-integer factor.

`Matrix.zero` and `Matrix.identity` are one shared instance per shape.  A
product with the shared identity returns the other operand, and the identity
is its own `inverse`, so the identity Gram of every cell without an explicit
one costs no arithmetic in the adjoints, projections and transfer chains of
`hodge`, with no separate code path there.

The invariants are cut out of the same few kernels and images again and
again, so `kernel_basis`, `image_basis`, `map_subspace`, `preimage` and
`Matrix.inverse` share one bounded memo: a `functools.lru_cache` of
`_MEMO_SIZE` (256) entries, keyed by the function and its arguments.
`Matrix` and `Subspace` hash and compare by value, so equal arguments built
anywhere, from ints, `Fraction`s or strings, find one entry, and a key never
depends on object identity.  Results are immutable and shared; an exception,
such as `inverse` of a singular matrix, is never cached.  `Matrix.rank` and
`subspace_intersection` are not memoised: a hit, which hashes its arguments,
costs about as much as they do.  `_memo.cache_info()` counts hits and misses.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache, wraps
from itertools import chain
from math import gcd, lcm
from operator import add, mul

Q = Fraction
_ZERO = Q(0)

__all__ = [
    "Matrix",
    "Subspace",
    "LinalgError",
    "ContainmentError",
    "rref",
    "kernel_basis",
    "image_basis",
    "subspace_sum",
    "subspace_intersection",
    "preimage",
    "extend_basis",
    "class_coordinates",
]


class LinalgError(ValueError):
    pass


class ContainmentError(LinalgError):
    """A quotient was requested for a pair that is not nested."""


_MEMO_SIZE = 256


@lru_cache(maxsize=_MEMO_SIZE)
def _memo(fn, *args):
    """fn(*args), kept for the _MEMO_SIZE most recently used keys."""
    return fn(*args)


def _memoised(fn):
    """`fn` answered from the shared memo; `fn.__wrapped__` is the uncached function."""
    @wraps(fn)
    def cached(*args):
        return _memo(fn, *args)
    return cached


_put = object.__setattr__
_identities = {}


def _matrix(rows, cols, num, den=1):
    """num / den in lowest terms, from a tuple of `rows` tuples of `cols` ints and den > 0."""
    g = gcd(den, *chain.from_iterable(num)) if den != 1 else 1
    if g != 1:
        num, den = tuple(tuple(x // g for x in row) for row in num), den // g
    m = object.__new__(Matrix)
    _put(m, "rows", rows)
    _put(m, "cols", cols)
    _put(m, "num", num)
    _put(m, "den", den)
    return m


def _scaled(num, f):
    """The integer rows `num` times f."""
    return num if f == 1 else tuple(tuple(x * f for x in row) for row in num)


def _dots(xs, ys):
    """The integer products: row i is the dot product of xs[i] with each of `ys`."""
    return tuple(tuple(sum(map(mul, x, y)) for y in ys) for x in xs)


def _unit_pivot_columns(pairs, n):
    """The n x len(pairs) matrix of the (row, pivot) `pairs`' rows scaled to unit pivots."""
    if not pairs:
        return Matrix.zero(n, 0)
    den = lcm(*[row[p] for row, p in pairs])
    return _matrix(n, len(pairs), tuple(zip(*[row if row[p] == den else
                                              [x * (den // row[p]) for x in row]
                                              for row, p in pairs])), den)


class Matrix:
    """Immutable dense matrix over Q, row-major: the integer rows `num` over `den`."""

    __slots__ = ("rows", "cols", "num", "den", "_data")

    def __init__(self, rows, cols, data):
        data = [[x if type(x) is int or type(x) is Q else Q(x) for x in row] for row in data]
        if len(data) != rows or (data and set(map(len, data)) != {cols}):
            raise LinalgError(f"shape mismatch: declared {rows}x{cols}")
        den = lcm(*{x.denominator for row in data for x in row})
        _put(self, "rows", rows)
        _put(self, "cols", cols)
        _put(self, "num", tuple(tuple(x.numerator * (den // x.denominator) for x in row)
                                for row in data))
        _put(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, rows):
        rows = list(rows)
        if not rows:
            raise LinalgError("from_rows needs at least one row; use zero()")
        return cls(len(rows), len(rows[0]), rows)

    @staticmethod
    @cache
    def zero(rows, cols):
        """The rows x cols zero matrix; one shared instance per shape."""
        return _matrix(rows, cols, ((0,) * cols,) * rows)

    @classmethod
    def identity(cls, n):
        """The n x n identity; one shared instance per n, which products skip."""
        if n not in _identities:
            _identities[n] = _matrix(n, n, tuple(tuple(int(i == j) for j in range(n))
                                                 for i in range(n)))
        return _identities[n]

    @classmethod
    def from_columns(cls, columns, rows):
        return cls(len(columns), rows, columns).transpose()

    @classmethod
    def from_blocks(cls, rows, cols, blocks):
        """Zero but for each m of the disjoint (i, j, m) `blocks`, placed at row i, column j."""
        den = lcm(*[m.den for _, _, m in blocks])
        num = [[0] * cols for _ in range(rows)]
        for i, j, m in blocks:
            for k, row in enumerate(_scaled(m.num, den // m.den)):
                num[i + k][j:j + m.cols] = row
        return _matrix(rows, cols, tuple(map(tuple, num)), den)

    def __eq__(self, other):
        return isinstance(other, Matrix) and (self.rows, self.cols, self.den, self.num) == (
            other.rows, other.cols, other.den, other.num)

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, self.num))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"Matrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    @property
    def data(self):
        """The entries as tuples of `Fraction`s, built on first use and kept."""
        if not hasattr(self, "_data"):
            _put(self, "_data", tuple(tuple(_fraction(x, self.den) for x in row)
                                      for row in self.num))
        return self._data

    def column(self, j):
        return tuple(row[j] for row in self.data)

    def columns(self):
        return list(zip(*self.data)) or [()] * self.cols

    def is_zero(self):
        return not any(map(any, self.num))

    def transpose(self):
        return _matrix(self.cols, self.rows, tuple(zip(*self.num)) or ((),) * self.cols, self.den)

    def __neg__(self):
        return _matrix(self.rows, self.cols, _scaled(self.num, -1), self.den)

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise LinalgError("matrix addition shape mismatch")
        den = lcm(self.den, other.den)
        return _matrix(self.rows, self.cols, tuple(
            tuple(map(add, r1, r2)) for r1, r2 in zip(
                _scaled(self.num, den // self.den), _scaled(other.num, den // other.den))), den)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """self times the rational c; only a non-integer c is made a `Fraction`."""
        if type(c) is not int:
            c = Q(c)
            return _matrix(self.rows, self.cols, _scaled(self.num, c.numerator),
                           self.den * c.denominator)
        return _matrix(self.rows, self.cols, _scaled(self.num, c), self.den)

    def select(self, indices):
        """The columns at `indices`, in that order."""
        return _matrix(self.rows, len(indices), tuple(tuple(row[j] for j in indices)
                                                      for row in self.num), self.den)

    def __mul__(self, other):
        """Products run on `num`; a factor that is the shared identity is skipped."""
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise LinalgError(f"matmul shape mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}")
            if not (self.rows and self.cols and other.cols):
                return Matrix.zero(self.rows, other.cols)
            if self is _identities.get(self.rows):
                return other
            if other is _identities.get(other.rows):
                return self
            return _matrix(self.rows, other.cols, _dots(self.num, list(zip(*other.num))),
                           self.den * other.den)
        return self.scale(other)

    __rmul__ = scale

    def hstack(self, other):
        if self.rows != other.rows:
            raise LinalgError("hstack row mismatch")
        return Matrix.from_blocks(self.rows, self.cols + other.cols,
                                  [(0, 0, self), (0, self.cols, other)])

    def rank(self):
        """The pivot count of the integer echelon step."""
        return len(_echelon(list(self.num), self.cols))

    def solve(self, rhs):
        """One exact solution of self * x = rhs column-wise, or None if inconsistent.

        `rhs` is a Matrix whose columns are right-hand sides; free variables
        are set to zero, so the solution is deterministic.
        """
        if rhs.rows != self.rows:
            raise LinalgError("solve: rhs row mismatch")
        red, pivots, _ = rref(self.hstack(rhs))
        if pivots and pivots[-1] >= self.cols:
            return None
        sol = [(0,) * rhs.cols] * self.cols
        for i, p in enumerate(pivots):
            sol[p] = red.num[i][self.cols:]
        return _matrix(self.cols, rhs.cols, tuple(sol), red.den)

    @_memoised
    def inverse(self):
        """A x = 1 is solvable exactly when A is invertible; the identity is its own."""
        if self.rows != self.cols:
            raise LinalgError("inverse of non-square matrix")
        one = Matrix.identity(self.rows)
        sol = one if self == one else self.solve(one)
        if sol is None:
            raise LinalgError("matrix is singular")
        return sol


def _cleared(row):
    """(D * row, D) for the least D > 0 making every entry of `row` an integer."""
    den = lcm(*{x.denominator for x in row})
    return [x.numerator * (den // x.denominator) for x in row], den


def _fraction(num, den):
    """num / den for integers, sharing the zero `Fraction`."""
    if not num:
        return _ZERO
    return Q(num) if den == 1 else Q(num, den)


def _echelon(a, ncols):
    """Reduce the integer rows `a` to reduced row-echelon form; return the pivots.

    Pivoting is first-nonzero-in-column-order.  Afterwards the first
    len(pivots) rows of `a` are primitive, with a positive pivot entry and
    zeros in every other pivot column; they are the unique such basis of
    the row space, and the other rows are zero.  Rows are replaced in the
    list `a`, never changed in place, so tuples may be passed in.
    """
    nrows = len(a)
    pivots = []
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if a[i][c]:
                break
        else:
            continue
        pr = a[i]
        a[i] = a[r]
        g = gcd(*pr) if pr[c] > 0 else -gcd(*pr)
        if g != 1:
            pr = [x // g for x in pr]
        a[r] = pr
        pv = pr[c]
        for i in range(nrows):
            row = a[i]
            f = row[c]
            if f and i != r:
                new = [x * pv - y * f for x, y in zip(row, pr)]
                g = gcd(*new)
                a[i] = [v // g for v in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rref(m: Matrix):
    """Unique reduced row-echelon form of `m` with pivot columns and rank."""
    a = list(m.num)
    pivots = _echelon(a, m.cols)
    den = lcm(*[a[i][p] for i, p in enumerate(pivots)])
    num = [tuple(x * (den // a[i][p]) for x in a[i]) for i, p in enumerate(pivots)]
    num += [(0,) * m.cols] * (m.rows - len(pivots))
    return _matrix(m.rows, m.cols, tuple(num), den), tuple(pivots), len(pivots)


def _residue(rows, v):
    """A positive multiple of the residue of the integer vector `v`.

    `rows` lists (row, pivot) pairs, each row zero at the pivots of the
    rows before it; eliminating in that order clears every pivot.
    """
    for row, p in rows:
        c = v[p]
        if c:
            pv = row[p]
            v = [x * pv - c * y for x, y in zip(v, row)]
    return v


class Subspace:
    """A subspace of Q^n held as its canonical echelon basis.

    `echelon` holds dim rows of n integers: primitive, with a positive
    entry at the strictly increasing `pivot_rows` and zeros at every other
    pivot row.  It is the unique such basis, so ``a == b`` iff the subspaces
    are equal.  `basis` is the n x dim `Matrix` of those rows scaled to unit
    pivots, built on first use.
    """

    __slots__ = ("ambient_dim", "echelon", "pivot_rows", "_basis")

    def __init__(self, ambient_dim, echelon, pivot_rows):
        _put(self, "ambient_dim", ambient_dim)
        _put(self, "echelon", echelon)
        _put(self, "pivot_rows", pivot_rows)
        _put(self, "_basis", None)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_columns(cls, columns, ambient_dim):
        """Span of the given vectors (Fractions or ints)."""
        rows = [_cleared(c)[0] for c in columns]
        rows = [row for row in rows if any(row)]
        if any(len(row) != ambient_dim for row in rows):
            raise LinalgError("from_columns: vector length != ambient dimension")
        return _span(rows, ambient_dim)

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim):
        return cls(ambient_dim, Matrix.identity(ambient_dim).num, tuple(range(ambient_dim)))

    @property
    def dim(self):
        return len(self.pivot_rows)

    @property
    def basis(self):
        if self._basis is None:
            _put(self, "_basis", _unit_pivot_columns(list(zip(self.echelon, self.pivot_rows)),
                                                     self.ambient_dim))
        return self._basis

    def __eq__(self, other):
        return isinstance(other, Subspace) and (self.ambient_dim, self.echelon) == (
            other.ambient_dim, other.echelon)

    def __hash__(self):
        return hash((self.ambient_dim, self.echelon))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def contains(self, vec):
        return not any(_residue(zip(self.echelon, self.pivot_rows), _cleared(vec)[0]))

    def contains_subspace(self, other):
        if other.ambient_dim != self.ambient_dim:
            raise LinalgError("ambient dimension mismatch")
        pairs = list(zip(self.echelon, self.pivot_rows))
        return other.dim <= self.dim and not any(
            any(_residue(pairs, row)) for row in other.echelon)


def _span(rows, n) -> Subspace:
    """Span of the integer rows `rows`, each of length n."""
    if not rows:
        return Subspace.zero(n)
    pivots = _echelon(rows, n)
    return Subspace(n, tuple(tuple(row) for row in rows[:len(pivots)]), tuple(pivots))


def _kernel_vectors(a, ncols):
    """Integer vectors spanning the null space of the integer rows `a`.

    One per free column f: L at f and -a_i[f] * L / a_i[p_i] at each pivot p_i.
    """
    pivots = _echelon(a, ncols)
    vectors = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        used = [(i, p) for i, p in enumerate(pivots) if a[i][f]]
        scale = lcm(*[a[i][p] for i, p in used])
        v = [0] * ncols
        v[f] = scale
        for i, p in used:
            v[p] = -a[i][f] * (scale // a[i][p])
        vectors.append(v)
    return vectors


@_memoised
def kernel_basis(m: Matrix) -> Subspace:
    """Null space of `m` as a subspace of the domain Q^cols."""
    return _span(_kernel_vectors(list(m.num), m.cols), m.cols)


@_memoised
def image_basis(m: Matrix) -> Subspace:
    """Column space of `m` as a subspace of the codomain Q^rows."""
    return _span([col for col in zip(*m.num) if any(col)], m.rows)


@_memoised
def map_subspace(m: Matrix, s: Subspace) -> Subspace:
    """Image m(s) of a subspace under a linear map."""
    if m.cols != s.ambient_dim:
        raise LinalgError("map_subspace: domain mismatch")
    return _span(list(_dots(s.echelon, m.num)), m.rows)


def _pullback(s: Subspace, columns, ncols):
    """Integer vectors spanning {x in Q^ncols : A x in s}, `columns` holding A's columns.

    y lies in s iff its residue against the unit-pivot basis vanishes at
    every non-pivot row i: y_i - sum_j (e_j[i] / e_j[p_j]) y_{p_j} = 0.
    Those conditions, cleared of denominators and pulled back through A,
    cut out the result; None when they all vanish, so it is all of Q^ncols.
    """
    pivots = set(s.pivot_rows)
    weights = []
    for i in range(s.ambient_dim):
        if i not in pivots:
            terms = [(row[i], row[p], p) for row, p in zip(s.echelon, s.pivot_rows) if row[i]]
            w = [0] * s.ambient_dim
            w[i] = scale = lcm(*[pv for _, pv, _ in terms])
            for e, pv, p in terms:
                w[p] = -e * (scale // pv)
            weights.append(w)
    conditions = [cond for cond in _dots(weights, columns) if any(cond)]
    return _kernel_vectors(conditions, ncols) if conditions else None


@_memoised
def preimage(m: Matrix, s: Subspace) -> Subspace:
    """{x : m x in s}, as a subspace of the domain Q^cols."""
    if m.rows != s.ambient_dim:
        raise LinalgError("preimage: codomain mismatch")
    vectors = _pullback(s, list(zip(*m.num)), m.cols)
    return Subspace.full(m.cols) if vectors is None else _span(vectors, m.cols)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise LinalgError("subspace_sum: ambient dimension mismatch")
    if not b.pivot_rows or a.dim == a.ambient_dim:
        return a
    if not a.pivot_rows or b.dim == b.ambient_dim:
        return b
    return _span(list(a.echelon + b.echelon), a.ambient_dim)


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Largest subspace contained in both: the combinations of a's basis lying in b."""
    if a.ambient_dim != b.ambient_dim:
        raise LinalgError("subspace_intersection: ambient dimension mismatch")
    n = a.ambient_dim
    if a.dim == 0 or b.dim == n:
        return a
    if b.dim == 0 or a.dim == n:
        return b
    # the map from coefficients to combinations has a's basis rows as its columns
    vectors = _pullback(b, a.echelon, a.dim)
    if vectors is None:
        return a
    return _span(list(_dots(vectors, list(zip(*a.echelon)))), n)


def extend_basis(small: Subspace, big: Subspace) -> Matrix:
    """Columns of `big`'s unit-pivot basis extending `small` to a basis of `big`.

    Deterministic: all of `big`'s basis vectors are scanned in order and
    kept when they add rank.  The scan keeps dim(small + big) - dim small of
    them, which is k = dim big - dim small exactly when `small` lies inside
    `big`; keeping more raises ContainmentError, so this scan is the one
    nesting check of every quotient.  The n x k result holds representatives
    of a complement of `small` inside `big`, and its column count is the
    dimension of the quotient.
    """
    if big.ambient_dim != small.ambient_dim:
        raise LinalgError("extend_basis: ambient dimension mismatch")
    chosen = []
    span = list(zip(small.echelon, small.pivot_rows))
    for row, p in zip(big.echelon, big.pivot_rows):
        v = _residue(span, row)
        if any(v):
            chosen.append((row, p))
            span.append((v, next(i for i, x in enumerate(v) if x)))
    if len(chosen) > big.dim - small.dim:
        raise ContainmentError(f"quotient of non-nested pair (dims {big.dim} / {small.dim})")
    return _unit_pivot_columns(chosen, big.ambient_dim)


def class_coordinates(denominator: Subspace, reps: Matrix, vectors: Matrix) -> Matrix:
    """Coordinates of the classes of `vectors`' columns in the basis of `reps`' columns.

    Writes each column v as ``d + reps x`` with ``d`` in the denominator and
    returns the matrix whose columns are the x, from one `solve`.  Raises if
    a column is not in the span, which signals an upstream logic error.  The
    x do not depend on the basis of the denominator, so its integer rows
    serve.
    """
    d = denominator.dim
    rows = _matrix(d, denominator.ambient_dim, denominator.echelon).transpose()
    sol = rows.hstack(reps).solve(vectors)
    if sol is None:
        raise LinalgError("class_coordinates: vector not in numerator span")
    return _matrix(reps.cols, vectors.cols, sol.num[d:], sol.den)
