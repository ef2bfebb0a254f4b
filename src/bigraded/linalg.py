"""Dense exact linear algebra over Q and the subspace calculus built on it.

Values are exact integers and `fractions.Fraction`s, never floats.  The one
elimination routine, `_echelon`, is Gauss-Jordan elimination on primitive
integer rows (fraction-free in the sense of Bareiss, Math. Comp. 1968; Cohen,
*A Course in Computational Algebraic Number Theory*, §2.2).  `rref` adds the
division by the pivots, and `Matrix.rank` is its pivot count; the test suite
checks both against sympy.  A `Subspace` keeps its canonical echelon basis as
primitive integer rows with positive pivots, a unique form, so equality is
plain ``==`` and the subspace calculus stays in the integers.

`Matrix(rows, cols, data)` checks and converts parsed and user-built input;
results computed here, already tuples of `Fraction` tuples, go through the
trusted `Matrix._trusted`.  `Matrix.zero` is one shared instance per shape.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

Q = Fraction
_ZERO = Q(0)
_ONE = Q(1)

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
    "quotient_dim",
    "preimage",
    "extend_basis",
    "class_coordinates",
]


class LinalgError(ValueError):
    pass


class ContainmentError(LinalgError):
    """A quotient was requested for a pair that is not nested."""


def _set_fields(m, rows, cols, data):
    if len(data) != rows or (data and set(map(len, data)) != {cols}):
        raise LinalgError(f"shape mismatch: declared {rows}x{cols}")
    object.__setattr__(m, "rows", rows)
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "data", data)


_zeros = {}


class Matrix:
    """Immutable dense matrix over Q, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        _set_fields(self, rows, cols, tuple(
            tuple(x if type(x) is Q else Q(x) for x in row) for row in data))

    @classmethod
    def _trusted(cls, rows, cols, data):
        """A matrix over `data`, which must be a tuple of tuples of `Fraction`s."""
        m = object.__new__(cls)
        _set_fields(m, rows, cols, data)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, rows):
        rows = list(rows)
        if not rows:
            raise LinalgError("from_rows needs at least one row; use zero()")
        return cls(len(rows), len(rows[0]), rows)

    @classmethod
    def zero(cls, rows, cols):
        """The rows x cols zero matrix; one shared instance per shape."""
        m = _zeros.get((rows, cols))
        if m is None:
            m = _zeros[(rows, cols)] = cls._trusted(rows, cols, ((_ZERO,) * cols,) * rows)
        return m

    @classmethod
    def identity(cls, n):
        return cls._trusted(n, n, tuple(
            tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)))

    @classmethod
    def from_columns(cls, columns, rows):
        cols = len(columns)
        return cls(rows, cols, [[columns[j][i] for j in range(cols)] for i in range(rows)])

    def __eq__(self, other):
        return isinstance(other, Matrix) and (self.rows, self.cols, self.data) == (
            other.rows, other.cols, other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"Matrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def row(self, i):
        return self.data[i]

    def column(self, j):
        return tuple(row[j] for row in self.data)

    def columns(self):
        return list(zip(*self.data)) if self.rows else [()] * self.cols

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def transpose(self):
        return Matrix._trusted(self.cols, self.rows, tuple(self.columns()))

    def __neg__(self):
        return Matrix._trusted(self.rows, self.cols,
                               tuple(tuple(-x for x in row) for row in self.data))

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise LinalgError("matrix addition shape mismatch")
        return Matrix._trusted(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.data, other.data)))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Q(c)
        return Matrix._trusted(self.rows, self.cols,
                               tuple(tuple(c * x for x in row) for row in self.data))

    def __mul__(self, other):
        """Products of `Matrix`es run on cleared integer rows and columns."""
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise LinalgError(f"matmul shape mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}")
            cols = [_cleared(c) for c in other.columns()]
            return Matrix._trusted(self.rows, other.cols, tuple(
                tuple(_fraction(sum(map(mul, a, b)), da * db) for b, db in cols)
                for a, da in map(_cleared, self.data)))
        return self.scale(other)

    __rmul__ = scale

    def apply(self, vec):
        """Matrix times column vector (a tuple of Fractions)."""
        if len(vec) != self.cols:
            raise LinalgError("apply: vector length mismatch")
        b, db = _cleared(vec)
        return tuple(_fraction(sum(map(mul, a, b)), da * db)
                     for a, da in map(_cleared, self.data))

    def hstack(self, other):
        if self.rows != other.rows:
            raise LinalgError("hstack row mismatch")
        return Matrix._trusted(self.rows, self.cols + other.cols,
                               tuple(r1 + r2 for r1, r2 in zip(self.data, other.data)))

    def rref(self):
        """Reduced row-echelon form; returns (rref matrix, pivot columns, rank)."""
        return rref(self)

    def rank(self):
        """The pivot count of the integer echelon step."""
        return len(_echelon([_cleared(row)[0] for row in self.data], self.cols))

    def image(self):
        return image_basis(self)

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
        sol = [(_ZERO,) * rhs.cols] * self.cols
        for i, p in enumerate(pivots):
            sol[p] = red.data[i][self.cols:]
        return Matrix._trusted(self.cols, rhs.cols, tuple(sol))

    def inverse(self):
        """A x = 1 is solvable exactly when A is invertible."""
        if self.rows != self.cols:
            raise LinalgError("inverse of non-square matrix")
        sol = self.solve(Matrix.identity(self.rows))
        if sol is None:
            raise LinalgError("matrix is singular")
        return sol


def _cleared(row):
    """(D * row, D) for the least D > 0 making every entry of `row` an integer."""
    den = lcm(*{x.denominator for x in row})
    if den == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (den // x.denominator) for x in row], den


def _integer_rows(m: Matrix):
    """The rows of D*m for one D > 0 clearing all of m, so images and kernels are kept."""
    ints, _ = _cleared([x for row in m.data for x in row])
    return [ints[i * m.cols:(i + 1) * m.cols] for i in range(m.rows)]


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
    a = [_cleared(row)[0] for row in m.data]
    pivots = _echelon(a, m.cols)
    data = [_unit_row(a[i], p) for i, p in enumerate(pivots)]
    data += [(_ZERO,) * m.cols] * (m.rows - len(pivots))
    return Matrix._trusted(m.rows, m.cols, tuple(data)), tuple(pivots), len(pivots)


def _unit_row(row, pivot):
    """The integer row `row` divided by its entry at `pivot`, as Fractions."""
    return tuple(_fraction(x, row[pivot]) for x in row)


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
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "echelon", echelon)
        object.__setattr__(self, "pivot_rows", pivot_rows)
        object.__setattr__(self, "_basis", None)

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
        rng = range(ambient_dim)
        return cls(ambient_dim, tuple(tuple(int(i == j) for j in rng) for i in rng), tuple(rng))

    @property
    def dim(self):
        return len(self.pivot_rows)

    @property
    def basis(self):
        if self._basis is None:
            cols = [_unit_row(row, p) for row, p in zip(self.echelon, self.pivot_rows)]
            object.__setattr__(self, "_basis", Matrix._trusted(
                self.ambient_dim, len(cols), tuple(zip(*cols)) if cols
                else ((),) * self.ambient_dim))
        return self._basis

    def __eq__(self, other):
        return isinstance(other, Subspace) and (self.ambient_dim, self.echelon) == (
            other.ambient_dim, other.echelon)

    def __hash__(self):
        return hash((self.ambient_dim, self.echelon))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def basis_columns(self):
        return self.basis.columns() if self.pivot_rows else []

    def reduce(self, vec):
        """A positive integer multiple of `vec`'s residue against the echelon basis."""
        return _residue(zip(self.echelon, self.pivot_rows), _cleared(vec)[0])

    def contains(self, vec):
        return not any(self.reduce(vec))

    def contains_subspace(self, other):
        if other.ambient_dim != self.ambient_dim:
            raise LinalgError("ambient dimension mismatch")
        pairs = list(zip(self.echelon, self.pivot_rows))
        return other.dim <= self.dim and not any(
            any(_residue(pairs, row)) for row in other.echelon)

    def coordinates(self, vec):
        """Coordinates of `vec` in the unit-pivot basis; raises if not a member.

        That basis is zero at every other pivot row, so the coordinates are
        the entries of `vec` at the pivot rows.
        """
        if not self.contains(vec):
            raise LinalgError("vector not in subspace")
        return tuple(Q(vec[p]) for p in self.pivot_rows)


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


def kernel_basis(m: Matrix) -> Subspace:
    """Null space of `m` as a subspace of the domain Q^cols."""
    return _span(_kernel_vectors([_cleared(row)[0] for row in m.data], m.cols), m.cols)


def image_basis(m: Matrix) -> Subspace:
    """Column space of `m` as a subspace of the codomain Q^rows."""
    return Subspace.from_columns(m.columns(), m.rows)


def map_subspace(m: Matrix, s: Subspace) -> Subspace:
    """Image m(s) of a subspace under a linear map."""
    if m.cols != s.ambient_dim:
        raise LinalgError("map_subspace: domain mismatch")
    a = _integer_rows(m) if s.pivot_rows else ()
    return _span([[sum(map(mul, row, e)) for row in a] for e in s.echelon], m.rows)


def _pullback(s: Subspace, a, ncols):
    """Integer vectors spanning {x in Q^ncols : A x in s}, `a` holding A's rows.

    x lies in s iff its residue against the unit-pivot basis vanishes at
    every non-pivot row i: x_i - sum_j (e_j[i] / e_j[p_j]) x_{p_j} = 0.
    Those conditions, pulled back through A and cleared of denominators,
    cut out the result; None when they all vanish, so it is all of Q^ncols.
    """
    pivots = set(s.pivot_rows)
    conditions = []
    for i in range(s.ambient_dim):
        if i not in pivots:
            terms = [(row[i], row[p], a[p]) for row, p in zip(s.echelon, s.pivot_rows) if row[i]]
            scale = lcm(*[pv for _, pv, _ in terms])
            cond = [x * scale for x in a[i]]
            for e, pv, ap in terms:
                f = e * (scale // pv)
                cond = [x - f * y for x, y in zip(cond, ap)]
            if any(cond):
                conditions.append(cond)
    return _kernel_vectors(conditions, ncols) if conditions else None


def preimage(m: Matrix, s: Subspace) -> Subspace:
    """{x : m x in s}, as a subspace of the domain Q^cols."""
    if m.rows != s.ambient_dim:
        raise LinalgError("preimage: codomain mismatch")
    vectors = _pullback(s, _integer_rows(m), m.cols)
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
    coords = list(zip(*a.echelon))  # row i: the i-th entries of a's basis rows
    vectors = _pullback(b, coords, a.dim)
    if vectors is None:
        return a
    return _span([[sum(map(mul, row, c)) for row in coords] for c in vectors], n)


def quotient_dim(big: Subspace, small: Subspace) -> int:
    """dim(big/small); raises ContainmentError unless small is inside big.

    A containment failure here always signals a logic error upstream, so it
    is never clamped.
    """
    if big.ambient_dim != small.ambient_dim:
        raise LinalgError("quotient_dim: ambient dimension mismatch")
    if not big.contains_subspace(small):
        raise ContainmentError(
            f"quotient of non-nested pair (dims {big.dim} / {small.dim})")
    return big.dim - small.dim


def orthogonal_complement(s: Subspace, gram: Matrix | None = None) -> Subspace:
    """Vectors orthogonal to `s` for the bilinear form `gram` (identity default)."""
    rows = list(s.echelon)
    if gram is not None:
        g = list(zip(*_integer_rows(gram)))
        rows = [[sum(map(mul, e, col)) for col in g] for e in rows]
    return _span(_kernel_vectors(rows, s.ambient_dim), s.ambient_dim)


def extend_basis(small: Subspace, big: Subspace):
    """Vectors of `big`'s canonical basis extending `small` to a basis of `big`.

    Deterministic: `big`'s unit-pivot basis vectors are scanned in order and
    kept when they add rank.  The result lists representatives of a
    complement of `small` inside `big`.
    """
    if not big.contains_subspace(small):
        raise ContainmentError("extend_basis: small is not inside big")
    chosen = []
    span = list(zip(small.echelon, small.pivot_rows))
    for row, p in zip(big.echelon, big.pivot_rows):
        v = _residue(span, row)
        if any(v):
            chosen.append(_unit_row(row, p))
            span.append((v, next(i for i, x in enumerate(v) if x)))
    return chosen


def class_coordinates(denominator: Subspace, representatives, vec):
    """Coordinates of `vec`'s class in the given representative basis.

    Writes ``vec = d + sum_i c_i rep_i`` with ``d`` in the denominator and
    returns the tuple of c_i.  Raises if `vec` is not in the span, which
    signals an upstream logic error.  The c_i do not depend on the basis of
    the denominator, so its integer rows serve.
    """
    n = denominator.ambient_dim
    m = Matrix.from_columns(list(denominator.echelon) + list(representatives), n)
    sol = m.solve(Matrix.from_columns([tuple(vec)], n))
    if sol is None:
        raise LinalgError("class_coordinates: vector not in numerator span")
    return sol.column(0)[denominator.dim:]
