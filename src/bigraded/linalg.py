"""Dense exact linear algebra over Q and the subspace calculus built on it.

Matrices hold `fractions.Fraction` entries and are immutable after
construction.  Subspaces are stored through a canonical column-reduced
echelon basis, so two equal subspaces always carry bit-identical bases and
subspace equality is plain ``==``.

Two elimination routines coexist: full rational RREF for anything that needs
canonical bases, and fraction-free Bareiss elimination over the integers for
rank-only queries (`Matrix.rank`).  The test suite checks ranks against
sympy, its independent oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Q = Fraction

__all__ = [
    "Matrix",
    "Subspace",
    "LinalgError",
    "ContainmentError",
    "rref",
    "rank_bareiss",
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


def _as_fraction_rows(rows):
    return tuple(
        tuple(x if type(x) is Q else Q(x) for x in row) for row in rows)


class Matrix:
    """Immutable dense matrix over Q, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        data = _as_fraction_rows(data)
        if len(data) != rows or any(len(r) != cols for r in data):
            raise LinalgError(f"shape mismatch: declared {rows}x{cols}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

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
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns, rows):
        cols = len(columns)
        return cls(rows, cols, [[columns[j][i] for j in range(cols)] for i in range(rows)])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"Matrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def entry(self, i, j):
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def column(self, j):
        return tuple(self.data[i][j] for i in range(self.rows))

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def transpose(self):
        return Matrix(self.cols, self.rows,
                      [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def __neg__(self):
        return Matrix(self.rows, self.cols, [[-x for x in row] for row in self.data])

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise LinalgError("matrix addition shape mismatch")
        return Matrix(self.rows, self.cols,
                      [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Q(c)
        return Matrix(self.rows, self.cols, [[c * x for x in row] for row in self.data])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise LinalgError(f"matmul shape mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}")
            ot = other.transpose().data
            return Matrix(self.rows, other.cols,
                          [[_dot(r, c) for c in ot] for r in self.data])
        return self.scale(other)

    __rmul__ = scale

    def apply(self, vec):
        """Matrix times column vector (a tuple of Fractions)."""
        if len(vec) != self.cols:
            raise LinalgError("apply: vector length mismatch")
        return tuple(_dot(row, vec) for row in self.data)

    def hstack(self, other):
        if self.rows != other.rows:
            raise LinalgError("hstack row mismatch")
        return Matrix(self.rows, self.cols + other.cols,
                      [r1 + r2 for r1, r2 in zip(self.data, other.data)])

    def vstack(self, other):
        if self.cols != other.cols:
            raise LinalgError("vstack column mismatch")
        return Matrix(self.rows + other.rows, self.cols, self.data + other.data)

    def rref(self):
        """Reduced row-echelon form; returns (rref matrix, pivot columns, rank)."""
        return rref(self)

    def rank(self):
        """Rank by fraction-free Bareiss elimination on the cleared integer matrix."""
        return rank_bareiss(self)

    def kernel(self):
        return kernel_basis(self)

    def image(self):
        return image_basis(self)

    def solve(self, rhs):
        """One exact solution of self * x = rhs column-wise, or None if inconsistent.

        `rhs` is a Matrix whose columns are right-hand sides; free variables
        are set to zero, so the solution is deterministic.
        """
        if rhs.rows != self.rows:
            raise LinalgError("solve: rhs row mismatch")
        aug = self.hstack(rhs)
        red, pivots, _ = rref(aug)
        for p in pivots:
            if p >= self.cols:
                return None
        sol = [[Q(0)] * rhs.cols for _ in range(self.cols)]
        for i, p in enumerate(pivots):
            for j in range(rhs.cols):
                sol[p][j] = red.data[i][self.cols + j]
        return Matrix(self.cols, rhs.cols, sol)

    def inverse(self):
        if self.rows != self.cols:
            raise LinalgError("inverse of non-square matrix")
        red, pivots, rk = rref(self.hstack(Matrix.identity(self.rows)))
        if rk < self.rows or any(p >= self.rows for p in pivots):
            raise LinalgError("matrix is singular")
        return Matrix(self.rows, self.rows,
                      [row[self.rows:] for row in red.data])


def _dot(u, v):
    s = Q(0)
    for a, b in zip(u, v):
        if a and b:
            s += a * b
    return s


def _integer_rows(m: Matrix):
    """Rows scaled to coprime integers; sound wherever row scaling is harmless."""
    out = []
    for row in m.data:
        den = 1
        for x in row:
            d = x.denominator
            if d != 1:
                den = den * d // gcd(den, d)
        if den == 1:
            ints = [x.numerator for x in row]
        else:
            ints = [x.numerator * (den // x.denominator) for x in row]
        g = 0
        for v in ints:
            if v:
                g = gcd(g, v)
                if g == 1:
                    break
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def rref(m: Matrix):
    """Unique reduced row-echelon form of `m` with pivot columns and rank.

    Pivoting is first-nonzero-in-column-order; with exact arithmetic no
    numerical pivot selection is needed and the output is deterministic.
    The elimination runs on scaled integer rows (RREF is invariant under row
    scaling); pivots are normalised to 1 at the end.
    """
    nrows, ncols = m.rows, m.cols
    a = _integer_rows(m)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if a[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        pr = a[r]
        pv = pr[c]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                new = [x * pv - y * f for x, y in zip(a[i], pr)]
                g = 0
                for v in new:
                    if v:
                        g = gcd(g, v)
                        if g == 1:
                            break
                if g > 1:
                    new = [v // g for v in new]
                a[i] = new
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    zero = Q(0)
    data = []
    for i in range(nrows):
        if i < r:
            pv = a[i][pivots[i]]
            data.append(tuple(Q(x, pv) for x in a[i]))
        else:
            data.append((zero,) * ncols)
    out = Matrix.__new__(Matrix)
    object.__setattr__(out, "rows", nrows)
    object.__setattr__(out, "cols", ncols)
    object.__setattr__(out, "data", tuple(data))
    return out, tuple(pivots), r


def rank_bareiss(m: Matrix):
    """Rank via fraction-free Bareiss elimination.

    Rows are cleared to integers first, so all intermediate quantities are
    integers and divisions are exact.
    """
    a = []
    for row in m.data:
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        a.append([int(x * den) for x in row])
    nrows, ncols = m.rows, m.cols
    rank = 0
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if a[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


class Subspace:
    """A subspace of Q^n held as a canonical column-reduced echelon basis.

    The basis matrix is n x dim with unit leading entries in strictly
    increasing pivot rows, fully reduced; it is the unique such basis, so
    ``a == b`` iff the subspaces are equal.
    """

    __slots__ = ("ambient_dim", "basis", "pivot_rows")

    def __init__(self, ambient_dim, basis, pivot_rows):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivot_rows", pivot_rows)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_columns(cls, columns, ambient_dim):
        """Span of the given vectors, canonicalised through RREF of the transpose."""
        cleaned = [c for c in columns if any(x != 0 for x in c)]
        for c in cleaned:
            if len(c) != ambient_dim:
                raise LinalgError("from_columns: vector length != ambient dimension")
        if not cleaned:
            return cls.zero(ambient_dim)
        red, pivots, rk = rref(Matrix.from_rows(cleaned))
        cols = [tuple(red.data[i][j] for j in range(ambient_dim)) for i in range(rk)]
        return cls(ambient_dim, Matrix.from_columns(cols, ambient_dim), pivots)

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim, Matrix.zero(ambient_dim, 0), ())

    @classmethod
    def full(cls, ambient_dim):
        return cls(ambient_dim, Matrix.identity(ambient_dim),
                   tuple(range(ambient_dim)))

    @property
    def dim(self):
        return self.basis.cols

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def basis_columns(self):
        return self.basis.columns()

    def reduce(self, vec):
        """Residue of `vec` after eliminating against the echelon basis."""
        v = list(vec)
        for j, pr in enumerate(self.pivot_rows):
            c = v[pr]
            if c != 0:
                col = self.basis.column(j)
                for i in range(self.ambient_dim):
                    if col[i]:
                        v[i] -= c * col[i]
        return tuple(v)

    def contains(self, vec):
        return all(x == 0 for x in self.reduce(vec))

    def contains_subspace(self, other):
        if other.ambient_dim != self.ambient_dim:
            raise LinalgError("ambient dimension mismatch")
        return all(self.contains(c) for c in other.basis_columns())

    def coordinates(self, vec):
        """Coordinates of `vec` in the stored basis; raises if not a member."""
        sol = self.basis.solve(Matrix.from_columns([tuple(vec)], self.ambient_dim))
        if sol is None:
            raise LinalgError("vector not in subspace")
        return sol.column(0)


def kernel_basis(m: Matrix) -> Subspace:
    """Null space of `m` as a subspace of the domain Q^cols."""
    red, pivots, rk = rref(m)
    pivot_set = set(pivots)
    free_cols = [j for j in range(m.cols) if j not in pivot_set]
    vectors = []
    for f in free_cols:
        v = [Q(0)] * m.cols
        v[f] = Q(1)
        for i, p in enumerate(pivots):
            v[p] = -red.data[i][f]
        vectors.append(tuple(v))
    return Subspace.from_columns(vectors, m.cols)


def image_basis(m: Matrix) -> Subspace:
    """Column space of `m` as a subspace of the codomain Q^rows."""
    return Subspace.from_columns(m.columns(), m.rows)


def map_subspace(m: Matrix, s: Subspace) -> Subspace:
    """Image m(s) of a subspace under a linear map."""
    if m.cols != s.ambient_dim:
        raise LinalgError("map_subspace: domain mismatch")
    return Subspace.from_columns([m.apply(c) for c in s.basis_columns()], m.rows)


def preimage(m: Matrix, s: Subspace) -> Subspace:
    """{x : m x in s}, as a subspace of the domain Q^cols.

    Membership in `s` is the vanishing of the residue against its reduced
    echelon basis at the non-pivot rows; those linear conditions, pulled
    back through `m`, cut out the preimage.
    """
    if m.rows != s.ambient_dim:
        raise LinalgError("preimage: codomain mismatch")
    pivots = set(s.pivot_rows)
    rows = []
    for i in range(m.rows):
        if i in pivots:
            continue
        row = m.data[i]
        for j, pr in enumerate(s.pivot_rows):
            f = s.basis.data[i][j]
            if f:
                row = [a - f * b for a, b in zip(row, m.data[pr])]
        rows.append(row)
    if not rows:
        return Subspace.full(m.cols)
    return kernel_basis(Matrix(len(rows), m.cols, rows))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise LinalgError("subspace_sum: ambient dimension mismatch")
    return Subspace.from_columns(a.basis_columns() + b.basis_columns(), a.ambient_dim)


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Largest subspace contained in both, through the kernel of [A | -B]."""
    if a.ambient_dim != b.ambient_dim:
        raise LinalgError("subspace_intersection: ambient dimension mismatch")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    stacked = a.basis.hstack(-b.basis)
    ker = kernel_basis(stacked)
    vectors = []
    for col in ker.basis_columns():
        coeffs = col[: a.dim]
        vectors.append(a.basis.apply(coeffs))
    return Subspace.from_columns(vectors, a.ambient_dim)


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
    if s.dim == 0:
        return Subspace.full(s.ambient_dim)
    b = s.basis
    m = b.transpose() if gram is None else b.transpose() * gram
    return kernel_basis(m)


def extend_basis(small: Subspace, big: Subspace):
    """Vectors of `big`'s canonical basis extending `small` to a basis of `big`.

    Deterministic: columns of `big` are scanned in order and kept when they
    add rank.  The result lists representatives of a complement of `small`
    inside `big`.
    """
    if not big.contains_subspace(small):
        raise ContainmentError("extend_basis: small is not inside big")
    chosen = []
    span = small
    for col in big.basis_columns():
        if not span.contains(col):
            chosen.append(col)
            span = subspace_sum(span, Subspace.from_columns([col], big.ambient_dim))
    return chosen


def class_coordinates(denominator: Subspace, representatives, vec):
    """Coordinates of `vec`'s class in the given representative basis.

    Writes ``vec = d + sum_i c_i rep_i`` with ``d`` in the denominator and
    returns the tuple of c_i.  Raises if `vec` is not in the span, which
    signals an upstream logic error.
    """
    n = denominator.ambient_dim
    cols = denominator.basis_columns() + list(representatives)
    if not cols:
        if any(x != 0 for x in vec):
            raise LinalgError("class_coordinates: vector outside zero space")
        return ()
    m = Matrix.from_columns(cols, n)
    sol = m.solve(Matrix.from_columns([tuple(vec)], n))
    if sol is None:
        raise LinalgError("class_coordinates: vector not in numerator span")
    return sol.column(0)[denominator.dim:]
