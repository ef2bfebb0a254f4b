"""Bounded double complexes over Q: data model, validation, constructions.

A double complex here is a bigraded rational vector space supported on a
finite grid ``0..pmax x 0..qmax`` with two square-zero differentials d1 of
bidegree (1,0) and d2 of bidegree (0,1) that anticommute:

    d1 d1 = 0,   d2 d2 = 0,   d1 d2 + d2 d1 = 0.

Components outside the grid are zero, and maps leaving the grid are zero;
this keeps the boundary bookkeeping of the tower solvers uniform.

Input files may carry commuting-convention data (d1 d2 = d2 d1); ingestion
twists d2 by (-1)^p, which converts losslessly to the anticommuting
convention used everywhere internally.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from bigraded.linalg import LinalgError, Matrix

Q = Fraction

__all__ = [
    "DoubleComplex",
    "TotalComplex",
    "ValidationReport",
    "validate",
    "direct_sum",
    "change_of_basis",
    "swap_complex",
    "total_complex",
    "de_rham_dims",
    "euler_characteristic",
    "random_complex",
    "random_invertible",
    "complex_to_dict",
    "complex_from_dict",
    "dump_complex",
]


class DoubleComplex:
    """Bounded bigraded space with differentials d1: (p,q)->(p+1,q), d2: (p,q)->(p,q+1).

    `d1` and `d2` hold the nonzero maps; `d1_at` and `d2_at` read an absent
    one as the shared zero `Matrix` of its shape.
    """

    __slots__ = ("name", "pmax", "qmax", "dims", "d1", "d2", "labels", "meta")

    def __init__(self, name, pmax, qmax, dims, d1, d2, labels=None, meta=None):
        self.name = name
        self.pmax = pmax
        self.qmax = qmax
        self.dims = {k: v for k, v in dims.items() if v}
        for (p, q) in self.dims:
            if not (0 <= p <= pmax and 0 <= q <= qmax):
                raise LinalgError(f"dimension at {(p, q)} lies outside the grid {pmax}x{qmax}")
        self.d1 = {}
        self.d2 = {}
        for (p, q), m in d1.items():
            if m.rows != self.dim(p + 1, q) or m.cols != self.dim(p, q):
                raise LinalgError(f"d1 at {(p, q)} has shape {m.rows}x{m.cols}, "
                                  f"expected {self.dim(p + 1, q)}x{self.dim(p, q)}")
            if not m.is_zero():
                self.d1[(p, q)] = m
        for (p, q), m in d2.items():
            if m.rows != self.dim(p, q + 1) or m.cols != self.dim(p, q):
                raise LinalgError(f"d2 at {(p, q)} has shape {m.rows}x{m.cols}, "
                                  f"expected {self.dim(p, q + 1)}x{self.dim(p, q)}")
            if not m.is_zero():
                self.d2[(p, q)] = m
        self.labels = labels or {}
        self.meta = meta or {}

    def dim(self, p, q):
        return self.dims.get((p, q), 0)

    def d1_at(self, p, q):
        return self.d1.get((p, q)) or Matrix.zero(self.dims.get((p + 1, q), 0),
                                                  self.dims.get((p, q), 0))

    def d2_at(self, p, q):
        return self.d2.get((p, q)) or Matrix.zero(self.dims.get((p, q + 1), 0),
                                                  self.dims.get((p, q), 0))

    def support(self):
        """The bidegrees of nonzero dimension, lexicographic; every loop walks these."""
        return sorted(self.dims)

    def span(self):
        """(max p - min p, max q - min q) over the support; (0, 0) when it is empty."""
        ps, qs = zip(*self.dims) if self.dims else ((0,), (0,))
        return max(ps) - min(ps), max(qs) - min(qs)

    def total_dim(self):
        return sum(self.dims.values())

    def __repr__(self):
        return (f"DoubleComplex({self.name!r}, grid {self.pmax}x{self.qmax}, "
                f"total dim {self.total_dim()})")


class ValidationReport:
    __slots__ = ("ok", "violations")

    def __init__(self, ok, violations):
        self.ok = ok
        self.violations = violations

    def __bool__(self):
        return self.ok

    def describe(self):
        """One line for each of the first five violations, then a count of the rest.

        A line names the identity, the cell and at most three nonzero entries
        of the failing product.
        """
        if self.ok:
            return "valid double complex"
        lines = []
        for kind, p, q, prod in self.violations[:5]:
            nonzero = [(i, j, x) for i, row in enumerate(prod.num)
                       for j, x in enumerate(row) if x]
            shown = ", ".join(f"[{i},{j}] = {Q(x, prod.den)}" for i, j, x in nonzero[:3])
            more = ", ..." if len(nonzero) > 3 else ""
            entries = "entry" if len(nonzero) == 1 else "entries"
            lines.append(f"{kind} fails at ({p},{q}): the {prod.rows}x{prod.cols} product "
                         f"has {len(nonzero)} nonzero {entries}: {shown}{more}")
        if len(self.violations) > 5:
            lines.append(f"… and {len(self.violations) - 5} more")
        return "\n".join(lines)


def validate(c: DoubleComplex) -> ValidationReport:
    """Check d1^2 = 0, d2^2 = 0 and anticommutation on every bidegree.

    Every product starts at (p,q), so a zero-dimensional cell has nothing to check.
    """
    violations = []
    for p, q in c.support():
        m = c.d1_at(p + 1, q) * c.d1_at(p, q)
        if not m.is_zero():
            violations.append(("d1∘d1", p, q, m))
        m = c.d2_at(p, q + 1) * c.d2_at(p, q)
        if not m.is_zero():
            violations.append(("d2∘d2", p, q, m))
        m = c.d1_at(p, q + 1) * c.d2_at(p, q) + c.d2_at(p + 1, q) * c.d1_at(p, q)
        if not m.is_zero():
            violations.append(("anticommutation", p, q, m))
    return ValidationReport(not violations, violations)


def require_valid(c: DoubleComplex):
    report = validate(c)
    if not report.ok:
        raise LinalgError("invalid double complex:\n" + report.describe())


def direct_sum(a: DoubleComplex, b: DoubleComplex, name=None) -> DoubleComplex:
    """Block-diagonal sum; every invariant computed downstream is additive."""
    dims, d1, d2 = {}, {}, {}
    for (p, q) in set(a.dims) | set(b.dims):
        dims[(p, q)] = a.dim(p, q) + b.dim(p, q)
        d1[(p, q)] = _block_diag(a.d1_at(p, q), b.d1_at(p, q))
        d2[(p, q)] = _block_diag(a.d2_at(p, q), b.d2_at(p, q))
    return DoubleComplex(name or f"{a.name}+{b.name}", max(a.pmax, b.pmax),
                         max(a.qmax, b.qmax), dims, d1, d2)


def _block_diag(m1: Matrix, m2: Matrix) -> Matrix:
    return Matrix.from_blocks(m1.rows + m2.rows, m1.cols + m2.cols,
                              [(0, 0, m1), (m1.rows, m1.cols, m2)])


def change_of_basis(c: DoubleComplex, transforms) -> DoubleComplex:
    """Rewrite the complex in new bases.

    ``transforms[(p,q)]`` has the new basis vectors as columns, expressed in
    the current coordinates; cells not mentioned keep their basis.  All
    downstream dimension tables are unchanged.  A transform at a cell
    outside the grid, of the wrong size or singular raises LinalgError.
    """
    for (p, q) in transforms:
        if not (0 <= p <= c.pmax and 0 <= q <= c.qmax):
            raise LinalgError(f"transform at {(p, q)} lies outside the grid {c.pmax}x{c.qmax}")
    t = {cell: Matrix.identity(n) for cell, n in c.dims.items()}
    tinv = dict(t)
    for (p, q), m in sorted(transforms.items()):
        n = c.dim(p, q)
        if m.rows != n or m.cols != n:
            raise LinalgError(f"transform at {(p, q)} must be {n}x{n}")
        t[(p, q)] = m
        try:
            tinv[(p, q)] = m.inverse()
        except LinalgError as exc:
            raise LinalgError(f"transform at {(p, q)} is not invertible") from exc
    d1 = {(p, q): tinv[(p + 1, q)] * m * t[(p, q)] for (p, q), m in c.d1.items()}
    d2 = {(p, q): tinv[(p, q + 1)] * m * t[(p, q)] for (p, q), m in c.d2.items()}
    return DoubleComplex(c.name, c.pmax, c.qmax, dict(c.dims), d1, d2)


def swap_complex(c: DoubleComplex) -> DoubleComplex:
    """Exchange the two differentials, transposing the grid.

    The swapped complex at (p,q) is the original component at (q,p); pages of
    its column filtration are the conjugate pages of the original.
    """
    dims = {(q, p): n for (p, q), n in c.dims.items()}
    d1 = {}
    d2 = {}
    for (p, q), m in c.d2.items():
        d1[(q, p)] = m
    for (p, q), m in c.d1.items():
        d2[(q, p)] = m
    return DoubleComplex(c.name + ".swap", c.qmax, c.pmax, dims, d1, d2)


class TotalComplex:
    """Total complex of a double complex: T^k = sum of A^{p,q} with p+q=k.

    `layout`, `degree_dims` and `differentials` hold only the degrees k
    that hold a cell, in increasing order; every other T^k is zero.
    """

    __slots__ = ("degree_dims", "layout", "differentials")

    def __init__(self, degree_dims, layout, differentials):
        self.degree_dims = degree_dims
        self.layout = layout
        self.differentials = differentials

    def dim(self, k):
        return self.degree_dims.get(k, 0)

    def differential(self, k):
        m = self.differentials.get(k)
        if m is None:
            return Matrix.zero(self.dim(k + 1), self.dim(k))
        return m

    def block_offset(self, k, p, q):
        for (pp, qq, off, d) in self.layout.get(k, []):
            if (pp, qq) == (p, q):
                return off, d
        return None

    def inject(self, p, q, vecs: Matrix) -> Matrix:
        """Embed the component vectors, the columns of `vecs`, into their total-degree block."""
        k = p + q
        found = self.block_offset(k, p, q)
        if found is None:
            if not vecs.is_zero():
                raise LinalgError("inject: component not present in total complex")
            return Matrix.zero(self.dim(k), vecs.cols)
        off, d = found
        if vecs.rows != d:
            raise LinalgError("inject: wrong component dimension")
        return Matrix.from_blocks(self.dim(k), vecs.cols, [(off, 0, vecs)])

    def project(self, k, p, q, vecs: Matrix) -> Matrix:
        """The (p,q) block of the total-degree-k vectors, the columns of `vecs`."""
        found = self.block_offset(k, p, q)
        if found is None:
            return Matrix.zero(0, vecs.cols)
        off, d = found
        return Matrix.from_blocks(d, self.dim(k), [(0, off, Matrix.identity(d))]) * vecs


def total_complex(c: DoubleComplex) -> TotalComplex:
    """Assemble the total differential D = d1 + d2, blocks ordered lex in (p,q)."""
    layout = {}
    degree_dims = {}
    for (p, q) in sorted(c.dims, key=lambda cell: (sum(cell), cell)):
        k, d = p + q, c.dims[(p, q)]
        off = degree_dims.get(k, 0)
        layout.setdefault(k, []).append((p, q, off, d))
        degree_dims[k] = off + d
    differentials = {}
    for k, blocks_k in layout.items():
        targets = {(p, q): off for (p, q, off, _) in layout.get(k + 1, [])}
        blocks = []
        for (p, q, off, _) in blocks_k:
            for m, tgt in ((c.d1_at(p, q), (p + 1, q)), (c.d2_at(p, q), (p, q + 1))):
                if tgt in targets:
                    blocks.append((targets[tgt], off, m))
        differentials[k] = Matrix.from_blocks(degree_dims.get(k + 1, 0), degree_dims[k], blocks)
    t = TotalComplex(degree_dims, layout, differentials)
    for k in layout:
        if not (t.differential(k + 1) * t.differential(k)).is_zero():
            raise LinalgError(f"total differential does not square to zero at degree {k}")
    return t


def de_rham_dims(t: TotalComplex):
    """Betti numbers of the total complex, b_k = dim ker D_k - rank D_{k-1}, per degree held."""
    ranks = {k: t.differential(k).rank() for k in t.layout}
    return {k: t.dim(k) - ranks[k] - ranks.get(k - 1, 0) for k in t.layout}


def euler_characteristic(c: DoubleComplex):
    return sum(((-1) ** (p + q)) * n for (p, q), n in c.dims.items())


def random_invertible(n, rng, spread=2):
    """Random invertible integer matrix: unit triangular factors and sign flips."""
    lower = [[0] * n for _ in range(n)]
    upper = [[0] * n for _ in range(n)]
    for i in range(n):
        lower[i][i] = rng.choice((1, -1))
        upper[i][i] = 1
        for j in range(i):
            lower[i][j] = rng.randint(-spread, spread)
            upper[j][i] = rng.randint(-spread, spread)
    return Matrix(n, n, lower) * Matrix(n, n, upper)


def random_complex(grid, max_dim, seed, structure=False, max_shapes=None):
    """Deterministic random complex: a scrambled direct sum of known shapes.

    Builds a random direct sum of squares, zigzags and dots placed on the
    grid (per-cell dimension capped by `max_dim`, summand count capped by
    `max_shapes` when given), then hides it behind a random change of basis.
    Validity is guaranteed by construction and the hidden decomposition
    doubles as a ground truth for round-trip tests.

    With ``structure=True`` returns ``(complex, inventory, certificate)``
    where the certificate's transforms undo the scramble.
    """
    from bigraded import models
    from bigraded.zigzag import DecompositionCertificate

    pmax, qmax = grid
    if max_dim < 0:
        raise LinalgError(f"max_dim must be nonnegative, got {max_dim}")
    rng = random.Random(seed)
    used = {}  # cell -> summands placed there so far
    shapes = []
    if max_dim > 0:
        n_attempts = rng.randint(2, 4 + 2 * (pmax + qmax))
        if max_shapes is not None:
            n_attempts = min(n_attempts, max_shapes)
        for _ in range(n_attempts):
            shape = _random_shape(rng, pmax, qmax)
            cells = models.shape_cells(shape)
            if all(used.get(cell, 0) < max_dim for cell in cells):
                for cell in cells:
                    used[cell] = used.get(cell, 0) + 1
                shapes.append(shape)
    summands = [models.build_shape(s, (pmax, qmax)) for s in shapes]
    acc = DoubleComplex(f"random-{seed}", pmax, qmax, {}, {}, {})
    blocks = []
    for s, piece in zip(shapes, summands):
        blocks.append((s, {cell: (acc.dim(*cell),) for cell in models.shape_cells(s)}))
        acc = direct_sum(acc, piece, name=f"random-{seed}")
    transforms = {cell: random_invertible(acc.dim(*cell), rng) for cell in acc.support()}
    scrambled = change_of_basis(acc, transforms)
    scrambled.meta["seed"] = seed
    if not structure:
        return scrambled
    inventory = {}
    for s in shapes:
        inventory[s] = inventory.get(s, 0) + 1
    cert = DecompositionCertificate(
        transforms={cell: m.inverse() for cell, m in transforms.items()},
        blocks=blocks,
    )
    return scrambled, inventory, cert


def _random_shape(rng, pmax, qmax):
    from bigraded.models import Square, ZigzagShape

    kind = rng.random()
    if kind < 0.3 and pmax >= 1 and qmax >= 1:
        p = rng.randint(0, pmax - 1)
        q = rng.randint(0, qmax - 1)
        return Square(p, q)
    if kind < 0.55:
        return ZigzagShape(((rng.randint(0, pmax), rng.randint(0, qmax)),), False, False)
    # staircase of generators heading down-right
    max_gens = min(pmax + 1, qmax + 1, 4)
    g = rng.randint(1, max_gens)
    p0 = rng.randint(0, max(0, pmax - (g - 1)))
    q0 = rng.randint(min(g - 1, qmax), qmax)
    gens = tuple((p0 + i, q0 - i) for i in range(g))
    d2_first = rng.random() < 0.5 and q0 + 1 <= qmax
    d1_last = rng.random() < 0.5 and p0 + g <= pmax
    return ZigzagShape(gens, d2_first, d1_last)


# ---------------------------------------------------------------------------
# JSON interchange


def _parse_rational(s, where):
    """A JSON integer, or a string such as "3", "-1/2" or "0.25", as an exact rational.

    Integers stay `int`s, which `Matrix` takes without a `Fraction`; the rest
    become `Fraction`s.  Anything else raises LinalgError naming `where`:
    booleans, floats (the JSON parser has rounded them to binary), exponents
    (`Fraction` would build 10**exponent), unparsable text, zero denominators.
    """
    if type(s) is int:
        return s
    if isinstance(s, str) and "e" not in s.lower():
        try:
            return int(s) if s.lstrip("-").isdecimal() else Q(s)
        except (ValueError, ZeroDivisionError):
            pass
    raise LinalgError(f"{where}: not a rational number: {s!r}")


def _key(p, q):
    return f"{p},{q}"


def _unkey(s):
    """The cell written as "p,q"; ValueError for anything else."""
    parts = s.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected a cell \"p,q\", got {s!r}")
    return int(parts[0]), int(parts[1])


def _require_int(value, what, minimum=None):
    """Accept an int (never a bool) of at least `minimum`, else raise LinalgError."""
    if type(value) is not int:
        raise LinalgError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise LinalgError(f"{what} must be at least {minimum}, got {value}")


def _int_pair(value, what):
    """A list or tuple of two non-negative ints, as a tuple; else LinalgError naming `what`."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise LinalgError(f"{what} must be a pair of integers, got {value!r}")
    for x in value:
        _require_int(x, what, minimum=0)
    return tuple(value)


def _by_cell(table, what):
    """{cell: value} for a JSON object keyed by "p,q"; a bad key or a cell named twice raises."""
    if not isinstance(table, dict):
        raise LinalgError(f"{what} must map cells \"p,q\" to values")
    out = {}
    for key, value in table.items():
        try:
            cell = _unkey(key)
        except ValueError as exc:
            raise LinalgError(f"malformed {what} key {key!r}: {exc}") from exc
        if cell in out:
            raise LinalgError(f"{what} names cell {_key(*cell)} twice")
        out[cell] = value
    return out


def _matrices_from_dict(table, what, shape=None):
    """{cell: Matrix} for a JSON object mapping "p,q" to an array of rows of rationals.

    The one reader of the matrix tables of complex, Gram, pairing and
    certificate files.  With `shape`, the matrix at (p, q) must have the
    shape ``shape(p, q)`` (rows, columns); without it, its rows need one
    common length.  Anything else raises LinalgError naming `what` and the cell.
    """
    out = {}
    for cell, rows in _by_cell(table, what).items():
        where = f"{what} at {_key(*cell)}"
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise LinalgError(f"{where} must be an array of rows, each an array of entries")
        data = [[_parse_rational(x, where) for x in row] for row in rows]
        nr, nc = shape(*cell) if shape else (len(data), len(data[0]) if data else 0)
        if len(data) != nr or any(len(row) != nc for row in data):
            raise LinalgError(f"{where} has rows of lengths {[len(row) for row in data]}, "
                              f"expected {nr}x{nc}")
        out[cell] = Matrix(nr, nc, data)
    return out


def _matrices_to_dict(maps):
    """The JSON form of {cell: Matrix}: "p,q" keys in cell order, entries "n" or "n/d"."""
    return {_key(*cell): [[str(x) for x in row] for row in m.data]
            for cell, m in sorted(maps.items())}


def complex_to_dict(c: DoubleComplex):
    out = {
        "name": c.name,
        "convention": "anticommute",
        "grid": [c.pmax, c.qmax],
        "dims": {_key(p, q): n for (p, q), n in sorted(c.dims.items())},
        "d1": _matrices_to_dict(c.d1),
        "d2": _matrices_to_dict(c.d2),
    }
    if c.meta:
        out["meta"] = {k: v for k, v in sorted(c.meta.items())}
    return out


def complex_from_dict(obj) -> DoubleComplex:
    """Read the matrix-form complex format.

    Matrices act on column vectors; column j is the image of the j-th basis
    vector.  Omitted maps are zero.  ``convention: "commute"`` twists d2 by
    (-1)^p on input.
    """
    try:
        grid = obj["grid"]
        convention = obj.get("convention", "anticommute")
        name = obj.get("name", "unnamed")
    except (AttributeError, KeyError, TypeError) as exc:
        raise LinalgError(f"malformed complex file: {exc}") from exc
    if convention not in ("anticommute", "commute"):
        raise LinalgError(f"unknown convention {convention!r}")
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise LinalgError(f"meta must be an object, got {meta!r}")
    if "certified_max_p" in meta:  # reports drop the rows p beyond it
        _require_int(meta["certified_max_p"], "meta.certified_max_p", minimum=0)
    pmax, qmax = _int_pair(grid, "grid")
    dims = _by_cell(obj.get("dims", {}), "dims")
    for (p, q), n in dims.items():
        _require_int(n, f"dimension at {p},{q}", minimum=0)

    def dim(p, q):  # an entry outside the grid is refused by DoubleComplex
        return dims.get((p, q), 0)

    d1 = _matrices_from_dict(obj.get("d1", {}), "d1", lambda p, q: (dim(p + 1, q), dim(p, q)))
    d2 = _matrices_from_dict(obj.get("d2", {}), "d2", lambda p, q: (dim(p, q + 1), dim(p, q)))
    if convention == "commute":
        d2 = {(p, q): m.scale((-1) ** p) for (p, q), m in d2.items()}
    return DoubleComplex(name, pmax, qmax, dims, d1, d2, meta=dict(meta))


def dump_complex(c: DoubleComplex, path):
    with open(path, "w") as fh:
        json.dump(complex_to_dict(c), fh, indent=1, sort_keys=True)
        fh.write("\n")
