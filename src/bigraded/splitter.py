"""The constructive splitter behind `bigraded.zigzag.decompose`.

Squares come first (Stelzig, *On the structure of double complexes*): the
rank of d1 d2 out of (p,q) counts the squares at (p,q), and their spans
split off together with a complementary subcomplex on which d1 d2 = 0.
There I = im d1 + im d2 is killed by both differentials, so for any
complement C each antidiagonal k is a representation of a type-A zigzag
quiver

    I(0,k+1) <- C(0,k) -> I(1,k) <- C(1,k-1) -> ... -> I(k+1,0),

whose interval summands are exactly the zigzags (Carlsson-de Silva,
*Zigzag persistence*).  One left-to-right sweep per antidiagonal finds
them.  Everything is built from the elimination routines of
`bigraded.linalg`, and every vector is an n x 1 `Matrix`.
"""

from __future__ import annotations

from itertools import accumulate

from bigraded.bicomplex import DoubleComplex
from bigraded.linalg import (Matrix, Subspace, extend_basis, image_basis,
                             kernel_basis, rref, subspace_sum)
from bigraded.models import Square, ZigzagShape
from bigraded.spectral import ConsistencyError, _internal
from bigraded.zigzag import DecompositionCertificate

__all__ = ["split_complex"]


def split_complex(c: DoubleComplex) -> DecompositionCertificate:
    """Certificate of the squares-and-zigzags decomposition of a valid complex.

    Its transforms list, per bidegree, the square vectors first and then the
    zigzag vectors as columns, both in the complex's own coordinates.
    """
    squares, w, embed = _split_squares(c)
    vectors = {cell: [] for cell in c.support()}
    blocks = []

    def place(shape, cell_vectors):
        cells = {}
        for cell, vec in cell_vectors.items():
            cells[cell] = (len(vectors[cell]),)
            vectors[cell].append(vec)
        blocks.append((shape, cells))

    for shape, cell_vectors in squares:
        place(shape, cell_vectors)
    for shape, cell_vectors in _split_zigzags(w):
        place(shape, {cell: embed[cell] * v for cell, v in cell_vectors.items()})
    transforms = {cell: _hstack(vecs, c.dim(*cell)) for cell, vecs in vectors.items()}
    return DecompositionCertificate(transforms, blocks)


def _hstack(vectors, n):
    """The n x len(vectors) matrix whose columns are the n x 1 matrices `vectors`."""
    return Matrix.from_blocks(n, len(vectors), [(0, j, v) for j, v in enumerate(vectors)])


def _columns(m: Matrix):
    """The columns of `m`, each an n x 1 matrix."""
    return [m.select([j]) for j in range(m.cols)]


def _split_squares(c: DoubleComplex):
    """Split off every square at once.

    At each (p,q) the columns x at the pivots of d1 d2 span the squares
    there.  With functionals phi dual to the d1 d2 x, the common kernel of
    phi, phi d1, phi d2 and phi d1 d2 (each on the bidegree where it is
    defined) is a subcomplex complementary to the spans of x, d1 x, d2 x and
    d1 d2 x; intersected over all (p,q) it carries no d1 d2 at all.

    Returns the squares as ``(Square, {cell: vector})``, the rest as a
    complex `w` in its own coordinates, and the embedding matrices
    ``embed[cell]`` whose columns are the basis of the rest in `c`'s
    coordinates.
    """
    squares = []
    conditions = {cell: [] for cell in c.support()}
    for (p, q) in c.support():
        dd = c.d1_at(p, q + 1) * c.d2_at(p, q)
        if dd.is_zero():
            continue
        _, pivots, k = rref(dd)
        phi = dd.select(pivots).transpose().solve(Matrix.identity(k)).transpose()
        conditions[(p + 1, q + 1)].append(phi)
        conditions[(p, q + 1)].append(phi * c.d1_at(p, q + 1))
        conditions[(p + 1, q)].append(phi * c.d2_at(p + 1, q))
        conditions[(p, q)].append(phi * dd)
        # the images of the unit vector x = e_j are the j-th columns of the maps
        x, d1, d2 = Matrix.identity(c.dim(p, q)), c.d1_at(p, q), c.d2_at(p, q)
        for j in pivots:
            squares.append((Square(p, q), {
                (p, q): x.select([j]), (p + 1, q): d1.select([j]),
                (p, q + 1): d2.select([j]), (p + 1, q + 1): dd.select([j])}))
    embed = {}
    for cell, rows in conditions.items():
        n = c.dim(*cell)
        if rows:
            starts = accumulate((m.rows for m in rows), initial=0)
            stacked = Matrix.from_blocks(sum(m.rows for m in rows), n,
                                         [(i, 0, m) for i, m in zip(starts, rows)])
            embed[cell] = kernel_basis(stacked).basis
        else:
            embed[cell] = Matrix.identity(n)
    if not squares:
        return squares, c, embed
    dims = {cell: m.cols for cell, m in embed.items()}

    def restrict(d, src, tgt):
        if not dims.get(src) or not dims.get(tgt):
            return None
        sol = embed[tgt].solve(d * embed[src])
        if sol is None:
            raise ConsistencyError(
                f"the square complement of {c.name!r} is not a subcomplex at {src}")
        return sol

    d1, d2 = {}, {}
    for (p, q) in c.support():
        m = restrict(c.d1_at(p, q), (p, q), (p + 1, q))
        if m is not None:
            d1[(p, q)] = m
        m = restrict(c.d2_at(p, q), (p, q), (p, q + 1))
        if m is not None:
            d2[(p, q)] = m
    return squares, DoubleComplex(c.name, c.pmax, c.qmax, dims, d1, d2), embed


class _Interval:
    """One summand of a zigzag representation: a vector at each position it spans.

    Positions along antidiagonal k alternate I(j, k+1-j) at 2j and
    C(j, k-j) at 2j+1.  Vectors at I positions are in the coordinates of the
    bidegree, at C positions in the coordinates of the chosen complement.
    """

    __slots__ = ("start", "end", "vecs")

    def __init__(self, start, vec):
        self.start = start
        self.end = None
        self.vecs = {start: vec}

    def rank(self):
        # `a` may absorb `b` (a homomorphism of intervals a -> b exists while
        # both are open) iff b ranks no lower: intervals born at an I cell
        # rank lowest, a later birth lower; then those born at a C cell, an
        # earlier birth lower
        if self.start % 2 == 0:
            return (0, -self.start)
        return (1, self.start)


def _absorb(order, coeffs: Matrix):
    """For each column c of `coeffs`, its pivot interval and the vectors of sum_s c[s] * order[s].

    The pivot is the first interval of `order` with a nonzero coefficient,
    and that coefficient is 1; every other one with a nonzero coefficient
    ranks no lower.  The vectors are kept on the pivot's support; an
    interval without a vector at a position adds nothing there.
    """
    if not coeffs.cols:
        return []
    sums = {}
    for pos in {pos for iv in order for pos in iv.vecs}:
        present = [iv.vecs.get(pos) for iv in order]
        n = next(v.rows for v in present if v is not None)
        sums[pos] = _hstack([Matrix.zero(n, 1) if v is None else v for v in present],
                            n) * coeffs
    out = []
    for i in range(coeffs.cols):
        target = order[next(s for s, row in enumerate(coeffs.num) if row[i])]
        out.append((target, {pos: sums[pos].select([i]) for pos in target.vecs}))
    return out


def _split_zigzags(w: DoubleComplex):
    """Interval decomposition of a complex with d1 d2 = 0, one antidiagonal at a time.

    Yields ``(ZigzagShape, {cell: vector})`` in `w`'s coordinates.  Only the
    antidiagonals with a nonzero complement are swept: elsewhere every cell
    is image, which d1 and d2 kill, so no interval starts there.
    """
    images = {}
    complements = {}
    positions = {}  # k -> the j with a nonzero complement at (j, k-j), increasing
    for (p, q) in w.support():
        images[(p, q)] = subspace_sum(image_basis(w.d1_at(p - 1, q)),
                                      image_basis(w.d2_at(p, q - 1)))
        complements[(p, q)] = _internal("complement of im d1 + im d2", None, (p, q), extend_basis,
                                        images[(p, q)], Subspace.full(w.dim(p, q)))
        if complements[(p, q)].cols:
            positions.setdefault(p + q, []).append(p)
    for k in sorted(positions):
        for interval in _sweep(w, k, positions[k], images, complements):
            yield _interval_shape(w, k, interval, complements)


def _sweep(w, k, positions, images, complements):
    """One left-to-right pass over I(0,k+1) <- C(0,k) -> I(1,k) <- ... -> I(k+1,0).

    Only the C(j, k-j) with j in `positions` are nonzero.  At an I <- C step
    the live intervals whose vectors span the image continue: the image, in
    coordinates of the live vectors ordered by rank, is put in echelon form
    with each pivot at its lowest-ranked interval, which then absorbs the
    others; the kernel starts new intervals.  At a C -> I step the kernel,
    in the same echelon form, names the intervals that die; the complement
    of the image starts new ones.  Past a zero C(j, k-j) every live interval
    ends at I(j, k+1-j).
    """
    empty = Subspace.zero(0)
    done = []
    live = []
    reached = None  # the live intervals hold vectors at I(reached, k+1-reached)
    for j in positions:
        cell, pos = (j, k - j), 2 * j + 1
        if j != reached:
            # C(reached, .) up to C(j-1, .) are zero: the live intervals end at I(reached, .)
            for iv in live:
                iv.end = 2 * reached
            done += live
            live = [_Interval(pos - 1, v)
                    for v in _columns(images.get((j, k + 1 - j), empty).basis)]
        comp = complements[cell]
        # I(j, k+1-j) <- C(j, k-j) along d2
        rho = w.d2_at(*cell) * comp
        order = sorted(live, key=_Interval.rank)
        coords = _hstack([iv.vecs[pos - 1] for iv in order], rho.rows).solve(rho)
        if coords is None:
            raise ConsistencyError(f"d2 image at {cell} leaves im d1 + im d2")
        red, pivots, rk = rref(coords.transpose())
        combos = red.transpose().select(range(rk))  # the nonzero rows of red, as columns
        lifts = coords.solve(combos)
        live = []
        for i, (iv, vecs) in enumerate(_absorb(order, combos)):
            iv.vecs = vecs
            iv.vecs[pos] = lifts.select([i])
            live.append(iv)
        for t, iv in enumerate(order):
            if t not in pivots:
                iv.end = pos - 1
                done.append(iv)
        live += [_Interval(pos, v) for v in _columns(kernel_basis(rho).basis)]
        # C(j, k-j) -> I(j+1, k-j) along d1
        order = sorted(live, key=_Interval.rank)
        sigma = w.d1_at(*cell) * comp * _hstack([iv.vecs[pos] for iv in order], comp.cols)
        ker = kernel_basis(sigma)
        for iv, vecs in _absorb(order, ker.basis):
            iv.vecs = vecs
            iv.end = pos
            done.append(iv)
        live = []
        for t, iv in enumerate(order):
            if t not in ker.pivot_rows:
                iv.vecs[pos + 1] = sigma.select([t])
                live.append(iv)
        target = images.get((j + 1, k - j), empty)
        span = image_basis(_hstack([iv.vecs[pos + 1] for iv in live], target.ambient_dim))
        born = _internal("im d1 + im d2 over the live intervals", None, (j + 1, k - j),
                         extend_basis, span, target)
        live += [_Interval(pos + 1, v) for v in _columns(born)]
        reached = j + 1
    for iv in live:
        iv.end = 2 * reached
    return done + live


def _interval_shape(w, k, interval, complements):
    """The zigzag of one interval and its vectors in `w`'s coordinates."""
    s, e = interval.start, interval.end
    gens = tuple((pos // 2, k - pos // 2) for pos in range(s, e + 1) if pos % 2)
    if not gens:
        raise ConsistencyError(f"interval without a generator on antidiagonal {k}")
    vecs = {}
    for pos, v in interval.vecs.items():
        j = pos // 2
        if pos % 2:
            cell = (j, k - j)
            vecs[cell] = complements[cell] * v
        else:
            vecs[(j, k + 1 - j)] = v
    return ZigzagShape(gens, s % 2 == 0, e % 2 == 0), vecs
