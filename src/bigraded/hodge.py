"""Finite-dimensional harmonic theory for the pages, all exact over Q.

A rational positive-definite Gram matrix per bidegree plays the role of an
inner product.  Adjoints are G_src^{-1} m^T G_dst; with identity Grams they
are plain transposes and everything stays integral.

The harmonic tower realises each page inside the complex itself:

    H_1 = ker(d2 d2* + d2* d2),
    d_r = p_r d1 D_{r-1} p_r   with   D_{r-1} = (L_1^+ d2* d1)...(L_{r-1}^+ d2* d1),
    H_{r+1} = H_r ∩ ker d_r ∩ ker d_r*,

where p_r projects orthogonally onto H_r and L_i^+ is the Green inverse of
the i-th Laplacian (zero on its kernel, the true inverse on the image).
Each H_r is isomorphic to the page-r space, so its dimension must equal the
page dimension; the Laplacian route ker L_{r+1} is computed as well and
compared, giving two independent constructions of the same space.

Star towers (the adjoint-side lift conditions) are obtained for free by
running the ordinary tower machinery on the flipped adjoint complex: take
adjoints of all maps and reindex (p,q) -> (pmax-p, qmax-q), which is again a
valid double complex on the same underlying components.
"""

from __future__ import annotations

from bigraded.bca import _bca_cell, ddbar_closed_space
from bigraded.bicomplex import DoubleComplex
from bigraded.linalg import (LinalgError, Matrix, Subspace, image_basis,
                             kernel_basis, subspace_intersection, subspace_sum)
from bigraded.spectral import (ConsistencyError, TowerKind, Workspace, memoised,
                               page_dims)

__all__ = [
    "InnerProduct",
    "adjoint",
    "green_inverse",
    "flipped_adjoint_workspace",
    "star_tower_space",
    "HarmonicTower",
    "harmonic_tower",
    "three_space_decomposition",
    "bc_a_harmonic_spaces",
]


class InnerProduct:
    """Per-bidegree symmetric positive-definite rational Gram matrices.

    Cells without an explicit Gram use the identity (declared basis
    orthonormal).  Definiteness is checked through the pivots of the
    symmetric elimination: for symmetric matrices positivity of all leading
    principal minors is equivalent to positive definiteness.
    """

    def __init__(self, grams=None):
        self.grams = dict(grams or {})
        for cell, g in self.grams.items():
            _check_spd(g, cell)

    def gram(self, c: DoubleComplex, p, q) -> Matrix:
        m = self.grams.get((p, q))
        if m is None:
            return Matrix.identity(c.dim(p, q))
        if m.rows != c.dim(p, q):
            raise LinalgError(f"Gram at {(p, q)} has wrong size")
        return m


def _check_spd(g: Matrix, cell):
    if g.rows != g.cols:
        raise LinalgError(f"Gram at {cell} is not square")
    if g != g.transpose():
        raise LinalgError(f"Gram at {cell} is not symmetric")
    a = [list(row) for row in g.data]
    n = g.rows
    for k in range(n):
        pivot = a[k][k]
        if pivot <= 0:
            raise LinalgError(f"Gram at {cell} is not positive definite")
        for i in range(k + 1, n):
            f = a[i][k] / pivot
            for j in range(k, n):
                a[i][j] -= f * a[k][j]


def adjoint(m: Matrix, gram_src: Matrix, gram_dst: Matrix) -> Matrix:
    """Adjoint of m: src -> dst for the given Grams: G_src^{-1} m^T G_dst."""
    if gram_src.rows != m.cols or gram_dst.rows != m.rows:
        raise LinalgError("adjoint: Gram sizes do not match the map")
    return gram_src.inverse() * m.transpose() * gram_dst


def green_inverse(op: Matrix, gram: Matrix) -> Matrix:
    """Inverse of a self-adjoint operator on the complement of its kernel.

    Zero on ker(op); on im(op) (the orthogonal complement of the kernel for
    a self-adjoint operator) the genuine inverse.  Exact throughout.
    """
    n = op.rows
    if op.cols != n:
        raise LinalgError("green_inverse: operator must be square")
    ker = kernel_basis(op)
    im = image_basis(op)
    if ker.dim + im.dim != n:
        raise ConsistencyError("green_inverse: kernel and image do not split the space")
    cols = ker.basis_columns() + im.basis_columns()
    basis = Matrix.from_columns(cols, n) if cols else Matrix.identity(n)
    coords = basis.inverse()
    # op maps im(op) isomorphically to itself: invert it there
    if im.dim:
        op_on_im = [im.coordinates(op.apply(col)) for col in im.basis_columns()]
        inv_on_im = Matrix.from_columns(op_on_im, im.dim).inverse()
    out_cols = []
    for j in range(n):
        comp = coords.column(j)[ker.dim:]
        if im.dim:
            sol = inv_on_im.apply(comp)
            out_cols.append(im.basis.apply(sol))
        else:
            out_cols.append((0,) * n)
    return Matrix.from_columns(out_cols, n)


def flipped_adjoint_workspace(c: DoubleComplex, ip: InnerProduct,
                              ws: Workspace | None = None) -> Workspace:
    """Workspace of the adjoint complex, reindexed to run left-to-right again.

    Component (p,q) of the flip is component (pmax-p, qmax-q) of `c` with
    the same basis; its differentials are the adjoints of the originals, so
    tower spaces of the flip are exactly the star-tower spaces of `c`.
    """
    ws = ws or Workspace(c)
    return _flip(ws, tuple(sorted(ip.grams.items())))


@memoised
def _flip(ws: Workspace, grams) -> Workspace:
    """The flip for the Grams given as sorted (cell, Gram) pairs."""
    c = ws.c
    ip = InnerProduct(dict(grams))
    P, Qm = c.pmax, c.qmax
    dims = {(P - p, Qm - q): n for (p, q), n in c.dims.items()}
    d1 = {}
    d2 = {}
    for p in range(P + 1):
        for q in range(Qm + 1):
            if dims.get((p, q), 0) == 0:
                continue
            op, oq = P - p, Qm - q
            if dims.get((p + 1, q), 0):
                src = c.d1_at(op - 1, oq)
                d1[(p, q)] = adjoint(src, ip.gram(c, op - 1, oq), ip.gram(c, op, oq))
            if dims.get((p, q + 1), 0):
                src = c.d2_at(op, oq - 1)
                d2[(p, q)] = adjoint(src, ip.gram(c, op, oq - 1), ip.gram(c, op, oq))
    return Workspace(DoubleComplex(c.name + ".adjoint-flip", P, Qm, dims, d1, d2))


def star_tower_space(c: DoubleComplex, ip: InnerProduct, kind: TowerKind,
                     r, p, q, ws: Workspace | None = None) -> Subspace:
    """Tower space for the adjoint differentials, as a subspace of A^{p,q}."""
    ws = ws or Workspace(c)
    flip = flipped_adjoint_workspace(c, ip, ws)
    return flip.space(kind, r, c.pmax - p, c.qmax - q)


def _star_ddbar_closed(c, ip, r, p, q, ws):
    """Adjoint-side two-tower closedness; the r = 1 case is ker (d1 d2)*."""
    flip = flipped_adjoint_workspace(c, ip, ws)
    return ddbar_closed_space(flip.c, r, c.pmax - p, c.qmax - q, flip)


class HarmonicTower:
    """Harmonic spaces H_r with projections, transfer operators and Laplacians."""

    __slots__ = ("c", "ip", "r_max", "spaces", "projections", "transfer", "page_maps",
                 "laplacians")

    def __init__(self, c: DoubleComplex, ip: InnerProduct, r_max, spaces=None,
                 projections=None, transfer=None, page_maps=None, laplacians=None):
        self.c = c
        self.ip = ip
        self.r_max = r_max
        self.spaces = {} if spaces is None else spaces                 # (r,p,q) -> Subspace H_r
        self.projections = {} if projections is None else projections  # (r,p,q) -> Matrix p_r
        self.transfer = {} if transfer is None else transfer           # (r,p,q) -> Matrix D_{r-1}
        self.page_maps = {} if page_maps is None else page_maps        # (r,p,q) -> Matrix d_r
        self.laplacians = {} if laplacians is None else laplacians     # (r,p,q) -> Matrix

    def space(self, r, p, q) -> Subspace:
        hit = self.spaces.get((r, p, q))
        if hit is None:
            return Subspace.zero(self.c.dim(p, q))
        return hit


def _orthogonal_projection(sub: Subspace, gram: Matrix) -> Matrix:
    n = sub.ambient_dim
    if sub.dim == 0:
        return Matrix.zero(n, n)
    b = sub.basis
    return b * (b.transpose() * gram * b).inverse() * b.transpose() * gram


def harmonic_tower(c: DoubleComplex, ip: InnerProduct | None = None, r_max=3,
                   ws: Workspace | None = None) -> HarmonicTower:
    """Inductive construction of the harmonic realisations of pages 1..r_max.

    Cross-checks on the way (any failure raises ConsistencyError):

    * dim H_r equals the page-r dimension in every bidegree,
    * ker(Laplacian_r) built from the explicit operator formula equals the
      inductively constructed H_r,
    * H_r equals (page-closed) ∩ (adjoint-side page-closed).
    """
    ip = ip or InnerProduct()
    ws = ws or Workspace(c)
    c = ws.c
    tower = HarmonicTower(c, ip, r_max)
    pages = page_dims(c, r_max, ws, conjugate=False)
    cells = [cell for cell in c.support()]
    grams = {cell: ip.gram(c, *cell) for cell in cells}
    greens = {}

    def gram_at(p, q):
        g = grams.get((p, q))
        if g is None:
            g = Matrix.identity(c.dim(p, q))
        return g

    # first Laplacian: d2 d2* + d2* d2
    for (p, q) in cells:
        lap = Matrix.zero(c.dim(p, q), c.dim(p, q))
        below = c.d2_at(p, q - 1)
        if below.cols:
            lap = lap + below * adjoint(below, gram_at(p, q - 1), gram_at(p, q))
        above = c.d2_at(p, q)
        if above.rows:
            lap = lap + adjoint(above, gram_at(p, q), gram_at(p, q + 1)) * above
        tower.laplacians[(1, p, q)] = lap
        h1 = kernel_basis(lap)
        tower.spaces[(1, p, q)] = h1
        tower.projections[(1, p, q)] = _orthogonal_projection(h1, gram_at(p, q))
        tower.transfer[(1, p, q)] = Matrix.identity(c.dim(p, q))

    def green(i, p, q):
        key = (i, p, q)
        hit = greens.get(key)
        if hit is None:
            lap = tower.laplacians.get((i, p, q))
            if lap is None:
                lap = Matrix.zero(c.dim(p, q), c.dim(p, q))
            hit = green_inverse(lap, gram_at(p, q))
            greens[key] = hit
        return hit

    def dim_at(p, q):
        return c.dim(p, q)

    for r in range(1, r_max + 1):
        for (p, q) in cells:
            if tower.spaces[(r, p, q)].dim != pages.dim(r, p, q):
                raise ConsistencyError(
                    f"harmonic space at {(p, q)} page {r} has dim "
                    f"{tower.spaces[(r, p, q)].dim}, page table says "
                    f"{pages.dim(r, p, q)}")
        if r == r_max:
            break
        # transfer operator D_{r}: one alternating descent per page index
        for (p, q) in cells:
            m = Matrix.identity(dim_at(p, q))
            cp, cq = p, q
            for i in range(r, 0, -1):
                step_d1 = c.d1_at(cp, cq)
                tgt = (cp + 1, cq - 1)
                if dim_at(*tgt) == 0 or step_d1.rows == 0:
                    m = Matrix.zero(dim_at(*tgt), dim_at(p, q))
                else:
                    down = adjoint(c.d2_at(cp + 1, cq - 1), gram_at(cp + 1, cq - 1),
                                   gram_at(cp + 1, cq))
                    m = green(i, *tgt) * down * step_d1 * m
                cp, cq = tgt
            tower.transfer[(r + 1, p, q)] = m

        # page map d_r = p_r d1 D_{r-1} p_r and the next Laplacian
        for (p, q) in cells:
            tp, tq = p + r, q - r + 1
            proj_src = tower.projections[(r, p, q)]
            dmid = tower.transfer[(r, p, q)]
            last = c.d1_at(p + r - 1, q - r + 1)
            if dim_at(tp, tq) == 0:
                tower.page_maps[(r, p, q)] = Matrix.zero(0, dim_at(p, q))
                continue
            proj_tgt = tower.projections[(r, tp, tq)]
            tower.page_maps[(r, p, q)] = proj_tgt * last * dmid * proj_src

        for (p, q) in cells:
            n = dim_at(p, q)
            lap = tower.laplacians[(r, p, q)]
            # incoming branch: (d1 D p_r)(d1 D p_r)*
            sp, sq = p - r, q + r - 1
            if dim_at(sp, sq):
                m_in = (c.d1_at(p - 1, q) * tower.transfer[(r, sp, sq)]
                        * tower.projections[(r, sp, sq)])
                lap = lap + m_in * adjoint(m_in, gram_at(sp, sq), gram_at(p, q))
            # outgoing branch: (p_r d1 D)*(p_r d1 D)
            tp, tq = p + r, q - r + 1
            if dim_at(tp, tq):
                m_out = (tower.projections[(r, tp, tq)]
                         * c.d1_at(p + r - 1, q - r + 1) * tower.transfer[(r, p, q)])
                lap = lap + adjoint(m_out, gram_at(p, q), gram_at(tp, tq)) * m_out
            tower.laplacians[(r + 1, p, q)] = lap

        for (p, q) in cells:
            h = tower.spaces[(r, p, q)]
            out_map = tower.page_maps.get((r, p, q))
            if out_map is not None and out_map.rows:
                h = subspace_intersection(h, kernel_basis(out_map))
            sp, sq = p - r, q + r - 1
            in_map = tower.page_maps.get((r, sp, sq))
            if in_map is not None and in_map.rows and dim_at(sp, sq):
                adj_in = adjoint(in_map, gram_at(sp, sq), gram_at(p, q))
                h = subspace_intersection(h, kernel_basis(adj_in))
            tower.spaces[(r + 1, p, q)] = h
            tower.projections[(r + 1, p, q)] = _orthogonal_projection(h, gram_at(p, q))
            if kernel_basis(tower.laplacians[(r + 1, p, q)]) != h:
                raise ConsistencyError(
                    f"Laplacian kernel and inductive harmonic space differ "
                    f"at {(p, q)}, page {r + 1}")
    return tower


class ThreeSpaceDecomposition:
    __slots__ = ("harmonic", "exact", "coexact", "orthogonal", "dims_add_up", "closed_splits")

    def __init__(self, harmonic: Subspace, exact: Subspace, coexact: Subspace, orthogonal,
                 dims_add_up, closed_splits):
        self.harmonic = harmonic
        self.exact = exact
        self.coexact = coexact
        self.orthogonal = orthogonal
        self.dims_add_up = dims_add_up
        self.closed_splits = closed_splits

    def ok(self):
        return self.orthogonal and self.dims_add_up and self.closed_splits


def _is_orthogonal(a: Subspace, b: Subspace, gram: Matrix) -> bool:
    if a.dim == 0 or b.dim == 0:
        return True
    return (a.basis.transpose() * gram * b.basis).is_zero()


def three_space_decomposition(c: DoubleComplex, ip: InnerProduct | None, r, p, q,
                              ws: Workspace | None = None,
                              tower: HarmonicTower | None = None) -> ThreeSpaceDecomposition:
    """Split A^{p,q} as harmonic ⊕ page-exact ⊕ adjoint-page-exact.

    The middle summand is C_r itself; the harmonic part together with it
    must be Z_r, and the three parts must be pairwise orthogonal and of full
    total dimension.  Any failed check is reported.
    """
    ip = ip or InnerProduct()
    ws = ws or Workspace(c)
    c = ws.c
    if tower is None:
        tower = harmonic_tower(c, ip, r, ws)
    h = tower.space(r, p, q)
    exact = ws.space(TowerKind.PAGE_EXACT, r, p, q)
    flip = flipped_adjoint_workspace(c, ip, ws)
    coexact = flip.space(TowerKind.PAGE_EXACT, r, c.pmax - p, c.qmax - q)
    gram = ip.gram(c, p, q)
    orthogonal = (_is_orthogonal(h, exact, gram)
                  and _is_orthogonal(h, coexact, gram)
                  and _is_orthogonal(exact, coexact, gram))
    dims_add_up = h.dim + exact.dim + coexact.dim == c.dim(p, q)
    z = ws.space(TowerKind.PAGE_CLOSED, r, p, q)
    closed_splits = subspace_sum(h, exact) == z
    return ThreeSpaceDecomposition(
        harmonic=h, exact=exact, coexact=coexact, orthogonal=orthogonal,
        dims_add_up=dims_add_up, closed_splits=closed_splits)


def bc_a_harmonic_spaces(c: DoubleComplex, ip: InnerProduct | None, r, p, q,
                         ws: Workspace | None = None):
    """Harmonic models of the Bott-Chern and Aeppli groups at (p,q), page r.

    Bott-Chern harmonic: killed by both differentials and adjoint-side
    two-tower closed.  Aeppli harmonic: two-tower closed and killed by both
    adjoints.  Their dimensions must reproduce the cohomology dimensions.
    """
    ip = ip or InnerProduct()
    ws = ws or Workspace(c)
    c = ws.c
    n = c.dim(p, q)
    if n == 0:
        pair = (Subspace.zero(0), Subspace.zero(0))
        return pair
    flip = flipped_adjoint_workspace(c, ip, ws)
    fp, fq = c.pmax - p, c.qmax - q
    ker_both = subspace_intersection(kernel_basis(c.d1_at(p, q)),
                                     kernel_basis(c.d2_at(p, q)))
    star_closed = _star_ddbar_closed(c, ip, r, p, q, ws)
    h_bc = subspace_intersection(ker_both, star_closed)
    ker_adj = subspace_intersection(kernel_basis(flip.c.d1_at(fp, fq)),
                                    kernel_basis(flip.c.d2_at(fp, fq)))
    h_a = subspace_intersection(ddbar_closed_space(c, r, p, q, ws), ker_adj)
    dims = _bca_cell(ws, r, p, q)
    if (h_bc.dim, h_a.dim) != dims:
        raise ConsistencyError(
            f"harmonic Bott-Chern/Aeppli dims ({h_bc.dim}, {h_a.dim}) at "
            f"{(p, q)} page {r} disagree with cohomology {dims}")
    return h_bc, h_a
