"""Finite-dimensional harmonic theory for the pages, all exact over Q.

A rational positive-definite Gram matrix per bidegree plays the role of an
inner product.  Adjoints are G_src^{-1} m^T G_dst; with identity Grams they
are plain transposes and everything stays integral.

The harmonic tower realises each page inside the complex itself:

    H_1 = ker(d2 d2* + d2* d2),
    d_r = p_r d1 D_r p_r,
    H_{r+1} = H_r ∩ ker d_r ∩ ker d_r*,

where p_r projects orthogonally onto H_r and the transfer operator D_r
carries (p,q) to (p+r-1, q-r+1) by the one-step recursion

    D_1 = 1,   D_{r+1}(p,q) = D_r(p+1,q-1) L_r^+(p+1,q-1) d2* d1(p,q),

one product per page and cell.  L_r^+ is the Green inverse of the r-th
Laplacian (zero on its kernel, the true inverse on its image), itself one
product G = B M^-2 S L: B is the unit-pivot basis of im L, S selects B's
pivot rows and M = S L B.  Each H_r is isomorphic to the page-r space, so
its dimension must equal the page dimension; the Laplacian route
ker L_{r+1} is computed as well and compared, giving two independent
constructions of the same space.

Star towers (the adjoint-side lift conditions) are obtained for free by
running the ordinary tower machinery on the flipped adjoint complex: take
adjoints of all maps and reindex (p,q) -> (pmax-p, qmax-q), which is again a
valid double complex on the same underlying components.
"""

from __future__ import annotations

from bigraded.bca import _bca_cell, closed_pure, ddbar_closed
from bigraded.bicomplex import DoubleComplex
from bigraded.linalg import (LinalgError, Matrix, Subspace, image_basis,
                             kernel_basis, subspace_intersection, subspace_sum)
from bigraded.spectral import ConsistencyError, TowerKind, Workspace, _internal, memoised

__all__ = [
    "InnerProduct",
    "adjoint",
    "green_inverse",
    "flipped_adjoint_workspace",
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


def green_inverse(op: Matrix) -> Matrix:
    """Inverse of an operator on its image, zero on its kernel: G = B M^-2 S op.

    B is the unit-pivot basis of im(op) and S selects B's pivot rows, so
    S B = 1, and M = S op B is op on im(op) in B's coordinates.  For any x,
    S op x is the coordinate vector of op x; one factor M^-1 turns it into
    that of x's component in im(op), the other inverts op there.  M is
    singular exactly when ker(op) ∩ im(op) ≠ 0, which no self-adjoint
    operator allows, so that raises ConsistencyError.  Exact throughout.
    """
    n = op.rows
    if op.cols != n:
        raise LinalgError("green_inverse: operator must be square")
    im = image_basis(op)
    select = Matrix.identity(n).select(im.pivot_rows).transpose()
    try:
        m_inv = (select * op * im.basis).inverse()
    except LinalgError as exc:
        raise ConsistencyError("green_inverse: kernel and image of the operator meet") from exc
    return im.basis * (m_inv * m_inv * (select * op))


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
    d1 = {(P - p - 1, Qm - q): adjoint(m, ip.gram(c, p, q), ip.gram(c, p + 1, q))
          for (p, q), m in c.d1.items()}
    d2 = {(P - p, Qm - q - 1): adjoint(m, ip.gram(c, p, q), ip.gram(c, p, q + 1))
          for (p, q), m in c.d2.items()}
    return Workspace(DoubleComplex(c.name + ".adjoint-flip", P, Qm, dims, d1, d2))


class HarmonicTower:
    """Harmonic spaces H_r with projections, transfer operators and Laplacians."""

    __slots__ = ("c", "ip", "r_max", "spaces", "projections", "transfer", "page_maps",
                 "laplacians")

    def __init__(self, c: DoubleComplex, ip: InnerProduct, r_max):
        self.c = c
        self.ip = ip
        self.r_max = r_max
        self.spaces = {}       # (r,p,q) -> Subspace H_r
        self.projections = {}  # (r,p,q) -> Matrix p_r
        self.transfer = {}     # (r,p,q) -> Matrix D_r
        self.page_maps = {}    # (r,p,q) -> Matrix d_r
        self.laplacians = {}   # (r,p,q) -> Matrix

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
      inductively constructed H_r.

    That H_r also equals (page-closed) ∩ (adjoint-side page-closed) is not
    checked here; `tests/test_hodge.py` checks it.
    """
    ip = ip or InnerProduct()
    ws = ws or Workspace(c)
    c = ws.c
    tower = HarmonicTower(c, ip, r_max)
    cells = c.support()

    def adj(m, src, dst):
        return adjoint(m, ip.gram(c, *src), ip.gram(c, *dst))

    def settle(r, p, q, h):
        e = ws.page_reps(r, p, q).cols
        if h.dim != e:
            raise ConsistencyError(
                f"harmonic space at {(p, q)} page {r} has dim {h.dim}, the page has dim {e}")
        tower.spaces[(r, p, q)] = h
        tower.projections[(r, p, q)] = _internal("orthogonal projection onto H_r", r, (p, q),
                                                 _orthogonal_projection, h, ip.gram(c, p, q))

    # first Laplacian: d2 d2* + d2* d2
    for (p, q) in cells:
        below, above = c.d2_at(p, q - 1), c.d2_at(p, q)
        lap = (below * adj(below, (p, q - 1), (p, q))
               + adj(above, (p, q), (p, q + 1)) * above)
        tower.laplacians[(1, p, q)] = lap
        tower.transfer[(1, p, q)] = Matrix.identity(c.dim(p, q))
        settle(1, p, q, kernel_basis(lap))

    for r in range(1, r_max):
        lift = {}     # d1 D_r: (p,q) -> (p+r, q-r+1)
        lifted = {}   # d1 D_r p_r, the incoming branch of the next Laplacian
        for (p, q) in cells:
            # D_{r+1}(p,q) = D_r(p+1,q-1) L_r^+(p+1,q-1) d2* d1(p,q)
            mid = (p + 1, q - 1)
            if c.dim(*mid) and c.dim(p + 1, q):
                step = (green_inverse(tower.laplacians[(r,) + mid])
                        * adj(c.d2_at(*mid), mid, (p + 1, q)) * c.d1_at(p, q))
                tower.transfer[(r + 1, p, q)] = tower.transfer[(r,) + mid] * step
            else:
                tower.transfer[(r + 1, p, q)] = Matrix.zero(c.dim(p + r, q - r), c.dim(p, q))
            # page map d_r = p_r d1 D_r p_r
            tgt = (p + r, q - r + 1)
            lift[(p, q)] = c.d1_at(p + r - 1, q - r + 1) * tower.transfer[(r, p, q)]
            lifted[(p, q)] = lift[(p, q)] * tower.projections[(r, p, q)]
            tower.page_maps[(r, p, q)] = (tower.projections[(r,) + tgt] * lifted[(p, q)]
                                          if c.dim(*tgt) else Matrix.zero(0, c.dim(p, q)))

        # next Laplacian: + (d1 D p_r)(d1 D p_r)* from (p-r, q+r-1)
        #                 + (p_r d1 D)*(p_r d1 D) to (p+r, q-r+1);
        # next harmonic space: H_r ∩ ker d_r ∩ ker d_r*
        for (p, q) in cells:
            src, tgt = (p - r, q + r - 1), (p + r, q - r + 1)
            lap = tower.laplacians[(r, p, q)]
            h = tower.spaces[(r, p, q)]
            if c.dim(*src):
                lap = lap + lifted[src] * adj(lifted[src], src, (p, q))
                h = subspace_intersection(
                    h, kernel_basis(adj(tower.page_maps[(r,) + src], src, (p, q))))
            if c.dim(*tgt):
                m_out = tower.projections[(r,) + tgt] * lift[(p, q)]
                lap = lap + adj(m_out, (p, q), tgt) * m_out
                h = subspace_intersection(h, kernel_basis(tower.page_maps[(r, p, q)]))
            tower.laplacians[(r + 1, p, q)] = lap
            if kernel_basis(lap) != h:
                raise ConsistencyError(
                    f"Laplacian kernel and inductive harmonic space differ "
                    f"at {(p, q)}, page {r + 1}")
            settle(r + 1, p, q, h)
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
    coexact = flipped_adjoint_workspace(c, ip, ws).space(TowerKind.PAGE_EXACT, r,
                                                         c.pmax - p, c.qmax - q)
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
    flip = flipped_adjoint_workspace(c, ip, ws)
    fp, fq = c.pmax - p, c.qmax - q
    h_bc = subspace_intersection(closed_pure(ws, p, q), ddbar_closed(flip, r, fp, fq))
    h_a = subspace_intersection(ddbar_closed(ws, r, p, q), closed_pure(flip, fp, fq))
    dims = _bca_cell(ws, r, p, q)
    if (h_bc.dim, h_a.dim) != dims:
        raise ConsistencyError(
            f"harmonic Bott-Chern/Aeppli dims ({h_bc.dim}, {h_a.dim}) at "
            f"{(p, q)} page {r} disagree with cohomology {dims}")
    return h_bc, h_a
