"""Spectral sequence of the column filtration, computed by exact tower recursions.

For a bounded double complex the page-r space at (p,q) is Z_r/C_r, where

* Z_r collects the elements killed by d2 whose d1-image can be continued
  through r-1 alternating lifts (d1 x = d2 u_1, d1 u_1 = d2 u_2, ...), and
* C_r = im d2 + d1(elements whose d2-image reaches zero in at most r-1
  alternating steps).

Both towers obey one-step recursions, built one step at a time and
memoised per (step, cell) on the `Workspace`:

* runs_0 = A^{p,q}, runs_s(p,q) = d1^{-1}(d2 runs_{s-1}(p+1,q-1));
* reaches_1 = ker d2, reaches_s(a,b) = d2^{-1}(d1 reaches_{s-1}(a-1,b+1));

so Z_r = ker d2 ∩ runs_{r-1} and C_r = im d2 + d1 reaches_{r-1}(p-1,q).
The page differential d_r sends the class of x to the class of d1 u_{r-1}
for any choice of lifts; the class is independent of all choices, which the
test suite also verifies.

A second, independent route to the page dimensions iterates cohomology:
compute the first page directly, then repeatedly take kernels modulo images
of the page differentials.  `page_dims` and `iterated_pages_oracle` must
agree on every input.

Everything here is orientation-symmetric: the conjugate pages (row
filtration) and the conjugate towers are the same constructions run on the
swapped complex, whose workspace is `ws.swapped`; the conjugate tower space
at (p,q) is ``ws.swapped.space(kind, r, q, p)``.
"""

from __future__ import annotations

import functools

from bigraded.bicomplex import (DoubleComplex, de_rham_dims, require_valid,
                                swap_complex, total_complex)
from bigraded.linalg import (Matrix, Subspace, class_coordinates, extend_basis,
                             image_basis, kernel_basis, map_subspace, preimage,
                             quotient_dim, subspace_intersection, subspace_sum)

__all__ = [
    "TowerKind",
    "ConsistencyError",
    "Workspace",
    "memoised",
    "tower_space",
    "Invariants",
    "page_dims",
    "dr_matrix",
    "iterated_pages_oracle",
    "degeneration_page",
    "einfty_check",
]


class ConsistencyError(RuntimeError):
    """Two provably-equal computations disagreed; the implementation is at fault."""


class TowerKind:
    """Names of the tower spaces; plain strings, so `Workspace.spaces` keys hash in C."""

    PAGE_CLOSED = "page_closed"    # Z_r
    PAGE_EXACT = "page_exact"      # C_r
    REACHES_ZERO = "reaches_zero"  # d2-image reaches 0 in <= s steps
    RUNS = "runs"                  # d1-image continues through s lifts


_MISSING = object()


def memoised(fn):
    """`fn(ws, *args)` cached in `ws.memo` under (fn's qualified name,) + args.

    The arguments must be values (ints, `TowerKind` names, tuples of them or
    of (cell, Matrix) pairs), so a key never depends on object identity and
    two accessors never share an entry.  Nothing else reads or writes
    `Workspace.memo`.
    """
    tag = f"{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def cached(ws, *args):
        key = (tag,) + args
        hit = ws.memo.get(key, _MISSING)
        if hit is _MISSING:
            hit = ws.memo[key] = fn(ws, *args)
        return hit
    return cached


class Workspace:
    """Per-complex cache of everything derived from one validated complex.

    `spaces` holds the tower spaces of this orientation, keyed by
    (kind, r, p, q) and filled by `space`; the conjugate towers live in the
    workspace of the swapped complex, `swapped`.  `swapped`, `total` and
    `betti` are computed on first use and then read as plain attributes.
    Every other derived value (page representatives, page differentials,
    and the values of the higher modules) is a `memoised` accessor kept in
    `memo`.  The complex is validated once on entry; all cached values are
    pure functions of it, so the workspace can be shared freely.
    """

    def __init__(self, c: DoubleComplex, checked=False):
        if not checked:
            require_valid(c)
        self.c = c
        self.spaces = {}
        self.memo = {}

    @functools.cached_property
    def swapped(self):
        return Workspace(swap_complex(self.c), checked=True)

    @functools.cached_property
    def total(self):
        return total_complex(self.c)

    @functools.cached_property
    def betti(self):
        """Betti numbers of the total complex, degree -> b_k; read, never changed."""
        return de_rham_dims(self.total)

    def space(self, kind: TowerKind, r, p, q) -> Subspace:
        key = (kind, r, p, q)
        hit = self.spaces.get(key)
        if hit is None:
            hit = self.spaces[key] = _build_space(self, kind, r, p, q)
        return hit

    @memoised
    def page_reps(self, r, p, q):
        """Deterministic representatives of a complement of C_r inside Z_r."""
        z = self.space(TowerKind.PAGE_CLOSED, r, p, q)
        cc = self.space(TowerKind.PAGE_EXACT, r, p, q)
        return extend_basis(cc, z)

    @memoised
    def dr_matrix(self, r, p, q) -> Matrix:
        """Matrix of d_r from the page basis at (p,q) to the one at (p+r, q-r+1)."""
        src = self.page_reps(r, p, q)
        tp, tq = p + r, q - r + 1
        dst = self.page_reps(r, tp, tq)
        if not src or not dst:
            return Matrix.zero(len(dst), len(src))
        cc_dst = self.space(TowerKind.PAGE_EXACT, r, tp, tq)
        cols = [class_coordinates(cc_dst, dst, _dr_image(self, r, p, q, alpha))
                for alpha in src]
        return Matrix.from_columns(cols, len(dst))

    @memoised
    def total_image(self, k) -> Subspace:
        """Image of the total differential landing in degree k."""
        return image_basis(self.total.differential(k - 1))


def _build_space(ws, kind, r, p, q):
    """One step of the tower recursions; lower steps come from `ws.space`."""
    lowest = 0 if kind == TowerKind.RUNS else 1
    if r < lowest:
        raise ValueError(f"{kind} step count must be >= {lowest}")
    c = ws.c
    n = c.dim(p, q)
    if n == 0:
        return Subspace.zero(0)
    if kind == TowerKind.RUNS:
        if r == 0:
            return Subspace.full(n)
        lower = ws.space(TowerKind.RUNS, r - 1, p + 1, q - 1)
        return preimage(c.d1_at(p, q), map_subspace(c.d2_at(p + 1, q - 1), lower))
    if kind == TowerKind.REACHES_ZERO:
        if r == 1:
            return kernel_basis(c.d2_at(p, q))
        lower = ws.space(TowerKind.REACHES_ZERO, r - 1, p - 1, q + 1)
        return preimage(c.d2_at(p, q), map_subspace(c.d1_at(p - 1, q + 1), lower))
    if kind == TowerKind.PAGE_CLOSED:
        closed = ws.space(TowerKind.REACHES_ZERO, 1, p, q)  # ker d2
        if r == 1:
            return closed
        return subspace_intersection(closed, ws.space(TowerKind.RUNS, r - 1, p, q))
    if kind == TowerKind.PAGE_EXACT:
        im2 = image_basis(c.d2_at(p, q - 1))
        if r == 1 or c.dim(p - 1, q) == 0:
            return im2
        e = ws.space(TowerKind.REACHES_ZERO, r - 1, p - 1, q)
        return subspace_sum(im2, map_subspace(c.d1_at(p - 1, q), e))
    raise ValueError(f"unhandled tower kind {kind}")


def tower_space(c: DoubleComplex, kind: TowerKind, r, p, q, ws: Workspace | None = None) -> Subspace:
    """Public entry: any of the tower-defined subspaces of the (p,q) component."""
    ws = ws or Workspace(c)
    return ws.space(kind, r, p, q)


class Invariants:
    """The invariant tables of one complex or one shape, each without zero entries.

    ``dims`` maps (p,q) to the component dimension, ``e`` and ``ebar``
    (r,p,q) to the page and conjugate page dimensions, ``bc`` and ``a``
    (r,p,q) to the Bott-Chern and Aeppli dimensions, and ``b`` the degree k
    to the Betti number.  Tables of direct summands `add` up to the tables
    of the sum.
    """

    TAGS = ("dims", "e", "ebar", "bc", "a", "b")
    __slots__ = ("r_max",) + TAGS

    def __init__(self, r_max):
        self.r_max = r_max
        for tag in self.TAGS:
            setattr(self, tag, {})

    def dim(self, r, p, q):
        """Dimension of page r at (p,q)."""
        return self.e.get((r, p, q), 0)

    def total(self, tag, r):
        """Sum of the (r,p,q)-keyed table `tag` over the grid at page r."""
        return sum(v for (rr, _, _), v in getattr(self, tag).items() if rr == r)

    def antidiagonal(self, tag, r, k):
        """Sum of the (r,p,q)-keyed table `tag` over p + q = k at page r."""
        return sum(v for (rr, p, q), v in getattr(self, tag).items() if rr == r and p + q == k)

    def add(self, other, times=1):
        """Add `times` copies of every table of `other` into this one; returns self."""
        for tag in self.TAGS:
            acc = getattr(self, tag)
            for key, v in getattr(other, tag).items():
                n = acc.get(key, 0) + times * v
                if n:
                    acc[key] = n
                else:
                    del acc[key]
        return self


@memoised
def _page_dim(ws: Workspace, r, p, q):
    """dim Z_r - dim C_r at (p,q); the conjugate page is `_page_dim(ws.swapped, r, q, p)`."""
    return quotient_dim(ws.space(TowerKind.PAGE_CLOSED, r, p, q),
                        ws.space(TowerKind.PAGE_EXACT, r, p, q))


def page_dims(c: DoubleComplex, r_max, ws: Workspace | None = None, conjugate=True) -> Invariants:
    """Tables `e` of e_r^{p,q} = dim Z_r - dim C_r for r = 1..r_max, and `ebar` of conjugates."""
    ws = ws or Workspace(c)
    table = Invariants(r_max)
    for (p, q) in ws.c.support():
        for r in range(1, r_max + 1):
            d = _page_dim(ws, r, p, q)
            if d:
                table.e[(r, p, q)] = d
            if conjugate:
                db = _page_dim(ws.swapped, r, q, p)
                if db:
                    table.ebar[(r, p, q)] = db
    return table


def _dr_image(ws: Workspace, r, p, q, alpha):
    """d1 u_{r-1} for lifts d1 alpha = d2 u_1, d1 u_i = d2 u_{i+1}; r = 1 is d1 alpha.

    Each u_i is taken inside the runs space of length r-1-i at its cell, so
    the next lift always exists when alpha lies in Z_r.
    """
    c = ws.c
    v = c.d1_at(p, q).apply(alpha)
    for i in range(1, r):
        cell = (p + i, q - i)
        runs = ws.space(TowerKind.RUNS, r - 1 - i, *cell).basis
        y = (c.d2_at(*cell) * runs).solve(Matrix.from_columns([v], len(v)))
        if y is None:
            raise ConsistencyError(
                f"lift tower unsolvable for a page-{r} representative at {(p, q)}")
        v = c.d1_at(*cell).apply(runs.apply(y.column(0)))
    return v


def dr_matrix(c: DoubleComplex, r, p, q, ws: Workspace | None = None) -> Matrix:
    ws = ws or Workspace(c)
    return ws.dr_matrix(r, p, q)


def effective_page_bound(c: DoubleComplex):
    """Past this page index every differential vanishes for bidegree reasons."""
    return max(1, min(c.pmax, c.qmax + 1))


def iterated_pages_oracle(c: DoubleComplex, r_max, ws: Workspace | None = None) -> Invariants:
    """Second engine: first page from d2 cohomology, then rank-nullity of d_r.

    e_{r+1} = e_r - rank(d_r out) - rank(d_r in), starting from
    e_1 = dim ker d2 - rank d2.  Fills the `e` table only.
    """
    ws = ws or Workspace(c)
    c = ws.c
    table = Invariants(r_max)
    current = {}
    for (p, q) in c.support():
        e1 = (c.dim(p, q) - c.d2_at(p, q).rank()) - c.d2_at(p, q - 1).rank()
        if e1:
            current[(p, q)] = e1
    bound = effective_page_bound(c)
    for r in range(1, r_max + 1):
        for (p, q), v in current.items():
            if v:
                table.e[(r, p, q)] = v
        if r >= r_max:
            break
        nxt = {}
        for (p, q), v in current.items():
            drop = 0
            if r <= bound:
                drop += ws.dr_matrix(r, p, q).rank()
                drop += ws.dr_matrix(r, p - r, q + r - 1).rank()
            if v - drop:
                nxt[(p, q)] = v - drop
        current = nxt
    return table


def degeneration_page(c: DoubleComplex, ws: Workspace | None = None):
    """Smallest r with all page differentials d_s, s >= r, identically zero.

    Bounded complexes stabilise no later than min(pmax, qmax+1)+1; page
    totals are strictly decreasing exactly while some d_s is nonzero.
    """
    ws = ws or Workspace(c)
    bound = effective_page_bound(ws.c)
    table = page_dims(ws.c, bound + 1, ws, conjugate=False)
    last_drop = 0
    for r in range(1, bound + 1):
        if table.total("e", r) != table.total("e", r + 1):
            last_drop = r
    return last_drop + 1


class ConvergenceReport:
    __slots__ = ("ok", "per_degree")

    def __init__(self, ok, per_degree):
        self.ok = ok
        # k -> (sum of stable page dims on the antidiagonal, betti number)
        self.per_degree = per_degree

    def __bool__(self):
        return self.ok


def einfty_check(c: DoubleComplex, ws: Workspace | None = None) -> ConvergenceReport:
    """Stable page dimensions summed along antidiagonals must be the Betti numbers.

    This holds unconditionally for bounded complexes, so a failure here
    means the implementation (not the input) is broken.
    """
    ws = ws or Workspace(c)
    bound = effective_page_bound(ws.c)
    table = page_dims(ws.c, bound + 1, ws, conjugate=False)
    betti = ws.betti
    per_degree = {}
    ok = True
    for k in range(ws.c.pmax + ws.c.qmax + 1):
        stable = table.antidiagonal("e", bound + 1, k)
        b = betti.get(k, 0)
        per_degree[k] = (stable, b)
        if stable != b:
            ok = False
    return ConvergenceReport(ok, per_degree)
