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
from bigraded.linalg import (LinalgError, Matrix, Subspace, class_coordinates,
                             extend_basis, image_basis, kernel_basis, map_subspace,
                             preimage, subspace_intersection, subspace_sum)

__all__ = [
    "TowerKind",
    "ConsistencyError",
    "Workspace",
    "memoised",
    "Invariants",
    "page_dims",
    "iterated_pages_oracle",
    "degeneration_page",
    "einfty_check",
]


class ConsistencyError(RuntimeError):
    """A provable relation failed on a valid input; the implementation is at fault."""


def _internal(what, r, at, fn, *args):
    """fn(*args) on a quotient, solve or inverse that the library set up itself.

    Such a step cannot fail on a valid complex, so a LinalgError there (a
    ContainmentError included) is raised again as a ConsistencyError that
    names `what`, the place `at` and the page r (None where there is none).
    """
    try:
        return fn(*args)
    except LinalgError as exc:
        page = "" if r is None else f", page {r}"
        raise ConsistencyError(f"{what} at {at}{page}: {exc}") from exc


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
    workspace of the swapped complex, `swapped`.  `swapped`, `total`,
    `betti` and `stable_page` are computed on first use, then read as is.
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

    @functools.cached_property
    def stable_page(self):
        """The first page from which no E_r of this orientation changes, at most max(span) + 1.

        It is max(a, b) for a, the first s >= 1 with runs_s = runs_{s-1},
        and b, the first s >= 2 with reaches_s = reaches_{s-1}.  A one-step
        recursion keeps its fixed point, and E_r reads runs_{r-1} and
        reaches_{r-1}, as BC_r and A_r (r >= 2) do in both orientations.
        Only cells with a nonzero d1 out of them are compared: elsewhere
        runs_s is the whole space, and reaches spaces are only read through
        their d1-image.  Runs shrink and reaches grow, so dimensions decide.
        """
        def fixed(kind, s):
            return all(self.space(kind, s, p, q).dim == self.space(kind, s - 1, p, q).dim
                       for p, q in self.c.d1)

        cap = max(self.c.span()) + 1
        a = next((s for s in range(1, cap) if fixed(TowerKind.RUNS, s)), cap)
        b = next((s for s in range(2, cap) if fixed(TowerKind.REACHES_ZERO, s)), cap)
        return max(a, b)

    def space(self, kind: TowerKind, r, p, q) -> Subspace:
        key = (kind, r, p, q)
        hit = self.spaces.get(key)
        if hit is None:
            hit = self.spaces[key] = _build_space(self, kind, r, p, q)
        return hit

    @memoised
    def page_reps(self, r, p, q) -> Matrix:
        """Deterministic representatives of a complement of C_r inside Z_r: e_r^{p,q} columns."""
        return _internal("E_r = Z_r / C_r", r, (p, q), extend_basis,
                         self.space(TowerKind.PAGE_EXACT, r, p, q),
                         self.space(TowerKind.PAGE_CLOSED, r, p, q))

    @memoised
    def dr_matrix(self, r, p, q) -> Matrix:
        """Matrix of d_r from the page basis at (p,q) to the one at (p+r, q-r+1)."""
        src = self.page_reps(r, p, q)
        tp, tq = p + r, q - r + 1
        dst = self.page_reps(r, tp, tq)
        if not src.cols or not dst.cols:
            return Matrix.zero(dst.cols, src.cols)
        return _internal("d_r image in E_r", r, (tp, tq), class_coordinates,
                         self.space(TowerKind.PAGE_EXACT, r, tp, tq), dst,
                         _dr_image(self, r, p, q, src))

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
        """Sum of the (r,p,q)-keyed table `tag` over all cells at page r."""
        return sum(v for (rr, _, _), v in getattr(self, tag).items() if rr == r)

    def degree_sums(self, tag, r):
        """{k: sum of the (r,p,q)-keyed table `tag` over p + q = k} at page r, without zeros."""
        sums = {}
        for (rr, p, q), v in getattr(self, tag).items():
            if rr == r:
                sums[p + q] = sums.get(p + q, 0) + v
        return {k: v for k, v in sums.items() if v}

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


def page_dims(c: DoubleComplex, r_max, ws: Workspace | None = None) -> Invariants:
    """Tables `e` of e_r^{p,q} = dim Z_r - dim C_r for r = 1..r_max, and `ebar` of conjugates."""
    ws = ws or Workspace(c)
    table = Invariants(r_max)
    for (p, q) in ws.c.support():
        for r in range(1, r_max + 1):
            d = ws.page_reps(r, p, q).cols
            if d:
                table.e[(r, p, q)] = d
            db = ws.swapped.page_reps(r, q, p).cols
            if db:
                table.ebar[(r, p, q)] = db
    return table


def _dr_image(ws: Workspace, r, p, q, alpha: Matrix) -> Matrix:
    """d1 u_{r-1} for lifts d1 alpha = d2 u_1, d1 u_i = d2 u_{i+1}; r = 1 is d1 alpha.

    `alpha` holds one element per column, and so does the result.  Each u_i
    is taken inside the runs space of length r-1-i at its cell, so the next
    lift always exists when alpha lies in Z_r.
    """
    c = ws.c
    v = c.d1_at(p, q) * alpha
    for i in range(1, r):
        cell = (p + i, q - i)
        runs = ws.space(TowerKind.RUNS, r - 1 - i, *cell).basis
        y = (c.d2_at(*cell) * runs).solve(v)
        if y is None:
            raise ConsistencyError(
                f"lift tower unsolvable for a page-{r} representative at {(p, q)}")
        v = c.d1_at(*cell) * (runs * y)
    return v


def iterated_pages_oracle(c: DoubleComplex, r_max, ws: Workspace | None = None) -> Invariants:
    """Second engine: first page from d2 cohomology, then rank-nullity of d_r.

    e_{r+1} = e_r - rank(d_r out) - rank(d_r in), starting from
    e_1 = dim ker d2 - rank d2.  Fills the `e` table only.
    """
    ws = ws or Workspace(c)
    c = ws.c
    table = Invariants(r_max)
    current = {(p, q): c.dim(p, q) - c.d2_at(p, q).rank() - c.d2_at(p, q - 1).rank()
               for (p, q) in c.support()}
    for r in range(1, r_max + 1):
        current = {cell: v for cell, v in current.items() if v}
        table.e.update(((r,) + cell, v) for cell, v in current.items())
        if r < r_max:
            current = {(p, q): v - ws.dr_matrix(r, p, q).rank()
                               - ws.dr_matrix(r, p - r, q + r - 1).rank()
                       for (p, q), v in current.items()}
    return table


def degeneration_page(c: DoubleComplex, ws: Workspace | None = None):
    """Smallest r with all page differentials d_s, s >= r, identically zero.

    Page totals drop exactly while some d_s is nonzero, and the pages are
    fixed from `ws.stable_page` on.
    """
    ws = ws or Workspace(c)
    totals = [sum(ws.page_reps(r, p, q).cols for p, q in ws.c.support())
              for r in range(1, ws.stable_page + 1)]
    return totals.index(totals[-1]) + 1


class ConvergenceReport:
    __slots__ = ("ok", "per_degree")

    def __init__(self, ok, per_degree):
        self.ok = ok
        # k -> (sum of stable page dims over p + q = k, betti number), per degree held
        self.per_degree = per_degree

    def __bool__(self):
        return self.ok


def einfty_check(c: DoubleComplex, ws: Workspace | None = None) -> ConvergenceReport:
    """Stable page dimensions summed along antidiagonals must be the Betti numbers.

    This holds unconditionally for bounded complexes, so a failure here
    means the implementation (not the input) is broken.
    """
    ws = ws or Workspace(c)
    stable = {}
    for p, q in ws.c.support():
        d = ws.page_reps(ws.stable_page, p, q).cols
        if d:
            stable[p + q] = stable.get(p + q, 0) + d
    per_degree = {k: (stable.get(k, 0), ws.betti.get(k, 0))
                  for k in sorted(stable.keys() | ws.betti)}
    return ConvergenceReport(all(e == b for e, b in per_degree.values()), per_degree)
