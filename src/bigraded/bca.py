"""Higher-page Bott-Chern and Aeppli cohomology and the page-r del-delbar verdicts.

For page index r the two groups at (p,q) are

    BC_r = (ker d1 ∩ ker d2) / (page-r ddbar-exact elements)
    A_r  = (page-r ddbar-closed elements) / (im d1 + im d2)

where "page-r ddbar-closed" strengthens ker(d1 d2) by requiring both
one-sided lift towers of length r-1, and "page-r ddbar-exact" weakens
im(d1 d2) by d1(reaches-zero) + im(d1 d2) + d2(reaches-zero, swapped).
At r = 1 both specialise to the classical Bott-Chern and Aeppli groups.

The page-(r-1) del-delbar property of a complex is decided here through
several criteria that are all computed and compared:

    (B) the identity-induced map BC_r -> A_r is bijective everywhere,
    (C) BC_r and A_r have equal antidiagonal dimension sums,
    (D) BC_r -> A_r is injective everywhere,
    (E) for d-closed pure elements, the four exactness notions
        (d-exact, page-exact, conjugate-page-exact, ddbar-exact) coincide,
    (F) im(d1 d2) = d1(Z_r) and C_r ∩ ker d = im d in every bidegree,
        checked in both orientations (d1/d2 exchanged),

plus, when available, the zigzag-structure criterion.  For every bounded
complex (B), (F) and the structure criterion are equivalent and decide the
verdict: all three are additive over direct sums and fail on every
indecomposable that violates the property, so a disagreement among them
raises ConsistencyError.  (C), (D) and (E) are implied by the verdict —
with (D) equivalent to (E) unconditionally — but not conversely.  An odd
zigzag with both outer arrows missing satisfies (D)/(E) once r is large
enough, and summing it with a complementary odd zigzag with both arrows
present balances every antidiagonal dimension count, satisfying (C).
Such gaps are reported as ``duality_gap``, never as errors.

A perfect compatible pairing (e.g. on a complex plus its reindexed dual;
on compact complex manifolds the analytic Serre-type pairing) restores
(D) and (E): injectivity everywhere plus the pairing's total dimension
equality forces bijectivity.  It does not rescue (C), whose cancellations
can be arranged self-dually.  The pairing statement that stays decisive is
non-degeneracy of the Bott-Chern x Bott-Chern pairing, which the pairing
module compares against this verdict and enforces.
"""

from __future__ import annotations

from bigraded.bicomplex import DoubleComplex
from bigraded.linalg import (Matrix, Subspace, _span, class_coordinates, extend_basis,
                             image_basis, kernel_basis, map_subspace,
                             subspace_intersection, subspace_sum)
from bigraded.spectral import (ConsistencyError, Invariants, TowerKind, Workspace,
                               _internal, memoised, page_dims)

__all__ = [
    "ddbar_closed",
    "ddbar_exact",
    "bca_dims",
    "CanonicalMaps",
    "canonical_maps",
    "PageDdbarVerdict",
    "page_ddbar_verdict",
    "InequalityReport",
    "inequality_check",
]


# ---------------------------------------------------------------------------
# memoised building blocks


@memoised
def closed_pure(ws: Workspace, p, q) -> Subspace:
    """ker d1 ∩ ker d2 at (p,q): the d-closed pure elements."""
    c = ws.c
    if c.dim(p, q) == 0:
        return Subspace.zero(0)
    return subspace_intersection(kernel_basis(c.d1_at(p, q)),
                                 kernel_basis(c.d2_at(p, q)))


@memoised
def im_both(ws: Workspace, p, q) -> Subspace:
    """im d1 + im d2 landing at (p,q)."""
    c = ws.c
    if c.dim(p, q) == 0:
        return Subspace.zero(0)
    return subspace_sum(image_basis(c.d1_at(p - 1, q)),
                        image_basis(c.d2_at(p, q - 1)))


@memoised
def im_dd(ws: Workspace, p, q) -> Subspace:
    """Image of the composite d1 d2 landing at (p,q)."""
    c = ws.c
    if c.dim(p, q) == 0:
        return Subspace.zero(0)
    return image_basis(c.d1_at(p - 1, q) * c.d2_at(p - 1, q - 1))


@memoised
def exact_pure(ws: Workspace, p, q) -> Subspace:
    """Pure (p,q) elements that are exact for the total differential.

    Computed as (im D) ∩ A^{p,q} inside the total complex: once the echelon
    rows of im D are reduced with the other components' coordinates first,
    the rows that vanish on those coordinates span the meet.
    """
    n = ws.c.dim(p, q)
    if n == 0:
        return Subspace.zero(0)
    k = p + q
    off, _ = ws.total.block_offset(k, p, q)
    rest = ws.total.dim(k) - n
    reduced = _span([row[:off] + row[off + n:] + row[off:off + n]
                     for row in ws.total_image(k).echelon], rest + n)
    return _span([row[rest:] for row in reduced.echelon if not any(row[:rest])], n)


@memoised
def ddbar_closed(ws: Workspace, r, p, q) -> Subspace:
    """Page-r ddbar-closed elements at (p,q).

    r = 1 is ker(d1 d2); r >= 2 intersects the two one-sided lift towers of
    length r-1 (one for each differential), a condition that grows stronger
    with r.
    """
    c = ws.c
    if c.dim(p, q) == 0:
        return Subspace.zero(0)
    if r == 1:
        return kernel_basis(c.d1_at(p, q + 1) * c.d2_at(p, q))
    return subspace_intersection(ws.space(TowerKind.RUNS, r - 1, p, q),
                                 ws.swapped.space(TowerKind.RUNS, r - 1, q, p))


@memoised
def ddbar_exact(ws: Workspace, r, p, q) -> Subspace:
    """Page-r ddbar-exact elements at (p,q).

    r = 1 is im(d1 d2); r >= 2 adds d1 and d2 images of the reaches-zero
    towers of length r-1, a condition that grows weaker with r.
    """
    c = ws.c
    if c.dim(p, q) == 0:
        return Subspace.zero(0)
    out = im_dd(ws, p, q)
    if r == 1:
        return out
    if c.dim(p - 1, q):
        e = ws.space(TowerKind.REACHES_ZERO, r - 1, p - 1, q)
        out = subspace_sum(out, map_subspace(c.d1_at(p - 1, q), e))
    if c.dim(p, q - 1):
        e = ws.swapped.space(TowerKind.REACHES_ZERO, r - 1, q - 1, p)
        out = subspace_sum(out, map_subspace(c.d2_at(p, q - 1), e))
    return out


@memoised
def bc_reps(ws: Workspace, r, p, q) -> Matrix:
    """Deterministic representatives of BC_r at (p,q), as columns."""
    return _internal("BC_r = (ker d1 ∩ ker d2) / ddbar-exact", r, (p, q), extend_basis,
                     ddbar_exact(ws, r, p, q), closed_pure(ws, p, q))


@memoised
def a_reps(ws: Workspace, r, p, q) -> Matrix:
    """Deterministic representatives of A_r at (p,q), as columns."""
    return _internal("A_r = ddbar-closed / (im d1 + im d2)", r, (p, q), extend_basis,
                     im_both(ws, p, q), ddbar_closed(ws, r, p, q))


@memoised
def de_rham_reps(ws: Workspace, k) -> Matrix:
    """Representatives of total-complex cohomology in degree k, as columns."""
    return _internal("H^k = ker D / im D", None, f"degree {k}", extend_basis,
                     ws.total_image(k), kernel_basis(ws.total.differential(k)))


# ---------------------------------------------------------------------------
# dimensions


def _bca_cell(ws: Workspace, r, p, q):
    """(dim BC_r, dim A_r) at (p,q): the column counts of the representatives.

    Both quotients are checked first, by the scan that picks the
    representatives; a non-nested pair there is an implementation bug and
    surfaces as ConsistencyError.
    """
    return bc_reps(ws, r, p, q).cols, a_reps(ws, r, p, q).cols


def bca_dims(c: DoubleComplex, r_max, ws: Workspace | None = None) -> Invariants:
    """Tables `bc` and `a` of the Bott-Chern and Aeppli dimensions for r = 1..r_max."""
    ws = ws or Workspace(c)
    table = Invariants(r_max)
    for (p, q) in ws.c.support():
        for r in range(1, r_max + 1):
            bc, a = _bca_cell(ws, r, p, q)
            if bc:
                table.bc[(r, p, q)] = bc
            if a:
                table.a[(r, p, q)] = a
    return table


# ---------------------------------------------------------------------------
# canonical comparison maps


class CanonicalMaps:
    """Identity-induced maps between BC_r, the pages, de Rham and A_r.

    All matrices are with respect to the deterministic representative bases;
    keys are bidegrees.  `canonical_maps` returns them only after checking
    the relations the definitions force: both triangle composites through
    the pages and through de Rham equal the direct BC -> A map, BC_1 ->> BC_r
    is onto and A_r -> A_1 is one-to-one.
    """

    __slots__ = ("r", "bc_to_page", "bc_to_conj", "bc_to_de_rham", "bc_to_a", "page_to_a",
                 "conj_to_a", "de_rham_to_a", "bc1_to_bcr", "ar_to_a1")

    def __init__(self, r, bc_to_page, bc_to_conj, bc_to_de_rham, bc_to_a, page_to_a,
                 conj_to_a, de_rham_to_a, bc1_to_bcr, ar_to_a1):
        self.r = r
        self.bc_to_page = bc_to_page
        self.bc_to_conj = bc_to_conj
        self.bc_to_de_rham = bc_to_de_rham
        self.bc_to_a = bc_to_a
        self.page_to_a = page_to_a
        self.conj_to_a = conj_to_a
        self.de_rham_to_a = de_rham_to_a
        self.bc1_to_bcr = bc1_to_bcr
        self.ar_to_a1 = ar_to_a1


def canonical_maps(c: DoubleComplex, r, ws: Workspace | None = None) -> CanonicalMaps:
    """The canonical maps at page r; a relation they must satisfy that fails raises."""
    ws = ws or Workspace(c)
    c = ws.c
    t = ws.total
    out = dict(bc_to_page={}, bc_to_conj={}, bc_to_de_rham={}, bc_to_a={},
               page_to_a={}, conj_to_a={}, de_rham_to_a={},
               bc1_to_bcr={}, ar_to_a1={})

    def classes(name, denominator, reps, vectors):
        out[name][cell] = _internal(f"the {name} class coordinates", r, cell,
                                    class_coordinates, denominator, reps, vectors)
        return out[name][cell]

    for cell in c.support():
        p, q = cell
        k = p + q
        bc = bc_reps(ws, r, p, q)
        a = a_reps(ws, r, p, q)
        page = ws.page_reps(r, p, q)
        conj = ws.swapped.page_reps(r, q, p)
        drr = de_rham_reps(ws, k)
        imb = im_both(ws, p, q)
        bc_to_a = classes("bc_to_a", imb, a, bc)
        triangles = (
            classes("page_to_a", imb, a, page)
            * classes("bc_to_page", ws.space(TowerKind.PAGE_EXACT, r, p, q), page, bc),
            classes("conj_to_a", imb, a, conj)
            * classes("bc_to_conj", ws.swapped.space(TowerKind.PAGE_EXACT, r, q, p), conj, bc),
            classes("de_rham_to_a", imb, a, t.project(k, p, q, drr))
            * classes("bc_to_de_rham", ws.total_image(k), drr, t.inject(p, q, bc)))
        if any(m != bc_to_a for m in triangles):
            raise ConsistencyError(f"a triangle through E_r, its conjugate or de Rham does not "
                                   f"commute with BC_r -> A_r at {cell}, page {r}")
        if classes("bc1_to_bcr", ddbar_exact(ws, r, p, q), bc,
                   bc_reps(ws, 1, p, q)).rank() != bc.cols:
            raise ConsistencyError(f"BC_1 -> BC_r is not onto at {cell}, page {r}")
        if classes("ar_to_a1", imb, a_reps(ws, 1, p, q), a).rank() != a.cols:
            raise ConsistencyError(f"A_r -> A_1 is not one-to-one at {cell}, page {r}")
    return CanonicalMaps(r=r, **out)


# ---------------------------------------------------------------------------
# the page-(r-1) del-delbar verdict


class PageDdbarVerdict:
    __slots__ = ("r", "verdict", "criteria", "witness", "duality_gap")

    def __init__(self, r, verdict, criteria, witness, duality_gap=False):
        self.r = r
        self.verdict = verdict
        self.criteria = criteria        # name -> bool
        self.witness = witness          # a concrete failing form, when requested, else None
        self.duality_gap = duality_gap  # (C)/(D)/(E) hold although the property fails

    def __bool__(self):
        return self.verdict


@memoised
def _closed_in_im_both(ws, p, q):
    """closed_pure ∩ im_both at (p,q); the same space for every page r."""
    return subspace_intersection(closed_pure(ws, p, q), im_both(ws, p, q))


def _criterion_bc_a_maps(ws, r):
    """(injective, bijective) for BC_r -> A_r, from one pass over the cells.

    The map has kernel (K ∩ I)/D_r and cokernel Z_r/(K + I): K is
    closed_pure, I im_both, D_r the ddbar-exact and Z_r the ddbar-closed
    space.  So it is injective iff dim(K ∩ I) = dim D_r at every cell, and
    then bijective iff dim A_r = dim BC_r at every cell.
    """
    bijective = True
    for (p, q) in ws.c.support():
        if _closed_in_im_both(ws, p, q).dim != ddbar_exact(ws, r, p, q).dim:
            return False, False
        if bijective:
            bc, a = _bca_cell(ws, r, p, q)
            bijective = a == bc
    return True, bijective


def _criterion_dims(ws, r):
    table = bca_dims(ws.c, r, ws)
    return table.degree_sums("bc", r) == table.degree_sums("a", r)


def _four_exactness_spaces(ws, r, p, q):
    k = closed_pure(ws, p, q)
    return {
        "d_exact": subspace_intersection(k, exact_pure(ws, p, q)),
        "page_exact": subspace_intersection(k, ws.space(TowerKind.PAGE_EXACT, r, p, q)),
        "conj_page_exact": subspace_intersection(
            k, ws.swapped.space(TowerKind.PAGE_EXACT, r, q, p)),
        "ddbar_exact": subspace_intersection(k, ddbar_exact(ws, r, p, q)),
    }


def _criterion_exactness(ws, r, want_witness=False):
    for (p, q) in ws.c.support():
        spaces = _four_exactness_spaces(ws, r, p, q)
        base = spaces["ddbar_exact"]
        names = ("d_exact", "page_exact", "conj_page_exact")
        if all(spaces[name] == base for name in names):
            continue
        if not want_witness:
            return False, None
        for name in names:
            vec = _witness_vector(spaces[name], base)
            if vec is not None:
                return False, {"cell": (p, q), "vector": [str(x) for x in vec],
                               "memberships": {n: s.contains(vec) for n, s in spaces.items()}}
        return False, None
    return True, None


def _witness_vector(big: Subspace, small: Subspace):
    """The first column of `big`'s basis outside `small`, as `Fraction`s; None if none is."""
    return next((v for v in big.basis.columns() if not small.contains(v)), None)


def _criterion_subspace_identities(ws, r, want_witness=False):
    """(F) in both orientations, the swapped one on `ws.swapped`.

    As d2 d1 = -d1 d2, im(d1 d2), closed_pure and exact_pure are the same
    subspaces in both, so the swapped pass reads them from `ws` at the
    transposed cell; only the page spaces and d1 come from the swap.
    """
    for side, at in ((ws, lambda p, q: (p, q)), (ws.swapped, lambda p, q: (q, p))):
        for (p, q) in side.c.support():
            lhs = im_dd(ws, *at(p + 1, q))
            rhs = map_subspace(side.c.d1_at(p, q), side.space(TowerKind.PAGE_CLOSED, r, p, q))
            if lhs != rhs:
                cell, big, small = (p + 1, q), rhs, lhs
                memberships = {"d1_of_page_closed": True, "ddbar_exact_image": False}
            else:
                big = subspace_intersection(side.space(TowerKind.PAGE_EXACT, r, p, q),
                                            closed_pure(ws, *at(p, q)))
                small = exact_pure(ws, *at(p, q))
                if big == small:
                    continue
                cell, memberships = (p, q), {"d_closed": True, "page_exact": True,
                                             "d_exact": False}
            if not want_witness:
                return False, None
            vec = _witness_vector(big, small)
            witness = {"cell": cell, "vector": [str(x) for x in vec], "memberships": memberships}
            if side is not ws:
                witness["swapped_orientation"] = True
            return False, witness
    return True, None


def page_ddbar_verdict(c: DoubleComplex, r, ws: Workspace | None = None,
                       use_structure=True, explain=False) -> PageDdbarVerdict:
    """Decide the page-(r-1) del-delbar property by every available criterion.

    (B), (C), (F) and the structure criterion must all agree and fix the
    verdict; (D) and (E) must agree with each other and must hold whenever
    the verdict does.  Any violation of these provable relations raises
    ConsistencyError.  A true (D)/(E) with a false verdict is the documented
    duality gap of abstract complexes and is flagged, not raised.
    """
    ws = ws or Workspace(c)
    criteria = {}
    injective, criteria["B"] = _criterion_bc_a_maps(ws, r)
    criteria["C"] = _criterion_dims(ws, r)
    criteria["D"] = injective
    e_ok, witness = _criterion_exactness(ws, r, want_witness=explain)
    criteria["E"] = e_ok
    # on manifolds conjugation supplies the swapped identities for free
    criteria["F"], f_witness = _criterion_subspace_identities(ws, r, want_witness=explain)
    if witness is None:
        witness = f_witness
    if use_structure:
        from bigraded.zigzag import decompose, structure_verdict
        criteria["structure"] = structure_verdict(decompose(ws.c, ws).inventory, r)
    strong = {k: v for k, v in criteria.items() if k in ("B", "F", "structure")}
    values = set(strong.values())
    if len(values) > 1:
        raise ConsistencyError(
            f"page-{r - 1} ddbar criteria disagree: {strong} "
            f"(complex {c.name!r}); the implementation is at fault")
    verdict = values.pop()
    if criteria["D"] != criteria["E"]:
        raise ConsistencyError(
            f"injectivity criterion and exactness criterion disagree "
            f"({criteria['D']} vs {criteria['E']}) on {c.name!r}, page {r}")
    if verdict and not (criteria["C"] and criteria["D"]):
        raise ConsistencyError(
            f"the page-{r - 1} ddbar property holds but a weaker criterion fails "
            f"on {c.name!r}; the implementation is at fault")
    return PageDdbarVerdict(r=r, verdict=verdict, criteria=criteria,
                            witness=witness,
                            duality_gap=(not verdict) and
                            (criteria["C"] or criteria["D"]))


# ---------------------------------------------------------------------------
# dimension inequality


class InequalityReport:
    """The three totals of  e_{r,BC} + e_{r,A}  >=  e_r + conjugate e_r  >=  2b  at page r.

    `inequality_check` returns one only when both inequalities hold, and
    the outer totals are equal when `verdict` holds.
    """

    __slots__ = ("r", "bca_total", "page_total", "betti_doubled", "verdict")

    def __init__(self, r, bca_total, page_total, betti_doubled, verdict):
        self.r = r
        self.bca_total = bca_total          # e_{r,BC} + e_{r,A}, summed over the cells
        self.page_total = page_total        # e_r + conjugate e_r, summed over the cells
        self.betti_doubled = betti_doubled  # 2 * sum of Betti numbers
        self.verdict = verdict              # bool: the page-(r-1) ddbar verdict, given or computed


def inequality_check(c: DoubleComplex, r, ws: Workspace | None = None,
                     verdict: bool | None = None) -> InequalityReport:
    """Enforce  e_{r,A} + e_{r,BC}  >=  e_r + conjugate e_r  >=  2b.

    When the page-(r-1) verdict holds, the outer totals must be equal
    (which squeezes the middle one as well).  Both are theorems, so a
    failure raises ConsistencyError.  A given `verdict` must be the one
    `page_ddbar_verdict` decides.
    """
    ws = ws or Workspace(c)
    table = page_dims(ws.c, r, ws).add(bca_dims(ws.c, r, ws))
    bca_total = table.total("bc", r) + table.total("a", r)
    page_total = table.total("e", r) + table.total("ebar", r)
    betti2 = 2 * sum(ws.betti.values())
    totals = f"BC + A = {bca_total}, E + conjugate E = {page_total}, 2b = {betti2}"
    if not bca_total >= page_total >= betti2:
        raise ConsistencyError(f"BC + A >= E + conjugate E >= 2b fails at page {r}: {totals}")
    if verdict is None:
        verdict = page_ddbar_verdict(ws.c, r, ws, use_structure=False).verdict
    if verdict and bca_total != betti2:
        raise ConsistencyError(
            f"the page-{r - 1} ddbar property holds but BC + A != 2b at page {r}: {totals}")
    return InequalityReport(r=r, bca_total=bca_total, page_total=page_total,
                            betti_doubled=betti2, verdict=verdict)
