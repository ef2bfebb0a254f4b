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
                               memoised, page_dims)

__all__ = [
    "ddbar_closed_space",
    "ddbar_exact_space",
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


def ddbar_closed_space(c: DoubleComplex, r, p, q, ws: Workspace | None = None) -> Subspace:
    """Page-r ddbar-closed elements at (p,q).

    r = 1 is ker(d1 d2); r >= 2 intersects the two one-sided lift towers of
    length r-1 (one for each differential), a condition that grows stronger
    with r.
    """
    return _ddbar_closed(ws or Workspace(c), r, p, q)


@memoised
def _ddbar_closed(ws: Workspace, r, p, q) -> Subspace:
    c = ws.c
    if c.dim(p, q) == 0:
        return Subspace.zero(0)
    if r == 1:
        return kernel_basis(c.d1_at(p, q + 1) * c.d2_at(p, q))
    return subspace_intersection(ws.space(TowerKind.RUNS, r - 1, p, q),
                                 ws.swapped.space(TowerKind.RUNS, r - 1, q, p))


def ddbar_exact_space(c: DoubleComplex, r, p, q, ws: Workspace | None = None) -> Subspace:
    """Page-r ddbar-exact elements at (p,q).

    r = 1 is im(d1 d2); r >= 2 adds d1 and d2 images of the reaches-zero
    towers of length r-1, a condition that grows weaker with r.
    """
    return _ddbar_exact(ws or Workspace(c), r, p, q)


@memoised
def _ddbar_exact(ws: Workspace, r, p, q) -> Subspace:
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
def bc_reps(ws: Workspace, r, p, q):
    """Deterministic representatives of BC_r at (p,q)."""
    _bca_cell(ws, r, p, q)  # raises ConsistencyError for a non-nested pair
    return extend_basis(ddbar_exact_space(ws.c, r, p, q, ws), closed_pure(ws, p, q))


@memoised
def a_reps(ws: Workspace, r, p, q):
    """Deterministic representatives of A_r at (p,q)."""
    _bca_cell(ws, r, p, q)  # raises ConsistencyError for a non-nested pair
    return extend_basis(im_both(ws, p, q), ddbar_closed_space(ws.c, r, p, q, ws))


@memoised
def de_rham_reps(ws: Workspace, k):
    """Representatives of total-complex cohomology in degree k."""
    return extend_basis(ws.total_image(k), kernel_basis(ws.total.differential(k)))


# ---------------------------------------------------------------------------
# dimensions


@memoised
def _bca_cell(ws: Workspace, r, p, q):
    """(dim BC_r, dim A_r) at (p,q).

    Both quotients are checked to be of nested pairs first; a failure there
    is an implementation bug and surfaces as ConsistencyError.
    """
    k = closed_pure(ws, p, q)
    d = ddbar_exact_space(ws.c, r, p, q, ws)
    if not k.contains_subspace(d):
        raise ConsistencyError(f"ddbar-exact not d-closed at {(p, q)}, page {r}")
    z = ddbar_closed_space(ws.c, r, p, q, ws)
    i = im_both(ws, p, q)
    if not z.contains_subspace(i):
        raise ConsistencyError(f"im d1 + im d2 not ddbar-closed at {(p, q)}, page {r}")
    return k.dim - d.dim, z.dim - i.dim


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
    keys are bidegrees.  `commutes` records that both triangle composites
    through the pages and through de Rham agree with the direct BC -> A map;
    `bc_surjective` and `a_injective` record that BC_1 ->> BC_r and
    A_r -> A_1 behave as the defining filtrations force them to.
    """

    __slots__ = ("r", "bc_to_page", "bc_to_conj", "bc_to_de_rham", "bc_to_a", "page_to_a",
                 "conj_to_a", "de_rham_to_a", "bc1_to_bcr", "ar_to_a1", "commutes",
                 "bc_surjective", "a_injective")

    def __init__(self, r, bc_to_page, bc_to_conj, bc_to_de_rham, bc_to_a, page_to_a,
                 conj_to_a, de_rham_to_a, bc1_to_bcr, ar_to_a1, commutes, bc_surjective,
                 a_injective):
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
        self.commutes = commutes
        self.bc_surjective = bc_surjective
        self.a_injective = a_injective


def _class_matrix(denom: Subspace, target_reps, vectors):
    cols = [class_coordinates(denom, target_reps, v) for v in vectors]
    return Matrix.from_columns(cols, len(target_reps))


def canonical_maps(c: DoubleComplex, r, ws: Workspace | None = None) -> CanonicalMaps:
    ws = ws or Workspace(c)
    c = ws.c
    t = ws.total
    out = dict(bc_to_page={}, bc_to_conj={}, bc_to_de_rham={}, bc_to_a={},
               page_to_a={}, conj_to_a={}, de_rham_to_a={},
               bc1_to_bcr={}, ar_to_a1={})
    commutes = True
    bc_surjective = True
    a_injective = True
    for (p, q) in c.support():
        k = p + q
        bc = bc_reps(ws, r, p, q)
        a = a_reps(ws, r, p, q)
        page = ws.page_reps(r, p, q)
        conj = ws.swapped.page_reps(r, q, p)
        drr = de_rham_reps(ws, k)
        c_r = ws.space(TowerKind.PAGE_EXACT, r, p, q)
        cbar_r = ws.swapped.space(TowerKind.PAGE_EXACT, r, q, p)
        imb = im_both(ws, p, q)
        dd_exact = ddbar_exact_space(c, r, p, q, ws)
        out["bc_to_page"][(p, q)] = _class_matrix(c_r, page, bc)
        out["bc_to_conj"][(p, q)] = _class_matrix(cbar_r, conj, bc)
        out["bc_to_de_rham"][(p, q)] = _class_matrix(
            ws.total_image(k), drr, [t.inject(p, q, v) for v in bc])
        out["bc_to_a"][(p, q)] = _class_matrix(imb, a, bc)
        out["page_to_a"][(p, q)] = _class_matrix(imb, a, page)
        out["conj_to_a"][(p, q)] = _class_matrix(imb, a, conj)
        out["de_rham_to_a"][(p, q)] = _class_matrix(
            imb, a, [t.project(k, p, q, v) for v in drr])
        out["bc1_to_bcr"][(p, q)] = _class_matrix(dd_exact, bc, bc_reps(ws, 1, p, q))
        out["ar_to_a1"][(p, q)] = _class_matrix(imb, a_reps(ws, 1, p, q), a)
        if out["page_to_a"][(p, q)] * out["bc_to_page"][(p, q)] != out["bc_to_a"][(p, q)]:
            commutes = False
        if out["conj_to_a"][(p, q)] * out["bc_to_conj"][(p, q)] != out["bc_to_a"][(p, q)]:
            commutes = False
        if out["de_rham_to_a"][(p, q)] * out["bc_to_de_rham"][(p, q)] != out["bc_to_a"][(p, q)]:
            commutes = False
        if out["bc1_to_bcr"][(p, q)].rank() != len(bc):
            bc_surjective = False
        if out["ar_to_a1"][(p, q)].rank() != len(a):
            a_injective = False
    return CanonicalMaps(r=r, commutes=commutes, bc_surjective=bc_surjective,
                         a_injective=a_injective, **out)


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


def _criterion_bc_a_maps(ws, r, injective_only):
    """BC_r -> A_r has kernel (K ∩ I)/D_r and cokernel Z_r/(K + I).

    K is closed_pure, I im_both, D_r the ddbar-exact and Z_r the
    ddbar-closed space, so the map is injective iff dim(K ∩ I) = dim D_r,
    and then bijective iff dim A_r = dim BC_r.
    """
    for (p, q) in ws.c.support():
        if _closed_in_im_both(ws, p, q).dim != ddbar_exact_space(ws.c, r, p, q, ws).dim:
            return False
        if not injective_only:
            bc, a = _bca_cell(ws, r, p, q)
            if a != bc:
                return False
    return True


def _criterion_dims(ws, r):
    table = bca_dims(ws.c, r, ws)
    kmax = ws.c.pmax + ws.c.qmax
    return all(table.antidiagonal("bc", r, k) == table.antidiagonal("a", r, k)
               for k in range(kmax + 1))


def _four_exactness_spaces(ws, r, p, q):
    k = closed_pure(ws, p, q)
    return {
        "d_exact": subspace_intersection(k, exact_pure(ws, p, q)),
        "page_exact": subspace_intersection(k, ws.space(TowerKind.PAGE_EXACT, r, p, q)),
        "conj_page_exact": subspace_intersection(
            k, ws.swapped.space(TowerKind.PAGE_EXACT, r, q, p)),
        "ddbar_exact": subspace_intersection(k, ddbar_exact_space(ws.c, r, p, q, ws)),
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
        witness = None
        for name in names:
            bigger = spaces[name]
            for col in bigger.basis_columns():
                if not base.contains(col):
                    witness = {
                        "cell": (p, q),
                        "vector": [str(x) for x in col],
                        "memberships": {n: spaces[n].contains(col) for n in spaces},
                    }
                    witness["memberships"]["ddbar_exact"] = base.contains(col)
                    break
            if witness:
                break
        return False, witness
    return True, None


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
            vec = next(v for v in big.basis_columns() if not small.contains(v))
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
    criteria["B"] = _criterion_bc_a_maps(ws, r, injective_only=False)
    criteria["C"] = _criterion_dims(ws, r)
    criteria["D"] = _criterion_bc_a_maps(ws, r, injective_only=True)
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
    __slots__ = ("r", "bca_total", "page_total", "betti_doubled", "chain_ok", "verdict",
                 "equality_ok")

    def __init__(self, r, bca_total, page_total, betti_doubled, chain_ok, verdict,
                 equality_ok):
        self.r = r
        self.bca_total = bca_total          # e_{r,BC} + e_{r,A}, summed over the grid
        self.page_total = page_total        # e_r + conjugate e_r, summed over the grid
        self.betti_doubled = betti_doubled  # 2 * sum of Betti numbers
        self.chain_ok = chain_ok
        self.verdict = verdict              # bool, or None when not computed
        self.equality_ok = equality_ok      # bool, or None when the verdict fails

    def __bool__(self):
        return self.chain_ok and self.equality_ok is not False


def inequality_check(c: DoubleComplex, r, ws: Workspace | None = None,
                     verdict: bool | None = None) -> InequalityReport:
    """Check  e_{r,A} + e_{r,BC}  >=  e_r + conjugate e_r  >=  2b.

    When the page-(r-1) verdict holds, the outer quantities must be equal
    (which squeezes the middle one as well).
    """
    ws = ws or Workspace(c)
    table = page_dims(ws.c, r, ws).add(bca_dims(ws.c, r, ws))
    bca_total = table.total("bc", r) + table.total("a", r)
    page_total = table.total("e", r) + table.total("ebar", r)
    betti2 = 2 * sum(ws.betti.values())
    chain_ok = bca_total >= page_total >= betti2
    if verdict is None:
        verdict = page_ddbar_verdict(ws.c, r, ws, use_structure=False).verdict
    equality_ok = (bca_total == betti2) if verdict else None
    return InequalityReport(r=r, bca_total=bca_total, page_total=page_total,
                            betti_doubled=betti2, chain_ok=chain_ok,
                            verdict=verdict, equality_ok=equality_ok)
