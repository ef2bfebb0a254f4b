"""Duality pairings: chain-level validation and the induced cohomology pairings.

A pairing against top bidegree (n,n) is a family of rational bilinear forms
A^{p,q} x A^{n-p,n-q} -> Q.  Compatibility with the differentials is the
graded integration-by-parts rule

    P(d1 x, y) + (-1)^{|x|} P(x, d1 y) = 0      (same for d2),

with |x| = p+q of the left argument.  For compatible pairings the forms
descend to pages, to Bott-Chern x Aeppli, and to Bott-Chern x Bott-Chern of
complementary bidegrees; well-definedness is re-verified numerically here
rather than assumed, and non-degeneracy of the descended forms is reported,
never asserted, except where forced for perfect compatible pairings.

`sum_with_dual` builds the canonical example: a complex plus its reindexed
linear dual carries an evaluation pairing that is compatible and perfect.
"""

from __future__ import annotations

from bigraded.bca import a_reps, bc_reps, ddbar_exact, im_both, page_ddbar_verdict
from bigraded.bicomplex import (DoubleComplex, _int_pair, _matrices_from_dict,
                                _matrices_to_dict, direct_sum)
from bigraded.linalg import LinalgError, Matrix, Subspace
from bigraded.spectral import ConsistencyError, TowerKind, Workspace

__all__ = [
    "DualityPairing",
    "PairingValidation",
    "validate_pairing",
    "dual_complex",
    "sum_with_dual",
    "InducedPairing",
    "induced_pairing_er",
    "induced_pairing_bc_a",
    "BcBcReport",
    "induced_pairing_bc_bc",
    "pairing_from_dict",
    "pairing_to_dict",
]


class DualityPairing:
    """Bilinear forms pairing bidegree (p,q) with (n-p,n-q)."""

    def __init__(self, n, pairs):
        self.n = n
        self.pairs = dict(pairs)

    def at(self, c: DoubleComplex, p, q) -> Matrix:
        m = self.pairs.get((p, q))
        if m is None:
            return Matrix.zero(c.dim(p, q), c.dim(self.n - p, self.n - q))
        return m


class PairingValidation:
    __slots__ = ("ok", "perfect", "violations")

    def __init__(self, ok, perfect, violations):
        self.ok = ok
        self.perfect = perfect
        self.violations = violations

    def __bool__(self):
        return self.ok


def validate_pairing(c: DoubleComplex, pairing: DualityPairing) -> PairingValidation:
    """Check both integration-by-parts identities and record perfectness.

    Perfect means every form with a nonzero side is square and invertible;
    only then do the duality theorems apply unconditionally.  A form whose
    shape does not match the complex's dimensions at its cell is a `shape`
    violation, and then nothing else is checked.
    """
    n = pairing.n
    violations = []
    for (p, q), m in pairing.pairs.items():
        if m.rows != c.dim(p, q) or m.cols != c.dim(n - p, n - q):
            violations.append(("shape", p, q, f"{m.rows}x{m.cols}"))
    if violations:
        return PairingValidation(False, False, violations)
    perfect = True
    # both sides of both rules have dim(p, q) rows, and a cell of the mirror
    # (n-p, n-q) of the support that lies outside it fails perfectness at (p,q)
    for p, q in c.support():
        a = c.dim(p, q)
        perfect = perfect and c.dim(n - p, n - q) == a and pairing.at(c, p, q).rank() == a
        # d1 rule: pair (p,q)+(1,0) against (n-p-1, n-q)
        lhs = c.d1_at(p, q).transpose() * pairing.at(c, p + 1, q)
        rhs = pairing.at(c, p, q) * c.d1_at(n - p - 1, n - q)
        sign = (-1) ** (p + q)
        if not (lhs + rhs.scale(sign)).is_zero():
            violations.append(("d1-compatibility", p, q, None))
        lhs = c.d2_at(p, q).transpose() * pairing.at(c, p, q + 1)
        rhs = pairing.at(c, p, q) * c.d2_at(n - p, n - q - 1)
        if not (lhs + rhs.scale(sign)).is_zero():
            violations.append(("d2-compatibility", p, q, None))
    return PairingValidation(not violations, perfect, violations)


def dual_complex(c: DoubleComplex, n) -> DoubleComplex:
    """Linear dual reindexed by (p,q) -> (n-p,n-q), with signed transposes.

    The sign (-1)^{p+q} on both dual differentials makes the evaluation
    pairing against the original complex compatible with the rule above.
    """
    if n < c.pmax or n < c.qmax:
        raise LinalgError("top bidegree too small to hold the dual complex")
    dims = {(n - p, n - q): d for (p, q), d in c.dims.items()}
    d1 = {(n - p - 1, n - q): m.transpose().scale((-1) ** (p + q + 1))
          for (p, q), m in c.d1.items()}
    d2 = {(n - p, n - q - 1): m.transpose().scale((-1) ** (p + q + 1))
          for (p, q), m in c.d2.items()}
    return DoubleComplex(c.name + ".dual", n, n, dims, d1, d2)


def sum_with_dual(c: DoubleComplex, n=None):
    """The complex plus its dual, with the canonical perfect evaluation pairing."""
    if n is None:
        n = max(c.pmax, c.qmax)
    total = direct_sum(c, dual_complex(c, n), name=f"{c.name}+dual")
    pairs = {}
    for p, q in total.support():  # the support of c and its mirror (n-p, n-q)
        a = c.dim(p, q)          # c-part on the left
        b = c.dim(n - p, n - q)  # c-part on the right
        # evaluation of the right dual part, then of the left one
        pairs[(p, q)] = Matrix.from_blocks(a + b, a + b, [
            (0, b, Matrix.identity(a)), (a, 0, Matrix.identity(b).scale((-1) ** (p + q)))])
    return total, DualityPairing(n, pairs)


class InducedPairing:
    __slots__ = ("gram", "well_defined", "dims_match", "nondegenerate")

    def __init__(self, gram: Matrix, well_defined, dims_match, nondegenerate):
        self.gram = gram
        self.well_defined = well_defined
        self.dims_match = dims_match
        self.nondegenerate = nondegenerate


def _induced(pairing, c, p, q, left: Matrix, right: Matrix, left_null: Subspace,
             right_null: Subspace) -> InducedPairing:
    """The form F at (p,q) on classes with representatives the columns of L x R.

    The classes are taken modulo `left_null` at (p,q) and `right_null` at
    (n-p,n-q), with bases N and N'.  The Gram matrix is L^T F R, and it is
    well defined when each null space pairs to zero with the other side's
    representatives, each under the form at its own cell: N^T F R = 0 and
    N'^T B L = 0 for the form B at (n-p,n-q), since a pairing file may give
    forms at the two cells that are not transposes.  With no classes on
    either side there is nothing to pair, and the empty form is well defined
    and non-degenerate.
    """
    if not (left.cols or right.cols):
        return InducedPairing(Matrix.zero(0, 0), True, True, True)
    form, back = pairing.at(c, p, q), pairing.at(c, pairing.n - p, pairing.n - q)
    form_right = form * right
    gram = left.transpose() * form_right
    well = ((left_null.basis.transpose() * form_right).is_zero()
            and (right_null.basis.transpose() * (back * left)).is_zero())
    dims_match = left.cols == right.cols
    nondeg = dims_match and gram.rank() == left.cols
    return InducedPairing(gram, well, dims_match, nondeg)


def induced_pairing_er(c: DoubleComplex, pairing: DualityPairing, r, p, q,
                       ws: Workspace | None = None) -> InducedPairing:
    """Pairing induced on page r between (p,q) and the complementary bidegree.

    Well-definedness is verified by checking that page-exact elements pair
    to zero against the representatives of the other side.
    """
    ws = ws or Workspace(c)
    n = pairing.n
    return _induced(pairing, ws.c, p, q, ws.page_reps(r, p, q),
                    ws.page_reps(r, n - p, n - q), ws.space(TowerKind.PAGE_EXACT, r, p, q),
                    ws.space(TowerKind.PAGE_EXACT, r, n - p, n - q))


def induced_pairing_bc_a(c: DoubleComplex, pairing: DualityPairing, r, p, q,
                         ws: Workspace | None = None) -> InducedPairing:
    """Bott-Chern (p,q) against Aeppli (n-p,n-q) on page r."""
    ws = ws or Workspace(c)
    n = pairing.n
    return _induced(pairing, ws.c, p, q, bc_reps(ws, r, p, q), a_reps(ws, r, n - p, n - q),
                    ddbar_exact(ws, r, p, q), im_both(ws, n - p, n - q))


class BcBcReport:
    __slots__ = ("per_cell", "nondegenerate", "verdict", "agrees")

    def __init__(self, per_cell, nondegenerate, verdict, agrees):
        self.per_cell = per_cell            # (p,q) -> InducedPairing
        self.nondegenerate = nondegenerate  # all cells
        self.verdict = verdict              # page-(r-1) ddbar verdict, or None when not computed
        self.agrees = agrees                # bool, or None when not computed

    def __bool__(self):
        return self.nondegenerate


def induced_pairing_bc_bc(c: DoubleComplex, pairing: DualityPairing, r,
                          ws: Workspace | None = None, compare_verdict=True) -> BcBcReport:
    """Bott-Chern x Bott-Chern pairing of complementary bidegrees.

    For perfect compatible pairings its global non-degeneracy must match the
    page-(r-1) del-delbar verdict, which `page_ddbar_verdict` decides once
    per workspace; a mismatch on such input raises, since both
    sides are theorems.
    """
    ws = ws or Workspace(c)
    c = ws.c
    n = pairing.n
    per_cell = {}
    for (p, q) in sorted(set(c.support()) | {(n - p, n - q) for (p, q) in c.support()}):
        if p < 0 or q < 0:
            continue
        per_cell[(p, q)] = _induced(
            pairing, c, p, q, bc_reps(ws, r, p, q), bc_reps(ws, r, n - p, n - q),
            ddbar_exact(ws, r, p, q), ddbar_exact(ws, r, n - p, n - q))
    nondeg = all(cell.nondegenerate for cell in per_cell.values())
    verdict = agrees = None
    if compare_verdict:
        verdict = page_ddbar_verdict(c, r, ws, use_structure=False).verdict
        agrees = verdict == nondeg
        if not agrees and validate_pairing(c, pairing).perfect:
            raise ConsistencyError(
                f"BC x BC non-degeneracy ({nondeg}) disagrees with the page-{r - 1} "
                f"ddbar verdict ({verdict}) on a perfect compatible pairing")
    return BcBcReport(per_cell, nondeg, verdict, agrees)


# ---------------------------------------------------------------------------
# JSON interchange


def pairing_from_dict(obj) -> DualityPairing:
    try:
        n, n2 = _int_pair(obj["n"], "pairing top degree n")
        if n != n2:
            raise LinalgError("top bidegree must be of the form (n, n)")
        return DualityPairing(n, _matrices_from_dict(obj.get("pairs", {}), "pairing"))
    except (KeyError, TypeError, ValueError) as exc:
        raise LinalgError(f"malformed pairing file: {exc}") from exc


def pairing_to_dict(pairing: DualityPairing):
    return {"n": [pairing.n, pairing.n], "pairs": _matrices_to_dict(pairing.pairs)}
