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

import json
from dataclasses import dataclass, field
from fractions import Fraction

from bigraded.bca import a_reps, bc_reps, ddbar_exact_space, im_both
from bigraded.bicomplex import (DoubleComplex, _parse_rational, _rational_str, _unkey,
                                direct_sum)
from bigraded.linalg import LinalgError, Matrix, Subspace
from bigraded.spectral import ConsistencyError, TowerKind, Workspace

Q = Fraction

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

    def value(self, c, p, q, x, y):
        return _bilinear(self.at(c, p, q), x, y)


def _bilinear(form: Matrix, x, y):
    acc = Q(0)
    for i, xi in enumerate(x):
        if xi:
            row = form.data[i]
            for j, yj in enumerate(y):
                if yj and row[j]:
                    acc += xi * row[j] * yj
    return acc


@dataclass
class PairingValidation:
    ok: bool
    perfect: bool
    violations: list = field(default_factory=list)

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
    for p in range(-1, c.pmax + 1):
        for q in range(-1, c.qmax + 1):
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
    perfect = True
    for p in range(c.pmax + 1):
        for q in range(c.qmax + 1):
            a, b = c.dim(p, q), c.dim(n - p, n - q)
            if a == 0 and b == 0:
                continue
            if a != b:
                perfect = False
                continue
            m = pairing.at(c, p, q)
            if m.rank() != a:
                perfect = False
    return PairingValidation(not violations, perfect, violations)


def dual_complex(c: DoubleComplex, n) -> DoubleComplex:
    """Linear dual reindexed by (p,q) -> (n-p,n-q), with signed transposes.

    The sign (-1)^{p+q} on both dual differentials makes the evaluation
    pairing against the original complex compatible with the rule above.
    """
    if n < c.pmax or n < c.qmax:
        raise LinalgError("top bidegree too small to hold the dual complex")
    dims = {}
    for (p, q), d in c.dims.items():
        dims[(n - p, n - q)] = d
    d1 = {}
    d2 = {}
    for a in range(n + 1):
        for b in range(n + 1):
            if dims.get((a, b), 0) == 0:
                continue
            sign = (-1) ** (a + b)
            src = c.d1_at(n - a - 1, n - b)
            if src.rows and src.cols and dims.get((a + 1, b), 0):
                d1[(a, b)] = src.transpose().scale(sign)
            src = c.d2_at(n - a, n - b - 1)
            if src.rows and src.cols and dims.get((a, b + 1), 0):
                d2[(a, b)] = src.transpose().scale(sign)
    return DoubleComplex(c.name + ".dual", n, n, dims, d1, d2)


def sum_with_dual(c: DoubleComplex, n=None):
    """The complex plus its dual, with the canonical perfect evaluation pairing."""
    if n is None:
        n = max(c.pmax, c.qmax)
    dual = dual_complex(c, n)
    padded = DoubleComplex(c.name, n, n, dict(c.dims), dict(c.d1), dict(c.d2))
    total = direct_sum(padded, dual, name=f"{c.name}+dual")
    pairs = {}
    for p in range(n + 1):
        for q in range(n + 1):
            rows = total.dim(p, q)
            cols = total.dim(n - p, n - q)
            if rows == 0 or cols == 0:
                continue
            a = padded.dim(p, q)          # c-part on the left
            b = padded.dim(n - p, n - q)  # c-part on the right
            sign = Q((-1) ** (p + q))
            data = [[Q(0)] * cols for _ in range(rows)]
            for i in range(a):            # evaluation of the right dual part
                data[i][b + i] = Q(1)
            for i in range(b):            # evaluation of the left dual part
                data[a + i][i] = sign
            pairs[(p, q)] = Matrix(rows, cols, data)
    return total, DualityPairing(n, pairs)


@dataclass
class InducedPairing:
    r: int
    cell: tuple
    gram: Matrix
    well_defined: bool
    dims_match: bool
    nondegenerate: bool


def _gram_of_reps(pairing, c, p, q, left_reps, right_reps):
    form = pairing.at(c, p, q)
    return Matrix(len(left_reps), len(right_reps),
                  [[_bilinear(form, x, y) for y in right_reps] for x in left_reps])


def _kills(pairing, c, p, q, left_space: Subspace, right_reps) -> bool:
    """True iff every vector of `left_space` pairs to zero with all representatives."""
    form = pairing.at(c, p, q)
    for x in left_space.basis_columns():
        for y in right_reps:
            if _bilinear(form, x, y) != 0:
                return False
    return True


def induced_pairing_er(c: DoubleComplex, pairing: DualityPairing, r, p, q,
                       ws: Workspace | None = None) -> InducedPairing:
    """Pairing induced on page r between (p,q) and the complementary bidegree.

    Well-definedness is verified by checking that page-exact elements pair
    to zero against the representatives of the other side.
    """
    ws = ws or Workspace(c)
    c = ws.c
    n = pairing.n
    left = ws.page_reps(r, p, q)
    right = ws.page_reps(r, n - p, n - q)
    gram = _gram_of_reps(pairing, c, p, q, left, right)
    well = (_kills(pairing, c, p, q, ws.space(TowerKind.PAGE_EXACT, r, p, q), right)
            and _kills(pairing, c, n - p, n - q,
                       ws.space(TowerKind.PAGE_EXACT, r, n - p, n - q), left))
    dims_match = len(left) == len(right)
    nondeg = dims_match and gram.rank() == len(left)
    return InducedPairing(r, (p, q), gram, well, dims_match, nondeg)


def induced_pairing_bc_a(c: DoubleComplex, pairing: DualityPairing, r, p, q,
                         ws: Workspace | None = None) -> InducedPairing:
    """Bott-Chern (p,q) against Aeppli (n-p,n-q) on page r."""
    ws = ws or Workspace(c)
    c = ws.c
    n = pairing.n
    left = bc_reps(ws, r, p, q)
    right = a_reps(ws, r, n - p, n - q)
    gram = _gram_of_reps(pairing, c, p, q, left, right)
    well = (_kills(pairing, c, p, q, ddbar_exact_space(c, r, p, q, ws), right)
            and _kills(pairing, c, n - p, n - q, im_both(ws, n - p, n - q), left))
    dims_match = len(left) == len(right)
    nondeg = dims_match and gram.rank() == len(left)
    return InducedPairing(r, (p, q), gram, well, dims_match, nondeg)


@dataclass
class BcBcReport:
    r: int
    per_cell: dict          # (p,q) -> InducedPairing
    nondegenerate: bool     # all cells
    verdict: bool | None    # page-(r-1) ddbar verdict, when computed
    agrees: bool | None

    def __bool__(self):
        return self.nondegenerate


def induced_pairing_bc_bc(c: DoubleComplex, pairing: DualityPairing, r,
                          ws: Workspace | None = None, compare_verdict=True) -> BcBcReport:
    """Bott-Chern x Bott-Chern pairing of complementary bidegrees.

    For perfect compatible pairings its global non-degeneracy must match the
    page-(r-1) del-delbar verdict; a mismatch on such input raises, since
    both sides are theorems.
    """
    ws = ws or Workspace(c)
    c = ws.c
    n = pairing.n
    per_cell = {}
    nondeg = True
    for (p, q) in sorted(set(c.support()) | {(n - p, n - q) for (p, q) in c.support()}):
        if p < 0 or q < 0:
            continue
        left = bc_reps(ws, r, p, q)
        right = bc_reps(ws, r, n - p, n - q)
        gram = _gram_of_reps(pairing, c, p, q, left, right)
        well = (_kills(pairing, c, p, q, ddbar_exact_space(c, r, p, q, ws), right)
                and _kills(pairing, c, n - p, n - q,
                           ddbar_exact_space(c, r, n - p, n - q, ws), left))
        dims_match = len(left) == len(right)
        cell_nondeg = dims_match and gram.rank() == len(left)
        per_cell[(p, q)] = InducedPairing(r, (p, q), gram, well, dims_match, cell_nondeg)
        if not cell_nondeg:
            nondeg = False
    verdict = None
    agrees = None
    if compare_verdict:
        from bigraded.bca import page_ddbar_verdict
        verdict = page_ddbar_verdict(c, r, ws, use_structure=False).verdict
        agrees = verdict == nondeg
        if not agrees and validate_pairing(c, pairing).perfect:
            raise ConsistencyError(
                f"BC x BC non-degeneracy ({nondeg}) disagrees with the page-{r - 1} "
                f"ddbar verdict ({verdict}) on a perfect compatible pairing")
    return BcBcReport(r, per_cell, nondeg, verdict, agrees)


# ---------------------------------------------------------------------------
# JSON interchange


def pairing_from_dict(obj) -> DualityPairing:
    try:
        n = int(obj["n"][0])
        if obj["n"][0] != obj["n"][1]:
            raise LinalgError("top bidegree must be of the form (n, n)")
        pairs = {}
        for key, rows in obj.get("pairs", {}).items():
            data = [[_parse_rational(x) for x in row] for row in rows]
            pairs[_unkey(key)] = Matrix(len(data), len(data[0]) if data else 0, data)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise LinalgError(f"malformed pairing file: {exc}") from exc
    return DualityPairing(n, pairs)


def pairing_to_dict(pairing: DualityPairing):
    out = {"n": [pairing.n, pairing.n], "pairs": {}}
    for (p, q), m in sorted(pairing.pairs.items()):
        out["pairs"][f"{p},{q}"] = [[_rational_str(x) for x in row] for row in m.data]
    return out


def load_pairing(path) -> DualityPairing:
    with open(path) as fh:
        return pairing_from_dict(json.load(fh))
