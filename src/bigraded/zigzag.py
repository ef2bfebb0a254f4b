"""Structure theory: indecomposable shapes, their invariants, decompositions.

Every bounded double complex is a direct sum of squares and zigzags.  Two
independent engines find the summands:

* `split` constructs the decomposition directly: squares first, then the
  zigzags as the interval summands of one type-A zigzag representation
  per antidiagonal (see `bigraded.splitter`).  The output is a
  certificate, and `decompose` accepts it only after `verify_certificate`
  and the invariant tables below agree with it.
* `multiplicity_solve` recovers the same multiset from invariants alone.
  Each shape contributes closed-form amounts to every invariant this
  package computes (page dimensions, conjugate page dimensions, Bott-Chern
  and Aeppli dimensions, Betti numbers), so one exact linear system

      sum over shapes  mult(s) * predicted(s)  =  measured(c),

  extended by Hom-dimension fingerprints, determines the inventory.  The
  system is all integers and is reduced once; when it has a kernel the
  result is reported as ambiguous, never guessed.  It serves as the
  independent oracle of the test suite.

A certificate carries a basis change and an assignment of the new basis
vectors to shape instances; `verify_certificate` checks block-diagonality
plus per-block shape isomorphism.
"""

from __future__ import annotations

from functools import cache

from bigraded.bca import bca_dims
from bigraded.bicomplex import (DoubleComplex, _by_cell, _int_pair, _matrices_from_dict,
                                _matrices_to_dict, _require_int, change_of_basis)
from bigraded.linalg import LinalgError, _span
from bigraded.models import (Square, ZigzagShape, build_shape, shape_arrows,
                             shape_cells, shape_length)
from bigraded.spectral import ConsistencyError, Invariants, Workspace, memoised, page_dims

__all__ = [
    "enumerate_shapes",
    "predicted_invariants",
    "measured_invariants",
    "hom_dim",
    "MultiplicityResult",
    "multiplicity_solve",
    "structure_verdict",
    "Decomposition",
    "split",
    "decompose",
    "DecompositionCertificate",
    "CertificateReport",
    "verify_certificate",
    "certificate_to_dict",
    "certificate_from_dict",
]


def enumerate_shapes(grid):
    """All squares and zigzag shapes fitting the grid, deterministically ordered.

    Each call returns a fresh list; the shapes are built once per grid.
    """
    return list(_grid_shapes(*grid))


@cache
def _grid_shapes(pmax, qmax):
    shapes = []
    for p in range(pmax):
        for q in range(qmax):
            shapes.append(Square(p, q))
    max_gens = min(pmax, qmax) + 1
    for g in range(1, max_gens + 1):
        for p0 in range(pmax - g + 2):
            if p0 + g - 1 > pmax:
                continue
            for q0 in range(g - 1, qmax + 1):
                gens = tuple((p0 + i, q0 - i) for i in range(g))
                for bf in (False, True):
                    if bf and q0 + 1 > qmax:
                        continue
                    for bl in (False, True):
                        if bl and p0 + g > pmax:
                            continue
                        shapes.append(ZigzagShape(gens, bf, bl))
    return tuple(sorted(shapes, key=_shape_key))


def _shape_key(shape):
    if isinstance(shape, Square):
        return (0, shape.p, shape.q, 0, 0)
    return (1, shape.generators, int(shape.d2_out_first), int(shape.d1_out_last))


def predicted_invariants(shape, r_max) -> Invariants:
    """Invariant tables of a shape without building it.

    Squares contribute dimensions only.  For zigzags the page contributions
    sit at the free ends, Bott-Chern classes live on the upper antidiagonal
    and Aeppli classes on the lower one, with r-1 classes trimmed from each
    end that carries an outgoing arrow.
    """
    pred = Invariants(r_max)
    for cell in shape_cells(shape):
        pred.dims[cell] = pred.dims.get(cell, 0) + 1
    if isinstance(shape, Square):
        return pred

    gens = shape.generators
    g = len(gens)
    bf, bl = shape.d2_out_first, shape.d1_out_last
    corners = [(p + 1, q) for (p, q) in gens[:-1]]
    top = (gens[0][0], gens[0][1] + 1)
    right = (gens[-1][0] + 1, gens[-1][1])
    k = gens[0][0] + gens[0][1]

    if not bf and not bl:
        pred.b[k] = 1
    elif bf and bl:
        pred.b[k + 1] = 1

    for r in range(1, r_max + 1):
        if not bf and not bl:
            pred.e[(r,) + gens[0]] = 1
            pred.ebar[(r,) + gens[-1]] = 1
            for cell in gens:
                pred.a[(r,) + cell] = 1
            if g == 1:
                pred.bc[(r,) + gens[0]] = 1
            else:
                for j in range(r, g - r + 1):
                    pred.bc[(r,) + corners[j - 1]] = 1
        elif bf and bl:
            pred.e[(r,) + right] = 1
            pred.ebar[(r,) + top] = 1
            for cell in [top] + corners + [right]:
                pred.bc[(r,) + cell] = 1
            for j in range(r, g - r + 2):
                pred.a[(r,) + gens[j - 1]] = 1
        elif bl:
            if r <= g:
                pred.e[(r,) + gens[0]] = 1
                pred.e[(r,) + right] = 1
            for j in range(r, g + 1):
                cell = right if j == g else corners[j - 1]
                pred.bc[(r,) + cell] = 1
            for j in range(1, g - r + 2):
                pred.a[(r,) + gens[j - 1]] = 1
        else:
            if r <= g:
                pred.ebar[(r,) + top] = 1
                pred.ebar[(r,) + gens[-1]] = 1
            for j in range(1, g - r + 2):
                cell = top if j == 1 else corners[j - 2]
                pred.bc[(r,) + cell] = 1
            for j in range(r, g + 1):
                pred.a[(r,) + gens[j - 1]] = 1
    return pred


def measured_invariants(c: DoubleComplex, r_max, ws: Workspace | None = None) -> Invariants:
    """The same invariant tables, computed from the complex itself."""
    ws = ws or Workspace(c)
    out = page_dims(ws.c, r_max, ws).add(bca_dims(ws.c, r_max, ws))
    out.dims = dict(ws.c.dims)
    out.b = {k: v for k, v in ws.betti.items() if v}
    return out


def hom_dim(a: DoubleComplex, b: DoubleComplex) -> int:
    """Dimension of the space of bidegree-(0,0) chain maps a -> b.

    A chain map is a family f(p,q): a^{p,q} -> b^{p,q} with
    d1 f = f d1 and d2 f = f d2.  The dimension is additive in b and
    invariant under basis changes, which makes Hom counts against a panel of
    test shapes a sharp fingerprint of the summands of b: dimension-type
    invariants alone cannot always separate overlapping odd zigzags.
    """
    offsets = {}
    total = 0
    for cell in a.support():
        nb = b.dims.get(cell)
        if nb:
            offsets[cell] = total
            total += a.dims[cell] * nb
    if total == 0:
        return 0
    # f(cell) is vectorised row-major in (b-index, a-index) from offsets[cell];
    # a row is one entry of db f(source) - f(target) da, on two disjoint blocks
    rows = []
    for (p, q) in a.support():
        src_off = offsets.get((p, q))
        na_s = a.dims[(p, q)]
        for da, db, tgt in ((a.d1_at(p, q), b.d1_at(p, q), (p + 1, q)),
                            (a.d2_at(p, q), b.d2_at(p, q), (p, q + 1))):
            if da.is_zero() and db.is_zero():
                continue  # every equation of this block reads 0 = 0
            na_t = a.dims.get(tgt, 0)
            tgt_off = offsets.get(tgt)
            # both blocks scaled by da.den * db.den, so the row is integral
            for i, db_row in enumerate(db.num):
                for j in range(na_s):
                    row = [0] * total
                    for k, x in enumerate(db_row):
                        if x:
                            row[src_off + k * na_s + j] = x * da.den
                    for l, da_row in enumerate(da.num):
                        if da_row[j]:
                            row[tgt_off + i * na_t + l] = -da_row[j] * db.den
                    if any(row):
                        rows.append(row)
    return total - _span(rows, total).dim


@cache
def _built(shape):
    return build_shape(shape)


@cache
def _shape_hom(test_shape, target_shape):
    return hom_dim(_built(test_shape), _built(target_shape))


class MultiplicityResult:
    __slots__ = ("status", "inventory", "kernel_dim", "r_max")

    def __init__(self, status, inventory, kernel_dim, r_max):
        self.status = status        # "unique" or "ambiguous"
        self.inventory = inventory  # shape -> multiplicity (status "unique" only, else None)
        self.kernel_dim = kernel_dim
        self.r_max = r_max

    def __bool__(self):
        return self.status == "unique"


def multiplicity_solve(c: DoubleComplex, r_max=None, ws: Workspace | None = None) -> MultiplicityResult:
    """Recover the multiset of indecomposable summands from invariants alone.

    Only shapes supported inside the complex's support can occur (component
    dimensions are additive and nonnegative), so the system is restricted to
    those.  Its rows [A | b] are integers: one per table entry or Hom count,
    the shapes' predictions in A and the measured value in b.  One integer
    elimination decides everything: a pivot in b means no inventory fits,
    which falsifies the implementation, since a decomposition into squares
    and zigzags always exists; fewer pivots than shapes mean a kernel; else
    the reduced rows give the inventory, which must be nonnegative integers.
    """
    ws = ws or Workspace(c)
    c = ws.c
    if r_max is None:
        r_max = max(c.pmax, c.qmax) + 1
    support = set(c.dims)
    shapes = [s for s in _grid_shapes(c.pmax, c.qmax)
              if all(cell in support for cell in shape_cells(s))]
    if not shapes:
        return MultiplicityResult("unique", {}, 0, r_max)
    tables = [predicted_invariants(s, r_max) for s in shapes]
    tables.append(measured_invariants(c, r_max, ws))
    rows = []
    for tag in Invariants.TAGS:
        columns = [getattr(t, tag) for t in tables]
        for key in dict.fromkeys(key for col in columns for key in col):
            rows.append([col.get(key, 0) for col in columns])
    for test in shapes:
        rows.append([_shape_hom(test, s) for s in shapes] + [hom_dim(_built(test), c)])
    n = len(shapes)
    # repeated rows (a table entry that stays the same for every r) add nothing
    reduced = _span(list(dict.fromkeys(map(tuple, rows))), n + 1)
    if reduced.pivot_rows and reduced.pivot_rows[-1] == n:
        raise ConsistencyError(
            f"no shape inventory matches the invariants of {c.name!r}; "
            "the implementation is at fault")
    if reduced.dim < n:
        return MultiplicityResult("ambiguous", None, n - reduced.dim, r_max)
    # row p is (pivot at p, value at n) and primitive: integral iff the pivot is 1
    inventory = {}
    for p, (shape, row) in enumerate(zip(shapes, reduced.echelon)):
        if row[p] != 1 or row[n] < 0:
            raise ConsistencyError(
                f"unique inventory solution is not a nonnegative integer vector "
                f"({shape} -> {row[n]}/{row[p]})")
        if row[n]:
            inventory[shape] = row[n]
    return MultiplicityResult("unique", inventory, 0, r_max)


def structure_verdict(inventory, r) -> bool:
    """Page-(r-1) del-delbar property read off a shape inventory.

    Holds iff there is no odd zigzag other than dots and no even zigzag
    longer than 2(r-1).  Accepts an inventory dict or a complex (which is
    then decomposed first).
    """
    if isinstance(inventory, DoubleComplex):
        inventory = decompose(inventory).inventory
    for shape, mult in inventory.items():
        if not mult or isinstance(shape, Square):
            continue
        length = shape_length(shape)
        if length % 2 == 1 and length >= 3:
            return False
        if length % 2 == 0 and length > 2 * (r - 1):
            return False
    return True


# ---------------------------------------------------------------------------
# certificates


class DecompositionCertificate:
    """Checkable decomposition: a basis change plus a block assignment.

    `transforms[(p,q)]` columns are the new basis in current coordinates;
    `blocks` lists ``(shape, {cell: (new-basis indices...)})`` and must
    partition every component's index set.
    """

    __slots__ = ("transforms", "blocks")

    def __init__(self, transforms, blocks):
        self.transforms = transforms
        self.blocks = blocks


class CertificateReport:
    __slots__ = ("ok", "reason", "failing_block")

    def __init__(self, ok, reason=None, failing_block=None):
        self.ok = ok
        self.reason = reason
        self.failing_block = failing_block

    def __bool__(self):
        return self.ok


def _shape_to_dict(shape):
    if isinstance(shape, Square):
        return {"kind": "square", "at": [shape.p, shape.q]}
    return {"kind": "zigzag", "generators": [list(g) for g in shape.generators],
            "d2_out_first": shape.d2_out_first, "d1_out_last": shape.d1_out_last}


def _shape_from_dict(obj):
    if obj["kind"] == "square":
        return Square(*_int_pair(obj["at"], "square position"))
    flags = obj["d2_out_first"], obj["d1_out_last"]
    if not all(type(flag) is bool for flag in flags):
        raise LinalgError(f"zigzag arrow flags must be true or false, got {flags!r}")
    return ZigzagShape(tuple(_int_pair(g, "zigzag generator") for g in obj["generators"]),
                       *flags)


def certificate_to_dict(cert: DecompositionCertificate):
    """JSON form: transforms as rational-string matrices, blocks with cells."""
    return {"transforms": _matrices_to_dict(cert.transforms),
            "blocks": [{"shape": _shape_to_dict(shape),
                        "cells": {f"{p},{q}": list(ix) for (p, q), ix in sorted(cells.items())}}
                       for shape, cells in cert.blocks]}


def _indices(ix):
    """A block's indices at one cell, as a tuple of non-negative ints."""
    for i in ix:
        _require_int(i, "block index", minimum=0)
    return tuple(ix)


def certificate_from_dict(obj) -> DecompositionCertificate:
    """Read back `certificate_to_dict`'s form; LinalgError for malformed input."""
    try:
        transforms = _matrices_from_dict(obj.get("transforms", {}), "transforms")
        blocks = [(_shape_from_dict(item["shape"]),
                   {cell: _indices(ix) for cell, ix in _by_cell(item["cells"], "block").items()})
                  for item in obj.get("blocks", [])]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise LinalgError(f"malformed certificate: {exc}") from exc
    return DecompositionCertificate(transforms, blocks)


def verify_certificate(c: DoubleComplex, cert: DecompositionCertificate) -> CertificateReport:
    """Accept iff the transformed complex is block-diagonal with the claimed shapes."""
    owner = {}
    for bi, (shape, cells) in enumerate(cert.blocks):
        claimed = set(shape_cells(shape))
        if claimed != set(cells):
            return CertificateReport(False, f"block {bi} cells do not match its shape", bi)
        for cell, indices in cells.items():
            if len(indices) != 1:
                return CertificateReport(False, f"block {bi} must own exactly one index per cell", bi)
            for i in indices:
                if not 0 <= i < c.dim(*cell):
                    return CertificateReport(
                        False, f"block {bi} index {i} at {cell} lies outside the complex "
                        f"(dimension {c.dim(*cell)} there)", bi)
                if (cell, i) in owner:
                    return CertificateReport(False, f"index {i} at {cell} assigned twice", bi)
                owner[(cell, i)] = bi
    for (p, q) in c.support():
        for i in range(c.dim(p, q)):
            if ((p, q), i) not in owner:
                return CertificateReport(False, f"index {i} at {(p, q)} unassigned", None)
    try:
        transformed = change_of_basis(c, cert.transforms)
    except LinalgError as exc:
        return CertificateReport(False, f"bad transform: {exc}", None)

    for (p, q) in c.support():
        for which, m, tgt in (("d1", transformed.d1_at(p, q), (p + 1, q)),
                              ("d2", transformed.d2_at(p, q), (p, q + 1))):
            for i in range(m.rows):
                for j in range(m.cols):
                    if m.num[i][j] and owner[(tgt, i)] != owner[((p, q), j)]:
                        return CertificateReport(
                            False,
                            f"{which} at {(p, q)} couples block {owner[((p, q), j)]} "
                            f"to block {owner[(tgt, i)]}", owner[((p, q), j)])
    for bi, (shape, cells) in enumerate(cert.blocks):
        for (src, which, dst) in shape_arrows(shape):
            m = transformed.d1_at(*src) if which == "d1" else transformed.d2_at(*src)
            i = cells[dst][0]
            j = cells[src][0]
            if not m.num[i][j]:
                return CertificateReport(
                    False, f"block {bi}: expected nonzero {which} arrow {src} -> {dst}", bi)
    return CertificateReport(True)


# ---------------------------------------------------------------------------
# the constructive splitter


class Decomposition:
    """Shape inventory of a complex together with the certificate that proves it."""

    __slots__ = ("inventory", "certificate")

    def __init__(self, inventory, certificate: DecompositionCertificate):
        self.inventory = inventory  # shape -> multiplicity
        self.certificate = certificate


def decompose(c: DoubleComplex, ws: Workspace | None = None) -> Decomposition:
    """The checked decomposition of the workspace's complex, built once per workspace.

    The splitter's certificate must pass `verify_certificate`, and the
    summed closed-form invariants of its inventory must equal the measured
    pages, conjugate pages, Bott-Chern, Aeppli, Betti and dimension tables
    (at the default `r_max` of `multiplicity_solve`); otherwise the
    implementation is at fault and ConsistencyError is raised.
    """
    return _checked_split(ws or Workspace(c))


@memoised
def _checked_split(ws: Workspace) -> Decomposition:
    c = ws.c
    dec = split(c)
    if _tally(dec.certificate.blocks) != dec.inventory:
        raise ConsistencyError(
            f"the split inventory of {c.name!r} differs from its certificate's blocks; "
            "the implementation is at fault")
    report = verify_certificate(c, dec.certificate)
    if not report:
        raise ConsistencyError(
            f"the splitter's certificate for {c.name!r} is rejected: {report.reason}; "
            "the implementation is at fault")
    r_max = max(c.pmax, c.qmax) + 1
    predicted = Invariants(r_max)
    for shape, mult in dec.inventory.items():
        predicted.add(predicted_invariants(shape, r_max), mult)
    measured = measured_invariants(c, r_max, ws)
    for tag in Invariants.TAGS:
        if getattr(predicted, tag) != getattr(measured, tag):
            raise ConsistencyError(
                f"the split inventory of {c.name!r} predicts other {tag!r} tables "
                "than the measured ones; the implementation is at fault")
    return dec


def split(c: DoubleComplex) -> Decomposition:
    """Decompose a valid complex into squares and zigzags, constructively.

    The result is not checked here; see `decompose`.  The algorithm lives in
    `bigraded.splitter`, imported on first use so that importing this
    module does not compile it.
    """
    from bigraded.splitter import split_complex
    cert = split_complex(c)
    return Decomposition(_tally(cert.blocks), cert)


def _tally(blocks):
    inventory = {}
    for shape, _ in blocks:
        inventory[shape] = inventory.get(shape, 0) + 1
    return inventory
