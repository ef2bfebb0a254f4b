"""Structure theory: indecomposable shapes, their invariants, decompositions.

Every bounded double complex is a direct sum of squares and zigzags.  Two
independent engines find the summands:

* `decompose` constructs the decomposition directly: squares first, then
  the zigzags as the interval summands of one type-A zigzag representation
  per antidiagonal (see `bigraded.splitter`).  The output is a
  certificate, accepted only after `verify_certificate` and the table
  check below agree with it.
* `multiplicity_solve` recovers the same multiset from Hom dimensions
  alone: it solves H m = h, with H[t][s] = dim Hom(t, s) over the shapes
  that fit the support and h[t] = dim Hom(t, c).  H is invertible
  (Auslander), so the integer system is reduced once.  It serves as the
  independent oracle of the test suite.

Both engines check their inventory the same way: its summed closed-form
tables (pages, conjugate pages, Bott-Chern, Aeppli, Betti numbers) must
equal the measured ones up to the page from which none of them changes.

A certificate carries a basis change and an assignment of the new basis
vectors to shape instances; `verify_certificate` checks block-diagonality
plus per-block shape isomorphism.
"""

from __future__ import annotations

from functools import cache

from bigraded.bca import bca_dims
from bigraded.bicomplex import (DoubleComplex, _by_cell, _int_pair, _key, _matrices_from_dict,
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
    "decompose",
    "DecompositionCertificate",
    "CertificateReport",
    "verify_certificate",
    "certificate_to_dict",
    "certificate_from_dict",
]


def enumerate_shapes(grid):
    """All squares and zigzag shapes fitting the grid, deterministically ordered."""
    pmax, qmax = grid
    return _shapes_in({(p, q) for p in range(pmax + 1) for q in range(qmax + 1)})


def _shapes_in(cells):
    """Every square and zigzag whose cells all lie in the set `cells`, in `_shape_key` order.

    A zigzag grows from its first generator down-right, one generator and
    the corner before it at a time, while both are in `cells`.
    """
    shapes = []
    for (p, q) in cells:
        if {(p + 1, q), (p, q + 1), (p + 1, q + 1)} <= cells:
            shapes.append(Square(p, q))
        gens = [(p, q)]
        while True:
            a, b = gens[-1]
            right = (a + 1, b) in cells
            for bf in (False, True) if (p, q + 1) in cells else (False,):
                for bl in (False, True) if right else (False,):
                    shapes.append(ZigzagShape(tuple(gens), bf, bl))
            if not (right and (a + 1, b - 1) in cells):
                break
            gens.append((a + 1, b - 1))
    return sorted(shapes, key=_shape_key)


def _shape_key(shape):
    if isinstance(shape, Square):
        return (0, shape.p, shape.q, 0, 0)
    return (1, shape.generators, int(shape.d2_out_first), int(shape.d1_out_last))


def predicted_invariants(shape, r_max) -> Invariants:
    """Invariant tables of a shape without building it.

    Squares contribute dimensions only.  A zigzag's page classes sit at its
    free ends: an end list of one cell lives on every page and carries the
    Betti number, one of two cells lives up to page g.  Bott-Chern classes
    live on the upper antidiagonal and Aeppli classes on the generators,
    with r-1 classes trimmed from each end without an outgoing arrow (upper)
    or with one (generators); a dot is its own Bott-Chern class.
    """
    pred = Invariants(r_max)
    for cell in shape_cells(shape):
        pred.dims[cell] = pred.dims.get(cell, 0) + 1
    if isinstance(shape, Square):
        return pred

    gens = shape.generators
    bf, bl = shape.d2_out_first, shape.d1_out_last
    top = (gens[0][0], gens[0][1] + 1)
    right = (gens[-1][0] + 1, gens[-1][1])
    e = [gens[0]] * (not bf) + [right] * bl
    ebar = [top] * bf + [gens[-1]] * (not bl)
    upper = [top] * bf + [(p + 1, q) for (p, q) in gens[:-1]] + [right] * bl
    if len(e) == 1:
        pred.b[sum(e[0])] = 1
    dot = shape.is_dot()
    for r in range(1, r_max + 1):
        for table, cells in ((pred.e, e), (pred.ebar, ebar)):
            if len(cells) == 1 or r <= len(gens):
                for cell in cells:
                    table[(r,) + cell] = 1
        for cell in gens if dot else _trim(upper, r - 1, not bf, not bl):
            pred.bc[(r,) + cell] = 1
        for cell in _trim(gens, r - 1, bf, bl):
            pred.a[(r,) + cell] = 1
    return pred


def _trim(cells, k, first, last):
    """`cells` less k entries at the first end if `first` and at the last end if `last`."""
    return cells[k * first:max(0, len(cells) - k * last)]


def _shape_stable_page(shape):
    """The first page from which `predicted_invariants(shape, r)` stops changing."""
    if isinstance(shape, Square):
        return 1
    g = len(shape.generators)
    return (g // 2, g, (g + 1) // 2)[shape.d2_out_first + shape.d1_out_last] + 1


def _stable_page(ws: Workspace, shapes):
    """The page from which the tables of `ws.c` and of each of `shapes` stay fixed."""
    return max([ws.stable_page, ws.swapped.stable_page]
               + [_shape_stable_page(s) for s in shapes])


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
    invariant under basis changes; its values over the shapes a that fit b's
    support determine b's summands (see `multiplicity_solve`), which
    dimension-type invariants alone cannot always do.
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
    # a missing map is zero: its block holds no entries, and db's rows are b's target dimension
    rows = []
    for (p, q) in a.support():
        src_off = offsets.get((p, q))
        na_s = a.dims[(p, q)]
        for a_maps, b_maps, tgt in ((a.d1, b.d1, (p + 1, q)), (a.d2, b.d2, (p, q + 1))):
            da, db = a_maps.get((p, q)), b_maps.get((p, q))
            if da is None and db is None:
                continue  # every equation of this block reads 0 = 0
            na_t = a.dims.get(tgt, 0)
            tgt_off = offsets.get(tgt)
            da_num, da_den = (da.num, da.den) if da else ((), 1)
            db_num, db_den = (db.num, db.den) if db else (((),) * b.dims.get(tgt, 0), 1)
            # both blocks scaled by da_den * db_den, so the row is integral
            for i, db_row in enumerate(db_num):
                for j in range(na_s):
                    row = [0] * total
                    for k, x in enumerate(db_row):
                        if x:
                            row[src_off + k * na_s + j] = x * da_den
                    for l, da_row in enumerate(da_num):
                        if da_row[j]:
                            row[tgt_off + i * na_t + l] = -da_row[j] * db_den
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
    __slots__ = ("status", "inventory", "r_max")

    def __init__(self, inventory, r_max):
        self.status = "unique"      # constant: the Hom panel is invertible
        self.inventory = inventory  # shape -> multiplicity
        self.r_max = r_max          # the last page of the checked tables


def multiplicity_solve(c: DoubleComplex, r_max=None, ws: Workspace | None = None) -> MultiplicityResult:
    """Recover the multiset of indecomposable summands from Hom dimensions alone.

    The candidates are the shapes that fit the complex's support, the
    indecomposables of complexes with that support.  Row t of the integer
    system [H | h] is (dim Hom(t, s) for each shape s | dim Hom(t, c)).  H is
    invertible by Auslander's theorem, so one elimination leaves row p as
    (pivot at p, value at n), which must read (1, value >= 0).  Anything else,
    or tables the inventory does not predict up to `r_max` (by default the
    page from which none changes), falsifies the implementation.
    """
    ws = ws or Workspace(c)
    c = ws.c
    shapes = _shapes_in(set(c.dims))
    n = len(shapes)
    reduced = _span([[_shape_hom(t, s) for s in shapes] + [hom_dim(_built(t), c)]
                     for t in shapes], n + 1)
    if reduced.pivot_rows != tuple(range(n)):
        raise ConsistencyError(
            f"the Hom panel of the {n} shapes in the support of {c.name!r} has rank "
            f"below {n}; the implementation is at fault")
    # row p is (pivot at p, value at n) and primitive: integral iff the pivot is 1
    inventory = {}
    for p, (shape, row) in enumerate(zip(shapes, reduced.echelon)):
        if row[p] != 1 or row[n] < 0:
            raise ConsistencyError(
                f"unique inventory solution is not a nonnegative integer vector "
                f"({shape} -> {row[n]}/{row[p]})")
        if row[n]:
            inventory[shape] = row[n]
    if r_max is None:
        r_max = _stable_page(ws, inventory)
    if _mismatched_table(ws, inventory, r_max):
        raise ConsistencyError(
            f"no shape inventory matches the invariants of {c.name!r}; "
            "the implementation is at fault")
    return MultiplicityResult(inventory, r_max)


def _mismatched_table(ws: Workspace, inventory, r_max):
    """The first tag whose table `inventory` predicts wrongly up to page r_max, or None."""
    predicted = Invariants(r_max)
    for shape, mult in inventory.items():
        predicted.add(predicted_invariants(shape, r_max), mult)
    measured = measured_invariants(ws.c, r_max, ws)
    return next((tag for tag in Invariants.TAGS
                 if getattr(predicted, tag) != getattr(measured, tag)), None)


def structure_verdict(inventory, r) -> bool:
    """Page-(r-1) del-delbar property read off a shape inventory.

    Holds iff there is no odd zigzag other than dots and no even zigzag
    longer than 2(r-1).
    """
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
                        "cells": {_key(*cell): list(ix) for cell, ix in sorted(cells.items())}}
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
    up to the page where both stop changing; otherwise the implementation
    is at fault and ConsistencyError is raised.
    """
    return _checked_split(ws or Workspace(c))


@memoised
def _checked_split(ws: Workspace) -> Decomposition:
    """The splitter's certificate, checked.

    `bigraded.splitter` is imported on first use, so that importing this
    module does not compile it.
    """
    from bigraded.splitter import split_complex
    c = ws.c
    cert = split_complex(c)
    inventory = {}
    for shape, _ in cert.blocks:
        inventory[shape] = inventory.get(shape, 0) + 1
    report = verify_certificate(c, cert)
    if not report:
        raise ConsistencyError(
            f"the splitter's certificate for {c.name!r} is rejected: {report.reason}; "
            "the implementation is at fault")
    tag = _mismatched_table(ws, inventory, _stable_page(ws, inventory))
    if tag:
        raise ConsistencyError(
            f"the split inventory of {c.name!r} predicts other {tag!r} tables "
            "than the measured ones; the implementation is at fault")
    return Decomposition(inventory, cert)
