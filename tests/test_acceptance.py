"""Acceptance suite: one test and one printed pass/fail line per criterion.

Everything here is exact arithmetic; "tolerance" is equality throughout.
The random batches are seeded, so every run checks the identical inputs.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import random

import pytest

from bigraded.bca import bca_dims, inequality_check, page_ddbar_verdict
from bigraded.bicomplex import random_complex
from bigraded.hodge import harmonic_tower, three_space_decomposition
from bigraded.models import (Square, ZigzagShape, build_shape, dot_shape,
                             example_calabi_eckmann)
from bigraded.pairing import (induced_pairing_bc_a, induced_pairing_bc_bc,
                              induced_pairing_er, sum_with_dual,
                              validate_pairing)
from bigraded.spectral import (Workspace, degeneration_page, einfty_check,
                               iterated_pages_oracle, page_dims)
from bigraded.zigzag import multiplicity_solve, predicted_invariants

GRID = (4, 4)          # bidegrees 0..4 in each direction: the 5x5 grid
BATCH = 100


def _report(criterion, ok, detail=""):
    line = f"acceptance criterion {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def batch():
    """The hundred seeded random complexes shared by criteria 3-7."""
    out = []
    for seed in range(BATCH):
        c = random_complex(GRID, 4, seed)
        out.append((seed, c, Workspace(c)))
    return out


@pytest.fixture(scope="module")
def scrambled():
    """Scrambled known direct sums with their hidden ground truth."""
    out = []
    for seed in range(BATCH):
        c, inventory, cert = random_complex(GRID, 4, 5000 + seed,
                                            structure=True, max_shapes=10)
        out.append((seed, c, inventory, cert))
    return out


def test_criterion_1_indecomposable_tables():
    """Closed-form Bott-Chern/Aeppli tables for every listed shape, r = 1..4."""
    shapes = [Square(0, 0), dot_shape(1, 1)]
    for g in (1, 2, 3, 4):                       # even lengths 2,4,6,8
        gens = tuple((i, 4 - i) for i in range(g))
        shapes.append(ZigzagShape(gens, False, True))   # one orientation
        shapes.append(ZigzagShape(gens, True, False))   # the other
    for g in (1, 2, 3):                          # odd lengths 3,5,7
        gens = tuple((i, 4 - i) for i in range(g))
        shapes.append(ZigzagShape(gens, True, True))    # both outer arrows
        gens = tuple((i, 4 - i) for i in range(g + 1))
        shapes.append(ZigzagShape(gens, False, False))  # neither
    checked = 0
    for shape in shapes:
        c = build_shape(shape)
        ws = Workspace(c)
        table = bca_dims(c, 4, ws)
        pred = predicted_invariants(shape, 4)
        assert table.bc == pred.bc, shape
        assert table.a == pred.a, shape
        checked += 1
    _report(1, checked == len(shapes), f"{checked} shapes, per bidegree, r=1..4")


def test_criterion_2_calabi_eckmann():
    ce11 = example_calabi_eckmann(1, 1)
    ws11 = Workspace(ce11)
    t11 = page_dims(ce11, 2, ws11)
    ok = t11.dim(1, 3, 2) == 1 and t11.dim(2, 3, 2) == 0
    ok = ok and degeneration_page(ce11, ws11) == 2
    ce01 = example_calabi_eckmann(0, 1)
    ws01 = Workspace(ce01)
    t01 = page_dims(ce01, 4, ws01)
    ok = ok and all(t01.dim(r, 2, 1) == 1 for r in (1, 2, 3, 4))
    ok = ok and degeneration_page(ce01, ws01) == 1
    _report(2, ok, "(1,1): e1=1, e2=0 at (3,2), page 2; (0,1): page 1, e_r^{2,1}=1")


def test_criterion_3_oracle_equivalence(batch):
    mismatches = 0
    for seed, c, ws in batch:
        direct = page_dims(c, 5, ws)
        iterated = iterated_pages_oracle(c, 5, ws)
        if direct.e != iterated.e:
            mismatches += 1
    _report(3, mismatches == 0, f"{len(batch)} complexes, r <= 5")


def test_criterion_4_verdict_agreement(batch, scrambled):
    """Verdicts by every criterion, r = 1..4.

    The abstractly equivalent family (B), (F), structure must coincide and
    fix the verdict; (D) == (E) always; the verdict implies (C) and (D).
    (The full six-way coincidence of the original statement is a theorem
    about manifolds only; the amendment and its counterexamples are recorded
    in the decisions ledger.)  Any violation raises inside the call.
    """
    inputs = [(seed, c, ws) for seed, c, ws in batch]
    inputs += [(5000 + seed, c, Workspace(c)) for seed, c, _, _ in scrambled]
    gaps = 0
    for seed, c, ws in inputs:
        for r in (1, 2, 3, 4):
            v = page_ddbar_verdict(c, r, ws, use_structure=True)
            assert v.criteria["structure"] is not None, seed
            gaps += v.duality_gap
    _report(4, True, f"{len(inputs)} complexes x r=1..4; duality gaps flagged: {gaps}")


def test_criterion_5_inequality(batch):
    """BC + A >= E + conjugate E >= 2b, with equality under a true verdict; a failure raises."""
    ok = True
    for seed, c, ws in batch:
        for r in (1, 2, 3, 4):
            inequality_check(c, r, ws)
    z3 = build_shape(ZigzagShape(((0, 1),), True, True))
    rep = inequality_check(z3, 2, Workspace(z3))
    ok = ok and (rep.bca_total, rep.page_total, rep.betti_doubled) == (2, 2, 2)
    ok = ok and rep.verdict is False
    _report(5, ok, "chain on 100 complexes; length-3 zigzag equality without property")


def test_criterion_6_hodge_isomorphisms(batch):
    checked = 0
    for seed, c, ws in batch:
        tower = harmonic_tower(c, None, 3, ws)   # raises on any dim mismatch
        for r in (1, 2, 3):
            for (p, q) in c.support():
                from bigraded.hodge import bc_a_harmonic_spaces
                bc_a_harmonic_spaces(c, None, r, p, q, ws)   # raises on mismatch
        for (p, q) in c.support():
            dec = three_space_decomposition(c, None, 2, p, q, ws, tower)
            assert dec.ok(), (seed, p, q)
        checked += 1
    _report(6, checked == len(batch),
            f"{checked} complexes, r <= 3, identity Gram, 3-space checks")


def test_criterion_7_convergence(batch):
    """Stable page sums equal Betti numbers on every input of the suite."""
    inputs = [c for _, c, _ in batch]
    inputs += [build_shape(s) for s in
               (Square(0, 0), dot_shape(1, 1),
                ZigzagShape(((0, 2), (1, 1), (2, 0)), True, True))]
    inputs += [example_calabi_eckmann(1, 1), example_calabi_eckmann(0, 1)]
    ok = all(einfty_check(c).ok for c in inputs)
    _report(7, ok, f"{len(inputs)} inputs")


def test_criterion_8_duality():
    ok = True
    for shape in (dot_shape(0, 1),
                  ZigzagShape(((0, 1), (1, 0)), False, True),
                  ZigzagShape(((0, 2), (1, 1)), True, True),
                  ZigzagShape(((0, 2), (1, 1), (2, 0)), False, False)):
        c = build_shape(shape)
        tot, pairing = sum_with_dual(c)
        ok = ok and validate_pairing(tot, pairing).perfect
        ws = Workspace(tot)
        for r in (1, 2, 3):
            for (p, q) in tot.support():
                ok = ok and induced_pairing_er(tot, pairing, r, p, q, ws).nondegenerate
                ok = ok and induced_pairing_bc_a(tot, pairing, r, p, q, ws).nondegenerate
    z4 = build_shape(ZigzagShape(((0, 1), (1, 0)), False, True))
    tot, pairing = sum_with_dual(z4)
    ws = Workspace(tot)
    r2 = induced_pairing_bc_bc(tot, pairing, 2, ws)
    r3 = induced_pairing_bc_bc(tot, pairing, 3, ws)
    ok = ok and not r2.nondegenerate and r2.verdict is False and r2.agrees
    ok = ok and r3.nondegenerate and r3.verdict is True and r3.agrees
    _report(8, ok, "E_r and BCxA nondegenerate r<=3; BCxBC tracks the verdict")


def test_criterion_9_decomposition_roundtrip(scrambled):
    ambiguous = 0
    wrong = 0
    for seed, c, inventory, cert in scrambled:
        assert sum(inventory.values()) <= 10
        res = multiplicity_solve(c)
        if res.status != "unique":
            ambiguous += 1
            continue
        if res.inventory != inventory:
            wrong += 1
    _report(9, ambiguous == 0 and wrong == 0,
            f"{len(scrambled)} round-trips, ambiguity rate {ambiguous}/{len(scrambled)}")
