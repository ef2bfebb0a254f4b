"""Seeded benchmark inputs with a make-up that never depends on the seed.

Every workload is built from fixed shape inventories or fixed
Calabi-Eckmann parameters.  The seed picks only the random changes of
basis and the Gram entries, so grids, per-cell dimensions and total
dimensions are the same for every seed (`check_makeup` asserts it).
"""

import json
import random
from fractions import Fraction

from bigraded import bicomplex, models, zigzag
from bigraded.linalg import Matrix


def SQ(p, q):
    return models.Square(p, q)


def ZZ(gens, d2_out_first=False, d1_out_last=False):
    return models.ZigzagShape(tuple(gens), d2_out_first, d1_out_last)


# The inventories behind random_complex((4,4), 4, 7) and
# random_complex((6,6), 3, 0), frozen so that only the scramble varies.
REPORT_INPUTS = [
    ("sum47", (4, 4), [
        (SQ(1, 1), 1), (SQ(1, 3), 1), (SQ(2, 3), 1), (SQ(3, 0), 1),
        (ZZ([(0, 1), (1, 0)], True, True), 1),
        (ZZ([(0, 3), (1, 2), (2, 1), (3, 0)], False, True), 1),
        (ZZ([(1, 0)]), 2),
        (ZZ([(1, 4), (2, 3), (3, 2), (4, 1)]), 1),
        (ZZ([(1, 4)]), 1),
        (ZZ([(2, 1), (3, 0)], False, True), 1),
        (ZZ([(2, 4), (3, 3)], False, True), 1),
    ]),
    ("sum53", (6, 6), [
        (SQ(2, 4), 1), (SQ(3, 5), 1), (SQ(4, 0), 1),
        (ZZ([(0, 5), (1, 4), (2, 3), (3, 2)]), 1),
        (ZZ([(0, 5), (1, 4), (2, 3), (3, 2)], False, True), 1),
        (ZZ([(1, 4)], True, False), 1),
        (ZZ([(2, 1)]), 1),
        (ZZ([(3, 4), (4, 3), (5, 2)]), 1),
        (ZZ([(3, 6), (4, 5), (5, 4)], False, True), 1),
        (ZZ([(4, 3)], False, True), 1),
        (ZZ([(4, 4), (5, 3)], True, False), 1),
        (ZZ([(4, 6), (5, 5), (6, 4)]), 1),
        (ZZ([(6, 4)]), 1),
    ]),
]

CE_MODELS = [(2, 3), (3, 5), (4, 6)]

# batch-small pairs every shape that fits this grid with one fixed partner.
# The partner is an even zigzag of length 2, so the page-0 verdict fails and
# the later ones depend on the other summand.
SMALL_GRID = (3, 3)
SMALL_PARTNER = ZZ([(1, 1)], True, False)


def _rng(seed, name):
    return random.Random(f"{seed}:{name}")


def scrambled_sum(name, grid, inventory, rng):
    """Direct sum of the inventory behind a random change of basis.

    Returns the complex and the certificate that undoes the scramble.
    """
    acc = bicomplex.DoubleComplex(name, grid[0], grid[1], {}, {}, {})
    blocks = []
    for shape, mult in inventory:
        for _ in range(mult):
            offsets = {cell: acc.dim(*cell) for cell in models.shape_cells(shape)}
            acc = bicomplex.direct_sum(acc, models.build_shape(shape, grid), name=name)
            blocks.append((shape, {cell: (i,) for cell, i in offsets.items()}))
    transforms = {cell: bicomplex.random_invertible(acc.dim(*cell), rng)
                  for cell in sorted(acc.dims)}
    scrambled = bicomplex.change_of_basis(acc, transforms)
    cert = zigzag.DecompositionCertificate(
        transforms={cell: m.inverse() for cell, m in transforms.items()},
        blocks=blocks)
    return scrambled, cert


def random_gram(n, rng):
    """Symmetric positive-definite rational n x n matrix B^T D B.

    The seed picks the invertible integer matrix B; the diagonal D is fixed,
    so the denominators, and with them the cost of the arithmetic, do not
    depend on the seed.
    """
    b = bicomplex.random_invertible(n, rng, spread=1)
    d = [Fraction(k + 1, k + 2) for k in range(n)]
    rows = [[sum(b.data[k][i] * d[k] * b.data[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]
    return Matrix(n, n, rows)


def gram_to_dict(grams):
    return {f"{p},{q}": [[str(x) for x in row] for row in m.data]
            for (p, q), m in sorted(grams.items())}


def gram_from_dict(obj):
    out = {}
    for key, rows in obj.items():
        p, q = (int(x) for x in key.split(","))
        out[(p, q)] = Matrix(len(rows), len(rows), [[Fraction(x) for x in row] for row in rows])
    return out


def key_json(shape):
    """JSON form of a shape's identity, read back by `checks.shape_key`."""
    if isinstance(shape, models.Square):
        return ["square", shape.p, shape.q]
    return ["zigzag", [list(g) for g in shape.generators],
            shape.d2_out_first, shape.d1_out_last]


def inventory_json(inventory):
    return [[key_json(s), m] for s, m in inventory]


def write_inputs(workload, seed, run_dir):
    """Write the workload's inputs under run_dir; return the manifest."""
    if workload == "report-scrambled":
        items = []
        for name, grid, inventory in REPORT_INPUTS:
            c, _ = scrambled_sum(name, grid, inventory, _rng(seed, name))
            path = run_dir / f"{name}.json"
            bicomplex.dump_complex(c, path)
            items.append({"name": name, "path": str(path), "total_dim": c.total_dim(),
                          "inventory": inventory_json(inventory)})
        return {"workload": workload, "inputs": items}
    if workload == "towers-hodge":
        from bigraded import cli
        items = []
        for u, v in CE_MODELS:
            uri = f"example://ce?u={u}&v={v}"
            c = cli.load_input(uri)
            rng = _rng(seed, f"ce{u},{v}")
            grams = {cell: random_gram(n, rng) for cell, n in sorted(c.dims.items())}
            path = run_dir / f"gram-ce{u}{v}.json"
            path.write_text(json.dumps(gram_to_dict(grams), sort_keys=True))
            items.append({"name": f"ce{u},{v}", "uri": uri, "u": u, "v": v,
                          "gram": str(path), "total_dim": c.total_dim()})
        return {"workload": workload, "inputs": items}
    if workload == "batch-small":
        items = []
        for i, shape in enumerate(zigzag.enumerate_shapes(SMALL_GRID)):
            name = f"small{i:02d}"
            inventory = [(shape, 1), (SMALL_PARTNER, 1)]
            c, cert = scrambled_sum(name, SMALL_GRID, inventory, _rng(seed, name))
            items.append({"name": name,
                          "complex": json.dumps(bicomplex.complex_to_dict(c), sort_keys=True),
                          "certificate": json.dumps(zigzag.certificate_to_dict(cert),
                                                    sort_keys=True),
                          "inventory": inventory_json(inventory), "total_dim": c.total_dim()})
        path = run_dir / "batch.json"
        path.write_text(json.dumps(items))
        return {"workload": workload, "batch": str(path),
                "inputs": [{"name": it["name"], "total_dim": it["total_dim"]}
                           for it in items]}
    raise ValueError(f"unknown workload {workload!r}")


# total dimensions of the Calabi-Eckmann models at their default weight bound
CE_TOTAL_DIMS = {(2, 3): 108, (3, 5): 152, (4, 6): 180}


def _inventory_dim(inventory):
    return sum(models.shape_length(s) * m for s, m in inventory)


def expected_totals(workload):
    """(name, total dimension) of every input, computed without a seed."""
    if workload == "report-scrambled":
        return [(name, _inventory_dim(inv)) for name, _, inv in REPORT_INPUTS]
    if workload == "towers-hodge":
        return [(f"ce{u},{v}", CE_TOTAL_DIMS[(u, v)]) for u, v in CE_MODELS]
    return [(f"small{i:02d}", _inventory_dim([(s, 1), (SMALL_PARTNER, 1)]))
            for i, s in enumerate(zigzag.enumerate_shapes(SMALL_GRID))]


def check_makeup(manifest):
    """Refuse inputs whose make-up differs from the fixed one."""
    got = [(it["name"], it["total_dim"]) for it in manifest["inputs"]]
    if got != expected_totals(manifest["workload"]):
        raise SystemExit(f"input make-up differs from the fixed one: {got}")
