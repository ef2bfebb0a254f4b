"""Output checks, computed apart from the program or from properties the method must have.

Every function returns a list of failure messages; an empty list means the
output passed.  Linear algebra here is the benchmark's own `Fraction`
arithmetic, and sympy ranks for the report checks; no check calls into the
code it checks, except `verify_certificate` on a deliberately corrupted
certificate, which must be rejected.
"""

from fractions import Fraction


def _mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _apply(m, v):
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in m]


def _form(x, gram, y):
    return sum((x[i] * gram[i][j] * y[j] for i in range(len(x)) for j in range(len(y))),
               Fraction(0))


def _columns(basis_rows, dim):
    return [[basis_rows[i][j] for i in range(len(basis_rows))] for j in range(dim)]


def structure_rule(inventory, r):
    """Page-(r-1) ddbar property of a known inventory of shape keys.

    Fails iff some odd zigzag of length >= 3, or some even zigzag longer
    than 2(r-1), occurs.
    """
    for key, mult in inventory:
        if mult and key[0] == "zigzag":
            length = 2 * len(key[1]) - 1 + int(key[2]) + int(key[3])
            if length % 2 == 1 and length >= 3:
                return False
            if length % 2 == 0 and length > 2 * (r - 1):
                return False
    return True


def inventory_counts(pairs):
    """Sorted (shape key, multiplicity) with repeated shapes merged."""
    counts = {}
    for shape, mult in pairs:
        key = shape_key(shape)
        counts[key] = counts.get(key, 0) + mult
    return sorted((k, m) for k, m in counts.items() if m)


def shape_key(shape):
    """Hashable identity of a program shape, a report JSON shape or a `key_json` list."""
    if hasattr(shape, "generators"):
        return ("zigzag", shape.generators, shape.d2_out_first, shape.d1_out_last)
    if hasattr(shape, "p"):
        return ("square", shape.p, shape.q)
    if isinstance(shape, dict):
        if shape["kind"] == "square":
            return ("square", *shape["at"])
        return ("zigzag", tuple(tuple(g) for g in shape["generators"]),
                bool(shape["d2_out_first"]), bool(shape["d1_out_last"]))
    if shape[0] == "square":
        return tuple(shape)
    return ("zigzag", tuple(tuple(g) for g in shape[1]), bool(shape[2]), bool(shape[3]))


# ---------------------------------------------------------------------------
# report-scrambled


def check_report(report, complex_dict, inventory, rmax):
    """Check one `bigraded report` document against its input and known inventory."""
    import sympy
    fails = []
    grid_p, grid_q = complex_dict["grid"]
    dims = {tuple(int(x) for x in k.split(",")): n for k, n in complex_dict["dims"].items()}

    def dim(p, q):
        return dims.get((p, q), 0)

    def d(which, p, q):
        rows = complex_dict[which].get(f"{p},{q}")
        tgt = (p + 1, q) if which == "d1" else (p, q + 1)
        if rows is None:
            return sympy.zeros(dim(*tgt), dim(p, q))
        return sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])

    def rank(m):
        return m.rank() if m.rows and m.cols else 0

    inv = inventory_counts(inventory)
    dec = report.get("decomposition", {})
    if dec.get("status") != "unique":
        fails.append(f"decomposition status {dec.get('status')!r}, expected 'unique'")
    else:
        got = inventory_counts((item["shape"], item["multiplicity"])
                               for item in dec["inventory"])
        if got != inv:
            fails.append("decomposition inventory differs from the built inventory")

    # Betti numbers from sympy ranks of the total differential
    kmax = grid_p + grid_q
    layout = {}
    for k in range(kmax + 1):
        off = 0
        for p in range(k + 1):
            q = k - p
            if dim(p, q):
                layout[(p, q)] = off
                off += dim(p, q)
        layout[("size", k)] = off
    total_rank = {}
    for k in range(kmax + 1):
        src_n, dst_n = layout[("size", k)], layout.get(("size", k + 1), 0)
        m = sympy.zeros(dst_n, src_n)
        for p in range(k + 1):
            q = k - p
            if not dim(p, q):
                continue
            for which, tgt in (("d1", (p + 1, q)), ("d2", (p, q + 1))):
                if dim(*tgt):
                    m[layout[tgt]:layout[tgt] + dim(*tgt),
                      layout[(p, q)]:layout[(p, q)] + dim(p, q)] = d(which, p, q)
        total_rank[k] = rank(m)
    betti = {}
    for k in range(kmax + 1):
        b = layout[("size", k)] - total_rank[k] - total_rank.get(k - 1, 0)
        if b:
            betti[str(k)] = b
    if report.get("betti") != betti:
        fails.append(f"betti {report.get('betti')} != sympy {betti}")

    # first-page tables from sympy-rank formulas
    want = {"pages": {}, "pages_conjugate": {}, "bott_chern": {}, "aeppli": {}}
    for (p, q), n in dims.items():
        d1_out, d2_out = d("d1", p, q), d("d2", p, q)
        d1_in, d2_in = d("d1", p - 1, q), d("d2", p, q - 1)
        e1 = n - rank(d2_out) - rank(d2_in)
        e1bar = n - rank(d1_out) - rank(d1_in)
        bc1 = n - rank(d1_out.col_join(d2_out)) - rank(d("d1", p - 1, q) * d("d2", p - 1, q - 1))
        a1 = (n - rank(d("d2", p + 1, q) * d1_out)
              - rank(d1_in.row_join(d2_in)))
        for table, v in (("pages", e1), ("pages_conjugate", e1bar),
                         ("bott_chern", bc1), ("aeppli", a1)):
            if v:
                want[table][f"{p},{q}"] = v
    for table, grid in want.items():
        if report.get(table, {}).get("1", {}) != grid:
            fails.append(f"{table} page 1 differs from the sympy-rank formula")

    for r in range(1, rmax + 1):
        got = report.get("verdicts", {}).get(str(r), {}).get("verdict")
        if got != structure_rule(inv, r):
            fails.append(f"verdict r={r} is {got}, structure rule says {structure_rule(inv, r)}")
    for r, grid in report.get("harmonic_dims", {}).items():
        if grid != report.get("pages", {}).get(r, {}):
            fails.append(f"harmonic dims differ from page dims at r={r}")
    if len(report.get("harmonic_dims", {})) != min(rmax, 3):
        fails.append("harmonic dims missing")
    if report.get("three_space_checks") is not True or report.get("einfty_ok") is not True:
        fails.append("report flags a failed internal check")
    return fails


# ---------------------------------------------------------------------------
# towers-hodge


def check_tower(u, v, c, grams, out):
    """Calabi-Eckmann facts and harmonic orthogonality for one model."""
    fails = []
    if out["degeneration_page"] != 2:
        fails.append(f"degeneration page {out['degeneration_page']}, expected 2")
    pages = out["pages"]
    rmax = pages.r_max
    betti = {}
    for (r, p, q), n in pages.e.items():
        if r == rmax:
            betti[p + q] = betti.get(p + q, 0) + n
    want = {k: 1 for k in (0, 2 * u + 1, 2 * v + 1, 2 * u + 2 * v + 2)}
    if {k: n for k, n in betti.items() if n} != want:
        fails.append(f"Betti numbers {betti}, expected {want}")
    cell = (u + v + 1, u + v)
    if pages.dim(1, *cell) != 1 or pages.dim(2, *cell) != 0:
        fails.append(f"e_1, e_2 at {cell} are {pages.dim(1, *cell)}, {pages.dim(2, *cell)}")
    for (r, p, q), dec in out["three_space"].items():
        n = c.dim(p, q)
        gram = grams.get((p, q))
        gram = _mat(gram.data) if gram is not None else [
            [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        harm = _columns(dec.harmonic.basis.data, dec.harmonic.dim)
        exact = _columns(dec.exact.basis.data, dec.exact.dim)
        if any(_form(h, gram, e) for h in harm for e in exact):
            fails.append(f"harmonic basis not Gram-orthogonal to page-exact at r={r} {(p, q)}")
        if not dec.ok():
            fails.append(f"three-space decomposition fails at r={r} {(p, q)}")
    for (r, p, q), (h_bc, _) in out["bc_a_harmonic"].items():
        d1 = c.d1_at(p, q).data
        d2 = c.d2_at(p, q).data
        for vec in _columns(h_bc.basis.data, h_bc.dim):
            if any(_apply(d1, vec)) or any(_apply(d2, vec)):
                fails.append(f"Bott-Chern harmonic vector not d1/d2-closed at r={r} {(p, q)}")
    return fails


# ---------------------------------------------------------------------------
# batch-small


def check_small(item, c, out):
    """Inventory, certificate, pairing and JSON round trip for one small input."""
    from bigraded import bicomplex, zigzag
    fails = []
    mult = out["multiplicity"]
    got = inventory_counts(mult.inventory.items()) if mult.status == "unique" else None
    want = inventory_counts(item["inventory"])
    if got != want:
        fails.append(f"inventory {got} != known {want}")
    if not out["certificate"].ok:
        fails.append(f"known certificate rejected: {out['certificate'].reason}")
    cert = out["certificate_obj"]
    first = sorted(cert.transforms)[0]
    m = cert.transforms[first]
    zeroed = type(m)(m.rows, m.cols, [row[:-1] + (Fraction(0),) for row in m.data])
    corrupted = zigzag.DecompositionCertificate({**cert.transforms, first: zeroed}, cert.blocks)
    if zigzag.verify_certificate(c, corrupted).ok:
        fails.append("certificate with a zeroed basis vector accepted")
    dropped = zigzag.DecompositionCertificate(cert.transforms, cert.blocks[:-1])
    if zigzag.verify_certificate(c, dropped).ok:
        fails.append("certificate missing a block accepted")
    if not (out["pairing"].ok and out["pairing"].perfect):
        fails.append("sum_with_dual pairing not compatible and perfect")
    original = item["complex_dict"]
    again = bicomplex.complex_to_dict(c)
    for key in ("dims", "d1", "d2"):
        a = {k: _mat(v) if key != "dims" else v for k, v in original[key].items()}
        b = {k: _mat(v) if key != "dims" else v for k, v in again[key].items()}
        if a != b:
            fails.append(f"JSON round trip changed {key}")
    return fails

