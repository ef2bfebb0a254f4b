"""Builders for double complexes: indecomposable shapes and truncated CDGA models.

Shapes
------
The indecomposable bounded double complexes are squares and zigzags.  A
square is generated by one element a with d1 d2 a != 0.  A zigzag is a
staircase of generators a_1, ..., a_g of one total degree with
d1 a_i = d2 a_{i+1} != 0; the outermost arrows d2 a_1 and d1 a_g may or may
not be present, which gives the four classical types (even in two
orientations, odd with both outer arrows or with neither).  A dot is the
length-one zigzag.

A shape is described once, by its arrows (`shape_arrows`), and everything
else is read off that list: its cells are the arrows' endpoints (a dot's
single generator when it has none), its length is their number, and
`build_shape` gives the complex, one basis vector per cell and one nonzero
entry per arrow.

CDGA models
-----------
`build_cdga` turns a finite list of graded generators with polynomial
differential rules into a concrete double complex on a monomial basis, using
the Koszul sign rule ab = (-1)^{|a||b|} ba and the left Leibniz rule
d(ab) = (da)b + (-1)^{|a|} a(db).  Infinite algebras are handled through a
truncation that is accepted only when the discarded monomials form an ideal
stable under both derivations, so the retained object is an honest quotient
double complex.

The Calabi-Eckmann family is provided ready-made: the Dolbeault-model of
S^{2u+1} x S^{2v+1} with its standard second differential, truncated by
monomial weight.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache

from bigraded.bicomplex import DoubleComplex, _require_int, require_valid
from bigraded.linalg import LinalgError, Matrix

Q = Fraction

__all__ = [
    "Square",
    "ZigzagShape",
    "dot_shape",
    "shape_cells",
    "shape_length",
    "shape_arrows",
    "build_shape",
    "CdgaSpec",
    "ParseError",
    "parse_expression",
    "expression_to_str",
    "build_cdga",
    "example_calabi_eckmann",
    "cdga_from_dict",
]


# ---------------------------------------------------------------------------
# Indecomposable shapes


class _Shape:
    """An immutable shape, equal only to a shape of its own class with the same `_key()`.

    The hash is that of the `_key()` tuple, computed once in the constructor.
    """

    __slots__ = ("_hash",)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Square(_Shape):
    __slots__ = ("p", "q")

    def __init__(self, p, q):
        if p < 0 or q < 0:
            raise LinalgError("square outside the first quadrant")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_hash", hash(self._key()))

    def _key(self):
        return (self.p, self.q)

    def __repr__(self):
        return f"Square(p={self.p!r}, q={self.q!r})"


class ZigzagShape(_Shape):
    """Zigzag with generators on a down-right staircase of one total degree.

    `generators` lists the bidegrees of a_1, ..., a_g with consecutive
    entries differing by (+1, -1).  `d2_out_first` adds the arrow d2 a_1
    (one extra cell above the first generator), `d1_out_last` adds d1 a_g
    (one extra cell right of the last).  Length = vector-space dimension.
    """

    __slots__ = ("generators", "d2_out_first", "d1_out_last")

    def __init__(self, generators, d2_out_first, d1_out_last):
        if not generators:
            raise LinalgError("zigzag needs at least one generator")
        for (p, q) in generators:
            if p < 0 or q < 0:
                raise LinalgError("zigzag generator outside the first quadrant")
        for (p0, q0), (p1, q1) in zip(generators, generators[1:]):
            if (p1 - p0, q1 - q0) != (1, -1):
                raise LinalgError(
                    f"malformed staircase: {(p0, q0)} -> {(p1, q1)} is not a (+1,-1) step")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "d2_out_first", d2_out_first)
        object.__setattr__(self, "d1_out_last", d1_out_last)
        object.__setattr__(self, "_hash", hash(self._key()))

    def _key(self):
        return (self.generators, self.d2_out_first, self.d1_out_last)

    def __repr__(self):
        return (f"ZigzagShape(generators={self.generators!r}, "
                f"d2_out_first={self.d2_out_first!r}, d1_out_last={self.d1_out_last!r})")

    @property
    def gen_count(self):
        return len(self.generators)

    def is_dot(self):
        return self.gen_count == 1 and not (self.d2_out_first or self.d1_out_last)


def dot_shape(p, q):
    return ZigzagShape(((p, q),), False, False)


def shape_arrows(shape):
    """Rank-one arrows of the shape as (source cell, 'd1'|'d2', target cell).

    This list is the one description of a shape; its cells, its length and
    its complex are all read off it.  An arrow out of a cell that is not a
    generator comes after an arrow into that cell, and a square's d2 out of
    (p+1, q) comes before its d1 out of (p, q+1), so that `build_shape`
    labels the top cell ``d2(d1(a))``.
    """
    if isinstance(shape, Square):
        p, q = shape.p, shape.q
        return [((p, q), "d1", (p + 1, q)), ((p, q), "d2", (p, q + 1)),
                ((p + 1, q), "d2", (p + 1, q + 1)), ((p, q + 1), "d1", (p + 1, q + 1))]
    arrows = []
    gens = shape.generators
    for (p, q) in gens[:-1]:
        arrows.append(((p, q), "d1", (p + 1, q)))
    for (p, q) in gens[1:]:
        arrows.append(((p, q), "d2", (p, q + 1)))
    if shape.d2_out_first:
        p, q = gens[0]
        arrows.append(((p, q), "d2", (p, q + 1)))
    if shape.d1_out_last:
        p, q = gens[-1]
        arrows.append(((p, q), "d1", (p + 1, q)))
    return arrows


@cache
def shape_cells(shape):
    """Bidegrees occupied by the shape, sorted, each of dimension one.

    They are the endpoints of its arrows, or a dot's single generator.  The
    tuple is kept per shape: the invariant engines ask for it often.
    """
    arrows = shape_arrows(shape)
    if not arrows:
        return shape.generators
    return tuple(sorted({cell for src, _, dst in arrows for cell in (src, dst)}))


def shape_length(shape):
    return len(shape_cells(shape))


def build_shape(shape, grid=None) -> DoubleComplex:
    """The shape as a double complex: one basis vector per cell, one entry per arrow.

    Every arrow carries 1, except a d2 out of a d1 image (the square's
    d2 out of (p+1, q)), which carries -1 so that the two differentials
    anticommute; all other composites through a shape vanish for degree
    reasons.  The generators (cells without an incoming arrow) are
    labelled ``a`` in a square and ``a1``, ..., ``ag`` in a zigzag, every
    other cell by its first incoming arrow.  `grid` defaults to the
    shape's own extent.
    """
    arrows = shape_arrows(shape)
    cells = shape_cells(shape)
    targets = {dst for _, _, dst in arrows}
    gens = [cell for cell in cells if cell not in targets]
    if isinstance(shape, Square):
        kind, labels = "square", {gens[0]: ["a"]}
    else:
        kind = "dot" if len(cells) == 1 else f"zigzag-len{len(cells)}"
        labels = {g: [f"a{i + 1}"] for i, g in enumerate(gens)}
    d1_images = {dst for _, which, dst in arrows if which == "d1"}
    one = Matrix.from_rows([[1]])
    d = {"d1": {}, "d2": {}}
    for src, which, dst in arrows:
        d[which][src] = -one if which == "d2" and src in d1_images else one
        labels.setdefault(dst, [f"{which}({labels[src][0]})"])
    pmax, qmax = grid or (max(p for p, _ in cells), max(q for _, q in cells))
    p, q = gens[0]
    c = DoubleComplex(f"{kind}@{p},{q}", pmax, qmax, dict.fromkeys(cells, 1),
                      d["d1"], d["d2"])
    c.labels.update(labels)
    return c


# ---------------------------------------------------------------------------
# Expression parser for differential rules


class ParseError(LinalgError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<num>\d+)|(?P<op>[-+*/^()]))")


def _tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None or m.end() == pos:
            rest = src[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", pos)
        if m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        elif m.group("num"):
            tokens.append(("num", int(m.group("num")), m.start("num")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(src)))
    return tokens


class CdgaSpec:
    """Generators with bidegrees, polynomial differential rules, truncation.

    `generators` is an ordered list of ``(name, (p, q))``; parity is the
    total degree mod 2 (odd generators square to zero).  `d1_rules` and
    `d2_rules` map generator names to expression strings.  `truncation` is
    ``(max_p, max_q)``; `weights` optionally assigns a weight per generator
    and `max_weight` cuts monomials with larger total weight.
    """

    __slots__ = ("generators", "d1_rules", "d2_rules", "truncation", "weights", "max_weight")

    def __init__(self, generators, d1_rules, d2_rules, truncation, weights=None,
                 max_weight=None):
        self.generators = generators
        self.d1_rules = d1_rules
        self.d2_rules = d2_rules
        self.truncation = truncation
        self.weights = weights
        self.max_weight = max_weight
        seen = set()
        for name, (p, q) in self.generators:
            if not isinstance(name, str):
                raise LinalgError(f"generator name {name!r} is not a string")
            if name in seen:
                raise LinalgError(f"duplicate generator {name!r}")
            seen.add(name)
            _require_int(p, f"bidegree of {name!r}")
            _require_int(q, f"bidegree of {name!r}")
            if p < 0 or q < 0:
                raise LinalgError(f"generator {name!r} outside the first quadrant")
            if p == 0 and q == 0:
                raise LinalgError(f"generator {name!r} of bidegree (0,0) makes the algebra infinite per bidegree")
        for which, rules in (("d1", self.d1_rules), ("d2", self.d2_rules)):
            for name, expr in rules.items():
                if not isinstance(expr, str):
                    raise LinalgError(
                        f"{which} rule for {name!r} must be an expression string, got {expr!r}")
        for bound in self.truncation:
            _require_int(bound, "truncation bound", minimum=0)
        for name, w in (self.weights or {}).items():
            if name not in seen:
                raise LinalgError(f"weight for undeclared generator {name!r}")
            _require_int(w, f"weight for {name!r}")
            if w < 0:
                raise LinalgError(f"negative weight for {name!r}")
        if self.max_weight is not None:
            _require_int(self.max_weight, "max_weight", minimum=0)

    @property
    def names(self):
        return [name for name, _ in self.generators]

    def bidegree(self, i):
        return self.generators[i][1]

    def parity(self, i):
        p, q = self.generators[i][1]
        return (p + q) % 2

    def mono_bidegree(self, mono):
        p = sum(e * self.bidegree(i)[0] for i, e in enumerate(mono))
        q = sum(e * self.bidegree(i)[1] for i, e in enumerate(mono))
        return p, q

    def mono_weight(self, mono):
        if not self.weights:
            return 0
        w = 0
        for i, e in enumerate(mono):
            w += e * self.weights.get(self.names[i], 0)
        return w

    def mono_str(self, mono):
        parts = []
        for i, e in enumerate(mono):
            if e == 1:
                parts.append(self.names[i])
            elif e > 1:
                parts.append(f"{self.names[i]}^{e}")
        return "*".join(parts) if parts else "1"


def _koszul_sort(factors, spec):
    """Sort written factors into declaration order, tracking the Koszul sign.

    `factors` is a list of (generator index, exponent).  Returns
    ``(sign, factors_sorted)``; blocks of even total degree move freely,
    swapping two odd blocks flips the sign.
    """
    factors = list(factors)
    sign = 1
    changed = True
    while changed:
        changed = False
        for k in range(len(factors) - 1):
            (i1, e1), (i2, e2) = factors[k], factors[k + 1]
            if i1 > i2:
                if (e1 * spec.parity(i1)) % 2 and (e2 * spec.parity(i2)) % 2:
                    sign = -sign
                factors[k], factors[k + 1] = factors[k + 1], factors[k]
                changed = True
    return sign, factors


def _factors_to_mono(sign, factors, spec):
    """Collect sorted factors into an exponent tuple; odd squares kill the term."""
    expo = [0] * len(spec.generators)
    for i, e in factors:
        expo[i] += e
    for i, e in enumerate(expo):
        if e >= 2 and spec.parity(i):
            return 0, None
    return sign, tuple(expo)


def mono_mul(m1, m2, spec):
    """Product of two canonical monomials: (sign, monomial) or (0, None)."""
    factors = [(i, e) for i, e in enumerate(m1) if e] + \
              [(i, e) for i, e in enumerate(m2) if e]
    sign, factors = _koszul_sort(factors, spec)
    return _factors_to_mono(sign, factors, spec)


def parse_expression(src, spec: CdgaSpec):
    """Parse a sum of rational-coefficient monomials in the declared generators.

    Grammar: terms joined by '+'/'-'; a term is '*'-separated factors, each
    either a rational number (``3``, ``3/2``) or ``name['^' power]``.  The
    result is a normalised polynomial ``{exponent tuple: Fraction}`` with
    Koszul signs applied and odd squares removed.
    """
    index = {name: i for i, name in enumerate(spec.names)}
    tokens = _tokenize(src)
    pos = 0

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        t = tokens[pos]
        pos += 1
        return t

    def parse_factor():
        kind, value, at = advance()
        if kind == "num":
            coeff = Q(value)
            if peek()[:2] == ("op", "/"):
                advance()
                k2, v2, at2 = advance()
                if k2 != "num":
                    raise ParseError("expected denominator after '/'", at2)
                if v2 == 0:
                    raise ParseError("zero denominator", at2)
                coeff /= v2
            return coeff, None
        if kind == "name":
            if value not in index:
                raise ParseError(f"undeclared name {value!r}", at)
            power = 1
            if peek()[:2] == ("op", "^"):
                advance()
                k2, v2, at2 = advance()
                neg = False
                if (k2, v2) == ("op", "-"):
                    neg = True
                    k2, v2, at2 = advance()
                if k2 != "num":
                    raise ParseError("expected exponent after '^'", at2)
                power = -v2 if neg else v2
                if power < 0:
                    raise ParseError("negative exponent", at2)
            return None, (index[value], power)
        raise ParseError(f"unexpected token {value!r}", at)

    def parse_term():
        coeff = Q(1)
        factors = []
        while True:
            c, f = parse_factor()
            if c is not None:
                coeff *= c
            elif f is not None:
                factors.append(f)
            if peek()[:2] == ("op", "*"):
                advance()
                continue
            break
        return coeff, factors

    poly = {}
    sign = 1
    kind, value, at = peek()
    if (kind, value) == ("op", "-"):
        advance()
        sign = -1
    elif (kind, value) == ("op", "+"):
        advance()
    while True:
        coeff, factors = parse_term()
        ks, sorted_factors = _koszul_sort(factors, spec)
        ks, mono = _factors_to_mono(ks, sorted_factors, spec)
        if ks and coeff:
            poly[mono] = poly.get(mono, Q(0)) + sign * ks * coeff
            if poly[mono] == 0:
                del poly[mono]
        kind, value, at = peek()
        if kind == "end":
            break
        if (kind, value) == ("op", "+"):
            advance()
            sign = 1
        elif (kind, value) == ("op", "-"):
            advance()
            sign = -1
        else:
            raise ParseError(f"expected '+' or '-', got {value!r}", at)
    return poly


def expression_to_str(poly, spec: CdgaSpec):
    """Render a normalised polynomial; re-parsing yields the identical dict."""
    if not poly:
        return "0"
    chunks = []
    for mono in sorted(poly):
        c = poly[mono]
        body = spec.mono_str(mono)
        if body == "1":
            term = str(abs(c))
        elif abs(c) == 1:
            term = body
        else:
            term = f"{abs(c)}*{body}"
        if not chunks:
            chunks.append(("-" if c < 0 else "") + term)
        else:
            chunks.append(("- " if c < 0 else "+ ") + term)
    return " ".join(chunks)


def _derive_mono(mono, rules, spec: CdgaSpec):
    """Apply a degree-one derivation with left Leibniz rule to a monomial."""
    out = {}
    prefix_parity = 0
    for i, e in enumerate(mono):
        if e:
            rule = rules.get(spec.names[i])
            if rule:
                left = list(mono[: i + 1]) + [0] * (len(mono) - i - 1)
                left[i] = e - 1
                right = [0] * len(mono)
                for j in range(i + 1, len(mono)):
                    right[j] = mono[j]
                base = Q(e if spec.parity(i) == 0 else 1)
                lead = -base if prefix_parity else base
                for rmono, rc in rule.items():
                    s1, m1 = mono_mul(tuple(left), rmono, spec)
                    if not s1:
                        continue
                    s2, m2 = mono_mul(m1, tuple(right), spec)
                    if not s2:
                        continue
                    coeff = lead * rc * s1 * s2
                    out[m2] = out.get(m2, Q(0)) + coeff
                    if out[m2] == 0:
                        del out[m2]
            prefix_parity = (prefix_parity + e * spec.parity(i)) % 2
    return out


def _check_rule_bidegrees(spec, rules, shift, which):
    for name, poly in rules.items():
        if name not in spec.names:
            raise LinalgError(f"{which} rule for undeclared generator {name!r}")
        i = spec.names.index(name)
        gp, gq = spec.bidegree(i)
        want = (gp + shift[0], gq + shift[1])
        for mono in poly:
            if spec.mono_bidegree(mono) != want:
                raise LinalgError(
                    f"{which} rule for {name!r} has a term of bidegree "
                    f"{spec.mono_bidegree(mono)}, expected {want}")


def _check_truncation_stability(spec, rules, which):
    """Discarded monomials must stay discarded: no rule may lower the weight."""
    if spec.max_weight is None:
        return
    for name, poly in rules.items():
        wg = (spec.weights or {}).get(name, 0)
        for mono in poly:
            if spec.mono_weight(mono) < wg:
                raise LinalgError(
                    f"truncation not differential-stable: {which} rule for {name!r} "
                    f"lowers the monomial weight")


def build_cdga(spec: CdgaSpec, name="cdga") -> DoubleComplex:
    """Realise the (truncated) free graded-commutative algebra as a double complex.

    Enumerates the monomial basis inside the truncation region, extends the
    rules as derivations, drops images that leave the region (legal because
    the discarded set is verified stable under both derivations) and
    validates the resulting complex.
    """
    max_p, max_q = spec.truncation
    d1_rules = {n: parse_expression(e, spec) for n, e in spec.d1_rules.items()}
    d2_rules = {n: parse_expression(e, spec) for n, e in spec.d2_rules.items()}
    _check_rule_bidegrees(spec, d1_rules, (1, 0), "d1")
    _check_rule_bidegrees(spec, d2_rules, (0, 1), "d2")
    _check_truncation_stability(spec, d1_rules, "d1")
    _check_truncation_stability(spec, d2_rules, "d2")

    ngen = len(spec.generators)
    bounds = []
    for i in range(ngen):
        if spec.parity(i):
            bounds.append(1)
            continue
        gp, gq = spec.bidegree(i)
        b = []
        if gp:
            b.append(max_p // gp)
        if gq:
            b.append(max_q // gq)
        if spec.max_weight is not None:
            w = (spec.weights or {}).get(spec.names[i], 0)
            if w:
                b.append(spec.max_weight // w)
        bounds.append(min(b))

    monomials = []

    def enumerate_monos(i, current):
        if i == ngen:
            monomials.append(tuple(current))
            return
        for e in range(bounds[i] + 1):
            current.append(e)
            p, q = spec.mono_bidegree(tuple(current + [0] * (ngen - i - 1)))
            if p <= max_p and q <= max_q and (
                    spec.max_weight is None
                    or spec.mono_weight(tuple(current + [0] * (ngen - i - 1))) <= spec.max_weight):
                enumerate_monos(i + 1, current)
            current.pop()

    enumerate_monos(0, [])

    by_cell = {}
    for mono in monomials:
        by_cell.setdefault(spec.mono_bidegree(mono), []).append(mono)
    for cell in by_cell:
        by_cell[cell].sort()
    index = {}
    for cell, monos in by_cell.items():
        for j, mono in enumerate(monos):
            index[mono] = (cell, j)

    pmax = max((p for (p, _) in by_cell), default=0)
    qmax = max((q for (_, q) in by_cell), default=0)
    dims = {cell: len(monos) for cell, monos in by_cell.items()}

    def derivative_matrices(rules, shift):
        table = {}
        for (p, q), monos in by_cell.items():
            tgt = (p + shift[0], q + shift[1])
            nr = dims.get(tgt, 0)
            if nr == 0:
                continue
            data = [[Q(0)] * len(monos) for _ in range(nr)]
            for j, mono in enumerate(monos):
                for m2, coeff in _derive_mono(mono, rules, spec).items():
                    hit = index.get(m2)
                    if hit is None:
                        continue  # image left the truncation region
                    data[hit[1]][j] = coeff
            table[(p, q)] = Matrix(nr, len(monos), data)
        return table

    d1 = derivative_matrices(d1_rules, (1, 0))
    d2 = derivative_matrices(d2_rules, (0, 1))
    c = DoubleComplex(name, pmax, qmax, dims, d1, d2)
    for cell, monos in by_cell.items():
        c.labels[cell] = [spec.mono_str(m) for m in monos]
    require_valid(c)
    return c


def example_calabi_eckmann(u, v, weight_bound=None) -> DoubleComplex:
    """Truncated Dolbeault-model complex of the Calabi-Eckmann manifold X_{u,v}.

    Generators: x01 at (0,1), x11 at (1,1), y at (u+1,u), xv at (v+1,v),
    with d2 y = x11^{u+1} and d1 x01 = x11.  Monomial weight
    w = (power of x11) + (u+1)(exponent of y) never drops under either
    derivation, so cutting w > W yields a genuine quotient double complex.

    Dimensions at p <= W - (u+2) agree with the untruncated model; the
    certified bound is recorded in ``meta`` and reports beyond it should be
    treated as truncation artifacts.
    """
    if not (0 <= u <= v):
        raise LinalgError("requires 0 <= u <= v")
    default_w = 2 * (u + v + 2)
    W = default_w if weight_bound is None else weight_bound
    if W < default_w:
        raise LinalgError(
            f"weight bound {W} too small for the standard report range (need >= {default_w})")
    big = W + u + v + 3
    spec = CdgaSpec(
        generators=[("x01", (0, 1)), ("x11", (1, 1)),
                    ("y", (u + 1, u)), ("xv", (v + 1, v))],
        d1_rules={"x01": "x11"},
        d2_rules={"y": f"x11^{u + 1}"},
        truncation=(big, big),
        weights={"x11": 1, "y": u + 1},
        max_weight=W,
    )
    c = build_cdga(spec, name=f"calabi-eckmann-{u}-{v}")
    c.meta.update({"u": u, "v": v, "weight_bound": W,
                   "certified_max_p": W - (u + 2)})
    return c


def cdga_from_dict(obj, name="cdga") -> DoubleComplex:
    """Read the CDGA JSON format and build the complex."""
    try:
        gens = [(g["name"], tuple(g["bidegree"])) for g in obj["generators"]]
        trunc = obj.get("truncation", {})
        spec = CdgaSpec(
            generators=gens,
            d1_rules=dict(obj.get("d1", {})),
            d2_rules=dict(obj.get("d2", {})),
            truncation=(trunc["max_p"], trunc["max_q"]),
            weights=trunc.get("weights"),
            max_weight=trunc.get("max_weight"),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise LinalgError(f"malformed CDGA file: {exc}") from exc
    return build_cdga(spec, name=obj.get("name", name))
