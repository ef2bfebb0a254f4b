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
double complex.  Whether d^2 = 0 is decided on the generators, before any
matrix is built.

The Calabi-Eckmann family is provided ready-made: the Dolbeault-model of
S^{2u+1} x S^{2v+1} with its standard second differential, truncated by
monomial weight.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from itertools import count, takewhile
from operator import add, mul

from bigraded.bicomplex import DoubleComplex, _require_int
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
    one = Matrix.identity(1)
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


_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<num>\d+)|(?P<op>[-+*/^()])"
                    r"|(?P<bad>\S))")


def _tokenize(src):
    """The (kind, value, position) tokens of `src`, closed by ("end", None, len(src))."""
    tokens = []
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        value, at = m[kind], m.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", m.start())
        if kind == "num":
            try:
                value = int(value)
            except ValueError:  # more digits than the interpreter converts
                raise ParseError(f"number of {len(value)} digits is too long", at) from None
        tokens.append((kind, value, at))
    tokens.append(("end", None, len(src)))
    return tokens


class CdgaSpec:
    """Generators with bidegrees, polynomial differential rules, truncation.

    `generators` is an ordered list of ``(name, (p, q))``; parity is the
    total degree mod 2 (odd generators square to zero).  `d1_rules` and
    `d2_rules` map generator names to expression strings.  `truncation` is
    ``(max_p, max_q)``; `weights` optionally assigns a weight per generator
    and `max_weight` cuts monomials with larger total weight.

    The tables by generator index are built once: `names`, `index` (name to
    index), `bidegrees`, `odd` (1 for an odd generator) and `weight` (0 where
    `weights` has none).  A monomial is a tuple of exponents in that order.
    """

    __slots__ = ("generators", "d1_rules", "d2_rules", "truncation", "weights", "max_weight",
                 "names", "index", "bidegrees", "odd", "weight")

    def __init__(self, generators, d1_rules, d2_rules, truncation, weights=None,
                 max_weight=None):
        self.generators = generators
        self.d1_rules = d1_rules
        self.d2_rules = d2_rules
        self.truncation = truncation
        self.weights = weights
        self.max_weight = max_weight
        self.index = {}
        for name, (p, q) in self.generators:
            if not isinstance(name, str):
                raise LinalgError(f"generator name {name!r} is not a string")
            if name in self.index:
                raise LinalgError(f"duplicate generator {name!r}")
            self.index[name] = len(self.index)
            _require_int(p, f"bidegree of {name!r}")
            _require_int(q, f"bidegree of {name!r}")
            if p < 0 or q < 0:
                raise LinalgError(f"generator {name!r} outside the first quadrant")
            if p == 0 and q == 0:
                raise LinalgError(f"generator {name!r} of bidegree (0,0) makes the algebra infinite per bidegree")
        for bound in self.truncation:
            _require_int(bound, "truncation bound", minimum=0)
        for name, w in (self.weights or {}).items():
            if name not in self.index:
                raise LinalgError(f"weight for undeclared generator {name!r}")
            _require_int(w, f"weight for {name!r}")
            if w < 0:
                raise LinalgError(f"negative weight for {name!r}")
        if self.max_weight is not None:
            _require_int(self.max_weight, "max_weight", minimum=0)
        self.names = tuple(self.index)
        self.bidegrees = tuple(tuple(bidegree) for _, bidegree in self.generators)
        self.odd = tuple((p + q) % 2 for p, q in self.bidegrees)
        self.weight = tuple((self.weights or {}).get(name, 0) for name in self.names)

    def mono_bidegree(self, mono):
        return (sum(e * p for e, (p, _) in zip(mono, self.bidegrees)),
                sum(e * q for e, (_, q) in zip(mono, self.bidegrees)))

    def kept(self, mono):
        """Whether `mono` survives truncation: bidegree within `truncation`, weight within `max_weight`.

        `mono` may be a prefix of the exponent tuple.  The monomials not kept
        form an ideal, since no generator has a negative degree or weight.
        """
        p, q = self.mono_bidegree(mono)
        return p <= self.truncation[0] and q <= self.truncation[1] and (
            self.max_weight is None or sum(map(mul, mono, self.weight)) <= self.max_weight)

    def mono_str(self, mono):
        return "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip(self.names, mono) if e) or "1"


def mono_mul(m1, m2, spec):
    """Product of two monomials: (sign, monomial), or (0, None) when an odd generator repeats.

    Bringing the product into declaration order moves each odd factor of m2
    left past the odd factors of m1 at later indices, and even factors
    commute freely, so the Koszul sign is (-1) to the number of such pairs.
    """
    sign, later = 1, 0  # later: parity of the odd factors of m1 after index i
    for i in range(len(m1) - 1, -1, -1):
        if spec.odd[i]:
            if m1[i] and m2[i]:
                return 0, None
            if m2[i] and later:
                sign = -sign
            later ^= m1[i]
    return sign, tuple(map(add, m1, m2))


def parse_expression(src, spec: CdgaSpec):
    """Parse a sum of rational-coefficient monomials in the declared generators.

    Grammar: an optional sign, then terms joined by '+'/'-'; a term is
    '*'-separated factors, each either a rational number (``3``, ``3/2``) or
    ``name['^' power]``.  One left-to-right scan reads it.  The factors of a
    term are multiplied in written order by `mono_mul`, and an odd generator
    to a power of 2 or more is zero.  The result is a normalised polynomial
    ``{exponent tuple: Fraction}``.
    """
    tokens = _tokenize(src)
    unit = (0,) * len(spec.names)
    poly = {}
    i = 1 if tokens[0][1] in ("+", "-") else 0
    coeff, mono = Q(-1 if tokens[0][1] == "-" else 1), unit
    while True:
        kind, value, at = tokens[i]
        if kind == "num":
            coeff *= value
            if tokens[i + 1][1] == "/":
                i += 2
                kind, den, at = tokens[i]
                if kind != "num":
                    raise ParseError("expected denominator after '/'", at)
                if den == 0:
                    raise ParseError("zero denominator", at)
                coeff /= den
        elif kind == "name":
            if value not in spec.index:
                raise ParseError(f"undeclared name {value!r}", at)
            g, power = spec.index[value], 1
            if tokens[i + 1][1] == "^":
                neg = tokens[i + 2][1] == "-"
                i += 2 + neg
                kind, power, at = tokens[i]
                if kind != "num":
                    raise ParseError("expected exponent after '^'", at)
                if neg and power:
                    raise ParseError("negative exponent", at)
            if power > 1 and spec.odd[g]:
                coeff = Q(0)
            elif coeff:
                s, mono = mono_mul(mono, unit[:g] + (power,) + unit[g + 1:], spec)
                coeff *= s
        else:
            raise ParseError(f"unexpected token {value!r}", at)
        kind, value, at = tokens[i + 1]  # the token after the factor's last
        i += 2
        if value == "*":
            continue
        if coeff:
            poly[mono] = poly.get(mono, 0) + coeff
            if not poly[mono]:
                del poly[mono]
        if kind == "end":
            return poly
        if value not in ("+", "-"):
            raise ParseError(f"expected '+' or '-', got {value!r}", at)
        coeff, mono = Q(-1 if value == "-" else 1), unit


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


def _derive(poly, rules, spec: CdgaSpec):
    """A derivation, given by `rules` {generator index: polynomial}, applied to `poly`.

    Left Leibniz rule: the derivation passes the factors before the one it
    acts on with the sign (-1) to their odd count, and takes x^e to
    e x^{e-1} dx for an even x.  Terms that `spec.kept` drops are left out.
    """
    out = {}
    for mono, c in poly.items():
        passed = 0  # parity of the odd factors before index i
        for i, e in enumerate(mono):
            rule = rules.get(i) if e else None
            if rule:
                left = mono[:i] + (e - 1,) + (0,) * (len(mono) - i - 1)
                right = (0,) * (i + 1) + mono[i + 1:]
                lead = (-c if passed else c) * (1 if spec.odd[i] else e)
                for rmono, rc in rule.items():
                    s1, m = mono_mul(left, rmono, spec)
                    s2, m = mono_mul(m, right, spec) if s1 else (0, None)
                    if s2 and spec.kept(m):
                        out[m] = out.get(m, 0) + s1 * s2 * lead * rc
            passed ^= e & spec.odd[i]
    return {m: x for m, x in out.items() if x}


def _parse_rules(spec, rules, shift, which):
    """{generator index: polynomial} of one differential's rules, each of the right bidegree.

    Under a weight truncation no term may weigh less than its generator, so
    that the discarded monomials stay discarded.
    """
    out = {}
    for name, src in rules.items():
        if not isinstance(src, str):
            raise LinalgError(f"{which} rule for {name!r} must be an expression string, got {src!r}")
        poly = parse_expression(src, spec)
        if name not in spec.index:
            raise LinalgError(f"{which} rule for undeclared generator {name!r}")
        i = spec.index[name]
        want = (spec.bidegrees[i][0] + shift[0], spec.bidegrees[i][1] + shift[1])
        for mono in poly:
            if spec.mono_bidegree(mono) != want:
                raise LinalgError(
                    f"{which} rule for {name!r} has a term of bidegree "
                    f"{spec.mono_bidegree(mono)}, expected {want}")
            if spec.max_weight is not None and sum(map(mul, mono, spec.weight)) < spec.weight[i]:
                raise LinalgError(
                    f"truncation not differential-stable: {which} rule for {name!r} "
                    f"lowers the monomial weight")
        out[i] = poly
    return out


def _check_square_zero(spec, d1, d2):
    """Refuse the model unless d1 d1, d2 d2 and d1 d2 + d2 d1 vanish on every kept generator.

    Each of the three is a derivation, and the monomials that `spec.kept`
    drops form an ideal that d1 and d2 preserve, so each is zero on the
    truncated algebra exactly when it is zero, modulo truncation, on its
    generators.  The message gives the first nonzero value, cut to 200
    characters.
    """
    n = len(spec.names)
    for i, name in enumerate(spec.names):
        g = (0,) * i + (1,) + (0,) * (n - i - 1)
        if not spec.kept(g):
            continue
        a, b = _derive({g: Q(1)}, d1, spec), _derive({g: Q(1)}, d2, spec)
        anti = _derive(b, d1, spec)
        for m, x in _derive(a, d2, spec).items():
            anti[m] = anti.get(m, 0) + x
        for identity, value in ((f"d1 d1 {name}", _derive(a, d1, spec)),
                                (f"d2 d2 {name}", _derive(b, d2, spec)),
                                (f"d1 d2 {name} + d2 d1 {name}", anti)):
            text = expression_to_str({m: x for m, x in value.items() if x}, spec)
            if text != "0":
                cut = text if len(text) <= 200 else text[:200] + " …"
                raise LinalgError(f"invalid CDGA: {identity} = {cut}, not 0")


def build_cdga(spec: CdgaSpec, name="cdga") -> DoubleComplex:
    """Realise the (truncated) free graded-commutative algebra as a double complex.

    Checks d^2 = 0 on the generators, enumerates the monomials that
    `spec.kept` keeps and extends the rules to them as derivations.  The
    matrices are not validated here but once by whoever consumes the
    complex (`Workspace`, or the command line).
    """
    d1 = _parse_rules(spec, spec.d1_rules, (1, 0), "d1")
    d2 = _parse_rules(spec, spec.d2_rules, (0, 1), "d2")
    _check_square_zero(spec, d1, d2)
    monomials = [()]  # in lexicographic order, so each cell's list below is sorted
    for odd in spec.odd:
        monomials = [m + (e,) for m in monomials for e in takewhile(
            lambda e, m=m: spec.kept(m + (e,)), range(2) if odd else count())]
    by_cell = {}
    for mono in monomials:
        by_cell.setdefault(spec.mono_bidegree(mono), []).append(mono)
    dims = {cell: len(monos) for cell, monos in by_cell.items()}
    row = {mono: j for monos in by_cell.values() for j, mono in enumerate(monos)}

    def matrices(rules, shift):
        table = {}
        for (p, q), monos in by_cell.items():
            rows = dims.get((p + shift[0], q + shift[1]), 0)
            if rows:
                data = [[Q(0)] * len(monos) for _ in range(rows)]
                for j, mono in enumerate(monos):
                    for image, x in _derive({mono: Q(1)}, rules, spec).items():
                        data[row[image]][j] = x
                table[(p, q)] = Matrix(rows, len(monos), data)
        return table

    return DoubleComplex(name, max((p for p, _ in by_cell), default=0),
                         max((q for _, q in by_cell), default=0), dims,
                         matrices(d1, (1, 0)), matrices(d2, (0, 1)),
                         labels={cell: [spec.mono_str(m) for m in monos]
                                 for cell, monos in by_cell.items()})


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
