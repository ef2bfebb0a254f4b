"""Command-line interface: ingestion, reports, example generation.

Subcommands
-----------
validate        check the double-complex identities
pages           page dimension grids (and conjugate pages)
bca             higher-page Bott-Chern / Aeppli dimension grids
check-pageddbar page-(r-1) del-delbar verdict by all criteria
hodge           harmonic realisation dimensions and decomposition checks
decompose       inventory of indecomposable summands
duality         induced pairings against a supplied pairing file
example         write a complex, such as a built-in example, to a file
report          run everything and emit one document

Inputs are JSON complex files or ``example://`` URIs (dot, square, zigzag,
ce, random).  Output is deterministic: identical inputs give
byte-identical documents.  Exit codes: 0 success, 1 an invalid input
(an input too large for memory included) or an implementation fault, 2
usage error, 130 interrupted (Ctrl-C), without a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from urllib.parse import parse_qsl, urlparse

from bigraded import bca as bca_mod
from bigraded import bicomplex, hodge, models, spectral, zigzag
from bigraded.bicomplex import _key, _matrices_from_dict, _unkey
from bigraded.linalg import LinalgError
from bigraded.spectral import ConsistencyError

FORMAT_VERSION = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse whose errors raise `UsageError`, so `main` prints them as the error object."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# input handling


def load_input(spec):
    """A complex from a file path or an example:// URI."""
    if spec.startswith("example://"):
        return _example(spec)
    obj = _read_json(spec)
    if isinstance(obj, dict) and "generators" in obj:
        return models.cdga_from_dict(obj)
    return bicomplex.complex_from_dict(obj)


def _read_json(path):
    """The JSON document in the file `path`; an unreadable file or bad JSON is a usage error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, too long, too deep
        raise UsageError(f"cannot read {path!r}: {exc}") from exc


# the query keys each example:// kind accepts
_EXAMPLE_KEYS = {"dot": ("at",), "square": ("at",), "zigzag": ("start", "gens", "left", "right"),
                 "ce": ("u", "v", "w"), "random": ("grid", "seed", "maxdim")}


def _example(uri):
    """The built-in example of an `example://KIND?key=value&...` URI.

    An unknown kind or key, a key given twice, or a bad value, is a usage
    error; a key left blank takes its default.
    """
    parsed = urlparse(uri)
    kind = parsed.netloc or parsed.path.lstrip("/")
    if kind not in _EXAMPLE_KEYS:
        raise UsageError(f"unknown example {kind!r} "
                         "(expected dot, square, zigzag, ce or random)")
    given = {}
    for key, value in parse_qsl(parsed.query, keep_blank_values=True):
        if key not in _EXAMPLE_KEYS[kind]:
            raise UsageError(f"unknown key {key!r} in example://{kind} "
                             f"(accepted: {', '.join(_EXAMPLE_KEYS[kind])})")
        if key in given:
            raise UsageError(f"key {key!r} given twice in example://{kind}")
        given[key] = value
    params = {key: value for key, value in given.items() if value}
    try:
        if kind == "dot":
            return models.build_shape(models.dot_shape(*_unkey(params.get("at", "0,0"))))
        if kind == "square":
            return models.build_shape(models.Square(*_unkey(params.get("at", "0,0"))))
        if kind == "zigzag":
            p, q = _unkey(params.get("start", "0,1"))
            gens = int(params.get("gens", "1"))
            arrows = {key: params.get(key, "0") for key in ("left", "right")}
            for key, value in arrows.items():
                if value not in ("0", "1"):
                    raise UsageError(f"bad zigzag example: {key} must be 0 or 1, got {value!r}")
            return models.build_shape(models.ZigzagShape(
                tuple((p + i, q - i) for i in range(gens)), arrows["left"] == "1",
                arrows["right"] == "1"))
        if kind == "ce":
            u = int(params.get("u", "1"))
            v = int(params.get("v", "1"))
            w = params.get("w")
            return models.example_calabi_eckmann(u, v, int(w) if w else None)
        grid = _unkey(params.get("grid", "4,4"))
        seed = int(params.get("seed", "0"))
        max_dim = int(params.get("maxdim", "4"))
        return bicomplex.random_complex(grid, max_dim, seed)
    except (ValueError, LinalgError) as exc:
        raise UsageError(f"bad {kind} example: {exc}") from exc


def _load_gram(path, c):
    """The inner product of a Gram file, each matrix checked against its cell of `c`."""
    def shape(p, q):
        n = c.dim(p, q)
        if n == 0:
            raise LinalgError(f"Gram at {_key(p, q)} is not a nonzero component of the complex")
        return n, n

    try:
        return hodge.InnerProduct(_matrices_from_dict(_read_json(path), "Gram", shape))
    except LinalgError as exc:
        raise UsageError(f"bad Gram file {path!r}: {exc}") from exc


def _load_pairing(path):
    from bigraded.pairing import pairing_from_dict  # only commands with --pairing compile it
    return pairing_from_dict(_read_json(path))


# ---------------------------------------------------------------------------
# table assembly


# JSON keys of the invariant tables the commands print, by `Invariants` tag
_PAGE_KEYS = {"e": "pages", "ebar": "pages_conjugate"}
_BCA_KEYS = {"bc": "bott_chern", "a": "aeppli"}


def _tables_section(c, table, keys):
    """The grids `{"r": {"p,q": dim}}` of `table`, r = 1..r_max, under the JSON keys of `keys`.

    A truncated model drops its rows beyond the certified range from every
    grid, and `suppressed_cells` lists each cell dropped from any of them.
    """
    bound = c.meta.get("certified_max_p")
    section = {key: {str(r): {} for r in range(1, table.r_max + 1)} for key in keys.values()}
    dropped = set()
    for tag, key in keys.items():
        for (r, p, q), v in getattr(table, tag).items():
            if bound is not None and p > bound:
                dropped.add((p, q))
            else:
                section[key][str(r)][_key(p, q)] = v
    if dropped:
        section["suppressed_cells"] = [_key(*cell) for cell in sorted(dropped)]
        section["note"] = ("entries beyond the certified truncation range "
                           f"p <= {bound} are suppressed")
    return section


def _shape_json(shape):
    """The certificate's shape form, plus the zigzag `length` and the `dot` kind."""
    out = zigzag._shape_to_dict(shape)
    if not isinstance(shape, models.Square):
        out["length"] = models.shape_length(shape)
        if shape.is_dot():
            out["kind"] = "dot"
    return out


def _verdict_section(c, ws, r, explain=False):
    v = bca_mod.page_ddbar_verdict(c, r, ws, use_structure=True, explain=explain)
    out = {"r": r, "verdict": v.verdict,
           "criteria": {k: v.criteria[k] for k in sorted(v.criteria)}}
    if v.duality_gap:
        out["duality_gap"] = True
    if explain and v.witness:
        out["witness"] = {
            "cell": list(v.witness["cell"]),
            "vector": v.witness["vector"],
            "memberships": v.witness["memberships"],
        }
    return out


def _decompose_section(c, ws, certificate=False):
    dec = zigzag.decompose(c, ws)
    out = {
        "status": "unique",
        "inventory": [{"shape": _shape_json(s), "multiplicity": m}
                      for s, m in sorted(dec.inventory.items(), key=lambda kv: repr(kv[0]))],
        "total_dim": sum(models.shape_length(s) * m for s, m in dec.inventory.items()),
    }
    if certificate:
        out["certificate"] = zigzag.certificate_to_dict(dec.certificate)
    return out


def _duality_section(c, ws, duality_pairing, rmax):
    """Compatibility, perfectness and, for a compatible pairing, the induced pairings per page.

    These are well defined, and on a perfect pairing BC x BC non-degeneracy
    is the workspace's page-(r-1) verdict; a failure of either raises
    ConsistencyError.
    """
    from bigraded import pairing as pairing_mod
    val = pairing_mod.validate_pairing(c, duality_pairing)
    out = {
        "compatible": val.ok,
        "perfect": val.perfect,
        "violations": [[kind, p, q] for kind, p, q, _ in val.violations],
    }
    if not val.ok:
        return out
    n = duality_pairing.n
    per_r = {}
    for r in range(1, rmax + 1):
        cells = {}
        bb = pairing_mod.induced_pairing_bc_bc(c, duality_pairing, r, ws,
                                               compare_verdict=val.perfect)
        for (p, q) in c.support():
            er = pairing_mod.induced_pairing_er(c, duality_pairing, r, p, q, ws)
            ba = pairing_mod.induced_pairing_bc_a(c, duality_pairing, r, p, q, ws)
            if not (er.well_defined and ba.well_defined):
                raise ConsistencyError(f"a compatible pairing induces a pairing that is not "
                                       f"well defined at {(p, q)}, page {r}")
            cells[_key(p, q)] = {
                "page_pairing_nondegenerate": er.nondegenerate,
                "bc_a_pairing_nondegenerate": ba.nondegenerate,
            }
        per_r[str(r)] = {"cells": cells, "bc_bc_nondegenerate": bb.nondegenerate}
    out["by_page"] = per_r
    out["top_bidegree"] = [n, n]
    return out


def _hodge_section(c, ws, ip, rmax):
    tower = hodge.harmonic_tower(c, ip, rmax, ws)
    dims = {}
    for r in range(1, rmax + 1):
        grid = {}
        for (p, q) in c.support():
            d = tower.space(r, p, q).dim
            if d:
                grid[_key(p, q)] = d
        dims[str(r)] = grid
    for (p, q) in c.support():  # each raises ConsistencyError on a failed split
        hodge.three_space_decomposition(c, ip, min(2, rmax), p, q, ws, tower)
    return {"harmonic_dims": dims, "three_space_checks": True}  # a constant the benchmark reads


def build_report(c, rmax, ws=None, ip=None, duality_pairing=None, explain=False):
    ws = ws or spectral.Workspace(c)
    report = {
        "format_version": FORMAT_VERSION,
        "name": c.name,
        "grid": [c.pmax, c.qmax],
        "dims": {_key(*cell): n for cell, n in sorted(c.dims.items())},
        "total_dim": c.total_dim(),
    }
    if c.meta:
        report["meta"] = {k: v for k, v in sorted(c.meta.items())}
    report["betti"] = {str(k): v for k, v in ws.betti.items() if v}
    report["degeneration_page"] = spectral.degeneration_page(c, ws)
    spectral.einfty_check(c, ws)
    report["einfty_ok"] = True  # a constant the benchmark reads: the check raised otherwise
    table = spectral.page_dims(c, rmax, ws).add(bca_mod.bca_dims(c, rmax, ws))
    report.update(_tables_section(c, table, _PAGE_KEYS | _BCA_KEYS))
    report["verdicts"] = {str(r): _verdict_section(c, ws, r, explain)
                          for r in range(1, rmax + 1)}
    for r in range(1, rmax + 1):
        ineq = bca_mod.inequality_check(c, r, ws)
        report["verdicts"][str(r)]["inequality"] = {
            "bott_chern_plus_aeppli": ineq.bca_total,
            "pages_plus_conjugate": ineq.page_total,
            "twice_betti": ineq.betti_doubled,
        }
    report["decomposition"] = _decompose_section(c, ws)
    report.update(_hodge_section(c, ws, ip or hodge.InnerProduct(), min(rmax, 3)))
    if duality_pairing is not None:
        report["duality"] = _duality_section(c, ws, duality_pairing, rmax)
    return report


# ---------------------------------------------------------------------------
# rendering


def render_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _md_grid(title, grid):
    cells = [_unkey(key) for key in grid]
    lines = [f"### {title}", ""]
    if not cells:
        lines += ["(all zero)", ""]
        return lines
    # the table spans the bounding box of its own cells, not the complex's grid
    ps, qs = (range(min(xs), max(xs) + 1) for xs in zip(*cells))
    header = "| p \\ q | " + " | ".join(map(str, qs)) + " |"
    sep = "|---" * (len(qs) + 1) + "|"
    lines += [header, sep]
    for p in ps:
        row = [str(grid.get(_key(p, q), 0)) for q in qs]
        lines.append(f"| {p} | " + " | ".join(row) + " |")
    lines.append("")
    return lines


def render_markdown(report):
    """Markdown view of a report; a pure function of the JSON document."""
    lines = [f"# {report.get('name', 'complex')}", ""]
    if "grid" in report:
        size = (f", total dimension {report['total_dim']}"
                if "total_dim" in report else "")
        lines.append(f"- grid: {report['grid'][0]} x {report['grid'][1]}{size}")
    for key, label in (("degeneration_page", "degeneration page"),
                       ("einfty_ok", "stable page matches Betti numbers")):
        if key in report:
            lines.append(f"- {label}: {report[key]}")
    if report.get("betti"):
        lines.append("- Betti numbers: "
                     + ", ".join(f"b{k}={v}" for k, v in sorted(report["betti"].items(),
                                                                key=lambda kv: int(kv[0]))))
    lines.append("")
    for section, title in (("pages", "Page dimensions"),
                           ("pages_conjugate", "Conjugate page dimensions"),
                           ("bott_chern", "Bott-Chern dimensions"),
                           ("aeppli", "Aeppli dimensions")):
        if section in report:
            lines.append(f"## {title}")
            lines.append("")
            for r in sorted(report[section], key=int):
                lines += _md_grid(f"r = {r}", report[section][r])
    if "verdicts" in report:
        lines += ["## Page del-delbar verdicts", ""]
        for r in sorted(report["verdicts"], key=int):
            v = report["verdicts"][r]
            crit = ", ".join(f"{k}={v['criteria'][k]}" for k in sorted(v["criteria"]))
            lines.append(f"- page-({int(r) - 1}): **{v['verdict']}** ({crit})")
        lines.append("")
    if "decomposition" in report:
        dec = report["decomposition"]
        lines += ["## Decomposition", ""]
        for item in dec["inventory"]:
            s = item["shape"]
            if s["kind"] == "square":
                desc = f"square at ({s['at'][0]},{s['at'][1]})"
            else:
                desc = (f"{s['kind']} of length {s['length']} at "
                        f"{tuple(s['generators'][0])}")
            lines.append(f"- {item['multiplicity']} x {desc}")
        lines.append("")
    if "note" in report:
        lines += [f"_{report['note']}_", ""]
    return "\n".join(lines)


def emit(args, obj):
    text = render_markdown(obj) if getattr(args, "format", None) == "md" else render_json(obj)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands


def _prepared(args):
    c = load_input(args.input)
    return c, spectral.Workspace(c)


def _default_rmax(c, args):
    if args.rmax is not None:
        return args.rmax
    return min(max(c.pmax, c.qmax) + 1, 4)


def cmd_validate(args):
    c = load_input(args.input)
    report = bicomplex.validate(c)
    out = {"name": c.name, "ok": report.ok,
           "violations": [{"identity": kind, "cell": [p, q]}
                          for kind, p, q, _ in report.violations]}
    emit(args, out)
    return 0 if report.ok else 1


def cmd_pages(args):
    if args.show_reps and args.format == "md":
        raise UsageError("--show-reps has no Markdown form; use --format json")
    c, ws = _prepared(args)
    rmax = _default_rmax(c, args)
    out = {"name": c.name, "grid": [c.pmax, c.qmax]}
    out.update(_tables_section(c, spectral.page_dims(c, rmax, ws), _PAGE_KEYS))
    out["degeneration_page"] = spectral.degeneration_page(c, ws)
    if args.show_reps:
        reps = {}
        for (p, q) in c.support():
            for r in range(1, rmax + 1):
                vecs = ws.page_reps(r, p, q)
                if vecs.cols:
                    reps.setdefault(str(r), {})[_key(p, q)] = [
                        [str(x) for x in v] for v in vecs.columns()]
        out["representatives"] = reps
        if c.labels:
            out["labels"] = {_key(*cell): c.labels[cell] for cell in sorted(c.labels)}
    emit(args, out)
    return 0


def cmd_bca(args):
    c, ws = _prepared(args)
    rmax = _default_rmax(c, args)
    out = {"name": c.name, "grid": [c.pmax, c.qmax]}
    out.update(_tables_section(c, bca_mod.bca_dims(c, rmax, ws), _BCA_KEYS))
    emit(args, out)
    return 0


def cmd_check_pageddbar(args):
    c, ws = _prepared(args)
    out = {"name": c.name}
    out.update(_verdict_section(c, ws, args.r, explain=args.explain))
    emit(args, out)
    return 0


def cmd_hodge(args):
    c, ws = _prepared(args)
    rmax = _default_rmax(c, args)
    ip = _load_gram(args.gram, c) if args.gram else hodge.InnerProduct()
    out = {"name": c.name}
    out.update(_hodge_section(c, ws, ip, rmax))
    emit(args, out)
    return 0


def cmd_decompose(args):
    if args.constructive and args.format == "md":
        raise UsageError("--constructive has no Markdown form; use --format json")
    c, ws = _prepared(args)
    out = {"name": c.name,
           "decomposition": _decompose_section(c, ws, certificate=args.constructive)}
    emit(args, out)
    return 0


def cmd_duality(args):
    c, ws = _prepared(args)
    rmax = _default_rmax(c, args)
    duality_pairing = _load_pairing(args.pairing)
    out = {"name": c.name}
    out.update(_duality_section(c, ws, duality_pairing, rmax))
    emit(args, out)
    return 0


def cmd_example(args):
    c = load_input(args.input)
    if args.out:
        try:
            bicomplex.dump_complex(c, args.out)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out!r}: {exc}") from exc
        sys.stdout.write(f"wrote {args.out}\n")
    else:
        sys.stdout.write(render_json(bicomplex.complex_to_dict(c)))
    return 0


def cmd_report(args):
    c, ws = _prepared(args)
    rmax = _default_rmax(c, args)
    ip = _load_gram(args.gram, c) if args.gram else hodge.InnerProduct()
    duality_pairing = _load_pairing(args.pairing) if args.pairing else None
    out = build_report(c, rmax, ws, ip, duality_pairing, explain=args.explain)
    emit(args, out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    parser = _Parser(
        prog="bigraded",
        description="Exact cohomology engine for bounded double complexes over Q.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, rmax=False, markdown=False):
        p.add_argument("input", help="complex file or example:// URI")
        if rmax:
            p.add_argument("--rmax", type=int, default=None)
        if markdown:
            p.add_argument("--format", choices=("json", "md"), default="json")
        p.add_argument("--out", "-o", default=None)

    p = sub.add_parser("validate", help="check the double complex identities")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("pages", help="spectral sequence page dimensions")
    common(p, rmax=True, markdown=True)
    p.add_argument("--show-reps", action="store_true")
    p.set_defaults(func=cmd_pages)

    p = sub.add_parser("bca", help="Bott-Chern and Aeppli dimensions")
    common(p, rmax=True, markdown=True)
    p.set_defaults(func=cmd_bca)

    p = sub.add_parser("check-pageddbar", help="page-(r-1) del-delbar verdict")
    common(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--explain", action="store_true")
    p.set_defaults(func=cmd_check_pageddbar)

    p = sub.add_parser("hodge", help="harmonic realisations")
    common(p, rmax=True)
    p.add_argument("--gram", default=None, help="Gram matrix file")
    p.set_defaults(func=cmd_hodge)

    p = sub.add_parser("decompose", help="inventory of indecomposable summands")
    common(p, markdown=True)
    p.add_argument("--constructive", action="store_true",
                   help="also print the certificate of the decomposition")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("duality", help="induced duality pairings")
    common(p, rmax=True)
    p.add_argument("--pairing", required=True, help="pairing file")
    p.set_defaults(func=cmd_duality)

    p = sub.add_parser("example", help="write a complex, such as a built-in example")
    common(p)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("report", help="full report: everything at once")
    common(p, rmax=True, markdown=True)
    p.add_argument("--gram", default=None)
    p.add_argument("--pairing", default=None)
    p.add_argument("--explain", action="store_true")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        for flag in ("rmax", "r"):
            value = getattr(args, flag, None)
            if value is not None and value < 1:
                raise UsageError(f"--{flag} must be at least 1, got {value}")
        return args.func(args)
    except UsageError as exc:
        sys.stdout.write(render_json({"error": {"kind": "usage", "message": str(exc)}}))
        return 2
    except ConsistencyError as exc:
        sys.stdout.write(render_json({"error": {"kind": "consistency", "message": str(exc)}}))
        return 1
    except LinalgError as exc:
        sys.stdout.write(render_json({"error": {"kind": "input", "message": str(exc)}}))
        return 1
    except MemoryError:
        sys.stdout.write(render_json({"error": {
            "kind": "input", "message": "out of memory: the input is too large to compute"}}))
        return 1
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
