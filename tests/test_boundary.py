"""Vectors inside the exact core are integer `Matrix` columns; `Fraction`s exist only at its boundary.

The boundary is named here, function by function: where values come in
(parsers, the checking constructor, the inputs built from example URIs and
a user's Gram) and where they go out (the `Fraction` views of a `Matrix` and
the code that prints vectors).  Any other function of `bigraded` that makes
a `Fraction`, reads `Matrix.data`, `column` or `columns`, or builds a matrix
or subspace from entries through `Matrix(...)`, `Matrix.from_rows`,
`Matrix.from_columns` or `Subspace.from_columns` fails the first test.
"""

import ast
from pathlib import Path

import bigraded

SRC = Path(bigraded.__file__).parent

BOUNDARY = {
    # values coming in
    "bicomplex._parse_rational",
    "bicomplex._matrices_from_dict",
    "bicomplex.random_invertible",
    "models.parse_expression",
    "models._check_square_zero",
    "models.build_cdga",
    "hodge._check_spd",
    "linalg.Matrix.__init__",
    # the Fraction views of a Matrix (`data`, built by `_fraction`), and a non-integer factor
    "linalg.<module>",  # the shared zero Fraction of the views
    "linalg._fraction",
    "linalg.Matrix.column",
    "linalg.Matrix.columns",
    "linalg.Matrix.__repr__",
    "linalg.Matrix.scale",
    # values going out: JSON tables, error messages, representatives and witnesses
    "bicomplex._matrices_to_dict",
    "bicomplex.ValidationReport.describe",
    "cli.cmd_pages",
    "bca._witness_vector",
}


def _use(node):
    """What `node` does at the boundary, or None."""
    if isinstance(node, ast.Attribute) and node.attr == "data":
        return ".data"
    if not isinstance(node, ast.Call):
        return None
    f = node.func
    if isinstance(f, ast.Name) and f.id in ("Fraction", "Q", "Matrix"):
        return f"{f.id}(...)"
    if isinstance(f, ast.Attribute) and f.attr in ("column", "columns"):
        return f".{f.attr}(...)"
    if (isinstance(f, ast.Attribute) and f.attr in ("from_columns", "from_rows")
            and isinstance(f.value, ast.Name) and f.value.id in ("Matrix", "Subspace")):
        return f"{f.value.id}.{f.attr}(...)"
    return None


def _uses():
    """(scope, use, line) for every boundary use in the package's source.

    A scope is the module and the enclosing classes and functions, joined
    by dots; code outside any function is module.<module>.
    """
    found = []

    def visit(node, module, names):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, names + (child.name,))
                continue
            use = _use(child)
            if use:
                found.append((".".join((module,) + (names or ("<module>",))), use, child.lineno))
            visit(child, module, names)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, ())
    return found


def _inside(scope, entry):
    return scope == entry or (not entry.endswith("<module>") and scope.startswith(entry + "."))


def test_fractions_and_vector_views_only_at_the_boundary():
    outside = [f"{scope}, line {line}: {use}" for scope, use, line in _uses()
               if not any(_inside(scope, entry) for entry in BOUNDARY)]
    assert outside == []


def test_every_boundary_entry_is_in_use():
    used = {entry for scope, _, _ in _uses() for entry in BOUNDARY if _inside(scope, entry)}
    assert BOUNDARY - used == set()
