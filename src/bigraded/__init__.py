"""Exact-arithmetic cohomology engine for bounded double complexes over Q.

The package computes, for a bounded bigraded rational vector space with two
anticommuting square-zero differentials:

* all pages of the spectral sequence of the column filtration, with
  differentials and degeneration detection,
* higher-page Bott-Chern and Aeppli cohomology and the canonical comparison
  maps between them,
* page-r del-delbar verdicts through several independent criteria,
* finite-dimensional harmonic (Hodge-theoretic) realisations of every page,
* duality pairings induced on pages and on Bott-Chern x Aeppli,
* decompositions into indecomposable squares and zigzags.

Everything is computed exactly over Q: the core eliminates on Python integers
(a `Matrix` is integer rows over one positive denominator, and a family of
vectors is the matrix of its columns), and `fractions.Fraction` values are
made only where numbers enter or leave it, as in the parsers and the JSON
output.  There is no floating point anywhere, so every reported
dimension and verdict is exact.
"""

from bigraded.linalg import Matrix, Subspace
from bigraded.bicomplex import DoubleComplex

__all__ = ["Matrix", "Subspace", "DoubleComplex"]

__version__ = "0.1.0"
