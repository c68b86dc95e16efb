"""Standard matrices: the canonical row order on c-vectors.

A square integer matrix is standard when its diagonal is nonzero, positive
entries sit on or above the diagonal, negative entries on or below, and
every row is a signed root.  Those axioms force each signed root into a
single row: +b_ij into row i+1 and -b_ij into row j.  Consequently any
matrix whose rows are signed roots factors in at most one way as a row
permutation of a standard matrix, and the permutation part of that
factorization is how the rest of the package observes a relabeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .perm import Permutation, _trusted
from .quiver import IntMatrix
from .roots import SignedGenerator, vector_to_signed_root


def is_standard(m: IntMatrix) -> bool:
    n = len(m)
    if any(len(row) != n for row in m):
        return False
    for r in range(n):
        if m[r][r] == 0:
            return False
        for s in range(n):
            if m[r][s] > 0 and s < r:
                return False
            if m[r][s] < 0 and s > r:
                return False
        if vector_to_signed_root(m[r]) is None:
            return False
    return True


def canonical_row(g: SignedGenerator) -> int:
    """The only row (1-based) where this signed root can sit in a standard
    matrix: row i+1 for +b_ij, row j for -b_ij."""
    return g.root.i + 1 if g.delta > 0 else g.root.j


@dataclass(frozen=True)
class StandardFactorization:
    """A pair (rho, m) with m standard and the input equal to m with its
    rows moved by rho."""

    rho: Permutation
    m: IntMatrix


def _placement(c: IntMatrix) -> Optional[Permutation]:
    """The permutation sending each row of ``c`` to its canonical row, or
    ``None`` when ``c`` does not factor (see ``factor_standard``, whose
    ``rho`` is its inverse).  For callers that need only the permutation:
    it builds neither the standard matrix nor the inverse."""
    n = len(c)
    if any(len(row) != n for row in c):
        return None
    targets = []
    for row in c:
        g = vector_to_signed_root(row)
        if g is None:
            return None
        targets.append(canonical_row(g))
    if sorted(targets) != list(range(1, n + 1)):
        return None
    # the check above makes targets a permutation
    return _trusted(tuple(targets))


def factor_standard(c: IntMatrix) -> Optional[StandardFactorization]:
    """Factor ``c`` as a row permutation of a standard matrix.

    Returns ``None`` when ``c`` is not square, some row is not a signed
    root or two rows claim the same canonical position.  When a
    factorization exists it is unique.
    """
    placement = _placement(c)
    if placement is None:
        return None
    return StandardFactorization(placement.inverse(),
                                 placement.apply_to_rows(c))
