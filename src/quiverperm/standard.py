"""Standard matrices: the canonical row order on c-vectors.

A square integer matrix is standard when its diagonal is nonzero, positive
entries sit on or above the diagonal, negative entries on or below, and
every row is a signed root.  Those axioms force each signed root into a
single row: +b_ij into row i+1 and -b_ij into row j.  Consequently any
matrix whose rows are signed roots factors in at most one way as a row
permutation of a standard matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .perm import Permutation
from .picture import act, transposition_of
from .quiver import ExtendedExchangeMatrix, IntMatrix, permute_rows
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


def factor_standard(c: IntMatrix) -> Optional[StandardFactorization]:
    """Factor ``c`` as a row permutation of a standard matrix.

    Returns ``None`` when some row is not a signed root or two rows claim
    the same canonical position.  When a factorization exists it is unique.
    """
    n = len(c)
    targets = []
    for row in c:
        g = vector_to_signed_root(row)
        if g is None:
            return None
        targets.append(canonical_row(g))
    if sorted(targets) != list(range(1, n + 1)):
        return None
    placement = Permutation(tuple(targets))
    return StandardFactorization(placement.inverse(),
                                 placement.apply_to_rows(c))


def check_preservation(state: ExtendedExchangeMatrix, g) -> bool:
    """Apply generator ``g`` and then the transposition (i+1, j) to a state
    with standard c-matrix; report whether the result is again standard.

    Raises ``ValueError`` when ``g`` is not allowed on the state or the
    state's c-matrix is not standard.
    """
    if not is_standard(state.c):
        raise ValueError("state's c-matrix is not standard")
    acted = act(state, g)
    return is_standard(permute_rows(acted, transposition_of(g, state.n)).c)
