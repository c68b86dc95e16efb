"""Positive roots of the linearly oriented type-A quiver and their
representation-theoretic pairings.

A root (i, j) with 0 <= i < j <= n stands for the dimension vector
e_{i+1} + ... + e_j of the interval module supported on vertices i+1..j.
``hom`` and ``ext`` are the dimensions of the morphism and extension spaces
between interval modules; both are 0 or 1 here.  The closed-form criteria
below are pinned against a brute-force linear-algebra oracle in the test
suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .quiver import IntMatrix


@dataclass(frozen=True, order=True)
class Root:
    i: int
    j: int

    def __post_init__(self):
        if not 0 <= self.i < self.j:
            raise ValueError(f"need 0 <= i < j, got ({self.i}, {self.j})")

    def __str__(self) -> str:
        return f"b{self.i}{self.j}" if self.j <= 9 else f"b({self.i},{self.j})"


@dataclass(frozen=True)
class SignedGenerator:
    """The signed root ``delta * b_ij``, read as the picture-group
    generator x_ij^delta it spells."""

    root: Root
    delta: int = 1

    def __post_init__(self):
        if self.delta not in (1, -1):
            raise ValueError("delta must be +1 or -1")

    def __str__(self) -> str:
        i, j = self.root.i, self.root.j
        base = f"x{i}{j}" if j <= 9 else f"x({i},{j})"
        return base if self.delta > 0 else base + "^-1"

    def to_json(self) -> dict:
        return {"i": self.root.i, "j": self.root.j,
                "delta": "+" if self.delta > 0 else "-"}


def all_roots(n: int) -> list[Root]:
    return [Root(i, j) for i in range(n) for j in range(i + 1, n + 1)]


def root_to_vector(r: Root, n: int) -> tuple[int, ...]:
    if r.j > n:
        raise ValueError(f"root {r} out of range for n={n}")
    return tuple(1 if r.i < k <= r.j else 0 for k in range(1, n + 1))


def vector_to_signed_root(v: Sequence[int]) -> Optional[SignedGenerator]:
    """Read a vector as a signed root, or ``None`` if it is not one.

    Accepts exactly the vectors that are +1 or -1 on a nonempty contiguous
    block and 0 elsewhere.
    """
    support = [k for k, x in enumerate(v) if x != 0]
    if not support:
        return None
    lo, hi = support[0], support[-1]
    if hi - lo + 1 != len(support):
        return None
    sign = 1 if v[lo] > 0 else -1
    if any(v[k] != sign for k in support):
        return None
    return SignedGenerator(Root(lo, hi + 1), sign)


def euler_matrix(n: int) -> IntMatrix:
    """hom minus ext between simple modules: identity minus the superdiagonal."""
    return tuple(
        tuple(1 if i == j else (-1 if j == i + 1 else 0) for j in range(n))
        for i in range(n))


def euler_pairing(x: Sequence, y: Sequence) -> int | Fraction:
    """The bilinear form x^t E y; exact for int and Fraction entries."""
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    n = len(x)
    # E has diagonal 1 and superdiagonal -1, so x^t E y telescopes.
    total = sum(x[k] * y[k] for k in range(n))
    total -= sum(x[k] * y[k + 1] for k in range(n - 1))
    return total


def hom(a: Root, b: Root) -> int:
    """dim Hom between the interval modules of ``a`` and ``b``.

    Nonzero exactly when a common prefix of ``a``'s interval is a suffix of
    ``b``'s: b.i <= a.i < b.j <= a.j.
    """
    return 1 if b.i <= a.i < b.j <= a.j else 0


def ext(a: Root, b: Root) -> int:
    """dim Ext between the interval modules, via hom minus the Euler pairing."""
    size = max(a.j, b.j)
    value = hom(a, b) - euler_pairing(root_to_vector(a, size),
                                      root_to_vector(b, size))
    if value not in (0, 1):
        raise AssertionError(f"ext({a}, {b}) = {value}, expected 0 or 1")
    return value


def subroots(b: Root) -> Iterator[Root]:
    """All subroots of ``b``, including ``b`` itself.

    A subroot is a root whose interval module is a submodule of that of
    ``b``.  Arrows point 1 -> 2 -> ... -> n, so submodules of an interval
    are its suffixes: they share b's right endpoint and start no earlier.
    """
    for i in range(b.i, b.j):
        yield Root(i, b.j)


def in_wall(x: Sequence, b: Root) -> bool:
    """Membership of ``x`` in the wall of ``b``: pairs to zero with ``b``
    and nonpositively with every subroot.  Exact arithmetic only; entries
    may be ints or Fractions."""
    n = len(x)
    if b.j > n:
        raise ValueError(f"root {b} out of range for dimension {n}")
    if euler_pairing(x, root_to_vector(b, n)) != 0:
        return False
    return all(euler_pairing(x, root_to_vector(s, n)) <= 0 for s in subroots(b))


# --- c-matrix validity -----------------------------------------------------

@dataclass(frozen=True)
class CMatrixViolation:
    kind: str
    rows: tuple[int, ...]
    detail: str


def validate_c_matrix(c: IntMatrix) -> tuple[CMatrixViolation, ...]:
    """The compatibility constraints every reachable c-matrix obeys that
    ``c`` violates; empty when ``c`` satisfies them all.

    1. every row is a signed root;
    2. rows of equal sign are Hom-orthogonal in both directions;
    3. for rows alpha and -beta of opposite sign, hom(alpha, beta) and
       ext(alpha, beta) both vanish (positive root first).
    """
    n = len(c)
    violations = []
    parsed: list[Optional[SignedGenerator]] = []
    for idx, row in enumerate(c, start=1):
        g = vector_to_signed_root(row)
        parsed.append(g)
        if g is None:
            violations.append(CMatrixViolation(
                "not_signed_root", (idx,), f"row {idx} = {row}"))
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            a, b = parsed[s], parsed[t]
            if a is None or b is None:
                continue
            if a.delta == b.delta:
                if s < t and (hom(a.root, b.root) or hom(b.root, a.root)):
                    violations.append(CMatrixViolation(
                        "same_sign_not_hom_orthogonal", (s + 1, t + 1),
                        f"rows {a} and {b}"))
            elif a.delta > 0:
                # pair (alpha, -beta): require hom(alpha,beta) = ext(alpha,beta) = 0
                if hom(a.root, b.root) or ext(a.root, b.root):
                    violations.append(CMatrixViolation(
                        "opposite_sign_not_orthogonal", (s + 1, t + 1),
                        f"rows {a} and {b}"))
    return tuple(violations)
