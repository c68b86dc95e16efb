"""Exchange matrices, extended exchange matrices and matrix mutation.

States are immutable: matrices are tuples of tuples of ints, and every
operation returns a fresh state.  Vertices are 1-based.  The n frozen
vertices are carried implicitly as the columns of the c-matrix: entry
``c[i][j]`` counts arrows between mutable vertex ``i+1`` and frozen vertex
``(j+1)'``, positive for ``i+1 -> (j+1)'`` and negative for the reverse.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

from .perm import Permutation

IntMatrix = tuple[tuple[int, ...], ...]


def _as_matrix(rows: Iterable[Iterable[int]]) -> IntMatrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def _is_skew_symmetric(b: IntMatrix) -> bool:
    n = len(b)
    if any(len(row) != n for row in b):
        return False
    return all(b[i][j] == -b[j][i] for i in range(n) for j in range(i, n))


@dataclass(frozen=True)
class ExchangeMatrix:
    """A skew-symmetric integer matrix: entry (i, j) is the arrow count i -> j
    minus the arrow count j -> i."""

    b: IntMatrix

    def __post_init__(self):
        if not _is_skew_symmetric(self.b):
            raise ValueError("exchange matrix must be skew-symmetric")

    @property
    def n(self) -> int:
        return len(self.b)

    @classmethod
    def straight_a(cls, n: int) -> ExchangeMatrix:
        """The linear orientation 1 -> 2 -> ... -> n."""
        if n < 1:
            raise ValueError("need at least one vertex")
        rows = [[0] * n for _ in range(n)]
        for i in range(n - 1):
            rows[i][i + 1] = 1
            rows[i + 1][i] = -1
        return cls(_as_matrix(rows))


@dataclass(frozen=True)
class ExtendedExchangeMatrix:
    """The n x 2n state [B | C]: exchange matrix plus c-matrix.

    Rows of ``c`` are the c-vectors.  Hashable, so states can key memo
    tables directly.
    """

    b: IntMatrix
    c: IntMatrix

    def __post_init__(self):
        n = len(self.b)
        if not _is_skew_symmetric(self.b):
            raise ValueError("b-part must be skew-symmetric")
        if len(self.c) != n or any(len(row) != n for row in self.c):
            raise ValueError("c-part must be square of the same size as b")
        if any(all(x == 0 for x in row) for row in self.c):
            raise ValueError("every c-vector must be nonzero")

    @property
    def n(self) -> int:
        return len(self.b)

    def c_row(self, k: int) -> tuple[int, ...]:
        """The c-vector of vertex ``k`` (1-based)."""
        if not 1 <= k <= self.n:
            raise IndexError(f"vertex {k} out of range 1..{self.n}")
        return self.c[k - 1]


class Color(Enum):
    GREEN = "green"
    RED = "red"


def framed(b0: ExchangeMatrix) -> ExtendedExchangeMatrix:
    """[B0 | I]: one frozen vertex i' with an arrow i -> i' per vertex."""
    n = b0.n
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return ExtendedExchangeMatrix(b0.b, ident)


def coframed(b0: ExchangeMatrix) -> ExtendedExchangeMatrix:
    """[B0 | -I]: one frozen vertex i' with an arrow i' -> i per vertex."""
    n = b0.n
    neg = tuple(tuple(-1 if i == j else 0 for j in range(n)) for i in range(n))
    return ExtendedExchangeMatrix(b0.b, neg)


def mutate(m: ExtendedExchangeMatrix, k: int) -> ExtendedExchangeMatrix:
    """Mutation at vertex ``k`` of the full n x 2n matrix.

    Entries in row or column ``k`` of the b-part and in row ``k`` of the
    c-part flip sign; every other entry (i, j) gains
    ``sgn(b[i][k]) * max(b[i][k] * row_k[j], 0)``, with the column ``j``
    running over all 2n columns.  An involution: mutating twice at the same
    vertex restores the state.
    """
    n = m.n
    if not 1 <= k <= n:
        raise IndexError(f"vertex {k} out of range 1..{n}")
    k0 = k - 1
    bk = m.b[k0]
    ck = m.c[k0]
    new_b = []
    new_c = []
    for i in range(n):
        if i == k0:
            new_b.append(tuple(-x for x in m.b[i]))
            new_c.append(tuple(-x for x in m.c[i]))
            continue
        bik = m.b[i][k0]
        if bik == 0:
            row_b = list(m.b[i])
            row_b[k0] = -row_b[k0]
            new_b.append(tuple(row_b))
            new_c.append(m.c[i])
            continue
        s = 1 if bik > 0 else -1
        new_b.append(tuple(
            -x if j == k0 else x + s * max(bik * bk[j], 0)
            for j, x in enumerate(m.b[i])))
        new_c.append(tuple(
            x + s * max(bik * ck[j], 0) for j, x in enumerate(m.c[i])))
    return ExtendedExchangeMatrix(tuple(new_b), tuple(new_c))


def apply_sequence(m: ExtendedExchangeMatrix,
                   seq: Sequence[int]) -> ExtendedExchangeMatrix:
    """Mutate along ``seq``, first listed vertex first."""
    for k in seq:
        m = mutate(m, k)
    return m


def vertex_color(m: ExtendedExchangeMatrix, k: int) -> Color:
    """Green if the c-vector of ``k`` is nonnegative, red if nonpositive.

    A mixed-sign row signals a state not reachable from a framed quiver and
    raises ``ValueError``.
    """
    row = m.c_row(k)
    if all(x >= 0 for x in row):
        return Color.GREEN
    if all(x <= 0 for x in row):
        return Color.RED
    raise ValueError(f"c-vector of vertex {k} is not sign-coherent: {row}")


def is_all_red(m: ExtendedExchangeMatrix) -> bool:
    return all(vertex_color(m, k) is Color.RED for k in range(1, m.n + 1))


def permute_rows(m: ExtendedExchangeMatrix,
                 rho: Permutation) -> ExtendedExchangeMatrix:
    """Relabel mutable vertices by ``rho``: rows and columns of the b-part
    and rows of the c-part move; c-columns (frozen vertices) stay put."""
    n = m.n
    if rho.n != n:
        raise ValueError("permutation size does not match state size")
    new_b = [[0] * n for _ in range(n)]
    for r in range(n):
        for s in range(n):
            new_b[rho(r + 1) - 1][rho(s + 1) - 1] = m.b[r][s]
    new_c = rho.apply_to_rows(m.c)
    return ExtendedExchangeMatrix(_as_matrix(new_b), new_c)


def find_row_permutation(m1: ExtendedExchangeMatrix,
                         m2: ExtendedExchangeMatrix) -> Optional[Permutation]:
    """The unique ``rho`` with ``permute_rows(m1, rho) == m2``, or ``None``.

    Requires the c-rows of ``m1`` to be pairwise distinct (always true on
    states reachable from a framed quiver); raises ``ValueError`` otherwise.
    """
    n = m1.n
    if m2.n != n:
        return None
    if len(set(m1.c)) != n:
        raise ValueError("ambiguous: duplicate c-rows")
    position = {row: i for i, row in enumerate(m2.c, start=1)}
    images = []
    for row in m1.c:
        target = position.get(row)
        if target is None:
            return None
        images.append(target)
    if sorted(images) != list(range(1, n + 1)):
        return None
    rho = Permutation(tuple(images))
    if permute_rows(m1, rho) != m2:
        return None
    return rho


def reconstructed_b(b0: IntMatrix, c: IntMatrix) -> IntMatrix:
    """C * B0 * C^t: the b-part any reachable state must carry, given its
    c-part and the initial exchange matrix."""
    n = len(b0)
    cb0 = [[sum(c[i][k] * b0[k][j] for k in range(n)) for j in range(n)]
           for i in range(n)]
    return tuple(
        tuple(sum(cb0[i][k] * c[j][k] for k in range(n)) for j in range(n))
        for i in range(n))


# --- serialization ---------------------------------------------------------

def state_to_json(m: ExtendedExchangeMatrix) -> dict:
    return {"n": m.n, "b": [list(row) for row in m.b],
            "c": [list(row) for row in m.c]}


def matrix_from_json(rows) -> IntMatrix:
    """An integer matrix from decoded JSON: a nonempty list of rows, each a
    list of integers.  Anything else, floats and booleans included, raises
    ``ValueError`` rather than being truncated."""
    if not isinstance(rows, (list, tuple)) or not rows or not all(
            isinstance(row, (list, tuple)) and all(type(x) is int for x in row)
            for row in rows):
        raise ValueError("matrix must be a nonempty list of rows of integers")
    return _as_matrix(rows)


def state_from_json(data: dict | str) -> ExtendedExchangeMatrix:
    if isinstance(data, str):
        data = json.loads(data)
    m = ExtendedExchangeMatrix(matrix_from_json(data["b"]),
                               matrix_from_json(data["c"]))
    if m.n != data.get("n", m.n):
        raise ValueError("declared size does not match matrix size")
    return m


def state_to_dot(m: ExtendedExchangeMatrix, name: str = "quiver") -> str:
    """DOT rendering of the ice quiver: mutable vertices "1".."n", frozen
    "1'".."n'", one edge per unit of each entry, direction by sign."""
    lines = [f"digraph {name} {{"]
    for k in range(1, m.n + 1):
        try:
            fill = vertex_color(m, k).value
        except ValueError:
            fill = "gray"
        lines.append(f'  "{k}" [style=filled, fillcolor={fill}];')
    for k in range(1, m.n + 1):
        lines.append(f'  "{k}\'" [shape=box];')
    for i in range(m.n):
        for j in range(i + 1, m.n):
            x = m.b[i][j]
            src, dst = (i + 1, j + 1) if x > 0 else (j + 1, i + 1)
            for _ in range(abs(x)):
                lines.append(f'  "{src}" -> "{dst}";')
    for i in range(m.n):
        for j in range(m.n):
            x = m.c[i][j]
            if x > 0:
                for _ in range(x):
                    lines.append(f'  "{i + 1}" -> "{j + 1}\'";')
            elif x < 0:
                for _ in range(-x):
                    lines.append(f'  "{j + 1}\'" -> "{i + 1}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def format_matrix(*blocks: IntMatrix) -> str:
    """Aligned text rendering of matrices of equal height side by side,
    separated by ``|``, with one column width for every entry."""
    width = max(len(str(x)) for block in blocks for row in block for x in row)
    return "\n".join(
        "[ " + " | ".join(" ".join(f"{x:>{width}}" for x in row)
                          for row in rows) + " ]"
        for rows in zip(*blocks))


def format_state(m: ExtendedExchangeMatrix) -> str:
    """Aligned text rendering of [B | C]."""
    return format_matrix(m.b, m.c)
