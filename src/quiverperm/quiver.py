"""Exchange matrices, extended exchange matrices and matrix mutation.

States are immutable: matrices are tuples of tuples of ints, and every
operation returns a fresh state.  Vertices are 1-based.  The n frozen
vertices are carried implicitly as the columns of the c-matrix: entry
``c[i][j]`` counts arrows between mutable vertex ``i+1`` and frozen vertex
``(j+1)'``, positive for ``i+1 -> (j+1)'`` and negative for the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import itemgetter, mul
from typing import Callable, Iterable, Optional, Sequence

from .perm import Permutation

IntMatrix = tuple[tuple[int, ...], ...]


def _as_matrix(rows: Iterable[Iterable[int]]) -> IntMatrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def _all_ints(*matrices: IntMatrix) -> bool:
    """Every entry an ``int``, not a float or a bool: ``mutate``'s tables
    are keyed by value, and 1.0 == 1, so one float entry would leak into
    the rows of integer states."""
    return all(type(x) is int for m in matrices for row in m for x in row)


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
        if not _all_ints(self.b):
            raise ValueError("exchange matrix entries must be ints")
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


@dataclass(frozen=True, slots=True, weakref_slot=True)
class ExtendedExchangeMatrix:
    """The n x 2n state [B | C]: exchange matrix plus c-matrix.

    Rows of ``c`` are the c-vectors.  Hashable, so states can key memo
    tables directly.  Slotted, with no ``__dict__``: a state is two
    references, and the dataclass's own ``__getstate__`` and
    ``__setstate__`` pickle and copy it without running ``__post_init__``.
    """

    b: IntMatrix
    c: IntMatrix

    def __post_init__(self):
        n = len(self.b)
        if not _all_ints(self.b, self.c):
            raise ValueError("state entries must be ints")
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


_set_b = ExtendedExchangeMatrix.b.__set__
_set_c = ExtendedExchangeMatrix.c.__set__


def _trusted_state(b: IntMatrix, c: IntMatrix) -> ExtendedExchangeMatrix:
    """An ``ExtendedExchangeMatrix`` built without ``__post_init__``, for
    results that are valid by construction.  Both fields are set through
    their slot descriptors, which the frozen dataclass's ``__setattr__``
    does not guard; its ``__setstate__`` sets them the same way when a
    state is unpickled or copied."""
    m = object.__new__(ExtendedExchangeMatrix)
    _set_b(m, b)
    _set_c(m, c)
    return m


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


# mutate's memo tables, keyed by value; see its docstring
_MEMO_LIMIT = 1 << 16
_pivots: dict[tuple[int, ...], tuple] = {}
_b_rows: dict[tuple, tuple[int, ...]] = {}
_c_rows: dict[tuple, tuple[int, ...]] = {}


def _store(table: dict, key, value):
    """``table[key] = value``, after clearing a table that is full."""
    if len(table) >= _MEMO_LIMIT:
        table.clear()
    table[key] = value
    return value


def _pivot(row: tuple[int, ...]) -> tuple:
    """A pivot row's negation, then its positive and its negative entries
    as (index, entry) pairs, stored in ``_pivots``."""
    pos = tuple([(j, y) for j, y in enumerate(row) if y > 0])
    neg = tuple([(j, y) for j, y in enumerate(row) if y < 0])
    return _store(_pivots, row, (tuple([-x for x in row]), pos, neg))


def _gained(row: tuple[int, ...], cols, a: int) -> list[int]:
    """``row`` plus ``a`` times the entry at each (index, entry) of
    ``cols``."""
    out = list(row)
    for j, y in cols:
        out[j] += a * y
    return out


def mutate(m: ExtendedExchangeMatrix, k: int) -> ExtendedExchangeMatrix:
    """Mutation at vertex ``k`` of the full n x 2n matrix.

    Entries in row or column ``k`` of the b-part and in row ``k`` of the
    c-part flip sign; every other entry (i, j) gains
    ``sgn(b[i][k]) * max(b[i][k] * row_k[j], 0)``, with the column ``j``
    running over all 2n columns.  An involution: mutating twice at the same
    vertex restores the state.

    Only the entries that change are visited.  Row i != k changes only if
    ``b[i][k]`` is nonzero, and then only at entry k and at the columns
    where row k has the sign of ``b[i][k]``; it gains ``|b[i][k]|`` times
    row k's entry there.  Every row that does not change, b-row or c-row,
    is the input's own tuple, shared with the result.

    The rows that change are read from three module-private tables keyed
    by value, since reachable c-rows are signed roots and a whole exchange
    graph holds few distinct rows (at n = 5, 152 pivot rows, 4140 changed
    b-rows and 120 changed c-rows over 79200 calls):

    - ``_pivots``, keyed by a pivot row ``b[k0]`` or ``c[k0]``, with
      ``k0 = k - 1``: its negation and its positive and negative
      (index, entry) lists;
    - ``_b_rows``, keyed by ``(b[i], b[k0], k0, b[k0][i])``, all that the
      new b-row i reads: the new row;
    - ``_c_rows``, keyed by ``(c[i], c[k0], b[k0][i])``: the new c-row i.

    So equal rows of different results may be one tuple.  The two row
    tables stay apart, so that a c-row lookup can never return a b-row,
    whatever shape the keys take.  Each table is cleared once it
    holds ``_MEMO_LIMIT`` entries, well above the 21240 changed b-rows of
    the whole graph at n = 6, so that long walks on matrices not of type A
    keep a bounded memory.  Lookups use ``.get``, never a membership test
    and an index, because another thread may clear a table in between.

    Mutation preserves skew-symmetry and shape, so the result is not
    re-validated; only a c-row that changes is checked, when it is
    computed, because it can become zero on a state not reachable from a
    framed quiver, which raises ``ValueError``.  A row that raises is never
    stored, so every call that would produce it raises.
    """
    b = m.b
    c = m.c
    n = len(b)
    if not 1 <= k <= n:
        raise IndexError(f"vertex {k} out of range 1..{n}")
    k0 = k - 1
    bk = b[k0]
    ck = c[k0]
    bk_neg, pos, neg = _pivots.get(bk) or _pivot(bk)
    ck_neg, cpos, cneg = _pivots.get(ck) or _pivot(ck)
    new_b = list(b)
    new_c = list(c)
    new_b[k0] = bk_neg
    new_c[k0] = ck_neg
    # b[i][k0] == -bk[i], so the rows that change are where bk is nonzero:
    # a row with bk[i] < 0 has b[i][k0] > 0 and gains at row k's positive
    # entries, a row with bk[i] > 0 at its negative ones
    for rows, bcols, ccols in ((neg, pos, cpos), (pos, neg, cneg)):
        for i, bki in rows:
            key = (b[i], bk, k0, bki)
            row = _b_rows.get(key)
            if row is None:
                row = _gained(b[i], bcols, abs(bki))
                row[k0] = bki
                row = _store(_b_rows, key, tuple(row))
            new_b[i] = row
            if ccols:
                key = (c[i], ck, bki)
                row = _c_rows.get(key)
                if row is None:
                    row = _gained(c[i], ccols, abs(bki))
                    if not any(row):
                        raise ValueError("every c-vector must be nonzero")
                    row = _store(_c_rows, key, tuple(row))
                new_c[i] = row
    return _trusted_state(tuple(new_b), tuple(new_c))


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
    and rows of the c-part move; c-columns (frozen vertices) stay put.
    Relabeling preserves validity, so the result is not re-validated."""
    b = tuple([rho.apply_to_rows(row) for row in rho.apply_to_rows(m.b)])
    return _trusted_state(b, rho.apply_to_rows(m.c))


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
    # distinct rows of m1 land on distinct positions, so images is a
    # permutation; the constructor still checks it
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


def _reconstructor(b0: IntMatrix) -> Callable[[IntMatrix], IntMatrix]:
    """``reconstructed_b(b0, c)`` as a function of ``c``, read from a table
    of x B0 y^t on pairs of c-rows (x, y).

    Each distinct row gets a number the first time it appears, and its
    entries against every row numbered so far, in both orders, are filled
    in then: ``form[i][j]`` is row i times B0 times row j transposed.  A
    call then does one dict lookup per row of ``c`` and reads each output
    row with one ``itemgetter`` over the row numbers.  The table lives as
    long as the returned function.  Reachable c-rows are signed roots, so
    a whole exchange graph numbers few rows: 30 over the 15840 states at
    n = 5."""
    number: dict[tuple[int, ...], int] = {}  # rows in the order numbered
    form: list[list[int]] = []
    columns = list(zip(*b0))

    def numbered(x: tuple[int, ...]) -> int:
        i = number.get(x)
        if i is None:
            xb0 = [sum(map(mul, x, col)) for col in columns]
            b0x = [sum(map(mul, r, x)) for r in b0]
            for y, entries in zip(number, form):
                entries.append(sum(map(mul, y, b0x)))
            i = number[x] = len(form)
            form.append([sum(map(mul, xb0, y)) for y in number])
        return i

    def reconstruct(c: IntMatrix) -> IntMatrix:
        nums = list(map(number.get, c))
        if None in nums:
            # one at a time, so a row new to the table that appears twice
            # in c gets one number
            nums = list(map(numbered, c))
        if len(nums) == 1:  # itemgetter of one index returns the bare entry
            return ((form[nums[0]][nums[0]],),)
        get = itemgetter(*nums)  # picks the rows of form, then their entries
        return tuple(map(get, get(form)))

    return reconstruct


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


def state_to_dot(m: ExtendedExchangeMatrix) -> str:
    """DOT rendering of the ice quiver: mutable vertices "1".."n", frozen
    "1'".."n'", one edge per unit of each entry, direction by sign."""
    lines = ["digraph quiver {"]
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
            src, dst = ((i + 1, f"{j + 1}'") if x > 0
                        else (f"{j + 1}'", i + 1))
            for _ in range(abs(x)):
                lines.append(f'  "{src}" -> "{dst}";')
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
