"""Inputs that several test modules share.

- ``A2``, ``A3``, ``MIRRORED_A3`` (A3 oriented the other way) and the
  rank-2 generators ``X01``, ``X02``, ``X12``;
- ``graph`` and ``quotient``: one build of the exchange graph and of the
  standard quotient graph per rank, for tests that only read them;
- ``reachable``: a breadth-first closure of the framed straight-A_n state
  under the public ``mutate``.  It shares no traversal code with the
  library's ``build_exchange_graph``, ``count_reachable_states`` or
  ``quotient_graph``;
- ``skew_symmetric``: a hypothesis strategy for exchange matrices of any
  type;
- ``reference_mutate``: matrix mutation recomputed entry by entry from the
  textbook rule, sharing no code or rows with ``mutate``;
- ``drop_transposition``: the negative control that takes one generator's
  transposition out of the formula;
- ``in_fresh_thread``, ``current_walk`` and ``endpoint``: a thread with no
  walk yet, this thread's walk and root, and the state a sequence reaches
  on a walk from a root.

``enumerate_mgs``, ``mgs_census`` and ``enumerate_loops`` read Q from
``search._quotient_table``, which is built once per rank and process.  A
test that corrupts Q through ``search.mutate`` or ``search._placement``
must call ``search._quotient_table.cache_clear()`` before and after, or it
reads the table an earlier test built and leaves its own for later ones.
"""

import functools
from concurrent.futures import ThreadPoolExecutor

from hypothesis import strategies as st

import quiverperm.formula
import quiverperm.search
from quiverperm import (ExchangeMatrix, ExtendedExchangeMatrix, Root,
                        SignedGenerator, build_exchange_graph, framed, mutate,
                        quotient_graph)

A2 = ExchangeMatrix.straight_a(2)
A3 = ExchangeMatrix.straight_a(3)
# 1 <- 2 <- 3: its framed state has straight A3's c-matrix, and only the
# b-part tells the two apart
MIRRORED_A3 = ExchangeMatrix(((0, -1, 0), (1, 0, -1), (0, 1, 0)))

X01 = SignedGenerator(Root(0, 1))
X02 = SignedGenerator(Root(0, 2))
X12 = SignedGenerator(Root(1, 2))

graph = functools.cache(build_exchange_graph)
quotient = functools.cache(quotient_graph)


def reachable(n, depth=None):
    """All states within ``depth`` mutations of the framed quiver, or all
    reachable states when ``depth`` is None, sorted by c-matrix."""
    start = framed(ExchangeMatrix.straight_a(n))
    seen = {start}
    frontier = [start]
    steps = 0
    while frontier and (depth is None or steps < depth):
        frontier = [s for m in frontier for k in range(1, n + 1)
                    if (s := mutate(m, k)) not in seen and not seen.add(s)]
        steps += 1
    return sorted(seen, key=lambda m: m.c)


@st.composite
def skew_symmetric(draw, max_n=5, bound=3):
    """A random skew-symmetric exchange matrix, n <= max_n, entries in
    -bound..bound."""
    n = draw(st.integers(1, max_n))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = draw(st.integers(-bound, bound))
            rows[j][i] = -rows[i][j]
    return ExchangeMatrix(tuple(map(tuple, rows)))


def reference_mutate(m, k):
    """Mutation at ``k`` of the n x 2n matrix [B | C] (Fomin-Zelevinsky):
    b'_ij = -b_ij if i = k or j = k, else
    b_ij + sgn(b_ik) * max(b_ik * b_kj, 0), over all 2n columns j.  Every
    entry is recomputed, and the result goes through the validating
    constructor, which rejects a zero c-row."""
    n = m.n
    if not 1 <= k <= n:
        raise IndexError(f"vertex {k} out of range 1..{n}")
    k0 = k - 1
    full = [m.b[i] + m.c[i] for i in range(n)]
    out = []
    for i in range(n):
        bik = full[i][k0]
        sgn = (bik > 0) - (bik < 0)
        out.append([-full[i][j] if i == k0 or j == k0
                    else full[i][j] + sgn * max(bik * full[k0][j], 0)
                    for j in range(2 * n)])
    return ExtendedExchangeMatrix(tuple(tuple(row[:n]) for row in out),
                                  tuple(tuple(row[n:]) for row in out))


def drop_transposition(monkeypatch, g0):
    """Make the formula's transposition of the generator ``g0`` alone the
    identity, by making its one fold skip ``g0``; ``transposition_of``
    derives from the fold, so it reads the identity for ``g0`` too."""
    real = quiverperm.formula._advance
    monkeypatch.setattr(
        quiverperm.formula, "_advance",
        lambda images, factors: real(images,
                                     [g for g in factors if g != g0]))


def in_fresh_thread(fn, *args):
    """``fn(*args)`` on a new thread, which starts with no walk of its own."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn, *args).result()


def current_walk():
    """This thread's walk, which ``verify`` and ``enumerate_loops`` read,
    and the node its last start was rooted at."""
    _, walk, root = quiverperm.search._local.last
    return walk, root


def endpoint(walk, root, seq):
    """The state ``seq`` reaches on ``walk``, step by step from node
    ``root``."""
    node = root
    for k in seq:
        node = walk.step(node, k)
    return walk.states[node]
