"""Breadth-first closure of the framed straight-A_n state under the public
``mutate``, for tests that need every reachable state, or every state a
few steps out.  It shares no traversal code with the library's
``build_exchange_graph``, ``count_reachable_states`` or ``quotient_graph``.
"""

from quiverperm import ExchangeMatrix, framed, mutate


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
