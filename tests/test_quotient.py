"""The standard quotient graph Q, which ``quotient_graph`` builds from plain
``mutate`` and which ``enumerate_mgs`` and ``mgs_census`` walk: its nodes,
its edges against the formula's transpositions, and counts read off Q, each
checked against a route that does not use Q.

Every reachable state of straight A_n is a standard state S with its rows
moved by some pi, and mutating it at vertex k mutates S at row
pi^{-1}(k) (equivariance, ``test_quiver``).  So Q has the Catalan(n+1)
standard states as nodes and one edge per row, and the loop and
green-sequence counts over the full exchange graph reduce to counts over
Q.
"""

import math

import pytest

import quiverperm.formula
import quiverperm.search
from quiverperm import (Color, ExchangeMatrix, coframed, count_mgs,
                        enumerate_loops, is_all_red, is_standard, mgs_census,
                        mutate, permute_rows, reconstructed_b,
                        validate_c_matrix, vector_to_signed_root,
                        vertex_color)
from quiverperm.quiver import _trusted_state

from common import X02, drop_transposition, graph, quotient


def first_quotient_edge_failure(n):
    """The first (node, row) of Q whose observed rho differs from the
    formula's transposition of the row's generator; ``None`` if there is
    none."""
    transposition = quiverperm.formula.transposition_of
    for node, row_edges in zip(quotient(n).nodes, quotient(n).edges):
        for p, edge in enumerate(row_edges, start=1):
            if edge.rho != transposition(edge.generator, n):
                return node, p
    return None


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_quotient_nodes_are_the_catalan_standard_states(n):
    nodes = quotient(n).nodes
    assert len(nodes) == math.comb(2 * n + 2, n + 1) // (n + 2)
    assert all(is_standard(node.c) for node in nodes)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_quotient_has_one_all_red_node_the_coframe(n):
    # every reachable state is (pi, node), so with equivariance this is the
    # all-red check on the full exchange graph: each all-red state is -I
    # with its rows moved
    graph = quotient(n)
    for node, row_edges in zip(graph.nodes, graph.edges):
        assert [edge.generator.delta > 0 for edge in row_edges] \
            == [vertex_color(node, p) is Color.GREEN for p in range(1, n + 1)]
    red = [node.c for node in graph.nodes if is_all_red(node)]
    assert red == [coframed(ExchangeMatrix.straight_a(n)).c]


@pytest.mark.parametrize("n", [5, 6])
def test_quotient_nodes_are_valid_and_determine_their_b_parts(n):
    # acceptance criterion 6 checks every state of the full exchange graph
    # for n <= 4; both properties survive moving rows, so Q's nodes stand
    # for all n!·Catalan(n+1) states one rank or two further on
    b0 = ExchangeMatrix.straight_a(n).b
    for node in quotient(n).nodes:
        assert validate_c_matrix(node.c) == ()
        assert node.b == reconstructed_b(b0, node.c)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_no_quotient_edge_targets_its_own_node(n):
    # the loop search's prune rests on it: a state of the start's
    # row-permutation class has no neighbor in the class, so its shortest
    # way back is a trivial loop (k, k) of two steps
    for i, row_edges in enumerate(quotient(n).edges):
        assert [edge.target for edge in row_edges if edge.target == i] == []


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_quotient_edges_follow_the_transpositions(n):
    # with the equivariance of mutation under relabeling (test_quiver), the
    # edge rule on Q is the formula's edge rule on the full exchange graph
    assert first_quotient_edge_failure(n) is None


def test_quotient_edge_check_negative_control(monkeypatch):
    # dropping x02's transposition has to fail at an edge of x02
    drop_transposition(monkeypatch, X02)
    node, p = first_quotient_edge_failure(3)
    assert vector_to_signed_root(node.c_row(p)) == X02


def first_edge_state_failure(graph):
    """The first (node index, row) of ``graph`` whose plainly mutated
    state, with its rows moved back by the edge's ``rho``, is not the
    edge's target node as a whole state, b-part and c-part; ``None`` if
    there is none."""
    for i, (node, row_edges) in enumerate(zip(graph.nodes, graph.edges)):
        for r, edge in enumerate(row_edges, start=1):
            if permute_rows(mutate(node, r), edge.rho.inverse()) \
                    != graph.nodes[edge.target]:
                return i, r
    return None


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_quotient_edges_reach_their_target_states(n):
    # quotient_graph finds a mutated state's node by its c-row set alone,
    # which does not see the b-part; every edge, first visit or revisit,
    # must still reach its target node as a whole state
    assert first_edge_state_failure(quotient(n)) is None


def test_quotient_edge_state_check_negative_control(monkeypatch):
    # a mutate that works on the b-part C B0 C^t of its input, but returns
    # one b-entry with the wrong sign, keeps every c-matrix right: the
    # build still finds the Catalan(4) nodes by their row sets, and the
    # edge check must fail
    real = quiverperm.search.mutate
    b0 = ExchangeMatrix.straight_a(3).b

    def flipped(state, k):
        out = real(_trusted_state(reconstructed_b(b0, state.c), state.c), k)
        b = [list(row) for row in out.b]
        i, j = next((i, j) for i, row in enumerate(b)
                    for j, x in enumerate(row) if x)
        b[i][j] = -b[i][j]
        return _trusted_state(tuple(map(tuple, b)), out.c)

    quiverperm.search._quotient_table.cache_clear()
    monkeypatch.setattr(quiverperm.search, "mutate", flipped)
    try:
        graph = quiverperm.search.quotient_graph(3)
        assert len(graph.nodes) == 14
        assert first_edge_state_failure(graph) is not None
    finally:
        quiverperm.search._quotient_table.cache_clear()


def loop_count_by_transfer_matrix(n, max_len):
    """Loops of length 1..max_len over all n!·Catalan(n+1) reachable
    states: a state (pi, S) returns to a row permutation of itself exactly
    when its walk returns to the node S, so the count is n! times the sum
    of the traces of A^1 .. A^max_len for Q's adjacency matrix A."""
    edges = quotient(n).edges
    size = len(edges)
    adjacency = [[0] * size for _ in edges]
    for i, row_edges in enumerate(edges):
        for edge in row_edges:
            adjacency[i][edge.target] += 1
    power = [[int(i == j) for j in range(size)] for i in range(size)]
    closed = 0
    for _ in range(max_len):
        power = [[sum(row[k] * adjacency[k][j] for k in range(size))
                  for j in range(size)] for row in power]
        closed += sum(power[i][i] for i in range(size))
    return math.factorial(n) * closed


@pytest.mark.parametrize("n,max_len,expected",
                         [(3, 7, 17100), (3, 8, 81288), (4, 7, 601440)])
def test_loop_count_by_transfer_matrix(n, max_len, expected):
    # 17100 is the loop-verify benchmark's total, 81288 criterion 3's;
    # 601440 is frozen, and the slow tier recounts it by enumeration
    assert loop_count_by_transfer_matrix(n, max_len) == expected


@pytest.mark.slow
def test_loop_count_rank4_by_enumeration():
    # the depth-first loop search from each of the 1008 states: it reads
    # only distances off Q, to prune, and finds every loop on plain states,
    # so it shares no counting code with the transfer matrix
    states = graph(4).nodes.values()
    assert sum(len(enumerate_loops(s, 7)) for s in states) == 601440


@pytest.mark.parametrize("n,expected", [(6, 340549), (7, 216569887)])
def test_mgs_census_count_agrees_with_count_mgs(n, expected):
    # frozen past the CLI bound: no closed form is on hand, so the DP on Q
    # and the breadth-first count on plain states must agree
    assert mgs_census(n)["count"] == count_mgs(n) == expected
