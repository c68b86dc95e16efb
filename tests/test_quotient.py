"""The standard quotient graph Q, built here from plain ``mutate``: its
edges against the formula's transpositions, and counts read off Q by
routes that share no traversal with ``search``.

Every reachable state of straight A_n is a standard state S with its rows
moved by some pi, and mutating it at vertex k mutates S at row
pi^{-1}(k) (equivariance, ``test_quiver``).  So Q has the Catalan(n+1)
standard states as nodes and one edge per row, and the loop and
green-sequence counts over the full exchange graph reduce to counts over
Q.
"""

import functools
import math

import pytest

from quiverperm import (Color, ExchangeMatrix, Permutation, Root,
                        SignedGenerator, count_mgs, enumerate_mgs,
                        factor_standard, framed, is_standard, mutate,
                        permute_rows, transposition_of, vector_to_signed_root,
                        vertex_color)

X02 = SignedGenerator(Root(0, 2))


@functools.cache
def quotient(n):
    """Q of straight A_n: its nodes in breadth-first order from the framed
    state, and for each node one edge (generator, target, rho) per row.
    The generator is read off the row, the target is the mutated state
    with its rows moved back into standard order, and rho is the
    permutation that moves them, both observed on plain ``mutate``."""
    nodes = [framed(ExchangeMatrix.straight_a(n))]
    seen = set(nodes)
    edges = {}
    for node in nodes:  # grows while it is walked
        out = []
        for p in range(1, n + 1):
            mutated = mutate(node, p)
            fact = factor_standard(mutated.c)
            target = permute_rows(mutated, fact.rho.inverse())
            out.append((vector_to_signed_root(node.c_row(p)), target,
                        fact.rho))
            if target not in seen:
                seen.add(target)
                nodes.append(target)
        edges[node] = tuple(out)
    return nodes, edges


def first_quotient_edge_failure(n, transposition=transposition_of):
    """The first (node, row) of Q whose observed rho differs from
    ``transposition`` of the row's generator; ``None`` if there is none."""
    nodes, edges = quotient(n)
    for node in nodes:
        for p, (g, _, rho) in enumerate(edges[node], start=1):
            if rho != transposition(g, n):
                return node, p
    return None


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_quotient_nodes_are_the_catalan_standard_states(n):
    nodes, _ = quotient(n)
    assert len(nodes) == math.comb(2 * n + 2, n + 1) // (n + 2)
    assert all(is_standard(node.c) for node in nodes)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_quotient_edges_follow_the_transpositions(n):
    # with the equivariance of mutation under relabeling (test_quiver), the
    # edge rule on Q is the formula's edge rule on the full exchange graph
    assert first_quotient_edge_failure(n) is None


def test_quotient_edge_check_negative_control():
    # dropping x02's transposition has to fail at an edge of x02
    def broken(g, n):
        return Permutation.identity(n) if g == X02 \
            else transposition_of(g, n)

    node, p = first_quotient_edge_failure(3, broken)
    assert vector_to_signed_root(node.c_row(p)) == X02


def loop_count_by_transfer_matrix(n, max_len):
    """Loops of length 1..max_len over all n!·Catalan(n+1) reachable
    states: a state (pi, S) returns to a row permutation of itself exactly
    when its walk returns to the node S, so the count is n! times the sum
    of the traces of A^1 .. A^max_len for Q's adjacency matrix A."""
    nodes, edges = quotient(n)
    index = {node: i for i, node in enumerate(nodes)}
    size = len(nodes)
    adjacency = [[0] * size for _ in nodes]
    for i, node in enumerate(nodes):
        for _, target, _ in edges[node]:
            adjacency[i][index[target]] += 1
    power = [[int(i == j) for j in range(size)] for i in range(size)]
    closed = 0
    for _ in range(max_len):
        power = [[sum(row[k] * adjacency[k][j] for k in range(size))
                  for j in range(size)] for row in power]
        closed += sum(power[i][i] for i in range(size))
    return math.factorial(n) * closed


@pytest.mark.parametrize("max_len,expected", [(7, 17100), (8, 81288)])
def test_loop_count_by_transfer_matrix(max_len, expected):
    # 17100 is the loop-verify benchmark's total, 81288 criterion 3's
    assert loop_count_by_transfer_matrix(3, max_len) == expected


def mgs_count_by_dp(n):
    """Maximal green sequences from the framed node: a node without green
    rows ends one sequence; otherwise count(S) is the sum of count(S') over
    the targets of its green rows."""
    nodes, edges = quotient(n)
    memo = {}

    def count(node):
        if node not in memo:
            greens = [target for p, (_, target, _) in
                      enumerate(edges[node], start=1)
                      if vertex_color(node, p) is Color.GREEN]
            memo[node] = sum(map(count, greens)) if greens else 1
        return memo[node]

    return count(nodes[0])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mgs_count_by_dp(n):
    assert mgs_count_by_dp(n) == count_mgs(n) == len(enumerate_mgs(n))


def test_mgs_count_by_dp_rank6():
    # frozen: no closed form is on hand, so two routes must agree
    assert mgs_count_by_dp(6) == count_mgs(6) == 340549
