import json

import pytest
from hypothesis import given, strategies as st

from quiverperm import (Color, ExchangeMatrix, ExtendedExchangeMatrix,
                        Permutation, apply_sequence, coframed,
                        find_row_permutation, format_state, framed,
                        is_all_red, mutate, permute_rows, reconstructed_b,
                        state_from_json, state_to_dot, state_to_json,
                        vertex_color)

A1 = ExchangeMatrix.straight_a(1)
A2 = ExchangeMatrix.straight_a(2)
A3 = ExchangeMatrix.straight_a(3)


def reachable(n, depth):
    """All states within ``depth`` mutations of the framed quiver."""
    start = framed(ExchangeMatrix.straight_a(n))
    seen = {start}
    frontier = [start]
    for _ in range(depth):
        frontier = [nxt for m in frontier for k in range(1, n + 1)
                    if (nxt := mutate(m, k)) not in seen and not seen.add(nxt)]
    return sorted(seen, key=lambda m: m.c)


def test_straight_orientation():
    assert A1.b == ((0,),)
    assert A2.b == ((0, 1), (-1, 0))
    assert A3.b == ((0, 1, 0), (-1, 0, 1), (0, -1, 0))
    with pytest.raises(ValueError):
        ExchangeMatrix.straight_a(0)


def test_exchange_matrix_validation():
    with pytest.raises(ValueError):
        ExchangeMatrix(((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        ExchangeMatrix(((1,),))


def test_framed_and_coframed():
    f = framed(A2)
    assert f.b == ((0, 1), (-1, 0))
    assert f.c == ((1, 0), (0, 1))
    g = coframed(A2)
    assert g.b == f.b
    assert g.c == ((-1, 0), (0, -1))
    assert framed(A1).c == ((1,),)


def test_extended_matrix_validation():
    with pytest.raises(ValueError):
        ExtendedExchangeMatrix(((0, 1), (1, 0)), ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        ExtendedExchangeMatrix(A2.b, ((1, 0),))
    # zero c-vector can never be a signed root
    with pytest.raises(ValueError):
        ExtendedExchangeMatrix(A2.b, ((1, 0), (0, 0)))


def test_c_row_is_one_based():
    m = framed(A2)
    assert m.c_row(1) == (1, 0)
    assert m.c_row(2) == (0, 1)


def test_mutate_framed_a2():
    m1 = mutate(framed(A2), 1)
    assert m1.b == ((0, -1), (1, 0))
    assert m1.c == ((-1, 0), (0, 1))
    m2 = mutate(framed(A2), 2)
    assert m2.b == ((0, -1), (1, 0))
    assert m2.c == ((1, 1), (0, -1))


def test_mutate_out_of_range():
    with pytest.raises(IndexError):
        mutate(framed(A2), 0)
    with pytest.raises(IndexError):
        mutate(framed(A2), 3)


def test_c_row_out_of_range():
    m = framed(A2)
    assert m.c_row(1) == (1, 0)
    with pytest.raises(IndexError):
        m.c_row(0)
    with pytest.raises(IndexError):
        m.c_row(3)


def test_mutation_is_involutive():
    m = framed(A3)
    assert mutate(mutate(m, 2), 2) == m


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mutation_involution_everywhere(n):
    for m in reachable(n, 4):
        for k in range(1, n + 1):
            assert mutate(mutate(m, k), k) == m


def test_apply_sequence():
    m = framed(A2)
    assert apply_sequence(m, ()) == m
    assert apply_sequence(m, (1, 2)) == coframed(A2)
    end = apply_sequence(m, (2, 1, 2))
    assert end.b == ((0, -1), (1, 0))
    assert end.c == ((0, -1), (-1, 0))


def test_vertex_color():
    m = framed(A2)
    assert vertex_color(m, 1) is Color.GREEN
    assert vertex_color(m, 2) is Color.GREEN
    assert vertex_color(mutate(m, 2), 2) is Color.RED
    assert all(vertex_color(coframed(A2), k) is Color.RED for k in (1, 2))


def test_vertex_color_rejects_mixed_signs():
    zero2 = ((0, 0), (0, 0))
    bad = ExtendedExchangeMatrix(zero2, ((1, -1), (0, 1)))
    with pytest.raises(ValueError):
        vertex_color(bad, 1)


def test_is_all_red():
    assert is_all_red(coframed(A3))
    assert not is_all_red(framed(A3))
    assert not is_all_red(mutate(framed(A2), 2))


def test_permute_rows():
    swap = Permutation.transposition(2, 1, 2)
    m = permute_rows(coframed(A2), swap)
    assert m.b == ((0, -1), (1, 0))
    assert m.c == ((0, -1), (-1, 0))
    assert m == apply_sequence(framed(A2), (2, 1, 2))
    assert permute_rows(m, swap.inverse()) == coframed(A2)
    ident = Permutation.identity(2)
    assert permute_rows(m, ident) == m
    with pytest.raises(ValueError):
        permute_rows(m, Permutation.identity(3))


def test_permutation_equivariance_of_mutation():
    # relabeling commutes with mutation: mu_{rho(k)} . rho == rho . mu_k
    perms = [Permutation(im) for im in
             ((1, 2, 3), (2, 1, 3), (1, 3, 2), (3, 1, 2), (2, 3, 1), (3, 2, 1))]
    for m in reachable(3, 3):
        for rho in perms:
            for k in range(1, 4):
                assert (mutate(permute_rows(m, rho), rho(k))
                        == permute_rows(mutate(m, k), rho))


def test_find_row_permutation():
    m = framed(A2)
    assert find_row_permutation(m, m) == Permutation.identity(2)
    end = apply_sequence(m, (2, 1, 2))
    rho = find_row_permutation(coframed(A2), end)
    assert rho == Permutation.transposition(2, 1, 2)
    assert find_row_permutation(m, coframed(A2)) is None
    assert find_row_permutation(m, framed(A3)) is None


def test_find_row_permutation_needs_distinct_rows():
    zero2 = ((0, 0), (0, 0))
    dup = ExtendedExchangeMatrix(zero2, ((1, 0), (1, 0)))
    with pytest.raises(ValueError):
        find_row_permutation(dup, dup)


def test_find_row_permutation_checks_b_part():
    # same c-rows, incompatible b-part: no permutation relates the states
    m1 = ExtendedExchangeMatrix(A2.b, ((1, 0), (0, 1)))
    m2 = ExtendedExchangeMatrix(((0, -1), (1, 0)), ((1, 0), (0, 1)))
    assert find_row_permutation(m1, m2) is None


@given(st.permutations(range(1, 4)))
def test_round_trip_permutation_recovered(images):
    rho = Permutation(tuple(images))
    for m in [framed(A3), apply_sequence(framed(A3), (1, 2, 3))]:
        assert find_row_permutation(m, permute_rows(m, rho)) == rho


def test_reconstructed_b():
    m = apply_sequence(framed(A2), (2, 1))
    assert reconstructed_b(A2.b, m.c) == m.b
    for state in reachable(3, 4):
        assert reconstructed_b(A3.b, state.c) == state.b


def test_json_round_trip():
    m = apply_sequence(framed(A3), (2, 3, 1))
    data = state_to_json(m)
    assert data["n"] == 3
    assert state_from_json(data) == m
    assert state_from_json(json.dumps(data)) == m
    data["n"] = 4
    with pytest.raises(ValueError):
        state_from_json(data)


@pytest.mark.parametrize("c", [[[1, 0], [0, 1.5]], [[True, 0], [0, 1]],
                               [[1, 0], 1], 7])
def test_state_from_json_rejects_non_integer_entries(c):
    data = {"n": 2, "b": [[0, 1], [-1, 0]], "c": c}
    with pytest.raises(ValueError):
        state_from_json(data)
    with pytest.raises(ValueError):
        state_from_json(json.dumps(data))


def test_state_from_json_rejects_empty_state():
    with pytest.raises(ValueError):
        state_from_json({"b": [], "c": []})


def test_dot_output():
    dot = state_to_dot(framed(A2))
    assert dot.startswith("digraph quiver {")
    assert '"1" [style=filled, fillcolor=green];' in dot
    assert '"1" -> "2";' in dot
    assert '"1" -> "1\'";' in dot
    red = state_to_dot(coframed(A2))
    assert '"1\'" -> "1";' in red
    assert 'fillcolor=red' in red


def test_format_state():
    text = format_state(framed(A2))
    assert text.splitlines() == ["[  0  1 |  1  0 ]", "[ -1  0 |  0  1 ]"]
