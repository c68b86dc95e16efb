import itertools

import pytest
from hypothesis import given, strategies as st

from quiverperm import (Permutation, Root, SignedGenerator, apply_sequence,
                        canonical_row, check_preservation, factor_standard,
                        framed, is_standard, mutate, vector_to_signed_root)
from quiverperm.standard import _placement

from common import A2, graph, reachable


def reachable_c(n):
    return [m.c for m in reachable(n)]


def test_is_standard_examples():
    assert is_standard(((1, 1), (0, -1)))
    assert is_standard(((1, 0), (-1, -1)))
    assert not is_standard(((0, -1), (-1, 0)))
    assert not is_standard(((-1, -1), (1, 0)))
    assert is_standard(((1, 0), (0, 1)))
    assert is_standard(((-1, 0), (0, -1)))


def test_is_standard_rejects_non_roots():
    assert not is_standard(((2, 0), (0, 1)))
    assert not is_standard(((1, 0), (0, 1), (0, 0)))
    assert not is_standard(((1, 0, 1), (0, 1, 0), (0, 0, 1)))


def test_canonical_row():
    assert canonical_row(SignedGenerator(Root(0, 2))) == 1
    assert canonical_row(SignedGenerator(Root(0, 2), -1)) == 2
    assert canonical_row(SignedGenerator(Root(1, 3))) == 2
    assert canonical_row(SignedGenerator(Root(1, 3), -1)) == 3
    # simple roots: both signs target the same row
    assert canonical_row(SignedGenerator(Root(1, 2))) == 2
    assert canonical_row(SignedGenerator(Root(1, 2), -1)) == 2


def test_standard_matrix_rows_sit_in_canonical_position():
    for c in reachable_c(3):
        if is_standard(c):
            for r, row in enumerate(c, start=1):
                assert canonical_row(vector_to_signed_root(row)) == r


def test_factor_standard_of_standard_is_identity():
    fact = factor_standard(((1, 1), (0, -1)))
    assert fact.rho.is_identity()
    assert fact.m == ((1, 1), (0, -1))


def test_factor_standard_permuted():
    fact = factor_standard(((0, -1), (-1, 0)))
    assert fact.rho == Permutation.transposition(2, 1, 2)
    assert fact.m == ((-1, 0), (0, -1))
    assert fact.rho.apply_to_rows(fact.m) == ((0, -1), (-1, 0))


def factor_standard_by_search(c):
    """Reference factorization by the definition: every rho in S_n for
    which moving the rows of ``c`` back by rho gives a standard matrix."""
    n = len(c)
    if any(len(row) != n for row in c):
        return None
    found = []
    for images in itertools.permutations(range(1, n + 1)):
        rho = Permutation(images)
        m = rho.inverse().apply_to_rows(c)
        if is_standard(m):
            found.append((rho, m))
    assert len(found) <= 1
    return found[0] if found else None


def test_factor_standard_failures():
    for c in [
        ((1, 0), (1, 1)),                    # +b01 and +b02 both claim row 1
        ((0, -1), (-1, -1)),                 # -b12 and -b02 both claim row 2
        ((1, -1), (0, 1)),                   # a row that is not a signed root
        ((2, 0), (0, 1)),                    # entries beyond +-1
        ((1, 0, 1), (0, 1, 0), (0, 0, 1)),   # a row with a gap
        ((1, 1, 0), (0, 1, 1)),              # signed roots, but not square
    ]:
        assert factor_standard(c) is None
        assert factor_standard_by_search(c) is None


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_factor_standard_round_trip_on_reachable(n):
    for c in reachable_c(n):
        fact = factor_standard(c)
        assert fact is not None
        assert is_standard(fact.m)
        assert fact.rho.apply_to_rows(fact.m) == c
        assert (fact.rho, fact.m) == factor_standard_by_search(c)


def test_placement_inverts_to_factor_standard_rho_on_the_graph():
    for c in graph(4).nodes:
        assert _placement(c).inverse() == factor_standard(c).rho


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(-1, 1)] * n), min_size=n, max_size=n)))
def test_placement_fails_exactly_when_factor_standard_does(rows):
    c = tuple(rows)
    fact = factor_standard(c)
    placement = _placement(c)
    assert (placement is None) == (fact is None)
    if fact is not None:
        assert placement.inverse() == fact.rho


def test_check_preservation_simple_generator():
    m = framed(A2)
    assert check_preservation(m, SignedGenerator(Root(1, 2)))
    assert check_preservation(m, SignedGenerator(Root(0, 1)))


def test_check_preservation_long_root():
    # state with c = [[1,1],[0,-1]]; acting by x02 then swapping rows 1,2
    # lands on the standard [[1,0],[-1,-1]]
    m = mutate(framed(A2), 2)
    assert check_preservation(m, SignedGenerator(Root(0, 2)))


def test_check_preservation_errors():
    m = apply_sequence(framed(A2), (2, 1, 2))
    with pytest.raises(ValueError):
        check_preservation(m, SignedGenerator(Root(0, 1)))
    with pytest.raises(ValueError):
        check_preservation(framed(A2), SignedGenerator(Root(0, 2)))
