import itertools

import pytest
from hypothesis import given, settings, strategies as st

from quiverperm import (ExchangeMatrix, Permutation, Root, SignedGenerator,
                        apply_sequence, canonical_row, check_preservation,
                        factor_standard, framed, is_standard, mutate,
                        vector_to_signed_root)

A2 = ExchangeMatrix.straight_a(2)


def reachable_c(n, depth=None):
    start = framed(ExchangeMatrix.straight_a(n))
    seen = {start}
    frontier = [start]
    while frontier and (depth is None or depth > 0):
        frontier = [s for m in frontier for k in range(1, n + 1)
                    if (s := mutate(m, k)) not in seen and not seen.add(s)]
        if depth is not None:
            depth -= 1
    return sorted(s.c for s in seen)


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


def test_factor_standard_failures():
    # +b01 and +b02 both claim row 1
    assert factor_standard(((1, 0), (1, 1))) is None
    # row that is not a signed root
    assert factor_standard(((1, -1), (0, 1))) is None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_factor_standard_round_trip_on_reachable(n):
    for c in reachable_c(n):
        fact = factor_standard(c)
        assert fact is not None
        assert is_standard(fact.m)
        assert fact.rho.apply_to_rows(fact.m) == c


def test_factorization_is_unique_exhaustively():
    # no nonidentity permutation maps a reachable standard matrix to
    # another standard matrix
    for n in (2, 3):
        perms = [Permutation(im)
                 for im in itertools.permutations(range(1, n + 1))]
        for c in reachable_c(n):
            if not is_standard(c):
                continue
            for rho in perms:
                permuted = rho.apply_to_rows(c)
                assert is_standard(permuted) == rho.is_identity()


STANDARD4 = [c for c in reachable_c(4, depth=5) if is_standard(c)]


@settings(max_examples=30)
@given(st.sampled_from(STANDARD4), st.permutations(range(1, 5)))
def test_factorization_unique_sampled_n4(c, images):
    rho = Permutation(tuple(images))
    assert is_standard(rho.apply_to_rows(c)) == rho.is_identity()


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
