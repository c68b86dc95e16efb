from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quiverperm import (ExchangeMatrix, Root, SignedGenerator, all_roots,
                        euler_matrix, euler_pairing, ext, framed, hom, in_wall,
                        mutate, root_to_vector, subroots, validate_c_matrix,
                        vector_to_signed_root)

from rep_oracle import (all_root_pairs, ext_oracle, hom_oracle,
                        is_submodule_oracle)


def test_root_validation():
    with pytest.raises(ValueError):
        Root(1, 1)
    with pytest.raises(ValueError):
        Root(2, 1)
    with pytest.raises(ValueError):
        Root(-1, 0)
    assert str(Root(0, 2)) == "b02"
    assert str(Root(3, 12)) == "b(3,12)"


def test_all_roots():
    assert all_roots(2) == [Root(0, 1), Root(0, 2), Root(1, 2)]
    for n in range(1, 7):
        assert len(all_roots(n)) == n * (n + 1) // 2


def test_root_to_vector():
    assert root_to_vector(Root(0, 2), 2) == (1, 1)
    assert root_to_vector(Root(1, 2), 2) == (0, 1)
    assert root_to_vector(Root(0, 1), 3) == (1, 0, 0)
    with pytest.raises(ValueError):
        root_to_vector(Root(0, 3), 2)


def test_vector_to_signed_root():
    # a c-vector parses straight to the generator it spells
    assert vector_to_signed_root((1, 1)) == SignedGenerator(Root(0, 2))
    assert vector_to_signed_root((-1, -1)) == SignedGenerator(Root(0, 2), -1)
    assert vector_to_signed_root((0, 1, 1)) == SignedGenerator(Root(1, 3), 1)
    assert vector_to_signed_root((1, 0, 1)) is None
    assert vector_to_signed_root((1, -1)) is None
    assert vector_to_signed_root((0, 2, 0)) is None
    assert vector_to_signed_root((0, 0)) is None


@given(st.integers(1, 5), st.data())
def test_vector_round_trip(n, data):
    roots = all_roots(n)
    r = data.draw(st.sampled_from(roots))
    sign = data.draw(st.sampled_from([1, -1]))
    vec = tuple(sign * x for x in root_to_vector(r, n))
    assert vector_to_signed_root(vec) == SignedGenerator(r, sign)


def test_euler_matrix():
    assert euler_matrix(3) == ((1, -1, 0), (0, 1, -1), (0, 0, 1))


def test_euler_pairing():
    assert euler_pairing((1, 0), (1, 0)) == 1
    assert euler_pairing((1, 0), (0, 1)) == -1
    assert euler_pairing((0, 1), (1, 0)) == 0
    assert euler_pairing(root_to_vector(Root(0, 2), 2),
                         root_to_vector(Root(1, 2), 2)) == 0
    assert euler_pairing((Fraction(1, 2), Fraction(1, 3)),
                         (Fraction(2), Fraction(0))) == 1
    with pytest.raises(ValueError):
        euler_pairing((1, 0), (1, 0, 0))


@given(st.integers(1, 5), st.data())
def test_euler_pairing_matches_matrix(n, data):
    E = euler_matrix(n)
    x = data.draw(st.tuples(*[st.integers(-3, 3)] * n))
    y = data.draw(st.tuples(*[st.integers(-3, 3)] * n))
    explicit = sum(x[i] * E[i][j] * y[j] for i in range(n) for j in range(n))
    assert euler_pairing(x, y) == explicit


def test_hom_examples():
    assert hom(Root(0, 2), Root(0, 1)) == 1
    assert hom(Root(0, 1), Root(0, 2)) == 0
    assert hom(Root(0, 2), Root(1, 2)) == 0
    assert hom(Root(1, 2), Root(0, 2)) == 1
    assert all(hom(r, r) == 1 for r in all_roots(4))


def test_ext_examples():
    # the one nonsplit extension in type A2 glues b12 below b01
    assert ext(Root(0, 1), Root(1, 2)) == 1
    assert ext(Root(1, 2), Root(0, 1)) == 0
    assert all(ext(r, r) == 0 for r in all_roots(4))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_hom_and_ext_match_oracle(n):
    for (a, b) in all_root_pairs(n):
        ra, rb = Root(*a), Root(*b)
        assert hom(ra, rb) == hom_oracle(a, b, n)
        assert ext(ra, rb) == ext_oracle(a, b, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_euler_pairing_is_hom_minus_ext(n):
    for (a, b) in all_root_pairs(n):
        pair = euler_pairing(root_to_vector(Root(*a), n),
                             root_to_vector(Root(*b), n))
        assert pair == hom_oracle(a, b, n) - ext_oracle(a, b, n)


def test_subroots_are_suffixes():
    assert list(subroots(Root(0, 3))) == [Root(0, 3), Root(1, 3), Root(2, 3)]
    assert list(subroots(Root(0, 2))) == [Root(0, 2), Root(1, 2)]
    assert list(subroots(Root(1, 3))) == [Root(1, 3), Root(2, 3)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_subroot_matches_submodule_oracle(n):
    for (a, b) in all_root_pairs(n):
        assert (Root(*a) in set(subroots(Root(*b)))) \
            == is_submodule_oracle(a, b, n)


def test_in_wall():
    b = Root(0, 2)
    assert in_wall((0, 0), b)
    assert not in_wall(root_to_vector(b, 2), b)
    # pairs to zero with b02 but positively with the subroot b12
    assert not in_wall((-1, 0), b)
    assert in_wall((1, 0), b)
    assert in_wall((Fraction(1, 3), Fraction(0)), b)
    with pytest.raises(ValueError):
        in_wall((1, 0), Root(0, 3))


def test_validate_c_matrix_accepts_reachable():
    n = 3
    m = framed(ExchangeMatrix.straight_a(n))
    seen = {m}
    frontier = [m]
    while frontier:
        nxt = [s for state in frontier for k in range(1, n + 1)
               if (s := mutate(state, k)) not in seen and not seen.add(s)]
        frontier = nxt
    assert len(seen) == 84
    for state in seen:
        assert validate_c_matrix(state.c) == ()


def kinds_and_rows(c):
    return [(v.kind, v.rows) for v in validate_c_matrix(c)]


def test_validate_c_matrix_not_signed_root():
    assert kinds_and_rows(((1, -1), (0, 1))) == [("not_signed_root", (1,))]


def test_validate_c_matrix_same_sign():
    # rows +b01 and +b02: hom(b02, b01) = 1, reported once per unordered pair
    assert kinds_and_rows(((1, 0), (1, 1))) \
        == [("same_sign_not_hom_orthogonal", (1, 2))]


def test_validate_c_matrix_opposite_sign():
    # rows +b02 and -b01: hom(b02, b01) = 1
    assert kinds_and_rows(((1, 1), (-1, 0))) \
        == [("opposite_sign_not_orthogonal", (1, 2))]
    # rows +b01 and -b12: ext(b01, b12) = 1
    assert kinds_and_rows(((1, 0), (0, -1))) \
        == [("opposite_sign_not_orthogonal", (1, 2))]
