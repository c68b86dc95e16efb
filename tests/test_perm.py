import copy
import dataclasses
import pickle
import weakref
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from quiverperm import Permutation
from quiverperm.perm import _trusted


def perms(n):
    return st.permutations(range(1, n + 1)).map(lambda im: Permutation(tuple(im)))


def test_identity():
    p = Permutation.identity(3)
    assert p.images == (1, 2, 3)
    assert p.is_identity()
    assert all(p(k) == k for k in range(1, 4))


def test_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    with pytest.raises(ValueError):
        Permutation((2, 3))


@pytest.mark.parametrize("images", [(1.0, 2.0), (True, 2), (2, True),
                                    [2, 1], range(1, 3), "12"])
def test_validation_requires_a_tuple_of_ints(images):
    with pytest.raises(ValueError, match="tuple of ints"):
        Permutation(images)


@pytest.mark.parametrize("a,b", [(True, 2), (3, True), (1.0, 2), (2, 2.0),
                                 (0, 1), (1, 4), ("1", 2)])
def test_transposition_requires_int_points_in_range(a, b):
    # a bool would be stored as an image, and a float would fail as an index
    with pytest.raises(ValueError, match=r"not an int in 1\.\.3"):
        Permutation.transposition(3, a, b)


@pytest.mark.parametrize("cycles", [[(1, 5)], [(0, 2)], [(1.0, 2)],
                                    [(1, 2), (True, 3)], [("1", 2)]])
def test_from_cycles_requires_int_points_in_range(cycles):
    with pytest.raises(ValueError, match=r"not an int in 1\.\.3"):
        Permutation.from_cycles(3, cycles)


@pytest.mark.parametrize("x", [1.0, True, False, "1", None])
def test_call_requires_an_int_point(x):
    # a bool would index the images, and a float would fail as an index
    with pytest.raises(ValueError, match="is not an int"):
        Permutation((2, 1, 3))(x)


@pytest.mark.parametrize("n", [2.0, True, -1, "2", None])
def test_identity_requires_a_nonnegative_int_size(n):
    # range would reject a float with TypeError, and read -1 as size 0
    with pytest.raises(ValueError, match="not a nonnegative int"):
        Permutation.identity(n)


def test_permutations_are_slotted_and_still_pickle_copy_and_weakref():
    # composed permutations are built through the slot descriptor; pickling
    # and copying must rebuild them without assigning to a frozen field
    p = Permutation((3, 1, 2)) * Permutation.transposition(3, 1, 2)
    assert not hasattr(p, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.images = (1, 2, 3)
    copies = [pickle.loads(pickle.dumps(p, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for again in copies + [copy.copy(p), copy.deepcopy(p)]:
        assert type(again) is Permutation
        assert again == p and hash(again) == hash(p)
        assert again.images == (1, 3, 2) and again.inverse() == p.inverse()
    assert _trusted((2, 1)) == Permutation((2, 1))
    ref = weakref.ref(p)
    assert ref() is p
    del p
    assert ref() is None
    # the public constructor still validates
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation((1, 1))
    with pytest.raises(ValueError, match="tuple of ints"):
        Permutation([1, 2])


def test_transposition():
    t = Permutation.transposition(3, 1, 2)
    assert t.images == (2, 1, 3)
    assert Permutation.transposition(3, 2, 2).is_identity()
    with pytest.raises(ValueError):
        Permutation.transposition(2, 1, 3)


def test_from_cycles():
    assert Permutation.from_cycles(3, [(1, 2)]) == Permutation((2, 1, 3))
    assert Permutation.from_cycles(4, [(1, 2, 3)]) == Permutation((2, 3, 1, 4))
    assert Permutation.from_cycles(2, []).is_identity()
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [(1, 2), (2, 3)])


def test_composition_order():
    # (p * q)(x) = p(q(x)): q acts first.
    p = Permutation.transposition(3, 1, 2)
    q = Permutation.transposition(3, 2, 3)
    assert (p * q)(3) == p(q(3)) == 1
    assert (p * q).images == (2, 3, 1)


def test_call_out_of_range():
    p = Permutation.identity(2)
    with pytest.raises(IndexError):
        p(3)
    with pytest.raises(IndexError):
        p(0)


def test_apply_to_rows_moves_row_to_image():
    # row r of the input becomes row sigma(r) of the output
    sigma = Permutation((2, 3, 1))
    rows = ("a", "b", "c")
    assert sigma.apply_to_rows(rows) == ("c", "a", "b")
    with pytest.raises(ValueError):
        sigma.apply_to_rows(("a", "b"))


def test_cycle_string():
    assert Permutation.identity(4).cycle_string() == "id"
    assert Permutation.transposition(2, 1, 2).cycle_string() == "(12)"
    assert str(Permutation((2, 1, 3))) == "(12)"
    assert Permutation.from_cycles(4, [(1, 2, 3)]).cycle_string() == "(123)"
    assert Permutation.from_cycles(4, [(1, 2), (3, 4)]).cycle_string() == "(12)(34)"
    # two-digit entries get spaces
    big = Permutation.transposition(10, 9, 10)
    assert big.cycle_string() == "(9 10)"


def test_cycles():
    p = Permutation.from_cycles(5, [(1, 3), (2, 4, 5)])
    assert p.cycles() == ((1, 3), (2, 4, 5))


def reference_cycle_string(p):
    """Cycle notation as built point by point through ``p(x)``, kept as
    the reference for the faster ``cycle_string``."""
    seen = set()
    out = []
    for start in range(1, p.n + 1):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        x = p(start)
        while x != start:
            cycle.append(x)
            seen.add(x)
            x = p(x)
        if len(cycle) > 1:
            out.append(tuple(cycle))
    if not out:
        return "id"
    sep = " " if p.n > 9 else ""
    return "".join("(" + sep.join(str(x) for x in c) + ")" for c in out)


def test_cycles_and_notation_match_the_pointwise_reference():
    # every permutation of up to six points, and one past nine points,
    # where the entries are separated by spaces
    wide = Permutation.from_cycles(10, [(10, 4, 1), (2, 3), (5, 9, 6, 8)])
    for p in [*(Permutation(images) for n in range(1, 7)
                for images in permutations(range(1, n + 1))), wide]:
        cycles = p.cycles()
        assert Permutation.from_cycles(p.n, cycles) == p
        assert all(len(c) > 1 and c[0] == min(c) for c in cycles)
        assert p.cycle_string() == reference_cycle_string(p)
    assert wide.cycle_string() == "(1 10 4)(2 3)(5 9 6 8)"


@given(perms(4))
def test_inverse(p):
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()
    assert p.inverse().inverse() == p


@given(perms(4), perms(4), perms(4))
def test_associativity(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(perms(4), perms(4))
def test_apply_to_rows_is_an_action(p, q):
    rows = tuple(range(10, 14))
    assert (p * q).apply_to_rows(rows) == p.apply_to_rows(q.apply_to_rows(rows))


@given(perms(5))
def test_cycles_round_trip(p):
    assert Permutation.from_cycles(5, p.cycles()) == p


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    perms(n), perms(n), st.integers(1, n), st.integers(1, n))))
def test_unvalidated_results_pass_validation(args):
    # composition, inverse and transposition skip the constructor's check
    p, q, a, b = args
    for r in (p * q, p.inverse(), Permutation.transposition(p.n, a, b)):
        assert Permutation(r.images) == r


def test_mul_size_mismatch():
    with pytest.raises(ValueError):
        Permutation.identity(2) * Permutation.identity(3)
