import itertools

import pytest

from quiverperm import (ExchangeMatrix, ExtendedExchangeMatrix, Permutation,
                        PictureWord, RelationVerdict, Root,
                        SignedGenerator, act, act_word, allowed,
                        apply_sequence, coframed, coxeter, framed, mutate,
                        permute_rows, relation_holds_on, relations,
                        word_from_sequence)

from common import A2, A3, X01, X02, X12, reachable


def test_generator_str():
    assert str(X01) == "x01"
    assert str(SignedGenerator(Root(1, 2), -1)) == "x12^-1"
    assert str(SignedGenerator(Root(3, 12))) == "x(3,12)"
    with pytest.raises(ValueError):
        SignedGenerator(Root(0, 1), 0)


def test_generator_json_round_trip():
    assert X02.to_json() == {"i": 0, "j": 2, "delta": "+"}
    assert SignedGenerator(Root(1, 3), -1).to_json() \
        == {"i": 1, "j": 3, "delta": "-"}


def test_word_display_reads_right_to_left():
    w = PictureWord((X01, X12))
    assert w.display == "x12 x01"
    assert str(w) == "x12 x01"
    assert PictureWord(()).display == "1"
    data = w.to_json()
    assert data["display"] == "x12 x01"
    assert [f["i"] for f in data["factors"]] == [0, 1]


def test_allowed():
    m = framed(A2)
    assert allowed(m, X01) == 1
    assert allowed(m, X12) == 2
    assert allowed(m, X02) is None
    assert allowed(m, SignedGenerator(Root(0, 1), -1)) is None
    assert allowed(coframed(A2), SignedGenerator(Root(1, 2), -1)) == 2


def test_allowed_rejects_duplicate_rows():
    zero2 = ((0, 0), (0, 0))
    dup = ExtendedExchangeMatrix(zero2, ((1, 0), (1, 0)))
    with pytest.raises(ValueError):
        allowed(dup, X01)


def test_act():
    m = framed(A2)
    assert act(m, X12) == mutate(m, 2)
    assert act(act(m, X12), X02) == apply_sequence(m, (2, 1))
    with pytest.raises(ValueError, match="undefined"):
        act(m, X02)


def test_act_flips_the_acted_row():
    for m in reachable(2):
        for root in (Root(0, 1), Root(0, 2), Root(1, 2)):
            for delta in (1, -1):
                g = SignedGenerator(root, delta)
                k = allowed(m, g)
                if k is None:
                    continue
                before = m.c_row(k)
                after = act(m, g).c_row(k)
                assert after == tuple(-x for x in before)


def test_act_is_equivariant_under_relabeling():
    perms2 = [Permutation.identity(2), Permutation.transposition(2, 1, 2)]
    gens = [SignedGenerator(r, d) for r in (Root(0, 1), Root(0, 2), Root(1, 2))
            for d in (1, -1)]
    for m in reachable(2):
        for rho in perms2:
            relabeled = permute_rows(m, rho)
            for g in gens:
                k = allowed(m, g)
                assert (allowed(relabeled, g) is None) == (k is None)
                if k is not None:
                    assert allowed(relabeled, g) == rho(k)
                    assert act(relabeled, g) == permute_rows(act(m, g), rho)


def test_word_from_sequence():
    m = framed(A2)
    assert word_from_sequence(m, (1, 2)) == PictureWord((X01, X12))
    assert word_from_sequence(m, (2, 1, 2)) == PictureWord((X12, X02, X01))
    assert word_from_sequence(m, ()) == PictureWord(())
    assert word_from_sequence(coframed(A2), (2,)) == PictureWord(
        (SignedGenerator(Root(1, 2), -1),))


def test_word_from_sequence_rejects_non_root_rows():
    zero2 = ((0, 0), (0, 0))
    bad = ExtendedExchangeMatrix(zero2, ((1, -1), (0, 1)))
    with pytest.raises(ValueError):
        word_from_sequence(bad, (1,))


def test_act_word_replays_the_sequence():
    m = framed(A2)
    for length in range(0, 9):
        for seq in itertools.product((1, 2), repeat=length):
            assert act_word(m, word_from_sequence(m, seq)) \
                == apply_sequence(m, seq)


def test_act_word_replays_the_sequence_rank3():
    m = framed(A3)
    for length in range(0, 6):
        for seq in itertools.product((1, 2, 3), repeat=length):
            assert act_word(m, word_from_sequence(m, seq)) \
                == apply_sequence(m, seq)


def test_act_word_reports_failing_factor():
    with pytest.raises(ValueError, match="factor 0"):
        act_word(framed(A2), PictureWord((X02,)))
    with pytest.raises(ValueError, match="factor 1"):
        act_word(framed(A2), PictureWord((X01, X01)))


def test_coxeter():
    assert coxeter(1) == PictureWord((X01,))
    assert coxeter(2) == PictureWord((X01, X12))
    assert coxeter(2).display == "x12 x01"
    with pytest.raises(ValueError):
        coxeter(0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coxeter_word_is_the_shortest_reddening(n):
    b0 = ExchangeMatrix.straight_a(n)
    assert act_word(framed(b0), coxeter(n)) == coframed(b0)


def test_relations_catalog():
    assert relations(1) == []
    rels2 = relations(2)
    assert len(rels2) == 1
    assert rels2[0].kind == "hexagon"
    assert rels2[0].lhs.display == "x12 x01"
    assert rels2[0].rhs.display == "x01 x02 x12"
    rels3 = relations(3)
    kinds = [r.kind for r in rels3]
    assert kinds.count("hexagon") == 4
    assert kinds.count("commutation") == 2
    displays = {r.lhs.display for r in rels3 if r.kind == "commutation"}
    assert displays == {"x01 x23", "x03 x12"}


def test_relation_holds_on_framed():
    rel = relations(2)[0]
    assert relation_holds_on(framed(A2), rel) is RelationVerdict.AGREE_TRUE
    assert relation_holds_on(coframed(A2), rel) is RelationVerdict.BOTH_UNDEFINED


def test_relation_one_undefined_on_artificial_state():
    # x23 rewrites row 1 to +b01, so x01 x23 runs while x23 x01 stalls
    rel = next(r for r in relations(3) if r.kind == "commutation"
               and r.lhs.factors[0].root == Root(2, 3))
    b = ((0, 0, 1), (0, 0, 0), (-1, 0, 0))
    c = ((1, 0, -1), (0, 1, 0), (0, 0, 1))
    state = ExtendedExchangeMatrix(b, c)
    assert relation_holds_on(state, rel) is RelationVerdict.ONE_UNDEFINED


def test_relation_holds_on_rejects_repeated_rows():
    # with two rows +b01 both sides are ambiguous, not undefined
    state = ExtendedExchangeMatrix(A2.b, ((1, 0), (1, 0)))
    for rel in relations(2):
        with pytest.raises(ValueError, match="ambiguous: duplicate c-rows"):
            relation_holds_on(state, rel)
