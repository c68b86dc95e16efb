"""Signed generators acting on extended exchange matrices.

The generator of root (i, j) with sign ``delta`` acts on a state by
mutating at the unique vertex whose c-vector equals ``delta * b_ij``; the
action is undefined when no row matches.  Words store their factors in
application order (first-applied first); the display form reads right to
left, so the last-applied factor prints leftmost.

Two words that are equal in the generated group need not act identically:
their results can differ by a relabeling of the mutable vertices, which is
exactly what the associated permutation of a word measures.  Relation
checks therefore compare states up to a row permutation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .perm import Permutation
from .quiver import ExtendedExchangeMatrix, find_row_permutation, mutate
from .roots import (Root, SignedGenerator, all_roots, root_to_vector,
                    vector_to_signed_root)


@dataclass(frozen=True)
class PictureWord:
    """Factors in application order: ``factors[0]`` acts first."""

    factors: tuple[SignedGenerator, ...]

    @property
    def display(self) -> str:
        """Right-to-left rendering; the identity word prints as "1"."""
        if not self.factors:
            return "1"
        return " ".join(str(g) for g in reversed(self.factors))

    def __str__(self) -> str:
        return self.display

    def to_json(self) -> dict:
        return {"factors": [g.to_json() for g in self.factors],
                "display": self.display}


def allowed(m: ExtendedExchangeMatrix,
            g: SignedGenerator) -> Optional[int]:
    """The vertex whose c-vector is ``delta * b_ij``, or ``None``.

    Two matching rows cannot happen on a reachable state; they raise.
    """
    target = tuple(g.delta * x for x in root_to_vector(g.root, m.n))
    matches = [k for k in range(1, m.n + 1) if m.c_row(k) == target]
    if len(matches) > 1:
        raise ValueError(f"duplicate c-vectors match {g}: rows {matches}")
    return matches[0] if matches else None


def act(m: ExtendedExchangeMatrix,
        g: SignedGenerator) -> ExtendedExchangeMatrix:
    k = allowed(m, g)
    if k is None:
        raise ValueError(f"{g} is undefined on this state: no matching c-vector")
    return mutate(m, k)


def transposition_of(g: SignedGenerator, n: int) -> Permutation:
    """(i+1 j) for the generator of root (i, j); identity for simple roots."""
    return Permutation.transposition(n, g.root.i + 1, g.root.j)


def step(m: ExtendedExchangeMatrix,
         k: int) -> tuple[SignedGenerator, ExtendedExchangeMatrix]:
    """Mutate at ``k``: the signed generator spelled by the c-vector of
    ``k`` before the mutation, and the state after it."""
    g = vector_to_signed_root(m.c_row(k))
    if g is None:
        raise ValueError(
            f"c-vector of vertex {k} is not a signed root: {m.c_row(k)}")
    return g, mutate(m, k)


def word_from_sequence(m: ExtendedExchangeMatrix,
                       seq: Sequence[int]) -> PictureWord:
    """Translate a mutation sequence into the word it spells, one ``step``
    per vertex."""
    factors = []
    for k in seq:
        g, m = step(m, k)
        factors.append(g)
    return PictureWord(tuple(factors))


def act_word(m: ExtendedExchangeMatrix,
             w: PictureWord) -> ExtendedExchangeMatrix:
    for idx, g in enumerate(w.factors):
        k = allowed(m, g)
        if k is None:
            raise ValueError(f"factor {idx} of the word ({g}) is undefined")
        m = mutate(m, k)
    return m


def coxeter(n: int) -> PictureWord:
    """The word of all simple-root generators, x01 applied first."""
    if n < 1:
        raise ValueError("need n >= 1")
    return PictureWord(tuple(
        SignedGenerator(Root(k, k + 1)) for k in range(n)))


class RelationVerdict(Enum):
    BOTH_UNDEFINED = "both_undefined"
    ONE_UNDEFINED = "one_undefined"
    AGREE_TRUE = "agree_true"
    DISAGREE = "disagree"


@dataclass(frozen=True)
class Relation:
    lhs: PictureWord
    rhs: PictureWord
    kind: str  # "commutation" or "hexagon"


def relations(n: int) -> list[Relation]:
    """Defining relations of the generator set on n+1 endpoints.

    Commutations x_ij x_kl = x_kl x_ij for interval pairs with four
    distinct endpoints that are disjoint or nested, and hexagon relations
    x_jk x_ij = x_ij x_ik x_jk for 0 <= i < j < k <= n.
    """
    out = []
    for a, b in itertools.combinations(all_roots(n), 2):
        i, j, k, l = a.i, a.j, b.i, b.j
        if len({i, j, k, l}) != 4:
            continue
        disjoint = j < k or l < i
        nested = (i < k and l < j) or (k < i and j < l)
        if disjoint or nested:
            gen_a = SignedGenerator(a)
            gen_b = SignedGenerator(b)
            out.append(Relation(PictureWord((gen_b, gen_a)),
                                PictureWord((gen_a, gen_b)),
                                "commutation"))
    for i in range(n - 1):
        for j in range(i + 1, n):
            for k in range(j + 1, n + 1):
                x_ij = SignedGenerator(Root(i, j))
                x_ik = SignedGenerator(Root(i, k))
                x_jk = SignedGenerator(Root(j, k))
                out.append(Relation(PictureWord((x_ij, x_jk)),
                                    PictureWord((x_jk, x_ik, x_ij)),
                                    "hexagon"))
    return out


def relation_holds_on(m: ExtendedExchangeMatrix,
                      rel: Relation) -> RelationVerdict:
    """Evaluate both sides of a relation on a state.

    Sides that are equal in the group act equally only up to a relabeling
    of mutable vertices, so defined results are compared modulo a row
    permutation.
    """
    results = []
    for side in (rel.lhs, rel.rhs):
        try:
            results.append(act_word(m, side))
        except ValueError:
            results.append(None)
    left, right = results
    if left is None and right is None:
        return RelationVerdict.BOTH_UNDEFINED
    if left is None or right is None:
        return RelationVerdict.ONE_UNDEFINED
    if left == right or find_row_permutation(left, right) is not None:
        return RelationVerdict.AGREE_TRUE
    return RelationVerdict.DISAGREE
