"""Closed-form permutation attached to a mutation word, and its check.

Each generator x_ij contributes the transposition (i+1 j), independent of
sign.  For a word w = g_1 g_2 ... g_N (application order) acting on a state
whose c-matrix factors as sigma times a standard matrix, the predicted
relabeling of mutable vertices is

    sigma o t_1 o t_2 o ... o t_N o sigma^{-1}

A walk follows sigma step by step, sigma <- sigma o (i+1 j), because each
such step keeps the c-matrix standard (``check_preservation``); after a
sequence it holds sigma o t_1 o ... o t_N.  Composing on the right with
(i+1 j) swaps sigma's images of i+1 and j, so ``_advance`` folds sigma over
the generators a walk spells with one swap each, and ``transposition_of``
is that fold applied to the identity: the rule is written once.  The
states and generators come from plain ``mutate``, through ``picture.step``
for ``TrackedState`` and through the thread's ``search.ExchangeWalk`` for
``verify``, so the formula decides only the tracked sigma, never which
state comes next.
``formula_permutation`` is the closed form above, the reference the
tracked prediction is tested against.  Every sequence is compared with one
independent observation: the permutation part of the endpoint's c-matrix,
factored from scratch, times the inverse of the start's.  On a loop this
is the row permutation from the start to the endpoint, and on a reddening
sequence from the framed start the row permutation from the coframe.  The
observation is a function of the endpoint's state alone, never of the
tracked sigma or of the path that reached it.
No other module knows the transpositions, so no other one predicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

from .perm import Permutation, _trusted
from .picture import PictureWord, act, step
from .quiver import ExtendedExchangeMatrix, permute_rows
from .roots import SignedGenerator
from .search import _walk_for
from .standard import factor_standard, is_standard


def _advance(images: tuple[int, ...],
             factors: Sequence[SignedGenerator]) -> tuple[int, ...]:
    """sigma's images composed, in order, with the transposition (i+1 j) of
    each generator of root (i, j), by swapping the images at 0-based
    positions i and j - 1: the formula's half of every walk, whose other
    half is ``picture.step``."""
    out = list(images)
    for g in factors:
        i, j = g.root.i, g.root.j - 1
        out[i], out[j] = out[j], out[i]
    return tuple(out)


def transposition_of(g: SignedGenerator, n: int) -> Permutation:
    """(i+1 j) for the generator of root (i, j); identity for simple roots.
    Raises ``ValueError`` when the root lies beyond n."""
    if g.root.j > n:
        raise ValueError(f"root {g.root} out of range for n={n}")
    return _trusted(_advance(tuple(range(1, n + 1)), (g,)))


def check_preservation(state: ExtendedExchangeMatrix, g) -> bool:
    """Apply generator ``g`` and then the transposition (i+1, j) to a state
    with standard c-matrix; report whether the result is again standard.

    Raises ``ValueError`` when ``g`` is not allowed on the state or the
    state's c-matrix is not standard.
    """
    if not is_standard(state.c):
        raise ValueError("state's c-matrix is not standard")
    acted = act(state, g)
    return is_standard(permute_rows(acted, transposition_of(g, state.n)).c)


def formula_permutation(w: PictureWord, sigma: Permutation) -> Permutation:
    acc = sigma
    for g in w.factors:
        acc = acc * transposition_of(g, sigma.n)
    return acc * sigma.inverse()


def _factored_sigma(m: ExtendedExchangeMatrix) -> Permutation:
    """The permutation part of ``m``'s c-matrix, factored from scratch."""
    fact = factor_standard(m.c)
    if fact is None:
        raise ValueError("c-matrix does not factor through a standard matrix")
    return fact.rho


@dataclass(frozen=True)
class TrackedState:
    """A state together with the permutation part of its c-matrix and the
    generators applied so far (``factors``, in application order).

    The invariant ``factor_standard(state.c).rho == sigma`` holds after
    every step; stepping maintains it incrementally instead of refactoring.
    """

    state: ExtendedExchangeMatrix
    sigma: Permutation
    factors: tuple[SignedGenerator, ...] = ()

    @classmethod
    def from_state(cls, m: ExtendedExchangeMatrix) -> "TrackedState":
        return cls(m, _factored_sigma(m))

    def step_vertex(self, k: int) -> "TrackedState":
        return self.run((k,))

    def run(self, seq: Sequence[int]) -> "TrackedState":
        state = self.state
        steps = []
        for k in seq:
            g, state = step(state, k)
            steps.append(g)
        sigma = _trusted(_advance(self.sigma.images, steps))
        return TrackedState(state, sigma, self.factors + tuple(steps))


class Verdict(Enum):
    MATCH = "match"
    MISMATCH = "mismatch"


class FormulaReport(NamedTuple):
    """One sequence's check.  A named tuple, not a dataclass, since
    ``verify`` builds one per call; JSON goes through ``to_json`` only."""

    word: PictureWord
    sigma: Permutation
    formula_perm: Permutation
    observed_perm: Permutation
    verdict: Verdict

    def to_json(self) -> dict:
        return {
            "word": self.word.to_json(),
            "sigma": self.sigma.cycle_string(),
            "formula": self.formula_perm.cycle_string(),
            "observed": self.observed_perm.cycle_string(),
            "verdict": self.verdict.value,
        }


def verify(m: ExtendedExchangeMatrix, seq: Sequence[int],
           corrupt: bool = False) -> FormulaReport:
    """Predict the permutation of one sequence and compare it.

    The sequence is walked on this thread's ``search.ExchangeWalk`` from
    the node ``m`` is rooted at (``search._walk_for``).  The walk is kept
    while this thread's calls here and to ``enumerate_loops`` are given
    starts equal to states on it, and the caller holds the start of the
    call before, so that calls checking many sequences from one start, or
    from many starts of one component, mutate each distinct
    (state, vertex) step once, and none at all after ``enumerate_loops``
    listed them, and factor each distinct endpoint once per start; any
    other start gets a fresh walk.  Each root's sigma, its inverse and,
    for each node a sequence from it ended at, the endpoint's sigma's
    images and the observation are kept in the walk's ``_memo``, so they
    go with it.  The prediction is folded afresh on every call and never
    stored: ``_advance`` swaps two of the start's sigma's images for each
    generator the walk spells.  The formula says that this fold is the
    endpoint's sigma, the permutation part of its c-matrix from
    ``factor_standard`` the first time a sequence from this root ends at
    that node, so the two image tuples are compared directly.  The
    observation is the endpoint's sigma times the inverse of the
    start's, and the prediction is the fold times that inverse; since
    composing with it on the right is injective, the two agree exactly
    when the tuples do.  On a match the report's ``formula_perm`` is the
    observation, the one object the memo holds, so only a mismatch
    builds a ``Permutation`` for the prediction.
    Raises ``IndexError`` for a vertex out of range and ``ValueError`` when
    a step spells no signed root or the starting or ending c-matrix does
    not factor through a standard matrix.

    ``corrupt`` multiplies the prediction by (1 2), as a negative control:
    every comparison then has to mismatch.
    """
    walk, root = _walk_for(m)
    memo = walk._memo.get(root)
    if memo is None:
        sigma = _factored_sigma(m)
        memo = walk._memo[root] = sigma, sigma.inverse(), {}
    sigma, inverse, ends = memo
    factors, node = walk.run(seq, root)
    end = ends.get(node)
    if end is None:
        ended = _factored_sigma(walk.states[node])
        end = ends[node] = ended.images, ended * inverse
    ended, observed = end
    fold = _advance(sigma.images, factors)
    if corrupt:
        # the prediction times (1 2), composed back with sigma on the right
        # so that it compares with the endpoint's sigma as an honest fold
        fold = (_trusted(fold) * inverse * Permutation.transposition(m.n, 1, 2)
                * sigma).images
    if fold == ended:
        predicted, verdict = observed, Verdict.MATCH
    else:
        predicted, verdict = _trusted(fold) * inverse, Verdict.MISMATCH
    return FormulaReport(PictureWord(tuple(factors)), sigma, predicted,
                         observed, verdict)
