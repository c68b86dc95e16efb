"""Closed-form permutation attached to a mutation word, and its check.

Each generator x_ij contributes the transposition (i+1 j), independent of
sign.  For a word w = g_1 g_2 ... g_N (application order) acting on a state
whose c-matrix factors as sigma times a standard matrix, the predicted
relabeling of mutable vertices is

    sigma o t_1 o t_2 o ... o t_N o sigma^{-1}

A walk follows sigma step by step, sigma <- sigma o (i+1 j), because each
such step keeps the c-matrix standard (``check_preservation``); after a
sequence it holds sigma o t_1 o ... o t_N.  ``TrackedState`` and
``PrefixWalk`` take the same step, ``_advance``.  ``verify`` takes its
prediction from a ``PrefixWalk``, which sequences checked together share:
each common prefix is mutated once, so ``verify --n 5`` mutates 11871
times for the 33805 steps of its 2981 maximal green sequences.
``formula_permutation`` is the closed form above, the reference the
tracked prediction is tested against.  The walk's states come from plain
``mutate``, so the formula decides only the tracked sigma, never which
state comes next.  Every sequence is compared with one independent
observation: the permutation part of the endpoint's c-matrix, refactored
from scratch, times the inverse of the start's.  On a loop this is the row
permutation from the start to the endpoint, and on a reddening sequence
from the framed start the row permutation from the coframe.  The
observation is read off the endpoint alone, never from the tracked sigma
or from another sequence.
No other module knows the transpositions, so no other one predicts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .perm import Permutation, _trusted
from .picture import PictureWord, act, step
from .quiver import ExtendedExchangeMatrix, permute_rows
from .roots import SignedGenerator
from .standard import factor_standard, is_standard


@functools.cache
def transposition_of(g: SignedGenerator, n: int) -> Permutation:
    """(i+1 j) for the generator of root (i, j); identity for simple roots.
    Built once per generator and rank, at most n(n+1) per rank."""
    return Permutation.transposition(n, g.root.i + 1, g.root.j)


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


def _advance(state: ExtendedExchangeMatrix, images: tuple[int, ...],
             k: int) -> tuple[ExtendedExchangeMatrix, tuple[int, ...],
                              SignedGenerator]:
    """The one step of every walk: plain ``mutate`` at ``k`` (through
    ``step``), and sigma's images composed with the transposition of the
    generator the step spells, read from ``transposition_of`` each time."""
    g, state = step(state, k)
    t = transposition_of(g, len(images)).images
    return state, tuple([images[y - 1] for y in t]), g


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
        state, images = self.state, self.sigma.images
        factors = list(self.factors)
        for k in seq:
            state, images, g = _advance(state, images, k)
            factors.append(g)
        return TrackedState(state, _trusted(images), tuple(factors))


class PrefixWalk:
    """Many sequences from one start, each common prefix walked once.

    A stack holds the start's entry and one (state, sigma images,
    generator) entry per step of the sequence walked last.  ``to(seq)``
    cuts it back to the longest common prefix of ``seq`` and that
    sequence, then steps on with ``_advance``.  Sequences given in
    depth-first order, as the enumerations list them, therefore mutate
    each distinct prefix once, and the stack never holds more states than
    the current sequence has steps, plus one.
    """

    __slots__ = ("start", "sigma", "_vertices", "_stack")

    def __init__(self, m: ExtendedExchangeMatrix):
        self.start = m
        self.sigma = _factored_sigma(m)
        self._vertices: list[int] = []
        self._stack = [(m, self.sigma.images, None)]

    def to(self, seq: Sequence[int]) -> tuple[
            ExtendedExchangeMatrix, tuple[int, ...],
            tuple[SignedGenerator, ...]]:
        """The endpoint of ``seq``, the images of its tracked sigma and the
        generators it spells, in application order."""
        vertices, stack = self._vertices, self._stack
        common = 0
        for old, new in zip(vertices, seq):
            if old != new:
                break
            common += 1
        del vertices[common:]
        del stack[common + 1:]
        top = stack[-1]
        for k in seq[common:]:
            top = _advance(top[0], top[1], k)
            stack.append(top)
            vertices.append(k)
        return top[0], top[1], tuple([entry[2] for entry in stack[1:]])


class Verdict(Enum):
    MATCH = "match"
    MISMATCH = "mismatch"


@dataclass(frozen=True)
class FormulaReport:
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
           corrupt: bool = False,
           walk: Optional[PrefixWalk] = None) -> FormulaReport:
    """Predict the permutation of one sequence and compare it.

    The sequence is walked on ``walk``, a ``PrefixWalk`` from ``m`` that
    callers checking many sequences share, so that each common prefix is
    mutated once; without one, a walk is made for this sequence alone.
    The prediction is the tracked sigma at the end times the inverse of
    the one at the start, which is ``formula_permutation`` of the word the
    walk spells.  The observation is independent of the prediction and of
    any other sequence: the endpoint's c-matrix is factored from scratch
    with ``factor_standard``, and its permutation part times the inverse
    of the start's is compared, never the tracked sigma.  Raises
    ``ValueError`` when the walk was started at a state other than ``m``,
    or when the starting or the ending c-matrix does not factor through a
    standard matrix.

    ``corrupt`` multiplies the prediction by (1 2), as a negative control:
    every comparison then has to mismatch.
    """
    if walk is None:
        walk = PrefixWalk(m)
    elif walk.start != m:
        raise ValueError("the walk was started at a different state")
    end, images, factors = walk.to(seq)
    back = walk.sigma.inverse()
    predicted = _trusted(images) * back
    if corrupt:
        predicted = predicted * Permutation.transposition(m.n, 1, 2)
    observed = _factored_sigma(end) * back
    verdict = Verdict.MATCH if predicted == observed else Verdict.MISMATCH
    return FormulaReport(PictureWord(factors), walk.sigma, predicted,
                         observed, verdict)
