"""Permutations of {1..n} as immutable value objects.

The row-action convention used throughout the package: ``sigma`` acting on a
matrix ``M`` produces the matrix whose ``i``-th row is row ``sigma^{-1}(i)``
of ``M``.  Equivalently, row ``r`` of ``M`` lands at position ``sigma(r)``.
Composition is function composition: ``(p * q)(x) == p(q(x))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True, slots=True, weakref_slot=True)
class Permutation:
    """A bijection of {1..n}, stored as the tuple of images of 1..n.

    Slotted, with no ``__dict__``, like ``quiver.ExtendedExchangeMatrix``;
    the dataclass's own ``__getstate__`` and ``__setstate__`` pickle and
    copy it without running ``__post_init__``.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        images = self.images
        if type(images) is not tuple or not all(
                type(x) is int for x in images):
            raise ValueError(f"images must be a tuple of ints: {images!r}")
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images}")

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> Permutation:
        """The identity of S_n.  A size that is not a nonnegative ``int``
        raises ``ValueError``."""
        if type(n) is not int or n < 0:
            raise ValueError(f"size {n!r} is not a nonnegative int")
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> Permutation:
        """The transposition (a b) in S_n; the identity when a == b."""
        return cls.from_cycles(n, [(a, b)])

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> Permutation:
        """The permutation with the given disjoint ``cycles``.  A point
        that is not an ``int`` in 1..n raises ``ValueError``, as do cycles
        that overlap so that no permutation results."""
        images = list(range(1, n + 1))
        for cycle in cycles:
            cyc = list(cycle)
            if not all(type(x) is int and 1 <= x <= n for x in cyc):
                raise ValueError(f"cycle {cyc!r} has a point that is not an "
                                 f"int in 1..{n}")
            for src, dst in zip(cyc, cyc[1:] + cyc[:1]):
                images[src - 1] = dst
        return cls(tuple(images))

    def __call__(self, x: int) -> int:
        """The image of ``x``.  A point that is not an ``int`` raises
        ``ValueError``, and an ``int`` outside 1..n raises ``IndexError``."""
        if type(x) is not int:
            raise ValueError(f"point {x!r} is not an int")
        if not 1 <= x <= self.n:
            raise IndexError(f"point {x} out of range for a permutation of 1..{self.n}")
        return self.images[x - 1]

    def inverse(self) -> Permutation:
        images = [0] * self.n
        for x, y in enumerate(self.images, start=1):
            images[y - 1] = x
        return _trusted(tuple(images))

    def __mul__(self, other: Permutation) -> Permutation:
        """Function composition: apply ``other`` first, then ``self``."""
        mine = self.images
        if len(mine) != len(other.images):
            raise ValueError("cannot compose permutations of different sizes")
        return _trusted(tuple([mine[y - 1] for y in other.images]))

    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self.images, start=1))

    def apply_to_rows(self, rows: Sequence) -> tuple:
        """Send row ``r`` of ``rows`` to position ``self(r)`` (1-based)."""
        images = self.images
        if len(rows) != len(images):
            raise ValueError("row count does not match permutation size")
        out = [None] * len(images)
        for row, target in zip(rows, images):
            out[target - 1] = row
        return tuple(out)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its smallest element."""
        images = self.images
        seen = [False] * (len(images) + 1)
        out = []
        for start, x in enumerate(images, start=1):
            if seen[start] or x == start:
                continue
            cycle = [start]
            while x != start:
                cycle.append(x)
                seen[x] = True
                x = images[x - 1]
            out.append(tuple(cycle))
        return tuple(out)

    def cycle_string(self) -> str:
        """Cycle notation, e.g. ``(12)`` or ``(123)(45)``; identity is ``id``."""
        cycles = self.cycles()
        if not cycles:
            return "id"
        sep = " " if self.n > 9 else ""
        return "".join("(" + sep.join(map(str, c)) + ")" for c in cycles)

    def __str__(self) -> str:
        return self.cycle_string()


_set_images = Permutation.images.__set__


def _trusted(images: tuple[int, ...]) -> Permutation:
    """A ``Permutation`` built without validation, for images that are a
    permutation by construction.  ``images`` is set through its slot
    descriptor, which the frozen dataclass's ``__setattr__`` does not
    guard."""
    p = object.__new__(Permutation)
    _set_images(p, images)
    return p
