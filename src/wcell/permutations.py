"""Elements of the symmetric group S_n in the left-operator convention.

A permutation is stored by its one-line images (w1, ..., wn), all values in
[1, n].  Composition acts on the left: (x * y)(i) = x(y(i)), and the simple
generator s_i is the transposition of the values i and i+1, so s_i * w swaps
those two values wherever they occur in the image sequence.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple


class _PermutationFields(NamedTuple):
    images: tuple[int, ...]


class Permutation(_PermutationFields):
    """A NamedTuple of exactly its one-line images, checked in ``__new__``."""

    __slots__ = ()

    def __new__(cls, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of [1,{len(images)}]: {images}")
        return tuple.__new__(cls, (images,))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __repr__(self):
        return "Permutation(%s)" % (",".join(map(str, self.images)))

    def __mul__(self, other: "Permutation") -> "Permutation":
        return multiply(self, other)

    def text(self) -> str:
        return ",".join(map(str, self.images))

    @staticmethod
    def from_text(s: str) -> "Permutation":
        return Permutation(int(part) for part in s.split(","))


def multiply(x: Permutation, y: Permutation) -> Permutation:
    """The composite x∘y, acting on the left: i -> x(y(i))."""
    if x.n != y.n:
        raise ValueError("size mismatch")
    xi = x.images
    return Permutation(xi[v - 1] for v in y.images)


def inverse(w: Permutation) -> Permutation:
    inv = [0] * w.n
    for i, v in enumerate(w.images, start=1):
        inv[v - 1] = i
    return Permutation(inv)


def apply_s_images(i: int, images: tuple) -> tuple:
    """s_i * w on the one-line images of w, for 1 <= i < len(images),
    unchecked: the values i and i+1 swap places."""
    out = list(images)
    a, b = images.index(i), images.index(i + 1)
    out[a], out[b] = i + 1, i
    return tuple(out)


def inversions(images) -> int:
    """The number of pairs of positions whose values are out of order."""
    return sum(1 for a, b in combinations(images, 2) if a > b)


def left_descents_images(images: tuple) -> frozenset[int]:
    """The left descents of w from its one-line images: the i with
    l(s_i w) < l(w), where the value i appears after i+1."""
    pos = {v: p for p, v in enumerate(images)}
    return frozenset(i for i in range(1, len(images)) if pos[i] > pos[i + 1])
