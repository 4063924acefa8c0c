"""Permutations of {0, ..., n-1} as immutable image tuples.

Composition is "apply right factor first" throughout: (p * q)(x) = p(q(x)).
"""

from __future__ import annotations

import random
from typing import Sequence

from .errors import NotPermutation


class Perm:
    """A permutation stored as the tuple of images of 0..n-1."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        n = len(images)
        seen = [False] * n
        for x in images:
            if type(x) is not int or not 0 <= x < n or seen[x]:
                raise NotPermutation(f"not a permutation of [0, {n}): {images!r}")
            seen[x] = True
        object.__setattr__(self, "images", images)

    def __setattr__(self, *a):
        raise AttributeError("Perm is immutable")

    @staticmethod
    def identity(n: int) -> "Perm":
        return Perm(range(n))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Perm") -> "Perm":
        # apply `other` first
        return Perm(tuple(self.images[other.images[x]] for x in range(self.n)))

    def inverse(self) -> "Perm":
        return Perm(inverse_images(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition, each cycle starting at its least element."""
        return image_cycles(self.images)

    def is_identity(self) -> bool:
        return all(self.images[x] == x for x in range(self.n))

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Perm({list(self.images)})"


def inverse_images(images: Sequence[int]) -> list[int]:
    """The images of the inverse of the permutation ``images``, unvalidated."""
    inv = [0] * len(images)
    for x, y in enumerate(images):
        inv[y] = x
    return inv


def image_cycles(images: Sequence[int]) -> list[tuple[int, ...]]:
    """The cycles of the permutation ``images``, each from its least element."""
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = images[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = images[x]
        out.append(tuple(cyc))
    return out


def power_images(images: Sequence[int], k: int) -> Sequence[int]:
    """The images of the k-th power of the permutation ``images``,
    unvalidated: ``images`` itself for k = 1, ``inverse_images`` for k = -1,
    else one pass per cycle."""
    if k == 1:
        return images
    if k == -1:
        return inverse_images(images)
    out = [0] * len(images)
    for cycle in image_cycles(images):
        c = len(cycle)
        for j, x in enumerate(cycle):
            out[x] = cycle[(j + k) % c]
    return out


def are_transitive(perms: Sequence[Perm]) -> bool:
    """Whether <perms> acts transitively: finite, so forward orbits are orbits."""
    if not perms:
        return False
    n = perms[0].n
    maps = [p.images for p in perms]
    seen = [False] * n
    seen[0] = True
    stack = [0]
    while stack:
        x = stack.pop()
        for images in maps:
            y = images[x]
            if not seen[y]:
                seen[y] = True
                stack.append(y)
    return all(seen)


def random_transitive_pair(n: int, rng: random.Random) -> tuple[Perm, Perm]:
    """A uniformly-ish random pair (r, u) generating a transitive group."""
    while True:
        r = list(range(n))
        u = list(range(n))
        rng.shuffle(r)
        rng.shuffle(u)
        pair = (Perm(r), Perm(u))
        if are_transitive(pair):
            return pair

