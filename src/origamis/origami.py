"""Square-tiled surfaces as pairs of permutations, and the SL(2,Z) action.

An origami is a pair (r, u) of permutations of the squares {0..n-1}: r maps a
square to its right neighbor, u to its upper neighbor. Bottom edges are
oriented rightward, left edges upward; the lower-left corner of square g and
the commutator orbit through g define the vertex structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .errors import Inconsistent, NotTransitive
from .permutations import Perm, are_transitive, inverse_images, power_images
from .sl2z import Mat2, sl2z_word


@dataclass(frozen=True)
class Origami:
    n: int
    r: Perm
    u: Perm
    base: int = 0

    def commutator(self) -> Perm:
        """u r u^-1 r^-1 (applied right to left); its orbits are the vertices."""
        return self.u * self.r * self.u.inverse() * self.r.inverse()

    def __repr__(self) -> str:
        return f"Origami(n={self.n}, r={list(self.r.images)}, u={list(self.u.images)})"


@dataclass(frozen=True)
class VertexClass:
    cycle: tuple[int, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.cycle)

    @property
    def zero_order(self) -> int:
        return len(self.cycle) - 1


@dataclass(frozen=True)
class Stratum:
    zero_orders: tuple[int, ...]
    genus: int


def make_origami(n: int, r: Perm | Sequence[int], u: Perm | Sequence[int],
                 base: int = 0) -> Origami:
    if not isinstance(r, Perm):
        r = Perm(r)
    if not isinstance(u, Perm):
        u = Perm(u)
    if r.n != n or u.n != n:
        raise NotTransitive(f"permutation size does not match n={n}")
    if not are_transitive((r, u)):
        raise NotTransitive("the surface is disconnected: <r, u> is not transitive")
    return Origami(n, r, u, base)


def vertex_classes(origami: Origami) -> list[VertexClass]:
    """Orbits of the commutator, each listed from its least square."""
    return [VertexClass(cyc) for cyc in origami.commutator().cycles()]


def vertex_of_square(origami: Origami) -> list[int]:
    """square -> index of the vertex class of its lower-left corner."""
    classes = vertex_classes(origami)
    owner = [0] * origami.n
    for k, v in enumerate(classes):
        for g in v.cycle:
            owner[g] = k
    return owner


def stratum_and_genus(origami: Origami) -> Stratum:
    orders = sorted((v.zero_order for v in vertex_classes(origami)), reverse=True)
    total = sum(orders)
    if total % 2:
        raise Inconsistent("zero orders of odd total")
    genus = total // 2 + 1
    return Stratum(tuple(o for o in orders if o > 0), genus)


def automorphisms(origami: Origami) -> list[Perm]:
    """Translation automorphisms: permutations commuting with r and u."""
    return isomorphisms(origami, origami)


def isomorphisms(o1: Origami, o2: Origami) -> list[Perm]:
    """All relabelings phi with phi r1 = r2 phi and phi u1 = u2 phi."""
    if o1.n != o2.n:
        return []
    n = o1.n
    pairs = [(p1.images, p2.images) for p1, p2 in ((o1.r, o2.r), (o1.u, o2.u))]
    pairs += [(inverse_images(g1), inverse_images(g2)) for g1, g2 in pairs]
    found = []
    for image0 in range(n):
        images = [-1] * n
        images[0] = image0
        stack = [0]
        ok = True
        while stack and ok:
            x = stack.pop()
            for g1, g2 in pairs:
                y, fy = g1[x], g2[images[x]]
                if images[y] == -1:
                    images[y] = fy
                    stack.append(y)
                elif images[y] != fy:
                    ok = False
                    break
        if ok and all(v >= 0 for v in images) and len(set(images)) == n:
            found.append(Perm(images))
    return sorted(found, key=lambda p: p.images)


def act_on_images(letter: str, r: Sequence[int], u: Sequence[int], k: int = 1
                  ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Action of the run letter^k on image tuples: T^k.(r,u) = (r, u r^-k),
    S^k.(r,u) = (r u^-k, u), and T-, S- the inverse letters.

    Composition applies the right factor first; square labels are preserved.
    """
    if letter in ("T", "T-"):
        step = power_images(r, k if letter == "T-" else -k)
        return tuple(r), tuple(u[x] for x in step)
    if letter in ("S", "S-"):
        step = power_images(u, k if letter == "S-" else -k)
        return tuple(r[x] for x in step), tuple(u)
    raise ValueError(f"unknown letter {letter!r}")


def sl2z_act(letter: str, origami: Origami, k: int = 1) -> Origami:
    """``act_on_images`` on an origami, with both images validated as Perms."""
    images = act_on_images(letter, origami.r.images, origami.u.images, k)
    return Origami(origami.n, *map(Perm, images), origami.base)


def act_by_letters(letters: Iterable[str], origami: Origami) -> Origami:
    """Apply a word; the rightmost letter acts first."""
    out = origami
    for letter in reversed(tuple(letters)):
        out = sl2z_act(letter, out)
    return out


def _cycle_lengths(images: Sequence[int]) -> list[int]:
    """square -> length of its cycle under the permutation ``images``."""
    lengths = [0] * len(images)
    for start in range(len(images)):
        if not lengths[start]:
            cycle = [start]
            x = images[start]
            while x != start:
                cycle.append(x)
                x = images[x]
            size = len(cycle)
            for x in cycle:
                lengths[x] = size
    return lengths


def canonical_pair(origami: Origami) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Hashable isomorphism key of the pair: ``canonical_images`` of its images."""
    return canonical_images(origami.r.images, origami.u.images)


def canonical_images(r: Sequence[int], u: Sequence[int]
                     ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The least (r, u) image tuples over the BFS relabelings (r, u, r^-1, u^-1
    of each square in turn) from the squares of least (r-cycle length, u-cycle
    length). An isomorphism carries these starts of one pair onto those of the
    other, so two pairs get the same key exactly when they are isomorphic. A
    start is dropped as soon as its r-images exceed the best ones so far.
    """
    n = len(r)
    r_inv, u_inv = inverse_images(r), inverse_images(u)
    lengths = list(zip(_cycle_lengths(r), _cycle_lengths(u)))
    least = min(lengths)
    best_r = best_u = None
    for start in range(n):
        if lengths[start] != least:
            continue
        label = [-1] * n
        label[start] = 0
        order = [start]
        r_new = []
        smaller = best_r is None
        for k, x in enumerate(order):  # BFS: `order` grows while it is read
            for y in (r[x], u[x], r_inv[x], u_inv[x]):
                if label[y] < 0:
                    label[y] = len(order)
                    order.append(y)
            image = label[r[x]]
            if not smaller:
                if image > best_r[k]:
                    break
                smaller = image < best_r[k]
            r_new.append(image)
        else:
            u_new = tuple(label[u[x]] for x in order)
            if smaller or u_new < best_u:
                best_r, best_u = tuple(r_new), u_new
    return best_r, best_u


@dataclass
class VeechGroup:
    """Orbit of an origami under S, T with membership by word-following."""

    origami: Origami
    orbit: list[Origami] = field(default_factory=list)
    edges: dict[tuple[int, str], int] = field(default_factory=dict)

    @property
    def index(self) -> int:
        return len(self.orbit)

    @cached_property
    def _steps(self) -> dict[tuple[int, str], int]:
        """``edges`` and their preimages under S- and T-, read on first use."""
        steps = {(dst, letter + "-"): src for (src, letter), dst in self.edges.items()}
        if len(steps) != len(self.edges):
            raise Inconsistent("orbit graph is not a permutation graph")
        return steps | self.edges

    def contains(self, m: Mat2) -> bool:
        word = sl2z_word(m).exact_letters()
        node = 0
        for letter in reversed(word):
            node = self._steps[(node, letter)]
        return node == 0


def veech_group(origami: Origami) -> VeechGroup:
    """BFS over the S, T orbit on image tuples, numbering nodes as found."""
    group = VeechGroup(origami, [origami])
    node_of_key = {canonical_pair(origami): 0}
    pairs = [(origami.r.images, origami.u.images)]
    for node, (r, u) in enumerate(pairs):  # BFS: `pairs` grows while it is read
        for letter in ("S", "T"):
            image = act_on_images(letter, r, u)
            target = node_of_key.setdefault(canonical_images(*image), len(pairs))
            if target == len(pairs):
                pairs.append(image)
                group.orbit.append(Origami(origami.n, *map(Perm, image), origami.base))
            group.edges[(node, letter)] = target
    return group
