"""Square-tiled surfaces as pairs of permutations, and the SL(2,Z) action.

An origami is a pair (r, u) of permutations of the squares {0..n-1}: r maps a
square to its right neighbor, u to its upper neighbor. Bottom edges are
oriented rightward, left edges upward; the lower-left corner of square g and
the commutator orbit through g define the vertex structure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import Inconsistent, NotTransitive
from .permutations import Perm, are_transitive
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
    pairs = [(o1.r, o2.r), (o1.u, o2.u),
             (o1.r.inverse(), o2.r.inverse()), (o1.u.inverse(), o2.u.inverse())]
    found = []
    for image0 in range(n):
        images = [-1] * n
        images[0] = image0
        stack = [0]
        ok = True
        while stack and ok:
            x = stack.pop()
            for g1, g2 in pairs:
                y, fy = g1.images[x], g2.images[images[x]]
                if images[y] == -1:
                    images[y] = fy
                    stack.append(y)
                elif images[y] != fy:
                    ok = False
                    break
        if ok and all(v >= 0 for v in images) and len(set(images)) == n:
            found.append(Perm(images))
    return sorted(found, key=lambda p: p.images)


def sl2z_act(letter: str, origami: Origami) -> Origami:
    """One-letter action on the pair: T.(r,u) = (r, u r^-1), S.(r,u) = (r u^-1, u).

    Composition applies the right factor first; square labels are preserved.
    """
    r, u = origami.r, origami.u
    if letter == "T":
        pair = (r, u * r.inverse())
    elif letter == "T-":
        pair = (r, u * r)
    elif letter == "S":
        pair = (r * u.inverse(), u)
    elif letter == "S-":
        pair = (r * u, u)
    else:
        raise ValueError(f"unknown letter {letter!r}")
    return Origami(origami.n, pair[0], pair[1], origami.base)


def act_by_letters(letters: Iterable[str], origami: Origami) -> Origami:
    """Apply a word; the rightmost letter acts first."""
    out = origami
    for letter in reversed(tuple(letters)):
        out = sl2z_act(letter, out)
    return out


def canonical_pair(origami: Origami) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Minimal (r, u) image tuples over all BFS relabelings; hashable orbit key."""
    n = origami.n
    gens = [origami.r, origami.u, origami.r.inverse(), origami.u.inverse()]
    best = None
    for start in range(n):
        new_label = [-1] * n
        new_label[start] = 0
        order = [start]
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for g in gens:
                y = g.images[x]
                if new_label[y] == -1:
                    new_label[y] = len(order)
                    order.append(y)
                    queue.append(y)
        r_new = tuple(new_label[origami.r.images[order[k]]] for k in range(n))
        u_new = tuple(new_label[origami.u.images[order[k]]] for k in range(n))
        if best is None or (r_new, u_new) < best:
            best = (r_new, u_new)
    return best


@dataclass
class VeechGroup:
    """Orbit of an origami under S, T with membership by word-following."""

    origami: Origami
    orbit: list[Origami] = field(default_factory=list)
    edges: dict[tuple[int, str], int] = field(default_factory=dict)
    _node_of_key: dict = field(default_factory=dict, repr=False)

    @property
    def index(self) -> int:
        return len(self.orbit)

    def _step(self, node: int, letter: str) -> int:
        if letter in ("S", "T"):
            return self.edges[(node, letter)]
        fwd = "S" if letter == "S-" else "T"
        for src in range(len(self.orbit)):
            if self.edges[(src, fwd)] == node:
                return src
        raise Inconsistent("orbit graph is not a permutation graph")

    def contains(self, m: Mat2) -> bool:
        word = sl2z_word(m).exact_letters()
        node = 0
        for letter in reversed(word):
            node = self._step(node, letter)
        return node == 0


def veech_group(origami: Origami) -> VeechGroup:
    group = VeechGroup(origami)
    key0 = canonical_pair(origami)
    group._node_of_key[key0] = 0
    group.orbit.append(origami)
    queue = deque([0])
    while queue:
        node = queue.popleft()
        for letter in ("S", "T"):
            image = sl2z_act(letter, group.orbit[node])
            key = canonical_pair(image)
            if key not in group._node_of_key:
                group._node_of_key[key] = len(group.orbit)
                group.orbit.append(image)
                queue.append(len(group.orbit) - 1)
            group.edges[(node, letter)] = group._node_of_key[key]
    return group
