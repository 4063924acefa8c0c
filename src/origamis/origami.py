"""Square-tiled surfaces as pairs of permutations, and the SL(2,Z) action.

An origami is a pair (r, u) of permutations of the squares {0..n-1}: r maps a
square to its right neighbor, u to its upper neighbor. Bottom edges are
oriented rightward, left edges upward; the lower-left corner of square g and
the commutator orbit through g define the vertex structure.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .errors import Inconsistent, NotTransitive
from .permutations import Perm, are_transitive, power_images
from .sl2z import INVERSE_LETTER, Mat2, sl2z_word


class Origami(NamedTuple):
    n: int
    r: Perm
    u: Perm
    base: int = 0

    def commutator(self) -> Perm:
        """u r u^-1 r^-1 (applied right to left); its orbits are the vertices."""
        return self.u * self.r * self.u.inverse() * self.r.inverse()

    def __repr__(self) -> str:
        return f"Origami(n={self.n}, r={list(self.r.images)}, u={list(self.u.images)})"


class VertexClass(NamedTuple):
    cycle: tuple[int, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.cycle)

    @property
    def zero_order(self) -> int:
        return len(self.cycle) - 1


class Stratum(NamedTuple):
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
    # forward edges only: <r, u> is finite, so they reach every square
    pairs = [(p1.images, p2.images) for p1, p2 in ((o1.r, o2.r), (o1.u, o2.u))]
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

    The moved permutation is written by scattering: u r^-k sends r^k(x) to
    u(x), so a single letter T or S inverts nothing. Composition applies the
    right factor first; square labels are preserved.
    """
    if letter not in INVERSE_LETTER:
        raise ValueError(f"unknown letter {letter!r}")
    fixed, moved = (r, u) if letter[0] == "T" else (u, r)
    out = [0] * len(r)
    for x, y in zip(power_images(fixed, -k if letter[-1] == "-" else k), moved):
        out[x] = y
    return (tuple(r), tuple(out)) if letter[0] == "T" else (tuple(out), tuple(u))


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
    for start, x in enumerate(images):
        if not lengths[start]:
            cycle = [start]
            while x != start:
                cycle.append(x)
                x = images[x]
            size = len(cycle)
            for x in cycle:
                lengths[x] = size
    return lengths


def canonical_pair(origami: Origami) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Hashable isomorphism key of the pair: ``canonical_images`` of its images."""
    r, u = origami.r.images, origami.u.images
    return canonical_images(r, u, _cycle_lengths(r), _cycle_lengths(u))


def canonical_images(r: Sequence[int], u: Sequence[int],
                     r_lengths: Sequence[int], u_lengths: Sequence[int]
                     ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The relabeled pair (r, u) whose interleaved images r_0, u_0, r_1, u_1,
    ... are least over the forward BFS relabelings (square k's r-image, then
    its u-image, get the next free labels) from the squares of least
    (r-cycle length, u-cycle length), read off ``r_lengths``/``u_lengths``.

    <r, u> is finite, so forward edges reach every square of a transitive
    pair; an isomorphism carries the starts and their relabelings of one pair
    onto those of the other, so two pairs get the same key exactly when they
    are isomorphic. A start is dropped at its first entry above the best so
    far. Raises ``NotTransitive`` when a BFS labels fewer than n squares.
    """
    n = len(r)
    least = min(zip(r_lengths, u_lengths))
    best = None
    for start in range(n):
        if (r_lengths[start], u_lengths[start]) != least:
            continue
        label = [-1] * n
        label[start] = 0
        order = [start]
        pairs = []
        smaller = best is None
        for x in order:  # BFS: `order` grows while it is read
            y, z = r[x], u[x]
            if label[y] < 0:
                label[y] = len(order)
                order.append(y)
            if label[z] < 0:
                label[z] = len(order)
                order.append(z)
            pair = (label[y], label[z])
            if not smaller:
                other = best[len(pairs)]
                if pair > other:
                    break
                smaller = pair < other
            pairs.append(pair)
        else:
            if len(order) < n:
                raise NotTransitive("<r, u> is not transitive")
            if smaller:
                best = pairs
    r_new, u_new = zip(*best)
    return r_new, u_new


class VeechGroup:
    """Orbit of an origami under S, T, with membership by moving along the
    S and T cycles of the edge table, one cycle walk per run of the word.

    ``images`` holds the (r, u) image tuples of the orbit's nodes; ``orbit``
    builds them into validated origamis when it is first read.
    """

    def __init__(self, origami: Origami,
                 images: list[tuple[tuple[int, ...], tuple[int, ...]]],
                 edges: dict[tuple[int, str], int]):
        self.origami = origami
        self.images = images
        self.edges = edges

    @property
    def index(self) -> int:
        return len(self.images)

    @cached_property
    def orbit(self) -> list[Origami]:
        n, base = self.origami.n, self.origami.base
        return [Origami(n, Perm(r), Perm(u), base) for r, u in self.images]

    def contains(self, m: Mat2) -> bool:
        """Each run (letter, k), rightmost first, moves k mod c steps along its
        letter's cycle of length c (backward for S-, T-) from node 0."""
        node = 0
        for letter, k in reversed(sl2z_word(m).exact_runs()):
            cycle = [node]
            step = self.edges[(node, letter[0])]
            while step != node:
                if len(cycle) == self.index:
                    raise Inconsistent("orbit graph is not a permutation graph")
                cycle.append(step)
                step = self.edges[(step, letter[0])]
            node = cycle[(-k if letter[-1] == "-" else k) % len(cycle)]
        return node == 0


# by the braid relation T S^-1 T = S^-1 T S^-1, each walk's matrix product is
# its letter's matrix, in either reading order; tried in this order
BRAID_WALKS = {"S": (("T-", "S", "T-", "S-", "T"),),
               "T": (("S", "T", "S-", "T", "S"), ("S", "T-", "S-", "T", "S-"),
                     ("S-", "T", "S-", "T-", "S"))}


def veech_group(origami: Origami) -> VeechGroup:
    """BFS over the S, T orbit on image tuples, numbering nodes as found.

    Each node carries the cycle lengths of its r and u: S keeps u and T keeps
    r, so an edge computes the lengths of one new permutation.

    An edge (v, L) is first deduced along the walks of ``BRAID_WALKS[L]``;
    only when each meets an unknown step is L.v computed and canonicalized.
    S has one walk, as v's T edge is set only after its S edge: a walk for S
    that starts with T never completes.
    A deduced edge is the searched one: SL(2,Z) acts on isomorphism classes
    (inner automorphisms of the free group relabel squares), so the class of
    L.v ends every walk from v whose matrix product is L, in whichever order
    the letters compose. Each step follows a known edge, forward or back
    (the inverse letter), and by induction every known edge is a searched
    one, so a completed walk ends at the node that the key of L.v finds. The
    numbering cannot change: a walk reaches only numbered nodes, where the
    search finds an existing key and numbers nothing, so ``edges`` and
    ``images`` are those of canonicalizing every edge.
    """
    r, u = origami.r.images, origami.u.images
    nodes = [(r, u, _cycle_lengths(r), _cycle_lengths(u))]
    node_of_key = {canonical_images(*nodes[0]): 0}
    edges = {}
    step = {letter: [-1] for letter in INVERSE_LETTER}  # -1 while unknown
    walks = {letter: [tuple(map(step.get, walk)) for walk in letter_walks]
             for letter, letter_walks in BRAID_WALKS.items()}
    for node, (r, u, r_lengths, u_lengths) in enumerate(nodes):  # BFS
        for letter in ("S", "T"):
            for walk in walks[letter]:
                target = node
                for table in walk:
                    target = table[target]
                    if target < 0:
                        break
                else:
                    break
            else:
                r_new, u_new = act_on_images(letter, r, u)
                if letter == "S":
                    new = (r_new, u_new, _cycle_lengths(r_new), u_lengths)
                else:
                    new = (r_new, u_new, r_lengths, _cycle_lengths(u_new))
                target = node_of_key.setdefault(canonical_images(*new),
                                                len(nodes))
                if target == len(nodes):
                    nodes.append(new)
                    for table in step.values():
                        table.append(-1)
            edges[(node, letter)] = target
            step[letter][node], step[letter + "-"][target] = target, node
    return VeechGroup(origami, [node[:2] for node in nodes], edges)
