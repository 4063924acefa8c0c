"""The closed-walk spin form, kept as a test reference for
`origamis.invariants.quadratic_form_value`, which reads the same value off
one pass over the chain's vertex passages.

Here an absolute integer chain is cut into closed edge walks, each walk is
realized on its own with its strands separated by traversal order, and q is
the sum over the walks of ind + 1 + self-crossings (Johnson's formula) plus
the intersection number of each pair of walks, all mod 2. A walk is a list
of edge uses (etype, square, direction), etype "s" or "z" and direction +-1;
the turning can be counted counterclockwise or clockwise at each passage,
which agree mod 2 because every cone multiplicity is odd.
"""

from __future__ import annotations

from typing import Sequence

from origamis.errors import EvenConeMultiplicity, NotAbsolute
from origamis.homology import EdgeChain, chain_space

Use = tuple[str, int, int]


def edge_endpoints(space, etype: str, g: int) -> tuple[int, int]:
    """(tail vertex class, head vertex class) of the oriented edge."""
    return space.edge_ends[g if etype == "s" else space.n + g]


def germ_positions(space) -> dict[tuple[str, str, int], tuple[int, int]]:
    """(kind, etype, square) -> (vertex class, position among its germs)."""
    return {germ: (vidx, pos) for vidx, germs in enumerate(space._germs)
            for pos, germ in enumerate(germs)}


def decompose_walks(space, v) -> list[list[Use]]:
    """Closed walks covering an integer absolute chain.

    The edge uses, |v_e| copies of (etype, g, sign v_e) each, are listed in
    sorted order; at each vertex class the i-th use arriving there is
    followed by the i-th use departing from it, and the walks are the cycles
    of that successor map, each started at its least use.
    """
    n = space.n
    if any(x.denominator != 1 for x in v):
        raise ValueError("integer chain required")
    if any(x != 0 for x in space.boundary_vec(v)):
        raise NotAbsolute("chain has nonzero boundary")
    uses = [("s" if j < n else "z", j % n, 1 if x > 0 else -1)
            for j, x in enumerate(v) for _ in range(abs(int(x)))]
    arrivals: dict[int, list[int]] = {}
    departures: dict[int, list[int]] = {}
    for k, (etype, g, direction) in enumerate(uses):
        tail, head = edge_endpoints(space, etype, g)[::direction]
        departures.setdefault(tail, []).append(k)
        arrivals.setdefault(head, []).append(k)
    successor = {}
    for vertex, ks in arrivals.items():
        successor.update(zip(ks, departures[vertex]))
    walks = []
    for start in range(len(uses)):
        walk, k = [], start
        while k in successor:
            walk.append(uses[k])
            k = successor.pop(k)
        if walk:
            walks.append(walk)
    return walks


def walk_chain(n: int, walk: Sequence[Use]) -> EdgeChain:
    """The chain a walk traverses."""
    flat = [0] * (2 * n)
    for etype, g, direction in walk:
        flat[g if etype == "s" else n + g] += direction
    return EdgeChain.from_flat(flat)


def walk_passages(space, walk: Sequence[Use]) -> list[tuple[int, int, int]]:
    """(vertex class, arrival germ position, departure germ position) per
    visit, for a nonempty closed walk."""
    if not walk:
        raise ValueError("empty walk")
    pos = germ_positions(space)
    out = []
    for prev, nxt in zip(walk, list(walk[1:]) + list(walk[:1])):
        v1, p1 = pos["in" if prev[2] == 1 else "out", *prev[:2]]
        v2, p2 = pos["out" if nxt[2] == 1 else "in", *nxt[:2]]
        if v1 != v2:
            raise ValueError("walk is not connected through vertices")
        out.append((v1, p1, p2))
    return out


def walk_self_crossings(space, walk: Sequence[Use]) -> int:
    """Transverse self-crossings of an immersed realization of the walk.

    Parallel strands on one edge are separated by traversal order, placed
    consistently at both edge ends (reversed at incoming germs); each vertex
    passage becomes a chord on the vertex circle and crossings are
    interleaved chord pairs.
    """
    counter: dict[Use, int] = {}
    use_depth = []
    for use in walk:
        use_depth.append(counter.get(use, 0))
        counter[use] = use_depth[-1] + 1
    k = len(walk)
    chords = []
    for i, (v, p_arr, p_dep) in enumerate(walk_passages(space, walk)):
        d_prev, d_next = use_depth[i], use_depth[(i + 1) % k]
        entry = (p_arr, -d_prev if walk[i][2] == 1 else d_prev)
        exit_ = (p_dep, d_next if walk[(i + 1) % k][2] == 1 else -d_next)
        chords.append((v, entry, exit_))
    return sum(_chords_interleave(*a[1:], *b[1:])
               for i, a in enumerate(chords) for b in chords[i + 1:] if a[0] == b[0])


def _chords_interleave(a1, a2, b1, b2) -> bool:
    """Whether chords {a1,a2}, {b1,b2} cross, endpoints as cyclic sort keys."""
    points = sorted([(a1, "a"), (a2, "a"), (b1, "b"), (b2, "b")])
    if len({p for p, _ in points}) != 4:
        raise ValueError("chord endpoints collide")
    labels = [lab for _, lab in points]
    return labels in (["a", "b", "a", "b"], ["b", "a", "b", "a"])


def index_parity(space, walk: Sequence[Use], clockwise: bool = False) -> int:
    """Turning parity of a closed walk: each passage turns t - 2 quarter
    turns, t the ccw sector count from its arrival germ to its departure
    germ (or 2 - t' with t' the clockwise count), and ind is the total / 4."""
    if any(v.multiplicity % 2 == 0 for v in space.vclasses):
        raise EvenConeMultiplicity("parity needs all cone multiplicities odd")
    quarters = 0
    for v, arr, dep in walk_passages(space, walk):
        size = 4 * space.vclasses[v].multiplicity
        quarters += 2 - (arr - dep) % size if clockwise else (dep - arr) % size - 2
    if quarters % 4 != 0:
        raise ValueError("total turning is not a multiple of 2*pi")
    return (quarters // 4) % 2


def quadratic_form_value(origami, chain: EdgeChain, clockwise: bool = False) -> int:
    """q = sum over the walks of ind + 1 + self-crossings, plus <c_i, c_j>
    over each pair of walks, taken as sum_j <c_1 + ... + c_{j-1}, c_j>."""
    space = chain_space(origami)
    total = 0
    earlier = EdgeChain.zero(space.n)
    for walk in decompose_walks(space, chain.flat()):
        total += index_parity(space, walk, clockwise) + 1 + walk_self_crossings(space, walk)
        c = walk_chain(space.n, walk)
        total += space.intersection(earlier, c)
        earlier = earlier + c
    return total % 2
