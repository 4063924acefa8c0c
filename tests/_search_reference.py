"""The propagation isomorphism search and the union-find cylinder rows, kept
as test references for `origamis.origami.isomorphisms`, which reads its
relabelings off the least labelings of the isomorphism key, and for
`origamis.invariants.cylinders`, which walks each cylinder up as a chain of
rows.

`isomorphisms` tries each of the n images of square 0 and propagates it along
the forward r and u edges; `cylinders` merges two rows by union-find
whenever the circle between them carries only regular vertices, then orders
each merged group from its bottom row.
"""

from __future__ import annotations

from origamis.affine import transport
from origamis.errors import Inconsistent
from origamis.homology import EdgeChain
from origamis.invariants import normalize_direction
from origamis.origami import Origami
from origamis.permutations import Perm
from origamis.sl2z import inverse_runs, sl2z_word


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


def cylinders(origami: Origami, direction: tuple[int, int]) -> tuple[tuple, ...]:
    """Each cylinder's (rows, width, height, core) in a primitive direction,
    rows in the normalized labels, with the rows merged by union-find."""
    runs = sl2z_word(normalize_direction(*direction)[1]).exact_runs()
    normalized, _ = transport(origami, runs)
    regular = [g == x for g, x in enumerate(normalized.commutator().images)]
    rows = normalized.r.cycles()
    row_of = {g: k for k, row in enumerate(rows) for g in row}
    # rows merge across a circle carrying only regular vertices
    parent = list(range(len(rows)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for k, row in enumerate(rows):
        up = row_of[normalized.u(row[0])]
        if all(regular[normalized.u(g)] for g in row):
            ra, rb = find(k), find(up)
            if ra != rb:
                parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for k in range(len(rows)):
        groups.setdefault(find(k), []).append(k)
    found = []
    for members in groups.values():
        # the bottom row has a non-regular circle below it, if any exists
        bottoms = [k for k in members if not all(regular[g] for g in rows[k])]
        bottom = min(bottoms) if bottoms else min(members)
        ordered = [bottom]
        while len(ordered) < len(members):
            nxt = row_of[normalized.u(rows[ordered[-1]][0])]
            if nxt == bottom:
                break
            ordered.append(nxt)
        width = len(rows[bottom])
        if sorted(ordered) != sorted(members) or \
                any(len(rows[k]) != width for k in members):
            raise Inconsistent("inconsistent cylinder rows")
        found.append((tuple(tuple(rows[k]) for k in ordered), width, len(members)))
    found.sort()
    # the cores are the bottom rows' sigma chains, transported back as the
    # columns of one map
    columns = [{} for _ in range(2 * origami.n)]
    for c, (cyl_rows, _, _) in enumerate(found):
        for g in cyl_rows[0]:
            columns[g] = {c: 1}
    _, cores = transport(normalized, inverse_runs(runs), columns)
    return tuple((*cyl, EdgeChain.from_flat([dict(row).get(c, 0) for row in cores]))
                 for c, cyl in enumerate(found))
