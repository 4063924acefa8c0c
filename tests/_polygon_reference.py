"""The Fraction-arithmetic polygon rasterization, kept as a test reference
for `origamis.polygons`, which runs the same steps on a scaled integer
lattice: the same squares, cells, lattice-point classes and path chains must
come out of both.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from typing import Sequence

from origamis.errors import NotSimple, UnpairedSides
from origamis.homology import EdgeChain
from origamis.origami import make_origami
from origamis.permutations import Perm

Point = tuple[int | Fraction, int | Fraction]

_HALF = Fraction(1, 2)
_OFFSET_CANDIDATES = (
    (Fraction(1, 2), Fraction(1, 4)),
    (Fraction(1, 2), Fraction(1, 3)),
    (Fraction(3, 7), Fraction(2, 7)),
    (Fraction(5, 11), Fraction(3, 11)),
)


def _pt(p) -> Point:
    x, y = Fraction(p[0]), Fraction(p[1])
    if x.denominator != 1 or y.denominator != 1:
        raise NotSimple("vertex is not a lattice point")
    return (x.numerator, y.numerator)


def _cross(o: Point, a: Point, b: Point):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(p: Point, a: Point, b: Point) -> bool:
    if _cross(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def _segments_cross_properly(p: Point, q: Point, a: Point, b: Point) -> bool:
    """Transversal crossing with the intersection interior to both segments."""
    d1 = _cross(p, q, a)
    d2 = _cross(p, q, b)
    d3 = _cross(a, b, p)
    d4 = _cross(a, b, q)
    return ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0
            and (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0)


def twice_area(pts: Sequence[Sequence[int]]) -> int:
    """Twice the signed area of the polygon, by the shoelace formula."""
    return sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]))


class ReferencePolygonSurface:
    """The origami associated to a simple lattice polygon with paired sides."""

    def __init__(self, vertices: Sequence[Sequence[int]]):
        pts = [_pt(v) for v in vertices]
        if len(pts) < 3 or len(set(pts)) != len(pts):
            raise NotSimple("degenerate vertex list")
        area2 = twice_area(pts)
        if area2 < 0:
            pts = [pts[0]] + pts[:0:-1]
            area2 = -area2
        if area2 == 0 or area2 % 2 != 0:
            raise NotSimple("polygon area is not a positive integer")
        self.vertices = pts
        self.area = area2 // 2
        self.n_sides = len(pts)
        self.sides = [(pts[k], pts[(k + 1) % len(pts)]) for k in range(len(pts))]
        self._check_simple()
        self.partner, self.translation = self._match_sides()
        self.offset = self._choose_offset()
        self._build_squares()
        self._point_class = self._identify_lattice_points()
        self._steps: dict[tuple[int, int], tuple] = {}

    # -- polygon combinatorics ------------------------------------------------

    def _check_simple(self):
        n = self.n_sides
        for i in range(n):
            a, b = self.sides[i]
            for j in range(i + 1, n):
                c, d = self.sides[j]
                if _segments_cross_properly(a, b, c, d):
                    raise NotSimple("boundary sides cross")
                adjacent = j == i + 1 or (i == 0 and j == n - 1)
                if not adjacent and (_on_segment(c, a, b) or _on_segment(d, a, b)
                                     or _on_segment(a, c, d) or _on_segment(b, c, d)):
                    raise NotSimple("vertex lies on a non-adjacent side")

    def _match_sides(self):
        n = self.n_sides
        vec = [tuple(b[k] - a[k] for k in range(2)) for a, b in self.sides]
        groups: dict[tuple, list[int]] = {}
        for i, v in enumerate(vec):
            groups.setdefault(v, []).append(i)
        seen = set()
        group_pairs = []
        for v, members in sorted(groups.items()):
            if v in seen:
                continue
            minus = tuple(-x for x in v)
            if minus not in groups or len(groups[minus]) != len(members):
                raise UnpairedSides(f"no opposite partner group for side vector {v}")
            seen.add(v)
            seen.add(minus)
            group_pairs.append((members, groups[minus]))
        # enumerate matchings group by group; keep those closing up to a
        # translation surface (every corner cycle has total angle in 2*pi*Z);
        # when several close up, a centrally symmetric matching wins (all
        # midpoint sums equal), else the first in enumeration order
        options = []
        for members, others in group_pairs:
            options.append([list(zip(members, pi))
                            for pi in itertools.permutations(others)])
        valid: list[dict[int, int]] = []
        for combo in itertools.product(*options):
            partner = {}
            for pairs in combo:
                for i, j in pairs:
                    partner[i] = j
                    partner[j] = i
            if self._angles_close_up(partner):
                valid.append(partner)
        if not valid:
            raise UnpairedSides(
                "no side matching closes up to a translation surface")

        def is_central(partner: dict[int, int]) -> bool:
            sums = set()
            for i, j in partner.items():
                mid_i = tuple(self.sides[i][0][k] + self.sides[i][1][k]
                              for k in range(2))
                mid_j = tuple(self.sides[j][0][k] + self.sides[j][1][k]
                              for k in range(2))
                sums.add((mid_i[0] + mid_j[0], mid_i[1] + mid_j[1]))
            return len(sums) == 1

        partner = next((p for p in valid if is_central(p)), valid[0])
        translation = {}
        for i, j in partner.items():
            # side i = (A, B) glues to side j = (C, D) by A -> D
            translation[i] = tuple(self.sides[j][1][k] - self.sides[i][0][k]
                                   for k in range(2))
        return partner, translation

    def _angles_close_up(self, partner: dict[int, int]) -> bool:
        n = self.n_sides
        # corner k sits at vertex k between sides k-1 and k; rotating across
        # side k lands at the corner after the partner side
        corner_cycle = {k: (partner[k] + 1) % n for k in range(n)}
        seen = set()
        for start in range(n):
            if start in seen:
                continue
            prod = (1, 0)
            k = start
            while True:
                seen.add(k)
                vx = self.vertices[k][0] - self.vertices[(k - 1) % n][0]
                vy = self.vertices[k][1] - self.vertices[(k - 1) % n][1]
                wx = self.vertices[(k + 1) % n][0] - self.vertices[k][0]
                wy = self.vertices[(k + 1) % n][1] - self.vertices[k][1]
                # angle from outgoing w to reversed incoming -v: (-v) * conj(w)
                zx, zy = -vx, -vy
                cx = zx * wx + zy * wy
                cy = zy * wx - zx * wy
                prod = (prod[0] * cx - prod[1] * cy, prod[0] * cy + prod[1] * cx)
                k = corner_cycle[k]
                if k == start:
                    break
            if prod[1] != 0 or prod[0] <= 0:
                return False
        return True

    # -- point location ---------------------------------------------------------

    def _bbox_cells(self):
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        for cx in range(min(xs), max(xs)):
            for cy in range(min(ys), max(ys)):
                yield (cx, cy)

    def on_boundary(self, p: Point) -> bool:
        return any(_on_segment(p, a, b) for a, b in self.sides)

    def interior(self, p: Point) -> bool:
        if self.on_boundary(p):
            return False
        crossings = 0
        px, py = p
        for a, b in self.sides:
            if (a[1] > py) == (b[1] > py):
                continue
            # the side meets y = py right of p: the cross product's sign
            # against the side's vertical direction, with no division
            if _cross(a, b, p) * (b[1] - a[1]) > 0:
                crossings += 1
        return crossings % 2 == 1

    def in_closed(self, p: Point) -> bool:
        return self.on_boundary(p) or self.interior(p)

    def _choose_offset(self) -> Point:
        for off in _OFFSET_CANDIDATES:
            ok = True
            for cx, cy in self._bbox_cells():
                p = (cx + off[0], cy + off[1])
                if self.on_boundary(p):
                    ok = False
                    break
            if ok:
                return off
        raise NotSimple("no generic offset found")

    # -- squares and neighbor permutations ---------------------------------------

    def _build_squares(self):
        reps = []
        for cell in self._bbox_cells():
            p = (cell[0] + self.offset[0], cell[1] + self.offset[1])
            if self.interior(p):
                reps.append(cell)
        reps.sort()
        if len(reps) != self.area:
            raise NotSimple(
                f"rasterization mismatch: {len(reps)} cells vs area {self.area}")
        self.cells = reps
        self.square_of_cell = {c: k for k, c in enumerate(reps)}
        n = len(reps)
        r_images = [self._neighbor(c, (1, 0)) for c in reps]
        u_images = [self._neighbor(c, (0, 1)) for c in reps]
        self.origami = make_origami(n, Perm(r_images), Perm(u_images))

    def _neighbor(self, cell, direction) -> int:
        start = (cell[0] + self.offset[0], cell[1] + self.offset[1])
        end = self._trace(start, direction, Fraction(1))
        tgt = (end[0] - self.offset[0], end[1] - self.offset[1])
        key = (int(tgt[0]), int(tgt[1]))
        if key != tgt or key not in self.square_of_cell:
            raise NotSimple(f"ray tracing left the square structure at {end}")
        return self.square_of_cell[key]

    def _trace(self, pos: Point, direction, length: Fraction) -> Point:
        dx, dy = Fraction(direction[0]), Fraction(direction[1])
        remaining = length
        guard = 0
        while True:
            guard += 1
            if guard > 10000:
                raise NotSimple("ray tracing does not terminate")
            best = None
            for idx, (a, b) in enumerate(self.sides):
                ex, ey = b[0] - a[0], b[1] - a[1]
                denom = dx * ey - dy * ex
                if denom == 0:
                    continue
                t = ((a[0] - pos[0]) * ey - (a[1] - pos[1]) * ex) / denom
                s = ((a[0] - pos[0]) * dy - (a[1] - pos[1]) * dx) / denom
                if t <= 0 or t > remaining:
                    continue
                if s <= 0 or s >= 1:
                    if s == 0 or s == 1:
                        raise NotSimple("ray hits a polygon vertex")
                    continue
                if best is None or t < best[0]:
                    best = (t, idx)
            if best is None:
                return (pos[0] + remaining * dx, pos[1] + remaining * dy)
            t, idx = best
            hit = (pos[0] + t * dx, pos[1] + t * dy)
            tau = self.translation[idx]
            pos = (hit[0] + tau[0], hit[1] + tau[1])
            remaining -= t

    # -- lattice points and path classes ------------------------------------------

    def _identify_lattice_points(self) -> dict[tuple[int, int], int]:
        pts = []
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        for x in range(min(xs), max(xs) + 1):
            for y in range(min(ys), max(ys) + 1):
                if self.in_closed((x, y)):
                    pts.append((x, y))
        parent = {p: p for p in pts}

        def find(p):
            while parent[p] != p:
                parent[p] = parent[parent[p]]
                p = parent[p]
            return p

        def union(p, q):
            parent[find(p)] = find(q)

        for idx, (a, b) in enumerate(self.sides):
            tau = self.translation[idx]
            for p in pts:
                if _on_segment(p, a, b):
                    q = (p[0] + tau[0], p[1] + tau[1])
                    if q in parent:
                        union(p, q)
        classes: dict[tuple[int, int], int] = {}
        labels: dict[tuple[int, int], int] = {}
        for p in sorted(pts):
            root = find(p)
            if root not in labels:
                labels[root] = len(labels)
            classes[p] = labels[root]
        return classes

    def _mini_clear(self, a: Point, b: Point) -> bool:
        """No boundary side crosses the open segment (a, b)."""
        return not any(_segments_cross_properly(a, b, c, d) for c, d in self.sides)

    def _sigma_edge_of(self, z) -> tuple[int, int] | None:
        """Square whose bottom edge is the horizontal segment [z, z+(1,0)]."""
        candidates = [z]
        z1 = (z[0] + 1, z[1])
        for idx, (a, b) in enumerate(self.sides):
            if _on_segment(z, a, b) and _on_segment(z1, a, b):
                tau = self.translation[idx]
                candidates.append((z[0] + tau[0], z[1] + tau[1]))
        for c in candidates:
            if c in self.square_of_cell:
                mid = (c[0] + _HALF, c[1])
                top = (mid[0], mid[1] + self.offset[1])
                if self._mini_clear(mid, top):
                    return ("s", self.square_of_cell[c])
        return None

    def _zeta_edge_of(self, z) -> tuple[int, int] | None:
        """Square whose left edge is the vertical segment [z, z+(0,1)]."""
        candidates = [z]
        z1 = (z[0], z[1] + 1)
        for idx, (a, b) in enumerate(self.sides):
            if _on_segment(z, a, b) and _on_segment(z1, a, b):
                tau = self.translation[idx]
                candidates.append((z[0] + tau[0], z[1] + tau[1]))
        for c in candidates:
            if c in self.square_of_cell:
                mid = (c[0], c[1] + _HALF)
                knee = (mid[0] + self.offset[0], mid[1])
                rep = (mid[0] + self.offset[0], c[1] + self.offset[1])
                if self._mini_clear(mid, knee) and self._mini_clear(knee, rep):
                    return ("z", self.square_of_cell[c])
        return None

    def _usable_steps(self, z):
        """Unit grid steps from lattice point z that map to surface edges,
        memoised per point, so the memo is bounded by the lattice points."""
        if z in self._steps:
            return self._steps[z]
        out = []
        for dx, dy, sign in ((1, 0, 1), (-1, 0, -1), (0, 1, 1), (0, -1, -1)):
            w = (z[0] + dx, z[1] + dy)
            if (w[0], w[1]) not in self._point_class:
                continue
            lo = min(z, w)
            hi = (lo[0] + abs(dx), lo[1] + abs(dy))
            mid = (Fraction(lo[0] + hi[0], 2), Fraction(lo[1] + hi[1], 2))
            if not self.in_closed(mid) or not self._mini_clear(lo, hi):
                continue
            edge = self._sigma_edge_of(lo) if dy == 0 else self._zeta_edge_of(lo)
            if edge is not None:
                out.append((w, edge, sign))
        self._steps[z] = tuple(out)
        return self._steps[z]

    def path_chain(self, start, end) -> EdgeChain:
        """An edge chain representing a path between two lattice points.

        The path stays inside the closed polygon, so it is homotopic rel
        endpoints to the straight segment whenever that segment lies in the
        polygon (in particular for the boundary sides themselves).
        """
        start = (int(start[0]), int(start[1]))
        end = (int(end[0]), int(end[1]))
        n = self.origami.n
        prev: dict[tuple[int, int], tuple] = {start: None}
        queue = deque([start])
        goal = start if start == end else None
        while queue and goal is None:
            z = queue.popleft()
            for w, edge, sign in self._usable_steps(z):
                if w not in prev:
                    prev[w] = (z, edge, sign)
                    if w == end:
                        goal = w
                        break
                    queue.append(w)
        if goal is None:
            raise NotSimple(f"no grid path from {start} to {end}")
        chain = EdgeChain.zero(n)
        z = goal
        while prev[z] is not None:
            back, (etype, sq), sign = prev[z]
            chain = chain + EdgeChain.unit(n, etype, sq, sign)
            z = back
        return chain

