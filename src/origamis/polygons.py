"""Square-tiled surfaces from lattice polygons with translated opposite sides.

The polygon is cut along the integer grid; unit cells reassemble into the
squares of the quotient surface. Each surface square is pinned down by the
unique point congruent to OFFSET mod Z^2 that it contains, and the right/up
permutations are found by tracing unit rays through the side identifications.
OFFSET is the first candidate o with b o_x - a o_y not an integer for the
primitive vector (a, b) of every side, which puts no point of o + Z^2 on the
boundary (the proof is on `_choose_offset`). No candidate has an integer
coordinate, and the side translations are integral, so a horizontal ray runs
at a height and a vertical one at an abscissa that no vertex has: a ray
never meets a vertex.

All of it is integer arithmetic. The point tests and the rays run on the
lattice scaled by D = G * L, with G = lcm(2, the offset candidates'
denominators) = 924 and L the lcm of the nonzero side components: there the
vertices, the offset points and the half-step midpoints are integers. So is
every ray hit. A horizontal ray from p meets the side a + s e at
t = (a_x - p_x) - (a_y - p_y) e_x / e_y. Its height p_y is an offset point's
height plus side translations, so a_y - p_y is D times a number of
denominator dividing G, a multiple of L, and e_y divides L; the vertical
case is symmetric. An inexact division there raises Inconsistent. The
polygon's own vertices, sides and translations stay unscaled.
"""

from __future__ import annotations

from collections import deque
from math import gcd, lcm
from typing import Sequence

from .errors import Inconsistent, NotSimple, UnpairedSides
from .homology import EdgeChain
from .origami import Origami, make_origami
from .permutations import Perm

Point = tuple[int, int]

# the offsets tried in turn, each coordinate as (numerator, denominator)
_OFFSET_CANDIDATES = (((1, 2), (1, 4)), ((1, 2), (1, 3)),
                      ((3, 7), (2, 7)), ((5, 11), (3, 11)))
_GRID = lcm(2, *(den for off in _OFFSET_CANDIDATES for _, den in off))


def _pt(p) -> Point:
    x, y = p[0], p[1]
    if x != int(x) or y != int(y):
        raise NotSimple("vertex is not a lattice point")
    return (int(x), int(y))


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


class PolygonSurface:
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
        self.scale = _GRID * lcm(*(abs(c) for a, b in self.sides
                                   for c in (b[0] - a[0], b[1] - a[1]) if c))
        self._scaled_sides = [(self._scaled(a), self._scaled(b)) for a, b in self.sides]
        self._scaled_translation = {i: self._scaled(t)
                                    for i, t in self.translation.items()}
        self.offset = self._choose_offset()
        self._build_squares()
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
        """Each side's partner, and the translation that glues it there.

        Sides of vector v glue to the sides of vector -v, of which there
        must be as many: by the centrally symmetric matching when there is
        one (all doubled-midpoint sums equal), else each group's sides
        paired in index order. Summed over the pairs, the common sum is
        S = 2 sum(a + b) / #sides, which fixes each side's partner, so
        there is at most one central matching; both sides of
        S = mid_i + mid_j are scaled by #sides, so nothing is divided.

        Every such matching closes up to a translation surface, so none is
        tested. Corner k, at vertex k, turns from the direction of side k
        to that of side k - 1 reversed, and crossing side k leads to corner
        j + 1 of its partner j, where side j reversed has the direction of
        side k: the gluings are translations, with trivial linear holonomy.
        So round each cycle of corners the directions telescope, and the
        corner angles sum to a positive multiple of 2 pi.
        """
        groups: dict[Point, list[int]] = {}
        for i, (a, b) in enumerate(self.sides):
            groups.setdefault((b[0] - a[0], b[1] - a[1]), []).append(i)
        group_pairs = []
        for v, members in sorted(groups.items()):
            minus = (-v[0], -v[1])
            if len(groups.get(minus, ())) != len(members):
                raise UnpairedSides(f"no opposite partner group for side vector {v}")
            if v < minus:
                group_pairs.append((members, groups[minus]))
        n = self.n_sides
        mids = [(a[0] + b[0], a[1] + b[1]) for a, b in self.sides]
        side_at = {(n * x, n * y): i for i, (x, y) in enumerate(mids)}
        s_x, s_y = (2 * sum(m[k] for m in mids) for k in range(2))
        mates = [[side_at.get((s_x - n * mids[i][0], s_y - n * mids[i][1]))
                  for i in members] for members, _ in group_pairs]
        if not all(j in others for (_, others), js in zip(group_pairs, mates)
                   for j in js):
            mates = [others for _, others in group_pairs]
        partner = {}
        for (members, _), js in zip(group_pairs, mates):
            for i, j in zip(members, js):
                partner[i], partner[j] = j, i
        translation = {}
        for i, j in partner.items():
            # side i = (A, B) glues to side j = (C, D) by A -> D
            translation[i] = tuple(self.sides[j][1][k] - self.sides[i][0][k]
                                   for k in range(2))
        return partner, translation

    # -- point location, on the lattice scaled by D -------------------------------

    def _scaled(self, p) -> Point:
        return (p[0] * self.scale, p[1] * self.scale)

    def on_boundary(self, p: Point) -> bool:
        return any(_on_segment(p, a, b) for a, b in self._scaled_sides)

    def interior(self, p: Point) -> bool:
        """Whether p, a point off the boundary, is inside: an odd number of
        sides cross the ray to its right."""
        crossings = 0
        py = p[1]
        for a, b in self._scaled_sides:
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
        """The first offset candidate o with no point of o + Z^2 on the
        boundary, scaled by D.

        A side runs from a lattice point to it plus g (a, b), with (a, b)
        primitive, so mod Z^2 it covers a whole period of the closed curve
        t (a, b), which is {x : b x_1 - a x_2 in Z}: a lattice vector m
        makes b m_1 - a m_2 any integer. So o + Z^2 meets the side if and
        only if b o_x - a o_y is an integer, that is, on the scaled lattice,
        if g D divides e_y o_x - e_x o_y for the side vector e = g (a, b).
        """
        d = self.scale
        vectors = [(b[0] - a[0], b[1] - a[1]) for a, b in self.sides]
        for (nx, dx), (ny, dy) in _OFFSET_CANDIDATES:
            ox, oy = d // dx * nx, d // dy * ny
            if all((ey * ox - ex * oy) % (gcd(ex, ey) * d) for ex, ey in vectors):
                return (ox, oy)
        raise NotSimple("no generic offset found")

    def _at_offset(self, cell) -> Point:
        """The scaled point cell + offset."""
        return (cell[0] * self.scale + self.offset[0],
                cell[1] * self.scale + self.offset[1])

    # -- squares and neighbor permutations ---------------------------------------

    def _build_squares(self):
        xs, ys = zip(*self.vertices)
        reps = sorted((cx, cy) for cx in range(min(xs), max(xs))
                      for cy in range(min(ys), max(ys))
                      if self.interior(self._at_offset((cx, cy))))
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
        end = self._trace(self._at_offset(cell), direction)
        (kx, rx), (ky, ry) = (divmod(end[k] - self.offset[k], self.scale)
                              for k in range(2))
        if rx or ry or (kx, ky) not in self.square_of_cell:
            raise NotSimple("ray tracing left the square structure at "
                            f"{end} / {self.scale}")
        return self.square_of_cell[(kx, ky)]

    def _trace(self, pos: Point, direction) -> Point:
        """The end of the scaled unit ray from the scaled point pos along
        the unit direction, continued through the side identifications. It
        never meets a vertex (module docstring)."""
        dx, dy = direction
        remaining = self.scale
        for _ in range(10000):
            best = None
            for idx, (a, b) in enumerate(self._scaled_sides):
                ex, ey = b[0] - a[0], b[1] - a[1]
                denom = dx * ey - dy * ex
                if denom == 0:
                    continue
                rx, ry = a[0] - pos[0], a[1] - pos[1]
                t, inexact = divmod(rx * ey - ry * ex, denom)
                if inexact:
                    raise Inconsistent("a ray hit off the scaled lattice")
                if t <= 0 or t > remaining:
                    continue
                # the side parameter is s / denom, compared with 0 and 1
                s = rx * dy - ry * dx
                if denom < 0:
                    s, denom = -s, -denom
                if s <= 0 or s >= denom:
                    continue
                if best is None or t < best[0]:
                    best = (t, idx)
            if best is None:
                return (pos[0] + remaining * dx, pos[1] + remaining * dy)
            t, idx = best
            tau = self._scaled_translation[idx]
            pos = (pos[0] + t * dx + tau[0], pos[1] + t * dy + tau[1])
            remaining -= t
        raise NotSimple("ray tracing does not terminate")

    # -- grid paths ------------------------------------------------------------

    def _mini_clear(self, a: Point, b: Point) -> bool:
        """No boundary side crosses the open scaled segment (a, b)."""
        return not any(_segments_cross_properly(a, b, c, d)
                       for c, d in self._scaled_sides)

    def _candidate_cells(self, z, z1):
        """The cells that may hold the unit segment [z, z1]: z itself, then
        z translated by each side containing the segment, where a cell."""
        candidates = [z]
        for idx, (a, b) in enumerate(self.sides):
            if _on_segment(z, a, b) and _on_segment(z1, a, b):
                tau = self.translation[idx]
                candidates.append((z[0] + tau[0], z[1] + tau[1]))
        return [c for c in candidates if c in self.square_of_cell]

    def _sigma_edge_of(self, z) -> tuple[int, int] | None:
        """Square whose bottom edge is the horizontal segment [z, z+(1,0)]."""
        half = self.scale // 2
        for c in self._candidate_cells(z, (z[0] + 1, z[1])):
            x, y = self._scaled(c)
            mid = (x + half, y)
            top = (mid[0], y + self.offset[1])
            if self._mini_clear(mid, top):
                return ("s", self.square_of_cell[c])
        return None

    def _zeta_edge_of(self, z) -> tuple[int, int] | None:
        """Square whose left edge is the vertical segment [z, z+(0,1)]."""
        half = self.scale // 2
        for c in self._candidate_cells(z, (z[0], z[1] + 1)):
            x, y = self._scaled(c)
            mid = (x, y + half)
            knee = (x + self.offset[0], mid[1])
            rep = self._at_offset(c)
            if self._mini_clear(mid, knee) and self._mini_clear(knee, rep):
                return ("z", self.square_of_cell[c])
        return None

    def _usable_steps(self, z):
        """Unit grid steps from lattice point z that map to surface edges,
        memoised per point, so the memo is bounded by the lattice points.

        A step is taken when its midpoint is in the closed polygon and no
        side crosses it properly. It then ends in the closed polygon: a unit
        grid step holds no lattice point but its ends, so no vertex, and it
        can leave the closed polygon only through a proper crossing.
        """
        if z in self._steps:
            return self._steps[z]
        out = []
        for dx, dy, sign in ((1, 0, 1), (-1, 0, -1), (0, 1, 1), (0, -1, -1)):
            w = (z[0] + dx, z[1] + dy)
            lo = min(z, w)
            a = self._scaled(lo)
            b = (a[0] + abs(dx) * self.scale, a[1] + abs(dy) * self.scale)
            mid = ((a[0] + b[0]) // 2, (a[1] + b[1]) // 2)
            if not self.in_closed(mid) or not self._mini_clear(a, b):
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


def polygon_to_origami(vertices: Sequence[Sequence[int]]) -> Origami:
    """Rasterize a side-paired lattice polygon into an origami."""
    return PolygonSurface(vertices).origami
