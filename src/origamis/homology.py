"""Relative homology H_1(M, Sigma', Z) of an origami, presented on the 2n edge
generators sigma_g (bottom sides, rightward) and zeta_g (left sides, upward)
modulo the square-boundary relations

    box_g = sigma_g + zeta_{r(g)} - zeta_g - sigma_{u(g)}.

Flat coordinates are (sigma_0..sigma_{n-1}, zeta_0..zeta_{n-1}). Canonical
forms are unique coset representatives obtained by zeroing the unit-pivot
columns of the relation lattice; integer chains stay integer, and the n + 1
free columns they keep are a Z-basis of H_1(M, Sigma', Z). Every subspace
cut out by the boundary (absolute, marked, zero holonomy) and the Z-basis of
H_1(M, Z) come from one integer kernel of the boundary, read from the table
of edge endpoints, on those free columns.

The intersection form on absolute classes needs no walks: with F_v(p) the
signed sum of b over the first p germs of the ribbon (quarter-sector)
structure at vertex v, <a, b> = sum_e a_e (F_head(in-germ of e) -
F_tail(out-germ of e + 1)), exact by `ChainSpace.intersection`. The closed
edge walks that only the spin form needs are the cycles of the map sending
the i-th use arriving at a vertex to the i-th use leaving it, a permutation
because the chain has no boundary.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from . import linalg
from .errors import Inconsistent, NotAbsolute, NotClosed
from .linalg import Mat, Vec
from .origami import Origami, VertexClass, vertex_classes, vertex_of_square


class EdgeChain(NamedTuple):
    """Exact chain (int or Fraction entries) over the edge generators."""

    sigma: Vec
    zeta: Vec

    @staticmethod
    def zero(n: int) -> "EdgeChain":
        z = (0,) * n
        return EdgeChain(z, z)

    @staticmethod
    def unit(n: int, etype: str, g: int, coeff=1) -> "EdgeChain":
        sigma = [0] * n
        zeta = [0] * n
        (sigma if etype == "s" else zeta)[g] = coeff
        return EdgeChain(tuple(sigma), tuple(zeta))

    @property
    def n(self) -> int:
        return len(self.sigma)

    def flat(self) -> Vec:
        return self.sigma + self.zeta

    @staticmethod
    def from_flat(v: Sequence) -> "EdgeChain":
        v = tuple(v)
        n = len(v) // 2
        return EdgeChain(v[:n], v[n:])

    def __add__(self, other: "EdgeChain") -> "EdgeChain":
        return EdgeChain(linalg.vec_add(self.sigma, other.sigma),
                         linalg.vec_add(self.zeta, other.zeta))

    def __sub__(self, other: "EdgeChain") -> "EdgeChain":
        return EdgeChain(linalg.vec_sub(self.sigma, other.sigma),
                         linalg.vec_sub(self.zeta, other.zeta))

    def __neg__(self) -> "EdgeChain":
        return self.scale(-1)

    def scale(self, c) -> "EdgeChain":
        return EdgeChain(linalg.vec_scale(c, self.sigma), linalg.vec_scale(c, self.zeta))

    def to_json_dict(self) -> dict:
        """{"sigma": [...], "zeta": [...]} with entries as "p" or "p/q"."""
        return {"sigma": [str(x) for x in self.sigma],
                "zeta": [str(x) for x in self.zeta]}


def sigma_chain(n: int, g: int, coeff=1) -> EdgeChain:
    return EdgeChain.unit(n, "s", g, coeff)


def zeta_chain(n: int, g: int, coeff=1) -> EdgeChain:
    return EdgeChain.unit(n, "z", g, coeff)


class Subspace(NamedTuple):
    """Row-echelon basis of canonical-form flat vectors."""

    basis: tuple[Vec, ...]
    pivots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords_of(self, v: Vec) -> Vec | None:
        """Coordinates in basis order, or None if v is outside the span."""
        coords = []
        v = list(v)
        for row, p in zip(self.basis, self.pivots):
            coords.append(v[p])
            if v[p] != 0:
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
        if any(x != 0 for x in v):
            return None
        return tuple(coords)


class StandardSplitting(NamedTuple):
    sigma: EdgeChain
    zeta: EdgeChain
    h1_0_abs: Subspace
    h1_0_rel: Subspace


class ChainSpace:
    """All per-origami homology machinery, built once and cached."""

    def __init__(self, origami: Origami):
        self.origami = origami
        n = origami.n
        self.n = n
        self.vclasses: list[VertexClass] = vertex_classes(origami)
        self.vowner: list[int] = vertex_of_square(origami)
        self.relation_rows: list[list[int]] = []
        r, u = origami.r, origami.u
        for g in range(n):
            row = [0] * (2 * n)
            row[g] += 1                    # sigma_g
            row[n + r(g)] += 1             # zeta_{r(g)}
            row[n + g] -= 1                # -zeta_g
            row[u(g)] -= 1                 # -sigma_{u(g)}
            self.relation_rows.append(row)
        self.reducer = linalg.unit_pivot_reducer(self.relation_rows)
        pivots = {p for p, _ in self.reducer}
        self.free = tuple(j for j in range(2 * n) if j not in pivots)
        # (tail, head) vertex class of sigma_g = flat g and zeta_g = flat n + g
        self.edge_ends = [(self.vowner[g], self.vowner[r(g)]) for g in range(n)] + \
            [(self.vowner[g], self.vowner[u(g)]) for g in range(n)]
        self._germs = self._build_germs()
        self._germ_pos: dict[tuple[str, str, int], tuple[int, int]] = {}
        for vidx, germs in enumerate(self._germs):
            for pos, germ in enumerate(germs):
                if germ in self._germ_pos:
                    raise Inconsistent("duplicate germ")
                self._germ_pos[germ] = (vidx, pos)
        if len(self._germ_pos) != 4 * n:
            raise Inconsistent("the germs do not cover the 4n edge ends")

    # -- relations and canonical forms ------------------------------------

    def relation_chain(self, g: int) -> EdgeChain:
        return EdgeChain.from_flat(self.relation_rows[g])

    def relation_rank(self) -> int:
        return len(self.reducer)

    def canonical_vec(self, v: Vec) -> Vec:
        v = list(v)
        for p, row in self.reducer:
            if v[p] != 0:
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
        return tuple(v)

    def equivalent(self, a: EdgeChain, b: EdgeChain) -> bool:
        return self.canonical_vec(a.flat()) == self.canonical_vec(b.flat())

    # -- boundary and holonomy ---------------------------------------------

    def boundary_vec(self, v: Vec) -> Vec:
        """Coefficients on the vertex classes: d sigma_g = v(r g) - v(g), etc."""
        out = [0] * len(self.vclasses)
        for x, (tail, head) in zip(v, self.edge_ends):
            if x:
                out[head] += x
                out[tail] -= x
        return tuple(out)

    def boundary(self, chain: EdgeChain) -> Vec:
        return self.boundary_vec(chain.flat())

    # -- subspaces ----------------------------------------------------------

    def subspace_from_vecs(self, vecs: Iterable[Vec]) -> Subspace:
        reduced, pivots = linalg.rref(tuple(self.canonical_vec(v) for v in vecs))
        return Subspace(reduced, tuple(pivots))

    def subspace_from(self, chains: Iterable[EdgeChain]) -> Subspace:
        return self.subspace_from_vecs(c.flat() for c in chains)

    def full_subspace(self) -> Subspace:
        """The unit vectors on the columns that canonical forms keep."""
        width = range(2 * self.n)
        return Subspace(tuple(tuple(int(k == j) for k in width) for j in self.free),
                        self.free)

    def _cycle_lattice(self, allowed_vertices: set[int],
                       zero_holonomy: bool) -> list[Vec]:
        """Z-basis, as canonical integer vectors, of the classes whose boundary
        is supported on the allowed vertex classes, and whose holonomy is zero
        if asked: the integer kernel of those constraints on the free columns.
        """
        n = self.n
        columns = []
        for j in self.free:
            tail, head = self.edge_ends[j]
            column = [int(k == head) - int(k == tail)
                      for k in range(len(self.vclasses)) if k not in allowed_vertices]
            if zero_holonomy:
                column += [int(j < n), int(j >= n)]
            # a zero row keeps the kernel's width when nothing is constrained
            columns.append(column + [0])
        vecs = []
        for x in linalg.integer_kernel(linalg.transpose(columns)):
            v = [0] * (2 * n)
            for j, c in zip(self.free, x):
                v[j] = c
            vecs.append(tuple(v))
        return vecs

    def marked_subspace(self, marks: Sequence[int]) -> Subspace:
        if not marks:
            raise ValueError("marks must be nonempty")
        return self.subspace_from_vecs(self._cycle_lattice(set(marks), False))

    def absolute_subspace(self) -> Subspace:
        return self.subspace_from_vecs(self._cycle_lattice(set(), False))

    def singular_vertices(self) -> list[int]:
        return [k for k, v in enumerate(self.vclasses) if v.multiplicity > 1]

    def standard_splitting(self) -> StandardSplitting:
        n = self.n
        one = (1,) * n
        zero = (0,) * n
        sigma = EdgeChain(one, zero)
        zeta = EdgeChain(zero, one)
        singular = set(self.singular_vertices())
        h1_0_abs = self.subspace_from_vecs(self._cycle_lattice(set(), True))
        h1_0_rel = self.subspace_from_vecs(self._cycle_lattice(singular, True))
        return StandardSplitting(sigma, zeta, h1_0_abs, h1_0_rel)

    def integral_absolute_basis(self) -> list[Vec]:
        """Z-basis of H_1(M, Z) = ker d / relations, as canonical integer rows."""
        lattice = self._cycle_lattice(set(), False)
        return [tuple(row) for row in linalg.hermite_row_basis(lattice)]

    # -- ribbon structure ----------------------------------------------------

    def _build_germs(self) -> list[list[tuple[str, str, int]]]:
        """Edge germs at each vertex class, counterclockwise.

        For each square g in a commutator cycle the four germs between the
        quarter sectors LL(g), LR(r^-1 g), UR(u^-1 r^-1 g), UL(r u^-1 r^-1 g)
        are, in order: outgoing sigma_g (east), outgoing zeta_g (north),
        incoming sigma_{r^-1 g} (west), incoming zeta_{r u^-1 r^-1 g} (south).
        """
        r, u = self.origami.r, self.origami.u
        ri, ui = r.inverse(), u.inverse()
        out = []
        for v in self.vclasses:
            germs: list[tuple[str, str, int]] = []
            for g in v.cycle:
                germs.append(("out", "s", g))
                germs.append(("out", "z", g))
                germs.append(("in", "s", ri(g)))
                germs.append(("in", "z", r(ui(ri(g)))))
            out.append(germs)
        return out

    def germ_position(self, kind: str, etype: str, g: int) -> tuple[int, int]:
        return self._germ_pos[(kind, etype, g)]

    # -- walks ----------------------------------------------------------------

    def edge_endpoints(self, etype: str, g: int) -> tuple[int, int]:
        """(tail vertex class, head vertex class) of the oriented edge."""
        return self.edge_ends[g if etype == "s" else self.n + g]

    def decompose_walks(self, v: Vec) -> list[list[tuple[str, int, int]]]:
        """Closed walks (etype, g, dir) covering an integer absolute chain.

        The edge uses, |v_e| copies of (etype, g, sign v_e) each, are listed
        in sorted order; at each vertex class the i-th use arriving there is
        followed by the i-th use departing from it. A vertex's arrivals minus
        its departures are its boundary coefficient, zero for an absolute
        chain, so this successor map is a permutation of the uses and the
        walks are its cycles, each started at its least use.
        """
        n = self.n
        if any(x.denominator != 1 for x in v):
            raise ValueError("integer chain required")
        if any(x != 0 for x in self.boundary_vec(v)):
            raise NotAbsolute("chain has nonzero boundary")
        # flat order (sigma_0.., zeta_0..) is the sorted order of the uses
        uses = [("s" if j < n else "z", j % n, 1 if x > 0 else -1)
                for j, x in enumerate(v) for _ in range(abs(int(x)))]
        arrivals: dict[int, list[int]] = {}
        departures: dict[int, list[int]] = {}
        for k, (etype, g, direction) in enumerate(uses):
            tail, head = self.edge_endpoints(etype, g)[::direction]
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

    def walk_passages(self, walk: Sequence[tuple[str, int, int]]
                      ) -> list[tuple[int, int, int]]:
        """(vertex class, arrival germ position, departure germ position) per
        visit; raises NotClosed unless the walk is a nonempty closed walk."""
        if not walk:
            raise NotClosed("empty walk")
        out = []
        for prev, nxt in zip(walk, walk[1:] + walk[:1]):
            v1, p1 = self.germ_position("in" if prev[2] == 1 else "out", *prev[:2])
            v2, p2 = self.germ_position("out" if nxt[2] == 1 else "in", *nxt[:2])
            if v1 != v2:
                raise NotClosed("walk is not connected through vertices")
            out.append((v1, p1, p2))
        return out

    def walk_self_crossings(self, walk: list[tuple[str, int, int]]) -> int:
        """Transverse self-crossings of an immersed realization of the walk.

        Parallel strands on one edge are separated by traversal order, placed
        consistently at both edge ends (reversed at incoming germs); each
        vertex passage becomes a chord on the vertex circle and crossings are
        interleaved chord pairs. Any consistent depth choice yields the same
        value mod 2.
        """
        counter: dict[tuple[str, int, int], int] = {}
        use_depth = []
        for use in walk:
            d = counter.get(use, 0)
            counter[use] = d + 1
            use_depth.append(d)
        k = len(walk)
        chords = []
        for i, (v, p_arr, p_dep) in enumerate(self.walk_passages(walk)):
            # depths are reversed at incoming germs
            d_prev, d_next = use_depth[i], use_depth[(i + 1) % k]
            entry = (p_arr, -d_prev if walk[i][2] == 1 else d_prev)
            exit_ = (p_dep, d_next if walk[(i + 1) % k][2] == 1 else -d_next)
            chords.append((v, entry, exit_))
        crossings = 0
        for i in range(len(chords)):
            for j in range(i + 1, len(chords)):
                if chords[i][0] != chords[j][0]:
                    continue
                crossings += _chords_interleave(chords[i][1], chords[i][2],
                                                chords[j][1], chords[j][2])
        return crossings

    # -- intersection form -----------------------------------------------------

    def intersection(self, a: EdgeChain, b: EdgeChain) -> int | Fraction:
        """Algebraic intersection number of absolute classes.

        A closed walk of a, pushed to its left, crosses b's edge strands on
        each vertex circle in the open ccw arc from its departure germ to its
        arrival germ: +b_e at an outgoing germ of e, -b_e at an incoming one.
        With F_v(p) that signed sum over the first p germs at v, 0 around the
        circle because b has no boundary, an arc sums to F(arrival) -
        F(departure + 1) even when it wraps. Over the passages each use of e
        gives F_head(in-germ of e) - F_tail(out-germ of e + 1), negated when
        e is walked backwards (the two germs' own terms cancel), so <a, b> =
        sum_e a_e (F_head(in-germ of e) - F_tail(out-germ of e + 1)): linear
        in a, with no walks. Integer classes meet in an int.
        """
        av, bv = a.flat(), b.flat()
        if any(x != 0 for x in self.boundary_vec(av)) or \
           any(x != 0 for x in self.boundary_vec(bv)):
            raise NotAbsolute("intersection form needs absolute classes")
        n = self.n
        prefix = []
        for germs in self._germs:
            sums = [0]
            for kind, etype, g in germs:
                coeff = bv[g if etype == "s" else n + g]
                sums.append(sums[-1] + (coeff if kind == "out" else -coeff))
            prefix.append(sums)
        total = 0
        for j, coeff in enumerate(av):
            if coeff:
                etype = "s" if j < n else "z"
                head, arrival = self.germ_position("in", etype, j % n)
                tail, departure = self.germ_position("out", etype, j % n)
                total += coeff * (prefix[head][arrival] - prefix[tail][departure + 1])
        return total

    def gram(self, basis: Sequence[Vec]) -> Mat:
        chains = [EdgeChain.from_flat(v) for v in basis]
        return tuple(
            tuple(self.intersection(a, b) for b in chains) for a in chains
        )


def _chords_interleave(a1, a2, b1, b2) -> bool:
    """Whether chords {a1,a2}, {b1,b2} cross, endpoints as cyclic sort keys."""
    points = sorted([(a1, "a"), (a2, "a"), (b1, "b"), (b2, "b")])
    if len({p for p, _ in points}) != 4:
        raise NotClosed("chord endpoints collide")
    labels = [lab for _, lab in points]
    return labels in (["a", "b", "a", "b"], ["b", "a", "b", "a"])


@functools.lru_cache(maxsize=256)
def chain_space(origami: Origami) -> ChainSpace:
    return ChainSpace(origami)

