"""Relative homology H_1(M, Sigma', Z) of an origami, presented on the 2n edge
generators sigma_g (bottom sides, rightward) and zeta_g (left sides, upward)
modulo the square-boundary relations

    box_g = sigma_g + zeta_{r(g)} - zeta_g - sigma_{u(g)}.

Flat coordinates are (sigma_0..sigma_{n-1}, zeta_0..zeta_{n-1}). Canonical
forms are unique coset representatives obtained by zeroing the pivot
columns P of R, the reduced row echelon form (`linalg.rref`) of the relation
rows A, as `linalg.Row`s whose nonzeros alone are read; integer chains stay
integer, a rational chain is reduced on its integer numerators over their
lcm, and the n + 1 free columns they keep are a Z-basis of
H_1(M, Sigma', Z). Every subspace cut out by the boundary (absolute, marked,
zero holonomy) and the Z-basis of H_1(M, Z) come from one integer kernel of
the boundary, read from the table of edge endpoints, on those free columns.

R is integral and spans the relation lattice. Column sigma_j of A is +1 in
box_j and -1 in box_{u^-1 j}, column zeta_j is +1 in box_{r^-1 j} and -1 in
box_j, and both are zero when the two boxes coincide: A is the incidence
matrix of the dual graph (squares as nodes, edges as arcs), which is totally
unimodular. So R has entries in {-1, 0, 1} and unit pivots. R = B^-1 A_I for
independent rows I of A and the unimodular B = A_I[:, P], and A = A[:, P] R
with A[:, P] an integer matrix: R is a Z-basis of the lattice of A. Its
pivots, the columns outside the span of the earlier ones, are Kruskal's
minimum spanning forest of the dual graph weighted by column index. So the
unit-pivot reduction the tests compare against, whose rows are +- the cut
vectors of the merged components and which takes the least-index edge of
the first nonempty cut, picks the same forest by the cut property, and so
the same rows: a lattice has one reduced basis with the identity on given
columns.

The intersection form on absolute classes needs no walks: with F_v(p) the
signed sum of b over the first p germs of the ribbon (quarter-sector)
structure at vertex v, <a, b> = a . w for the dual row w_e = F_head(in-germ
of e) - F_tail(out-germ of e + 1) of b, built once per integer class by
`ChainSpace._dual`; `intersection` and `gram` pair integer numerators with
it and divide once, so an integral value is an int. The same germ table,
`edge_germs`, places each edge's strands on the vertex circles for the spin
form of `invariants.quadratic_form_value`.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from . import linalg
from .errors import Inconsistent, NotAbsolute
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
        flat = [0] * (2 * n)
        flat[g if etype == "s" else n + g] = coeff
        return EdgeChain.from_flat(flat)

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
    """Reduced row-echelon basis of canonical-form flat vectors: each row
    has int 1 at its pivot and int 0 at the other rows' pivots."""

    basis: tuple[Vec, ...]
    pivots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords_of(self, v: Vec) -> Vec | None:
        """Coordinates in basis order, or None if v is outside the span.

        The basis is in reduced echelon form (int 1 at its pivot, int 0 at
        the others'), so the coordinates are v's entries at the pivots; v is
        in the span when v * d_v * d_b equals the sum of those (scaled)
        entries times the basis rows scaled by d_b, both sides integers."""
        return self._reader()(v)

    def _reader(self):
        """`coords_of` as a function of v, with the basis made Rows once."""
        d_b, rows = linalg._sparse_over_lcm(self.basis)

        def coords_of(v: Vec) -> Vec | None:
            d, (ints,) = linalg._over_lcm((v,))
            residual = [d_b * x for x in ints]
            for row, p in zip(rows, self.pivots):
                if f := ints[p]:
                    for j, y in row:
                        residual[j] -= f * y
            return None if any(residual) else \
                linalg._divided([ints[p] for p in self.pivots], d)
        return coords_of


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
        rows, pivots = linalg.rref(self.relation_rows)
        self.reducer = list(zip(pivots, linalg._sparse_over_lcm(rows)[1]))
        self.free = tuple(sorted(set(range(2 * n)) - set(pivots)))
        # (tail, head) vertex class of sigma_g = flat g and zeta_g = flat n + g
        self.edge_ends = [(self.vowner[g], self.vowner[r(g)]) for g in range(n)] + \
            [(self.vowner[g], self.vowner[u(g)]) for g in range(n)]
        self._germs = self._build_germs()
        # the germs vertex by vertex: (flat column, +1 out / -1 in) each, and
        # per flat column the indices of its in-germ and of its out-germ
        flat = [germ for germs in self._germs for germ in germs]
        index = {germ: k for k, germ in enumerate(flat)}
        if len(flat) != 4 * n or len(index) != 4 * n:
            raise Inconsistent("the germs do not cover the 4n edge ends once each")
        self._germ_terms = [(g if etype == "s" else n + g, 1 if kind == "out" else -1)
                            for kind, etype, g in flat]
        self.edge_germs = [(index["in", etype, g], index["out", etype, g])
                           for etype in "sz" for g in range(n)]
        self._lattices: dict[tuple[frozenset[int], bool],
                             tuple[tuple[Vec, ...], Subspace]] = {}

    # -- relations and canonical forms ------------------------------------

    def relation_chain(self, g: int) -> EdgeChain:
        return EdgeChain.from_flat(self.relation_rows[g])

    def relation_rank(self) -> int:
        return len(self.reducer)

    def canonical_vec(self, v: Vec) -> Vec:
        d, (ints,) = linalg._over_lcm((v,))
        return self.canonical_over(ints, d)

    def canonical_over(self, ints: Sequence[int], d: int) -> Vec:
        """The canonical form of the vector ints / d."""
        ints = list(ints)
        for p, row in self.reducer:
            if f := ints[p]:
                for j, y in row:
                    ints[j] -= f * y
        return linalg._divided(ints, d)

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

    def _cycle_lattice(self, allowed_vertices: set[int], zero_holonomy: bool
                       ) -> tuple[tuple[Vec, ...], Subspace]:
        """(Z-basis, as canonical integer vectors, of the classes whose
        boundary is supported on the allowed vertex classes, and whose
        holonomy is zero if asked: the integer kernel of those constraints on
        the free columns; its reduced span).

        Memoized for the allowed sets the library asks for, none and the
        singular vertices, so at most 4 per space, each reduced once; tuples
        of tuples, which no caller can change.
        """
        key = (frozenset(allowed_vertices), zero_holonomy)
        if key in self._lattices:
            return self._lattices[key]
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
        entry = tuple(vecs), self.subspace_from_vecs(vecs)
        if key[0] in (frozenset(), frozenset(self.singular_vertices())):
            self._lattices[key] = entry
        return entry

    def marked_subspace(self, marks: Sequence[int]) -> Subspace:
        if not marks:
            raise ValueError("marks must be nonempty")
        return self._cycle_lattice(set(marks), False)[1]

    def absolute_subspace(self) -> Subspace:
        return self._cycle_lattice(set(), False)[1]

    def singular_vertices(self) -> list[int]:
        return [k for k, v in enumerate(self.vclasses) if v.multiplicity > 1]

    def standard_splitting(self) -> StandardSplitting:
        n = self.n
        one = (1,) * n
        zero = (0,) * n
        sigma = EdgeChain(one, zero)
        zeta = EdgeChain(zero, one)
        singular = set(self.singular_vertices())
        h1_0_abs = self._cycle_lattice(set(), True)[1]
        h1_0_rel = self._cycle_lattice(singular, True)[1]
        return StandardSplitting(sigma, zeta, h1_0_abs, h1_0_rel)

    def integral_absolute_basis(self) -> list[Vec]:
        """Z-basis of H_1(M, Z) = ker d / relations, as canonical integer rows
        in row Hermite form: `integer_kernel` returns trailing rows of a
        Hermite form, and inserting the non-free edges' zero columns keeps it."""
        return list(self._cycle_lattice(set(), False)[0])

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

    # -- intersection form -----------------------------------------------------

    def _dual(self, b: Sequence[int]) -> list[int]:
        """The integer row w with <a, b> = a . w for every absolute a, for
        an absolute integer class b.

        A closed walk of a, pushed to its left, crosses b's edge strands on
        each vertex circle in the open ccw arc from its departure germ to its
        arrival germ: +b_e at an outgoing germ of e, -b_e at an incoming one.
        With F_v(p) that signed sum over the first p germs at v, 0 around the
        circle because b has no boundary, an arc sums to F(arrival) -
        F(departure + 1) even when it wraps. Over the passages each use of e
        gives F_head(in-germ of e) - F_tail(out-germ of e + 1), negated when
        e is walked backwards (the two germs' own terms cancel), so <a, b> =
        sum_e a_e (F_head(in-germ of e) - F_tail(out-germ of e + 1)): linear
        in a, with no walks. Each vertex's germs sum to 0, so one running sum
        over the germs vertex by vertex reads F_v(p) at v's p-th germ, and
        F_v(4 m_v) = 0 at the next vertex's first.
        """
        if any(self.boundary_vec(b)):
            raise NotAbsolute("intersection form needs absolute classes")
        prefix = [0]
        for j, sign in self._germ_terms:
            prefix.append(prefix[-1] + sign * b[j])
        return [prefix[arrival] - prefix[departure + 1]
                for arrival, departure in self.edge_germs]

    def intersection(self, a: EdgeChain, b: EdgeChain) -> int | Fraction:
        """Algebraic intersection number of absolute classes: a . `_dual(b)`
        on the integer numerators of a and b, divided once."""
        d_a, (av,) = linalg._over_lcm((a.flat(),))
        if any(self.boundary_vec(av)):
            raise NotAbsolute("intersection form needs absolute classes")
        d_b, (bv,) = linalg._over_lcm((b.flat(),))
        return linalg._divided((sum(map(mul, av, self._dual(bv))),), d_a * d_b)[0]

    def gram(self, basis: Sequence[Vec]) -> Mat:
        """The <basis_i, basis_j>: one dual row per class, on the integer
        numerators over their lcm d, each entry divided once by d^2."""
        d, rows = linalg._over_lcm(basis)
        duals = [self._dual(b) for b in rows]
        return tuple(linalg._divided([sum(map(mul, a, w)) for w in duals], d * d)
                     for a in rows)


@functools.lru_cache(maxsize=256)
def chain_space(origami: Origami) -> ChainSpace:
    return ChainSpace(origami)

