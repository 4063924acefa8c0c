"""Cylinder decompositions, parabolic multitwists, the spin quadratic form
and spin parity, and the invariant-supplement feasibility test.

Directions are primitive integer vectors; a direction is normalized to
horizontal by an SL(2,Z) word, cylinders are read off as r-cycle row chains,
and everything is transported back through the exact edge substitutions.
The spin form q = ind + 1 + self-crossings (Johnson) is read off one pass
over a chain's vertex passages, and the spin parity is its Arf invariant on
a symplectic basis (Kontsevich-Zorich).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Sequence

from . import affine, linalg
from .errors import (EvenConeMultiplicity, Inconsistent, NotAbsolute,
                     NotUnimodular, OddOrderZeros, ProbeMovesMarks)
from .homology import EdgeChain, chain_space
from .linalg import Mat, Vec
from .origami import Origami
from .permutations import Perm
from .sl2z import Mat2, inverse_runs, sl2z_word


def normalize_direction(p: int, q: int) -> tuple[tuple[int, int], Mat2]:
    """Primitive direction and a matrix A in SL(2,Z) with A (p,q)^T = (1,0)^T."""
    if p == 0 and q == 0:
        raise ValueError("zero direction")
    d = gcd(abs(p), abs(q))
    p, q = p // d, q // d
    _, x, y = linalg.xgcd(p, q)  # x p + y q = 1
    return (p, q), ((x, y), (-q, p))


class Cylinder(NamedTuple):
    rows: tuple[tuple[int, ...], ...]  # squares per row, in normalized labels
    width: int
    height: int
    core: EdgeChain                    # in the original origami's coordinates

    @property
    def modulus(self) -> Fraction:
        return Fraction(self.width, self.height)


class CylinderDecomposition(NamedTuple):
    """`to_rows` are the sparse rows of the chain map original -> normalized."""

    origami: Origami
    direction: tuple[int, int]
    normalizer: Mat2
    normalized: Origami
    cylinders: list[Cylinder]
    to_rows: tuple[linalg.Row, ...]


def cylinders(origami: Origami, direction: tuple[int, int]) -> CylinderDecomposition:
    """The cylinders in a rational direction, from immutable parts cached for
    16 (origami, primitive direction) pairs; every call returns a fresh
    record, a new list of new `Cylinder`s, so no caller reaches the cache."""
    (p, q), normalizer = normalize_direction(*direction)
    normalized, to_rows, found = _decomposition(origami, (p, q))
    return CylinderDecomposition(origami, (p, q), normalizer, normalized,
                                 [Cylinder(*cyl) for cyl in found], to_rows)


@functools.lru_cache(16)
def _decomposition(origami: Origami, direction: tuple[int, int]
                   ) -> tuple[Origami, tuple[linalg.Row, ...], tuple[tuple, ...]]:
    """(normalized origami, `to_rows`, each cylinder's (rows, width, height,
    core)) in a primitive direction.

    The rows are the r-cycles, and a cylinder is a chain of them. Square
    u(r g) and square r(u g) have g's upper-right corner as their lower-left
    one, so that corner is regular exactly when u r g = r u g. Across a
    circle of regular vertices above row R, u r^j g = r^j u g for g in R:
    u maps R onto the next row up, and u^-1 maps that row back onto R. So a
    cylinder is the chain of rows walked up from a row with a non-regular
    vertex on its lower circle, until the next such row. With no such row, u
    permutes the rows in one cycle, <r, u> being transitive: one chain from 0.
    """
    runs = sl2z_word(normalize_direction(*direction)[1]).exact_runs()
    normalized, to_rows = affine.transport(origami, runs)
    # the lower-left corner of square g is a regular point exactly when the
    # commutator, whose cycles are the vertex classes, fixes g
    regular = [g == x for g, x in enumerate(normalized.commutator().images)]
    rows = normalized.r.cycles()
    row_of = {g: k for k, row in enumerate(rows) for g in row}
    up = [row_of[normalized.u(row[0])] for row in rows]
    bottoms = [k for k, row in enumerate(rows)
               if not all(regular[g] for g in row)] or [0]
    found = []
    for bottom in bottoms:
        chain = [bottom]
        while up[chain[-1]] not in bottoms:
            chain.append(up[chain[-1]])
        found.append((tuple(rows[k] for k in chain), len(rows[bottom]),
                      len(chain)))
    found.sort()
    # the cores are the bottom rows' sigma chains, transported back as the
    # columns of one map
    columns = [{} for _ in range(2 * origami.n)]
    for c, (cyl_rows, _, _) in enumerate(found):
        for g in cyl_rows[0]:
            columns[g] = {c: 1}
    _, cores = affine.transport(normalized, inverse_runs(runs), columns)
    if sum(width * height for _, width, height in found) != origami.n:
        raise Inconsistent("cylinder areas must tile the surface")
    flats = [[0] * (2 * origami.n) for _ in found]
    for g, row in enumerate(cores):
        for c, x in row:
            flats[c][g] = x
    return normalized, to_rows, tuple(
        (*cyl, EdgeChain.from_flat(flat)) for cyl, flat in zip(found, flats))


class MultiTwist(NamedTuple):
    direction: tuple[int, int]
    k: Fraction
    linear: Mat2
    twist_counts: list[Fraction]
    decomposition: CylinderDecomposition
    lift: affine.AffineLift


def multitwist(origami: Origami, direction: tuple[int, int]) -> MultiTwist:
    """The parabolic multitwist in a rational direction.

    The linear part is Id + k v (Rv)^T with R a quarter turn, k the least
    integer that every cylinder modulus w/h divides (the lcm of the
    numerators) and the sign s pinned so that the first nonzero of
    (upper-right, lower-left) is positive: N^-1 T^sk N for the normalizer N.
    Its lift is that word's transport closed by the row shear phi, which
    moves each square of row j of its cylinder (j = 0 at the bottom) by
    r^(sk j) of the normalized origami (r, u). The letters commute with
    relabelings and the inverse runs undo N exactly, so phi closes the word
    when it carries T^sk (r, u) = (r, u r^-sk) onto (r, u). It does: phi r
    = r phi; and phi u r^-sk = u phi, as u r = r u on each row below a
    circle of regular vertices (the `_decomposition` docstring), and from a
    top row, h rows up, u reaches a bottom row, which phi fixes, where w
    divides sk h. The closing is checked on the transported origami.
    """
    decomp = cylinders(origami, direction)
    v = decomp.direction
    k = Fraction(lcm(*(c.modulus.numerator for c in decomp.cylinders)))
    counts = [k / c.modulus for c in decomp.cylinders]
    # upper-right is sign k v0^2, and lower-left -sign k v1^2 when v0 = 0
    sk = (1 if v[0] else -1) * int(k)
    linear = ((1 - sk * v[0] * v[1], sk * v[0] * v[0]),
              (-sk * v[1] * v[1], 1 + sk * v[1] * v[0]))
    shear = {g: row[(i + sk * j) % len(row)] for cyl in decomp.cylinders
             for j, row in enumerate(cyl.rows) for i, g in enumerate(row)}
    phi = Perm([shear[g] for g in range(origami.n)])
    runs = sl2z_word(decomp.normalizer).exact_runs()
    word = inverse_runs(runs) + (("T" if sk > 0 else "T-", abs(sk)),)
    twisted, rows = affine.transport(decomp.normalized, word,
                                     [dict(row) for row in decomp.to_rows])
    if phi * twisted.r != origami.r * phi or phi * twisted.u != origami.u * phi:
        raise Inconsistent("the row shear does not close the twist's word")
    return MultiTwist(v, k, linear, counts, decomp,
                      affine._closed(origami, linear, word + runs, rows, phi))


# -- the spin form and spin parity -------------------------------------------


def quadratic_form_value(origami: Origami, chain: EdgeChain) -> int:
    """The spin quadratic form q on an absolute integer class, in one pass
    over the vertex passages of the chain's edge uses.

    The uses, |c_e| copies of each edge e walked in the sign of c_e, are
    taken in flat order, and at each vertex class the i-th use arriving there
    is followed by the i-th use leaving it: a permutation of the uses, since
    c has no boundary, whose k cycles are closed walks c_1, ..., c_k with sum
    c. A passage from arrival germ a to departure germ d at a vertex of
    multiplicity m turns (d - a) mod 4m - 2 quarter turns. The j-th copy of e
    runs at depth j, keyed +j at e's out-germ and -j at its in-germ (its left
    side comes after e counterclockwise at the tail and before it at the
    head), so the strands run parallel along the edges, each passage is a
    chord on its vertex's circle of germs, and the walks together are one
    transverse multicurve whose crossings are the interleaved chord pairs.
    Between two walks these number <c_i, c_j> mod 2; within one walk they
    are its self-crossings, whose parity no consistent choice of depths
    changes. So

        q(c) = quarter turns / 4 + k + crossings  (mod 2)

    is sum_i (ind c_i + 1 + self c_i) + sum_{i<j} <c_i, c_j>: Johnson's
    q = ind + 1 + self-crossings per walk, summed by q(a + b) = q(a) + q(b)
    + <a, b>. With every cone multiplicity m odd, the parity does not depend
    on the side by which a passage goes round its vertex: the two turnings
    differ by m - 1 full turns.
    """
    space = chain_space(origami)
    v = chain.flat()
    if any(x.denominator != 1 for x in v):
        raise ValueError("integer chain required")
    if any(space.boundary_vec(v)):
        raise NotAbsolute("chain has nonzero boundary")
    if any(v) and any(c.multiplicity % 2 == 0 for c in space.vclasses):
        raise EvenConeMultiplicity(
            "parity needs all cone multiplicities odd (even zero orders)")
    # per vertex, (use, its end there as (germ, depth key)) of the uses
    # arriving there and of those leaving it
    arrivals: dict[int, list] = {}
    departures: dict[int, list] = {}
    uses = 0
    for x, (tail, head), (into, out) in zip(v, space.edge_ends, space.edge_germs):
        for depth in range(abs(int(x))):
            ends = ((tail, (out, depth)), (head, (into, -depth)))
            (start, leave), (stop, enter) = ends if x > 0 else ends[::-1]
            departures.setdefault(start, []).append((uses, leave))
            arrivals.setdefault(stop, []).append((uses, enter))
            uses += 1
    successor = [0] * uses
    quarters = crossings = 0
    for vertex, ins in arrivals.items():
        size = 4 * space.vclasses[vertex].multiplicity
        chords: list[tuple] = []
        for (k, a), (k2, d) in zip(ins, departures[vertex]):
            successor[k] = k2
            quarters += (d[0] - a[0]) % size - 2
            lo, hi = min(a, d), max(a, d)
            crossings += sum((lo < c < hi) != (lo < e < hi) for c, e in chords)
            chords.append((lo, hi))
    if quarters % 4:
        raise Inconsistent("the passages do not turn a whole number of times")
    cycles, seen = 0, [False] * uses
    for k in range(uses):
        cycles += not seen[k]
        while not seen[k]:
            seen[k], k = True, successor[k]
    return (quarters // 4 + cycles + crossings) % 2


def symplectic_basis(gram: Mat) -> Mat:
    """Integer change of basis C with C gram C^T the standard block J.

    Pairs are interleaved: rows (a_1, b_1, a_2, b_2, ...), and
    <a_i, b_i> = 1.

    The pairing-gcd test is the whole unimodularity check: each round keeps
    a Z-basis v1, w + L' of the lattice, so finishing gives a unimodular C
    with C gram C^T = J, whence det gram = 1, and with an odd rank the last
    row pairs to 0 with everything and raises "degenerate block".
    """
    m = len(gram)
    for i in range(m):
        for j in range(m):
            if gram[i][j] != -gram[j][i] or gram[i][j].denominator != 1:
                raise NotUnimodular("not an integer antisymmetric matrix")

    def form(x: Vec, gy: Vec):
        """<x, y> for gy = gram y."""
        return sum(map(mul, x, gy))

    basis = list(linalg.identity(m))
    out: list[Vec] = []
    while basis:
        v1 = basis[0]
        g1 = linalg.mat_vec(gram, v1)
        # integer combination w with <v1, w> = gcd of pairings = 1;
        # <v1, b> = -<b, v1> by antisymmetry
        vals = [-form(b, g1) for b in basis]
        idxs = [i for i, val in enumerate(vals) if val != 0]
        if not idxs:
            raise NotUnimodular("degenerate block")
        w = basis[idxs[0]]
        cur = vals[idxs[0]]
        for i in idxs[1:]:
            # extended gcd on the pairing values
            cur, x0, y0 = linalg.xgcd(cur, vals[i])
            w = tuple(x0 * wx + y0 * bx for wx, bx in zip(w, basis[i]))
        if cur < 0:
            w, cur = tuple(-x for x in w), -cur
        if cur != 1:
            raise NotUnimodular("pairing gcd exceeds 1")
        out += (v1, w)
        g2 = linalg.mat_vec(gram, w)
        # L': the projections of the basis that pair to 0 with v1 and w
        projections = []
        for x in basis:
            c1, c2 = form(x, g1), form(x, g2)
            projections.append([y + c1 * b - c2 * a for y, a, b in zip(x, v1, w)])
        basis = [tuple(row) for row in linalg.hermite_row_basis(projections)]
    return tuple(out)


class SpinResult(NamedTuple):
    parity: str                        # "even" | "odd"
    basis: list[EdgeChain]             # a_1, b_1, a_2, b_2, ...
    indices: list[int]                 # ind mod 2 per basis element


def spin_parity(origami: Origami) -> SpinResult:
    """Arf invariant sum((ind a_i + 1)(ind b_i + 1)) over a symplectic basis."""
    space = chain_space(origami)
    if any(v.zero_order % 2 == 1 for v in space.vclasses):
        raise OddOrderZeros("spin parity needs even zero orders")
    integral = space.integral_absolute_basis()
    change = symplectic_basis(space.gram(integral))
    chains = list(map(EdgeChain.from_flat, linalg.mat_mul(change, integral)))
    qvals = [quadratic_form_value(origami, c) for c in chains]
    g = len(chains) // 2
    total = sum(qvals[2 * i] * qvals[2 * i + 1] for i in range(g)) % 2
    return SpinResult("even" if total == 0 else "odd", chains,
                      [(x + 1) % 2 for x in qvals])


# -- invariant supplements ------------------------------------------------------


class SupplementCertificate(NamedTuple):
    feasible: bool
    section: list[EdgeChain] | None
    forced: dict[str, Fraction] | None
    violated_probe: int | None
    residual: EdgeChain | None


def invariant_supplement(origami: Origami, marks: Sequence[int],
                         probes: Sequence[affine.AffineLift],
                         reps: Sequence[EdgeChain] | None = None,
                         correction_basis: Sequence[EdgeChain] | None = None
                         ) -> SupplementCertificate:
    """Decide whether the marked relative classes admit an invariant supplement.

    Probes may permute the marked vertex classes. A probe P keeps the span
    of the sections sigma_k = rep_k + sum_b s_kb corr_b when every residual
    r_k(s) = P sigma_k - sum_l c_kl sigma_l vanishes, where c_kl solves
    d(P rep_k) = sum_l c_kl d rep_l (c is the identity when every probe fixes
    each mark). The corrections are absolute, so d sigma_l = d rep_l: c is
    the boundary action on the sections for every s, d r_k(s) = 0, and r is
    affine in s, r(s) = r(0) + sum_j s_j (r(e_j) - r(0)) on the unit vectors
    e_j. So each probe adds the columns r(e_j) - r(0) and the right-hand
    side -r(0) to one linear system in s. Feasible: returns the corrected
    sections. Infeasible: returns the s forced by the longest consistent
    probe prefix, the first violated probe, and its first nonzero residual
    at that s.
    """
    space = chain_space(origami)
    if any(p.vertex_perm(m) not in marks for p in probes for m in marks):
        raise ProbeMovesMarks("a probe moves a marked vertex class"
                              " outside the marks")
    if correction_basis is None:
        correction_basis = [EdgeChain.from_flat(v)
                            for v in space.absolute_subspace().basis]
    if reps is None:  # marked classes independent modulo the absolute ones
        taken, reps = list(space.absolute_subspace().basis), []
        for b in space.marked_subspace(marks).basis:
            if len(linalg.rref(tuple(taken + [b]))[0]) > len(taken):
                reps.append(EdgeChain.from_flat(b))
                taken.append(b)
    n_reps, n_corr = len(reps), len(correction_basis)
    # the reps' then the corrections' canonical vectors
    chains = tuple(space.canonical_vec(c.flat())
                   for c in (*reps, *correction_basis))
    boundary_matrix = linalg.transpose(tuple(space.boundary_vec(c)
                                             for c in chains[:n_reps]))

    def residuals(moved: Mat, c: Mat, s: Vec) -> list[Vec]:
        # sigma = a . chains, a_k = (e_k, s_k0, ...); moved = P chains
        a = [e + tuple(s[k * n_corr:(k + 1) * n_corr])
             for k, e in enumerate(linalg.identity(n_reps))]
        return list(map(linalg.vec_sub, linalg.mat_mul(a, moved),
                        linalg.mat_mul(c, linalg.mat_mul(a, chains))))

    zero = (0,) * (n_reps * n_corr)
    rows_a, rhs = [], []
    solution: Vec | None = zero
    for pidx, probe in enumerate(probes):
        moved = tuple(map(probe.image, chains))
        c = tuple(linalg.solve(boundary_matrix, space.boundary_vec(m))
                  for m in moved[:n_reps])
        if None in c:
            raise ProbeMovesMarks(
                "probe boundary action leaves the span of the sections")
        at_zero = residuals(moved, c, zero)
        columns = [list(map(linalg.vec_sub, residuals(moved, c, e), at_zero))
                   for e in linalg.identity(len(zero))]
        for k, r in enumerate(at_zero):
            rows_a += (tuple(col[k][i] for col in columns) for i in range(len(r)))
            rhs += (-x for x in r)
        prefix, solution = solution, linalg.solve(tuple(rows_a), tuple(rhs))
        if solution is None:  # the earlier probes' solution is forced
            forced = ({f"s_{b}": prefix[b] for b in range(n_corr)}
                      if n_reps == 1 else
                      {f"s_{k}_{b}": prefix[k * n_corr + b]
                       for k in range(n_reps) for b in range(n_corr)})
            residual = next(r for r in residuals(moved, c, prefix) if any(r))
            return SupplementCertificate(False, None, forced, pidx,
                                         EdgeChain.from_flat(residual))
    section = [sum((corr.scale(solution[k * n_corr + b])
                    for b, corr in enumerate(correction_basis)), rep)
               for k, rep in enumerate(reps)]
    return SupplementCertificate(True, section, None, None, None)
