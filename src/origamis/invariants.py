"""Cylinder decompositions, parabolic multitwists, turning numbers, spin
parity, and the invariant-supplement feasibility test.

Directions are primitive integer vectors; a direction is normalized to
horizontal by an SL(2,Z) word, cylinders are read off as merged r-cycle rows,
and everything is transported back through the exact edge substitutions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable, NamedTuple, Sequence

from . import linalg
from .affine import AffineLift, Row, dense_view, lift_all, transport
from .errors import (EvenConeMultiplicity, Inconsistent, NoMatchingLift,
                     NotClosed, NotUnimodular, OddOrderZeros, ProbeMovesMarks)
from .homology import EdgeChain, chain_space
from .linalg import Mat, Vec
from .origami import Origami
from .sl2z import Mat2, inverse_runs, sl2z_word


def normalize_direction(p: int, q: int) -> tuple[tuple[int, int], Mat2]:
    """Primitive direction and a matrix A in SL(2,Z) with A (p,q)^T = (1,0)^T."""
    if p == 0 and q == 0:
        raise ValueError("zero direction")
    d = gcd(abs(p), abs(q))
    p, q = p // d, q // d
    _, x, y = _xgcd(p, q)  # x p + y q = 1
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
    """`to_rows` are the sparse rows of the chain map original -> normalized;
    `to_normalized` is their dense view, and `from_normalized` the dense map
    back, transported along the inverse word when read."""

    origami: Origami
    direction: tuple[int, int]
    normalizer: Mat2
    normalized: Origami
    cylinders: list[Cylinder]
    to_rows: tuple[Row, ...]

    to_normalized = property(lambda self: dense_view(self.to_rows))
    from_normalized = property(lambda self: dense_view(transport(
        self.normalized, inverse_runs(sl2z_word(self.normalizer).exact_runs()))[1]))


def _pairing_row(decomp: CylinderDecomposition,
                 row_squares: Sequence[int]) -> tuple[int, ...]:
    """Integer row pi with <core push-off, c> = pi . c for every chain c: the
    zeta rows of `to_rows` summed over the row's squares."""
    n = decomp.normalized.n
    pi = [0] * (2 * n)
    for g in row_squares:
        for j, x in decomp.to_rows[n + g]:
            pi[j] += x
    return tuple(pi)


def cylinders(origami: Origami, direction: tuple[int, int]) -> CylinderDecomposition:
    (p, q), normalizer = normalize_direction(*direction)
    runs = sl2z_word(normalizer).exact_runs()
    normalized, to_rows = transport(origami, runs)
    # the lower-left corner of square g is a regular point exactly when the
    # commutator, whose cycles are the vertex classes, fixes g
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
    cyls = [Cylinder(*cyl, EdgeChain.from_flat([dict(row).get(c, 0)
                                                for row in cores]))
            for c, cyl in enumerate(found)]
    if sum(c.width * c.height for c in cyls) != origami.n:
        raise Inconsistent("cylinder areas must tile the surface")
    return CylinderDecomposition(origami, (p, q), normalizer, normalized,
                                 cyls, to_rows)


def _rational_lcm(values: Sequence[Fraction]) -> Fraction:
    return Fraction(lcm(*(v.numerator for v in values)),
                    gcd(*(v.denominator for v in values)))


class MultiTwist(NamedTuple):
    direction: tuple[int, int]
    k: Fraction
    linear: Mat2
    twist_counts: list[Fraction]
    decomposition: CylinderDecomposition
    lift: AffineLift


def multitwist(origami: Origami, direction: tuple[int, int]) -> MultiTwist:
    """The parabolic multitwist in a rational direction.

    The linear part is Id + k v (Rv)^T with R a quarter turn, the sign pinned
    so that the first nonzero of (upper-right, lower-left) is positive. The
    homology matrix is the exact affine lift whose action on the marked
    subspace matches the Dehn twist formula
        c -> c + sum_cyl n_cyl <core~, c> core.
    """
    decomp = cylinders(origami, direction)
    v = decomp.direction
    k = _rational_lcm([c.modulus for c in decomp.cylinders])
    if k.denominator != 1:
        k = Fraction(k.numerator * k.denominator)
    counts = [k / c.modulus for c in decomp.cylinders]
    # upper-right is sign k v0^2, and lower-left -sign k v1^2 when v0 = 0
    sign = 1 if v[0] else -1
    sk = sign * int(k)
    linear = ((1 - sk * v[0] * v[1], sk * v[0] * v[0]),
              (-sk * v[1] * v[1], 1 + sk * v[1] * v[0]))

    # twist formula c -> c + sum_cyl c_cyl <pi_cyl, c> core_cyl, applied as
    # a rank-(number of cylinders) update of c
    terms = [(int(sign * count), _pairing_row(decomp, cyl.rows[0]),
              cyl.core.flat())
             for cyl, count in zip(decomp.cylinders, counts)]

    def twist_formula(c: Vec) -> Vec:
        out = c
        for count, pi, core in terms:
            t = count * sum(p * x for p, x in zip(pi, c) if p)
            out = tuple(x + t * y for x, y in zip(out, core))
        return out

    # without a singular vertex, compare relative to a single marked point:
    # the cylinders merge rows across the regular circles, so no lift can
    # match the formula relative to every regular vertex
    space = chain_space(origami)
    marked = space.marked_subspace(space.singular_vertices()) \
        if space.singular_vertices() else space.absolute_subspace()
    targets = [space.canonical_vec(twist_formula(b)) for b in marked.basis]
    best = next((lf for lf in lift_all(origami, linear)
                 if all(lf.image(b) == t for b, t in zip(marked.basis, targets))),
                None)
    if best is None:
        raise NoMatchingLift("no affine lift matches the twist formula")
    return MultiTwist(decomp.direction, k, linear, counts, decomp, best)


# -- turning numbers and spin parity ------------------------------------------


def _walk_parity(origami: Origami, walk: Sequence[tuple[str, int, int]],
                 turn: Callable[[int, int, int], int]) -> int:
    """Parity of (sum of turn(arrival, departure, sector count) over the
    vertex passages) / 4; the sum is in quarter turns."""
    space = chain_space(origami)
    if any(v.multiplicity % 2 == 0 for v in space.vclasses):
        raise EvenConeMultiplicity(
            "parity needs all cone multiplicities odd (even zero orders)")
    quarters = sum(turn(arr, dep, 4 * space.vclasses[v].multiplicity)
                   for v, arr, dep in space.walk_passages(walk))
    if quarters % 4 != 0:
        raise NotClosed("total turning is not a multiple of 2*pi")
    return (quarters // 4) % 2


def index_parity(origami: Origami, walk: Sequence[tuple[str, int, int]]) -> int:
    """Turning parity of a closed edge walk [(etype, square, dir), ...].

    Each vertex passage contributes t - 2 quarter turns, t the ccw sector
    count from the arrival germ to the departure germ; the total is a
    multiple of 4 quarters and ind = total / 4.
    """
    return _walk_parity(origami, walk,
                        lambda arr, dep, size: (dep - arr) % size - 2)


def index_parity_clockwise(origami: Origami,
                           walk: Sequence[tuple[str, int, int]]) -> int:
    """Same parity computed with the clockwise sector count at each passage."""
    return _walk_parity(origami, walk,
                        lambda arr, dep, size: 2 - (arr - dep) % size)


def quadratic_form_value(origami: Origami, chain: EdgeChain,
                         clockwise: bool = False) -> int:
    """The spin quadratic form on an absolute integer class.

    Per immersed walk q = ind + 1 + #self-crossings (Johnson's formula);
    walks combine by q(a+b) = q(a) + q(b) + <a,b>, all mod 2.
    """
    space = chain_space(origami)
    walks = space.decompose_walks(chain.flat())
    parity_fn = index_parity_clockwise if clockwise else index_parity
    total = 0
    chains = []
    for walk in walks:
        total += parity_fn(origami, walk) + 1 + space.walk_self_crossings(walk)
        c = EdgeChain.zero(origami.n)
        for etype, g, direction in walk:
            c = c + EdgeChain.unit(origami.n, etype, g, direction)
        chains.append(c)
    for i in range(len(chains)):
        for j in range(i + 1, len(chains)):
            total += space.intersection(chains[i], chains[j])
    return total % 2


def symplectic_basis(gram: Mat) -> Mat:
    """Integer change of basis C with C gram C^T the standard block J.

    Pairs are interleaved: rows (a_1, b_1, a_2, b_2, ...), and
    <a_i, b_i> = 1.
    """
    m = len(gram)
    if m % 2 != 0:
        raise NotUnimodular("odd rank")
    for i in range(m):
        for j in range(m):
            if gram[i][j] != -gram[j][i] or gram[i][j].denominator != 1:
                raise NotUnimodular("not an integer antisymmetric matrix")
    if abs(linalg.det(gram)) != 1:
        raise NotUnimodular(f"determinant {linalg.det(gram)}")

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
            cur, x0, y0 = _xgcd(cur, vals[i])
            w = tuple(x0 * wx + y0 * bx for wx, bx in zip(w, basis[i]))
        if cur < 0:
            w = tuple(-x for x in w)
            cur = -cur
        if cur != 1:
            raise NotUnimodular("pairing gcd exceeds 1")
        v2 = w
        out.append(v1)
        out.append(v2)
        g2 = linalg.mat_vec(gram, v2)
        new_basis = []
        for x in basis:
            c1, c2 = form(x, g1), form(x, g2)
            proj = tuple(
                xx + c1 * v2x - c2 * v1x
                for xx, v1x, v2x in zip(x, v1, v2))
            new_basis.append(proj)
        basis = [tuple(row) for row in linalg.hermite_row_basis(new_basis)]
    return tuple(out)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_x, x = x, old_x - quo * x
        old_y, y = y, old_y - quo * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y


class SpinResult(NamedTuple):
    parity: str                        # "even" | "odd"
    basis: list[EdgeChain]             # a_1, b_1, a_2, b_2, ...
    indices: list[int]                 # ind mod 2 per basis element


def spin_parity(origami: Origami, clockwise: bool = False,
                basis_rows: Mat | None = None) -> SpinResult:
    """Arf invariant sum((ind a_i + 1)(ind b_i + 1)) over a symplectic basis."""
    space = chain_space(origami)
    if any(v.zero_order % 2 == 1 for v in space.vclasses):
        raise OddOrderZeros("spin parity needs even zero orders")
    integral = space.integral_absolute_basis()
    gram = space.gram(integral)
    change = symplectic_basis(gram) if basis_rows is None else basis_rows
    chains = []
    for row in change:
        v = [0] * (2 * origami.n)
        for c, b in zip(row, integral):
            if c:
                v = [x + c * y for x, y in zip(v, b)]
        chains.append(EdgeChain.from_flat(v))
    qvals = [quadratic_form_value(origami, c, clockwise) for c in chains]
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
                         probes: Sequence[AffineLift],
                         reps: Sequence[EdgeChain] | None = None,
                         correction_basis: Sequence[EdgeChain] | None = None
                         ) -> SupplementCertificate:
    """Decide whether the marked relative classes admit an invariant supplement.

    Probes must preserve the marked vertex set. For each probe P the section
    condition is P (rep_k + corr_k) = sum_l c_kl (rep_l + corr_l), where the
    coefficients c_kl are forced exactly by the boundary action (when every
    probe fixes each mark, c is the identity and the condition is the familiar
    (P - Id)(rep + corr) = 0). Feasible: returns the corrected sections.
    Infeasible: returns the correction forced by the longest consistent probe
    prefix, the first violated probe, and its nonzero residual.
    """
    space = chain_space(origami)
    mark_set = set(marks)
    for p in probes:
        if any(p.vertex_perm(m) not in mark_set for m in marks):
            raise ProbeMovesMarks("a probe moves a marked vertex class"
                                  " outside the marks")
    if correction_basis is None:
        correction_basis = [EdgeChain.from_flat(v)
                            for v in space.absolute_subspace().basis]
    if reps is None:
        marked = space.marked_subspace(marks)
        absolute = space.absolute_subspace()
        reps = []
        taken = list(absolute.basis)
        for b in marked.basis:
            stacked, _ = linalg.rref(tuple(taken + [b]))
            if len(stacked) > len(taken):
                reps.append(EdgeChain.from_flat(b))
                taken.append(b)
    reps = list(reps)
    n_reps = len(reps)
    n_corr = len(correction_basis)
    corr_cols = tuple(space.canonical_vec(c.flat()) for c in correction_basis)
    rep_cols = tuple(space.canonical_vec(c.flat()) for c in reps)
    boundary_matrix = linalg.transpose(tuple(space.boundary_vec(c)
                                             for c in rep_cols))
    n2 = 2 * origami.n

    rows_a: list[Vec] = []
    rhs: list[Fraction] = []
    solution: Vec | None = (0,) * (n_reps * n_corr)
    for pidx, probe in enumerate(probes):
        moved_reps = [probe.image(c) for c in rep_cols]
        moved_corr = [probe.image(c) for c in corr_cols]
        coeffs = []
        for k in range(n_reps):
            c_k = linalg.solve(boundary_matrix,
                               space.boundary_vec(moved_reps[k]))
            if c_k is None:
                raise ProbeMovesMarks(
                    "probe boundary action leaves the span of the sections")
            coeffs.append(c_k)
        for k in range(n_reps):
            # P corr_k - sum_l c_kl corr_l = sum_l c_kl rep_l - P rep_k
            columns = []
            for l in range(n_reps):
                for b in range(n_corr):
                    col = [0] * n2
                    if l == k:
                        col = list(moved_corr[b])
                    if coeffs[k][l]:
                        col = [x - coeffs[k][l] * y
                               for x, y in zip(col, corr_cols[b])]
                    columns.append(tuple(col))
            target = [0] * n2
            for l in range(n_reps):
                if coeffs[k][l]:
                    target = [x + coeffs[k][l] * y
                              for x, y in zip(target, rep_cols[l])]
            target = [x - y for x, y in zip(target, moved_reps[k])]
            for row_idx in range(n2):
                rows_a.append(tuple(col[row_idx] for col in columns))
                rhs.append(target[row_idx])
        prefix, solution = solution, linalg.solve(tuple(rows_a), tuple(rhs))
        if solution is None:  # the earlier probes' solution is forced
            forced = ({f"s_{b}": prefix[b] for b in range(n_corr)}
                      if n_reps == 1 else
                      {f"s_{k}_{b}": prefix[k * n_corr + b]
                       for k in range(n_reps) for b in range(n_corr)})
            corrected = reps[0]
            for b, c in enumerate(correction_basis):
                corrected = corrected + c.scale(prefix[b])
            flat = corrected.flat()
            residual = EdgeChain.from_flat(linalg.vec_sub(
                probe.image(flat), space.canonical_vec(flat)))
            return SupplementCertificate(False, None, forced, pidx, residual)
    section = []
    for k in range(n_reps):
        corrected = reps[k]
        for b, c in enumerate(correction_basis):
            corrected = corrected + c.scale(solution[k * n_corr + b])
        section.append(corrected)
    return SupplementCertificate(True, section, None, None, None)
