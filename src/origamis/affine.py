"""Affine diffeomorphisms as exact matrices on the edge chain space.

A Veech group element M is lifted by decomposing M into runs letter^k of
the generators (``sl2z_word``), composing one edge substitution per run along
the SL(2,Z) orbit of the origami, and closing up with a relabeling
isomorphism from the final origami back to the start. Lifts are integer
matrices on the full 2n-dimensional chain space; equality is always tested
on canonical forms.

The letter substitutions (target origami listed first) are

    T:  (r, u r^-1)   sigma_g -> sigma_g,            zeta_g -> sigma_g + zeta_{r g}
    T-: (r, u r)      sigma_g -> sigma_g,            zeta_g -> zeta_{r^-1 g} - sigma_{r^-1 g}
    S:  (r u^-1, u)   zeta_g  -> zeta_g,             sigma_g -> zeta_g + sigma_{u g}
    S-: (r u, u)      zeta_g  -> zeta_g,             sigma_g -> sigma_{u^-1 g} - zeta_{u^-1 g}

each of which maps the square relations of the source exactly onto those of
the target and fixes every vertex (so vertex classes carry over by label).
Each letter's substitution is inverted by the opposite letter's substitution
on its target, so a word is undone by transporting its inverse word back.

A word is transported on whole integer rows: the map so far is multiplied on
the left by each letter's substitution, whose rows have at most two entries,
each +-1. So a letter is n row moves (the zeta rows of T and T-, the sigma
rows of S and S-, re-indexed and shared, not copied) plus n row additions
(T, S) or subtractions (T-, S-) onto the other block. A run (letter, k)
of the word is one such step, by the closed forms

    T^k:   zeta_g  -> zeta_{r^k g}  + sum_{0<=i<k} sigma_{r^i g}
    T^-k:  zeta_g  -> zeta_{r^-k g} - sum_{1<=i<=k} sigma_{r^-i g}
    S^k:   sigma_g -> sigma_{u^k g}  + sum_{0<=i<k} zeta_{u^i g}
    S^-k:  sigma_g -> sigma_{u^-k g} - sum_{1<=i<=k} zeta_{u^-i g}

in which a sum over k consecutive squares of a cycle of length c is
(k div c) times the cycle sum plus k mod c of its terms; a run costs a few
row operations per square, whatever its length. Runs need not be maximal:
splitting one gives the same map.
"""

from __future__ import annotations

from operator import add, sub
from typing import NamedTuple, Sequence

from . import linalg
from .errors import (Inconsistent, NotAutomorphism, NotInvariant,
                     NotInVeechGroup, OrderExceedsCap, WrongSurface)
from .homology import EdgeChain, Subspace, chain_space
from .linalg import Mat, Vec
from .origami import Origami, isomorphisms, sl2z_act, vertex_of_square
from .permutations import Perm
from .sl2z import ID2, Mat2, Runs, mat_inv, mat_mul, sl2z_word


class EdgeSubstitution(NamedTuple):
    source: Origami
    target: Origami
    rows: tuple[tuple[tuple[int, int], ...], ...]  # row -> ((col, coeff), ...)


def _run_rows(letter: str, k: int, origami: Origami,
              rows: Sequence[Vec]) -> list[Vec]:
    """The rows of (substitution of letter^k on origami) * rows.

    Each cycle of p (r for T and T-, u for S and S-) is walked with the step
    p^-1 (T, S) or p (T-, S-) as x_0, x_1, ..., indices mod its length c.
    The moving row x_t (zeta for T, sigma for S) becomes the row x_{t+k}.
    The fixed row x_t gains (T, S) or loses (T-, S-) the window of moving
    rows x_{t+o}, ..., x_{t+o+k-1}, with o = 0 (T, S) or 1 (T-, S-). The
    first window is (k div c) cycle sums plus k mod c rows; each next one
    slides a step along the walk.
    """
    n = origami.n
    perm, moving, fixed = (origami.r, n, 0) if letter in ("T", "T-") \
        else (origami.u, 0, n)
    forward = letter in ("T", "S")
    combine = add if forward else sub
    out = list(rows)
    for cycle in perm.cycles():
        walk = cycle[::-1] if forward else cycle
        c = len(walk)
        moved = [rows[moving + x] for x in walk]
        added = moved if forward else moved[1:] + moved[:1]  # row x_{t+o}
        for t, x in enumerate(walk):
            out[moving + x] = moved[(t + k) % c]
            if k == 1:
                window = added[t]
            elif t:
                window = tuple(map(add, map(sub, window, added[t - 1]),
                                   added[(t - 1 + k) % c]))
            else:
                window = tuple(k // c * x for x in map(sum, zip(*moved)))
                for row in added[:k % c]:
                    window = tuple(map(add, window, row))
            out[fixed + x] = tuple(map(combine, rows[fixed + x], window))
    return out


def elementary_substitution(letter: str, origami: Origami) -> EdgeSubstitution:
    """One letter's substitution as sparse rows: its run of length one
    applied to the identity."""
    dense = _run_rows(letter, 1, origami, linalg.identity(2 * origami.n))
    rows = tuple(tuple((col, x) for col, x in enumerate(row) if x) for row in dense)
    return EdgeSubstitution(origami, sl2z_act(letter, origami), rows)


def transport(origami: Origami, runs: Runs) -> tuple[Origami, Mat]:
    """Push the substitutions of a word's runs (rightmost run first) through
    the integer identity, one step per run: (final origami, chain map into
    it)."""
    current = origami
    total = linalg.identity(2 * origami.n)
    for letter, k in reversed(runs):
        total, current = (_run_rows(letter, k, current, total),
                          sl2z_act(letter, current, k))
    return current, tuple(total)


def _relabel_rows(matrix: Mat, phi: Perm) -> Mat:
    """(relabeling by phi) * matrix: row phi(g) <- row g in both blocks."""
    n = len(matrix) // 2
    back = phi.inverse()
    return tuple(matrix[back(g)] for g in range(n)) + \
        tuple(matrix[n + back(g)] for g in range(n))


def _vertex_map_by_label(origami: Origami, phi: Perm) -> Perm:
    """Vertex-class permutation induced by the square map g -> phi(g)."""
    owner = vertex_of_square(origami)
    images: dict[int, int] = {}
    for g in range(origami.n):
        prior = images.setdefault(owner[g], owner[phi(g)])
        if prior != owner[phi(g)]:
            raise Inconsistent("square map does not respect vertex classes")
    return Perm([images[k] for k in range(len(images))])


class AffineLift(NamedTuple):
    """(derivative, chain matrix, vertex action, closing relabeling) of an
    affine diffeomorphism."""

    origami: Origami
    linear: Mat2
    matrix: Mat
    vertex_perm: Perm
    relabeling: Perm

    def apply(self, chain: EdgeChain) -> EdgeChain:
        return EdgeChain.from_flat(linalg.mat_vec(self.matrix, chain.flat()))

    def image(self, v: Vec) -> Vec:
        """The canonical form of the image of the flat vector v."""
        return chain_space(self.origami).canonical_vec(linalg.mat_vec(self.matrix, v))

    def compose(self, other: "AffineLift") -> "AffineLift":
        """self after other."""
        if self.origami != other.origami:
            raise WrongSurface("lifts of different origamis")
        return AffineLift(
            self.origami,
            mat_mul(self.linear, other.linear),
            linalg.mat_mul(self.matrix, other.matrix),
            self.vertex_perm * other.vertex_perm,
            self.relabeling * other.relabeling,
        )

    def inverse(self) -> "AffineLift":
        return AffineLift(
            self.origami,
            mat_inv(self.linear),
            linalg.mat_inv(self.matrix),
            self.vertex_perm.inverse(),
            self.relabeling.inverse(),
        )

    def is_identity(self) -> bool:
        if self.linear != ID2 or not self.vertex_perm.is_identity():
            return False
        space = chain_space(self.origami)
        for j, col in enumerate(linalg.transpose(self.matrix)):
            # column j differs from the unit vector e_j by a relation
            if any(space.canonical_vec(tuple(x - (k == j) for k, x in enumerate(col)))):
                return False
        return True

    def same_action(self, other: "AffineLift") -> bool:
        return self.compose(other.inverse()).is_identity()

    def __pow__(self, k: int) -> "AffineLift":
        if k < 0:
            return self.inverse() ** (-k)
        out = identity_lift(self.origami)
        base = self
        while k:
            if k & 1:
                out = out.compose(base)
            base = base.compose(base)
            k >>= 1
        return out


def identity_lift(origami: Origami) -> AffineLift:
    return automorphism_lift(origami, Perm.identity(origami.n))


def automorphism_lift(origami: Origami, a: Perm) -> AffineLift:
    if a.n != origami.n:
        raise NotAutomorphism(f"permutation of {a.n} squares, not {origami.n}")
    if a * origami.r != origami.r * a or a * origami.u != origami.u * a:
        raise NotAutomorphism("permutation does not commute with r and u")
    return _closed(origami, ID2, linalg.identity(2 * origami.n), a)


def _closed(origami: Origami, m: Mat2, total: Mat, phi: Perm) -> AffineLift:
    """The lift whose word transport `total` is closed up by relabeling phi.

    Every letter carries vertex classes over by square label, so the vertex
    action is that of phi alone.
    """
    return AffineLift(origami, m, _relabel_rows(total, phi),
                      _vertex_map_by_label(origami, phi), phi)


def lift_all(origami: Origami, m: Mat2) -> list[AffineLift]:
    """All lifts of m, one per closing isomorphism (torsor under Aut)."""
    current, total = transport(origami, sl2z_word(m).exact_runs())
    closings = isomorphisms(current, origami)
    if not closings:
        raise NotInVeechGroup(f"{m} does not stabilize the origami")
    return [_closed(origami, m, total, phi) for phi in closings]


def lift(origami: Origami, m: Mat2) -> AffineLift:
    """Lift m to an affine diffeomorphism.

    The closing relabeling is the isomorphism fixing the base square when one
    exists, else the lexicographically least.
    """
    lifts = lift_all(origami, m)
    for lf in lifts:
        if lf.relabeling(origami.base) == origami.base:
            return lf
    return lifts[0]


def power_order(lift_: AffineLift, cap: int) -> int:
    acc = lift_
    for k in range(1, cap + 1):
        if acc.is_identity():
            return k
        acc = acc.compose(lift_)
    raise OrderExceedsCap(f"order exceeds cap {cap}")


def matrix_on(lift_: AffineLift, subspace: Subspace) -> Mat:
    """Matrix of the lift in the subspace basis (columns are images)."""
    return _matrix_in(chain_space(lift_.origami), lift_, subspace.basis,
                      subspace.coords_of)


def matrix_in_chain_basis(lift_: AffineLift, basis: "list[Vec] | tuple"):
    """Matrix of the lift in an explicit (ordered, non-echelonized) basis."""
    space = chain_space(lift_.origami)
    cols_of_basis = linalg.transpose(tuple(space.canonical_vec(b) for b in basis))
    return _matrix_in(space, lift_, basis,
                      lambda image: linalg.solve(cols_of_basis, image))


def _matrix_in(space, lift_: AffineLift, basis, coords_of) -> Mat:
    """Columns are the coordinates of the basis images, each entry of
    denominator 1 an int. rref already keeps integral entries int; the
    coordinates in a basis with halves, as H1_0 of the Wollmilchsau has, come
    out of Fraction arithmetic and are turned back here."""
    columns = []
    for b in basis:
        coords = coords_of(lift_.image(b))
        if coords is None:
            raise NotInvariant("the lift does not preserve the span of the basis")
        columns.append(tuple(map(linalg.exact, coords)))
    return linalg.transpose(tuple(columns))
