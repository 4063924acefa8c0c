"""Affine diffeomorphisms as exact sparse integer maps on the edge chain space.

A Veech group element M is lifted by decomposing M into runs letter^k of
the generators (``sl2z_word``), composing one edge substitution per run along
the SL(2,Z) orbit of the origami, and closing up with a relabeling
isomorphism from the final origami back to the start. A lift keeps its map
on the 2n-dimensional chain space as sparse integer rows (`linalg.Row`), so
equal maps have equal rows. Products read those rows; images and the
identity test (on the free columns only) read them transposed into columns
once per call. Equality of classes is tested on canonical forms.

The letter substitutions (target origami listed first) are

    T:  (r, u r^-1)   sigma_g -> sigma_g,            zeta_g -> sigma_g + zeta_{r g}
    T-: (r, u r)      sigma_g -> sigma_g,            zeta_g -> zeta_{r^-1 g} - sigma_{r^-1 g}
    S:  (r u^-1, u)   zeta_g  -> zeta_g,             sigma_g -> zeta_g + sigma_{u g}
    S-: (r u, u)      zeta_g  -> zeta_g,             sigma_g -> sigma_{u^-1 g} - zeta_{u^-1 g}

each of which maps the square relations of the source exactly onto those of
the target and fixes every vertex (so vertex classes carry over by label).
Each letter's substitution is inverted by the opposite letter's substitution
on its target, so a word is undone by transporting its inverse word back.

A word is transported on whole sparse integer rows: the map so far is
multiplied on the left by each letter's substitution, whose rows have at
most two entries, each +-1. So a letter is n row moves (the zeta rows of T
and T-, the sigma rows of S and S-, re-indexed and shared, not copied) plus
n row additions (T, S) or subtractions (T-, S-) onto the other block. A run
(letter, k) of the word is one such step, by the closed forms

    T^k:   zeta_g  -> zeta_{r^k g}  + sum_{0<=i<k} sigma_{r^i g}
    T^-k:  zeta_g  -> zeta_{r^-k g} - sum_{1<=i<=k} sigma_{r^-i g}
    S^k:   sigma_g -> sigma_{u^k g}  + sum_{0<=i<k} zeta_{u^i g}
    S^-k:  sigma_g -> sigma_{u^-k g} - sum_{1<=i<=k} zeta_{u^-i g}

in which a sum over k consecutive squares of a cycle of length c is
(k div c) times the cycle sum plus k mod c of its terms; a run costs a few
row operations per square, whatever its length. Runs need not be maximal:
splitting one gives the same map.

A lift also keeps its word. Relabelings commute with substitutions, so a
product concatenates words and multiplies closings, and a lift's exact
inverse is its inverse word's transport closed by the inverse relabeling.
"""

from __future__ import annotations

from itertools import compress
from typing import NamedTuple, Sequence

from . import linalg
from .errors import (Inconsistent, NotAutomorphism, NotInvariant,
                     NotInVeechGroup, OrderExceedsCap, WrongSurface)
from .homology import EdgeChain, Subspace, chain_space
from .linalg import Mat, Row, Vec, dense_view
from .origami import Origami, isomorphisms, sl2z_act, vertex_of_square
from .permutations import Perm
from .sl2z import (ID2, Mat2, Runs, inverse_runs, mat_inv, mat_mul,
                   sl2z_word)


def _run_rows(letter: str, k: int, origami: Origami,
              rows: Sequence[dict]) -> list[dict]:
    """The {col: coeff} rows of (substitution of letter^k on origami) * rows.

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
    sign = 1 if forward else -1
    out = list(rows)
    for cycle in perm.cycles():
        walk = cycle[::-1] if forward else cycle
        c = len(walk)
        moved = [rows[moving + x] for x in walk]
        added = moved if forward else moved[1:] + moved[:1]  # row x_{t+o}
        window: dict = {}
        for row in moved if k >= c else ():
            linalg._add_to(window, row.items(), k // c)
        for row in added[:k % c]:
            linalg._add_to(window, row.items())
        for t, x in enumerate(walk):
            out[moving + x] = moved[(t + k) % c]
            if k == 1:
                terms = added[t]
            else:
                if t:
                    linalg._add_to(window, added[t - 1].items(), -1)
                    linalg._add_to(window, added[(t - 1 + k) % c].items())
                terms = window
            out[fixed + x] = linalg._add_to(rows[fixed + x].copy(), terms.items(), sign)
    return out


def transport(origami: Origami, runs: Runs, rows: Sequence[dict] | None = None
              ) -> tuple[Origami, tuple[Row, ...]]:
    """Push the substitutions of a word's runs (rightmost run first) through
    the {col: coeff} rows of a map into the chain space (the identity if
    None), one step per run: (final origami, the rows of the chain map into
    it times that map)."""
    current = origami
    if rows is None:
        rows = [{j: 1} for j in range(2 * origami.n)]
    for letter, k in reversed(runs):
        rows, current = (_run_rows(letter, k, current, rows),
                         sl2z_act(letter, current, k))
    return current, tuple(map(linalg._row, rows))


def _relabel_rows(rows: Sequence[Row], phi: Perm) -> tuple[Row, ...]:
    """(relabeling by phi) * rows: row phi(g) <- row g in both blocks."""
    n = len(rows) // 2
    back = phi.inverse()
    return tuple(rows[back(g)] for g in range(n)) + \
        tuple(rows[n + back(g)] for g in range(n))


def _vertex_map_by_label(origami: Origami, phi: Perm) -> Perm:
    """Vertex-class permutation induced by the square map g -> phi(g)."""
    owner = vertex_of_square(origami)
    images: dict[int, int] = {}
    for g in range(origami.n):
        prior = images.setdefault(owner[g], owner[phi(g)])
        if prior != owner[phi(g)]:
            raise Inconsistent("square map does not respect vertex classes")
    return Perm([images[k] for k in range(len(images))])


def _columns(rows: Sequence[Row]) -> list[list[tuple[int, int]]]:
    """The (row, coeff) pairs of each column of the square Rows."""
    columns: list[list[tuple[int, int]]] = [[] for _ in rows]
    for i, row in enumerate(rows):
        for j, x in row:
            columns[j].append((i, x))
    return columns


class AffineLift(NamedTuple):
    """An affine diffeomorphism: its derivative, its chain map as sparse
    integer rows (`matrix` is their `dense_view`), its
    vertex action, and the closing and word of its transport."""

    origami: Origami
    linear: Mat2
    rows: tuple[Row, ...]
    vertex_perm: Perm
    relabeling: Perm
    runs: Runs

    matrix = property(lambda self: dense_view(self.rows))

    def _reader(self):
        """The map v -> (its image on v's integer numerators, their lcm d),
        read at v's nonzeros off the columns the rows are transposed into."""
        columns = _columns(self.rows)

        def image_over(v: Vec) -> tuple[list[int], int]:
            d, (ints,) = linalg._over_lcm((v,))
            out = [0] * len(columns)
            for f, column in zip(compress(ints, ints), compress(columns, ints)):
                for i, x in column:
                    out[i] += f * x
            return out, d
        return image_over

    def apply(self, chain: EdgeChain) -> EdgeChain:
        return EdgeChain.from_flat(linalg._divided(*self._reader()(chain.flat())))

    def image(self, v: Vec) -> Vec:
        """The canonical form of the image of the flat vector v."""
        return chain_space(self.origami).canonical_over(*self._reader()(v))

    def compose(self, other: "AffineLift") -> "AffineLift":
        """self after other."""
        if self.origami != other.origami:
            raise WrongSurface("lifts of different origamis")
        return AffineLift(
            self.origami,
            mat_mul(self.linear, other.linear),
            linalg._product(self.rows, other.rows),
            self.vertex_perm * other.vertex_perm,
            self.relabeling * other.relabeling,
            self.runs + other.runs,
        )

    def inverse(self) -> "AffineLift":
        """The inverse word's transport closed by the inverse relabeling."""
        runs = inverse_runs(self.runs)
        return _closed(self.origami, mat_inv(self.linear), runs,
                       transport(self.origami, runs)[1],
                       self.relabeling.inverse())

    def is_identity(self) -> bool:
        """Whether the lift fixes the derivative, the vertex classes and the
        class of e_j, its own canonical form, for each free column j: column
        j - e_j reduces to 0. That is exact: those e_j span the chain space
        modulo the relations, which every lift maps into themselves."""
        if self.linear != ID2 or not self.vertex_perm.is_identity():
            return False
        space, columns = chain_space(self.origami), _columns(self.rows)
        for j in space.free:
            moved = [0] * len(columns)
            for i, x in columns[j] + [(j, -1)]:  # column j - e_j
                moved[i] += x
            if any(space.canonical_over(moved, 1)):
                return False
        return True


def automorphism_lift(origami: Origami, a: Perm) -> AffineLift:
    """The translation by a: the empty word closed by a (permutation rows)."""
    if a.n != origami.n:
        raise NotAutomorphism(f"permutation of {a.n} squares, not {origami.n}")
    if a * origami.r != origami.r * a or a * origami.u != origami.u * a:
        raise NotAutomorphism("permutation does not commute with r and u")
    return _closed(origami, ID2, (), transport(origami, ())[1], a)


def _closed(origami: Origami, m: Mat2, runs: Runs, rows: Sequence[Row],
            phi: Perm) -> AffineLift:
    """The lift whose transport `rows` along runs is closed up by phi; every
    letter carries vertex classes over by label, so phi alone moves them."""
    return AffineLift(origami, m, _relabel_rows(rows, phi),
                      _vertex_map_by_label(origami, phi), phi, runs)


def _transported(origami: Origami, m: Mat2
                 ) -> tuple[Runs, tuple[Row, ...], list[Perm]]:
    """(the runs of m's word, their transport's rows, the closings of the
    transported origami onto the start, sorted)."""
    runs = sl2z_word(m).exact_runs()
    current, rows = transport(origami, runs)
    closings = isomorphisms(current, origami)
    if not closings:
        raise NotInVeechGroup(f"{m} does not stabilize the origami")
    return runs, rows, closings


def lift_all(origami: Origami, m: Mat2) -> list[AffineLift]:
    """All lifts of m, one per closing isomorphism (torsor under Aut); they
    share the rows of one transport."""
    runs, rows, closings = _transported(origami, m)
    return [_closed(origami, m, runs, rows, phi) for phi in closings]


def lift(origami: Origami, m: Mat2) -> AffineLift:
    """Lift m to an affine diffeomorphism.

    The closing relabeling is the isomorphism fixing the base square when one
    exists, else the lexicographically least; only that one is closed.
    """
    runs, rows, closings = _transported(origami, m)
    phi = next((phi for phi in closings if phi(origami.base) == origami.base),
               closings[0])
    return _closed(origami, m, runs, rows, phi)


def power_order(lift_: AffineLift, cap: int) -> int:
    acc = lift_
    for k in range(1, cap + 1):
        if acc.is_identity():
            return k
        acc = acc.compose(lift_)
    raise OrderExceedsCap(f"order exceeds cap {cap}")


def matrix_on(lift_: AffineLift, subspace: Subspace) -> Mat:
    """Matrix of the lift in the subspace basis (columns are images)."""
    return _matrix_in(lift_, subspace.basis, subspace._reader())


def matrix_in_chain_basis(lift_: AffineLift, basis: "list[Vec] | tuple"):
    """Matrix of the lift in an explicit (ordered, non-echelonized) basis."""
    space = chain_space(lift_.origami)
    cols_of_basis = linalg.transpose(tuple(space.canonical_vec(b) for b in basis))
    return _matrix_in(lift_, basis, lambda image: linalg.solve(cols_of_basis, image))


def _matrix_in(lift_: AffineLift, basis, coords_of) -> Mat:
    """Columns are the coordinates of the basis images."""
    read, canonical_over = lift_._reader(), chain_space(lift_.origami).canonical_over
    columns = []
    for b in basis:
        coords = coords_of(canonical_over(*read(b)))
        if coords is None:
            raise NotInvariant("the lift does not preserve the span of the basis")
        columns.append(coords)
    return linalg.transpose(tuple(columns))
