"""D4 root systems from invariant vector sets: frames, Weyl group, triality.

A D4 system is exactly the 24 vectors {+-e_a +- e_b, a < b} over a frame
(e_1..e_4) (Bourbaki, Lie Groups, ch. VI 4.8), so `detect_d4` certifies a
vector set in ambient coordinates against the frame its caller pins: 24
distinct vectors, four linearly independent frame rows, and the set equal
to {+-f_a +- f_b} over them. The frame is all a system keeps, since in
frame coordinates its roots are the constant {+-e_a +- e_b}. All matrices
act on frame coordinates, where the frame is declared orthonormal.
There W(D4) is the signed permutation matrices with an even number of -1
entries, and the three frame classes ({+-e_i}, and half-vectors with an odd
or an even number of minus signs) are the W-orbits of the outer fundamental
weights w1 = e1, w3 = (1,1,1,-1)/2 and w4 = (1,1,1,1)/2: the triality label
of an automorphism is the classes it moves them into.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, reduce
from typing import Iterable, NamedTuple, Sequence

from . import linalg
from .errors import NotD4, NotInAut, OrderExceedsCap
from .linalg import Mat, Vec


class FiniteMatrixGroup:
    def __init__(self, elements: tuple[Mat, ...], actions: dict | None = None):
        self.elements = elements
        self.actions = actions or {}

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def _members(self) -> frozenset[Mat]:
        return frozenset(self.elements)

    def __contains__(self, m: Mat) -> bool:
        return m in self._members


class UnboundedWitness(NamedTuple):
    word: tuple[int, ...]
    matrix: Mat


def finite_closure(generators: Sequence[Mat], cap: int):
    """BFS closure of exact matrices; UnboundedWitness if it exceeds cap.

    The group acts on X, the union of the orbits of the unit vectors, and a
    matrix is fixed by where it sends the unit vectors, so each element is
    faithfully the permutation of X it induces. X is closed one seed at a
    time; a seed's orbit has at most as many points as the group has
    elements, so an orbit above cap already puts the closure above cap. The
    BFS then composes index tuples, m g sending x to m(g(x)), and rebuilds
    each element with column k the image of e_k. It multiplies by the
    distinct generators other than the identity: a product by a repeated
    generator or by the identity is already seen, so skipping them changes
    neither the elements nor their order. The group keeps as `actions` each
    given generator, the identity included, to its permutation of X, which
    is faithful since X holds the unit vectors; a group built from listed
    elements keeps none. The witness word indexes the generators as given."""
    gens = tuple(generators)
    if not gens:
        raise ValueError("need at least one generator")
    units = linalg.identity(len(gens[0]))
    steps = tuple(g for g in dict.fromkeys(gens) if g != units)
    points: list[Vec] = []
    index: dict[Vec, int] = {}
    images: list[list[int]] = [[] for _ in steps]
    for e in units:
        if e in index:
            continue
        seed = done = len(points)
        index[e] = seed
        points.append(e)
        while done < len(points):
            x = points[done]
            done += 1
            for g, img in zip(steps, images):
                y = linalg.mat_vec(g, x)
                if y not in index:
                    if len(points) - seed >= cap:
                        return _unbounded_witness(gens, cap)
                    index[y] = len(points)
                    points.append(y)
                img.append(index[y])
    perms = tuple(map(tuple, images))
    start = tuple(range(len(points)))
    seen = {start}
    order = [start]
    queue = [start]
    while queue:
        nxt = []
        for m in queue:
            for g in perms:
                h = tuple(map(m.__getitem__, g))
                if h not in seen:
                    seen.add(h)
                    order.append(h)
                    nxt.append(h)
                    if len(seen) > cap:
                        return _unbounded_witness(gens, cap)
        queue = nxt
    cols = [index[e] for e in units]
    actions = dict(zip(steps, perms))
    return FiniteMatrixGroup(tuple(
        linalg.transpose([points[p[k]] for k in cols]) for p in order),
        {g: actions.get(g, start) for g in gens})


def _unbounded_witness(gens: Sequence[Mat], cap: int) -> UnboundedWitness:
    for k in (1, 2, 3):
        for word in itertools.product(range(len(gens)), repeat=k):
            m = reduce(linalg.mat_mul, (gens[i] for i in word))
            if grows(m):
                return UnboundedWitness(word, m)
    raise OrderExceedsCap(f"closure exceeds cap {cap}; no short word grows")


def grows(m: Mat) -> bool:
    """True when some m^(2^k), k < 40, has an entry above 10^9 in absolute
    value: the growth test that certifies an infinite image. Once a power
    repeats, the later ones cycle through earlier ones, so the test stops."""
    powers: list[Mat] = []
    while m not in powers and len(powers) < 40:
        if max(abs(x) for row in m for x in row) > 10 ** 9:
            return True
        powers.append(m)
        m = linalg.mat_mul(m, m)
    return False


class RootSystemD4(NamedTuple):
    """A certified D4 system, kept as its frame: four ambient rows e_1..e_4
    over which the roots are {+-e_a +- e_b}, so in frame coordinates the
    roots are the constant `_ROOTS`."""
    frame: tuple[Vec, ...]

    def weyl_group(self) -> FiniteMatrixGroup:
        """W(D4): the 192 signed permutation matrices with an even number
        of -1 entries."""
        return FiniteMatrixGroup(tuple(
            m for signs, m in _signed_maps(linalg.identity(4))
            if signs.count(-1) % 2 == 0))

    def preserves_roots(self, m: Mat) -> bool:
        return {tuple(linalg.mat_vec(m, r)) for r in _ROOTS} == _ROOTS

    def triality_image(self, m: Mat) -> dict[int, int]:
        """The permutation of {1, 3, 4} labeling the coset of m in A(R)/W(R):
        a -> the frame class of m w_a."""
        if not self.preserves_roots(m):
            raise NotInAut("matrix does not preserve the root system")
        return {a: _frame_class(linalg.mat_vec(m, w)) for a, w in _WEIGHTS.items()}


def _plus_minus_pairs(frame: Sequence[Vec]) -> frozenset[Vec]:
    """{+-f_a +- f_b, a < b} over the rows f of frame."""
    return frozenset(tuple(sa * x + sb * y for x, y in zip(e, f))
                     for e, f in itertools.combinations(frame, 2)
                     for sa in (1, -1) for sb in (1, -1))


_ROOTS = _plus_minus_pairs(linalg.identity(4))

_HALF = Fraction(1, 2)
_WEIGHTS = {1: (1, 0, 0, 0),
            3: (_HALF, _HALF, _HALF, -_HALF),
            4: (_HALF, _HALF, _HALF, _HALF)}


def _frame_class(v: Vec) -> int:
    """1 for +-e_i; 3 or 4 for a half-vector with an odd or even number of
    minus signs."""
    if sorted(abs(x) for x in v) == [0, 0, 0, 1]:
        return 1
    if all(abs(x) == _HALF for x in v):
        return 3 if sum(x < 0 for x in v) % 2 else 4
    raise NotInAut("weight image lies in no frame class")


def _signed_maps(frame: Sequence[Vec]):
    """(signs, matrix) for every matrix whose column k is signs[k] times a
    frame vector, the frame vectors taken in every order."""
    for perm in itertools.permutations(range(4)):
        for signs in itertools.product((1, -1), repeat=4):
            cols = tuple(linalg.vec_scale(signs[k], frame[perm[k]]) for k in range(4))
            yield signs, linalg.transpose(cols)


def detect_d4(vectors: Iterable[Vec], frame: Sequence[Vec]) -> RootSystemD4:
    """Certify that 24 ambient vectors are {+-f_a +- f_b} over four linearly
    independent ambient frame rows f, whose order and signs fix the triality
    labels. A vector of another length or outside the frame's span fails the
    set test."""
    vecs = set(map(tuple, vectors))
    if len(vecs) != 24:
        raise NotD4(f"expected 24 distinct vectors, got {len(vecs)}")
    frame = tuple(map(tuple, frame))
    if (len(frame) != 4 or len(set(map(len, frame))) != 1
            or len(linalg.rref(frame)[0]) != 4):
        raise NotD4("the frame is not 4 linearly independent rows of one length")
    if vecs != _plus_minus_pairs(frame):
        raise NotD4("vectors are not {+-e_a +- e_b} over the frame")
    return RootSystemD4(frame)


def symplectic_subgroup(group: FiniteMatrixGroup, gram: Mat) -> FiniteMatrixGroup:
    """Elements g with g^T gram g = gram."""
    kept = tuple(
        m for m in group.elements
        if linalg.mat_mul(linalg.mat_mul(linalg.transpose(m), gram), m) == gram
    )
    return FiniteMatrixGroup(kept)
