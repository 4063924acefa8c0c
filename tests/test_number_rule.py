"""The number rule: every entry an exact kernel returns is an int when it is
integral and a Fraction otherwise.

The integer-numerator kernels (`linalg.rref`, `ChainSpace.canonical_vec`,
`Subspace.coords_of`, `AffineLift.image`, and `ChainSpace.intersection` and
`gram` on the dual row) are checked against the entry by entry Fraction
computations they replaced, kept here as `_reference_*` helpers: equal
values, each entry typed by the rule.
"""

import functools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _walk_reference import germ_positions
from origamis import linalg
from origamis.affine import lift_all, matrix_in_chain_basis, matrix_on
from origamis.catalog import catalog
from origamis.errors import NotAbsolute
from origamis.homology import EdgeChain, chain_space
from origamis.invariants import multitwist
from origamis.sl2z import S_MAT, T_MAT, mat_pow
from origamis.origami import make_origami
from origamis.permutations import random_transitive_pair
from origamis.rootsys import FiniteMatrixGroup, finite_closure
from origamis.structure import combined_action
from test_origami import _transitive_origamis


def _all_int(rows) -> bool:
    return all(type(x) is int for row in rows for x in row)


def _no_float(obj) -> bool:
    if isinstance(obj, (tuple, list)):
        return all(_no_float(x) for x in obj)
    return type(obj) in (int, Fraction)


def _generators(report):
    return [lf for k, lf in report.lifts.items()
            if k in ("S", "T") or k.startswith("aut_")]


def test_matrix_on_blocks_are_int(ew_report, orn3_report):
    cases = [(ew_report, "H1_0"), (ew_report, "H_rel"), (orn3_report, "H_breve")]
    for report, name in cases:
        sub = report.subspaces[name]
        for lf in _generators(report):
            assert _all_int(matrix_on(lf, sub)), name


def test_theorem_a_combined_action_and_closure_are_int(ew_report):
    subs = [ew_report.subspaces["H1_0"], ew_report.subspaces["H_rel"]]
    actions = [combined_action(lf, subs) for lf in _generators(ew_report)]
    assert all(_all_int(m) for m in actions)
    closure = finite_closure(actions, 2000)
    assert isinstance(closure, FiniteMatrixGroup) and closure.order == 384
    assert all(_all_int(m) for m in closure.elements)


def test_canonical_vec_keeps_ints_and_halves(ew):
    rng = random.Random(7)
    origamis = [ew.origami] + [make_origami(n, *random_transitive_pair(n, rng))
                               for n in (3, 5, 7)]
    for origami in origamis:
        space = chain_space(origami)
        for _ in range(5):
            v = tuple(rng.randint(-3, 3) for _ in range(2 * origami.n))
            assert all(type(x) is int for x in space.canonical_vec(v))
    space = chain_space(ew.origami)
    free = space.full_subspace().pivots[0]
    half = tuple(Fraction(int(j == free), 2) for j in range(2 * ew.origami.n))
    assert space.canonical_vec(half) == half


def test_root_systems_hold_no_float(ew_root_system, orn3_root_system,
                                    ew_roots, orn3_roots):
    for system, roots in ((ew_root_system[3], ew_roots),
                          (orn3_root_system, orn3_roots)):
        assert _no_float(system) and _no_float(tuple(roots))
        assert all(type(x) is int or x.denominator > 1
                   for row in system.frame for x in row)


def test_integral_basis_is_int_and_its_gram_exact(ew, orn3, appendix_b):
    for surface in (ew, orn3, appendix_b):
        space = chain_space(surface.origami)
        basis = space.integral_absolute_basis()
        assert _all_int(basis)
        assert _all_int(space.gram(basis))


def test_subspace_bases_from_rref_are_int(orn3_report, orn5_report):
    for report in (orn3_report, orn5_report):
        space = chain_space(report.origami)
        assert _all_int(report.subspaces["H_breve"].basis)
        assert _all_int(space.marked_subspace(space.singular_vertices()).basis)


def _orn_eps_frame(orn3_d4_args):
    """The flat chains eps/2 whose classes are theorem B's pinned D4 frame;
    they hold halves, though the frame's canonical vectors are integral."""
    return [c.scale(Fraction(1, 2)).flat() for c in orn3_d4_args[1]]


def test_lift_matrices_solve_and_mat_inv_follow_the_rule(
        ew_root_system, orn3, orn3_report, orn3_d4_args, appendix_b):
    """On ew, orn q = 3 and appendix-b, with bases holding halves (theorem
    A's D4 frame, the orn eps/2 frame, appendix-b's integral basis halved):
    every entry of matrix_on, matrix_in_chain_basis, solve and mat_inv is an
    int exactly when it is integral, and both kinds occur."""
    _, ew_report, ew_space, system = ew_root_system
    ab_space = chain_space(appendix_b.origami)
    ab_frame = [tuple(Fraction(x, 2) for x in b)
                for b in ab_space.integral_absolute_basis()]
    cases = [
        (ew_space, _generators(ew_report), ew_report.subspaces.values(),
         system.frame),
        (chain_space(orn3.origami), _generators(orn3_report),
         orn3_report.subspaces.values(), _orn_eps_frame(orn3_d4_args)),
        (ab_space, [multitwist(appendix_b.origami, d).lift
                    for d in ((0, 1), (1, 0), (1, 1))],
         [ab_space.full_subspace(), ab_space.absolute_subspace()], ab_frame),
    ]
    outputs = [linalg.mat_inv(ab_space.gram(ab_frame))]
    for space, lifts, subspaces, frame in cases:
        assert any(type(x) is Fraction for b in frame for x in b)
        cols = linalg.transpose(tuple(space.canonical_vec(b) for b in frame))
        for lift_ in lifts:
            outputs += [matrix_on(lift_, sub) for sub in subspaces]
            z = matrix_in_chain_basis(lift_, frame)
            outputs += [z, linalg.mat_inv(z)]
            outputs.append([linalg.solve(cols, lift_.image(b)) for b in frame])
            outputs.append([linalg.solve(cols, lift_.image(tuple(2 * x for x in b)))
                            for b in frame])
    entries = [x for m in outputs for row in m for x in row]
    assert all(type(x) is (int if x.denominator == 1 else Fraction) for x in entries)
    assert set(map(type, entries)) == {int, Fraction}


# -- the integer-numerator kernels against the Fraction eliminations ----------


def _reference_rref(a):
    """Gauss-Jordan over Q entry by entry, integral entries made ints."""
    rows = [list(row) for row in a]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(rank, nrows) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        p = rows[rank][col]
        inv = p if p in (1, -1) else Fraction(1) / p
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(nrows):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return tuple(tuple(map(linalg.exact, row)) for row in rows[:rank]), pivots


@functools.lru_cache(16)
def _reference_reducer(space):
    """The space's reducer read apart from the one it checks: the pivots
    and rows of the Fraction rref of its relation rows."""
    rows, pivots = _reference_rref(space.relation_rows)
    return list(zip(pivots, rows))


def _reference_canonical_vec(space, v):
    v = list(v)
    for p, row in _reference_reducer(space):
        if v[p] != 0:
            f = v[p]
            v = [x - f * y for x, y in zip(v, row)]
    return tuple(v)


def _reference_coords_of(sub, v):
    coords = []
    v = list(v)
    for row, p in zip(sub.basis, sub.pivots):
        coords.append(v[p])
        if v[p] != 0:
            f = v[p]
            v = [x - f * y for x, y in zip(v, row)]
    if any(x != 0 for x in v):
        return None
    return tuple(coords)


def _reference_image(lift_, v):
    space = chain_space(lift_.origami)
    return _reference_canonical_vec(
        space, tuple(sum(x * v[j] for j, x in row) for row in lift_.rows))


def _typed(entries):
    return None if entries is None else [(type(x), x) for x in entries]


def _canonical(entries):
    """The entries typed by the number rule: int exactly when the
    denominator is 1."""
    return None if entries is None else \
        [(int if x.denominator == 1 else Fraction, x) for x in entries]


def _made_int(entries, reference) -> bool:
    """Whether some entry's reference is an integral Fraction; each such
    entry must be an int."""
    made = [type(x) for x, y in zip(entries or (), reference or ())
            if type(y) is Fraction and y.denominator == 1]
    assert set(made) <= {int}
    return bool(made)


def _rational(rng):
    """An int, an integral Fraction, a Fraction zero or a Fraction of
    denominator up to 4, all within 5."""
    kind = rng.randrange(5)
    n = rng.randint(-5, 5)
    if kind == 0:
        return n
    if kind == 1:
        return Fraction(n)
    if kind == 2:
        return rng.choice((0, Fraction(0)))
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _vector(rng, width, mix):
    """A vector whose entries are ints, rationals of `_rational` with
    probability mix, and zeros."""
    return tuple(_rational(rng) if rng.random() < mix else
                 rng.choice((0, rng.randint(-3, 3))) for _ in range(width))


def _matrix(rng, rows, cols):
    mix = rng.choice((0, 0.2, 1))
    m = [_vector(rng, cols, mix) for _ in range(rows)]
    if rows > 1 and rng.random() < 0.3:
        m[-1] = tuple(0 for _ in range(cols))
    if rows > 1 and rng.random() < 0.3:
        m[0] = tuple(2 * x for x in m[-1])
    return tuple(m)


_RATIONALS = st.one_of(st.integers(-5, 5), st.integers(-5, 5).map(Fraction),
                       st.fractions(-5, 5, max_denominator=4))


def test_rref_matches_reference_on_seeded_rational_matrices():
    rng = random.Random(19)
    for _ in range(1500):
        a = _matrix(rng, rng.randrange(0, 7), rng.randrange(1, 8))
        reduced, pivots = linalg.rref(a)
        expected, expected_pivots = _reference_rref(a)
        assert pivots == expected_pivots
        assert list(map(_typed, reduced)) == list(map(_typed, expected))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7).flatmap(lambda cols: st.lists(
    st.lists(_RATIONALS, min_size=cols, max_size=cols), max_size=6)))
def test_rref_matches_reference_on_hypothesis_matrices(rows):
    a = tuple(map(tuple, rows))
    reduced, pivots = linalg.rref(a)
    expected, expected_pivots = _reference_rref(a)
    assert pivots == expected_pivots
    assert list(map(_typed, reduced)) == list(map(_typed, expected))


def _surfaces(ew, orn3, appendix_b, count=6):
    rng = random.Random(23)
    return [ew.origami, orn3.origami, appendix_b.origami] + \
        [make_origami(n, *random_transitive_pair(n, rng))
         for n in (3, 4, 5, 6, 7, 8)[:count]]


def test_canonical_vec_coords_of_and_image_match_references(ew, orn3, appendix_b):
    """Every entry typing occurs: all int and mixed vectors, coordinates
    that are None or mixed, and for each kernel an entry whose reference is
    an integral Fraction, which comes out as an int."""
    rng = random.Random(29)
    seen = set()
    for origami in _surfaces(ew, orn3, appendix_b):
        space = chain_space(origami)
        width = 2 * origami.n
        # T^a and S^b with a, b the orders of r and u are in every Veech group
        lifts = [lift_all(origami, mat_pow(m, lcm(*map(len, p.cycles()))))[0]
                 for m, p in ((T_MAT, origami.r), (S_MAT, origami.u))]
        subspaces = [space.full_subspace(), space.absolute_subspace(),
                     space.subspace_from_vecs(
                         [_vector(rng, width, 0.5) for _ in range(3)])]
        for _ in range(25):
            v = _vector(rng, width, rng.choice((0, 0.1, 0.5, 1)))
            canonical = space.canonical_vec(v)
            expected = _reference_canonical_vec(space, v)
            assert _typed(canonical) == _canonical(expected)
            seen.add(frozenset(map(type, canonical)))
            if _made_int(canonical, expected):
                seen.add("canonical_vec")
            for lift_ in lifts:
                image, expected = lift_.image(v), _reference_image(lift_, v)
                assert _typed(image) == _canonical(expected)
                if _made_int(image, expected):
                    seen.add("image")
            for sub in subspaces:
                # a vector of the span, with rational coordinates, and v
                inside = [0] * width
                for row in sub.basis:
                    c = _rational(rng)
                    inside = [x + c * y for x, y in zip(inside, row)]
                for w in (tuple(inside), space.canonical_vec(v), v):
                    coords = sub.coords_of(w)
                    expected = _reference_coords_of(sub, w)
                    assert _typed(coords) == _canonical(expected)
                    seen.add(("coords", None if coords is None
                              else frozenset(map(type, coords))))
                    if _made_int(coords, expected):
                        seen.add("coords_of")
    assert {frozenset({int}), frozenset({int, Fraction})} <= seen
    assert {("coords", None), ("coords", frozenset({int, Fraction}))} <= seen
    assert {"canonical_vec", "image", "coords_of"} <= seen


@functools.lru_cache(4)
def _power_lifts(origami):
    """One lift each of T^a and S^b, a and b the orders of r and u, which
    lie in every Veech group."""
    return [lift_all(origami, mat_pow(m, lcm(*map(len, p.cycles()))))[0]
            for m, p in ((T_MAT, origami.r), (S_MAT, origami.u))]


_WIDE_SPARSE = st.one_of(
    st.integers(1, 12).flatmap(_transitive_origamis),
    st.builds(lambda: catalog("ornithorynque", q=15).origami))


@settings(max_examples=40, deadline=None, database=None)
@given(st.data())
def test_canonical_forms_match_references_on_wide_sparse_reducers(data):
    """Random transitive origamis (n <= 12) and orn q = 15, whose reducer
    rows are wider and sparser than the fixed surfaces': on integer and
    half-integer vectors, `canonical_vec`, `coords_of` and `AffineLift.image`
    equal the references, entry types included."""
    origami = data.draw(_WIDE_SPARSE)
    space = chain_space(origami)
    width = 2 * origami.n
    d = data.draw(st.sampled_from((1, 2)))
    v = tuple(Fraction(x, d) if d > 1 else x for x in data.draw(
        st.lists(st.integers(-4, 4), min_size=width, max_size=width)))
    assert _typed(space.canonical_vec(v)) == \
        _canonical(_reference_canonical_vec(space, v))
    for lift_ in _power_lifts(origami):
        assert _typed(lift_.image(v)) == _canonical(_reference_image(lift_, v))
    for sub in (space.full_subspace(), space.absolute_subspace()):
        for w in (space.canonical_vec(v), v):
            assert _typed(sub.coords_of(w)) == \
                _canonical(_reference_coords_of(sub, w))


@settings(max_examples=80, deadline=None)
@given(st.lists(_RATIONALS, min_size=16, max_size=16))
def test_canonical_vec_and_image_match_references_on_hypothesis_vectors(ew, v):
    space = chain_space(ew.origami)
    v = tuple(v)
    assert _typed(space.canonical_vec(v)) == \
        _canonical(_reference_canonical_vec(space, v))
    for lift_ in lift_all(ew.origami, T_MAT)[:2]:
        assert _typed(lift_.image(v)) == _canonical(_reference_image(lift_, v))
    sub = space.subspace_from_vecs([v, v[::-1]])
    for w in (space.canonical_vec(v), v):
        assert _typed(sub.coords_of(w)) == _canonical(_reference_coords_of(sub, w))


def _reference_intersection(space, a, b):
    """The intersection form with b's germ prefix table rebuilt for each
    pair, both boundaries checked and the terms summed entry by entry, so an
    integral value of chains holding halves is a Fraction."""
    av, bv = a.flat(), b.flat()
    if any(x != 0 for x in space.boundary_vec(av)) or \
       any(x != 0 for x in space.boundary_vec(bv)):
        raise NotAbsolute("intersection form needs absolute classes")
    n = space.n
    prefix = []
    for germs in space._germs:
        sums = [0]
        for kind, etype, g in germs:
            coeff = bv[g if etype == "s" else n + g]
            sums.append(sums[-1] + (coeff if kind == "out" else -coeff))
        prefix.append(sums)
    positions = germ_positions(space)
    total = 0
    for j, coeff in enumerate(av):
        if coeff:
            etype = "s" if j < n else "z"
            head, arrival = positions["in", etype, j % n]
            tail, departure = positions["out", etype, j % n]
            total += coeff * (prefix[head][arrival] - prefix[tail][departure + 1])
    return total


def test_intersection_and_gram_match_reference(ew_root_system, orn3, orn3_d4_args,
                                               appendix_b):
    """Theorem A's D4 frame of halves, the orn q = 3 eps/2 frame,
    appendix-b's integral basis halved and the integral bases of seeded
    random origamis with n <= 9: every intersection number and gram entry
    equals the reference, an int exactly when it is integral. The ew
    frame's gram is all int, though its reference entries are Fractions."""
    _, _, ew_space, system = ew_root_system
    ab_space = chain_space(appendix_b.origami)
    cases = [(ew_space, system.frame),
             (chain_space(orn3.origami), _orn_eps_frame(orn3_d4_args)),
             (ab_space, [tuple(Fraction(x, 2) for x in b)
                         for b in ab_space.integral_absolute_basis()])]
    rng = random.Random(31)
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 9):
        space = chain_space(make_origami(n, *random_transitive_pair(n, rng)))
        cases.append((space, space.integral_absolute_basis()))
    seen = set()
    for space, basis in cases:
        chains = [EdgeChain.from_flat(v) for v in basis]
        expected = [[_reference_intersection(space, a, b) for b in chains]
                    for a in chains]
        gram = space.gram(basis)
        assert list(map(_typed, gram)) == list(map(_canonical, expected))
        for a, row in zip(chains, expected):
            assert _typed([space.intersection(a, b) for b in chains]) == _canonical(row)
        seen |= {type(x) for row in gram for x in row}
    assert _all_int(ew_space.gram(system.frame))
    assert seen == {int, Fraction}


def test_intersection_and_gram_reject_a_relative_class(ew):
    space = chain_space(ew.origami)
    absolute = EdgeChain.from_flat(space.integral_absolute_basis()[0])
    relative = ew.sigma("1")
    for bad in (relative, relative.scale(Fraction(1, 2))):
        with pytest.raises(NotAbsolute):
            space.intersection(bad, absolute)
        with pytest.raises(NotAbsolute):
            space.intersection(absolute, bad)
        with pytest.raises(NotAbsolute):
            space.gram([absolute.flat(), bad.flat()])
