import functools
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _search_reference as reference
import _walk_reference as walks
import origamis.origami as origami_module
from origamis import invariants, linalg
from origamis.affine import automorphism_lift, lift_all
from origamis.errors import (EvenConeMultiplicity, Inconsistent, NotAbsolute,
                             NotInVeechGroup, NotUnimodular, OddOrderZeros,
                             ProbeMovesMarks)
from origamis.homology import ChainSpace, EdgeChain, chain_space
from origamis.invariants import (cylinders, invariant_supplement,
                                 multitwist, quadratic_form_value, spin_parity,
                                 symplectic_basis)
from origamis.origami import (automorphisms, make_origami, sl2z_act,
                              stratum_and_genus, veech_group, vertex_classes,
                              vertex_of_square)
from origamis.permutations import Perm, random_transitive_pair
from origamis.sl2z import T_MAT, eval_letters, inverse_runs, mat_pow, sl2z_word

from test_affine import _power, _reference_transport, from_normalized, to_normalized
from test_homology import (_edge_cycles, _fractions, _horizontal_core_pairing,
                           _vertical_core_pairing)

TORUS = make_origami(1, Perm([0]), Perm([0]))


def _pairing_row(decomp, row_squares):
    """Integer row pi with <core push-off, c> = pi . c for every chain c: the
    zeta rows of `to_rows` summed over the row's squares."""
    n = decomp.normalized.n
    pi = {}
    for g in row_squares:
        linalg._add_to(pi, decomp.to_rows[n + g])
    return tuple([pi.get(j, 0) for j in range(2 * n)])


def transversal_pairing(origami, direction, row_squares, chain):
    """Crossing count of a cylinder core push-off with a relative chain.

    Horizontal cores sum the zeta coefficients over the row; vertical cores
    sum -sigma over the column; other directions go through normalization.
    """
    if tuple(direction) == (1, 0):
        return _horizontal_core_pairing(row_squares, chain)
    if tuple(direction) == (0, 1):
        return _vertical_core_pairing(row_squares, chain)
    pi = _pairing_row(cylinders(origami, tuple(direction)), row_squares)
    return sum(p * x for p, x in zip(pi, chain.flat()))


def test_ew_horizontal_cylinders(ew):
    decomp = cylinders(ew.origami, (1, 0))
    assert sorted((c.width, c.height) for c in decomp.cylinders) == \
        [(4, 1), (4, 1)]


def test_appendix_b_cylinders(appendix_b):
    origami = appendix_b.origami
    assert sorted((c.width, c.height)
                  for c in cylinders(origami, (0, 1)).cylinders) == \
        [(3, 1), (5, 1), (8, 1)]
    assert sorted((c.width, c.height)
                  for c in cylinders(origami, (1, 0)).cylinders) == \
        [(4, 1), (12, 1)]
    assert sorted((c.width, c.height)
                  for c in cylinders(origami, (1, 1)).cylinders) == \
        [(4, 1), (6, 2)]


def _letters(runs):
    return tuple(letter for letter, k in runs for _ in range(k))


def test_sparse_cylinders_match_dense_references(ew, orn3, appendix_b):
    """The dense views are the letter-by-letter transports of the normalizer
    word and its inverse, and `_pairing_row` and the cores are the dense sums
    over a row's squares of the zeta rows of `to_normalized` and the columns
    of `from_normalized`."""
    rng = random.Random(2031)
    surfaces = [ew.origami, orn3.origami, appendix_b.origami] + [
        make_origami(n, *random_transitive_pair(n, rng))
        for n in (3, 4, 5, 6, 7, 8, 9) * 3][:20]
    for origami in surfaces:
        for direction in ((1, 0), (0, 1), (1, 1), (3, 2), (2, -3)):
            decomp = cylinders(origami, direction)
            runs = sl2z_word(decomp.normalizer).exact_runs()
            normalized, to_dense = _reference_transport(origami, _letters(runs))
            back, from_dense = _reference_transport(
                normalized, _letters(inverse_runs(runs)))
            assert normalized == decomp.normalized and back == origami
            assert to_normalized(decomp) == to_dense
            assert from_normalized(decomp) == from_dense
            n = normalized.n
            for cyl in decomp.cylinders:
                bottom = cyl.rows[0]
                assert _pairing_row(decomp, bottom) == tuple(
                    map(sum, zip(*(to_dense[n + g] for g in bottom))))
                assert cyl.core.flat() == tuple(
                    sum(row[g] for g in bottom) for row in from_dense)


def test_area_conservation_random_directions(ew, orn3):
    rng = random.Random(12)
    surfaces = [ew.origami, orn3.origami]
    for _ in range(3):
        n = rng.randrange(2, 8)
        r, u = random_transitive_pair(n, rng)
        surfaces.append(make_origami(n, r, u))
    directions = set()
    while len(directions) < 20:
        p, q = rng.randrange(-5, 6), rng.randrange(-5, 6)
        if (p, q) != (0, 0) and gcd(abs(p), abs(q)) == 1:
            directions.add((p, q))
    for origami in surfaces:
        for direction in directions:
            decomp = cylinders(origami, direction)
            assert sum(c.width * c.height for c in decomp.cylinders) == origami.n


def test_cylinder_cores_are_absolute(appendix_b):
    origami = appendix_b.origami
    space = chain_space(origami)
    for direction in ((0, 1), (1, 0), (1, 1)):
        for cyl in cylinders(origami, direction).cylinders:
            assert all(x == 0 for x in space.boundary(cyl.core))


def test_appendix_b_twists(appendix_b):
    origami = appendix_b.origami
    assert multitwist(origami, (0, 1)).linear == ((1, 0), (120, 1))
    assert multitwist(origami, (1, 0)).linear == ((1, 12), (0, 1))
    assert multitwist(origami, (1, 1)).linear == ((-11, 12), (-12, 13))
    assert multitwist(origami, (0, 1)).k == 120
    counts = sorted(multitwist(origami, (0, 1)).twist_counts)
    assert counts == [15, 24, 40]


def test_twist_formula_matches_lift_up_to_automorphism(ew, orn3):
    for cat in (ew, orn3):
        origami = cat.origami
        space = chain_space(origami)
        marked = space.marked_subspace(space.singular_vertices())
        if cat is ew:
            auts = [automorphism_lift(origami, p)
                    for p in [cat.left_mult(g) for g in
                              ("1", "-1", "i", "-i", "j", "-j", "k", "-k")]]
        else:
            auts = [automorphism_lift(origami, cat.shift(g)) for g in range(3)]
        for direction in ((1, 0), (0, 1)):
            tw = multitwist(origami, direction)
            matches = [
                lf for lf in lift_all(origami, tw.linear)
                if any(
                    all(space.canonical_vec(
                        linalg.mat_vec(aut.compose(lf).matrix, b))
                        == space.canonical_vec(
                            linalg.mat_vec(_formula_matrix(tw), b))
                        for b in marked.basis)
                    for aut in auts)]
            assert tw.lift.relabeling in [m.relabeling for m in matches]


def _formula_matrix(tw):
    """The twist formula of `tw` as the 2n x 2n integer matrix
    I + sum_cyl c_cyl core_cyl pi_cyl^T, rebuilt from its cylinder terms:
    pi_cyl sums the zeta rows of `to_normalized` over the bottom row, and
    c_cyl is the twist count with the sign of the shear."""
    decomp = tw.decomposition
    size, m = 2 * decomp.origami.n, decomp.normalized.n
    sign = 1 if decomp.direction[0] else -1
    matrix = [[int(i == j) for j in range(size)] for i in range(size)]
    to_dense = to_normalized(decomp)
    for cyl, count in zip(decomp.cylinders, tw.twist_counts):
        pi = [sum(to_dense[m + g][j] for g in cyl.rows[0])
              for j in range(size)]
        core = cyl.core.flat()
        for i in range(size):
            for j in range(size):
                matrix[i][j] += int(sign * count) * core[i] * pi[j]
    return tuple(map(tuple, matrix))


def _reference_twist(origami, direction):
    """The twist formula built one unit column at a time through
    `to_normalized` and EdgeChain sums, the sign picked from two candidate
    shears, and the first lift matching the formula on the marked subspace.

    Each core is the bottom row's sigma chain pushed through
    `from_normalized`, and k the least positive integer that every modulus
    divides, found by trying 1, 2, ...; both are checked against the code
    under test."""
    tw = multitwist(origami, direction)
    decomp = tw.decomposition
    v, n = decomp.direction, origami.n
    cores = []
    for cyl in decomp.cylinders:
        core_norm = EdgeChain.zero(decomp.normalized.n)
        for g in cyl.rows[0]:
            core_norm = core_norm + EdgeChain.unit(decomp.normalized.n, "s", g)
        core = EdgeChain.from_flat(
            linalg.mat_vec(from_normalized(decomp), core_norm.flat()))
        assert core == cyl.core
        cores.append(core)
    moduli = [Fraction(cyl.width, cyl.height) for cyl in decomp.cylinders]
    k = next(Fraction(k) for k in itertools.count(1)
             if all((k / modulus).denominator == 1 for modulus in moduli))
    assert k == tw.k
    counts = [k / Fraction(cyl.width, cyl.height) for cyl in decomp.cylinders]
    assert counts == tw.twist_counts
    signs = []
    for sign in (1, -1):
        b, c = sign * k * v[0] * v[0], -sign * k * v[1] * v[1]
        if (b if b != 0 else c) > 0:
            signs.append(sign)
    assert len(signs) == 1
    sign = signs[0]
    linear = ((int(1 - sign * k * v[0] * v[1]), int(sign * k * v[0] * v[0])),
              (int(-sign * k * v[1] * v[1]), int(1 + sign * k * v[1] * v[0])))
    columns, to_dense = [], to_normalized(decomp)
    for j in range(2 * n):
        unit = tuple(Fraction(int(i == j)) for i in range(2 * n))
        moved = linalg.mat_vec(to_dense, unit)
        image = EdgeChain.from_flat(unit)
        for cyl, core, count in zip(decomp.cylinders, cores, counts):
            pairing = sign * count * sum(
                (moved[decomp.normalized.n + g] for g in cyl.rows[0]),
                Fraction(0))
            image = image + core.scale(pairing)
        columns.append(image.flat())
    formula = linalg.transpose(tuple(columns))
    space = chain_space(origami)
    marked = space.marked_subspace(space.singular_vertices()) \
        if space.singular_vertices() else space.absolute_subspace()
    chosen = next(lf for lf in lift_all(origami, linear) if all(
        space.canonical_vec(linalg.mat_vec(lf.matrix, b))
        == space.canonical_vec(linalg.mat_vec(formula, b))
        for b in marked.basis))
    return tw, linear, formula, chosen


def _oracle_surfaces(seed, sizes):
    rng = random.Random(seed)
    surfaces = []
    for n in sizes:
        r, u = random_transitive_pair(n, rng)
        surfaces.append(make_origami(n, r, u))
    return surfaces


def test_twist_formula_matches_column_reference(ew, orn3, appendix_b):
    surfaces = [ew.origami, orn3.origami, appendix_b.origami] + \
        _oracle_surfaces(41, (2, 3, 4, 5, 5, 6, 6, 7))
    for origami in surfaces:
        for direction in ((1, 0), (0, 1), (1, 1)):
            tw, linear, formula, chosen = _reference_twist(origami, direction)
            assert tw.linear == linear
            assert _formula_matrix(tw) == formula
            assert all(type(x) is int for row in _formula_matrix(tw) for x in row)
            assert tw.lift.compose(chosen.inverse()).is_identity()


def test_multitwist_genus_one_without_singular_vertex():
    # every vertex is regular: the five rows merge into one cylinder
    origami = make_origami(5, Perm([0, 1, 2, 3, 4]), Perm([1, 3, 4, 2, 0]))
    tw = multitwist(origami, (1, 0))
    assert tw.linear == ((1, 1), (0, 1)) and tw.twist_counts == [5]
    assert tw.lift.linear == tw.linear
    space = chain_space(origami)
    for b in space.absolute_subspace().basis:
        assert space.canonical_vec(linalg.mat_vec(tw.lift.matrix, b)) == \
            space.canonical_vec(linalg.mat_vec(_formula_matrix(tw), b))


def test_multitwist_takes_the_least_integer_k():
    # the 3 x 2 torus: one cylinder of modulus 3/2, which 3 is a multiple of
    origami = make_origami(6, Perm([1, 2, 0, 4, 5, 3]), Perm([3, 4, 5, 0, 1, 2]))
    tw = multitwist(origami, (1, 0))
    assert tw.k == 3 and type(tw.k) is Fraction and tw.twist_counts == [2]
    assert tw.linear == tw.lift.linear == ((1, 3), (0, 1))
    assert veech_group(origami).contains(tw.linear)


def test_multitwist_is_the_formula_matching_lift():
    """On seeded random origamis, genus 1 included, the row-shear lift acts
    as the twist formula on the marked subspace (the absolute one without a
    singular vertex), and from genus 2 on it is the one lift of
    `lift_all` that does."""
    genera = set()
    for origami in _oracle_surfaces(3911, [*range(2, 11)] * 2):
        space = chain_space(origami)
        marked = space.marked_subspace(space.singular_vertices()) \
            if space.singular_vertices() else space.absolute_subspace()
        genus = stratum_and_genus(origami).genus
        genera.add(min(genus, 2))
        for direction in ((1, 0), (0, 1), (1, 1), (2, 1), (1, -3), (0, -1),
                          (-1, 0)):
            tw = multitwist(origami, direction)
            formula = _formula_matrix(tw)
            targets = [space.canonical_vec(linalg.mat_vec(formula, b))
                       for b in marked.basis]
            assert [tw.lift.image(b) for b in marked.basis] == targets
            if genus >= 2:
                (match,) = [lf for lf in lift_all(origami, tw.linear)
                            if [lf.image(b) for b in marked.basis] == targets]
                assert tw.lift.compose(match.inverse()).is_identity()
    assert genera == {1, 2}


def test_multitwist_runs_no_isomorphism_search(monkeypatch, ew, orn3,
                                               appendix_b):
    def refuse(*args):
        raise AssertionError("an isomorphism key search ran")

    invariants._decomposition.cache_clear()
    monkeypatch.setattr(origami_module, "_least_labelings", refuse)
    for cat in (ew, orn3, appendix_b):
        for direction in ((1, 0), (0, 1), (1, 1)):
            tw = multitwist(cat.origami, direction)
            assert tw.lift.linear == tw.linear


def test_multitwist_checks_its_closing(monkeypatch, appendix_b):
    """Rows read in the wrong order give a shear that does not close the
    word: the check raises rather than return a lift."""
    torus = make_origami(9, Perm([1, 2, 0, 4, 5, 3, 7, 8, 6]),
                         Perm([3, 4, 5, 6, 7, 8, 0, 1, 2]))
    cases = [(appendix_b.origami, (2, 1))] + \
        [(torus, d) for d in ((1, 0), (0, 1), (1, 1))]
    for origami, direction in cases:
        multitwist(origami, direction)
    read = invariants.cylinders

    def reversed_rows(origami, direction):
        decomp = read(origami, direction)
        return decomp._replace(cylinders=[cyl._replace(rows=cyl.rows[::-1])
                                          for cyl in decomp.cylinders])

    monkeypatch.setattr(invariants, "cylinders", reversed_rows)
    for origami, direction in cases:
        with pytest.raises(Inconsistent):
            multitwist(origami, direction)


def test_transversal_pairing_row_sums(ew):
    space = chain_space(ew.origami)
    rng = random.Random(8)
    rows = ew.origami.r.cycles()
    chain = EdgeChain(tuple(Fraction(rng.randrange(-3, 4)) for _ in range(8)),
                      tuple(Fraction(rng.randrange(-3, 4)) for _ in range(8)))
    for row in rows:
        expected = sum((chain.zeta[j] for j in row), Fraction(0))
        assert transversal_pairing(ew.origami, (1, 0), row, chain) == expected
    for col in ew.origami.u.cycles():
        expected = -sum((chain.sigma[j] for j in col), Fraction(0))
        assert transversal_pairing(ew.origami, (0, 1), col, chain) == expected


def test_index_parity_torus():
    space = chain_space(TORUS)
    square = [("s", 0, 1), ("z", 0, 1), ("s", 0, -1), ("z", 0, -1)]
    for clockwise in (False, True):
        assert walks.index_parity(space, [("s", 0, 1)], clockwise) == 0
        assert walks.index_parity(space, square, clockwise) == 1
    assert quadratic_form_value(TORUS, EdgeChain((1,), (0,))) == 1
    assert quadratic_form_value(TORUS, EdgeChain((1,), (1,))) == 1
    assert quadratic_form_value(TORUS, EdgeChain((2,), (0,))) == 0


def test_index_parity_rejects_even_multiplicity(ew):
    space = chain_space(ew.origami)
    with pytest.raises(EvenConeMultiplicity):
        walks.index_parity(space, [("s", 0, 1)])
    with pytest.raises(EvenConeMultiplicity):
        quadratic_form_value(ew.origami, EdgeChain.from_flat(space.integral_absolute_basis()[0]))
    assert quadratic_form_value(ew.origami, EdgeChain.zero(ew.origami.n)) == 0


def test_walks_that_do_not_close_raise(orn3):
    """An open edge is no closed walk and its chain has a boundary; half a
    class is not an integer chain."""
    origami = orn3.origami
    space = chain_space(origami)
    g = next(g for g in range(origami.n) if len(set(space.edge_ends[g])) == 2)
    for walk in ([], [("s", g, 1)]):
        with pytest.raises(ValueError):
            walks.index_parity(space, walk)
    with pytest.raises(NotAbsolute):
        quadratic_form_value(origami, EdgeChain.unit(origami.n, "s", g))
    half = EdgeChain.from_flat(space.integral_absolute_basis()[0]).scale(Fraction(1, 2))
    with pytest.raises(ValueError):
        quadratic_form_value(origami, half)


def test_appendix_a_loop_indices(orn3):
    origami = orn3.origami
    alpha1 = orn3.sigma(1) + orn3.sigma_p(1)
    beta1 = orn3.zeta(0) + orn3.zeta_p(0)
    assert quadratic_form_value(origami, alpha1) == 1  # ind 0
    assert quadratic_form_value(origami, beta1) == 1


def test_quadratic_refinement_random(orn3, orn5):
    for cat, count in ((orn3, 60), (orn5, 40)):
        origami = cat.origami
        space = chain_space(origami)
        basis = space.integral_absolute_basis()
        rng = random.Random(21)
        for _ in range(count):
            coeffs_a = [rng.randrange(-2, 3) for _ in basis]
            coeffs_b = [rng.randrange(-2, 3) for _ in basis]

            def build(coeffs):
                v = [Fraction(0)] * (2 * origami.n)
                for c, b in zip(coeffs, basis):
                    if c:
                        v = [x + c * y for x, y in zip(v, b)]
                return EdgeChain.from_flat(v)

            a, b = build(coeffs_a), build(coeffs_b)
            lhs = quadratic_form_value(origami, a + b)
            rhs = (quadratic_form_value(origami, a)
                   + quadratic_form_value(origami, b)
                   + int(space.intersection(a, b))) % 2
            assert lhs == rhs


def test_symplectic_basis_standard_j():
    j2 = _fractions([[0, 1], [-1, 0]])
    assert symplectic_basis(j2) == linalg.identity(2)
    j4 = _fractions([[0, 1, 0, 0], [-1, 0, 0, 0],
                     [0, 0, 0, 1], [0, 0, -1, 0]])
    assert symplectic_basis(j4) == linalg.identity(4)


def test_symplectic_basis_rejects_non_unimodular():
    with pytest.raises(NotUnimodular):
        symplectic_basis(_fractions([[0, 2], [-2, 0]]))
    # an odd rank needs no check of its own: the last row pairs to 0 with
    # everything and stops the reduction as a degenerate block
    for gram in ([[0]], [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]],
                 [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]):
        with pytest.raises(NotUnimodular, match="degenerate block"):
            symplectic_basis(_fractions(gram))


def test_symplectic_basis_accepts_exactly_the_unimodular_forms():
    """The pairing-gcd test alone decides unimodularity: on random integer
    antisymmetric matrices symplectic_basis succeeds exactly when
    |det| = 1, and then returns a unimodular C with C gram C^T = J."""
    rng = random.Random(7)
    accepted = 0
    for _ in range(300):
        m = rng.choice((2, 4, 6))
        upper = {(i, j): rng.randrange(-2, 3) for i in range(m) for j in range(i + 1, m)}
        gram = _fractions([[upper[i, j] if i < j else -upper[j, i] if i > j else 0
                            for j in range(m)] for i in range(m)])
        if abs(linalg.det(gram)) != 1:
            with pytest.raises(NotUnimodular):
                symplectic_basis(gram)
            continue
        accepted += 1
        change = symplectic_basis(gram)
        j = tuple(tuple(1 if (i % 2 == 0 and k == i + 1) else
                        -1 if (i % 2 == 1 and k == i - 1) else 0
                        for k in range(m)) for i in range(m))
        assert linalg.mat_mul(linalg.mat_mul(change, gram),
                              linalg.transpose(change)) == j
        assert abs(linalg.det(change)) == 1
    assert accepted > 20


def test_symplectic_basis_on_random_origamis():
    rng = random.Random(31)
    for _ in range(8):
        n = rng.randrange(2, 10)
        r, u = random_transitive_pair(n, rng)
        origami = make_origami(n, r, u)
        space = chain_space(origami)
        basis = space.integral_absolute_basis()
        gram = space.gram(basis)
        change = symplectic_basis(gram)
        product = linalg.mat_mul(linalg.mat_mul(change, gram),
                                 linalg.transpose(change))
        g = len(basis) // 2
        for i in range(2 * g):
            for j in range(2 * g):
                expected = (1 if (i % 2 == 0 and j == i + 1) else
                            -1 if (i % 2 == 1 and j == i - 1) else 0)
                assert product[i][j] == expected


def test_spin_parities(orn3, orn5, ew):
    assert spin_parity(TORUS).parity == "odd"
    assert spin_parity(orn3.origami).parity == "even"
    assert spin_parity(orn5.origami).parity == "even"
    with pytest.raises(OddOrderZeros):
        spin_parity(ew.origami)


def arf_parity(origami, rows, q=quadratic_form_value) -> str:
    """The Arf sum of q over the symplectic basis whose rows are coordinates
    on `integral_absolute_basis`: "even" or "odd"."""
    integral = chain_space(origami).integral_absolute_basis()
    qs = [q(origami, EdgeChain.from_flat([sum(c * b[j] for c, b in zip(row, integral))
                                          for j in range(2 * origami.n)]))
          for row in rows]
    return "odd" if sum(qs[i] * qs[i + 1] for i in range(0, len(qs), 2)) % 2 else "even"


def random_symplectic_moves(change, rng, moves):
    """The rows after `moves` random a_i += c b_i or b_i += c a_i, each of
    which keeps the form standard."""
    rows = [list(row) for row in change]
    for _ in range(moves):
        i = rng.randrange(len(rows) // 2)
        c = rng.randrange(-2, 3)
        a, b = (2 * i, 2 * i + 1) if rng.randrange(2) else (2 * i + 1, 2 * i)
        rows[a] = [x + c * y for x, y in zip(rows[a], rows[b])]
    return tuple(tuple(x) for x in rows)


def test_spin_parity_clockwise_and_random_bases(orn3):
    origami = orn3.origami
    base = spin_parity(origami).parity
    space = chain_space(origami)
    gram = space.gram(space.integral_absolute_basis())
    change = symplectic_basis(gram)
    clockwise = functools.partial(walks.quadratic_form_value, clockwise=True)
    assert arf_parity(origami, change, clockwise) == base
    rng = random.Random(17)
    g = len(change) // 2
    for _ in range(5):
        randomized = random_symplectic_moves(change, rng, 6)
        product = linalg.mat_mul(linalg.mat_mul(randomized, gram),
                                 linalg.transpose(randomized))
        for i in range(2 * g):
            for j in range(2 * g):
                expected = (1 if (i % 2 == 0 and j == i + 1) else
                            -1 if (i % 2 == 1 and j == i - 1) else 0)
                assert product[i][j] == expected
        assert arf_parity(origami, randomized) == base


@st.composite
def odd_cone_origamis(draw):
    """Transitive origamis with n <= 9 whose cone multiplicities are all odd
    (every zero order even), drawn by rejection from a generator seeded by
    the draw: a plain one, since the rejection loop draws hundreds of times
    and a Hypothesis generator made that loop most of the test's time."""
    n = draw(st.integers(1, 9))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    while True:
        origami = make_origami(n, *random_transitive_pair(n, rng))
        if all(v.multiplicity % 2 for v in vertex_classes(origami)):
            return origami


def _cycle_sum(space, picks):
    """The sum over the picks (index, coeff) of coeff times the edge cycle
    at that index: the edge cycles span the absolute integer chains, and
    their sums repeat edges, use loops and pass one vertex several times."""
    cycles = _edge_cycles(space)
    v = [0] * (2 * space.n)
    for index, coeff in picks:
        v = [x + coeff * y for x, y in zip(v, cycles[index % len(cycles)])]
    return EdgeChain.from_flat(v)


_PICKS = st.lists(st.tuples(st.integers(0, 63), st.integers(-3, 3)), max_size=4)


@settings(max_examples=200, deadline=None)
@given(odd_cone_origamis(), _PICKS)
def test_quadratic_form_matches_the_walk_reference(origami, picks):
    """The one-pass q equals q summed over the closed walks, with the
    turning counted counterclockwise and clockwise."""
    chain = _cycle_sum(chain_space(origami), picks)
    assert quadratic_form_value(origami, chain) == \
        walks.quadratic_form_value(origami, chain) == \
        walks.quadratic_form_value(origami, chain, clockwise=True)


@settings(max_examples=200, deadline=None)
@given(odd_cone_origamis(), _PICKS, _PICKS)
def test_quadratic_form_refines_the_intersection_form(origami, picks_a, picks_b):
    space = chain_space(origami)
    a, b = _cycle_sum(space, picks_a), _cycle_sum(space, picks_b)
    assert quadratic_form_value(origami, a + b) == (
        quadratic_form_value(origami, a) + quadratic_form_value(origami, b)
        + space.intersection(a, b)) % 2


@settings(max_examples=100, deadline=None)
@given(odd_cone_origamis())
def test_spin_parity_is_constant_on_the_sl2z_orbit(origami):
    """S and T generate SL(2,Z), so equal parities at both images of every
    origami make the parity an orbit invariant."""
    parity = spin_parity(origami).parity
    for letter in ("S", "T"):
        assert spin_parity(sl2z_act(letter, origami)).parity == parity


def test_supplement_appendix_b(appendix_b):
    origami = appendix_b.origami
    space = chain_space(origami)
    probes = [multitwist(origami, d).lift for d in ((0, 1), (1, 0), (1, 1))]
    cert = invariant_supplement(origami, space.singular_vertices(), probes,
                                reps=[appendix_b.zeta_star()],
                                correction_basis=[appendix_b.zeta0(),
                                                  appendix_b.zeta1()])
    assert not cert.feasible
    assert cert.forced == {"s_0": Fraction(1, 6), "s_1": Fraction(-5, 24)}
    assert cert.violated_probe == 2
    assert any(x != 0 for x in cert.residual.flat())
    # monotone: the first two probes alone are feasible
    partial = invariant_supplement(origami, space.singular_vertices(),
                                   probes[:2], reps=[appendix_b.zeta_star()],
                                   correction_basis=[appendix_b.zeta0(),
                                                     appendix_b.zeta1()])
    assert partial.feasible


def test_supplement_feasible_ew(ew, ew_report):
    origami = ew.origami
    space = chain_space(origami)
    s2 = _power(ew_report.lifts["S"], 2)
    t2 = _power(ew_report.lifts["T"], 2)
    auts = [ew_report.lifts[f"aut_{g}"] for g in ("i", "j")]
    cert = invariant_supplement(origami, list(range(len(space.vclasses))),
                                [s2, t2] + auts)
    assert cert.feasible
    hrel = ew_report.subspaces["H_rel"]
    section_span = space.subspace_from(cert.section)
    assert section_span.dim == 3
    assert all(hrel.coords_of(space.canonical_vec(c.flat())) is not None
               for c in cert.section)


def test_supplement_feasible_orn3(orn3, orn3_report):
    origami = orn3.origami
    space = chain_space(origami)
    probes = [orn3_report.lifts["S"], orn3_report.lifts["T"],
              orn3_report.lifts["aut_1"]]
    cert = invariant_supplement(origami, space.singular_vertices(), probes)
    assert cert.feasible
    hrel = orn3_report.subspaces["H_rel"]
    assert all(hrel.coords_of(space.canonical_vec(c.flat())) is not None
               for c in cert.section)


def test_supplement_residual_is_absolute_when_probes_permute_marks(orn3, orn3_report):
    """S and T permute the singular vertices, so c is not the identity and
    the reported residual is P sigma_k - sum_l c_kl sigma_l, an absolute
    class, not P sigma_0 - sigma_0."""
    origami = orn3.origami
    space = chain_space(origami)
    marks = space.singular_vertices()
    probes = [orn3_report.lifts["S"], orn3_report.lifts["T"]]
    assert any(p.vertex_perm(m) != m for p in probes for m in marks)
    cert = invariant_supplement(origami, marks, probes,
                                correction_basis=[orn3.tau(0)])
    assert not cert.feasible
    assert cert.violated_probe == 0
    residual = cert.residual.flat()
    assert any(residual)
    assert not any(space.boundary_vec(residual))


def test_supplement_rejects_probes_leaving_marks(orn3, orn3_report):
    origami = orn3.origami
    owner = vertex_of_square(origami)
    # mark one regular point; the shift automorphism moves it off the marks
    marks = [owner[orn3.idx(0, 0, 0)], owner[orn3.idx(0, 1, 1)]]
    with pytest.raises(ProbeMovesMarks):
        invariant_supplement(origami, marks, [orn3_report.lifts["aut_1"]])


# the readers of the four lattices the library asks for
LATTICE_READERS = (
    ChainSpace.absolute_subspace, ChainSpace.standard_splitting,
    ChainSpace.integral_absolute_basis,
    lambda space: space.marked_subspace(space.singular_vertices())
    if space.singular_vertices() else None)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 9), st.randoms(use_true_random=False),
       st.lists(st.lists(st.sampled_from(["S", "S-", "T", "T-"]), max_size=6),
                min_size=1, max_size=3))
def test_cached_decompositions_and_lattices_match_fresh_ones(n, rng, words):
    """The cached cylinders equal a fresh computation and survive a caller
    changing its record; the memoized lattices equal freshly computed ones
    and stay at most 4 per space; the cusp-width lifts are a torsor under
    Aut; and a short word lifts exactly when the Veech group contains it."""
    origami = make_origami(n, *random_transitive_pair(n, rng))
    for direction in ((1, 0), (0, 1), (1, 1)):
        first = cylinders(origami, direction)
        first.cylinders[0] = first.cylinders[0]._replace(width=0)
        first.cylinders.append(first.cylinders[0])
        again = cylinders(origami, direction)
        invariants._decomposition.cache_clear()
        fresh = cylinders(origami, direction)
        assert again == fresh and again.cylinders is not fresh.cylinders
        assert sum(c.width * c.height for c in again.cylinders) == n
    space = chain_space(origami)
    for read in LATTICE_READERS:  # fills the memo
        read(space)
    # each fresh value from a space of its own, whose memo is empty
    assert [read(space) for read in LATTICE_READERS] == \
        [read(ChainSpace(origami)) for read in LATTICE_READERS]
    for vertex in range(len(space.vclasses)):
        space.marked_subspace([vertex])
    assert len(space._lattices) <= 4
    group = veech_group(origami)
    node, width = group.edges[(0, "T")], 1
    while node != 0:
        node, width = group.edges[(node, "T")], width + 1
    assert len(lift_all(origami, mat_pow(T_MAT, width))) == \
        len(automorphisms(origami))
    for word in words:
        m = eval_letters(word)
        try:
            lifted = bool(lift_all(origami, m))
        except NotInVeechGroup:
            lifted = False
        assert group.contains(m) == lifted


GENUS_ONE = [make_origami(6, Perm([1, 2, 0, 4, 5, 3]), Perm([3, 4, 5, 1, 2, 0])),
             make_origami(4, Perm([1, 2, 3, 0]), Perm([2, 3, 0, 1])), TORUS]


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 9), st.randoms(use_true_random=False))
def test_cylinders_match_the_union_find_reference(n, rng):
    """The row chains are the cylinders of merging rows across regular
    circles, with the same rows, widths, heights and cores."""
    origami = make_origami(n, *random_transitive_pair(n, rng))
    for surface in (origami, rng.choice(GENUS_ONE)):
        for direction in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (3, -2)):
            assert tuple(cylinders(surface, direction).cylinders) == \
                reference.cylinders(surface, direction)
