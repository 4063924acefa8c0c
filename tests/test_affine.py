import functools
import itertools
import random
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from origamis import linalg
from origamis.affine import (Row, automorphism_lift, dense_view, lift, lift_all,
                             matrix_on, power_order, transport)
from origamis.catalog import QUATERNION_ORDER, catalog, quaternion_mul
from origamis.errors import (NotAutomorphism, NotInvariant, NotInVeechGroup,
                             OrderExceedsCap, WrongSurface)
from origamis.homology import EdgeChain, chain_space
from origamis.invariants import cylinders
from origamis.origami import (Origami, act_by_letters, automorphisms,
                              make_origami, sl2z_act, veech_group,
                              vertex_of_square)
from origamis.permutations import Perm, random_transitive_pair
from origamis.sl2z import (ID2, J_MAT, LETTER_MATS, NEG_ID_RUNS, S_MAT, T_MAT,
                           inverse_runs, mat_mul, mat_neg, mat_pow, sl2z_word)
from test_homology import _holonomy

TORUS = make_origami(1, Perm([0]), Perm([0]))


def identity_lift(origami):
    return automorphism_lift(origami, Perm.identity(origami.n))


def _power(lifted, k):
    """lifted^k by repeated squaring, through the inverse for k < 0."""
    if k < 0:
        return _power(lifted.inverse(), -k)
    out, base = identity_lift(lifted.origami), lifted
    while k:
        if k & 1:
            out = out.compose(base)
        base = base.compose(base)
        k >>= 1
    return out


class EdgeSubstitution(NamedTuple):
    source: Origami
    target: Origami
    rows: tuple[Row, ...]


def elementary_substitution(letter: str, origami: Origami) -> EdgeSubstitution:
    """One letter's substitution as sparse rows: its run of length one
    applied to the identity."""
    target, rows = transport(origami, ((letter, 1),))
    return EdgeSubstitution(origami, target, rows)


def to_normalized(decomp):
    """The dense chain map original -> normalized of a cylinder
    decomposition: the dense view of its `to_rows`."""
    return dense_view(decomp.to_rows)


def from_normalized(decomp):
    """The dense map back, transported along the inverse normalizer word."""
    runs = inverse_runs(sl2z_word(decomp.normalizer).exact_runs())
    return dense_view(transport(decomp.normalized, runs)[1])


def test_substitution_maps_relations(ew, orn5):
    for origami in (ew.origami, orn5.origami, TORUS):
        space = chain_space(origami)
        for letter in ("S", "T", "S-", "T-"):
            sub = elementary_substitution(letter, origami)
            target_space = chain_space(sub.target)
            matrix = _reference_apply_rows(sub.rows, linalg.identity(2 * origami.n))
            for g in range(origami.n):
                image = linalg.mat_vec(matrix, space.relation_chain(g).flat())
                assert all(x == 0 for x in target_space.canonical_vec(image))


def test_substitution_boundary_compatible(ew):
    origami = ew.origami
    space = chain_space(origami)
    for letter in ("S", "T", "S-", "T-"):
        sub = elementary_substitution(letter, origami)
        target_space = chain_space(sub.target)
        # each letter carries the vertex of square g to the vertex of square g
        pairs = set(zip(vertex_of_square(origami), vertex_of_square(sub.target)))
        assert len({v for v, _ in pairs}) == len({w for _, w in pairs}) == len(pairs)
        vmap = dict(pairs)
        matrix = _reference_apply_rows(sub.rows, linalg.identity(2 * origami.n))
        for j in range(2 * origami.n):
            unit = tuple(Fraction(1 if k == j else 0)
                         for k in range(2 * origami.n))
            moved = target_space.boundary_vec(linalg.mat_vec(matrix, unit))
            expected = [Fraction(0)] * len(target_space.vclasses)
            for k, val in enumerate(space.boundary_vec(unit)):
                expected[vmap[k]] += val
            assert list(moved) == expected


def test_torus_shear():
    sub = elementary_substitution("T", TORUS)
    matrix = _reference_apply_rows(sub.rows, linalg.identity(2 * TORUS.n))
    sigma = EdgeChain.unit(1, "s", 0)
    zeta = EdgeChain.unit(1, "z", 0)
    assert linalg.mat_vec(matrix, sigma.flat()) == sigma.flat()
    assert linalg.mat_vec(matrix, zeta.flat()) == (sigma + zeta).flat()


def _reference_substitution_rows(letter, origami):
    """Sparse rows (row -> ((col, coeff), ...)) of one letter, built column by
    column from the substitution table in the `affine` docstring."""
    n = origami.n
    r, u = origami.r, origami.u
    ri, ui = r.inverse(), u.inverse()
    cols = [[] for _ in range(2 * n)]
    for g in range(n):
        if letter == "T":
            cols[g] = [(g, 1)]
            cols[n + g] = [(g, 1), (n + r(g), 1)]
        elif letter == "T-":
            cols[g] = [(g, 1)]
            cols[n + g] = [(n + ri(g), 1), (ri(g), -1)]
        elif letter == "S":
            cols[n + g] = [(n + g, 1)]
            cols[g] = [(n + g, 1), (u(g), 1)]
        else:
            cols[n + g] = [(n + g, 1)]
            cols[g] = [(ui(g), 1), (n + ui(g), -1)]
    rows = [[] for _ in range(2 * n)]
    for col, entries in enumerate(cols):
        for row, coeff in entries:
            rows[row].append((col, coeff))
    return rows


def _reference_apply_rows(rows, matrix):
    """Dense sparse-row product: one sum over the row's entries per entry."""
    width = range(len(matrix[0]))
    return tuple(
        tuple(sum(coeff * matrix[col][j] for col, coeff in row) for j in width)
        for row in rows
    )


def _reference_transport(origami, letters):
    """One letter at a time through the dense reference product."""
    current = origami
    total = linalg.identity(2 * origami.n)
    for letter in reversed(letters):
        total = _reference_apply_rows(
            _reference_substitution_rows(letter, current), total)
        current = sl2z_act(letter, current)
    return current, total


def _run_words(origami, rng, count):
    """Runs ((letter, k), ...) over S, S-, T, T- that reach past the longest
    r- and u-cycle: k in 1..2L+2 with L that cycle length, plus L, L+1 and
    2L. Neighbouring runs may share their letter."""
    longest = max(len(c) for p in (origami.r, origami.u) for c in p.cycles())
    lengths = [longest, longest + 1, 2 * longest]
    words = []
    for _ in range(count):
        word = []
        for _ in range(rng.randint(1, 5)):
            k = rng.choice(lengths) if rng.random() < 0.3 else \
                rng.randint(1, 2 * longest + 2)
            word.append((rng.choice(("S", "S-", "T", "T-")), k))
        words.append(tuple(word))
    return words


def test_single_letter_rows_match_the_table(ew, orn3, appendix_b):
    rng = random.Random(11)
    origamis = [ew.origami, orn3.origami, appendix_b.origami, TORUS] + \
        [make_origami(n, *random_transitive_pair(n, rng)) for n in range(2, 9)]
    for origami in origamis:
        for letter in ("S", "T", "S-", "T-"):
            sub = elementary_substitution(letter, origami)
            expected = _reference_substitution_rows(letter, origami)
            assert sub.rows == tuple(tuple(sorted(row)) for row in expected)
            assert sub.target == sl2z_act(letter, origami)


def test_transport_matches_dense_reference(ew, orn3, appendix_b):
    rng = random.Random(2027)
    origamis = [ew.origami, orn3.origami, appendix_b.origami, TORUS] + \
        [make_origami(n, *random_transitive_pair(n, rng))
         for n in (2, 3, 4, 5, 6, 7, 8) * 3][:20]
    for origami in origamis:
        for runs in _run_words(origami, rng, 4 if origami.n > 8 else 8):
            word = tuple(x for x, k in runs for _ in range(k))
            final, rows = transport(origami, runs)
            matrix = dense_view(rows)
            ref_final, ref_matrix = _reference_transport(origami, word)
            assert final == ref_final == act_by_letters(word, origami)
            assert matrix == ref_matrix
            assert all(type(x) is int for row in matrix for x in row)


def _random_origamis():
    """Seeded random transitive origamis, one of each size n = 5..8."""
    rng = random.Random(2026)
    return [make_origami(n, *random_transitive_pair(n, rng)) for n in range(5, 9)]


def _cusp_power(origami, letter="T"):
    """T^w (or S^w) for w the width of the Veech group's cusp at the origami
    along that letter."""
    edges = veech_group(origami).edges
    node, width = edges[(0, letter)], 1
    while node != 0:
        node, width = edges[(node, letter)], width + 1
    return mat_pow(LETTER_MATS[letter], width)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.randoms(use_true_random=False))
def test_lifts_preserve_the_intersection_form(n, rng):
    """Every lift of T^(cusp width) and every automorphism lift of a random
    transitive origami keeps the gram matrix of the integral absolute basis:
    the symplectic subgroup of theorem (b) rests on this."""
    origami = make_origami(n, *random_transitive_pair(n, rng))
    space = chain_space(origami)
    basis = space.integral_absolute_basis()
    gram = space.gram(basis)
    lifts = lift_all(origami, _cusp_power(origami)) + [
        automorphism_lift(origami, a) for a in automorphisms(origami)]
    for lf in lifts:
        assert space.gram([lf.image(b) for b in basis]) == gram


def test_lift_invariants(ew, orn3):
    cases = [(lift(cat.origami, m), m) for cat in (ew, orn3)
             for m in (S_MAT, T_MAT)]
    randoms = _random_origamis()
    for origami in randoms:
        m = _cusp_power(origami)
        lifts = lift_all(origami, m)
        assert len(lifts) == len(automorphisms(origami))
        cases += [(lf, m) for lf in lifts]
    for lifted, m in cases:
        origami = lifted.origami
        space = chain_space(origami)
        assert all(type(x) is int for row in lifted.matrix for x in row)
        assert lifted.compose(lifted.inverse()).is_identity()
        # relation lattice preserved
        for g in range(origami.n):
            image = linalg.mat_vec(lifted.matrix,
                                   space.relation_chain(g).flat())
            assert all(x == 0 for x in space.canonical_vec(image))
        # boundary conjugated by the vertex permutation, holonomy by m
        for j in range(2 * origami.n):
            unit = tuple(Fraction(1 if k == j else 0)
                         for k in range(2 * origami.n))
            chain = EdgeChain.from_flat(unit)
            image = lifted.apply(chain)
            expected = [Fraction(0)] * len(space.vclasses)
            for k, val in enumerate(space.boundary(chain)):
                expected[lifted.vertex_perm(k)] += val
            assert list(space.boundary(image)) == expected
            hol = _holonomy(chain)
            expected_hol = (m[0][0] * hol[0] + m[0][1] * hol[1],
                            m[1][0] * hol[0] + m[1][1] * hol[1])
            assert _holonomy(image) == expected_hol
    # the normalizing transports of cylinders are mutually inverse
    for origami in randoms:
        for direction in ((1, 0), (0, 1), (1, 1), (2, 1)):
            decomp = cylinders(origami, direction)
            product = linalg.mat_mul(to_normalized(decomp),
                                     from_normalized(decomp))
            assert product == identity_lift(origami).matrix


def test_ew_generator_action_tables(ew):
    origami = ew.origami
    space = chain_space(origami)
    st = lift(origami, S_MAT)
    tt = lift(origami, T_MAT)
    for g in QUATERNION_ORDER:
        in_sj = g in ("1", "-1", "j", "-j")
        expect = ew.zeta(g) if in_sj else ew.zeta(quaternion_mul("j", g))
        assert space.equivalent(st.apply(ew.zeta(g)), expect)
        if in_sj:
            expect = ew.sigma(g) + ew.zeta(quaternion_mul(g, "i"))
        else:
            expect = ew.sigma(quaternion_mul("j", g)) + \
                ew.zeta(quaternion_mul(g, "k"))
        assert space.equivalent(st.apply(ew.sigma(g)), expect)
        in_ti = g in ("1", "-1", "i", "-i")
        expect = ew.sigma(g) if in_ti else ew.sigma(quaternion_mul("i", g))
        assert space.equivalent(tt.apply(ew.sigma(g)), expect)
        if in_ti:
            expect = ew.zeta(g) + ew.sigma(quaternion_mul(g, "j"))
        else:
            expect = ew.zeta(quaternion_mul("i", g)) + \
                ew.sigma(quaternion_mul("-1", quaternion_mul(g, "k")))
        assert space.equivalent(tt.apply(ew.zeta(g)), expect)
    # w and standard rows
    wi, wj, wk = ew.w("i"), ew.w("j"), ew.w("k")
    assert space.equivalent(st.apply(wi), wk)
    assert space.equivalent(st.apply(wj), wj)
    assert space.equivalent(st.apply(wk), wi)
    assert space.equivalent(tt.apply(wi), wi)
    assert space.equivalent(tt.apply(wj), wk)
    assert space.equivalent(tt.apply(wk), wj)


def test_orn3_generator_action_tables(orn3):
    origami = orn3.origami
    space = chain_space(origami)
    st = lift(origami, S_MAT)
    tt = lift(origami, T_MAT)
    q = 3
    for i in range(q):
        assert space.equivalent(st.apply(orn3.sigma(i)),
                                orn3.sigma(i) + orn3.zeta_p(i - 1))
        assert space.equivalent(st.apply(orn3.sigma_p(i)),
                                orn3.sigma_p(i) + orn3.zeta(i - 1))
        assert space.equivalent(st.apply(orn3.zeta(i)), orn3.zeta_p(i - 1))
        assert space.equivalent(st.apply(orn3.zeta_p(i)), orn3.zeta(i))
        assert space.equivalent(tt.apply(orn3.sigma(i)), orn3.sigma_p(i + 1))
        assert space.equivalent(tt.apply(orn3.sigma_p(i)), orn3.sigma(i))
        assert space.equivalent(tt.apply(orn3.zeta(i)),
                                orn3.zeta(i) + orn3.sigma_p(i + 1))
        assert space.equivalent(tt.apply(orn3.zeta_p(i)),
                                orn3.zeta_p(i) + orn3.sigma(i + 1))
        assert space.equivalent(st.apply(orn3.tau(i)), orn3.tau(i + 1).scale(-1))
        assert space.equivalent(st.apply(orn3.sigma_breve(i)),
                                orn3.sigma_breve(i) + orn3.zeta_breve(i - 1))
        assert space.equivalent(st.apply(orn3.zeta_breve(i)),
                                orn3.zeta_breve(i + 1))
        assert space.equivalent(tt.apply(orn3.tau(i)), orn3.tau(i - 1).scale(-1))
        assert space.equivalent(tt.apply(orn3.sigma_breve(i)),
                                orn3.sigma_breve(i - 1))
        assert space.equivalent(tt.apply(orn3.zeta_breve(i)),
                                orn3.zeta_breve(i) + orn3.sigma_breve(i + 1))
    sf, zf = orn3.sigma_flat(), orn3.zeta_flat()
    assert space.equivalent(st.apply(sf), sf - zf)
    assert space.equivalent(st.apply(zf), zf.scale(-1))
    assert space.equivalent(tt.apply(sf), sf.scale(-1))
    assert space.equivalent(tt.apply(zf), zf - sf)


def test_orn5_generator_action_tables(orn5):
    origami = orn5.origami
    space = chain_space(origami)
    s2 = lift(origami, mat_pow(S_MAT, 2))
    t2 = lift(origami, mat_pow(T_MAT, 2))
    jt = lift(origami, J_MAT)
    q = 5
    for i in range(q):
        assert space.equivalent(
            s2.apply(orn5.sigma(i)),
            orn5.sigma(i) + orn5.zeta(i - 1) + orn5.zeta_p(i - 1))
        assert space.equivalent(
            s2.apply(orn5.sigma_p(i)),
            orn5.sigma_p(i) + orn5.zeta(i - 1) + orn5.zeta_p(i + 1))
        assert space.equivalent(s2.apply(orn5.zeta(i)), orn5.zeta(i - 1))
        assert space.equivalent(s2.apply(orn5.zeta_p(i)), orn5.zeta_p(i - 1))
        assert space.equivalent(t2.apply(orn5.sigma(i)), orn5.sigma(i + 1))
        assert space.equivalent(t2.apply(orn5.sigma_p(i)), orn5.sigma_p(i + 1))
        assert space.equivalent(
            t2.apply(orn5.zeta(i)),
            orn5.zeta(i) + orn5.sigma(i + 1) + orn5.sigma_p(i + 1))
        assert space.equivalent(
            t2.apply(orn5.zeta_p(i)),
            orn5.zeta_p(i) + orn5.sigma(i + 1) + orn5.sigma_p(i - 1))
        assert space.equivalent(jt.apply(orn5.sigma(i)), orn5.zeta(i - 1))
        assert space.equivalent(jt.apply(orn5.sigma_p(i)), orn5.zeta_p(i + 1))
        assert space.equivalent(jt.apply(orn5.zeta(i)),
                                orn5.sigma_p(i).scale(-1))
        assert space.equivalent(jt.apply(orn5.zeta_p(i)),
                                orn5.sigma(i).scale(-1))
        # derived rows
        assert space.equivalent(t2.apply(orn5.b(i)),
                                orn5.b(i) + orn5.a(i + 1) + orn5.a_p(i + 1))
        assert space.equivalent(jt.apply(orn5.tau(i)), orn5.tau(i).scale(-1))
        assert space.equivalent(jt.apply(orn5.sigma_breve(i)),
                                orn5.zeta_breve(i))
        assert space.equivalent(jt.apply(orn5.zeta_breve(i)),
                                orn5.sigma_breve(i).scale(-1))


def test_automorphism_lift_actions(ew, orn3):
    space = chain_space(ew.origami)
    for h in ("i", "j", "-1"):
        aut = automorphism_lift(ew.origami, ew.left_mult(h))
        for g in ("1", "i", "j", "k"):
            assert space.equivalent(aut.apply(ew.epsilon(g)),
                                    ew.epsilon(quaternion_mul(h, g)))
    space3 = chain_space(orn3.origami)
    aut = automorphism_lift(orn3.origami, orn3.shift(1))
    for i in range(3):
        assert space3.equivalent(aut.apply(orn3.tau(i)), orn3.tau(i + 1))
    with pytest.raises(NotAutomorphism):
        automorphism_lift(ew.origami, Perm([1, 0, 2, 3, 4, 5, 6, 7]))


def test_automorphism_lift_rejects_wrong_size(ew):
    # a permutation of 9 squares on the 8-square Wollmilchsau
    with pytest.raises(NotAutomorphism):
        automorphism_lift(ew.origami, Perm(range(9)))


def test_identity_lift_is_identity(ew):
    assert identity_lift(ew.origami).is_identity()
    aut = automorphism_lift(ew.origami, ew.left_mult("1"))
    assert aut.is_identity()


def test_compose_rejects_lifts_of_another_origami(ew):
    with pytest.raises(WrongSurface):
        identity_lift(ew.origami).compose(identity_lift(TORUS))


def _same_action(a, b):
    """Whether the lifts a and b act alike on homology."""
    return a.compose(b.inverse()).is_identity()


def test_structural_identities_ew(ew):
    origami = ew.origami
    st, tt = lift(origami, S_MAT), lift(origami, T_MAT)
    neg1 = automorphism_lift(origami, ew.left_mult("-1"))
    element = st.compose(tt.inverse()).compose(st)
    assert _same_action(_power(element, 4), neg1)
    eipi = _power(element, 2)
    assert _same_action(_power(eipi, 2), neg1)
    assert power_order(eipi, 8) == 4
    for other in (st, tt, automorphism_lift(origami, ew.left_mult("i"))):
        assert _same_action(eipi.compose(other), other.compose(eipi))


@pytest.mark.parametrize("q", [3, 5, 7])
def test_t_element_has_order_2q(q):
    orn = catalog("ornithorynque", q=q)
    origami = orn.origami
    vmap = vertex_of_square(origami)
    target = {}
    for i in range(q):
        target[vmap[orn.idx(i, 0, 0)]] = vmap[orn.idx(i + 1, 0, 0)]
    for (mu, nu) in ((0, 1), (1, 0), (1, 1)):
        target[vmap[orn.idx(0, mu, nu)]] = vmap[orn.idx(0, mu, nu)]
    candidates = []
    for base in lift_all(origami, mat_neg(ID2)):
        for g in range(q):
            cand = automorphism_lift(origami, orn.shift(g)).compose(base)
            if all(cand.vertex_perm(k) == v for k, v in target.items()):
                candidates.append(cand)
    assert candidates
    t_elem = candidates[0]
    assert power_order(t_elem, 2 * q) == 2 * q


def test_gamma2_lifts_fix_vertices(ew):
    origami = ew.origami
    st, tt = lift(origami, S_MAT), lift(origami, T_MAT)
    element = st.compose(tt.inverse()).compose(st)
    for lf in (_power(st, 2), _power(tt, 2), _power(element, 2)):
        assert lf.vertex_perm.is_identity()


def test_power_order_cap():
    with pytest.raises(OrderExceedsCap):
        st = lift(TORUS, S_MAT)
        power_order(st, 5)


def test_functoriality_up_to_automorphism(ew):
    origami = ew.origami
    rng = random.Random(13)
    auts = [automorphism_lift(origami, ew.left_mult(g))
            for g in QUATERNION_ORDER]
    for _ in range(4):
        m1 = ID2
        m2 = ID2
        for _ in range(4):
            m1 = mat_mul(m1, LETTER_MATS[rng.choice(["S", "S-", "T", "T-"])])
            m2 = mat_mul(m2, LETTER_MATS[rng.choice(["S", "S-", "T", "T-"])])
        combined = lift(origami, mat_mul(m1, m2))
        composed = lift(origami, m1).compose(lift(origami, m2))
        assert any(_same_action(combined, aut.compose(composed)) for aut in auts)


def test_matrix_on_named_bases(ew, orn3, ew_report, orn3_report):
    from origamis.affine import matrix_in_chain_basis
    space = chain_space(ew.origami)
    st = ew_report.lifts["S"]
    tt = ew_report.lifts["T"]
    # in the (sigma, zeta) basis the lift of S acts by S itself
    sigma, zeta = ew_report.chains["sigma"], ew_report.chains["zeta"]
    st_matrix = matrix_in_chain_basis(st, [sigma.flat(), zeta.flat()])
    assert st_matrix == ((1, 0), (1, 1))
    assert space.equivalent(st.apply(sigma), sigma + zeta)
    assert space.equivalent(st.apply(zeta), zeta)
    hrel = ew_report.subspaces["H_rel"]
    m = matrix_on(tt, hrel)
    assert abs(linalg.det(m)) == 1
    # q=3: matrix on (sigma_flat, zeta_flat) for S is [[1,0],[-1,-1]]
    from origamis.affine import matrix_in_chain_basis
    space3 = chain_space(orn3.origami)
    basis = [space3.canonical_vec(orn3.sigma_flat().flat()),
             space3.canonical_vec(orn3.zeta_flat().flat())]
    m = matrix_in_chain_basis(orn3_report.lifts["S"], basis)
    assert m == ((1, 0), (-1, -1))


def _random_span(space, rng):
    """The span of three random canonical vectors with Fraction entries."""
    width = 2 * space.n
    return space.subspace_from_vecs(
        tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(width))
        for _ in range(3))


def test_matrix_on_reads_each_column_as_coords_of(ew_report):
    """matrix_on, which makes the basis Rows once per call, equals the
    coords_of of each basis image, entry for entry and type for type, and
    raises NotInvariant exactly when one of those is None: on orn q = 15's
    H_breve and H_tau, the ew's H1_0 and H_rel, the absolute subspace of
    random origamis, and a random span that no generator preserves."""
    rng = random.Random(38)
    orn = catalog("ornithorynque", q=15)
    space = chain_space(orn.origami)
    cases = [
        ([lift(orn.origami, mat_pow(S_MAT, 2)), lift(orn.origami, mat_pow(T_MAT, 2)),
          lift(orn.origami, J_MAT), automorphism_lift(orn.origami, orn.shift(1))],
         [space.subspace_from([orn.sigma_breve(i) for i in range(15)]
                              + [orn.zeta_breve(i) for i in range(15)]),
          space.subspace_from([orn.tau(i) for i in range(15)])], space),
        ([ew_report.lifts["S"], ew_report.lifts["T"]],
         [ew_report.subspaces["H1_0"], ew_report.subspaces["H_rel"]],
         chain_space(ew_report.origami))]
    for n in (4, 5, 6, 7, 8, 9, 10):
        origami = make_origami(n, *random_transitive_pair(n, rng))
        random_space = chain_space(origami)
        cases.append(([lift(origami, _cusp_power(origami, letter)) for letter in "ST"],
                      [random_space.absolute_subspace()], random_space))
    kept = raised = 0
    for lifts, subspaces, space in cases:
        for sub in subspaces + [_random_span(space, rng)]:
            for lifted in lifts:
                columns = [sub.coords_of(lifted.image(b)) for b in sub.basis]
                if None in columns:
                    with pytest.raises(NotInvariant):
                        matrix_on(lifted, sub)
                    raised += 1
                    continue
                block, expected = matrix_on(lifted, sub), linalg.transpose(tuple(columns))
                assert block == expected
                assert [list(map(type, row)) for row in block] == \
                    [list(map(type, row)) for row in expected]
                kept += 1
    # every generator keeps its named subspace and moves the random span
    assert (kept, raised) == (4 * 2 + 2 * 2 + 7 * 2, 4 + 2 + 7 * 2)


def test_lift_rejects_non_members(orn5):
    with pytest.raises(NotInVeechGroup):
        lift(orn5.origami, T_MAT)


def test_lift_is_the_base_fixing_element_of_lift_all(ew, orn3, appendix_b):
    """`lift` closes only one closing: the one fixing the base square, or the
    least when none does, so it equals that element of `lift_all`."""
    rng = random.Random(3917)
    surfaces = [ew.origami, orn3.origami, appendix_b.origami] + [
        make_origami(n, *random_transitive_pair(n, rng))
        for n in [2 + i % 6 for i in range(18)]]
    branches = set()
    for origami in surfaces:
        for m in (_cusp_power(origami), mat_pow(S_MAT, 2), J_MAT):
            try:
                lifts = lift_all(origami, m)
            except NotInVeechGroup:
                continue
            fixing = [lf for lf in lifts
                      if lf.relabeling(origami.base) == origami.base]
            assert lift(origami, m) == (fixing + lifts)[0]
            branches.add((bool(fixing), len(lifts) > 1))
    # a base-fixing closing among several, and none fixing the base
    assert {(True, True), (False, False)} <= branches


# -- the sparse lifts against the dense matrices they replaced ----------------


def _dense_relabel_rows(matrix, phi):
    """(relabeling by phi) * matrix on dense rows: row phi(g) <- row g."""
    n = len(matrix) // 2
    back = phi.inverse()
    return tuple(matrix[back(g)] for g in range(n)) + \
        tuple(matrix[n + back(g)] for g in range(n))


def _dense_is_identity(lifted):
    """Every column j, not only the free ones, differs from e_j by a
    relation."""
    if lifted.linear != ID2 or not lifted.vertex_perm.is_identity():
        return False
    space = chain_space(lifted.origami)
    return all(not any(space.canonical_vec(
        tuple(x - (k == j) for k, x in enumerate(col))))
        for j, col in enumerate(linalg.transpose(lifted.matrix)))


def _assert_canonical(lifted):
    width = 2 * lifted.origami.n
    assert len(lifted.rows) == width
    for row in lifted.rows:
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols)) and all(0 <= j < width for j in cols)
        assert all(type(x) is int and x != 0 for _, x in row)


@functools.lru_cache(maxsize=1)
def _oracle_cases():
    """(origami, its Veech-group matrices to lift) on the fixed surfaces, the
    torus and 20 seeded random origamis with n = 2..8."""
    rng = random.Random(1616)
    fixed = [catalog("eierlegende-wollmilchsau").origami] + \
        [catalog("ornithorynque", q=q).origami for q in (3, 5, 7)] + \
        [catalog("appendix-b").origami, TORUS]
    randoms = [make_origami(n, *random_transitive_pair(n, rng))
               for n in (2, 3, 4, 5, 6, 7, 8) * 3][:20]
    cases = []
    for origami in fixed + randoms:
        group = veech_group(origami)
        t_w = _cusp_power(origami)
        candidates = [S_MAT, T_MAT, mat_pow(S_MAT, 2), J_MAT, t_w,
                      mat_mul(t_w, J_MAT), mat_neg(ID2)]
        cases.append((origami, [m for m in candidates if group.contains(m)]))
    return cases


def _unit(width, j):
    return tuple(int(k == j) for k in range(width))


def test_sparse_lifts_match_the_dense_reference():
    rng = random.Random(61)
    for origami, matrices in _oracle_cases():
        n2 = 2 * origami.n
        space = chain_space(origami)
        small = origami.n <= 8
        lifts = [automorphism_lift(origami, a) for a in automorphisms(origami)]
        for m in matrices:
            runs = sl2z_word(m).exact_runs()
            letters = tuple(x for x, k in runs for _ in range(k))
            _, total = _reference_transport(origami, letters)
            for lf in lift_all(origami, m):
                assert lf.matrix == _dense_relabel_rows(total, lf.relabeling)
                lifts.append(lf)
        vectors = [_unit(n2, rng.randrange(n2)),
                   tuple(rng.randint(-3, 3) for _ in range(n2))]
        halves = tuple(Fraction(rng.randint(-3, 3), 2) if rng.random() < 0.3
                       else rng.randint(-1, 1) for _ in range(n2))
        for idx, lf in enumerate(lifts):
            _assert_canonical(lf)
            dense = lf.matrix
            assert all(type(x) is int for row in dense for x in row)
            # canonical forms of Fraction vectors are slow: a few lifts each
            for v in vectors + [halves] * (idx < 3):
                assert lf.image(v) == space.canonical_vec(linalg.mat_vec(dense, v))
                assert lf.apply(EdgeChain.from_flat(v)) == \
                    EdgeChain.from_flat(linalg.mat_vec(dense, v))
            assert lf.is_identity() == _dense_is_identity(lf)
        # products and inverses, also of products (whose words concatenate)
        pairs = [(rng.choice(lifts), rng.choice(lifts)) for _ in range(4 if small else 2)]
        for a, b in pairs:
            product = a.compose(b)
            _assert_canonical(product)
            assert product.matrix == linalg.mat_mul(a.matrix, b.matrix)
            assert product.is_identity() == _dense_is_identity(product)
            for lf in (a, product):
                inverse = lf.inverse()
                _assert_canonical(inverse)
                # the integer inverse is unique: mat_inv where it is quick
                if small:
                    assert inverse.matrix == linalg.mat_inv(lf.matrix)
                else:
                    assert linalg.mat_mul(lf.matrix, inverse.matrix) == \
                        linalg.identity(n2)
                assert inverse.vertex_perm == lf.vertex_perm.inverse()
                one = lf.compose(inverse)
                assert one.is_identity() and _dense_is_identity(one)


def _add_to_column(lifted, j, v):
    """The lift with the vector v added to column j of its map."""
    rows = []
    for row, x in zip(lifted.rows, v):
        entries = dict(row)
        entries[j] = entries.get(j, 0) + x
        rows.append(tuple(sorted((c, y) for c, y in entries.items() if y)))
    return lifted._replace(rows=tuple(rows))


def test_free_column_identity_test_agrees_with_all_columns():
    for origami, matrices in _oracle_cases()[:10]:
        space = chain_space(origami)
        n2 = 2 * origami.n
        lf = lift_all(origami, matrices[-1])[0]
        one = lf.compose(lf.inverse())
        assert one.is_identity() and _dense_is_identity(one)
        assert lf.is_identity() == _dense_is_identity(lf)
        for j in space.free[:3]:
            for i in {0, n2 - 1, j}:
                # column j gains e_i: no longer the identity
                changed = _add_to_column(one, j, _unit(n2, i))
                assert not changed.is_identity()
                assert not _dense_is_identity(changed)
            for g in range(min(origami.n, 3)):
                # column j gains a relation: still the identity on homology
                moved = _add_to_column(one, j, space.relation_rows[g])
                assert moved.is_identity() and _dense_is_identity(moved)


# -- lift images through the transposed columns ---------------------------------


def _image_by_rows(rows, v):
    """The dense row product the column reader replaced: each entry one sum
    over its row's entries, an int when it is integral."""
    return tuple(linalg.exact(sum(x * v[j] for j, x in row)) for row in rows)


def _typed(v):
    """v with its entry types, so that 2 and Fraction(2) differ."""
    return tuple((x, type(x)) for x in v)


def _image_cases():
    """(origami, its lifts): seeded random origamis with n = 5..8 and
    ornithorynque at q = 3..15, with their S, T or S^2, T^2, J lifts that
    exist, a cusp power and one automorphism each."""
    origamis = _random_origamis() + \
        [catalog("ornithorynque", q=q).origami for q in range(3, 17, 2)]
    cases = []
    for origami in origamis:
        group = veech_group(origami)
        matrices = [m for m in (S_MAT, T_MAT, mat_pow(S_MAT, 2), mat_pow(T_MAT, 2), J_MAT)
                    if group.contains(m)] + [_cusp_power(origami)]
        lifts = [lift(origami, m) for m in matrices]
        lifts.append(automorphism_lift(origami, automorphisms(origami)[-1]))
        cases.append((origami, lifts))
    return cases


def test_column_reader_and_apply_match_the_row_product():
    """`_reader` at d = 1 and d > 1, `image` and `apply` agree with the row
    product in values and entry types on zero, unit, sparse and dense, int
    and Fraction vectors."""
    rng = random.Random(4040)
    for origami, lifts in _image_cases():
        n2 = 2 * origami.n
        space = chain_space(origami)
        vectors = [(0,) * n2, _unit(n2, rng.randrange(n2)),
                   tuple(rng.randint(-3, 3) for _ in range(n2)),
                   tuple(Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 6)))
                         for _ in range(n2)),
                   _unit(n2, rng.randrange(n2))[:-1] + (Fraction(1, 2),),
                   tuple(Fraction(2 * rng.randint(-2, 2), 2) for _ in range(n2))]
        for lf in lifts:
            read = lf._reader()
            for v in vectors:
                expected = _image_by_rows(lf.rows, v)
                ints, d = read(v)
                assert all(type(x) is int for x in ints)
                assert _typed(linalg._divided(ints, d)) == _typed(expected)
                assert _typed(lf.apply(EdgeChain.from_flat(v)).flat()) == _typed(expected)
                assert _typed(lf.image(v)) == _typed(space.canonical_vec(expected))


def test_is_identity_agrees_with_the_dense_definition(ew, orn5):
    """On the powers J^k, of which J^4 alone is the identity, on the
    Wollmilchsau translation (0 1)(2 3)(4 5)(6 7), whose linear part and
    vertex action are trivial but whose chain map is not, and on the
    identity with e_0 added to its last free column."""
    j = lift(orn5.origami, J_MAT)
    for k in range(1, 5):
        power = _power(j, k)
        assert power.is_identity() == _dense_is_identity(power) == (k == 4)
    flip = automorphism_lift(ew.origami, Perm([1, 0, 3, 2, 5, 4, 7, 6]))
    assert flip.linear == ID2 and flip.vertex_perm.is_identity()
    assert not flip.is_identity() and not _dense_is_identity(flip)
    n2 = 2 * ew.origami.n
    last = _add_to_column(identity_lift(ew.origami), chain_space(ew.origami).free[-1],
                          _unit(n2, 0))
    assert not last.is_identity() and not _dense_is_identity(last)


def test_merged_runs_transport_the_same_rows(ew, orn3, appendix_b):
    """`exact_runs` merges neighbouring runs of one letter; the unmerged
    runs, the word's runs and then the pinned -Id runs, transport to the
    same origami and rows."""
    entries = range(-4, 5)
    for origami in (ew.origami, orn3.origami, appendix_b.origami):
        for a, b, c, d in itertools.product(entries, repeat=4):
            if a * d - b * c != 1:
                continue
            word = sl2z_word(((a, b), (c, d)))
            unmerged = word.runs + (NEG_ID_RUNS if word.sign == -1 else ())
            assert transport(origami, word.exact_runs()) == transport(origami, unmerged)
