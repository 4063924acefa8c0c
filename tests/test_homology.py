import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from origamis import linalg
from origamis.catalog import QUATERNION_ORDER, quaternion_mul
from origamis.errors import NotAbsolute
from origamis.homology import EdgeChain, chain_space
from origamis.origami import make_origami, vertex_of_square
from origamis.permutations import Perm, are_transitive, random_transitive_pair

TORUS = make_origami(1, Perm([0]), Perm([0]))


def _horizontal_core_pairing(row_squares, c):
    """<horizontal core push-off, c>: the zeta coefficients over the row."""
    return sum(c.zeta[j] for j in row_squares)


def _vertical_core_pairing(col_squares, c):
    """<vertical core push-off, c>: minus the sigma coefficients over the
    column."""
    return -sum(c.sigma[j] for j in col_squares)


def _holonomy(chain):
    """(sum of the sigma coefficients, sum of the zeta coefficients)."""
    return (sum(chain.sigma), sum(chain.zeta))


def _fractions(rows):
    """The matrix of the rows with every entry a Fraction."""
    return tuple(tuple(map(Fraction, row)) for row in rows)


def _canonical(space, chain):
    """The chain's canonical form modulo the square relations."""
    return EdgeChain.from_flat(space.canonical_vec(chain.flat()))


def random_chain(rng, n, integral=True):
    def coeff():
        value = rng.randrange(-4, 5)
        return Fraction(value) if integral else Fraction(value, rng.randrange(1, 4))
    return EdgeChain(tuple(coeff() for _ in range(n)),
                     tuple(coeff() for _ in range(n)))


def test_relation_ranks(ew, orn3):
    assert chain_space(ew.origami).relation_rank() == 7
    assert chain_space(orn3.origami).relation_rank() == 11
    assert chain_space(TORUS).relation_rank() == 0


def test_relations_reduce_to_zero(ew):
    space = chain_space(ew.origami)
    for g in range(8):
        assert all(x == 0 for x in space.canonical_vec(space.relation_rows[g]))


def test_canonical_form_idempotent_linear(ew):
    space = chain_space(ew.origami)
    rng = random.Random(3)
    for _ in range(25):
        a = random_chain(rng, 8)
        b = random_chain(rng, 8)
        ca = _canonical(space, a)
        assert _canonical(space, ca) == ca
        left = _canonical(space, a + b)
        right = space.canonical_vec(linalg.vec_add(ca.flat(),
                                                   _canonical(space, b).flat()))
        assert left.flat() == tuple(right)
        # integer chains stay integer
        assert all(x.denominator == 1 for x in ca.flat())


def test_canonical_separates_cosets(orn3):
    space = chain_space(orn3.origami)
    rng = random.Random(4)
    for _ in range(20):
        a = random_chain(rng, 12)
        shift = EdgeChain.zero(12)
        for g in range(12):
            c = rng.randrange(-2, 3)
            if c:
                shift = shift + space.relation_chain(g).scale(c)
        assert space.equivalent(a, a + shift)
        # a single edge is never a relation combination (it has boundary)
        b = a + EdgeChain.unit(12, "s", rng.randrange(12))
        assert not space.equivalent(a, b)


def _sectors_at(space, vidx):
    """Quarter sectors ccw at a vertex class; sector k sits between germ k
    and germ k+1."""
    r, u = space.origami.r, space.origami.u
    ri, ui = r.inverse(), u.inverse()
    out = []
    for g in space.vclasses[vidx].cycle:
        out.extend([("LL", g), ("LR", ri(g)), ("UR", ui(ri(g))),
                    ("UL", r(ui(ri(g))))])
    return out


def test_ribbon_sector_walk(ew, orn3):
    """The quarter-sector walk follows the four corner-transition rules and
    closes up along the commutator cycle."""
    for cat in (ew, orn3):
        origami = cat.origami
        space = chain_space(origami)
        r, u = origami.r, origami.u
        ri, ui = r.inverse(), u.inverse()
        comm = origami.commutator()
        for vidx, vclass in enumerate(space.vclasses):
            sectors = _sectors_at(space, vidx)
            assert len(sectors) == 4 * vclass.multiplicity
            for t, g in enumerate(vclass.cycle):
                assert sectors[4 * t] == ("LL", g)
                assert sectors[4 * t + 1] == ("LR", ri(g))
                assert sectors[4 * t + 2] == ("UR", ui(ri(g)))
                assert sectors[4 * t + 3] == ("UL", r(ui(ri(g))))
                following = sectors[(4 * t + 4) % len(sectors)]
                assert following == ("LL", comm(g))


def _chain_from_json(data):
    """The inverse of EdgeChain.to_json_dict."""
    return EdgeChain(tuple(Fraction(x) for x in data["sigma"]),
                     tuple(Fraction(x) for x in data["zeta"]))


def test_edge_chain_json_roundtrip():
    chain = EdgeChain((Fraction(1, 2), Fraction(-3)), (Fraction(0), Fraction(7, 4)))
    data = chain.to_json_dict()
    assert data == {"sigma": ["1/2", "-3"], "zeta": ["0", "7/4"]}
    assert _chain_from_json(data) == chain


def test_relation_lattice_basis(ew):
    # n - 1 square relations; the n of them sum to zero
    space = chain_space(ew.origami)
    basis = [space.relation_chain(g) for g in range(ew.origami.n - 1)]
    assert len(basis) == 7
    rows = tuple(c.flat() for c in basis)
    assert len(linalg.rref(rows)[1]) == 7


def test_boundary_and_holonomy_vanish_on_relations(ew, orn3):
    for cat in (ew, orn3):
        space = chain_space(cat.origami)
        for g in range(cat.origami.n):
            rel = space.relation_chain(g)
            assert all(x == 0 for x in space.boundary(rel))
            assert _holonomy(rel) == (0, 0)


def test_ew_w_class_identities(ew):
    space = chain_space(ew.origami)
    wk_sigma = EdgeChain.zero(8)
    for g, sign in [("1", 1), ("-1", 1), ("k", 1), ("-k", 1),
                    ("i", -1), ("-i", -1), ("j", -1), ("-j", -1)]:
        wk_sigma = wk_sigma + ew.sigma(g, sign)
    assert space.equivalent(ew.w("k"), wk_sigma)
    zero_identity = EdgeChain.zero(8)
    for g, sign in [("1", 1), ("-1", 1), ("j", 1), ("-j", 1),
                    ("i", -1), ("-i", -1), ("k", -1), ("-k", -1)]:
        zero_identity = zero_identity + ew.zeta(g, sign)
    assert space.equivalent(zero_identity, EdgeChain.zero(8))


def test_ew_alternative_expressions_differ_by_relation(ew):
    space = chain_space(ew.origami)
    # zeta_1 + sigma_j and sigma_1 + zeta_i differ by the square relation at 1
    assert space.equivalent(ew.zeta("1") + ew.sigma("j"),
                            ew.sigma("1") + ew.zeta("i"))


def test_ew_boundary_w_i(ew):
    space = chain_space(ew.origami)
    # vertex classes in square order: {1,-1}, {i,-i}, {j,-j}, {k,-k}
    assert space.boundary(ew.w("i")) == (-4, -4, 4, 4)


def test_full_sums_are_absolute(ew):
    space = chain_space(ew.origami)
    split = space.standard_splitting()
    assert all(x == 0 for x in space.boundary(split.sigma))
    assert all(x == 0 for x in space.boundary(split.zeta))
    assert _holonomy(split.sigma) == (8, 0) and _holonomy(split.zeta) == (0, 8)


def test_epsilon_half_identities(ew):
    space = chain_space(ew.origami)
    for g in QUATERNION_ORDER:
        half = Fraction(1, 2)
        lhs = ew.sigma_hat(g)
        rhs = (ew.epsilon(g) + ew.epsilon(quaternion_mul(g, "j"))).scale(half)
        assert space.equivalent(lhs, rhs)
        lhs = ew.zeta_hat(g)
        rhs = (ew.epsilon(g) + ew.epsilon(quaternion_mul(g, "i"))).scale(half)
        assert space.equivalent(lhs, rhs)
        assert space.equivalent(ew.epsilon(g),
                                ew.zeta_hat(g) - ew.zeta_hat(quaternion_mul(g, "i")))


def test_marked_subspace_dimensions(ew, orn3):
    space3 = chain_space(orn3.origami)
    marked = space3.marked_subspace(space3.singular_vertices())
    assert marked.dim == 10  # 2g + |Sigma| - 1 = 8 + 3 - 1
    space_ew = chain_space(ew.origami)
    assert space_ew.marked_subspace(space_ew.singular_vertices()).dim == 9
    assert space_ew.absolute_subspace().dim == 6


def test_standard_splitting_dims(ew, orn3):
    assert chain_space(ew.origami).standard_splitting().h1_0_abs.dim == 4
    assert chain_space(orn3.origami).standard_splitting().h1_0_abs.dim == 6
    assert chain_space(TORUS).standard_splitting().h1_0_abs.dim == 0


def test_orn_boundary_sigma_flat(orn3):
    space = chain_space(orn3.origami)
    boundary = space.boundary(orn3.sigma_flat())
    owner = vertex_of_square(orn3.origami)
    a01 = owner[orn3.idx(0, 0, 1)]
    a11 = owner[orn3.idx(0, 1, 1)]
    assert boundary[a01] == 6 and boundary[a11] == -6
    assert sum(boundary) == 0


def test_intersection_tables_ew(ew):
    space = chain_space(ew.origami)
    sh = ew.sigma_hat
    table = {("1", "i"): 2, ("i", "1"): -2, ("j", "k"): -2, ("k", "j"): 2,
             ("1", "j"): 0, ("1", "k"): 0, ("i", "j"): 0, ("i", "k"): 0}
    for (a, b), value in table.items():
        assert space.intersection(sh(a), sh(b)) == value
    eps = ew.epsilon
    eps_table = {("1", "k"): 4, ("i", "j"): -4, ("j", "i"): 4, ("k", "1"): -4,
                 ("1", "i"): 0, ("1", "j"): 0, ("i", "k"): 0, ("j", "k"): 0}
    for (a, b), value in eps_table.items():
        assert space.intersection(eps(a), eps(b)) == value


def test_intersection_tables_orn(orn3):
    space = chain_space(orn3.origami)

    def gamma(i):
        return orn3.sigma(i) + orn3.sigma_p(i - 1)

    def delta(i):
        return orn3.zeta(i) + orn3.zeta_p(i + 1)

    for i in range(3):
        assert space.intersection(gamma(i), gamma(i + 1)) == 2
        assert space.intersection(delta(i), delta(i + 1)) == 2
        assert space.intersection(gamma(i), delta(i)) == 1
        assert space.intersection(gamma(i), delta(i + 1)) == 1
        assert space.intersection(gamma(i), delta(i - 1)) == -1
        assert space.intersection(orn3.sigma_breve(i), orn3.sigma_breve(i + 1)) == 6
        assert space.intersection(orn3.zeta_breve(i), orn3.zeta_breve(i + 1)) == 6
        assert space.intersection(orn3.sigma_breve(i), orn3.zeta_breve(i)) == -4
        assert space.intersection(orn3.sigma_breve(i), orn3.zeta_breve(i + 1)) == 2
        assert space.intersection(orn3.sigma_breve(i), orn3.zeta_breve(i - 1)) == 2


def test_intersection_antisymmetric_and_relation_invariant(ew):
    space = chain_space(ew.origami)
    rng = random.Random(11)
    basis = space.integral_absolute_basis()

    def random_absolute():
        v = [Fraction(0)] * 16
        for b in basis:
            c = rng.randrange(-3, 4)
            if c:
                v = [x + c * y for x, y in zip(v, b)]
        return EdgeChain.from_flat(v)

    for _ in range(40):
        a, b = random_absolute(), random_absolute()
        ab = space.intersection(a, b)
        assert ab == -space.intersection(b, a)
        shifted = b + space.relation_chain(rng.randrange(8)).scale(rng.randrange(1, 3))
        assert space.intersection(a, shifted) == ab
        shifted_a = a + space.relation_chain(rng.randrange(8))
        assert space.intersection(shifted_a, b) == ab


def test_intersection_rejects_relative(ew):
    space = chain_space(ew.origami)
    with pytest.raises(NotAbsolute):
        space.intersection(ew.sigma("1"), ew.sigma("i"))


def test_unimodular_on_catalog(ew, orn3, appendix_b):
    for cat in (ew, orn3, appendix_b):
        space = chain_space(cat.origami)
        basis = space.integral_absolute_basis()
        gram = space.gram(basis)
        assert abs(linalg.det(gram)) == 1


def test_transversal_pairing_rows(ew):
    rng = random.Random(2)
    rows = ew.origami.r.cycles()
    columns = ew.origami.u.cycles()
    for _ in range(10):
        chain = random_chain(rng, 8)
        total_zeta = sum((_horizontal_core_pairing(row, chain)
                          for row in rows), Fraction(0))
        assert total_zeta == _holonomy(chain)[1]
        total_sigma = sum((_vertical_core_pairing(col, chain)
                           for col in columns), Fraction(0))
        assert total_sigma == -_holonomy(chain)[0]


def test_transversal_pairing_torus():
    zeta = EdgeChain.unit(1, "z", 0)
    assert _horizontal_core_pairing([0], zeta) == 1


def test_random_origamis_unimodular_antisymmetric():
    rng = random.Random(77)
    for _ in range(15):
        n = rng.randrange(2, 13)
        r, u = random_transitive_pair(n, rng)
        origami = make_origami(n, r, u)
        space = chain_space(origami)
        basis = space.integral_absolute_basis()
        gram = space.gram(basis)
        assert abs(linalg.det(gram)) == 1
        for i in range(len(basis)):
            for j in range(len(basis)):
                assert gram[i][j] == -gram[j][i]


def test_chain_space_cache_is_bounded():
    perms = [Perm(p) for p in itertools.permutations(range(4))]
    origamis = [make_origami(4, r, u) for r in perms for u in perms
                if are_transitive((r, u))]
    assert len(set(origamis)) > chain_space.cache_info().maxsize
    for origami in origamis:
        space = chain_space(origami)
        assert chain_space(origami) is space
        assert chain_space.cache_info().currsize <= chain_space.cache_info().maxsize


# -- the replaced constructions, kept as references ----------------------------


def _constrained_subspace_by_nullspace(space, allowed_vertices, zero_holonomy):
    """Classes with boundary supported on the allowed vertex classes: a Q
    nullspace of the constraints on the full-subspace basis, combined back."""
    # imported here: test_linalg skips its whole module without sympy
    from test_linalg import nullspace
    full = space.full_subspace()
    rows = []
    for b in full.basis:
        constraints = [x for k, x in enumerate(space.boundary_vec(b))
                       if k not in allowed_vertices]
        if zero_holonomy:
            constraints += [sum(b[:space.n]), sum(b[space.n:])]
        rows.append(tuple(constraints))
    if not rows[0]:
        combos = list(linalg.identity(len(rows)))
    else:
        combos = nullspace(linalg.transpose(tuple(rows)))
    vecs = []
    for combo in combos:
        v = [0] * (2 * space.n)
        for coef, b in zip(combo, full.basis):
            if coef:
                v = [x + coef * y for x, y in zip(v, b)]
        vecs.append(tuple(v))
    return space.subspace_from_vecs(vecs)


def _integral_absolute_basis_by_edge_kernel(space):
    """Hermite basis of the canonical forms of an integer kernel of the
    boundary matrix built on all 2n edges."""
    n, owner, origami = space.n, space.vowner, space.origami
    bmat = [[0] * (2 * n) for _ in space.vclasses]
    for g in range(n):
        bmat[owner[origami.r(g)]][g] += 1
        bmat[owner[g]][g] -= 1
        bmat[owner[origami.u(g)]][n + g] += 1
        bmat[owner[g]][n + g] -= 1
    reduced = [space.canonical_vec(k) for k in linalg.integer_kernel(bmat)]
    return [tuple(row) for row in linalg.hermite_row_basis(reduced)]


def _subspaces_match_references(origami):
    space = chain_space(origami)
    singular = set(space.singular_vertices())
    marks = space.singular_vertices() or [0]
    splitting = space.standard_splitting()
    pairs = [(space.absolute_subspace(), (set(), False)),
             (space.marked_subspace(marks), (set(marks), False)),
             (splitting.h1_0_abs, (set(), True)),
             (splitting.h1_0_rel, (singular, True))]
    for sub, (allowed, zero_holonomy) in pairs:
        assert sub == _constrained_subspace_by_nullspace(space, allowed, zero_holonomy)
    assert space.integral_absolute_basis() == \
        _integral_absolute_basis_by_edge_kernel(space)


def test_kernel_subspaces_match_references_on_catalog(ew, orn3, orn5, appendix_b):
    for surface in (ew, orn3, orn5, appendix_b):
        _subspaces_match_references(surface.origami)
    _subspaces_match_references(TORUS)


def test_kernel_subspaces_match_references_on_random_origamis():
    rng = random.Random(2024)
    for _ in range(100):
        n = rng.randrange(5, 9)
        _subspaces_match_references(make_origami(n, *random_transitive_pair(n, rng)))


def test_edge_endpoints_agree_with_the_boundary(orn3):
    space = chain_space(orn3.origami)
    unit = linalg.identity(2 * space.n)
    for j in range(2 * space.n):
        tail, head = space.edge_endpoints("s" if j < space.n else "z", j % space.n)
        expected = [0] * len(space.vclasses)
        expected[head] += 1
        expected[tail] -= 1
        assert space.boundary_vec(unit[j]) == tuple(expected)


# -- the intersection form by germ prefix sums, and closed walks ---------------


def _intersection_by_arcs(space, a, b):
    """<a, b> crossing by crossing: a, scaled to an integer chain, is split
    into closed walks, and at each passage the signed coefficients of b on
    the germs of the open ccw arc from the departure germ to the arrival germ
    are summed (outgoing +1, incoming -1)."""
    av, bv = a.flat(), b.flat()
    scale = math.lcm(*(Fraction(x).denominator for x in av))
    total = 0
    for walk in space.decompose_walks(tuple(Fraction(x * scale) for x in av)):
        for vidx, arrival, departure in space.walk_passages(walk):
            germs = space._germs[vidx]
            pos = (departure + 1) % len(germs)
            while pos != arrival:
                kind, etype, g = germs[pos]
                coeff = bv[g if etype == "s" else space.n + g]
                total += coeff if kind == "out" else -coeff
                pos = (pos + 1) % len(germs)
    return Fraction(total, scale)


def test_intersection_matches_the_arc_sums_on_random_origamis():
    rng = random.Random(18)
    for _ in range(60):
        n = rng.randrange(2, 11)
        space = chain_space(make_origami(n, *random_transitive_pair(n, rng)))
        basis = [EdgeChain.from_flat(v) for v in space.integral_absolute_basis()]
        combo = EdgeChain.zero(n)
        for b in basis:
            combo = combo + b.scale(Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)))
        for a in basis + [combo]:
            for b in basis + [combo]:
                value = space.intersection(a, b)
                assert value == _intersection_by_arcs(space, a, b)
                if a is not combo and b is not combo:
                    assert type(value) is int


PINNED_GRAMS = {
    "ew": ((0, 1, 0, 1, -1, 0), (-1, 0, 0, 0, 1, 0), (0, 0, 0, 1, 0, -1),
           (-1, 0, -1, 0, 0, 1), (1, -1, 0, 0, 0, 0), (0, 0, 1, -1, 0, 0)),
    "orn3": ((0, 0, 0, 0, 1, 0, 1, 0), (0, 0, 1, 0, 1, -1, 0, -1),
             (0, -1, 0, 0, -1, 1, 0, 1), (0, 0, 0, 0, 0, 0, 1, 0),
             (-1, -1, 1, 0, 0, 1, 0, -1), (0, 1, -1, 0, -1, 0, 0, 1),
             (-1, 0, 0, -1, 0, 0, 0, 0), (0, 1, -1, 0, 1, -1, 0, 0)),
    "appendix_b": ((0, -1, -1, 1), (1, 0, 1, 0), (1, -1, 0, 0), (-1, 0, 0, 0)),
}


def test_gram_needs_no_walks(monkeypatch, ew, orn3, appendix_b):
    from origamis.homology import ChainSpace

    def refuse(*args):
        raise RuntimeError("the pairing walked")

    monkeypatch.setattr(ChainSpace, "decompose_walks", refuse)
    monkeypatch.setattr(ChainSpace, "walk_passages", refuse)
    for name, surface in (("ew", ew), ("orn3", orn3), ("appendix_b", appendix_b)):
        space = chain_space(surface.origami)
        assert space.gram(space.integral_absolute_basis()) == PINNED_GRAMS[name]


def _edge_cycles(space):
    """One cycle per edge off a BFS tree of the vertex classes: the edge
    closed by the tree path from its head back to its tail, so a loop edge is
    its own cycle. Entries are -1, 0 and 1."""
    width = 2 * space.n
    path = {0: [0] * width}  # vertex class -> the tree path to it from class 0
    queue = [0]
    for vertex in queue:
        for j, ends in enumerate(space.edge_ends):
            for sign, (here, there) in ((1, ends), (-1, ends[::-1])):
                if here == vertex and there not in path:
                    path[there] = [x + sign * (k == j) for k, x in enumerate(path[vertex])]
                    queue.append(there)
    cycles = []
    for j, (tail, head) in enumerate(space.edge_ends):
        cycle = [int(k == j) + x - y for k, (x, y) in enumerate(zip(path[tail], path[head]))]
        if any(cycle):
            cycles.append(tuple(cycle))
    return cycles


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.randoms(use_true_random=False),
       st.lists(st.tuples(st.integers(0, 63), st.sampled_from([-1, 1])), max_size=3))
def test_decompose_walks_covers_absolute_chains(n, rng, picks):
    """Chains are sums of at most three +-cycles, so coefficients lie in
    -3..3; at n = 1 and wherever a vertex class ends both sides of an edge,
    loop edges occur."""
    space = chain_space(make_origami(n, *random_transitive_pair(n, rng)))
    cycles = _edge_cycles(space)
    v = [0] * (2 * n)
    for index, sign in picks:
        v = [x + sign * y for x, y in zip(v, cycles[index % len(cycles)])]
    total = [0] * (2 * n)
    for walk in space.decompose_walks(tuple(v)):
        assert len(space.walk_passages(walk)) == len(walk)
        for etype, g, direction in walk:
            total[g if etype == "s" else n + g] += direction
    assert total == v
