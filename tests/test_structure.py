import collections
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from origamis import linalg, rootsys, verification
from origamis.affine import (automorphism_lift, lift, matrix_in_chain_basis,
                             matrix_on)
from origamis.catalog import QUATERNION_ORDER, catalog
from origamis.errors import NotD4, NotInAut, NotInCyclicImage, OrderExceedsCap
from origamis.homology import ChainSpace, EdgeChain, Subspace, chain_space
from origamis.rootsys import (FiniteMatrixGroup, UnboundedWitness, _signed_maps,
                              _unbounded_witness, detect_d4, finite_closure,
                              grows, symplectic_subgroup)
from origamis.sl2z import CongruenceSubgroup, J_MAT, S_MAT, T_MAT, mat_pow
from origamis.errors import NotInvariant
from origamis.structure import (CongruenceReport, cocycle_growth,
                                combined_action, _direct_sum_ok, _log_abs,
                                decompose_ew, decompose_orn,
                                kernel_is_congruence, operator_norm,
                                tau_character)
from test_homology import _fractions


# -- the character layer, kept as a reference ----------------------------------


# The irreducible characters of Q8 on QUATERNION_ORDER: 1, -1, i, -i, j, -j, k, -k.
QUATERNION_CHARACTERS = {
    "chi_1": (1, 1, 1, 1, 1, 1, 1, 1),
    "chi_i": (1, 1, 1, 1, -1, -1, -1, -1),
    "chi_j": (1, 1, -1, -1, 1, 1, -1, -1),
    "chi_k": (1, 1, -1, -1, -1, -1, 1, 1),
    "chi_2": (2, -2, 0, 0, 0, 0, 0, 0),
}


def cyclic_characters(q):
    """The rational characters of Z/q on g = 0..q-1, one per divisor d of q:
    chi_d, the sum of the faithful characters of Z/d, is the regular
    character d [d | g] of Z/d less the chi_e of the smaller divisors e."""
    chars = {}
    for d in range(1, q + 1):
        if q % d == 0:
            chars[d] = tuple(d * (g % d == 0) - sum(c[g] for e, c in chars.items()
                                                      if d % e == 0)
                             for g in range(q))
    return chars


def isotypic_multiplicities(aut_lifts, sub, characters):
    """Multiplicity of each named integer character on an invariant subspace:
    (sum of tr * chi) / (sum of chi^2) over the lifts, a character holding
    one value per lift in the lifts' order. For a rational character, the sum
    of k Galois-conjugate irreducibles, that is the multiplicity of each."""
    traces = []
    for lf in aut_lifts:
        m = matrix_on(lf, sub)
        traces.append(sum(m[i][i] for i in range(len(m))))
    return {name: Fraction(sum(t * x for t, x in zip(traces, chi)),
                           sum(x * x for x in chi))
            for name, chi in characters.items()}


def mod_psi(a):
    """Canonical representative modulo Psi_q(x) = 1 + x + ... + x^{q-1},
    q = len(a): subtracting a multiple of Psi_q clears the x^{q-1} term."""
    return tuple(x - a[-1] for x in a)


def breve_blocks(orn, lift_):
    """2x2 matrix over Q[x]/(x^q-1) mod Psi_q for the action on H-breve.

    Columns are the images of (sigma_breve(rho), zeta_breve(rho)); entry
    polynomials evaluate at each nontrivial q-th root of unity rho = x. They
    solve for the image of each seed at index 0 and must give the image at
    every index i shifted by i, one product on the canonical breve basis.
    """
    q = orn.q
    space = chain_space(orn.origami)
    flats = [orn.sigma_breve(j).flat() for j in range(q)] + \
        [orn.zeta_breve(j).flat() for j in range(q)]
    basis = linalg.transpose(tuple(space.canonical_vec(v) for v in flats))
    matrix_cols = []
    for offset in (0, q):
        images = [lift_.image(flats[offset + i]) for i in range(q)]
        sol = linalg.solve(basis, images[0])
        if sol is None:
            raise NotInvariant("lift does not preserve the breve subspace")
        matrix_cols.append((mod_psi(sol[:q]), mod_psi(sol[q:])))
        # shift-equivariance: column i holds the solution shifted by index i
        shifted = tuple(tuple(sol[half + (j - i) % q] for i in range(q))
                        for half in (0, q) for j in range(q))
        if linalg.transpose(linalg.mat_mul(basis, shifted)) != tuple(images):
            raise NotInvariant("action is not shift-equivariant on H-breve")
    (c1, d1), (c2, d2) = matrix_cols
    return ((c1, c2), (d1, d2))


def breve_block_trace(block):
    return mod_psi(tuple(a + b for a, b in zip(block[0][0], block[1][1])))


def test_quaternion_character_orthogonality():
    names = list(QUATERNION_CHARACTERS)
    for a in names:
        for b in names:
            total = sum(x * y for x, y in zip(QUATERNION_CHARACTERS[a],
                                              QUATERNION_CHARACTERS[b]))
            assert total == (8 if a == b else 0)


@pytest.mark.parametrize("q", [3, 5, 9, 15])
def test_cyclic_character_orthogonality(q):
    chars = cyclic_characters(q)
    assert list(chars) == [d for d in range(1, q + 1) if q % d == 0]
    for d, chi in chars.items():
        assert all(type(x) is int for x in chi)
        assert chi[0] == sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)
        for e, psi in chars.items():
            total = sum(x * y for x, y in zip(chi, psi))
            assert total == (q * chi[0] if d == e else 0)


def _dimension(mult, characters):
    return sum(m * characters[name][0] for name, m in mult.items())


def test_cyclic_multiplicities_q3(orn3, orn3_report):
    auts = [orn3_report.lifts[f"aut_{g}"] for g in range(3)]
    chars = cyclic_characters(3)
    cases = [("H_breve", {1: 0, 3: 2}), ("H_tau", {1: 0, 3: 1})]
    for name, expected in cases:
        sub = orn3_report.subspaces[name]
        mult = isotypic_multiplicities(auts, sub, chars)
        assert mult == expected
        assert _dimension(mult, chars) == sub.dim


def test_cyclic_multiplicities_q9():
    orn = catalog("ornithorynque", q=9)
    sub = chain_space(orn.origami).subspace_from([orn.tau(i) for i in range(9)])
    auts = [automorphism_lift(orn.origami, orn.shift(g)) for g in range(9)]
    chars = cyclic_characters(9)
    mult = isotypic_multiplicities(auts, sub, chars)
    assert mult == {1: 0, 3: 1, 9: 1}
    assert _dimension(mult, chars) == sub.dim == 8


def test_isotypic_multiplicities(ew_report):
    auts = [ew_report.lifts[f"aut_{g}"] for g in QUATERNION_ORDER]
    cases = [("H1_0", {"chi_1": 0, "chi_i": 0, "chi_j": 0, "chi_k": 0, "chi_2": 2}),
             ("H_rel", {"chi_1": 0, "chi_i": 1, "chi_j": 1, "chi_k": 1, "chi_2": 0}),
             ("H1_st", {"chi_1": 2, "chi_i": 0, "chi_j": 0, "chi_k": 0, "chi_2": 0})]
    for name, expected in cases:
        sub = ew_report.subspaces[name]
        mult = isotypic_multiplicities(auts, sub, QUATERNION_CHARACTERS)
        assert mult == expected
        assert _dimension(mult, QUATERNION_CHARACTERS) == sub.dim


def test_decompositions_pass(ew_report, orn3_report, orn5_report):
    assert ew_report.all_ok
    assert orn3_report.all_ok
    assert orn5_report.all_ok


def _every_lift_generators(rep):
    """The reference generator list: the Veech lifts, then every aut_ lift,
    as `group` closed them before the decompositions named generators."""
    veech = [k for k in ("S", "T", "S2", "T2", "J") if k in rep.lifts]
    return veech + [k for k in rep.lifts if k.startswith("aut_")]


@pytest.mark.parametrize("family", ["ew", 3, 5, 7])
def test_generators_close_to_the_group_of_every_lift(request, family):
    """On every named subspace, the report's blocks are the generators'
    matrix_on blocks, and their closure has the elements of the closure over
    every lift, or the same witness word: the Veech lifts come first in both
    lists."""
    rep = request.getfixturevalue("ew_report") if family == "ew" else \
        decompose_orn(catalog("ornithorynque", q=family))
    reference = _every_lift_generators(rep)
    assert rep.generators[:len(rep.veech_generators)] == rep.veech_generators
    assert list(rep.veech_generators) == reference[:len(rep.veech_generators)]
    for name, sub in rep.subspaces.items():
        assert rep.blocks[name] == [matrix_on(rep.lifts[k], sub)
                                    for k in rep.generators], name
        got, want = (finite_closure([matrix_on(rep.lifts[k], sub) for k in names],
                                    2000)
                     for names in (rep.generators, reference))
        assert type(got) is type(want), name
        if isinstance(want, FiniteMatrixGroup):
            assert got.order == want.order, name
            assert set(got.elements) == set(want.elements), name
        else:
            assert got.word == want.word, name


def test_tau_characters_q3(orn3, orn3_report):
    assert tau_character(orn3, orn3_report.lifts["T"]) == 1
    assert tau_character(orn3, orn3_report.lifts["S"]) == 5
    assert tau_character(orn3, orn3_report.lifts["aut_1"]) == 2
    assert tau_character(orn3, orn3_report.lifts["aut_0"]) == 0


def test_tau_characters_q5(orn5, orn5_report):
    assert tau_character(orn5, orn5_report.lifts["T2"]) == 2
    assert tau_character(orn5, orn5_report.lifts["S2"]) == 8  # -2 mod 10
    assert tau_character(orn5, orn5_report.lifts["J"]) == 5
    assert tau_character(orn5, orn5_report.lifts["aut_1"]) == 2


def _tau_character_by_scan(orn, lift_):
    """The least k in [0, 2q) whose power of the cyclic generator matches
    every tau image, by trying each k: the scan the lookup replaced."""
    q = orn.q
    space = chain_space(orn.origami)
    chains = [orn.tau(i).flat() for i in range(q)]
    taus = [space.canonical_vec(c) for c in chains]
    images = [lift_.image(c) for c in chains]
    shift = (q + 1) // 2
    for k in range(2 * q):
        sign = (-1) ** k
        if all(images[i] == linalg.vec_scale(sign, taus[(i + k * shift) % q])
               for i in range(q)):
            return k
    raise NotInCyclicImage("action is not a power of the cyclic generator")


def _without_column(lifted, j):
    """The lift with column j of its map zeroed."""
    return lifted._replace(rows=tuple(tuple((c, x) for c, x in row if c != j)
                                      for row in lifted.rows))


@pytest.mark.parametrize("q", range(3, 17, 2))
def test_tau_character_matches_the_scan(q):
    """Every named lift, and the products of the Veech generators with an
    automorphism, read the same k by lookup as by the 2q scan; a lift whose
    rows lose the column of sigma_0 (in tau_0) or of sigma_2 (in tau_1, not
    in tau_0) is no power of the generator either way."""
    orn = catalog("ornithorynque", q=q)
    report = decompose_orn(orn)
    lifts = dict(report.lifts)
    for name in report.veech_generators:
        lifts[f"{name}*aut_1"] = lifts[name].compose(lifts["aut_1"])
    seen = set()
    for name, lf in lifts.items():
        k = tau_character(orn, lf)
        assert k == _tau_character_by_scan(orn, lf), name
        seen.add(k)
    assert len(seen) > 2
    for lf in (report.lifts["aut_0"], lifts[report.veech_generators[0]]):
        for g in (orn.idx(0, 1, 1), orn.idx(2, 1, 1)):
            mutated = _without_column(lf, g)
            with pytest.raises(NotInCyclicImage):
                _tau_character_by_scan(orn, mutated)
            with pytest.raises(NotInCyclicImage):
                tau_character(orn, mutated)


def test_tau_rejects_foreign_lift(orn3, ew_report):
    from origamis.errors import NotInvariant
    with pytest.raises((NotInCyclicImage, NotInvariant)):
        tau_character(orn3, ew_report.lifts["S"])


def _polys(q):
    """1, x, x^-1 and 0 in Q[x]/(x^q - 1), reduced mod Psi_q."""
    def x_power(k):
        return mod_psi(tuple(int(i == k % q) for i in range(q)))
    return x_power(0), x_power(1), x_power(-1), (0,) * q


def test_breve_blocks_q3(orn3, orn3_report):
    one, x, x_inv, zero = _polys(3)
    assert breve_blocks(orn3, orn3_report.lifts["S"]) == ((one, zero), (x_inv, x))
    assert breve_blocks(orn3, orn3_report.lifts["T"]) == ((x_inv, x), (zero, one))


def test_breve_blocks_q5_j(orn5, orn5_report):
    one, _, _, zero = _polys(5)
    minus_one = tuple(-c for c in one)
    assert breve_blocks(orn5, orn5_report.lifts["J"]) == \
        ((zero, minus_one), (one, zero))


@pytest.mark.parametrize("q", [3, 5])
def test_breve_trace_identity(q):
    orn = catalog("ornithorynque", q=q)
    from origamis.structure import decompose_orn
    rep = decompose_orn(orn)
    if q == 3:
        s2 = rep.lifts["S"].compose(rep.lifts["S"])
        t2 = rep.lifts["T"].compose(rep.lifts["T"])
    else:
        s2, t2 = rep.lifts["S2"], rep.lifts["T2"]
    block = breve_blocks(orn, s2.compose(t2))
    one, x, x_inv, _ = _polys(q)
    # trace = 2(1 + x + x^-1) mod Psi_q
    assert breve_block_trace(block) == \
        mod_psi(tuple(2 * (a + b + c) for a, b, c in zip(one, x, x_inv)))
    # trace on all of H_breve is 2(q-3)
    sub = rep.subspaces["H_breve"]
    m = matrix_on(s2.compose(t2), sub)
    assert sum(m[i][i] for i in range(len(m))) == 2 * (q - 3)


def _frame_coords(system, vectors):
    """Ambient vectors solved against the frame rows of system."""
    cols = linalg.transpose(system.frame)
    coords = tuple(linalg.solve(cols, v) for v in vectors)
    assert None not in coords
    return coords


def _d4_by_hand():
    """{+-e_a +- e_b, a < b} in R^4, written out."""
    return {tuple(sa * (k == a) + sb * (k == b) for k in range(4))
            for a in range(4) for b in range(a + 1, 4)
            for sa in (1, -1) for sb in (1, -1)}


def test_detect_d4_properties(ew_root_system, ew_roots):
    system = ew_root_system[3]
    roots = _frame_coords(system, ew_roots)
    root_set = set(roots)
    assert len(roots) == 24 and root_set == _d4_by_hand()
    for r in roots:
        assert tuple(-x for x in r) in root_set
        assert sum(x * x for x in r) == 2
        # reflection closure
        for r2 in roots:
            dot = sum(a * b for a, b in zip(r, r2))
            image = tuple(b - dot * a for a, b in zip(r, r2))
            assert image in root_set
    weyl = system.weyl_group()
    aut = _automorphism_group(roots)
    assert weyl.order == 192
    assert aut.order == 1152
    assert aut.order // weyl.order == 6
    for w in weyl.elements:
        assert system.preserves_roots(w)


@pytest.mark.parametrize("family", ["ew", "orn3"])
def test_one_seed_orbit_is_the_listed_root_set(request, monkeypatch, family):
    """The orbit of one seed under the generator lifts, which `_d4_system`
    builds, is the root set as first built: the eight-seed orbit of theorem
    A and the 24 hand-listed classes of theorem B."""
    report = request.getfixturevalue(f"{family}_report")
    expected = request.getfixturevalue(f"{family}_roots")
    seen = []

    def recording(vectors, frame):
        seen.append(frozenset(vectors))
        return detect_d4(vectors, frame)

    monkeypatch.setattr(rootsys, "detect_d4", recording)
    system = verification._d4_system(
        report, *request.getfixturevalue(f"{family}_d4_args"))
    assert seen == [expected] and len(expected) == 24
    assert detect_d4(expected, system.frame) == system


def test_an_unbounded_orbit_stops_at_its_25th_class(orn5, orn5_report):
    """On H_breve of q = 5 the image is infinite: the orbit stops at 25
    classes and `detect_d4` rejects it."""
    with pytest.raises(NotD4, match="got 25"):
        verification._d4_system(orn5_report, orn5.sigma_breve(0),
                                [orn5.sigma_breve(i) for i in range(4)])


def test_triality_is_weyl_coset_map(ew_root_system):
    system = ew_root_system[3]
    weyl = system.weyl_group()
    rng = random.Random(6)
    sample = rng.sample(list(weyl.elements), 6)
    identity_img = {1: 1, 3: 3, 4: 4}
    for w in sample:
        assert system.triality_image(w) == identity_img


# The searches that the direct readings replaced, kept as references.


def _negate(v):
    return tuple(-x for x in v)


def _frames_by_search(roots):
    """The three unsigned frames of a D4 system (in the coordinates of its
    roots), found intrinsically: the nonzero half-sums of root pairs that
    occur three times are the 24 frame vectors, and a frame collects mutual
    frame-mates e, e' with both e + e' and e - e' roots."""
    root_set = set(roots)
    halves = collections.Counter(tuple(Fraction(x + y, 2) for x, y in zip(a, b))
                                 for a, b in itertools.combinations(roots, 2))
    candidates = [v for v, c in halves.items() if c == 3 and any(v)]
    assert len(candidates) == 24

    def mates(e, f):
        return (linalg.vec_add(e, f) in root_set
                and linalg.vec_sub(e, f) in root_set)

    remaining = set(candidates)
    frames = []
    while remaining:
        seed = min(remaining)
        frame = [seed]
        for c in sorted(remaining):
            if c != seed and all(mates(c, f) for f in frame):
                frame.append(c)
        for f in frame:
            remaining -= {f, _negate(f)}
        assert len(frame) == 4
        frames.append(tuple(frame))
    assert len(frames) == 3
    return frames


def _pinned_frame_is_a_searched_frame(system, roots):
    """The pinned frame rows lie in exactly one of the three frames that
    the search finds among the ambient roots."""
    classes = [{v for f in fr for v in (f, _negate(f))}
               for fr in _frames_by_search(sorted(roots))]
    return sum(set(system.frame) <= klass for klass in classes) == 1


def test_pinned_frame_is_one_of_the_three_frames(
        ew_root_system, ew_roots, orn3_root_system, orn3_roots):
    assert _pinned_frame_is_a_searched_frame(ew_root_system[3], ew_roots)
    assert _pinned_frame_is_a_searched_frame(orn3_root_system, orn3_roots)


@functools.lru_cache(maxsize=None)
def _automorphism_group(roots):
    """All orthogonal maps preserving the roots (frame coordinates): frame
    to signed frame."""
    order = list(dict.fromkeys(m for fr in _frames_by_search(roots)
                               for _, m in _signed_maps(fr)))
    root_set = set(roots)
    for m in order:
        image = {tuple(linalg.mat_vec(m, r)) for r in root_set}
        if image != root_set:
            raise NotInAut("frame map does not preserve the roots")
    return FiniteMatrixGroup(tuple(order))


def _reflection_closure(roots):
    """W(R) as the closure of the root reflections (frame coordinates)."""
    gens = []
    for root in roots:
        norm2 = sum(x * x for x in root)
        gens.append(tuple(tuple(int(i == j) - Fraction(2 * root[i] * root[j], norm2)
                                for j in range(4)) for i in range(4)))
    return finite_closure(tuple(dict.fromkeys(gens)), 300)


def _triality_by_weyl_search(m, weyl_inverses):
    """The Weyl correction g = w^-1 m that fixes alpha_2 and permutes
    alpha_1, alpha_3, alpha_4 (alpha = e1-e2, e2-e3, e3-e4, e3+e4)."""
    e = linalg.identity(4)
    alphas = {1: linalg.vec_sub(e[0], e[1]), 2: linalg.vec_sub(e[1], e[2]),
              3: linalg.vec_sub(e[2], e[3]), 4: linalg.vec_add(e[2], e[3])}
    m_alphas = {a: linalg.mat_vec(m, v) for a, v in alphas.items()}
    for winv in weyl_inverses:
        if tuple(linalg.mat_vec(winv, m_alphas[2])) != alphas[2]:
            continue
        g_alphas = {a: tuple(linalg.mat_vec(winv, m_alphas[a])) for a in (1, 3, 4)}
        images = {a: next((b for b in (1, 3, 4) if alphas[b] == g_alphas[a]), None)
                  for a in (1, 3, 4)}
        if None not in images.values():
            return images
    raise NotInAut("no Weyl correction matches")


def _check_triality_against_search(system, ambient_roots, generator_images):
    roots = _frame_coords(system, sorted(ambient_roots))
    inverses = [linalg.mat_inv(w) for w in _reflection_closure(roots).elements]
    sample = random.Random(4).sample(_automorphism_group(roots).elements, 36)
    labels = set()
    for m in generator_images + sample:
        expected = _triality_by_weyl_search(m, inverses)
        assert system.triality_image(m) == expected
        labels.add(tuple(sorted(expected.items())))
    assert len(labels) == 6
    with pytest.raises(NotInAut):
        system.triality_image(_fractions([[1, 1, 0, 0], [0, 1, 0, 0],
                                          [0, 0, 1, 0], [0, 0, 0, 1]]))


def test_triality_matches_weyl_coset_search_ew(ew_root_system, ew_roots):
    _, rep, _, system = ew_root_system
    s, t = rep.lifts["S"], rep.lifts["T"]
    images = [matrix_in_chain_basis(lf, system.frame) for lf in
              (s, t, s.compose(t), rep.lifts["aut_i"], rep.lifts["aut_j"])]
    _check_triality_against_search(system, ew_roots,
                                   images + [linalg.identity(4)])


def test_triality_matches_weyl_coset_search_orn3(
        orn3_report, orn3_root_system, orn3_roots):
    system = orn3_root_system
    z_s, z_t, z_1 = (matrix_in_chain_basis(orn3_report.lifts[k], system.frame)
                     for k in ("S", "T", "aut_1"))
    _check_triality_against_search(system, orn3_roots, [
        z_s, z_t, z_1, linalg.mat_mul(z_1, z_1)])


def test_weyl_group_is_the_reflection_closure(ew_root_system, ew_roots):
    system = ew_root_system[3]
    closure = _reflection_closure(_frame_coords(system, sorted(ew_roots)))
    weyl = system.weyl_group()
    assert weyl.order == closure.order == 192
    assert set(weyl.elements) == set(closure.elements)


def _kernel_by_relifting(origami, subspaces, level, sl_lifts, aut_lifts):
    """Lift every Schreier generator of Gamma(level) and look for an
    automorphism whose composition with it acts trivially."""
    gens = [combined_action(lf, subspaces) for lf in
            list(sl_lifts) + list(aut_lifts)]
    order = finite_closure(gens, 2000).order
    subgroup = CongruenceSubgroup(level)
    expected = subgroup.index * finite_closure(gens[2:], 2000).order
    identity = linalg.identity(len(gens[0]))
    witnessed, failed = [], []
    for word in subgroup.generators():
        lifted = lift(origami, word.matrix())
        if any(combined_action(a.compose(lifted), subspaces) == identity
               for a in aut_lifts):
            witnessed.append(str(word))
        else:
            failed.append(str(word))
    return not failed and order == expected, order, expected, witnessed, failed


@pytest.mark.parametrize("family, name, level", [
    ("ew", "H_rel", 2), ("ew", "H1_0", 2), ("orn3", "H_breve", 3)])
def test_congruence_kernel_matches_relifting(request, family, name, level):
    rep = request.getfixturevalue(f"{family}_report")
    auts = [lf for key, lf in rep.lifts.items() if key.startswith("aut_")]
    sl_lifts = [rep.lifts["S"], rep.lifts["T"]]
    subspaces = [rep.subspaces[name]]
    report = kernel_is_congruence(subspaces, level, sl_lifts, auts)
    holds, order, expected, witnessed, failed = _kernel_by_relifting(
        rep.origami, subspaces, level, sl_lifts, auts)
    assert (report.holds, report.image_order, report.expected_order) == \
        (holds, order, expected)
    assert [word for word, _ in report.generator_witnesses] == witnessed
    assert report.failed_words == failed


def _kernel_by_dense_words(subspaces, level, sl_lifts, aut_lifts, cap=2000):
    """The kernel report with each Schreier word evaluated densely: the
    product of the letter matrices, `mat_inv` for the inverse letters, and
    the first automorphism whose action times the product is the identity."""
    s_act, t_act = (combined_action(lf, subspaces) for lf in sl_lifts)
    auts = [combined_action(lf, subspaces) for lf in aut_lifts]
    closure = finite_closure([s_act, t_act] + auts, cap)
    subgroup = CongruenceSubgroup(level)
    expected = subgroup.index * len(set(auts))
    letters = {"S": s_act, "S-": linalg.mat_inv(s_act),
               "T": t_act, "T-": linalg.mat_inv(t_act)}
    identity = linalg.identity(len(s_act))
    witnesses, failed = [], []
    for word in subgroup.generators():
        product = functools.reduce(linalg.mat_mul,
                                   (letters[x] for x in word.exact_letters()))
        found = next((k for k, aut in enumerate(auts)
                      if linalg.mat_mul(aut, product) == identity), None)
        if found is None:
            failed.append(str(word))
        else:
            witnesses.append((str(word), found))
    return CongruenceReport(level, not failed and closure.order == expected,
                            closure.order, expected, witnesses, failed)


@pytest.mark.parametrize("family, names, level", [
    ("ew", "H1_0+H_rel", 4), ("ew", "H1_0+H_rel", 2), ("ew", "H_rel", 2),
    ("ew", "H1_0", 3), ("ew", "H1_0", 8), ("orn3", "H_breve", 2),
    ("orn3", "H_breve", 3), ("orn3", "H_breve", 6)])
def test_congruence_kernel_matches_dense_words(request, family, names, level):
    """Words composed as permutations of the closure's vector orbit give the
    report of the dense matrix products, witnesses and failed words
    included."""
    rep = request.getfixturevalue(f"{family}_report")
    auts = [lf for key, lf in rep.lifts.items() if key.startswith("aut_")]
    args = ([rep.subspaces[k] for k in names.split("+")], level,
            [rep.lifts["S"], rep.lifts["T"]], auts)
    report = kernel_is_congruence(*args)
    assert report == _kernel_by_dense_words(*args)
    if (names, level) == ("H1_0", 3):
        assert len(report.failed_words) == 24


def _vector_orbit(gens):
    """X as `finite_closure` indexes it: each unit vector not yet reached,
    then its orbit breadth-first under the distinct generators other than
    the identity, in the order given."""
    units = linalg.identity(len(gens[0]))
    steps = [g for g in dict.fromkeys(gens) if g != units]
    points = []
    for e in units:
        if e in points:
            continue
        points.append(e)
        done = len(points) - 1
        while done < len(points):
            x = points[done]
            done += 1
            for g in steps:
                y = linalg.mat_vec(g, x)
                if y not in points:
                    points.append(y)
    return points


def test_closure_actions_permute_the_vector_orbit(ew_report, orn3_report):
    """On the closures of theorems A and B, `actions[g][i]` is the index of
    g x_i, for every generator g given, the identity among them."""
    for gens in _paper_closure_generators(ew_report, orn3_report):
        closure = finite_closure(gens, 2000)
        points = _vector_orbit(gens)
        index = {x: i for i, x in enumerate(points)}
        assert set(closure.actions) == set(gens)
        for g in gens:
            assert list(closure.actions[g]) == \
                [index[linalg.mat_vec(g, x)] for x in points]
    assert rootsys.RootSystemD4(linalg.identity(4)).weyl_group().actions == {}


def test_congruence_needs_lifts_of_s_then_t(ew_report):
    auts = [ew_report.lifts[f"aut_{g}"] for g in QUATERNION_ORDER]
    with pytest.raises(ValueError):
        kernel_is_congruence([ew_report.subspaces["H_rel"]], 2,
                             [ew_report.lifts["T"], ew_report.lifts["S"]], auts)


def test_detect_d4_certifies_the_pinned_frame(ew_root_system, ew_roots):
    system = ew_root_system[3]
    vectors = sorted(ew_roots)
    frame = system.frame
    assert detect_d4(vectors, frame) == system
    outside = next(e for e in linalg.identity(len(vectors[0]))
                   if len(linalg.rref(frame + (e,))[1]) == 5)
    with pytest.raises(NotD4, match="over the frame"):
        detect_d4(vectors, (linalg.vec_add(frame[0], outside),) + frame[1:])
    with pytest.raises(NotD4, match="over the frame"):
        detect_d4(vectors, (linalg.vec_scale(2, frame[0]),) + frame[1:])
    with pytest.raises(NotD4, match="4 linearly independent"):
        detect_d4(vectors, frame[:3])
    with pytest.raises(NotD4, match="4 linearly independent"):
        detect_d4(vectors, frame[:3] + (linalg.vec_add(frame[0], frame[1]),))
    with pytest.raises(NotD4, match="over the frame"):
        detect_d4(vectors, tuple(f[:-1] for f in frame))
    with pytest.raises(NotD4, match="of one length"):
        detect_d4(vectors, frame[:3] + (frame[3][:-1],))


def test_detect_d4_rejects_garbage():
    frame = linalg.identity(4)
    d4 = [tuple(sa * x + sb * y for x, y in zip(e, f))
          for e, f in itertools.combinations(frame, 2)
          for sa in (1, -1) for sb in (1, -1)]
    assert detect_d4(d4, frame).frame == frame
    with pytest.raises(NotD4, match="24 distinct"):
        detect_d4([tuple(Fraction(x) for x in v)
                   for v in ((1, 0, 0, 0), (-1, 0, 0, 0))], frame)
    with pytest.raises(NotD4, match="over the frame"):
        detect_d4(d4[:-1] + [(1, 2, 3, 4)], frame)
    # 24 vectors spanning 5 dimensions
    padded = [v + (0,) for v in d4[:-1]] + [(0, 0, 0, 0, 1)]
    with pytest.raises(NotD4, match="over the frame"):
        detect_d4(padded, [e + (0,) for e in frame])


def test_finite_closure_unbounded_witness():
    shear = _fractions([[1, 1], [0, 1]])
    result = finite_closure([shear], 10)
    assert isinstance(result, UnboundedWitness)


def _closure_over_raw_list(gens):
    """The BFS over every generator as given, repeats and identity included."""
    start = linalg.identity(len(gens[0]))
    seen, order, queue = {start}, [start], [start]
    while queue:
        nxt = []
        for m in queue:
            for g in gens:
                h = linalg.mat_mul(m, g)
                if h not in seen:
                    seen.add(h)
                    order.append(h)
                    nxt.append(h)
        queue = nxt
    return tuple(order)


def _paper_closure_generators(ew_report, orn3_report):
    """The generator lists of the kernel and H_rel closures of theorems A
    and B with S, T and every Aut lift, the identity lift among them, as
    `kernel_is_congruence` closes them."""
    for rep, subspaces, aut_keys in (
            (ew_report, ["H1_0", "H_rel"], [f"aut_{g}" for g in QUATERNION_ORDER]),
            (orn3_report, ["H_breve"], [f"aut_{g}" for g in range(3)])):
        lifts = [rep.lifts["S"], rep.lifts["T"]] + [rep.lifts[k] for k in aut_keys]
        yield [combined_action(lf, [rep.subspaces[s] for s in subspaces])
               for lf in lifts]
        yield [matrix_on(lf, rep.subspaces["H_rel"]) for lf in lifts]


def test_finite_closure_skips_repeats_and_identity(ew_report, orn3_report):
    shear = ((1, 1), (0, 1))
    quarter_turn = ((0, 1), (-1, 0))
    cases = list(_paper_closure_generators(ew_report, orn3_report))
    cases.append([linalg.identity(2), quarter_turn, _fractions(quarter_turn),
                  linalg.identity(2), ((0, -1), (1, 0)), quarter_turn])
    for gens in cases:
        identity = linalg.identity(len(gens[0]))
        assert identity in gens or len(set(gens)) < len(gens)
        assert finite_closure(gens, 2000).elements == _closure_over_raw_list(gens)
    # the witness word still indexes the list as given
    result = finite_closure([linalg.identity(2), shear, shear], 10)
    assert isinstance(result, UnboundedWitness) and result.word == (1,)


def _random_signed_permutation(rng, n):
    perm = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return tuple(tuple(signs[i] if perm[i] == j else 0 for j in range(n))
                 for i in range(n))


def _random_rational_invertible(rng, n):
    while True:
        p = tuple(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        for _ in range(n)) for _ in range(n))
        if linalg.det(p) != 0:
            return p


def _seeded_generator_lists(seed, draws=10):
    """Signed-permutation groups in dimension 2 to 4, each also conjugated by
    a rational matrix (Fraction entries) and padded with the identity and a
    repeated generator."""
    rng = random.Random(seed)
    for _ in range(draws):
        n = rng.randint(2, 4)
        gens = [_random_signed_permutation(rng, n) for _ in range(rng.randint(1, 3))]
        p = _random_rational_invertible(rng, n)
        p_inv = linalg.mat_inv(p)
        padded = gens + [linalg.identity(n), gens[0]]
        rng.shuffle(padded)
        yield gens
        yield [linalg.mat_mul(linalg.mat_mul(p, g), p_inv) for g in gens]
        yield padded


@pytest.mark.parametrize("seed", [1, 2])
def test_finite_closure_matches_matrix_bfs_on_seeded_groups(seed):
    for gens in _seeded_generator_lists(seed):
        expected = _closure_over_raw_list(gens)
        assert finite_closure(gens, 400).elements == expected
        # cap boundaries: the order itself, and one below it, where no short
        # word of a finite group grows
        assert finite_closure(gens, len(expected)).elements == expected
        with pytest.raises(OrderExceedsCap) as witness_error:
            _unbounded_witness(gens, len(expected) - 1)
        with pytest.raises(OrderExceedsCap) as closure_error:
            finite_closure(gens, len(expected) - 1)
        assert str(closure_error.value) == str(witness_error.value)


def test_finite_closure_cap_when_one_orbit_passes_it():
    """A cyclic permutation matrix of order 5 moves e_1 through five points,
    so the orbit alone passes cap 4 before any product is formed."""
    cycle = tuple(tuple(int(j == (i + 1) % 5) for j in range(5)) for i in range(5))
    assert finite_closure([cycle], 5).order == 5
    with pytest.raises(OrderExceedsCap, match="cap 4"):
        finite_closure([cycle], 4)
    # an infinite group: the orbit of e_2 under the shear never closes
    shear = ((1, 1), (0, 1))
    gens = [((0, -1), (1, 0)), shear, linalg.identity(2)]
    for cap in (3, 4, 10):
        result = finite_closure(gens, cap)
        assert isinstance(result, UnboundedWitness)
        assert result == _unbounded_witness(gens, cap)


def test_symplectic_subgroup_matches_double_product():
    rng = random.Random(3)
    half, three_quarters = Fraction(1, 2), Fraction(3, 4)
    grams = [((0, half, 0, 0), (-half, 0, 0, 0),
              (0, 0, 0, three_quarters), (0, 0, -three_quarters, 0)),
             ((0, half, 0, 0), (-half, 0, 0, 0), (0, 0, 0, half), (0, 0, -half, 0))]
    for _ in range(3):
        upper = {(i, j): Fraction(rng.randint(-4, 4), rng.randint(1, 6))
                 for i in range(4) for j in range(i + 1, 4)}
        grams.append(tuple(tuple(upper[i, j] if i < j else -upper[j, i] if j < i else 0
                                 for j in range(4)) for i in range(4)))
    gens = [_random_signed_permutation(rng, 4) for _ in range(3)]
    gens += [((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
             ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)),
             ((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
    group = finite_closure(gens, 400)
    assert group.order == 384
    for gram in grams:
        expected = tuple(
            m for m in group.elements
            if linalg.mat_mul(linalg.mat_mul(linalg.transpose(m), gram), m) == gram)
        kept = symplectic_subgroup(group, gram)
        assert kept.elements == expected
    assert symplectic_subgroup(group, grams[1]).order > 2


def test_symplectic_subgroup_identity_only():
    gram = _fractions([[0, 1], [-1, 0]])
    group = FiniteMatrixGroup((linalg.identity(2),))
    assert symplectic_subgroup(group, gram).order == 1


def test_congruence_accounting_gamma2(ew, ew_report):
    space = chain_space(ew.origami)
    auts = [ew_report.lifts[f"aut_{g}"] for g in QUATERNION_ORDER]
    report = kernel_is_congruence(
        [ew_report.subspaces["H_rel"]], 2,
        [ew_report.lifts["S"], ew_report.lifts["T"]], auts, cap=100)
    assert report.holds and report.image_order == 24


def test_composite_odd_q_family():
    from origamis.affine import lift
    from origamis.origami import stratum_and_genus
    from origamis.sl2z import J_MAT, T_MAT, mat_pow
    orn9 = catalog("ornithorynque", q=9)
    stratum = stratum_and_genus(orn9.origami)
    assert stratum.genus == 13 and stratum.zero_orders == (8, 8, 8)
    t2 = lift(orn9.origami, mat_pow(T_MAT, 2))
    j = lift(orn9.origami, J_MAT)
    assert tau_character(orn9, t2) == 2
    assert tau_character(orn9, j) == 9
    one, _, _, _ = _polys(9)
    block = breve_blocks(orn9, j)
    assert block[0][1] == tuple(-c for c in one)
    assert block[1][0] == one


def test_growth_bounded_for_ew(ew_report):
    sub = ew_report.subspaces["H1_0"]
    gens = [matrix_on(ew_report.lifts[k], sub) for k in ("S", "T")]
    closure = finite_closure(gens, 200)
    bound = max(operator_norm(m) for m in closure.elements)
    assert largest_product_norm(gens, length=400, trials=2, seed=3) <= bound
    report = cocycle_growth(gens, length=400, trials=2, seed=3)
    assert report.max_log_norm <= math.log(float(bound)) + 1e-9


def largest_product_norm(mats, length, trials, seed):
    """The largest operator norm of a partial product, over every step of
    the random words that cocycle_growth(mats, length, trials, seed)
    multiplies out, drawn from random.Random(seed) in the same order."""
    rng = random.Random(seed)
    largest = 0
    for _ in range(trials):
        acc = linalg.identity(len(mats[0]))
        for _ in range(length):
            acc = linalg.mat_mul(acc, mats[rng.randrange(len(mats))])
            largest = max(largest, operator_norm(acc))
    return largest


def power_growth_rate(m, length):
    """Reference: log-norm slope of m^k between k = length/2 and k = length,
    read off `cocycle_growth` with one matrix and one trial."""
    return cocycle_growth([m], length, 1, 0).growth_rate


def test_growth_rate_q5(orn5, orn5_report):
    sub = orn5_report.subspaces["H_breve"]
    w = linalg.mat_mul(matrix_on(orn5_report.lifts["S2"], sub),
                       matrix_on(orn5_report.lifts["T2"], sub))
    rate = power_growth_rate(w, 400)
    t = 2 * (1 + 2 * math.cos(2 * math.pi / 5))
    expected = math.log((t + math.sqrt(t * t - 4)) / 2)
    assert abs(rate - expected) / expected < 1e-3


# -- the replaced readings, kept as references ---------------------------------


def _odd_q_lifts(q):
    """The generator lifts decompose_orn takes, every aut_g and two
    composites."""
    orn = catalog("ornithorynque", q=q)
    origami = orn.origami
    if q == 3:
        mats = {"S": S_MAT, "T": T_MAT}
    else:
        mats = {"S2": mat_pow(S_MAT, 2), "T2": mat_pow(T_MAT, 2), "J": J_MAT}
    lifts = {key: lift(origami, m) for key, m in mats.items()}
    for g in range(q):
        lifts[f"aut_{g}"] = automorphism_lift(origami, orn.shift(g))
    first, second = list(mats)[:2]
    lifts[first + second] = lifts[first].compose(lifts[second])
    lifts[second + "aut_1"] = lifts[second].compose(lifts["aut_1"])
    return orn, lifts


def _tau_by_rule_matrix_power(orn, lift_):
    """The power k < 2q of the matrix of tau_i -> -tau_{i+(q+1)/2} on H_tau
    that equals the lift's matrix there."""
    q = orn.q
    space = chain_space(orn.origami)
    sub = space.subspace_from([orn.tau(i) for i in range(q)])
    taus = linalg.transpose(tuple(space.canonical_vec(orn.tau(i).flat())
                                  for i in range(q)))
    shift = (q + 1) // 2
    cols = []
    for b in sub.basis:
        sol = linalg.solve(taus, space.canonical_vec(b))
        image = EdgeChain.zero(orn.origami.n)
        for i, c in enumerate(sol):
            if c:
                image = image + orn.tau((i + shift) % q).scale(-c)
        cols.append(sub.coords_of(space.canonical_vec(image.flat())))
    gen = linalg.transpose(tuple(cols))
    m = matrix_on(lift_, sub)
    acc = linalg.identity(sub.dim)
    for k in range(2 * q):
        if acc == m:
            return k
        acc = linalg.mat_mul(gen, acc)
    raise NotInCyclicImage("action is not a power of the cyclic generator")


@pytest.mark.parametrize("q", [3, 5, 7])
def test_tau_character_matches_rule_matrix_power(q):
    orn, lifts = _odd_q_lifts(q)
    for name, lf in lifts.items():
        assert tau_character(orn, lf) == _tau_by_rule_matrix_power(orn, lf), name


def _breve_blocks_by_edge_chains(orn, lift_):
    """One solve per seed, then every index checked on a rebuilt EdgeChain."""
    q = orn.q
    space = chain_space(orn.origami)
    cols = tuple([space.canonical_vec(orn.sigma_breve(j).flat()) for j in range(q)]
                 + [space.canonical_vec(orn.zeta_breve(j).flat()) for j in range(q)])
    matrix_cols = []
    for seed in (orn.sigma_breve, orn.zeta_breve):
        image = space.canonical_vec(linalg.mat_vec(lift_.matrix, seed(0).flat()))
        sol = linalg.solve(linalg.transpose(cols), image)
        matrix_cols.append((mod_psi(sol[:q]), mod_psi(sol[q:])))
        for i in range(q):
            predicted = EdgeChain.zero(orn.origami.n)
            for j in range(q):
                if sol[j]:
                    predicted = predicted + orn.sigma_breve((i + j) % q).scale(sol[j])
                if sol[q + j]:
                    predicted = predicted + orn.zeta_breve((i + j) % q).scale(sol[q + j])
            actual = space.canonical_vec(
                linalg.mat_vec(lift_.matrix, seed(i).flat()))
            assert space.canonical_vec(predicted.flat()) == actual
    (c1, d1), (c2, d2) = matrix_cols
    return ((c1, c2), (d1, d2))


@pytest.mark.parametrize("q, names", [(3, ("S", "T", "aut_1")),
                                      (5, ("S2", "T2", "J"))])
def test_breve_blocks_match_edge_chain_check(q, names):
    orn, lifts = _odd_q_lifts(q)
    for name in names:
        assert breve_blocks(orn, lifts[name]) == \
            _breve_blocks_by_edge_chains(orn, lifts[name]), name


def test_congruence_needs_every_automorphism(ew_report):
    auts = [ew_report.lifts[f"aut_{g}"] for g in QUATERNION_ORDER]
    sl_lifts = [ew_report.lifts["S"], ew_report.lifts["T"]]
    subspaces = [ew_report.subspaces["H_rel"]]
    with pytest.raises(ValueError):
        kernel_is_congruence(subspaces, 2, sl_lifts, auts[1:])
    with pytest.raises(ValueError):
        kernel_is_congruence(subspaces, 2, sl_lifts, auts[:-1] + auts[:1])


def _breve_s2t2(q):
    orn, lifts = _odd_q_lifts(q)
    space = chain_space(orn.origami)
    sub = space.subspace_from([orn.sigma_breve(i) for i in range(q)]
                              + [orn.zeta_breve(i) for i in range(q)])
    return linalg.mat_mul(matrix_on(lifts["S2"], sub), matrix_on(lifts["T2"], sub))


@pytest.mark.parametrize("q", [5, 7])
def test_s2t2_grows_on_breve(q):
    assert grows(_breve_s2t2(q))


def test_grows_on_a_shear_not_on_the_theorem_a_image(ew_root_system):
    assert grows(_fractions([[1, 1], [0, 1]]))
    _, rep, _, system = ew_root_system
    gens = [matrix_in_chain_basis(rep.lifts[k], system.frame)
            for k in ("S", "T", "aut_i", "aut_j")]
    image = finite_closure(gens, 500)
    assert image.order == 96
    assert not any(grows(m) for m in image.elements)


def _power_growth_by_own_loop(m, length):
    acc = linalg.identity(len(m))
    half_log = 0.0
    for step in range(length):
        acc = linalg.mat_mul(acc, m)
        if step + 1 == length // 2:
            half_log = _log_abs(operator_norm(acc))
    end_log = _log_abs(operator_norm(acc))
    return (end_log - half_log) / (length - length // 2)


def test_power_growth_rate_matches_own_loop():
    for m in (_breve_s2t2(5), _fractions([[2, 1], [1, 1]])):
        assert power_growth_rate(m, 400) == _power_growth_by_own_loop(m, 400)


# -- the direct-sum check -------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _direct_sum_cases():
    """(name, chain space, parts, total dim) as the decompositions check them:
    ew and the odd-q family for q = 3, 5, 7."""
    rep = decompose_ew(catalog("eierlegende-wollmilchsau"))
    space = chain_space(rep.origami)
    cases = [("ew", space, [rep.subspaces[k] for k in ("H1_st", "H1_0", "H_rel")],
              space.full_subspace().dim)]
    for q in (3, 5, 7):
        rep = decompose_orn(catalog("ornithorynque", q=q))
        space = chain_space(rep.origami)
        cases.append((f"q{q}", space,
                      [rep.subspaces[k] for k in ("H1_st", "H_rel", "H_tau", "H_breve")],
                      space.marked_subspace(space.singular_vertices()).dim))
    return cases


def _rref_direct_sum(space, parts, total):
    stacked = [v for p in parts for v in p.basis]
    return space.subspace_from_vecs(stacked).dim == sum(p.dim for p in parts) == total


def _mutations(parts):
    """Part lists whose bases are not a basis of the direct sum: the last
    part with its first vector dropped, with its first vector in place of its
    second, and with its first vector repeated."""
    last = parts[-1]
    basis, pivots = last.basis, last.pivots
    return [parts[:-1] + [Subspace(basis[1:], pivots[1:])],
            parts[:-1] + [Subspace((basis[0],) + basis[:1] + basis[2:], pivots)],
            parts[:-1] + [Subspace(basis + basis[:1], pivots + pivots[:1])]]


def test_direct_sum_of_mutated_parts_is_false():
    # each wrong answer is an elimination over Q: ew and q = 3, 5, 7
    for name, space, parts, total in _direct_sum_cases():
        for mutated in _mutations(list(parts)):
            assert _rref_direct_sum(space, mutated, total) is False, name
            assert _direct_sum_ok(space, mutated, total) is False, name


