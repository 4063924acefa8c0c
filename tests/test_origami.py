import itertools
import random
from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from origamis.errors import Inconsistent, NotPermutation, NotTransitive
from origamis.origami import (BRAID_WALKS, VeechGroup, act_by_letters,
                              automorphisms, canonical_images, canonical_pair,
                              isomorphisms, make_origami, sl2z_act,
                              stratum_and_genus, veech_group, vertex_classes)
from origamis.permutations import Perm, are_transitive, random_transitive_pair
from origamis.sl2z import (ID2, J_MAT, LETTER_MATS, S_MAT, T_MAT, eval_letters,
                           mat_mod, mat_mul, mat_neg, mat_pow, sl2z_word)

TORUS = make_origami(1, Perm([0]), Perm([0]))


def test_torus():
    assert stratum_and_genus(TORUS).genus == 1
    assert vertex_classes(TORUS)[0].multiplicity == 1
    assert len(automorphisms(TORUS)) == 1


def test_reject_non_transitive():
    with pytest.raises(NotTransitive):
        make_origami(4, Perm([1, 0, 3, 2]), Perm([0, 1, 2, 3]))


def test_reject_malformed():
    with pytest.raises(NotPermutation):
        make_origami(3, [0, 0, 1], [1, 2, 0])


def test_ew_combinatorics(ew):
    origami = ew.origami
    assert [v.multiplicity for v in vertex_classes(origami)] == [2, 2, 2, 2]
    stratum = stratum_and_genus(origami)
    assert stratum.genus == 3 and stratum.zero_orders == (1, 1, 1, 1)
    auts = automorphisms(origami)
    assert len(auts) == 8
    # the automorphism group is the quaternion group: i*j = -j*i
    li, lj = ew.left_mult("i"), ew.left_mult("j")
    assert li * lj == ew.left_mult("k") and lj * li == ew.left_mult("-k")


@pytest.mark.parametrize("q,genus", [(3, 4), (5, 7), (7, 10)])
def test_orn_strata(q, genus):
    from origamis.catalog import catalog
    orn = catalog("ornithorynque", q=q)
    stratum = stratum_and_genus(orn.origami)
    assert stratum.genus == genus
    assert stratum.zero_orders == (q - 1, q - 1, q - 1)
    assert len(automorphisms(orn.origami)) == q


def test_gauss_bonnet_random():
    rng = random.Random(20100)
    for _ in range(100):
        n = rng.randrange(2, 13)
        r, u = random_transitive_pair(n, rng)
        origami = make_origami(n, r, u)
        total = sum(v.multiplicity - 1 for v in vertex_classes(origami))
        assert total == 2 * stratum_and_genus(origami).genus - 2


def test_sl2z_act_torus():
    assert sl2z_act("T", TORUS) == TORUS


def test_j_fourth_power_returns_isomorphic(orn5):
    origami = orn5.origami
    word = ("T-", "S", "T-") * 4
    image = act_by_letters(word, origami)
    assert isomorphisms(image, origami)


def test_isomorphisms_are_aut_torsor(ew):
    origami = ew.origami
    image = sl2z_act("T", origami)
    isos = isomorphisms(origami, image)
    assert len(isos) == len(automorphisms(origami)) == 8


def _commuting_by_brute_force(origami):
    r, u = origami.r.images, origami.u.images
    return [Perm(p) for p in itertools.permutations(range(origami.n))
            if all(p[r[x]] == r[p[x]] and p[u[x]] == u[p[x]]
                   for x in range(origami.n))]


def test_automorphisms_match_brute_force(ew):
    rng = random.Random(43)
    surfaces = [TORUS, ew.origami]
    for n in (2, 3, 4, 4, 5, 5, 6, 6, 7, 7):
        r, u = random_transitive_pair(n, rng)
        surfaces.append(make_origami(n, r, u))
    # r an n-cycle and u = r^d: all n rotations are automorphisms
    for n, d in ((4, 2), (6, 3), (6, 2), (7, 7)):
        surfaces.append(make_origami(n, [(g + 1) % n for g in range(n)],
                                     [(g + d) % n for g in range(n)]))
    for origami in surfaces:
        assert automorphisms(origami) == _commuting_by_brute_force(origami)


def test_veech_indices(ew, orn3, orn5):
    assert veech_group(ew.origami).index == 1
    assert veech_group(orn3.origami).index == 1
    assert veech_group(orn5.origami).index == 3


def test_veech_membership_criterion(orn5):
    group = veech_group(orn5.origami)
    assert group.contains(mat_pow(S_MAT, 2))
    assert group.contains(J_MAT)
    assert not group.contains(T_MAT)
    rng = random.Random(5)
    for _ in range(50):
        m = ID2
        for _ in range(12):
            m = mat_mul(m, LETTER_MATS[rng.choice(["S", "S-", "T", "T-"])])
        expected = mat_mod(m, 2) in (mat_mod(ID2, 2), mat_mod(J_MAT, 2))
        assert group.contains(m) == expected


def test_veech_contains_is_group_like(orn5):
    group = veech_group(orn5.origami)
    rng = random.Random(9)
    mats = []
    for _ in range(50):
        m = ID2
        for _ in range(10):
            m = mat_mul(m, LETTER_MATS[rng.choice(["S", "S-", "T", "T-"])])
        mats.append(m)
    members = [m for m in mats if group.contains(m)]
    assert len(members) >= 5
    for a in members:
        assert group.contains(((a[1][1], -a[0][1]), (-a[1][0], a[0][0])))
    for a in members[:7]:
        for b in members[:7]:
            assert group.contains(mat_mul(a, b))


def test_veech_broken_orbit_graph_is_inconsistent(orn5):
    # every T edge lands on node 1, so node 0 has no T-preimage: an internal
    # fault of the orbit graph, not an answer about the matrix
    group = veech_group(orn5.origami)
    for node in range(group.index):
        group.edges[(node, "T")] = 1
    with pytest.raises(Inconsistent):
        group.contains(((0, 1), (-1, 0)))


def test_s_moves_q5(orn5):
    origami = orn5.origami
    image = sl2z_act("S", origami)
    assert not isomorphisms(image, origami)


def test_self_isomorphisms_are_automorphisms(ew):
    origami = ew.origami
    assert isomorphisms(origami, origami) == automorphisms(origami)


def test_orbit_is_built_on_first_read(orn5):
    group = veech_group(orn5.origami)
    assert group.index == 3 and len(group.edges) == 6
    assert group.contains(J_MAT) and not group.contains(T_MAT)
    assert "orbit" not in group.__dict__
    assert group.orbit[0] == orn5.origami
    assert [(o.r.images, o.u.images) for o in group.orbit] == group.images
    assert "orbit" in group.__dict__


def test_canonical_images_rejects_intransitive_pair():
    # r swaps 0, 1 and swaps (or fixes) the rest; u fixes every square
    for r, r_lengths in (((1, 0, 3, 2), [2, 2, 2, 2]), ((1, 0, 2), [2, 2, 1])):
        with pytest.raises(NotTransitive):
            canonical_images(r, tuple(range(len(r))), r_lengths, [1] * len(r))


def test_veech_orbit_deterministic(orn5):
    first = veech_group(orn5.origami)
    second = veech_group(orn5.origami)
    assert [(o.r.images, o.u.images) for o in first.orbit] == \
        [(o.r.images, o.u.images) for o in second.orbit]
    assert first.edges == second.edges


def test_chain_space_is_cached(ew):
    from origamis.homology import chain_space
    assert chain_space(ew.origami) is chain_space(ew.origami)


def test_catalog_errors():
    from origamis.catalog import catalog
    from origamis.errors import EvenQ, UnknownName
    with pytest.raises(UnknownName):
        catalog("no-such-surface")
    with pytest.raises(EvenQ):
        catalog("ornithorynque", q=4)
    with pytest.raises(EvenQ):
        catalog("ornithorynque", q=1)


# -- reference: the orbit search with a BFS relabeling from every square -------


def _canonical_pair_all_starts(origami):
    """Minimal (r, u) image tuples over the BFS relabelings from all squares."""
    n = origami.n
    gens = [origami.r, origami.u, origami.r.inverse(), origami.u.inverse()]
    best = None
    for start in range(n):
        new_label = [-1] * n
        new_label[start] = 0
        order = [start]
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for g in gens:
                y = g.images[x]
                if new_label[y] == -1:
                    new_label[y] = len(order)
                    order.append(y)
                    queue.append(y)
        r_new = tuple(new_label[origami.r.images[order[k]]] for k in range(n))
        u_new = tuple(new_label[origami.u.images[order[k]]] for k in range(n))
        if best is None or (r_new, u_new) < best:
            best = (r_new, u_new)
    return best


def _veech_orbit_reference(origami):
    """(orbit, edges) of the S, T orbit search keyed by the all-starts key."""
    orbit, edges = [origami], {}
    node_of_key = {_canonical_pair_all_starts(origami): 0}
    queue = deque([0])
    while queue:
        node = queue.popleft()
        for letter in ("S", "T"):
            image = sl2z_act(letter, orbit[node])
            key = _canonical_pair_all_starts(image)
            if key not in node_of_key:
                node_of_key[key] = len(orbit)
                orbit.append(image)
                queue.append(len(orbit) - 1)
            edges[(node, letter)] = node_of_key[key]
    return orbit, edges


def _relabeled(origami, rng):
    """The pair conjugated by a random relabeling sigma of the squares."""
    sigma = list(range(origami.n))
    rng.shuffle(sigma)
    return _conjugated(origami, sigma)


def _conjugated(origami, sigma):
    """The pair conjugated by the relabeling sigma of the squares."""
    n = origami.n
    r, u = [0] * n, [0] * n
    for x in range(n):
        r[sigma[x]] = sigma[origami.r.images[x]]
        u[sigma[x]] = sigma[origami.u.images[x]]
    return make_origami(n, r, u)


def _random_origamis(seed, sizes):
    rng = random.Random(seed)
    return [make_origami(n, *random_transitive_pair(n, rng)) for n in sizes]


def _catalog_surfaces():
    from origamis.catalog import catalog_origami
    return [catalog_origami("eierlegende-wollmilchsau"),
            catalog_origami("appendix-b"),
            catalog_origami("ornithorynque", q=3),
            catalog_origami("ornithorynque", q=5)]


def test_canonical_key_is_complete_invariant():
    rng = random.Random(808)
    surfaces = _random_origamis(808, [5, 6, 7, 8] * 6) + _catalog_surfaces()
    by_size = {}
    for origami in surfaces:
        variants = [origami, _relabeled(origami, rng),
                    sl2z_act(rng.choice("ST"), origami)]
        variants.append(_relabeled(variants[-1], rng))
        by_size.setdefault(origami.n, []).extend(variants)
    for group in by_size.values():
        keys = [canonical_pair(o) for o in group]
        for o, key in zip(group, keys):
            # the key is itself a relabeling of the pair
            assert isomorphisms(o, make_origami(o.n, *key))
        for (o1, k1), (o2, k2) in itertools.combinations(zip(group, keys), 2):
            assert (k1 == k2) == bool(isomorphisms(o1, o2))


@st.composite
def _transitive_origamis(draw, n=None):
    """A transitive pair of permutations on n squares, n <= 9 if not given."""
    if n is None:
        n = draw(st.integers(1, 9))
    r = draw(st.permutations(range(n)))
    u = draw(st.permutations(range(n)))
    assume(are_transitive((Perm(r), Perm(u))))
    return make_origami(n, r, u)


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_canonical_pair_is_a_complete_invariant_property(data):
    origami = data.draw(_transitive_origamis())
    key = canonical_pair(origami)
    sigma = data.draw(st.permutations(range(origami.n)))
    assert canonical_pair(_conjugated(origami, sigma)) == key
    # a second pair of the same size: a fresh draw, or an S, T image
    other = data.draw(st.one_of(
        _transitive_origamis(origami.n),
        st.sampled_from(["S", "T", "S-", "T-"]).map(
            lambda letter: sl2z_act(letter, origami))))
    assert (canonical_pair(other) == key) == bool(isomorphisms(origami, other))


def test_veech_group_matches_all_starts_reference():
    surfaces = (_random_origamis(61, [5, 6, 7] * 4 + [8]) + _catalog_surfaces()
                + _random_origamis(66, [9, 9]) + [TORUS])
    for origami in surfaces:
        group = veech_group(origami)
        orbit, edges = _veech_orbit_reference(origami)
        assert group.orbit == orbit
        assert group.edges == edges


def test_veech_contains_agrees_with_keys():
    rng = random.Random(62)
    for origami in _random_origamis(62, [5, 6, 7] * 3) + _catalog_surfaces():
        group = veech_group(origami)
        key = _canonical_pair_all_starts(origami)
        for _ in range(8):
            word = [rng.choice(["S", "S-", "T", "T-"])
                    for _ in range(rng.randrange(1, 10))]
            image = act_by_letters(word, origami)
            assert group.contains(eval_letters(word)) == (
                _canonical_pair_all_starts(image) == key)


# -- reference: membership with one edge-table step per letter -----------------


def _letter_steps(group):
    """The edge table with its preimages under S- and T-."""
    steps = {(dst, letter + "-"): src
             for (src, letter), dst in group.edges.items()}
    if len(steps) != len(group.edges):
        raise Inconsistent("orbit graph is not a permutation graph")
    return steps | group.edges


def _contains_letter_by_letter(steps, m):
    """Follow every letter of m's word through ``_letter_steps``."""
    node = 0
    for letter in reversed(sl2z_word(m).exact_letters()):
        node = steps[(node, letter)]
    return node == 0


def _longest_cycle(group):
    """The longest cycle of S or T on the orbit, read off the edge table."""
    longest = 1
    for letter in ("S", "T"):
        seen = set()
        for start in range(group.index):
            node, length = start, 0
            while node not in seen:
                seen.add(node)
                node = group.edges[(node, letter)]
                length += 1
            longest = max(longest, length)
    return longest


def test_veech_contains_matches_letter_by_letter_reference(ew, orn3, orn5,
                                                           appendix_b):
    rng = random.Random(64)
    surfaces = [ew.origami, orn3.origami, orn5.origami, appendix_b.origami,
                TORUS] + _random_origamis(64, [2, 3, 4, 5, 6, 7, 8, 9])
    for origami in surfaces:
        group = veech_group(origami)
        steps = _letter_steps(group)
        longest = _longest_cycle(group)
        lengths = (longest, longest + 1, 2 * longest + 1, 3 * longest - 1)
        mats = [mat_pow(LETTER_MATS[letter], k)
                for letter in ("S", "S-", "T", "T-") for k in lengths]
        for _ in range(6):
            m = ID2
            for _ in range(rng.randint(1, 4)):
                k = rng.choice(lengths) if rng.random() < 0.5 \
                    else rng.randint(1, 3 * longest)
                m = mat_mul(m, mat_pow(LETTER_MATS[rng.choice("ST")], k))
                m = mat_mul(m, LETTER_MATS[rng.choice(("S-", "T-"))])
            mats.append(m)
        for m in mats + [mat_neg(m) for m in mats]:
            assert group.contains(m) == _contains_letter_by_letter(steps, m)
        # the runs of the decomposed words reach past the cycle lengths
        assert max(k for m in mats for _, k in sl2z_word(m).runs) > longest


def test_veech_contains_rejects_a_non_permutation_table():
    # T sends 0 -> 1 -> 1: node 1 has two T-preimages, and the T-walk from
    # node 0 never comes back to it
    images = [(TORUS.r.images, TORUS.u.images)] * 2
    edges = {(0, "S"): 0, (1, "S"): 1, (0, "T"): 1, (1, "T"): 1}
    group = VeechGroup(TORUS, images, edges)
    with pytest.raises(Inconsistent):
        _letter_steps(group)
    for m in (T_MAT, mat_pow(T_MAT, -5), mat_neg(T_MAT)):
        with pytest.raises(Inconsistent):
            group.contains(m)


# -- the braid-relation walks that deduce Veech edges ---------------------------


def test_braid_walks_multiply_to_their_letter():
    assert sorted(BRAID_WALKS) == ["S", "T"]
    for letter, walks in BRAID_WALKS.items():
        assert len(walks) == {"S": 1, "T": 3}[letter]
        for walk in walks:
            assert eval_letters(walk) == LETTER_MATS[letter]
            assert eval_letters(reversed(walk)) == LETTER_MATS[letter]


def test_braid_walks_end_at_the_letter_image():
    """Following a walk step by step, its first letter acting first, ends at
    an origami isomorphic to the letter's image."""
    for origami in _random_origamis(67, [n for n in range(3, 10) for _ in (0, 1)]):
        for letter, walks in BRAID_WALKS.items():
            key = canonical_pair(sl2z_act(letter, origami))
            for walk in walks:
                end = origami
                for step in walk:
                    end = sl2z_act(step, end)
                assert canonical_pair(end) == key


def _walk_completions(group):
    """How many edges each walk of BRAID_WALKS deduces, replaying the search:
    nodes in order, S before T, each walk tried on the edges known so far.
    A completed walk must end at the edge's node."""
    step = {letter: {} for letter in ("S", "S-", "T", "T-")}
    counts = {walk: 0 for walks in BRAID_WALKS.values() for walk in walks}
    for node in range(group.index):
        for letter in ("S", "T"):
            edge = group.edges[(node, letter)]
            for walk in BRAID_WALKS[letter]:
                target = node
                for table in walk:
                    target = step[table].get(target)
                    if target is None:
                        break
                else:
                    assert target == edge
                    counts[walk] += 1
                    break
            step[letter][node], step[letter + "-"][edge] = edge, node
    return counts


def test_every_braid_walk_deduces_an_appendix_b_edge(appendix_b):
    counts = _walk_completions(veech_group(appendix_b.origami))
    assert min(counts.values()) >= 1


def test_appendix_b_orbit_deduces_edges(monkeypatch, appendix_b):
    """The search canonicalizes the start and fewer than two edges per node:
    the rest are deduced along the walks."""
    import origamis.origami as module
    calls = []
    counted = module.canonical_images
    monkeypatch.setattr(module, "canonical_images",
                        lambda *args: calls.append(1) or counted(*args))
    group = veech_group(appendix_b.origami)
    assert group.index == 1344
    assert len(calls) < 2 * group.index + 1
