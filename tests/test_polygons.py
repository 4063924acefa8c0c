import functools
import itertools
import random

import pytest

from _polygon_reference import ReferencePolygonSurface
from origamis.catalog import APPENDIX_B_VERTICES
from origamis.errors import NotSimple, OrigamiError, UnpairedSides
from origamis.homology import chain_space
from origamis.origami import stratum_and_genus, vertex_classes
from origamis.polygons import PolygonSurface, polygon_to_origami
from origamis.sl2z import ID2, S_MAT, T_MAT, mat_mul, mat_pow
from test_cli import NO_OFFSET_HEXAGON, _staircase_band
from test_homology import _holonomy


def _point_classes(surface):
    """The identified class of each lattice point of the closed polygon,
    read from the reference, which keeps the union-find over them."""
    return ReferencePolygonSurface(surface.vertices)._point_class


def test_unit_square_is_torus():
    origami = polygon_to_origami([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert origami.n == 1 and stratum_and_genus(origami).genus == 1


def test_two_by_one_rectangle():
    origami = polygon_to_origami([(0, 0), (2, 0), (2, 1), (0, 1)])
    assert origami.n == 2 and stratum_and_genus(origami).genus == 1


def test_decagon_surface(appendix_b):
    origami = appendix_b.origami
    assert origami.n == 16
    stratum = stratum_and_genus(origami)
    assert stratum.genus == 2 and stratum.zero_orders == (1, 1)
    mults = sorted(v.multiplicity for v in vertex_classes(origami))
    assert mults.count(2) == 2


def test_decagon_side_classes(appendix_b):
    space = chain_space(appendix_b.origami)
    classes = _point_classes(appendix_b.surface)
    a_even, a_odd = classes[(0, 0)], classes[(1, 2)]
    assert a_even != a_odd
    expected_holonomy = {"a": (1, 2), "b": (1, 1), "c": (1, 0),
                         "d": (1, -1), "e": (1, -1)}
    for letter, hol in expected_holonomy.items():
        chain = appendix_b.zeta_side(letter)
        assert _holonomy(chain) == hol
        boundary = space.boundary(chain)
        sign = 1 if letter in "ace" else -1
        assert boundary[a_odd] == sign and boundary[a_even] == -sign
        assert all(x == 0 for k, x in enumerate(boundary)
                   if k not in (a_even, a_odd))


def test_zeta_star_has_zero_holonomy(appendix_b):
    assert _holonomy(appendix_b.zeta_star()) == (0, 0)


def test_l_shape_with_split_sides():
    # no centrally symmetric matching: each group's sides pair in index order
    origami = polygon_to_origami(L_SHAPE)
    assert (origami.r.images, origami.u.images) == ((2, 0, 1), (1, 2, 0))
    assert stratum_and_genus(origami).genus == 1


def _is_central(surface):
    """All sums of the doubled midpoints of paired sides are equal."""
    mids = [(a[0] + b[0], a[1] + b[1]) for a, b in surface.sides]
    return len({(mids[i][0] + mids[j][0], mids[i][1] + mids[j][1])
                for i, j in surface.partner.items()}) == 1


def test_decagon_pairing_is_central(appendix_b):
    assert _is_central(appendix_b.surface)


def test_pairing_is_central_when_there_is_one_else_in_index_order():
    """The decagon and the staircase band at k = 5 (86,400 matchings) take
    their central matchings; the L shape has none, and pairs the sides of
    each vector with those of the opposite vector in index order."""
    for vertices in (APPENDIX_B_VERTICES, _staircase_band(5)):
        assert _is_central(PolygonSurface(vertices))
    surface = PolygonSurface(L_SHAPE)
    assert not _is_central(surface)
    assert surface.partner == {0: 3, 3: 0, 1: 5, 5: 1, 2: 6, 6: 2, 4: 7, 7: 4}


def test_unpaired_sides_rejected():
    with pytest.raises(UnpairedSides):
        polygon_to_origami([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])


def test_non_simple_rejected():
    with pytest.raises(NotSimple):
        polygon_to_origami([(0, 0), (2, 2), (2, 0), (0, 2)])


def test_identified_vertices_on_decagon(appendix_b):
    classes = _point_classes(appendix_b.surface)
    even = {(0, 0), (2, 3), (4, 2), (4, -1), (2, -2)}
    odd = {(1, 2), (3, 3), (5, 1), (3, -2), (1, -1)}
    assert len({classes[p] for p in even}) == 1
    assert len({classes[p] for p in odd}) == 1


# -- the scaled integer lattice against the Fraction reference ------------------


def _outcome(fn, *args):
    """fn(*args), or the name of the OrigamiError it raises."""
    try:
        return fn(*args)
    except OrigamiError as err:
        return type(err).__name__


def _assert_same_surface(vertices, paths=True):
    """The two rasterizations agree on the side pairing, the origami, the
    cells and, with paths, the path chain between every pair of the
    reference's lattice points of the closed polygon, or raise the same
    error. Returns the surface, or None."""
    surface = _outcome(PolygonSurface, vertices)
    reference = _outcome(ReferencePolygonSurface, vertices)
    if isinstance(reference, str):
        assert surface == reference, vertices
        return None
    assert surface.partner == reference.partner, vertices
    assert surface.origami == reference.origami
    assert surface.cells == reference.cells
    if not paths:
        return surface
    points = sorted(reference._point_class)
    for p in points:
        for q in points:
            assert _outcome(surface.path_chain, p, q) == \
                _outcome(reference.path_chain, p, q), (vertices, p, q)
    return surface


L_SHAPE = [(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2), (0, 1)]
RECTANGLES = [[(0, 0), (w, 0), (w, h), (0, h)] for w, h in ((1, 1), (2, 1), (3, 2))]


def test_scaled_lattice_matches_reference_on_fixed_polygons():
    for vertices in [APPENDIX_B_VERTICES, L_SHAPE, _staircase_band(3)] + RECTANGLES:
        assert _assert_same_surface(vertices) is not None
    # both raise NotSimple: every offset candidate has a point on a side
    assert _assert_same_surface(NO_OFFSET_HEXAGON) is None
    with pytest.raises(NotSimple, match="no generic offset found"):
        PolygonSurface(NO_OFFSET_HEXAGON)


def _unimodular_parallelogram(rng):
    """The parallelogram on the columns of a random product of S and T
    powers, a matrix of determinant 1."""
    m = ID2
    for _ in range(rng.randint(1, 4)):
        m = mat_mul(m, mat_pow(rng.choice((S_MAT, T_MAT)), rng.choice((-2, -1, 1, 2))))
    (a, b), (c, d) = m
    return [(0, 0), (a, c), (a + b, c + d), (b, d)]


def _hexagon(rng):
    """The centrally symmetric hexagon of sides u, v, w, -u, -v, -w."""
    u, v, w = ((rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3))
    pts, p = [], (0, 0)
    for e in (u, v, w, (-u[0], -u[1]), (-v[0], -v[1])):
        pts.append(p)
        p = (p[0] + e[0], p[1] + e[1])
    return pts + [p]


def test_scaled_lattice_matches_reference_on_seeded_polygons():
    """Unimodular parallelograms, parallelograms and hexagons whose sides
    have components of 2 or more, so that the scale's side factor is not 1."""
    rng = random.Random(1919)
    assert all(_assert_same_surface(_unimodular_parallelogram(rng))
               for _ in range(12))
    parallelograms = [[(0, 0), (2, 1), (3, 4), (1, 3)],
                      [(0, 0), (3, -2), (5, 1), (2, 3)]]
    surfaces = [_assert_same_surface(vertices) for vertices
                in parallelograms + [_hexagon(rng) for _ in range(40)]]
    scales = [s.scale for s in surfaces if s is not None]
    assert len(scales) >= 20 and sum(d % (2 * 924) == 0 for d in scales) >= 5


def _matchings(surface):
    """Every side involution that pairs each side with one of the opposite
    vector: each group of equal side vectors against its opposite group,
    in every order."""
    groups = {}
    for i, (a, b) in enumerate(surface.sides):
        groups.setdefault((b[0] - a[0], b[1] - a[1]), []).append(i)
    pairs = [(members, groups[-x, -y]) for (x, y), members in groups.items()
             if (x, y) > (-x, -y)]
    for combo in itertools.product(*(itertools.permutations(others)
                                     for _, others in pairs)):
        partner = {}
        for (members, _), js in zip(pairs, combo):
            for i, j in zip(members, js):
                partner[i], partner[j] = j, i
        yield partner


@functools.lru_cache(maxsize=1)
def _side_paired_polygons():
    """Distinct simple polygons whose sides are 3 to 7 vectors drawn from
    (1,0), (0,1), (1,1) and their negatives, in a shuffled order, drawn
    until 200 of them have more than one side matching."""
    rng = random.Random(2027)
    kept, ambiguous = [], 0
    while ambiguous < 200:
        sides = [rng.choice(((1, 0), (0, 1), (1, 1))) for _ in range(rng.randint(3, 7))]
        sides += [(-x, -y) for x, y in sides]
        rng.shuffle(sides)
        vertices = list(itertools.accumulate(
            sides[:-1], lambda p, e: (p[0] + e[0], p[1] + e[1]), initial=(0, 0)))
        surface = _outcome(PolygonSurface, vertices)
        if isinstance(surface, str) or vertices in kept:
            continue
        kept.append(vertices)
        ambiguous += len(list(itertools.islice(_matchings(surface), 2))) > 1
    return kept


def test_pairing_matches_reference_on_random_side_paired_polygons():
    """The one-step pairing is the reference's, which searches every
    matching, and gives the same surface; the path chains are left to the
    fixed and seeded polygons above."""
    assert all(_assert_same_surface(vertices, paths=False)
               for vertices in _side_paired_polygons())


def test_every_matching_closes_up_to_a_translation_surface():
    """The reference's angle test accepts every matching: gluings by
    translations have trivial linear holonomy, so the pairing never runs
    it. The test reads only the vertices and the side count, which the two
    surfaces keep alike."""
    for vertices in _side_paired_polygons():
        surface = PolygonSurface(vertices)
        assert all(ReferencePolygonSurface._angles_close_up(surface, partner)
                   for partner in _matchings(surface)), vertices
