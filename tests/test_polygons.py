import random

import pytest

from _polygon_reference import ReferencePolygonSurface
from origamis.catalog import APPENDIX_B_VERTICES
from origamis.errors import NotSimple, OrigamiError, UnpairedSides
from origamis.homology import chain_space
from origamis.origami import stratum_and_genus, vertex_classes
from origamis.polygons import (PolygonSurface, polygon_to_origami,
                               side_matchings)
from origamis.sl2z import ID2, S_MAT, T_MAT, mat_mul, mat_pow
from test_cli import _staircase_band
from test_homology import _holonomy


def _point_class(surface, p):
    """The identified class of the lattice point p of the polygon."""
    return surface._point_class[(int(p[0]), int(p[1]))]


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
    surface = appendix_b.surface
    a_even = _point_class(surface, (0, 0))
    a_odd = _point_class(surface, (1, 2))
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
    # ambiguous pairing, no centrally symmetric matching: first valid wins
    origami = polygon_to_origami([(0, 0), (1, 0), (2, 0), (2, 1),
                                  (1, 1), (1, 2), (0, 2), (0, 1)])
    assert origami.n == 3
    assert stratum_and_genus(origami).genus in (1, 2)


def test_decagon_pairing_is_central(appendix_b):
    surface = appendix_b.surface
    sums = set()
    for i, j in surface.partner.items():
        mid_i = tuple(surface.sides[i][0][k] + surface.sides[i][1][k]
                      for k in range(2))
        mid_j = tuple(surface.sides[j][0][k] + surface.sides[j][1][k]
                      for k in range(2))
        sums.add((mid_i[0] + mid_j[0], mid_i[1] + mid_j[1]))
    assert len(sums) == 1


def test_central_matching_is_read_directly(monkeypatch):
    """The staircase band at k = 5 has 86,400 side matchings; its central
    one is read off the doubled midpoints and checked once, with no
    enumeration. The L shape has no central matching and enumerates."""
    calls = []
    checked = PolygonSurface._angles_close_up
    monkeypatch.setattr(PolygonSurface, "_angles_close_up",
                        lambda self, partner: calls.append(1) or checked(self, partner))
    band = _staircase_band(5)
    assert side_matchings(band) == 86_400
    assert PolygonSurface(band).origami.n == 10 and len(calls) == 1
    calls.clear()
    assert PolygonSurface(L_SHAPE).origami.n == 3 and len(calls) >= 1


def test_unpaired_sides_rejected():
    with pytest.raises(UnpairedSides):
        polygon_to_origami([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])


def test_non_simple_rejected():
    with pytest.raises(NotSimple):
        polygon_to_origami([(0, 0), (2, 2), (2, 0), (0, 2)])


def test_identified_vertices_on_decagon(appendix_b):
    surface = appendix_b.surface
    even = {(0, 0), (2, 3), (4, 2), (4, -1), (2, -2)}
    odd = {(1, 2), (3, 3), (5, 1), (3, -2), (1, -1)}
    assert len({_point_class(surface, p) for p in even}) == 1
    assert len({_point_class(surface, p) for p in odd}) == 1


# -- the scaled integer lattice against the Fraction reference ------------------


def _outcome(fn, *args):
    """fn(*args), or the name of the OrigamiError it raises."""
    try:
        return fn(*args)
    except OrigamiError as err:
        return type(err).__name__


def _assert_same_surface(vertices):
    """The two rasterizations agree on the origami, the cells, the lattice
    point classes and the path chain between every pair of lattice points,
    or raise the same error. Returns the surface, or None."""
    surface = _outcome(PolygonSurface, vertices)
    reference = _outcome(ReferencePolygonSurface, vertices)
    if isinstance(reference, str):
        assert surface == reference, vertices
        return None
    assert surface.origami == reference.origami
    assert surface.cells == reference.cells
    assert surface._point_class == reference._point_class
    points = sorted(surface._point_class)
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
