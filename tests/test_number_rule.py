"""The number rule: exact values built from ints by +, - and * stay ints, and
a Fraction appears only where a division can leave a denominator."""

import random
from fractions import Fraction

from origamis.affine import matrix_on
from origamis.homology import chain_space
from origamis.origami import make_origami
from origamis.permutations import random_transitive_pair
from origamis.rootsys import FiniteMatrixGroup, finite_closure
from origamis.structure import combined_action
from origamis.verification import _orn_root_system


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


def test_root_systems_hold_no_float(ew_root_system, orn3, orn3_report):
    systems = [ew_root_system[3], _orn_root_system(orn3, orn3_report)[0]]
    for system in systems:
        for value in (system.span_basis, system.roots, system.frame,
                      system.roots_frame_coords(), system.ambient_frame()):
            assert _no_float(value)


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
