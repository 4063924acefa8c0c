"""Exact-arithmetic toolkit for square-tiled surfaces.

Origamis are pairs of permutations; the package computes their strata, Veech
groups, the action of affine diffeomorphisms on relative homology with integer
coefficients, invariant decompositions with D4 root systems, congruence-kernel
certificates, cylinder multitwists, spin parity, and invariant-supplement
feasibility.
"""

from .catalog import catalog, catalog_origami
from .errors import OrigamiError
from .homology import EdgeChain, Subspace, chain_space
from .origami import (Origami, Stratum, VertexClass, automorphisms,
                      isomorphisms, make_origami, sl2z_act, stratum_and_genus,
                      veech_group, vertex_classes)
from .affine import (AffineLift, automorphism_lift, lift, lift_all, matrix_on,
                     power_order)
from .invariants import (cylinders, index_parity, invariant_supplement,
                         multitwist, spin_parity, symplectic_basis)
from .permutations import Perm
from .polygons import polygon_to_origami
from .rootsys import detect_d4, finite_closure, symplectic_subgroup
from .sl2z import Sl2zWord, congruence_generators, sl2z_word
from .structure import (cocycle_growth, decompose_ew, decompose_orn,
                        kernel_is_congruence, tau_character)

__all__ = [
    "catalog", "catalog_origami", "OrigamiError", "EdgeChain", "Subspace",
    "chain_space", "Origami", "Stratum", "VertexClass", "automorphisms",
    "isomorphisms", "make_origami", "sl2z_act", "stratum_and_genus",
    "veech_group", "vertex_classes", "AffineLift", "automorphism_lift",
    "lift", "lift_all", "matrix_on", "power_order",
    "cylinders", "index_parity", "invariant_supplement", "multitwist",
    "spin_parity", "symplectic_basis", "Perm", "polygon_to_origami",
    "detect_d4", "finite_closure", "symplectic_subgroup", "Sl2zWord",
    "congruence_generators", "sl2z_word", "cocycle_growth", "decompose_ew",
    "decompose_orn", "kernel_is_congruence", "tau_character",
]
