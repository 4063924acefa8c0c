"""Exact-arithmetic toolkit for square-tiled surfaces.

Origamis are pairs of permutations; the package computes their strata, Veech
groups, the action of affine diffeomorphisms on relative homology with integer
coefficients, invariant decompositions with D4 root systems, congruence-kernel
certificates, cylinder multitwists, spin parity, and invariant-supplement
feasibility.

Importing the package runs none of its modules. Each library module is put in
`sys.modules` through `importlib.util.LazyLoader` and bound here by its name
(`catalog` names the function, which `import origamis.catalog as m` binds too;
`from origamis.catalog import ...` and `sys.modules["origamis.catalog"]` reach
the module), and is compiled and run when an attribute is first read from it;
each name of `__all__` is read from its module on first access. So a CLI
command runs only the modules it uses. The CLI itself loads the usual way,
since `python -m` runs a module that is not yet imported.
A library module imports names only from the siblings that every one of its
paths runs; it binds a sibling that only some run as the lazy module
(`from . import rootsys`) and reads it at call time (`rootsys.grows(m)`).
"""

import importlib.util
import sys

# the public names, by the module that defines them
_PUBLIC = {
    "catalog": ("catalog", "catalog_origami"),
    "errors": ("OrigamiError",),
    "homology": ("EdgeChain", "Subspace", "chain_space"),
    "origami": ("Origami", "Stratum", "VertexClass", "automorphisms",
                "isomorphisms", "make_origami", "sl2z_act",
                "stratum_and_genus", "veech_group", "vertex_classes"),
    "affine": ("AffineLift", "automorphism_lift", "lift", "lift_all",
               "matrix_on", "power_order"),
    "invariants": ("cylinders", "invariant_supplement", "multitwist",
                   "spin_parity", "symplectic_basis"),
    "permutations": ("Perm",),
    "polygons": ("polygon_to_origami",),
    "rootsys": ("detect_d4", "finite_closure", "symplectic_subgroup"),
    "sl2z": ("Sl2zWord", "congruence_generators", "sl2z_word"),
    "structure": ("cocycle_growth", "decompose_ew", "decompose_orn",
                  "kernel_is_congruence", "tau_character"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = list(_HOME)


def _lazy(name: str):
    """origamis.<name>, in sys.modules but not run until it is first read."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in ("affine", "catalog", "errors", "homology", "invariants",
              "linalg", "origami", "permutations", "polygons", "rootsys",
              "sl2z", "structure", "verification"):
    _module = _lazy(_name)
    if _name != "catalog":
        # bound, so that `from . import polygons` takes the lazy module
        # instead of asking the import system, which would run it
        globals()[_name] = _module
del _name, _module


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[f"{__name__}.{_HOME[name]}"], name)
