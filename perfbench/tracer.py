"""Outside-in spans on the public functions of each `origamis` layer.

The library itself has no trace hooks, so this module wraps the listed
functions after the package is imported: in the defining module, in every
`origamis` module that imported the function by name (and in module-level
dicts such as `verification.VERIFY_SUITES`), and on the class for methods.
Spans are kept in memory and written out once, when the process ends.

A function's self time is its span minus the spans of wrapped functions it
called; `total_s` counts only the outermost call of a function, so recursion
is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, qualname) of every wrapped function, grouped by layer.
SPANS = (
    ("linalg", "mat_mul"), ("linalg", "mat_inv"), ("linalg", "solve"),
    ("linalg", "rref"),
    ("homology", "chain_space"), ("homology", "ChainSpace.canonical_vec"),
    ("homology", "ChainSpace.intersection"), ("homology", "ChainSpace.gram"),
    ("homology", "ChainSpace.integral_absolute_basis"),
    ("origami", "veech_group"), ("origami", "VeechGroup.contains"),
    ("origami", "isomorphisms"), ("origami", "automorphisms"),
    ("sl2z", "sl2z_word"), ("sl2z", "CongruenceSubgroup.generators"),
    ("affine", "lift_all"), ("affine", "AffineLift.compose"),
    ("affine", "AffineLift.inverse"), ("affine", "AffineLift.is_identity"),
    ("affine", "power_order"), ("affine", "matrix_on"),
    ("affine", "matrix_in_chain_basis"),
    ("rootsys", "finite_closure"), ("rootsys", "detect_d4"),
    ("rootsys", "RootSystemD4.weyl_group"),
    ("rootsys", "RootSystemD4.triality_image"),
    ("rootsys", "symplectic_subgroup"),
    ("structure", "kernel_is_congruence"), ("structure", "decompose_ew"),
    ("structure", "decompose_orn"), ("structure", "cocycle_growth"),
    ("structure", "tau_character"),
    ("invariants", "cylinders"), ("invariants", "multitwist"),
    ("invariants", "spin_parity"), ("invariants", "invariant_supplement"),
    ("verification", "verify_theorem_a"), ("verification", "verify_theorem_b"),
    ("verification", "verify_appendix_a"),
    ("verification", "verify_appendix_b"),
    ("cli", "run"),
)

# Orchestrators also report the inclusive time of their outermost calls.
TOTALS = (
    "verification.verify_theorem_a", "verification.verify_theorem_b",
    "verification.verify_appendix_a", "verification.verify_appendix_b",
    "structure.kernel_is_congruence", "structure.decompose_ew",
    "structure.decompose_orn", "invariants.multitwist", "affine.lift_all",
    "cli.run",
)

# The span around `import origamis.cli`, made by the benchmark's child process.
IMPORT_SPAN = "origamis.import"

# Sizes computed from arguments and results; they repeat exactly for one input.
COUNTS = (
    "linalg.mat_mul.mults", "affine.lift_all.letters",
    "affine.lift_all.closings", "origami.veech_group.orbit_size",
    "rootsys.finite_closure.elements",
)


def span_names() -> list[str]:
    return [IMPORT_SPAN] + [f"{mod}.{qual}" for mod, qual in SPANS]


class Tracer:
    """Span statistics of one process: calls, self ns and outermost total ns."""

    def __init__(self):
        self.stats = {name: [0, 0, 0] for name in span_names()}
        self.counts = dict.fromkeys(COUNTS, 0)
        self.top_ns = 0          # time under spans that have no traced parent
        self.paused = False
        self._stack: list[list[int]] = []   # child ns of each open span
        self._open: dict[str, int] = {}
        self._originals: dict[str, object] = {}

    def call(self, name, fn, args, kwargs):
        if self.paused:
            return fn(*args, **kwargs)
        frame = [0]
        stack = self._stack
        stack.append(frame)
        outermost = not self._open.get(name)
        self._open[name] = self._open.get(name, 0) + 1
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - start
            stack.pop()
            self._open[name] -= 1
            entry = self.stats[name]
            entry[0] += 1
            entry[1] += elapsed - frame[0]
            if outermost:
                entry[2] += elapsed
            if stack:
                stack[-1][0] += elapsed
            else:
                self.top_ns += elapsed

    def install(self) -> None:
        """Wrap every function in SPANS; `origamis.cli` must be importable."""
        importlib.import_module("origamis.cli")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "origamis"
                                         or key.startswith("origamis."))]
        for mod_name, qualname in SPANS:
            name = f"{mod_name}.{qualname}"
            module = sys.modules[f"origamis.{mod_name}"]
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._originals[name] = original
                setattr(owner, attr, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            self._originals[name] = original
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper

    def _wrap(self, name, fn):
        counter = getattr(self, "_count_" + name.replace(".", "_"), None)
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            if counter is not None and not tracer.paused:
                counter(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _count_linalg_mat_mul(self, args, result):
        a, b = args[0], args[1]
        self.counts["linalg.mat_mul.mults"] += \
            len(a) * len(b) * (len(b[0]) if b else 0)

    def _count_affine_lift_all(self, args, result):
        word = self._originals["sl2z.sl2z_word"](args[1])
        self.counts["affine.lift_all.letters"] += len(word.exact_letters())
        self.counts["affine.lift_all.closings"] += len(result)

    def _count_origami_veech_group(self, args, result):
        self.counts["origami.veech_group.orbit_size"] += result.index

    def _count_rootsys_finite_closure(self, args, result):
        self.counts["rootsys.finite_closure.elements"] += \
            getattr(result, "order", 0)

    def overhead_s(self) -> float:
        """The tracer's own time: spans opened times the measured cost of one."""
        wrapped = Tracer()._wrap(IMPORT_SPAN, int)
        rounds = 20000
        start = time.perf_counter_ns()
        for _ in range(rounds):
            int()
        direct = time.perf_counter_ns() - start
        start = time.perf_counter_ns()
        for _ in range(rounds):
            wrapped()
        cost = max(time.perf_counter_ns() - start - direct, 0) / rounds
        return cost * sum(calls for calls, _, _ in self.stats.values()) / 1e9

    def snapshot(self) -> dict:
        """JSON-ready statistics: seconds and counts keyed by metric name."""
        out = {"top_s": self.top_ns / 1e9, "overhead_s": self.overhead_s(),
               "spans": {}, "counts": dict(self.counts)}
        for name, (calls, self_ns, total_ns) in self.stats.items():
            out["spans"][name] = {"calls": calls, "self_s": self_ns / 1e9,
                                  "total_s": total_ns / 1e9}
        return out
