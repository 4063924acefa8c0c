"""Package-wide checks: the public names, no `assert` in the library, no
`fractions` in the polygon module, entry types tested against Fraction only
in `linalg` and `cli`, lifts selected by the "aut_" prefix only in
`structure`, no unbounded cache or module-level memo, verify suites under
`python -O`, what importing the CLI and running `congruence` load, and the
value semantics of the records."""

import ast
import collections
import importlib.util
import itertools
import json
import os
import shlex
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import origamis
from origamis import (EdgeChain, Subspace, chain_space, cocycle_growth,
                      cylinders, detect_d4, finite_closure, lift, linalg,
                      make_origami, multitwist, sl2z_word, spin_parity,
                      stratum_and_genus, vertex_classes)
from origamis.cli import _jsonable
from origamis.homology import StandardSplitting
from origamis.invariants import SupplementCertificate
from origamis.sl2z import T_MAT
from origamis.structure import CongruenceReport
from test_affine import elementary_substitution

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "origamis").glob("*.py"))


# the public names, in the order `__all__` has always listed them
PUBLIC = [
    "catalog", "catalog_origami", "OrigamiError", "EdgeChain", "Subspace",
    "chain_space", "Origami", "Stratum", "VertexClass", "automorphisms",
    "isomorphisms", "make_origami", "sl2z_act", "stratum_and_genus",
    "veech_group", "vertex_classes", "AffineLift", "automorphism_lift",
    "lift", "lift_all", "matrix_on", "power_order",
    "cylinders", "invariant_supplement", "multitwist",
    "spin_parity", "symplectic_basis", "Perm", "polygon_to_origami",
    "detect_d4", "finite_closure", "symplectic_subgroup", "Sl2zWord",
    "congruence_generators", "sl2z_word", "cocycle_growth", "decompose_ew",
    "decompose_orn", "kernel_is_congruence", "tau_character",
]


def test_all_lists_exactly_the_imported_names():
    """`__all__` is the package's name -> module table in its order; each
    name is a non-module object read from the module the table names, `from
    origamis import *` binds every name, and `origamis.catalog` is the
    function, not the module."""
    assert origamis.__all__ == list(origamis._HOME) == PUBLIC
    for name, module in origamis._HOME.items():
        value = getattr(origamis, name)
        assert not isinstance(value, types.ModuleType), name
        assert value is getattr(sys.modules[f"origamis.{module}"], name), name
    namespace = {}
    exec("from origamis import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == sorted(PUBLIC)
    assert origamis.catalog is sys.modules["origamis.catalog"].catalog


def test_catalog_import_forms():
    """`import origamis.catalog as m` binds the `catalog` function, the
    package attribute of that name, while `from origamis.catalog import ...`
    and `sys.modules["origamis.catalog"]` reach the module."""
    import origamis.catalog as m
    from origamis.catalog import QUATERNION_ORDER, Ornithorynque
    module = sys.modules["origamis.catalog"]
    assert m is origamis.catalog is module.catalog
    assert not isinstance(m, types.ModuleType) and not hasattr(m, "QUATERNION_ORDER")
    assert isinstance(module, types.ModuleType)
    assert module.QUATERNION_ORDER is QUATERNION_ORDER
    assert module.Ornithorynque is Ornithorynque


def _names_read(node) -> set:
    """Names, attribute names, imported names and the dotted parts of string
    constants under the node."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.update((sub.name.rsplit(".", 1)[-1], sub.asname))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.update(sub.value.split("."))
    return names


def _method_names(node) -> list:
    """The names a class-body statement defines as methods: a function, or
    the targets of an assigned ``property(...)``."""
    if isinstance(node, ast.FunctionDef):
        return [node.name]
    if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
            and isinstance(node.value.func, ast.Name) \
            and node.value.func.id == "property":
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    return []


def _unused(trees, roots) -> list:
    """The top-level functions and classes, and the non-dunder methods and
    assigned properties, of the parsed modules {name: tree} whose name is
    neither in `roots` nor read outside the definition itself (a method
    counts reads by the rest of its class)."""
    units, defined = [], []  # units: the statements whose reads are counted
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                units.append(node)
                if isinstance(node, ast.FunctionDef):
                    defined.append((f"{module}.{node.name}", [node]))
                continue
            head = ast.Module(body=[*node.bases, *node.decorator_list],
                              type_ignores=[])
            units += [head, *node.body]
            defined.append((f"{module}.{node.name}", [head, *node.body]))
            defined += [(f"{module}.{node.name}.{name}", [sub])
                        for sub in node.body for name in _method_names(sub)
                        if not name.startswith("__")]
    reads = {id(unit): _names_read(unit) for unit in units}
    count = collections.Counter(name for names in reads.values() for name in names)
    unused = []
    for label, own in defined:
        name = label.rsplit(".", 1)[-1]
        if name not in roots and \
                count[name] == sum(name in reads[id(unit)] for unit in own):
            unused.append(label)
    return unused


def test_every_library_definition_is_used():
    """Each top-level function and class, and each non-dunder method and
    assigned property, of the library is named in `__all__`, read by another
    definition of the library (the CLI among them), or read by the benchmark
    harness in `perfbench/` (its imports, calls and the dotted names it
    wraps); nothing is left that only the tests call. The package's
    `__getattr__` (PEP 562), which the interpreter calls, is the one
    exception."""
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    harness = set().union(*(_names_read(ast.parse(path.read_text())) for path
                            in sorted((SRC.parent / "perfbench").glob("*.py"))))
    assert _unused(trees, set(origamis.__all__) | harness) == \
        ["__init__.__getattr__"]


def test_usage_check_sees_unused_definitions():
    tree = ast.parse("def used():\n    return 1\n\n"
                     "def unused():\n    return used() + unused()\n\n"
                     "class C:\n    def m(self):\n        return self.m()\n"
                     "    def n(self):\n        return C()\n"
                     "    p = property(lambda self: self.p)\n\n"
                     "class D(C):\n    def __len__(self):\n        return 0\n")
    # recursion and a class's own methods are not uses; D's base C is
    assert _unused({"m": tree}, set()) == ["m.unused", "m.C.m", "m.C.n",
                                           "m.C.p", "m.D"]
    assert _unused({"m": tree}, {"unused", "m", "n", "p", "D"}) == []


# library checks raise typed errors, never these builtins
UNTYPED = ("AssertionError", "ArithmeticError")


def _assertions(path: Path) -> list[int]:
    """Lines of `assert` statements and of `raise` of an UNTYPED error."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Assert):
            lines.append(node.lineno)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in UNTYPED:
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_assert_in_library(path):
    # `python -O` strips assert statements, so checks must raise typed errors
    assert _assertions(path) == []


def test_lint_sees_both_forms(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("assert x\nraise AssertionError('y')\nraise AssertionError\n")
    assert _assertions(bad) == [1, 2, 3]


def test_lint_sees_arithmetic_error(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("raise ArithmeticError('x')\nraise ArithmeticError\n"
                   "raise ValueError('z')\n")
    assert _assertions(bad) == [1, 2]


def _imported_modules(path: Path) -> set[str]:
    """The top-level names of the modules a file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_polygons_import_no_fractions():
    # the rasterization runs on a scaled integer lattice
    assert "fractions" not in _imported_modules(SRC / "origamis" / "polygons.py")


def test_import_lint_sees_both_forms(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from fractions import Fraction\nimport math, os.path\n"
                   "from . import linalg\n")
    assert _imported_modules(bad) == {"fractions", "math", "os"}


def _fraction_type_tests(path: Path) -> list[int]:
    """Lines that test a value's type against Fraction: a comparison with
    the name Fraction as an operand (`type(x) is Fraction`, `Fraction in
    set(map(type, xs))`) or an isinstance whose types name it."""
    def names_fraction(node) -> bool:
        return any(isinstance(n, ast.Name) and n.id == "Fraction"
                   for n in ast.walk(node))

    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Compare) and any(
                isinstance(o, ast.Name) and o.id == "Fraction"
                for o in (node.left, *node.comparators)):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2
              and names_fraction(node.args[1])):
            lines.append(node.lineno)
    return lines


def test_only_linalg_and_cli_test_entry_types():
    # the number rule lives in linalg's kernels; cli's _jsonable prints a
    # Fraction as a string
    found = {path.stem: _fraction_type_tests(path) for path in MODULES
             if path.stem not in ("linalg", "cli")}
    assert {stem: lines for stem, lines in found.items() if lines} == {}


def test_fraction_type_lint_sees_every_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("type(x) is Fraction\nisinstance(x, Fraction)\n"
                   "Fraction in set(map(type, xs))\nisinstance(x, (int, Fraction))\n"
                   "x == Fraction(1, 2)\nisinstance(x, int)\n")
    assert _fraction_type_tests(bad) == [1, 2, 3, 4]
    assert _fraction_type_tests(SRC / "origamis" / "linalg.py")
    assert _fraction_type_tests(SRC / "origamis" / "cli.py")


def _unbounded_caches(path: Path) -> list[int]:
    """Lines of an unbounded cache: `functools.cache` (or its import by
    name), or `lru_cache` with the size None, as its first argument or as
    `maxsize`."""
    def is_none(node) -> bool:
        return isinstance(node, ast.Constant) and node.value is None

    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and node.attr == "cache"
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools") or (
                isinstance(node, ast.ImportFrom) and node.module == "functools"
                and any(alias.name == "cache" for alias in node.names)):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and "lru_cache" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)) and (
                any(map(is_none, node.args[:1]))
                or any(k.arg == "maxsize" and is_none(k.value)
                       for k in node.keywords)):
            lines.append(node.lineno)
    return sorted(lines)


# the methods of a dict, list or set that change it
MUTATORS = {"__setitem__", "add", "append", "clear", "discard", "extend",
            "insert", "pop", "popitem", "remove", "setdefault", "update"}


def _module_memos(path: Path) -> list[int]:
    """Lines where a function writes into a dict, list or set bound at
    module level, a hand-rolled memo with no bound: a subscript assignment
    or deletion, or a call of one of MUTATORS."""
    tree = ast.parse(path.read_text())

    def is_container(value) -> bool:
        return isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                                  ast.ListComp, ast.SetComp)) or (
            isinstance(value, ast.Call) and getattr(value.func, "id", None)
            in ("dict", "list", "set", "defaultdict"))

    containers = {target.id for node in tree.body
                  if isinstance(node, (ast.Assign, ast.AnnAssign))
                  and is_container(node.value)
                  for target in (node.targets if isinstance(node, ast.Assign)
                                 else [node.target])
                  if isinstance(target, ast.Name)}

    def is_container_name(node) -> bool:
        return isinstance(node, ast.Name) and node.id in containers

    return sorted({node.lineno for func in ast.walk(tree)
                   if isinstance(func, (ast.FunctionDef, ast.Lambda))
                   for node in ast.walk(func)
                   if (isinstance(node, ast.Subscript)
                       and isinstance(node.ctx, (ast.Store, ast.Del))
                       and is_container_name(node.value))
                   or (isinstance(node, ast.Call)
                       and isinstance(node.func, ast.Attribute)
                       and node.func.attr in MUTATORS
                       and is_container_name(node.func.value))})


def test_library_caches_are_bounded():
    # ROADMAP aim 3: every cache in the library has a bound
    found = {path.stem: _unbounded_caches(path) + _module_memos(path)
             for path in MODULES}
    assert {stem: lines for stem, lines in found.items() if lines} == {}


def _lru_caches(path: Path) -> dict[str, int]:
    """{name: size} of the functions an `lru_cache` decorates, on the same
    AST walk; a bare `lru_cache` has the default size 128."""
    found = {}
    for node in ast.walk(ast.parse(path.read_text())):
        for dec in getattr(node, "decorator_list", ()):
            func = getattr(dec, "func", dec)
            if "lru_cache" in (getattr(func, "id", None), getattr(func, "attr", None)):
                sizes = [*dec.args[:1], *(k.value for k in dec.keywords
                                          if k.arg == "maxsize")] \
                    if isinstance(dec, ast.Call) else []
                found[node.name] = sizes[0].value if sizes else 128
    return found


def test_library_caches_are_the_measured_two():
    # each cache earns its place on measured traffic (README, "Every cache in
    # the library is bounded"); a new one needs an entry there and here
    found = {f"{path.stem}.{name}": size for path in MODULES
             for name, size in _lru_caches(path).items()}
    assert found == {"homology.chain_space": 256, "invariants._decomposition": 16}


def test_lru_cache_inventory_sees_every_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("@functools.lru_cache(16)\ndef i(): pass\n"
                   "@lru_cache(maxsize=256)\ndef j(): pass\n"
                   "@functools.lru_cache\ndef k(): pass\n"
                   "class C:\n    @staticmethod\n    @lru_cache(4)\n"
                   "    def m(): pass\n")
    assert _lru_caches(bad) == {"i": 16, "j": 256, "k": 128, "m": 4}


def test_cache_lint_sees_every_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("@functools.lru_cache(None)\ndef f(): pass\n"
                   "@lru_cache(maxsize=None)\ndef g(): pass\n"
                   "@functools.cache\ndef h(): pass\n"
                   "@functools.lru_cache(16)\ndef i(): pass\n"
                   "@functools.lru_cache(maxsize=256)\ndef j(): pass\n"
                   "@functools.lru_cache\ndef k(): pass\n"
                   "from functools import cache, lru_cache\n"
                   "self.cache = {}\n")
    assert _unbounded_caches(bad) == [1, 3, 5, 13]


def test_memo_lint_sees_every_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("MEMO = {}\nSEEN: list = []\nKEYS = set()\n"
                   "TABLE = {'a': 1}\nLOCAL = dict(a=1)\nMEMO['x'] = 0\n"
                   "def f(key):\n"
                   "    MEMO[key] = 1\n"
                   "    MEMO.setdefault(key, 2)\n"
                   "    SEEN.append(key)\n"
                   "    KEYS.add(key)\n"
                   "    del MEMO[key]\n"
                   "    return TABLE[key] + LOCAL['a']\n"
                   "class C:\n"
                   "    def g(self, key):\n"
                   "        self.memo = {}\n"
                   "        self.memo[key] = 1\n"
                   "        KEYS.update((key,))\n"
                   "h = lambda key: MEMO.update({key: 3})\n")
    assert _module_memos(bad) == [8, 9, 10, 11, 12, 18, 19]
    assert _module_memos(SRC / "origamis" / "polygons.py") == []


def _aut_prefix_selections(path: Path) -> list[int]:
    """Lines that select lifts by the "aut_" prefix: the string "aut_" as a
    constant of its own, as in `k.startswith("aut_")` or `"aut_" in k`. The
    literal part of an f-string such as f"aut_{g}", which names one lift, is
    not counted."""
    tree = ast.parse(path.read_text())
    literal_parts = {id(part) for node in ast.walk(tree)
                     if isinstance(node, ast.JoinedStr) for part in node.values}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value == "aut_"
                  and id(node) not in literal_parts)


def test_only_structure_selects_lifts_by_aut_prefix():
    # a decomposition names its generating set once, in structure, and every
    # other module reads DecompositionReport.generators
    found = {path.stem: _aut_prefix_selections(path) for path in MODULES
             if path.stem != "structure"}
    assert {stem: lines for stem, lines in found.items() if lines} == {}


def test_aut_prefix_lint_sees_every_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text('[k for k in lifts if k.startswith("aut_")]\n'
                   '"aut_" in k\nk[:4] == "aut_"\n'
                   'lifts[f"aut_{g}"]\nlifts["aut_1"]\n')
    assert _aut_prefix_selections(bad) == [1, 2, 3]
    assert _aut_prefix_selections(SRC / "origamis" / "structure.py")


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


# theorem-b runs the triality labels, the Weyl group and the congruence kernel;
# theorem-b --q 5 the tau character and the S2 T2 growth test; theorem-a the
# int Gamma(4) closure, triality and the kernel on the Wollmilchsau
@pytest.mark.parametrize("suite", ["appendix-a", "theorem-a", "theorem-b",
                                   "theorem-b --q 5"])
def test_verify_under_optimize_flag(suite):
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "origamis.cli", "verify", *suite.split()],
        capture_output=True, text=True, env=_src_env(), timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout)["pass"] is True


# prints the origamis modules that have run, after the script's own work
RAN = ("import json, sys, types\n{}\nsys.stdout.flush()\n"
       "print(json.dumps(sorted(m for m, module in sys.modules.items() if "
       "m.startswith('origamis.') and type(module) is types.ModuleType)), "
       "file=sys.stderr)")


def _modules_run(script: str) -> tuple[set, subprocess.CompletedProcess]:
    """The `origamis.*` modules that ran in a fresh `python -S` (no site
    hooks) by the end of the script: a lazily registered module keeps the
    type `importlib.util._LazyModule` until it is first read."""
    proc = subprocess.run([sys.executable, "-S", "-c", RAN.format(script)],
                          capture_output=True, text=True, env=_src_env(),
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(json.loads(proc.stderr.splitlines()[-1])), proc


def test_cli_import_loads_no_dataclasses_and_every_traced_module():
    """`import origamis.cli` in a fresh interpreter loads neither
    `dataclasses` nor `inspect`, which every CLI process would pay for, puts
    every module the benchmark tracer wraps right after that import in
    `sys.modules`, and runs none of the modules that only some commands
    use."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", SRC.parent / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    ran, proc = _modules_run(
        "import origamis.cli; print(json.dumps(sorted(sys.modules)))")
    loaded = set(json.loads(proc.stdout))
    assert not loaded & {"dataclasses", "inspect"}
    assert {f"origamis.{mod}" for mod, _ in tracer.SPANS} <= loaded
    assert not ran & {f"origamis.{mod}" for mod in COMMAND_ONLY}


# the modules that only some commands run
COMMAND_ONLY = ("affine", "invariants", "polygons", "rootsys", "structure",
                "verification")
# the README's commands and verify suites, as argument lists
README_COMMANDS = [shlex.split(line.split("#")[0])[1:] for line in
                   (SRC.parent / "README.md").read_text().splitlines()
                   if line.startswith("origamis ")]
# commands that read a named surface and run none of COMMAND_ONLY
LIGHT = [[command, *surface] for command in ("info", "veech", "homology")
         for surface in (["--name", "ornithorynque", "--q", "3"],
                         ["--name", "eierlegende-wollmilchsau"])]


@pytest.fixture(scope="module")
def modules_run(tmp_path_factory):
    """{command: the origamis modules it ran}, each in its own process, for
    the README commands, `info`, `veech` and `homology` on both named
    surfaces, `info` on an origami file and on a polygon file, and a bare
    `import origamis`."""
    folder = tmp_path_factory.mktemp("files")
    files = {"origami": {"n": 2, "r": [1, 0], "u": [0, 1]},
             "polygon": {"vertices": [[0, 0], [2, 0], [2, 1], [0, 1]]}}
    runs = {" ".join(argv): argv for argv in README_COMMANDS + LIGHT}
    for kind, data in files.items():
        path = folder / f"{kind}.json"
        path.write_text(json.dumps(data))
        runs[f"info {kind}-file"] = ["info", "--origami", str(path)]
    out = {name: _modules_run("from origamis.cli import run\n"
                              f"sys.exit(1) if run({argv!r}) else None")[0]
           for name, argv in runs.items()}
    out["import origamis"] = _modules_run("import origamis")[0]
    return out


def test_readme_lists_twelve_commands_and_five_suites():
    assert len(README_COMMANDS) == 17
    assert sum(argv[0] == "verify" for argv in README_COMMANDS) == 5


def test_each_command_runs_only_the_modules_it_uses(modules_run):
    assert modules_run["import origamis"] == set()
    assert modules_run["congruence --level 4"] == {
        "origamis.cli", "origamis.errors", "origamis.permutations",
        "origamis.sl2z"}
    for argv in LIGHT:
        assert not modules_run[" ".join(argv)] & {
            f"origamis.{m}" for m in COMMAND_ONLY}
    for name, ran in modules_run.items():
        uses_polygons = "appendix-b" in name or name == "info polygon-file"
        assert ("origamis.polygons" in ran) == uses_polygons, name

    def runs(*prefixes, having=""):
        """{command: modules} for the commands with a prefix and `having`."""
        found = {name: ran for name, ran in modules_run.items()
                 if name.startswith(prefixes) and having in name}
        assert found, prefixes
        return found.items()

    def ran_none(modules, *prefixes, having=""):
        for name, ran in runs(*prefixes, having=having):
            assert not ran & {f"origamis.{m}" for m in modules}, name

    # a module binds lazily the siblings that only some of its paths run
    ran_none(("structure", "rootsys"), "verify appendix-")
    ran_none(("affine",), "verify appendix-a")
    ran_none(("invariants",), "verify theorem-")
    assert len(runs("verify theorem-")) == 3
    ran_none(("homology", "linalg"), "info --name", "veech ")
    ran_none(("rootsys",), "decompose ", "growth ")
    ran_none(("rootsys",), "action ", having="--basis")


def test_congruence_imports_neither_fractions_nor_decimal():
    """`congruence` prints no Fraction, so its process never imports
    `fractions`, nor the `decimal` that `fractions` pulls in: `_jsonable`
    reads the Fraction type from `sys.modules`. Its JSON is the golden's."""
    script = ("import sys\nfrom origamis.cli import run\n"
              "run(['congruence', '--level', '4'])\nsys.stdout.flush()\n"
              "print(sorted({'fractions', 'decimal'} & set(sys.modules)), "
              "file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, env=_src_env(),
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stderr.splitlines()[-1] == "[]"
    golden = SRC.parent / "tests" / "golden" / "congruence.json"
    assert proc.stdout == golden.read_text()


# -- records compare and hash by value ---------------------------------------

def _small_origami():
    return make_origami(3, [1, 2, 0], [0, 2, 1])


def _d4_system():
    frame = linalg.identity(4)
    roots = [tuple(sa * x + sb * y for x, y in zip(e, f))
             for e, f in itertools.combinations(frame, 2)
             for sa in (1, -1) for sb in (1, -1)]
    return detect_d4(roots, frame)


# a recipe per hashable record: each call builds a new, equal value
HASHABLE_RECORDS = {
    "Origami": _small_origami,
    "VertexClass": lambda: vertex_classes(_small_origami())[0],
    "Stratum": lambda: stratum_and_genus(_small_origami()),
    "EdgeChain": lambda: EdgeChain((1, Fraction(1, 2)), (0, -1)),
    "Subspace": lambda: Subspace(((1, 0, Fraction(1, 2)),), (0,)),
    "StandardSplitting": lambda: StandardSplitting(
        EdgeChain((1,), (0,)), EdgeChain((0,), (1,)),
        Subspace(((1, 0),), (0,)), Subspace(((0, 1),), (1,))),
    "EdgeSubstitution": lambda: elementary_substitution("T", _small_origami()),
    "AffineLift": lambda: lift(_small_origami(), T_MAT),
    "Sl2zWord": lambda: sl2z_word(((2, 1), (1, 1))),
    "Cylinder": lambda: cylinders(_small_origami(), (1, 0)).cylinders[0],
    "UnboundedWitness": lambda: finite_closure([((1, 1), (0, 1))], 3),
    "RootSystemD4": _d4_system,
}

# records holding lists or dicts: equal, but not hashable
UNHASHABLE_RECORDS = {
    "CylinderDecomposition": lambda: cylinders(_small_origami(), (1, 1)),
    "MultiTwist": lambda: multitwist(_small_origami(), (1, 0)),
    "SpinResult": lambda: spin_parity(_small_origami()),
    "SupplementCertificate": lambda: SupplementCertificate(
        False, None, {"zeta0": Fraction(1, 6)}, 2, EdgeChain((1,), (0,))),
    "CongruenceReport": lambda: CongruenceReport(2, True, 6, 6, [("S", 0)], []),
    "GrowthReport": lambda: cocycle_growth([((1, 1), (0, 1))], 4, 2, seed=1),
}


@pytest.mark.parametrize("name", sorted(HASHABLE_RECORDS))
def test_equal_records_compare_and_hash_equal(name):
    a, b = HASHABLE_RECORDS[name](), HASHABLE_RECORDS[name]()
    assert type(a).__name__ == name and a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", sorted(UNHASHABLE_RECORDS))
def test_equal_unhashable_records_compare_equal(name):
    a, b = UNHASHABLE_RECORDS[name](), UNHASHABLE_RECORDS[name]()
    assert type(a).__name__ == name and a is not b
    assert a == b and not a != b


def test_equal_origamis_share_one_chain_space():
    # the lru_cache on chain_space is keyed by the origami's value
    first = make_origami(4, [1, 2, 3, 0], [0, 1, 3, 2])
    space = chain_space(first)
    hits = chain_space.cache_info().hits
    assert chain_space(make_origami(4, [1, 2, 3, 0], [0, 1, 3, 2])) is space
    assert chain_space.cache_info().hits == hits + 1


def test_origami_repr():
    assert repr(_small_origami()) == "Origami(n=3, r=[1, 2, 0], u=[0, 2, 1])"


def test_jsonable_writes_edge_chains_as_dicts():
    ints = EdgeChain((1, 0), (0, -1))
    halves = EdgeChain((Fraction(1, 2), 0), (0, 1))
    report = {"core": ints, "basis": [ints, halves], "section": (halves,)}
    one = '{"sigma": ["1", "0"], "zeta": ["0", "-1"]}'
    two = '{"sigma": ["1/2", "0"], "zeta": ["0", "1"]}'
    assert json.dumps(_jsonable(report), sort_keys=True) == (
        f'{{"basis": [{one}, {two}], "core": {one}, "section": [{two}]}}')
