"""Command-line interface producing deterministic JSON reports.

Exit codes: 0 success, 1 verification failure or domain error, 2 usage error
(including an --origami file that cannot be read as an origami and an option
value that does not parse or is out of range).

Each command imports the library modules it runs, inside the command, so that
a process compiles and runs only those (see the package docstring).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import prod

from .errors import (BadArgument, BadInputFile, NotInvariant, NotOrigami,
                     OrigamiError)
from .permutations import Perm

# the keys of verification.VERIFY_SUITES, sorted; the parser reads them
# without running that module
SUITE_NAMES = ("appendix-a", "appendix-b", "theorem-a", "theorem-b")


def _jsonable(obj):
    """obj as JSON data; a list or tuple of plain ints is passed as it is.
    A Fraction exists only once `fractions` is imported, so its type is read
    from `sys.modules`: a command such as `congruence` never imports it."""
    Fraction = getattr(sys.modules.get("fractions"), "Fraction", ())
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if hasattr(obj, "to_json_dict"):  # an EdgeChain, a tuple of chains
            return obj.to_json_dict()
        if set(map(type, obj)) <= {int}:
            return obj
        return [_jsonable(x) for x in obj]
    if isinstance(obj, Perm):
        return list(obj.images)
    return obj


def emit(report: dict) -> None:
    print(json.dumps(_jsonable(report), sort_keys=True, indent=2))


def load_origami(args):
    if getattr(args, "name", None):
        from .catalog import catalog_origami
        return catalog_origami(args.name, q=getattr(args, "q", None))
    if getattr(args, "origami", None):
        from . import polygons
        from .origami import make_origami
        try:
            with open(args.origami) as handle:
                data = json.load(handle)
            pts = data["vertices"] if "vertices" in data else None
            if pts is not None and not all(type(x) is int for v in pts for x in v):
                raise TypeError("the vertex coordinates must be integers")
            squares = data["n"] if pts is None else abs(polygons.twice_area(pts)) // 2
            _check_bound("an --origami file's squares", squares, *_BOUNDS["squares"])
            if pts is not None:
                _check_bound("a polygon file's bounding-box cells",
                             prod(max(c) - min(c) for c in zip(*pts)),
                             *_BOUNDS["cells"])
                return polygons.polygon_to_origami(pts)
            r, u = data["r"], data["u"]
            if not all(type(x) is int for x in (*r, *u)):
                raise TypeError("the images of r and u must be integers")
            return make_origami(data["n"], r, u, data.get("base", 0))
        except (OSError, ValueError, KeyError, TypeError, NotOrigami) as err:
            raise BadInputFile(f"cannot read an origami from {args.origami}: "
                               f"{type(err).__name__}: {err}") from err
    raise OrigamiError("need --name or --origami")


def _parse_json(text: str, option: str):
    try:
        return json.loads(text)
    except ValueError as err:
        raise BadArgument(f"{option} is not JSON: {err}") from err


def _parse_matrix(text: str):
    data = _parse_json(text, "--matrix")
    if not (isinstance(data, list) and len(data) == 2 and all(
            isinstance(row, list) and len(row) == 2
            and all(type(x) is int for x in row) for row in data)):
        raise BadArgument(f"--matrix must be a 2x2 integer matrix, got {text}")
    (a, b), (c, d) = data
    if a * d - b * c != 1:
        raise BadArgument(f"--matrix must have determinant 1, got {text}")
    return ((a, b), (c, d))


def _parse_dir(text: str) -> tuple[int, int]:
    try:
        p, q = (int(x) for x in text.split(","))
    except ValueError as err:
        raise BadArgument(f'--dir must be "p,q" with integers, got {text!r}') \
            from err
    if p == 0 and q == 0:
        raise BadArgument("--dir must be a nonzero direction")
    return (p, q)


# the least and the most accepted value of each bounded integer option (None:
# no bound); --q stops at 41, whose surface's 164 squares are the most an
# --origami file may hold (its n, or its polygon's area); a polygon's bounding
# box may hold 10,000 unit cells, since rasterizing visits every one (0.03 s
# for a four-sided polygon at the cap), and its sides, paired in one pass,
# are at most 2(A + 1) = 330 at A = 164 squares by Pick's theorem; --level
# stops at 32, whose report takes seconds and megabytes, growing as the
# cube of the level; --cap stops at 20,000, where `group --q 41 --subspace
# Hbreve` takes 17.9 s and 51 MB (3.7 s at the default 2,000), about linear
# in the cap; a growth probe multiplies --trials words of --len letters,
# which stop at 10,000 and 100 (ew H0 at the defaults 1,000 and 3: 0.15 s,
# at --len 10,000: 0.4 s, at --trials 100: 1.4 s; Hbreve at q = 15, whose
# entries grow: 6.0 s at the defaults, 128 s at --len 10,000)
_BOUNDS = {"cap": (1, 20_000), "len": (1, 10_000), "trials": (1, 100),
           "level": (2, 32), "q": (None, 41), "squares": (None, 164),
           "cells": (None, 10_000)}


def _check_bound(name: str, value, least, most) -> None:
    if value is not None and least is not None and value < least:
        raise BadArgument(f"{name} must be at least {least}")
    if value is not None and most is not None and value > most:
        raise BadArgument(f"{name} must be at most {most}")


def _named_subspaces(args):
    from .catalog import catalog
    from .structure import decompose_ew, decompose_orn
    if args.name == "eierlegende-wollmilchsau":
        return decompose_ew(catalog(args.name))
    if args.name == "ornithorynque":
        return decompose_orn(catalog(args.name, q=args.q))
    asked = args.name or args.origami or "a surface without --name"
    raise OrigamiError(f"no named decomposition for {asked}: only "
                       "eierlegende-wollmilchsau and ornithorynque have one")


def _subspace(rep, name: str):
    if name not in rep.subspaces:
        raise BadArgument(f"unknown subspace {name!r}, known: "
                          f"{', '.join(sorted(rep.subspaces))}")
    return rep.subspaces[name]


def cmd_info(args) -> dict:
    from .origami import (automorphisms, stratum_and_genus, veech_group,
                          vertex_classes)
    origami = load_origami(args)
    stratum = stratum_and_genus(origami)
    group = veech_group(origami)
    return {
        "command": "info",
        "n": origami.n,
        "r": list(origami.r.images),
        "u": list(origami.u.images),
        "genus": stratum.genus,
        "stratum": list(stratum.zero_orders),
        "vertex_multiplicities": sorted(
            v.multiplicity for v in vertex_classes(origami)),
        "automorphisms": len(automorphisms(origami)),
        "veech_index": group.index,
    }


def cmd_veech(args) -> dict:
    from .origami import veech_group
    origami = load_origami(args)
    group = veech_group(origami)
    report = {"command": "veech", "index": group.index,
              "orbit": [{"r": list(o.r.images), "u": list(o.u.images)}
                        for o in group.orbit],
              "edges": {f"{node},{letter}": target
                        for (node, letter), target in sorted(group.edges.items())}}
    if args.matrix:
        report["contains"] = group.contains(_parse_matrix(args.matrix))
    return report


def cmd_homology(args) -> dict:
    from .homology import chain_space
    origami = load_origami(args)
    space = chain_space(origami)
    split = space.standard_splitting()
    return {
        "command": "homology",
        "relation_rank": space.relation_rank(),
        "total_dim": space.full_subspace().dim,
        "absolute_dim": space.absolute_subspace().dim,
        "h1_0_abs_dim": split.h1_0_abs.dim,
        "h1_0_rel_dim": split.h1_0_rel.dim,
        "singular_vertices": space.singular_vertices(),
    }


def cmd_action(args) -> dict:
    from .affine import automorphism_lift, lift, matrix_on
    origami = load_origami(args)
    matrix = _parse_matrix(args.matrix)
    lifted = lift(origami, matrix)
    if args.aut:
        images = _parse_json(args.aut, "--aut")
        if not isinstance(images, list):
            raise BadArgument(f"--aut must be a JSON list, got {args.aut}")
        lifted = automorphism_lift(origami, Perm(images)).compose(lifted)
    report = {"command": "action", "matrix": [list(r) for r in matrix],
              "closing": list(lifted.relabeling.images)}
    if args.basis:
        rep = _named_subspaces(args)
        sub = _subspace(rep, args.basis)
        report["basis"] = args.basis
        report["restricted"] = [[str(x) for x in row]
                                for row in matrix_on(lifted, sub)]
    else:
        report["chain_matrix"] = [[str(x) for x in row] for row in lifted.matrix]
    return report


def cmd_decompose(args) -> dict:
    rep = _named_subspaces(args)
    return {
        "command": "decompose",
        "subspace_dims": {k: v.dim for k, v in rep.subspaces.items()},
        "checks": rep.checks,
        "pass": rep.all_ok,
        "intersection_sign": 1,
    }


def _generators_on(args) -> tuple[str, tuple[str, ...], list]:
    """(subspace key, the decomposition's Veech lift names, the matrix_on
    blocks on --subspace of its generators, the Veech lifts first)."""
    rep = _named_subspaces(args)
    key = {"H0": "H1_0", "Hbreve": "H_breve"}.get(args.subspace, args.subspace)
    _subspace(rep, key)
    if rep.blocks[key] is None:
        raise NotInvariant(f"the generators do not preserve {key}")
    return key, rep.veech_generators, rep.blocks[key]


def cmd_group(args) -> dict:
    """The closure of the decomposition's generators on --subspace, the group
    of every lift's action; a witness word indexes the generators, whose
    Veech lifts come first, at the indices they had before every aut_ lift."""
    from .rootsys import FiniteMatrixGroup, finite_closure
    from .structure import operator_norm
    key, gen_names, gens = _generators_on(args)
    closure = finite_closure(gens, args.cap)
    if isinstance(closure, FiniteMatrixGroup):
        report = {"finite": True, "order": closure.order}
        if args.report:
            report["max_norm"] = str(max(operator_norm(m)
                                         for m in closure.elements))
    else:
        report = {"finite": False, "witness_word": list(closure.word)}
    report.update({"command": "group", "subspace": key, "generators": gen_names})
    return report


def cmd_congruence(args) -> dict:
    from .sl2z import congruence_generators
    gens = congruence_generators(args.level)
    return {
        "command": "congruence",
        "level": args.level,
        "count": len(gens),
        "generators": [str(g) for g in gens],
        "matrices": [[list(r) for r in g.matrix()] for g in gens],
    }


def cmd_growth(args) -> dict:
    from .structure import cocycle_growth
    key, veech, gens = _generators_on(args)
    result = cocycle_growth(gens[:len(veech)], args.len, args.trials, args.seed)
    return {
        "command": "growth", "subspace": key, "length": args.len,
        "trials": args.trials, "seed": args.seed,
        "max_log_norm": result.max_log_norm,
        "growth_rate": result.growth_rate,
    }


def cmd_cylinders(args) -> dict:
    from .invariants import cylinders
    origami = load_origami(args)
    decomp = cylinders(origami, _parse_dir(args.dir))
    return {
        "command": "cylinders",
        "direction": list(decomp.direction),
        "cylinders": [
            {"width": c.width, "height": c.height, "modulus": c.modulus,
             "rows": [list(r) for r in c.rows], "core": c.core}
            for c in decomp.cylinders],
    }


def cmd_twist(args) -> dict:
    from .invariants import multitwist
    origami = load_origami(args)
    tw = multitwist(origami, _parse_dir(args.dir))
    return {
        "command": "twist",
        "direction": list(tw.direction),
        "k": tw.k,
        "linear": [list(r) for r in tw.linear],
        "twist_counts": tw.twist_counts,
    }


def cmd_spin(args) -> dict:
    from .invariants import spin_parity
    origami = load_origami(args)
    result = spin_parity(origami)
    return {
        "command": "spin",
        "parity": result.parity,
        "indices": result.indices,
        "basis": result.basis,
    }


def cmd_supplement(args) -> dict:
    from .catalog import catalog
    from .homology import chain_space
    from .invariants import invariant_supplement, multitwist
    if args.name != "appendix-b":
        raise OrigamiError("supplement probes are cataloged for appendix-b")
    ab = catalog("appendix-b")
    origami = ab.origami
    space = chain_space(origami)
    probe_map = {"vert": (0, 1), "hor": (1, 0), "diag": (1, 1)}
    names = args.probes.split(",")
    if not set(names) <= probe_map.keys():
        raise BadArgument(f"unknown probe in {args.probes!r}, known: "
                          f"{', '.join(probe_map)}")
    probes = [multitwist(origami, probe_map[p]).lift for p in names]
    cert = invariant_supplement(origami, space.singular_vertices(), probes,
                                reps=[ab.zeta_star()],
                                correction_basis=[ab.zeta0(), ab.zeta1()])
    report = {"command": "supplement", "feasible": cert.feasible}
    if cert.feasible:
        report["section"] = cert.section
    else:
        report["forced"] = {k: str(v) for k, v in cert.forced.items()}
        report["violated_probe"] = cert.violated_probe
        report["residual"] = cert.residual
    return report


def cmd_verify(args) -> dict:
    from .verification import VERIFY_SUITES
    fn = VERIFY_SUITES[args.suite]
    if args.suite == "theorem-b":
        return fn(3 if args.q is None else args.q)
    return fn()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="origamis",
        description="Exact computations on square-tiled surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("--name", help="catalog name")
        p.add_argument("--q", type=int, help="parameter for the odd-q family")
        p.add_argument("--origami", help="JSON file with an origami or polygon")

    p = sub.add_parser("info", help="stratum, genus, automorphisms, Veech index")
    add_source(p)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("veech", help="Veech orbit and membership")
    add_source(p)
    p.add_argument("--matrix", help='e.g. "[[1,1],[0,1]]"')
    p.set_defaults(fn=cmd_veech)

    p = sub.add_parser("homology", help="relation rank and splitting dims")
    add_source(p)
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("action", help="affine lift of a Veech matrix")
    add_source(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--aut", help="JSON permutation to compose with")
    p.add_argument("--basis", help="named subspace for the restricted matrix")
    p.set_defaults(fn=cmd_action)

    p = sub.add_parser("decompose", help="invariant decomposition report")
    add_source(p)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("group", help="finite closure of the subspace action")
    add_source(p)
    p.add_argument("--subspace", default="H0", help="H0 or Hbreve or a name")
    p.add_argument("--cap", type=int, default=2000)
    p.add_argument("--report", action="store_true")
    p.set_defaults(fn=cmd_group)

    p = sub.add_parser("congruence", help="Gamma(N) generators as S,T words")
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(fn=cmd_congruence)

    p = sub.add_parser("growth", help="random-word growth probe")
    add_source(p)
    p.add_argument("--subspace", default="H0")
    p.add_argument("--len", type=int, default=1000)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=20100)
    p.set_defaults(fn=cmd_growth)

    p = sub.add_parser("cylinders", help="cylinder decomposition")
    add_source(p)
    p.add_argument("--dir", required=True, help='direction "p,q"')
    p.set_defaults(fn=cmd_cylinders)

    p = sub.add_parser("twist", help="parabolic multitwist")
    add_source(p)
    p.add_argument("--dir", required=True)
    p.set_defaults(fn=cmd_twist)

    p = sub.add_parser("spin", help="spin structure parity")
    add_source(p)
    p.set_defaults(fn=cmd_spin)

    p = sub.add_parser("supplement", help="invariant supplement certificate")
    add_source(p)
    p.add_argument("--probes", default="vert,hor,diag")
    p.set_defaults(fn=cmd_supplement)

    p = sub.add_parser("verify", help="run a theorem or appendix suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--q", type=int)
    p.set_defaults(fn=cmd_verify)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for option, (least, most) in _BOUNDS.items():
            _check_bound(f"--{option}", getattr(args, option, None), least, most)
        if getattr(args, "q", None) is not None and (
                args.suite != "theorem-b" if args.command == "verify"
                else args.name != "ornithorynque"):
            raise BadArgument("--q is read only by verify theorem-b and with "
                              "--name ornithorynque")
        report = args.fn(args)
    except OrigamiError as err:
        emit({"error": type(err).__name__, "message": str(err)})
        return 2 if isinstance(err, (BadArgument, BadInputFile)) else 1
    emit(report)
    return 1 if report.get("pass") is False else 0


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so that the
        # flush at exit does not raise again, and exit without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
