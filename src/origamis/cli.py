"""Command-line interface producing deterministic JSON reports.

Exit codes: 0 success, 1 verification failure or domain error, 2 usage error
(including an --origami file that cannot be read as an origami and an option
value that does not parse or is out of range).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .affine import automorphism_lift, lift, matrix_on
from .catalog import catalog, catalog_origami
from .errors import BadArgument, BadInputFile, OrigamiError
from .homology import EdgeChain, chain_space
from .invariants import cylinders, invariant_supplement, multitwist, spin_parity
from .origami import (Origami, automorphisms, make_origami, stratum_and_genus,
                      veech_group, vertex_classes)
from .permutations import Perm
from .polygons import polygon_to_origami, twice_area
from .rootsys import FiniteMatrixGroup, finite_closure
from .sl2z import congruence_generators
from .structure import (cocycle_growth, decompose_ew, decompose_orn,
                        operator_norm)
from .verification import VERIFY_SUITES


def _jsonable(obj):
    """obj as JSON data; a list or tuple of plain ints is passed as it is."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, EdgeChain):  # a tuple, so before the list branch
        return obj.to_json_dict()
    if isinstance(obj, (list, tuple)):
        if set(map(type, obj)) <= {int}:
            return obj
        return [_jsonable(x) for x in obj]
    if isinstance(obj, Perm):
        return list(obj.images)
    return obj


def emit(report: dict) -> None:
    print(json.dumps(_jsonable(report), sort_keys=True, indent=2))


def load_origami(args) -> Origami:
    if getattr(args, "name", None):
        return catalog_origami(args.name, q=getattr(args, "q", None))
    if getattr(args, "origami", None):
        try:
            with open(args.origami) as handle:
                data = json.load(handle)
            pts = data["vertices"] if "vertices" in data else None
            squares = data["n"] if pts is None else abs(twice_area(pts)) // 2
            _check_bound("an --origami file's squares", squares, *_BOUNDS["squares"])
            if pts is not None:
                return polygon_to_origami(pts)
            return make_origami(data["n"], Perm(data["r"]), Perm(data["u"]),
                                data.get("base", 0))
        except (OSError, ValueError, KeyError, TypeError) as err:
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
# --origami file may hold (its n, or its polygon's area); --level stops at 32,
# whose report takes seconds and megabytes, growing as the cube of the level
_BOUNDS = {"cap": (1, None), "len": (1, None), "trials": (1, None),
           "level": (2, 32), "q": (None, 41), "squares": (None, 164)}


def _check_bound(name: str, value, least, most) -> None:
    if value is not None and least is not None and value < least:
        raise BadArgument(f"{name} must be at least {least}")
    if value is not None and most is not None and value > most:
        raise BadArgument(f"{name} must be at most {most}")


def _named_subspaces(args):
    if args.name == "eierlegende-wollmilchsau":
        return decompose_ew(catalog(args.name))
    if args.name == "ornithorynque":
        return decompose_orn(catalog(args.name, q=args.q))
    raise OrigamiError(f"no named decomposition for {args.name!r}")


def _subspace(rep, name: str):
    if name not in rep.subspaces:
        raise BadArgument(f"unknown subspace {name!r}, known: "
                          f"{', '.join(sorted(rep.subspaces))}")
    return rep.subspaces[name]


def cmd_info(args) -> dict:
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


def cmd_group(args) -> dict:
    rep = _named_subspaces(args)
    key = {"H0": "H1_0", "Hbreve": "H_breve"}.get(args.subspace, args.subspace)
    sub = _subspace(rep, key)
    gen_names = [k for k in ("S", "T", "S2", "T2", "J") if k in rep.lifts]
    gens = [matrix_on(rep.lifts[k], sub) for k in gen_names]
    gens += [matrix_on(rep.lifts[k], sub) for k in rep.lifts if k.startswith("aut_")]
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
    gens = congruence_generators(args.level)
    return {
        "command": "congruence",
        "level": args.level,
        "count": len(gens),
        "generators": [str(g) for g in gens],
        "matrices": [[list(r) for r in g.matrix()] for g in gens],
    }


def cmd_growth(args) -> dict:
    rep = _named_subspaces(args)
    key = {"H0": "H1_0", "Hbreve": "H_breve"}.get(args.subspace, args.subspace)
    sub = _subspace(rep, key)
    gen_names = [k for k in ("S", "T", "S2", "T2", "J") if k in rep.lifts]
    gens = [matrix_on(rep.lifts[k], sub) for k in gen_names]
    result = cocycle_growth(gens, args.len, args.trials, args.seed)
    return {
        "command": "growth", "subspace": key, "length": args.len,
        "trials": args.trials, "seed": args.seed,
        "max_log_norm": result.max_log_norm,
        "growth_rate": result.growth_rate,
    }


def cmd_cylinders(args) -> dict:
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
    origami = load_origami(args)
    result = spin_parity(origami)
    return {
        "command": "spin",
        "parity": result.parity,
        "indices": result.indices,
        "basis": result.basis,
    }


def cmd_supplement(args) -> dict:
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
    fn = VERIFY_SUITES[args.suite]
    if args.suite == "theorem-b":
        return fn(args.q or 3)
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
    p.add_argument("suite", choices=sorted(VERIFY_SUITES))
    p.add_argument("--q", type=int)
    p.set_defaults(fn=cmd_verify)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for option, (least, most) in _BOUNDS.items():
            _check_bound(f"--{option}", getattr(args, option, None), least, most)
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
