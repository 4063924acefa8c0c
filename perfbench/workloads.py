"""The benchmark's four workloads: inputs, timed operations and answer checks.

`paper-suites` and `readme-cli` run `origamis` commands, one fresh process
each; their checks read the JSON a command prints. `orn-lifts` and
`random-origamis` call the library in one fresh process per pass (see
`child.py`); each operation is timed alone, and its answer is checked after
the timer stops, with tracing paused.

`origamis` is imported inside the functions, not here, so that a traced
child process times the package import as a span of its own.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction

import speed

# -- command workloads ----------------------------------------------------------


def _checks(report: dict) -> dict:
    return {c["name"].split(" ", 1)[0]: c.get("detail") for c in report["checks"]}


def _theorem_a(report):
    d = _checks(report)
    return (report["suite"] == "theorem-a" and d["(a)"] == 96
            and d["(b)"]["intersection"] == 16 and d["(e)"]["order"] == 24)


def _theorem_b(report):
    d = _checks(report)
    return (report["suite"] == "theorem-b" and d["(a)"] == 72
            and d["(b)"]["intersection"] == 24 and d["(f)"]["order"] == 6)


def _family_q5(report):
    taus = next(c["detail"] for c in report["checks"]
                if c["name"].startswith("H_tau values"))
    return report["suite"] == "family-q5" and \
        taus["got"] == {"J": 5, "S2": 8, "T2": 2, "aut_1": 2}


def _appendix_a(report):
    return report["suite"] == "appendix-a"


def _appendix_b(report):
    forced = next(c["detail"] for c in report["checks"]
                  if c["name"].startswith("no invariant supplement"))
    return report["suite"] == "appendix-b" and \
        forced["forced"] == {"s_0": "1/6", "s_1": "-5/24"}


def _suite(check):
    return lambda report: report.get("pass") is True and check(report)


# (stage name, argv, check); a stage name ending in _s is reported as a timing.
PAPER_SUITES = (
    ("theorem_a_s", ["verify", "theorem-a"], _suite(_theorem_a)),
    ("theorem_b_s", ["verify", "theorem-b"], _suite(_theorem_b)),
    ("family_q5_s", ["verify", "theorem-b", "--q", "5"], _suite(_family_q5)),
    ("appendix_a", ["verify", "appendix-a"], _suite(_appendix_a)),
    ("appendix_b_s", ["verify", "appendix-b"], _suite(_appendix_b)),
)


def _congruence(report):
    return report["count"] == 49 and all(
        (m[0][0] - 1) % 4 == m[0][1] % 4 == m[1][0] % 4 == (m[1][1] - 1) % 4 == 0
        for m in report["matrices"])


def _vertical_cylinders(report):
    shapes = sorted((c["width"], c["height"]) for c in report["cylinders"])
    return shapes == [(3, 1), (5, 1), (8, 1)]


# The twelve commands of the README, in its order.
README_COMMANDS = (
    ("info", ["info", "--name", "ornithorynque", "--q", "5"],
     lambda r: (r["n"], r["genus"], r["stratum"], r["automorphisms"],
                r["veech_index"]) == (20, 7, [4, 4, 4], 5, 3)),
    ("veech", ["veech", "--name", "eierlegende-wollmilchsau",
               "--matrix", "[[1,1],[0,1]]"],
     lambda r: r["index"] == 1 and r["contains"] is True),
    ("homology", ["homology", "--name", "eierlegende-wollmilchsau"],
     lambda r: (r["relation_rank"], r["total_dim"], r["absolute_dim"],
                r["h1_0_abs_dim"]) == (7, 9, 6, 4)),
    ("action", ["action", "--name", "ornithorynque", "--q", "3", "--matrix",
                "[[1,0],[1,1]]", "--basis", "H_rel"],
     lambda r: r["restricted"] == [["1", "0"], ["1", "-1"]]),
    ("decompose", ["decompose", "--name", "ornithorynque", "--q", "3"],
     lambda r: r["pass"] is True and r["subspace_dims"] == {
         "H1_st": 2, "H_rel": 2, "H_tau": 2, "H_breve": 4}),
    ("group", ["group", "--name", "eierlegende-wollmilchsau", "--subspace",
               "H0", "--report"],
     lambda r: r["finite"] is True and r["order"] == 96),
    ("congruence", ["congruence", "--level", "4"], _congruence),
    ("growth", ["growth", "--name", "eierlegende-wollmilchsau", "--subspace",
                "H0", "--len", "1000", "--seed", "20100"],
     lambda r: r["growth_rate"] == 0.0 and r["max_log_norm"] <= math.log(5)),
    ("cylinders", ["cylinders", "--name", "appendix-b", "--dir", "0,1"],
     _vertical_cylinders),
    ("twist", ["twist", "--name", "appendix-b", "--dir", "1,1"],
     lambda r: r["k"] == "12" and r["linear"] == [[-11, 12], [-12, 13]]),
    ("spin", ["spin", "--name", "ornithorynque", "--q", "3"],
     lambda r: r["parity"] == "even"),
    ("supplement", ["supplement", "--name", "appendix-b", "--probes",
                    "vert,hor,diag"],
     lambda r: r["feasible"] is False and r["violated_probe"] == 2
     and r["forced"] == {"s_0": "1/6", "s_1": "-5/24"}),
)

QUICK_PAPER_SUITES = PAPER_SUITES[3:4]
QUICK_README_COMMANDS = (README_COMMANDS[0], README_COMMANDS[6])

# The catalog surfaces the commands load, built once by the set-up probe.
COMMAND_SURFACES = (("eierlegende-wollmilchsau", None), ("ornithorynque", 3),
                    ("ornithorynque", 5), ("appendix-b", None))


def setup_commands(seed: int, quick: bool):
    from origamis import catalog, chain_space
    import origamis.cli  # noqa: F401  (the commands import the whole CLI)
    for name, q in COMMAND_SURFACES:
        chain_space(catalog(name, q=q).origami)


# -- in-process workloads -------------------------------------------------------

# The multitwist defect this benchmark reports rather than hides: on some
# genus-1 origamis `multitwist` ends in a bare AssertionError.
KNOWN_DEFECT = ("multitwist", "AssertionError",
                "no affine lift matches the twist formula")


class Pass:
    """Times each operation of one pass and checks its answer untimed.

    While an answer is checked, the tracer opens no spans and the speed
    sampler runs no probe.
    """

    def __init__(self, tracer=None, sampler=None):
        self.tracer = tracer
        self.sampler = sampler
        self.ops: list[dict] = []
        self.answers: list = []
        self.check_s = 0.0

    def op(self, name, call, check=None, answer=None):
        """Time call(); then check its result and keep its answer.

        Returns the result, or None when the call raised or failed its check.
        """
        probes = self._probes()
        start = self._clock()
        try:
            result = call()
        except Exception as err:  # a failed operation is recorded, not fatal
            seconds = self._clock() - start
            error = [type(err).__name__, str(err)]
            self.ops.append({"name": name, "s": seconds, "ok": False,
                             "probes": self._probes(probes), "error": error,
                             "known": (name, *error) == KNOWN_DEFECT})
            self.answers.append([name, error])
            return None
        seconds = self._clock() - start
        probes = self._probes(probes)
        start = self._clock()
        for layer in (self.tracer, self.sampler):
            if layer:
                layer.paused = True
        try:
            ok = bool(check(result)) if check else True
            self.answers.append([name, answer(result) if answer else None])
        finally:
            for layer in (self.tracer, self.sampler):
                if layer:
                    layer.paused = False
            self.check_s += self._clock() - start
        self.ops.append({"name": name, "s": seconds, "ok": ok,
                         "probes": probes})
        return result if ok else None

    def _clock(self) -> float:
        # a sampled pass is timed in CPU time, as the parent times processes
        return time.thread_time() if self.sampler else time.perf_counter()

    def _probes(self, since=(0, 0.0)) -> list:
        """Speed probes run so far (or since an earlier reading): [count, s]."""
        if not self.sampler:
            return [0, 0.0]
        return [self.sampler.count - since[0], self.sampler.probe_s - since[1]]

    def stage_seconds(self, ops) -> float:
        """The time of these calls; when sampled, less their probes and scaled
        by the mean of those probes, like `pass_s`."""
        seconds = sum(op["s"] for op in ops)
        if not self.sampler:
            return seconds
        count = sum(op["probes"][0] for op in ops)
        if not count:  # calls too short for the timer: the process's mean
            return seconds * speed.scale(self.sampler.totals())
        probe_s = sum(op["probes"][1] for op in ops)
        return (seconds - probe_s) * speed.scale(
            {"probe_count": count, "probe_s": probe_s})


def _maps_relations_to_relations(space, lf) -> bool:
    from origamis import linalg
    zero = tuple(Fraction(0) for _ in range(2 * space.n))
    return all(space.canonical_vec(linalg.mat_vec(
        lf.matrix, space.relation_chain(g).flat())) == zero
        for g in range(space.n))


def _base_fixing(lifts, origami):
    """The lift that `lift` returns: the closing fixing the base square."""
    return next((lf for lf in lifts
                 if lf.relabeling(origami.base) == origami.base), lifts[0])


def _rows(m) -> list:
    return [[str(x) for x in row] for row in m]


ORN_QS = (5, 7)


def setup_orn_lifts(seed: int, quick: bool):
    """The odd-q ornithorynques; the inputs do not depend on the seed."""
    from origamis import catalog, chain_space
    surfaces = []
    for q in ORN_QS[:1] if quick else ORN_QS:
        orn = catalog("ornithorynque", q=q)
        surfaces.append((orn, chain_space(orn.origami)))
    return surfaces


def orn_lifts(p: Pass, surfaces) -> dict:
    """Veech orbit, dense lifts, one product and their actions for each q."""
    from origamis import (automorphism_lift, automorphisms, lift, lift_all,
                          matrix_on, power_order, tau_character, veech_group)
    from origamis.sl2z import J_MAT, S_MAT, T_MAT, mat_mul, mat_pow
    stages = {}
    for orn, space in surfaces:
        q, origami = orn.q, orn.origami
        before = len(p.ops)
        s2, t2 = mat_pow(S_MAT, 2), mat_pow(T_MAT, 2)
        p.op("veech_group", lambda: veech_group(origami),
             lambda g: g.index == 3, lambda g: g.index)
        auts = p.op("automorphisms", lambda: automorphisms(origami),
                    lambda a: len(a) == q, len)
        t2_lifts = p.op("lift_all", lambda: lift_all(origami, t2),
                        lambda ls: len(ls) == q and _maps_relations_to_relations(
                            space, _base_fixing(ls, origami)),
                        lambda ls: [list(lf.relabeling.images) for lf in ls])
        lifts = {"S2": s2, "J": J_MAT}
        for key, m in lifts.items():
            lifts[key] = p.op("lift", lambda m=m: lift(origami, m),
                              lambda lf: _maps_relations_to_relations(space, lf),
                              lambda lf: list(lf.relabeling.images))
        if t2_lifts:
            lifts["T2"] = _base_fixing(t2_lifts, origami)
        if lifts["J"] and lifts["S2"]:
            p.op("compose", lambda: lifts["J"].compose(lifts["S2"]),
                 lambda lf: lf.linear == mat_mul(J_MAT, s2)
                 and _maps_relations_to_relations(space, lf))
            p.op("power_order", lambda: power_order(lifts["J"], 8),
                 lambda k: k == 4, lambda k: k)
            breve = space.subspace_from(
                [orn.sigma_breve(i) for i in range(q)]
                + [orn.zeta_breve(i) for i in range(q)])
            p.op("matrix_on", lambda: matrix_on(lifts["J"], breve),
                 lambda m: len(m) == 2 * q - 2, _rows)
        if auts:
            lifts["aut_1"] = automorphism_lift(origami, orn.shift(1))
        expected = {"T2": 2, "S2": 2 * q - 2, "J": q, "aut_1": 2}
        for key, value in expected.items():
            if lifts.get(key):
                p.op("tau_character", lambda lf=lifts[key]: tau_character(orn, lf),
                     lambda k, value=value: k == value, lambda k: k)
        stages[f"orn_q{q}_s"] = p.stage_seconds(p.ops[before:])
    return stages


# Surfaces per size. n = 8 is drawn less often: its Veech orbits and twist
# words vary most in cost, which widens the seed-to-seed spread of a pass.
RANDOM_DRAW = {5: 16, 6: 16, 7: 16, 8: 4}
QUICK_RANDOM_DRAW = {5: 3}
DIRECTIONS = ((1, 0), (0, 1), (1, 1))
WORDS_PER_SURFACE = 4


def setup_random_origamis(seed: int, quick: bool):
    """A seeded draw of transitive origamis, RANDOM_DRAW[n] of each size n.

    Genus-1 surfaces are kept: they are where the multitwist defect shows.
    """
    from origamis import chain_space, make_origami
    from origamis.permutations import random_transitive_pair
    rng = random.Random(seed)
    draw = QUICK_RANDOM_DRAW if quick else RANDOM_DRAW
    surfaces = []
    for n, count in draw.items():
        for _ in range(count):
            r, u = random_transitive_pair(n, rng)
            origami = make_origami(n, r, u)
            words = [tuple(rng.choice(("S", "S-", "T", "T-"))
                           for _ in range(rng.randrange(2, 9)))
                     for _ in range(WORDS_PER_SURFACE)]
            surfaces.append((origami, chain_space(origami), words))
    return surfaces


def _cusp_width(group) -> int:
    node, width = group.edges[(0, "T")], 1
    while node != 0:
        node, width = group.edges[(node, "T")], width + 1
    return width


def _is_unimodular_form(gram) -> bool:
    from origamis import linalg
    size = len(gram)
    return all(gram[i][j] == -gram[j][i] for i in range(size)
               for j in range(size)) and linalg.det(gram) == 1


def random_origamis(p: Pass, surfaces) -> dict:
    """Orbit, membership, lifts, cylinders, twists, spin and intersection form."""
    from origamis import (automorphisms, cylinders, lift_all, multitwist,
                          spin_parity, stratum_and_genus, veech_group)
    from origamis.errors import OddOrderZeros
    from origamis.origami import act_by_letters, canonical_pair
    from origamis.sl2z import T_MAT, eval_letters, mat_pow
    for origami, space, words in surfaces:
        n = origami.n
        stratum = p.op("stratum_and_genus", lambda: stratum_and_genus(origami),
                       lambda s: sum(s.zero_orders) == 2 * s.genus - 2,
                       lambda s: [s.genus, list(s.zero_orders)])
        auts = p.op("automorphisms", lambda: automorphisms(origami),
                    answer=len)
        group = p.op("veech_group", lambda: veech_group(origami),
                     lambda g: g.index >= 1, lambda g: g.index)
        if group is not None:
            key = canonical_pair(origami)
            for word in words:
                p.op("contains", lambda w=word: group.contains(eval_letters(w)),
                     lambda hit, w=word: hit == (
                         canonical_pair(act_by_letters(w, origami)) == key),
                     lambda hit: hit)
            if auts is not None:
                m = mat_pow(T_MAT, _cusp_width(group))
                p.op("lift_all", lambda m=m: lift_all(origami, m),
                     lambda ls: len(ls) == len(auts), len)
        for d in DIRECTIONS:
            p.op("cylinders", lambda d=d: cylinders(origami, d),
                 lambda c: sum(cyl.width * cyl.height
                               for cyl in c.cylinders) == n,
                 lambda c: sorted([cyl.width, cyl.height]
                                  for cyl in c.cylinders))
        for d in DIRECTIONS:
            p.op("multitwist", lambda d=d: multitwist(origami, d),
                 answer=lambda tw: [str(tw.k), [list(r) for r in tw.linear]])

        def spin():
            try:
                return spin_parity(origami).parity
            except OddOrderZeros:
                return "odd-order-zeros"
        p.op("spin_parity", spin,
             lambda parity: stratum is None or (parity == "odd-order-zeros") == any(
                 z % 2 for z in stratum.zero_orders), lambda parity: parity)
        p.op("gram", lambda: space.gram(space.integral_absolute_basis()),
             lambda g: _is_unimodular_form(g)
             and (stratum is None or len(g) == 2 * stratum.genus), _rows)
    return {"surfaces": len(surfaces)}


IN_PROCESS = {
    "orn-lifts": (setup_orn_lifts, orn_lifts),
    "random-origamis": (setup_random_origamis, random_origamis),
}


def answers_digest(answers) -> str:
    # imported here: it loads OpenSSL (about 1 MB), which the set-up probes,
    # counted in peak_rss_mb, should not carry
    import hashlib
    text = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
