"""One-shot verification suites for the two theorems and both appendices.

Each suite returns a report dict with one pass/fail entry per claim; the CLI
and the acceptance tests both run these, so everything here sticks to public
library operations. The modules that only some suites run (`affine`,
`invariants`, `rootsys`, `structure`) are read at call time, so a suite
compiles only the modules it runs (see the package docstring).
"""

from __future__ import annotations

from fractions import Fraction

from . import affine, invariants, linalg, rootsys, structure
from .catalog import QUATERNION_ORDER, catalog
from .errors import OddOrderZeros
from .homology import EdgeChain, chain_space
from .origami import veech_group
from .sl2z import J_MAT, S_MAT, T_MAT, mat_mul, mat_neg, mat_pow


class Suite:
    def __init__(self, name: str):
        self.name = name
        self.checks: list[dict] = []

    def check(self, name: str, passed: bool, detail=None):
        entry = {"name": name, "pass": bool(passed)}
        if detail is not None:
            entry["detail"] = detail
        self.checks.append(entry)

    def report(self) -> dict:
        return {
            "suite": self.name,
            "pass": all(c["pass"] for c in self.checks),
            "checks": self.checks,
        }


def _d4_system(rep, seed: EdgeChain, frame_chains) -> rootsys.RootSystemD4:
    """The D4 system of the orbit of seed's class, with its negatives, under
    the generator lifts of rep, certified against the frame of the classes
    c / 2 of frame_chains. A 25th class stops the orbit, and `detect_d4`
    rejects it."""
    space = chain_space(rep.origami)
    orbit = [space.canonical_vec(seed.flat())]
    seen = set(orbit)
    for v in orbit:
        for w in (tuple(-x for x in v), *(lf.image(v) for lf in rep.generator_lifts)):
            if w not in seen and len(seen) <= 24:
                seen.add(w)
                orbit.append(w)
    frame = [space.canonical_vec(c.scale(Fraction(1, 2)).flat()) for c in frame_chains]
    return rootsys.detect_d4(orbit, frame)


def _d4_image(rep, system: rootsys.RootSystemD4):
    """Theorems' (a)/(b) reading: the generators' frame matrices, their
    closure, W(R), the closure's part in W(R) and W(R)'s symplectic part."""
    z = {k: affine.matrix_in_chain_basis(rep.lifts[k], system.frame)
         for k in rep.generators}
    closure = rootsys.finite_closure(list(z.values()), 500)
    weyl = system.weyl_group()
    in_weyl = [m for m in closure.elements if m in weyl]
    sym = rootsys.symplectic_subgroup(weyl, chain_space(rep.origami).gram(system.frame))
    return z, closure, weyl, in_weyl, sym


def verify_theorem_a() -> dict:
    suite = Suite("theorem-a")
    ew = catalog("eierlegende-wollmilchsau")
    rep = structure.decompose_ew(ew)
    space = chain_space(ew.origami)
    suite.check("decomposition", rep.all_ok, rep.checks)
    system = _d4_system(rep, ew.sigma_hat("1"), [ew.epsilon(g) for g in "1ijk"])
    z, closure, weyl, in_weyl, sym = _d4_image(rep, system)

    def z_of(lf: affine.AffineLift):
        return affine.matrix_in_chain_basis(lf, system.frame)

    z_s, z_t, z_i, z_j = (z[k] for k in ("S", "T", "aut_i", "aut_j"))
    finite = isinstance(closure, rootsys.FiniteMatrixGroup)
    suite.check("(a) image of Z has order 96", finite and closure.order == 96,
                closure.order if finite else "unbounded")
    suite.check("(b) image ∩ W(R) has order 16 and is the symplectic subgroup",
                len(in_weyl) == 16 and set(in_weyl) == set(sym.elements)
                and sym.order == 16,
                {"intersection": len(in_weyl), "symplectic": sym.order})
    s_lift, t_lift = rep.lifts["S"], rep.lifts["T"]
    element = s_lift.compose(t_lift.inverse()).compose(s_lift)
    eipi = element.compose(element)
    z_s2, z_t2 = z_of(s_lift.compose(s_lift)), z_of(t_lift.compose(t_lift))
    z_e = z_of(eipi)
    s_mat = ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, 1))
    z_k = z_of(rep.lifts["aut_k"])
    images_ok = (z_s2 == linalg.mat_mul(z_i, s_mat)
                 and z_t2 == linalg.mat_mul(z_j, s_mat)
                 and z_e == linalg.mat_mul(z_k, s_mat))
    tri_s = system.triality_image(z_s)
    tri_t = system.triality_image(z_t)
    tri_st = system.triality_image(z_of(s_lift.compose(t_lift)))
    onto = len({tuple(sorted(t.items()))
                for t in (tri_s, tri_t, tri_st,
                          system.triality_image(linalg.identity(4)))}) == 4
    suite.check("(c) Z(S),Z(T) outside W(R); squares land in W(R) as is,js,ks;"
                " triality images (1,4),(1,3); morphism onto S3",
                z_s not in weyl and z_t not in weyl
                and z_s2 in weyl and z_t2 in weyl and z_e in weyl
                and images_ok
                and tri_s == {1: 4, 3: 3, 4: 1} and tri_t == {1: 3, 3: 1, 4: 4}
                and onto,
                {"tri_S": tri_s, "tri_T": tri_t})
    auts = [rep.lifts[f"aut_{g}"] for g in QUATERNION_ORDER]
    sub0, subrel = rep.subspaces["H1_0"], rep.subspaces["H_rel"]
    congruence = structure.kernel_is_congruence([sub0, subrel], 4,
                                      [s_lift, t_lift], auts, cap=2000)
    five = [mat_pow(S_MAT, 4), mat_pow(T_MAT, 4),
            mat_pow(mat_mul(T_MAT, S_MAT), 3),
            mat_neg(mat_pow(mat_mul(mat_pow(S_MAT, 2), T_MAT), 2)),
            mat_mul(mat_mul(mat_pow(S_MAT, 2), mat_pow(T_MAT, 4)),
                    mat_pow(S_MAT, 2))]
    ident = linalg.identity(sub0.dim + subrel.dim)
    named_ok = all(
        any(structure.combined_action(a.compose(affine.lift(ew.origami, m)),
                                      [sub0, subrel]) == ident
            for a in auts)
        for m in five)
    suite.check("(d) Gamma(4) generators lift into the kernel; order accounting",
                congruence.holds and named_ok,
                {"image_order": congruence.image_order,
                 "expected": congruence.expected_order,
                 "named_generators_in_kernel": named_ok})
    hrel_group = rootsys.finite_closure(rep.blocks["H_rel"], 100)
    labels = ["1", "i", "j", "k"]
    tetra_ok = True
    for lf in rep.generator_lifts:
        for ci, v in enumerate(labels):
            image = lf.apply(rep.chains[f"w_hat_{v}"])
            target = rep.chains[f"w_hat_{labels[lf.vertex_perm(ci)]}"]
            if not space.equivalent(image, target):
                tetra_ok = False
    suite.check("(e) H_rel action has order 24 permuting the tetrahedron as Sigma",
                isinstance(hrel_group, rootsys.FiniteMatrixGroup)
                and hrel_group.order == 24 and tetra_ok,
                {"order": hrel_group.order})
    return suite.report()


def verify_theorem_b(q: int = 3) -> dict:
    if q == 3:
        return _verify_theorem_b_q3()
    return _verify_family_q(q)


def _verify_theorem_b_q3() -> dict:
    suite = Suite("theorem-b")
    orn = catalog("ornithorynque", q=3)
    rep = structure.decompose_orn(orn)
    space = chain_space(orn.origami)
    suite.check("decomposition", rep.all_ok, rep.checks)
    s, zeta = orn.sigma_breve, orn.zeta_breve
    system = _d4_system(rep, s(0), (
        s(2).scale(-1) + zeta(0) - zeta(1), s(2).scale(-1) - zeta(2),
        s(2).scale(-1) + zeta(2), s(0).scale(-1) + s(1) - zeta(2)))
    z, closure, weyl, in_weyl, sym = _d4_image(rep, system)
    z_s, z_t, z_1 = (z[k] for k in ("S", "T", "aut_1"))
    finite = isinstance(closure, rootsys.FiniteMatrixGroup)
    suite.check("(a) image on H_breve has order 72",
                finite and closure.order == 72,
                closure.order if finite else "unbounded")
    identity4 = linalg.identity(4)
    involutions = [m for m in in_weyl
                   if m != identity4 and linalg.mat_mul(m, m) == identity4]
    suite.check("(b) image ∩ W(R) has order 24 with a unique involution"
                " (SL(2,Z/3)) and equals the symplectic subgroup",
                len(in_weyl) == 24 and set(in_weyl) == set(sym.elements)
                and len(involutions) == 1,
                {"intersection": len(in_weyl), "involutions": len(involutions)})
    tri = {tuple(sorted(system.triality_image(m).items()))
           for m in (z_s, z_t, z_1, linalg.mat_mul(z_1, z_1))}
    identity_img = tuple(sorted({1: 1, 3: 3, 4: 4}.items()))
    three_cycles = tri - {identity_img}
    suite.check("(c) triality image is the 3-element cyclic subgroup",
                len(tri) == 3 and identity_img in tri and len(three_cycles) == 2
                and all(all(k != v for k, v in dict(t).items())
                        for t in three_cycles),
                sorted(tri))
    congruence = structure.kernel_is_congruence(
        [rep.subspaces["H_breve"]], 3, [rep.lifts["S"], rep.lifts["T"]],
        [rep.lifts[f"aut_{g}"] for g in range(3)], cap=500)
    suite.check("(d) Gamma(3) generators act trivially on H_breve;"
                " order accounting",
                congruence.holds,
                {"image_order": congruence.image_order,
                 "expected": congruence.expected_order,
                 "failed": congruence.failed_words})
    tau_vals = {k: structure.tau_character(orn, rep.lifts[k])
                for k in ("T", "S", "aut_1", "aut_2")}
    suite.check("(e) H_tau action factors through Z/6 with the stated values",
                tau_vals == {"T": 1, "S": 5, "aut_1": 2, "aut_2": 4},
                tau_vals)
    hrel_group = rootsys.finite_closure(rep.blocks["H_rel"], 50)
    # the action is the permutation action on Sigma: boundary equivariance
    perm_ok = True
    for lf in rep.generator_lifts:
        for name in ("sigma_flat", "zeta_flat"):
            chain = rep.chains[name]
            image_boundary = space.boundary(lf.apply(chain))
            expected = [0] * len(space.vclasses)
            for k, val in enumerate(space.boundary(chain)):
                expected[lf.vertex_perm(k)] += val
            if list(image_boundary) != expected:
                perm_ok = False
    suite.check("(f) H_rel action is the S3 permutation action on Sigma",
                isinstance(hrel_group, rootsys.FiniteMatrixGroup)
                and hrel_group.order == 6 and perm_ok,
                {"order": hrel_group.order})
    return suite.report()


def _verify_family_q(q: int) -> dict:
    suite = Suite(f"family-q{q}")
    orn = catalog("ornithorynque", q=q)
    rep = structure.decompose_orn(orn)
    suite.check("decomposition", rep.all_ok, rep.checks)
    group = veech_group(orn.origami)
    suite.check("Veech index 3 with membership mod 2",
                group.index == 3 and group.contains(mat_pow(S_MAT, 2))
                and group.contains(J_MAT) and not group.contains(T_MAT))
    tau_vals = {k: structure.tau_character(orn, rep.lifts[k])
                for k in ("T2", "S2", "J", "aut_1")}
    expected = {"T2": 2, "S2": 2 * q - 2, "J": q, "aut_1": 2}
    suite.check("H_tau values through Z/2q", tau_vals == expected,
                {"got": tau_vals, "expected": expected})
    breve = dict(zip(rep.generators, rep.blocks["H_breve"]))
    w = linalg.mat_mul(breve["S2"], breve["T2"])
    trace = sum(w[i][i] for i in range(len(w)))
    suite.check("H_breve action unbounded with witness S2 T2 of trace 2(q-3)",
                rootsys.grows(w) and trace == 2 * (q - 3),
                {"trace": str(trace)})
    return suite.report()


def verify_appendix_a() -> dict:
    suite = Suite("appendix-a")
    orn = catalog("ornithorynque", q=3)
    origami = orn.origami
    space = chain_space(origami)
    alpha = {1: orn.sigma(1) + orn.sigma_p(1), 2: orn.sigma(2) + orn.sigma_p(2),
             3: orn.sigma(0) + orn.sigma_p(0), 0: orn.sigma(2) + orn.sigma_p(0)}
    beta = {1: orn.zeta(0) + orn.zeta_p(0), 2: orn.zeta(1) + orn.zeta_p(1),
            3: orn.zeta(2) + orn.zeta_p(2), 0: orn.zeta(1) + orn.zeta_p(0)}
    order = [alpha[1], alpha[2], alpha[3], alpha[0],
             beta[1], beta[2], beta[3], beta[0]]
    expected = [
        [0, 0, 0, 0, 1, 0, 0, 1],
        [0, 0, 0, -1, 0, 1, 0, 0],
        [0, 0, 0, 1, 0, 0, 1, 0],
        [0, 1, -1, 0, 0, 0, 1, 0],
        [-1, 0, 0, 0, 0, 0, 0, -1],
        [0, -1, 0, 0, 0, 0, 0, 1],
        [0, 0, -1, -1, 0, 0, 0, 0],
        [-1, 0, 0, 0, 1, -1, 0, 0],
    ]
    table_ok = all(
        space.intersection(order[i], order[j]) == expected[i][j]
        for i in range(8) for j in range(8))
    suite.check("8x8 intersection table", table_ok)
    alpha4 = alpha[0] - alpha[3] + beta[2] - beta[3]
    beta4 = beta[0] - alpha[1] + alpha[2] - beta[1]
    symp = [alpha[1], beta[1], alpha[2], beta[2], alpha[3], beta[3],
            alpha4, beta4]
    gram = space.gram([space.canonical_vec(c.flat()) for c in symp])
    std = all(
        gram[i][j] == (1 if (i % 2 == 0 and j == i + 1) else
                       -1 if (i % 2 == 1 and j == i - 1) else 0)
        for i in range(8) for j in range(8))
    suite.check("alpha_4, beta_4 complete a standard symplectic basis", std)
    qvals = [invariants.quadratic_form_value(origami, c) for c in symp]
    suite.check("all eight basis loops have even index (q-value 1)",
                qvals == [1] * 8, qvals)
    result = invariants.spin_parity(origami)
    suite.check("spin parity of the genus-4 surface is even",
                result.parity == "even", result.parity)
    ew = catalog("eierlegende-wollmilchsau")
    try:
        invariants.spin_parity(ew.origami)
        odd_error = False
    except OddOrderZeros:
        odd_error = True
    suite.check("quaternion origami rejects spin parity (odd zero orders)",
                odd_error)
    return suite.report()


def verify_appendix_b() -> dict:
    suite = Suite("appendix-b")
    ab = catalog("appendix-b")
    origami = ab.origami
    space = chain_space(origami)
    vertical = invariants.cylinders(origami, (0, 1))
    horizontal = invariants.cylinders(origami, (1, 0))
    diagonal = invariants.cylinders(origami, (1, 1))
    suite.check("vertical cylinders (3,1),(5,1),(8,1)",
                sorted((c.width, c.height) for c in vertical.cylinders)
                == [(3, 1), (5, 1), (8, 1)])
    suite.check("horizontal cylinders (4,1),(12,1)",
                sorted((c.width, c.height) for c in horizontal.cylinders)
                == [(4, 1), (12, 1)])
    suite.check("slope-1 cylinders (4,1),(6,2)",
                sorted((c.width, c.height) for c in diagonal.cylinders)
                == [(4, 1), (6, 2)])
    tv = invariants.multitwist(origami, (0, 1))
    th = invariants.multitwist(origami, (1, 0))
    td = invariants.multitwist(origami, (1, 1))
    suite.check("twist linear parts", tv.linear == ((1, 0), (120, 1))
                and th.linear == ((1, 12), (0, 1))
                and td.linear == ((-11, 12), (-12, 13)),
                {"vert": tv.linear, "hor": th.linear, "diag": td.linear})
    zs, z0, z1 = ab.zeta_star(), ab.zeta0(), ab.zeta1()
    zero = EdgeChain.zero(origami.n)

    def delta(tw, c):
        return tw.lift.apply(c) - c

    evals_ok = (
        space.equivalent(delta(tv, zs), z0.scale(5))
        and space.equivalent(delta(tv, z0), zero)
        and space.equivalent(delta(tv, z1), z0.scale(24))
        and space.equivalent(delta(th, zs), z1.scale(-1))
        and space.equivalent(delta(th, z0), z1.scale(6))
        and space.equivalent(delta(th, z1), zero)
        and space.equivalent(delta(td, zs), zero)
        and space.equivalent(delta(td, z0),
                             (z1 - z0.scale(2)).scale(Fraction(2, 3)))
        and space.equivalent(delta(td, z1),
                             (z1 - z0.scale(2)).scale(Fraction(4, 3))))
    suite.check("all nine (A - Id) evaluations", evals_ok)
    marks = space.singular_vertices()
    cert = invariants.invariant_supplement(
        origami, marks, [tv.lift, th.lift, td.lift],
        reps=[zs], correction_basis=[z0, z1])
    suite.check("no invariant supplement: s_0 = 1/6, s_1 = -5/24,"
                " contradicted by the diagonal twist",
                not cert.feasible
                and cert.forced == {"s_0": Fraction(1, 6),
                                    "s_1": Fraction(-5, 24)}
                and cert.violated_probe == 2
                and any(x != 0 for x in cert.residual.flat()),
                {"forced": {k: str(v) for k, v in (cert.forced or {}).items()},
                 "violated_probe": cert.violated_probe})
    return suite.report()


VERIFY_SUITES = {
    "theorem-a": verify_theorem_a,
    "theorem-b": verify_theorem_b,
    "appendix-a": verify_appendix_a,
    "appendix-b": verify_appendix_b,
}
