"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All comparisons are exact except the growth-rate estimate of criterion 8,
whose stated relative tolerance is 1e-3 at word length 1e3.
"""

import functools
import math
import random
from fractions import Fraction

import pytest

import _walk_reference as walks
from origamis import linalg
from origamis.affine import (automorphism_lift, lift, lift_all, matrix_on,
                             power_order)
from origamis.catalog import catalog
from origamis.errors import OddOrderZeros
from origamis.homology import EdgeChain, chain_space
from origamis.invariants import (quadratic_form_value, spin_parity,
                                 symplectic_basis)
from origamis.origami import make_origami, veech_group, vertex_of_square
from origamis.permutations import random_transitive_pair
from origamis.rootsys import finite_closure
from origamis.sl2z import (ID2, J_MAT, LETTER_MATS, S_MAT, T_MAT, mat_mod,
                           mat_mul, mat_neg)
from origamis.structure import decompose_ew, decompose_orn, operator_norm
from origamis.verification import (verify_appendix_a, verify_appendix_b,
                                   verify_theorem_a, verify_theorem_b)
from test_invariants import arf_parity, random_symplectic_moves

import test_affine
import test_homology
from test_structure import largest_product_norm, power_growth_rate


def report(number, label, passed):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number} [{label}]: {status}")
    assert passed, f"criterion {number} failed"


def test_criterion_1_theorem_a():
    result = verify_theorem_a()
    for check in result["checks"]:
        print("  ", check["name"], "->", "ok" if check["pass"] else "FAIL")
    report(1, "Theorem A suite", result["pass"])


def test_criterion_2_theorem_b():
    result = verify_theorem_b(3)
    for check in result["checks"]:
        print("  ", check["name"], "->", "ok" if check["pass"] else "FAIL")
    report(2, "Theorem B suite (q=3)", result["pass"])


@pytest.mark.parametrize("q", [7, 9, 11, 13, 15, 21, 25, 27])
def test_odd_q_family_sweep(q):
    """`verify theorem-b --q` passes through q = 27, with q = 9, 15, 21, 25
    and 27 where Psi_q is not the cyclotomic Phi_q: H_tau and H_breve of dimensions
    q - 1 and 2q - 2 (the decomposition's dim checks), Veech index 3."""
    result = verify_theorem_b(q)
    assert result["pass"] is True and result["suite"] == f"family-q{q}"
    checks = {c["name"]: c for c in result["checks"]}
    dims = checks["decomposition"]["detail"]
    assert dims["dim_H_tau"] and dims["dim_H_breve"] and dims["direct_sum"]
    assert checks["Veech index 3 with membership mod 2"]["pass"]
    orn = catalog("ornithorynque", q=q)
    assert veech_group(orn.origami).index == 3
    space = chain_space(orn.origami)
    assert space.subspace_from([orn.tau(i) for i in range(q)]).dim == q - 1
    assert space.subspace_from([orn.sigma_breve(i) for i in range(q)] +
                               [orn.zeta_breve(i) for i in range(q)]).dim == 2 * q - 2


def test_criterion_3_action_tables():
    ew = catalog("eierlegende-wollmilchsau")
    orn3 = catalog("ornithorynque", q=3)
    orn5 = catalog("ornithorynque", q=5)
    test_affine.test_ew_generator_action_tables(ew)
    test_affine.test_orn3_generator_action_tables(orn3)
    test_affine.test_orn5_generator_action_tables(orn5)
    report(3, "generator action tables", True)


def test_criterion_4_intersection_tables():
    ew = catalog("eierlegende-wollmilchsau")
    orn3 = catalog("ornithorynque", q=3)
    test_homology.test_intersection_tables_ew(ew)
    test_homology.test_intersection_tables_orn(orn3)
    space = chain_space(orn3.origami)
    half = Fraction(1, 2)
    eps = {
        (1, 0): (orn3.sigma_breve(2).scale(-1) + orn3.zeta_breve(0)
                 - orn3.zeta_breve(1)).scale(half),
        (1, 1): (orn3.sigma_breve(2).scale(-1) - orn3.zeta_breve(2)).scale(half),
        (1, 2): (orn3.sigma_breve(2).scale(-1) + orn3.zeta_breve(2)).scale(half),
        (0, 1): (orn3.sigma_breve(0).scale(-1) + orn3.sigma_breve(1)
                 - orn3.zeta_breve(2)).scale(half),
    }

    def eps_of(v):
        if v in eps:
            return eps[v]
        return eps[((-v[0]) % 3, (-v[1]) % 3)].scale(-1)

    nonzero = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    eps_ok = True
    for v in nonzero:
        for w in nonzero:
            if ((v[0] + w[0]) % 3, (v[1] + w[1]) % 3) == (0, 0) or v == w:
                continue
            det = (v[0] * w[1] - v[1] * w[0]) % 3
            expected = 2 if det == 1 else -2
            if space.intersection(eps_of(v), eps_of(w)) != expected:
                eps_ok = False
    appendix = verify_appendix_a()
    table_check = next(c for c in appendix["checks"]
                       if c["name"] == "8x8 intersection table")
    rng = random.Random(20100)
    random_ok = True
    for _ in range(100):
        n = rng.randrange(2, 13)
        r, u = random_transitive_pair(n, rng)
        origami = make_origami(n, r, u)
        sp = chain_space(origami)
        basis = sp.integral_absolute_basis()
        gram = sp.gram(basis)
        if abs(linalg.det(gram)) != 1:
            random_ok = False
        for i in range(len(basis)):
            for j in range(len(basis)):
                if gram[i][j] != -gram[j][i]:
                    random_ok = False
    report(4, "intersection tables, antisymmetry, unimodularity",
           eps_ok and table_check["pass"] and random_ok)


def test_criterion_5_spin_parity():
    orn3 = catalog("ornithorynque", q=3)
    orn5 = catalog("ornithorynque", q=5)
    ew = catalog("eierlegende-wollmilchsau")
    ok = spin_parity(orn3.origami).parity == "even"
    try:
        spin_parity(ew.origami)
        ok = False
    except OddOrderZeros:
        pass
    space = chain_space(orn3.origami)
    change = symplectic_basis(space.gram(space.integral_absolute_basis()))
    clockwise = functools.partial(walks.quadratic_form_value, clockwise=True)
    ok = ok and arf_parity(orn3.origami, change, clockwise) == "even"
    rng = random.Random(41)
    for _ in range(5):
        randomized = random_symplectic_moves(change, rng, 8)
        if arf_parity(orn3.origami, randomized) != "even":
            ok = False
    # Arf additivity, 100 random pairs split across M4 and q=5
    for cat, count, seed in ((orn3, 60, 5), (orn5, 40, 6)):
        origami = cat.origami
        sp = chain_space(origami)
        basis = sp.integral_absolute_basis()
        rng = random.Random(seed)

        def build():
            v = [Fraction(0)] * (2 * origami.n)
            for b in basis:
                c = rng.randrange(-2, 3)
                if c:
                    v = [x + c * y for x, y in zip(v, b)]
            return EdgeChain.from_flat(v)

        for _ in range(count):
            a, b = build(), build()
            lhs = quadratic_form_value(origami, a + b)
            rhs = (quadratic_form_value(origami, a)
                   + quadratic_form_value(origami, b)
                   + int(sp.intersection(a, b))) % 2
            if lhs != rhs:
                ok = False
    report(5, "spin parity and Arf additivity", ok)


def test_criterion_6_appendix_b():
    result = verify_appendix_b()
    for check in result["checks"]:
        print("  ", check["name"], "->", "ok" if check["pass"] else "FAIL")
    report(6, "Appendix B suite", result["pass"])


def test_criterion_7_veech_groups():
    ew = catalog("eierlegende-wollmilchsau")
    orn3 = catalog("ornithorynque", q=3)
    ok = veech_group(ew.origami).index == 1
    ok = ok and veech_group(orn3.origami).index == 1
    for q, seed in ((5, 19), (7, 23)):
        orn = catalog("ornithorynque", q=q)
        group = veech_group(orn.origami)
        ok = ok and group.index == 3
        rng = random.Random(seed)
        for _ in range(50):
            m = ID2
            for _ in range(12):
                m = mat_mul(m, LETTER_MATS[rng.choice(["S", "S-", "T", "T-"])])
            expected = mat_mod(m, 2) in (mat_mod(ID2, 2), mat_mod(J_MAT, 2))
            if group.contains(m) != expected:
                ok = False
    report(7, "Veech groups and membership criterion", ok)


def test_criterion_8_growth_probes():
    ok = True
    for name, q, gen_names in (("eierlegende-wollmilchsau", None, ("S", "T")),
                               ("ornithorynque", 3, ("S", "T"))):
        cat = catalog(name, q=q)
        rep = decompose_ew(cat) if q is None else decompose_orn(cat)
        sub = rep.subspaces["H1_0"] if q is None else rep.subspaces["H_breve"]
        gens = [matrix_on(rep.lifts[k], sub) for k in gen_names]
        closure = finite_closure(gens, 200)
        bound = max(operator_norm(m) for m in closure.elements)
        if largest_product_norm(gens, length=10000, trials=2, seed=20100) > bound:
            ok = False
    orn5 = catalog("ornithorynque", q=5)
    rep5 = decompose_orn(orn5)
    sub5 = rep5.subspaces["H_breve"]
    w = linalg.mat_mul(matrix_on(rep5.lifts["S2"], sub5),
                       matrix_on(rep5.lifts["T2"], sub5))
    rate = power_growth_rate(w, 1000)
    t = 2 * (1 + 2 * math.cos(2 * math.pi / 5))
    expected = math.log((t + math.sqrt(t * t - 4)) / 2)
    rel_err = abs(rate - expected) / expected
    print(f"   growth rate {rate:.9f} vs {expected:.9f} (rel err {rel_err:.2e})")
    ok = ok and rel_err < 1e-3
    report(8, "degeneracy probes", ok)


def test_criterion_9_structural_identities():
    ew = catalog("eierlegende-wollmilchsau")
    origami = ew.origami
    st, tt = lift(origami, S_MAT), lift(origami, T_MAT)
    neg1 = automorphism_lift(origami, ew.left_mult("-1"))
    element = st.compose(tt.inverse()).compose(st)
    ok = test_affine._same_action(test_affine._power(element, 4), neg1)
    eipi = test_affine._power(element, 2)
    ok = ok and test_affine._same_action(test_affine._power(eipi, 2), neg1)
    ok = ok and power_order(eipi, 8) == 4
    for other in [st, tt] + [automorphism_lift(origami, ew.left_mult(g))
                             for g in ("i", "j", "k")]:
        ok = ok and test_affine._same_action(eipi.compose(other),
                                                other.compose(eipi))
    for q in (3, 5, 7):
        orn = catalog("ornithorynque", q=q)
        o = orn.origami
        vmap = vertex_of_square(o)
        target = {}
        for i in range(q):
            target[vmap[orn.idx(i, 0, 0)]] = vmap[orn.idx(i + 1, 0, 0)]
        for (mu, nu) in ((0, 1), (1, 0), (1, 1)):
            target[vmap[orn.idx(0, mu, nu)]] = vmap[orn.idx(0, mu, nu)]
        t_elem = None
        for base in lift_all(o, mat_neg(ID2)):
            for g in range(q):
                cand = automorphism_lift(o, orn.shift(g)).compose(base)
                if all(cand.vertex_perm(k) == v for k, v in target.items()):
                    t_elem = cand
        ok = ok and t_elem is not None and power_order(t_elem, 2 * q) == 2 * q
    report(9, "structural identities", ok)
