"""Invariant decompositions and finite-group analysis of the affine action.

Everything here is specific to the two catalog families: the quaternion
origami (genus 3) and the odd-q family (genus (3q-1)/2), plus generic
machinery for congruence-kernel accounting and random-word growth probes.

The odd-q and kernel invariants are read off the images of named classes:
tau characters, H-breve blocks, and Schreier words evaluated on the S and T
block actions against the actions of all automorphisms.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from . import linalg
from .affine import AffineLift, automorphism_lift, lift, matrix_on
from .catalog import (QUATERNION_ORDER, Ornithorynque, Wollmilchsau,
                      quaternion_mul)
from .errors import ActionNotFinite, NotInCyclicImage, NotInvariant, WrongSurface
from .homology import ChainSpace, EdgeChain, Subspace, chain_space
from .linalg import Mat
from .origami import Origami, automorphisms
from .rootsys import UnboundedWitness, finite_closure
from .sl2z import CongruenceSubgroup, ID2, J_MAT, S_MAT, T_MAT, mat_pow


class DecompositionReport:
    def __init__(self, origami: Origami, subspaces: dict[str, Subspace],
                 chains: dict[str, EdgeChain], lifts: dict[str, AffineLift],
                 checks: dict[str, bool]):
        self.origami = origami
        self.subspaces = subspaces
        self.chains = chains
        self.lifts = lifts
        self.checks = checks

    @property
    def all_ok(self) -> bool:
        return all(self.checks.values())


def _invariant_under(sub: Subspace, lifts: Iterable[AffineLift]) -> bool:
    """Whether every lift maps sub into itself. Callers pass generators: a
    lift is invertible, so one that maps sub into itself maps it onto
    itself, and so does its inverse; invariance under generators is then
    invariance under every product of them, which covers the report's other
    lifts (its Aut lifts are products of aut_i and aut_j on the
    Wollmilchsau, and powers of aut_1 on the odd-q family)."""
    try:
        for lf in lifts:
            matrix_on(lf, sub)
    except NotInvariant:
        return False
    return True


_PRIME = 2 ** 61 - 1  # a Mersenne prime: the direct-sum certificate's modulus


def _direct_sum_ok(space: ChainSpace, parts: Sequence[Subspace],
                   total_dim: int) -> bool:
    """Whether the parts' bases are independent and span total_dim. Their
    rank mod _PRIME is at most their rank over Q, at most the sum of their
    dims: equal to that sum and to total_dim, it proves the check. Any other
    outcome is decided over Q by rref, so a false is exact."""
    dims = sum(p.dim for p in parts)
    stacked = [v for p in parts for v in p.basis]
    return dims == total_dim and (linalg.rank_mod(stacked, _PRIME) == dims or
                                  space.subspace_from_vecs(stacked).dim == dims)


def decompose_ew(ew: Wollmilchsau) -> DecompositionReport:
    if not isinstance(ew, Wollmilchsau):
        raise WrongSurface("decompose_ew needs the quaternion origami")
    origami = ew.origami
    space = chain_space(origami)
    st = lift(origami, S_MAT)
    tt = lift(origami, T_MAT)
    lifts = {"S": st, "T": tt}
    for g in QUATERNION_ORDER:
        lifts[f"aut_{g}"] = automorphism_lift(origami, ew.left_mult(g))
    chains: dict[str, EdgeChain] = {}
    chains["sigma"] = space.standard_splitting().sigma
    chains["zeta"] = space.standard_splitting().zeta
    for axis in ("i", "j", "k"):
        chains[f"w_{axis}"] = ew.w(axis)
    for v in ("1", "i", "j", "k"):
        chains[f"w_hat_{v}"] = ew.w_hat(v)
    for g in QUATERNION_ORDER:
        chains[f"sigma_hat_{g}"] = ew.sigma_hat(g)
        chains[f"zeta_hat_{g}"] = ew.zeta_hat(g)
        chains[f"epsilon_{g}"] = ew.epsilon(g)
    subspaces = {
        "H1_st": space.subspace_from([chains["sigma"], chains["zeta"]]),
        "H_rel": space.subspace_from([chains["w_i"], chains["w_j"], chains["w_k"]]),
        "H1_0": space.subspace_from([chains[f"epsilon_{g}"]
                                     for g in ("1", "i", "j", "k")]),
    }
    checks = {}
    checks["dim_H1_st"] = subspaces["H1_st"].dim == 2
    checks["dim_H_rel"] = subspaces["H_rel"].dim == 3
    checks["dim_H1_0"] = subspaces["H1_0"].dim == 4
    checks["direct_sum"] = _direct_sum_ok(
        space, [subspaces[k] for k in ("H1_st", "H1_0", "H_rel")],
        space.full_subspace().dim)
    generators = [lifts[k] for k in ("S", "T", "aut_i", "aut_j")]
    for name, sub in subspaces.items():
        checks[f"invariant_{name}"] = _invariant_under(sub, generators)
    checks["epsilon_negation"] = all(
        space.equivalent(ew.epsilon(quaternion_mul("-1", g)),
                         ew.epsilon(g).scale(-1))
        for g in ("1", "i", "j", "k"))
    checks["sigma_hat_half"] = all(
        space.equivalent(ew.sigma_hat(g),
                         (ew.epsilon(g) + ew.epsilon(quaternion_mul(g, "j")))
                         .scale(Fraction(1, 2)))
        for g in QUATERNION_ORDER)
    checks["zeta_hat_half"] = all(
        space.equivalent(ew.zeta_hat(g),
                         (ew.epsilon(g) + ew.epsilon(quaternion_mul(g, "i")))
                         .scale(Fraction(1, 2)))
        for g in QUATERNION_ORDER)
    return DecompositionReport(origami, subspaces, chains, lifts, checks)


def decompose_orn(orn: Ornithorynque) -> DecompositionReport:
    if not isinstance(orn, Ornithorynque):
        raise WrongSurface("decompose_orn needs the odd-q family")
    origami = orn.origami
    q = orn.q
    space = chain_space(origami)
    lifts: dict[str, AffineLift] = {}
    if q == 3:
        lifts["S"] = lift(origami, S_MAT)
        lifts["T"] = lift(origami, T_MAT)
    else:
        lifts["S2"] = lift(origami, mat_pow(S_MAT, 2))
        lifts["T2"] = lift(origami, mat_pow(T_MAT, 2))
        lifts["J"] = lift(origami, J_MAT)
    for g in range(q):
        lifts[f"aut_{g}"] = automorphism_lift(origami, orn.shift(g))
    chains: dict[str, EdgeChain] = {
        "sigma": orn.sigma_total(), "zeta": orn.zeta_total(),
        "sigma_flat": orn.sigma_flat(), "zeta_flat": orn.zeta_flat(),
    }
    subspaces = {
        "H1_st": space.subspace_from([chains["sigma"], chains["zeta"]]),
        "H_rel": space.subspace_from([chains["sigma_flat"], chains["zeta_flat"]]),
        "H_tau": space.subspace_from([orn.tau(i) for i in range(q)]),
        "H_breve": space.subspace_from([orn.sigma_breve(i) for i in range(q)]
                                       + [orn.zeta_breve(i) for i in range(q)]),
    }
    checks = {}
    checks["dim_H_tau"] = subspaces["H_tau"].dim == q - 1
    checks["dim_H_breve"] = subspaces["H_breve"].dim == 2 * q - 2
    checks["dim_H_rel"] = subspaces["H_rel"].dim == 2
    zero = EdgeChain.zero(origami.n)
    checks["sum_tau"] = space.equivalent(
        sum((orn.tau(i) for i in range(q)), zero), zero)
    checks["sum_breve"] = space.equivalent(
        sum((orn.sigma_breve(i) for i in range(q)), zero), zero) and \
        space.equivalent(sum((orn.zeta_breve(i) for i in range(q)), zero), zero)
    checks["square_relation"] = all(
        space.equivalent(orn.a(i) - orn.a_p(i - 1) + orn.b(i - 1) - orn.b_p(i),
                         zero)
        for i in range(q))
    marked = space.marked_subspace(space.singular_vertices())
    parts = [subspaces[k] for k in ("H1_st", "H_rel", "H_tau", "H_breve")]
    checks["direct_sum"] = _direct_sum_ok(space, parts, marked.dim)
    generators = [lf for k, lf in lifts.items() if not k.startswith("aut_")]
    generators.append(lifts["aut_1"])
    for name, sub in subspaces.items():
        checks[f"invariant_{name}"] = _invariant_under(sub, generators)
    return DecompositionReport(origami, subspaces, chains, lifts, checks)


# -- tau character and breve blocks -----------------------------------------


def tau_character(orn: Ornithorynque, lift_: AffineLift) -> int:
    """The k in Z/2q with lift(tau_i) = (-1)^k tau_{i + k(q+1)/2} for every i:
    the power of tau_i -> -tau_{i+(q+1)/2} (order 2q on H_tau) that the lift
    is, read off the canonical vectors of the tau_i and of their images."""
    if lift_.origami != orn.origami:
        raise NotInCyclicImage("lift of another surface")
    q = orn.q
    space = chain_space(orn.origami)
    taus = [space.canonical_vec(orn.tau(i).flat()) for i in range(q)]
    images = [lift_.image(orn.tau(i).flat()) for i in range(q)]
    shift = (q + 1) // 2
    for k in range(2 * q):
        sign = (-1) ** k
        if all(images[i] == linalg.vec_scale(sign, taus[(i + k * shift) % q])
               for i in range(q)):
            return k
    raise NotInCyclicImage("action is not a power of the cyclic generator")


# -- congruence kernels -------------------------------------------------------


class CongruenceReport(NamedTuple):
    level: int
    holds: bool
    image_order: int
    expected_order: int
    generator_witnesses: list[tuple[str, int]]
    failed_words: list[str]


def combined_action(lift_: AffineLift, subspaces: Sequence[Subspace]) -> Mat:
    """Block-diagonal matrix of the lift on the given invariant subspaces."""
    blocks = [matrix_on(lift_, v) for v in subspaces]
    size = sum(len(b) for b in blocks)
    rows: list[tuple] = []
    for b in blocks:
        left = (0,) * len(rows)
        right = (0,) * (size - len(rows) - len(b))
        rows += [left + row + right for row in b]
    return tuple(rows)


def kernel_is_congruence(subspaces: Sequence[Subspace], level: int,
                         sl_lifts: Sequence[AffineLift],
                         aut_lifts: Sequence[AffineLift],
                         cap: int = 2000) -> CongruenceReport:
    """Certify that the kernel of the combined action is Gamma(level).

    (i) every Reidemeister-Schreier generator of Gamma(level) has a lift in
    the kernel; (ii) the image order equals |SL(2,Z/level)| times the order
    of the automorphism image. sl_lifts are lifts of S and then T, and a
    generator acts as the product of their actions along its word. That
    certifies the same as lifting the generator: a product of lifts equals
    the lift of the product up to an automorphism, and aut_lifts must be
    the lifts of every automorphism, so their actions are the Aut image.
    """
    if [lf.linear for lf in sl_lifts] != [S_MAT, T_MAT]:
        raise ValueError("sl_lifts must be lifts of S and then T")
    origami = sl_lifts[0].origami
    covered = sorted(lf.relabeling.images for lf in aut_lifts if lf.linear == ID2)
    if covered != sorted(a.images for a in automorphisms(origami)):
        raise ValueError("aut_lifts must be the lifts of every automorphism")
    s_act, t_act = (combined_action(lf, subspaces) for lf in sl_lifts)
    auts = [combined_action(lf, subspaces) for lf in aut_lifts]
    closure = finite_closure([s_act, t_act] + auts, cap)
    if isinstance(closure, UnboundedWitness):
        raise ActionNotFinite(f"combined action grows along word {closure.word}")
    subgroup = CongruenceSubgroup(level)
    expected = subgroup.index * len(set(auts))
    letters = {"S": s_act, "S-": linalg.mat_inv(s_act),
               "T": t_act, "T-": linalg.mat_inv(t_act)}
    identity = linalg.identity(len(s_act))
    witnesses = []
    failed = []
    for word in subgroup.generators():
        product = functools.reduce(linalg.mat_mul,
                                   (letters[x] for x in word.exact_letters()))
        found = next((k for k, aut in enumerate(auts)
                      if linalg.mat_mul(aut, product) == identity), None)
        if found is None:
            failed.append(str(word))
        else:
            witnesses.append((str(word), found))
    holds = not failed and closure.order == expected
    return CongruenceReport(level, holds, closure.order, expected,
                            witnesses, failed)


# -- growth probes ------------------------------------------------------------


def _log_abs(x) -> float:
    def log_int(n: int) -> float:
        if n == 0:
            return float("-inf")
        n = abs(n)
        if n.bit_length() <= 900:
            return math.log(n)
        shift = n.bit_length() - 60
        return math.log(n >> shift) + shift * math.log(2)

    return log_int(x.numerator) - log_int(x.denominator)


def operator_norm(m: Mat):
    """Max row sum of absolute values (the L-infinity operator norm)."""
    return max(sum(abs(x) for x in row) for row in m)


class GrowthReport(NamedTuple):
    max_log_norm: float
    growth_rate: float
    max_norm_exceeded: bool
    trials: int
    length: int


def cocycle_growth(mats: Sequence[Mat], length: int, trials: int, seed: int,
                   norm_bound: Fraction | None = None) -> GrowthReport:
    """Random products of the given matrices; reports max norm and log slope."""
    rng = random.Random(seed)
    n = len(mats[0])
    max_log = float("-inf")
    exceeded = False
    rates = []
    for _ in range(trials):
        acc = linalg.identity(n)
        half_log = 0.0
        for step in range(length):
            acc = linalg.mat_mul(acc, mats[rng.randrange(len(mats))])
            if norm_bound is not None and operator_norm(acc) > norm_bound:
                exceeded = True
            if step + 1 == length // 2:
                half_log = _log_abs(operator_norm(acc))
        end_log = _log_abs(operator_norm(acc))
        max_log = max(max_log, end_log)
        denom = length - length // 2
        rates.append((end_log - half_log) / denom if denom else 0.0)
    return GrowthReport(max_log, sum(rates) / len(rates), exceeded,
                        trials, length)
