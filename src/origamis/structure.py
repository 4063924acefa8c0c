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
from typing import NamedTuple, Sequence

from . import linalg, rootsys
from .affine import AffineLift, _matrix_in, automorphism_lift, lift, matrix_on
from .catalog import (QUATERNION_ORDER, Ornithorynque, Wollmilchsau,
                      quaternion_mul)
from .errors import ActionNotFinite, NotInCyclicImage, NotInvariant, WrongSurface
from .homology import ChainSpace, EdgeChain, Subspace, chain_space
from .linalg import Mat
from .origami import Origami, automorphisms
from .permutations import inverse_images
from .sl2z import CongruenceSubgroup, ID2, J_MAT, S_MAT, T_MAT, mat_pow


class DecompositionReport:
    """A decomposition's subspaces, named chains, lifts and checks, with an
    invariant_<name> check per subspace under `generators`: the names of
    the Veech lifts (S, T, or S2, T2, J), then of generators of Aut (aut_i,
    aut_j on the Wollmilchsau, aut_1 on the odd-q family). Aut is <i, j> = Q8
    or <1> = Z/q, so their closure is the group of every lift's action; a
    witness word indexes them, the Veech lifts first, at the indices they
    had in front of every aut_ lift. `blocks` maps each subspace to the
    generators' matrix_on blocks on it, or to None when one of them does not
    map it into itself, as its invariant_<name> check reports."""

    def __init__(self, origami: Origami, subspaces: dict[str, Subspace],
                 chains: dict[str, EdgeChain], lifts: dict[str, AffineLift],
                 generators: tuple[str, ...], checks: dict[str, bool]):
        self.origami = origami
        self.subspaces = subspaces
        self.chains = chains
        self.lifts = lifts
        self.generators = generators
        self.checks = checks
        self.blocks = {name: _blocks_on(sub, self.generator_lifts)
                       for name, sub in subspaces.items()}
        checks.update((f"invariant_{k}", b is not None) for k, b in self.blocks.items())

    @property
    def generator_lifts(self) -> list[AffineLift]:
        return [self.lifts[k] for k in self.generators]

    @property
    def veech_generators(self) -> tuple[str, ...]:
        return tuple(k for k in self.generators if not k.startswith("aut_"))

    @property
    def all_ok(self) -> bool:
        return all(self.checks.values())


def _blocks_on(sub: Subspace, lifts: Sequence[AffineLift]) -> list[Mat] | None:
    """The lifts' matrix_on blocks on sub, or None when one does not map sub
    into itself. Callers pass generators: a lift is invertible, so one that
    maps sub into itself maps it onto itself, and so does its inverse;
    invariance under generators is then invariance under their products."""
    try:
        coords_of = sub._reader()  # the basis as Rows, once for all the lifts
        return [_matrix_in(lf, sub.basis, coords_of) for lf in lifts]
    except NotInvariant:
        return None


def _direct_sum_ok(space: ChainSpace, parts: Sequence[Subspace],
                   total_dim: int) -> bool:
    """Whether the parts' bases are independent and span total_dim: the
    rref of the stacked bases has the sum of their dims as its rank."""
    dims = sum(p.dim for p in parts)
    return dims == total_dim and space.subspace_from_vecs(
        v for p in parts for v in p.basis).dim == dims


def decompose_ew(ew: Wollmilchsau) -> DecompositionReport:
    if not isinstance(ew, Wollmilchsau):
        raise WrongSurface("decompose_ew needs the quaternion origami")
    origami = ew.origami
    space = chain_space(origami)
    lifts = {"S": lift(origami, S_MAT), "T": lift(origami, T_MAT)}
    for g in QUATERNION_ORDER:
        lifts[f"aut_{g}"] = automorphism_lift(origami, ew.left_mult(g))
    splitting = space.standard_splitting()
    chains = {"sigma": splitting.sigma, "zeta": splitting.zeta}
    chains.update((f"w_hat_{v}", ew.w_hat(v)) for v in ("1", "i", "j", "k"))
    subspaces = {
        "H1_st": space.subspace_from([splitting.sigma, splitting.zeta]),
        "H_rel": space.subspace_from([ew.w(axis) for axis in ("i", "j", "k")]),
        "H1_0": space.subspace_from([ew.epsilon(g) for g in ("1", "i", "j", "k")]),
    }
    checks = {}
    checks["dim_H1_st"] = subspaces["H1_st"].dim == 2
    checks["dim_H_rel"] = subspaces["H_rel"].dim == 3
    checks["dim_H1_0"] = subspaces["H1_0"].dim == 4
    checks["direct_sum"] = _direct_sum_ok(
        space, [subspaces[k] for k in ("H1_st", "H1_0", "H_rel")],
        space.full_subspace().dim)
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
    return DecompositionReport(origami, subspaces, chains, lifts,
                               ("S", "T", "aut_i", "aut_j"), checks)


def decompose_orn(orn: Ornithorynque) -> DecompositionReport:
    if not isinstance(orn, Ornithorynque):
        raise WrongSurface("decompose_orn needs the odd-q family")
    origami = orn.origami
    q = orn.q
    space = chain_space(origami)
    veech = {"S": S_MAT, "T": T_MAT} if q == 3 else \
        {"S2": mat_pow(S_MAT, 2), "T2": mat_pow(T_MAT, 2), "J": J_MAT}
    lifts = {k: lift(origami, m) for k, m in veech.items()}
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
    return DecompositionReport(origami, subspaces, chains, lifts,
                               (*veech, "aut_1"), checks)


# -- tau character and breve blocks -----------------------------------------


def tau_character(orn: Ornithorynque, lift_: AffineLift) -> int:
    """The k in Z/2q with lift(tau_i) = (-1)^k tau_{i + k(q+1)/2} for every i:
    the power of tau_i -> -tau_{i+(q+1)/2} (order 2q on H_tau) that the lift
    is, looked up by the image of tau_0 among the (-1)^k tau_{k(q+1)/2}, 2q
    distinct classes for odd q (the q classes tau_j span dimension q - 1),
    and checked at every i on the canonical vectors."""
    if lift_.origami != orn.origami:
        raise NotInCyclicImage("lift of another surface")
    q, space = orn.q, chain_space(orn.origami)
    chains = [orn.tau(i).flat() for i in range(q)]
    taus = list(map(space.canonical_vec, chains))
    read = lift_._reader()
    images = (space.canonical_over(*read(v)) for v in chains)
    signed, shift = (taus, [linalg.vec_scale(-1, tau) for tau in taus]), (q + 1) // 2
    k = {signed[k % 2][k * shift % q]: k for k in range(2 * q)}.get(next(images))
    if k is None or not all(image == signed[k % 2][(i + k * shift) % q]
                            for i, image in enumerate(images, 1)):
        raise NotInCyclicImage("action is not a power of the cyclic generator")
    return k


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
    Each word is composed from the permutations that the closure keeps.
    """
    if [lf.linear for lf in sl_lifts] != [S_MAT, T_MAT]:
        raise ValueError("sl_lifts must be lifts of S and then T")
    origami = sl_lifts[0].origami
    covered = sorted(lf.relabeling.images for lf in aut_lifts if lf.linear == ID2)
    if covered != sorted(a.images for a in automorphisms(origami)):
        raise ValueError("aut_lifts must be the lifts of every automorphism")
    s_act, t_act = (combined_action(lf, subspaces) for lf in sl_lifts)
    auts = [combined_action(lf, subspaces) for lf in aut_lifts]
    closure = rootsys.finite_closure([s_act, t_act] + auts, cap)
    if isinstance(closure, rootsys.UnboundedWitness):
        raise ActionNotFinite(f"combined action grows along word {closure.word}")
    subgroup = CongruenceSubgroup(level)
    expected = subgroup.index * len(set(auts))
    s, t = closure.actions[s_act], closure.actions[t_act]
    letters = {"S": s, "S-": tuple(inverse_images(s)),
               "T": t, "T-": tuple(inverse_images(t))}
    # aut k undoes a word exactly when it acts as the word's inverse, and
    # the actions are faithful: the first such k is the first matrix witness
    undo = {tuple(inverse_images(closure.actions[aut])): k
            for k, aut in reversed(list(enumerate(auts)))}
    witnesses = []
    failed = []
    for word in subgroup.generators():
        product = functools.reduce(lambda p, g: tuple(map(p.__getitem__, g)),
                                   (letters[x] for x in word.exact_letters()))
        found = undo.get(product)
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
    trials: int
    length: int


def cocycle_growth(mats: Sequence[Mat], length: int, trials: int,
                   seed: int) -> GrowthReport:
    """Random products of the given matrices; reports max norm and log slope."""
    rng = random.Random(seed)
    n = len(mats[0])
    max_log = float("-inf")
    rates = []
    for _ in range(trials):
        acc = linalg.identity(n)
        half_log = 0.0
        for step in range(length):
            acc = linalg.mat_mul(acc, mats[rng.randrange(len(mats))])
            if step + 1 == length // 2:
                half_log = _log_abs(operator_norm(acc))
        end_log = _log_abs(operator_norm(acc))
        max_log = max(max_log, end_log)
        denom = length - length // 2
        rates.append((end_log - half_log) / denom if denom else 0.0)
    return GrowthReport(max_log, sum(rates) / len(rates), trials, length)
