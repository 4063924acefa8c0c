"""Exact SL(2,Z) machinery: matrices, words over the generators

    S = [[1, 0], [1, 1]],   T = [[1, 1], [0, 1]],

Euclidean decomposition of any determinant-1 matrix into such a word, and
Reidemeister-Schreier generators for principal congruence subgroups.

Matrices are immutable 2x2 integer tuples ((a, b), (c, d)).
"""

from __future__ import annotations

from collections import deque
from itertools import groupby
from operator import itemgetter
from typing import Iterable, NamedTuple

Mat2 = tuple[tuple[int, int], tuple[int, int]]

ID2: Mat2 = ((1, 0), (0, 1))
S_MAT: Mat2 = ((1, 0), (1, 1))
T_MAT: Mat2 = ((1, 1), (0, 1))
J_MAT: Mat2 = ((0, -1), (1, 0))
NEG_ID: Mat2 = ((-1, 0), (0, -1))

LETTER_MATS: dict[str, Mat2] = {
    "S": S_MAT,
    "S-": ((1, 0), (-1, 1)),
    "T": T_MAT,
    "T-": ((1, -1), (0, 1)),
}
INVERSE_LETTER = {"S": "S-", "S-": "S", "T": "T-", "T-": "T"}

Runs = tuple[tuple[str, int], ...]  # ((letter, k), ...) with k >= 1
# pinned runs for -Id: (T^-1 S T^-1)^2 = J^2
NEG_ID_RUNS: Runs = (("T-", 1), ("S", 1), ("T-", 2), ("S", 1), ("T-", 1))


def mat_mul(a: Mat2, b: Mat2) -> Mat2:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def mat_det(m: Mat2) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def mat_inv(m: Mat2) -> Mat2:
    if mat_det(m) != 1:
        raise ValueError("not in SL(2,Z)")
    return ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))


def mat_neg(m: Mat2) -> Mat2:
    return ((-m[0][0], -m[0][1]), (-m[1][0], -m[1][1]))


def mat_mod(m: Mat2, n: int) -> Mat2:
    return ((m[0][0] % n, m[0][1] % n), (m[1][0] % n, m[1][1] % n))


def mat_pow(m: Mat2, k: int) -> Mat2:
    if k < 0:
        return mat_pow(mat_inv(m), -k)
    out = ID2
    while k:
        if k & 1:
            out = mat_mul(out, m)
        m = mat_mul(m, m)
        k >>= 1
    return out


def inverse_runs(runs: Runs) -> Runs:
    """The runs of the inverse word: reversed, each letter inverted."""
    return tuple((INVERSE_LETTER[x], k) for x, k in reversed(runs))


def eval_letters(letters: Iterable[str]) -> Mat2:
    out = ID2
    for letter in letters:
        out = mat_mul(out, LETTER_MATS[letter])
    return out


class Sl2zWord(NamedTuple):
    """Word over {S, S^-1, T, T^-1} as runs ((letter, k), ...), with a sign.

    sign * (product of the letter^k) equals the source matrix; exact_runs()
    folds the sign into the pinned -Id runs; exact_letters() and str() spell
    the runs out one letter at a time.
    """

    runs: Runs
    sign: int = 1

    def matrix(self) -> Mat2:
        m = ID2
        for letter, k in self.runs:
            m = mat_mul(m, mat_pow(LETTER_MATS[letter], k))
        return m if self.sign == 1 else mat_neg(m)

    def exact_runs(self) -> Runs:
        """The runs with the sign folded into the pinned -Id runs, equal
        neighbours merged (the same letters and, by the closed forms, map)."""
        runs = self.runs if self.sign == 1 else self.runs + NEG_ID_RUNS
        return tuple((x, sum(k for _, k in group)) for x, group in groupby(runs, itemgetter(0)))

    def exact_letters(self) -> tuple[str, ...]:
        return tuple(x for x, k in self.exact_runs() for _ in range(k))

    def __str__(self) -> str:
        return " ".join(x for x, k in self.runs for _ in range(k)) or "1"


def _nearest_quotient(num: int, den: int) -> int:
    """Integer q minimizing |num - q*den|, ties resolved toward floor."""
    q, rem = divmod(num, den)
    return q + 1 if abs(rem - den) < abs(rem) else q


def sl2z_word(m: Mat2) -> Sl2zWord:
    """Decompose m (det 1) over S, T by the Euclidean algorithm on column one.

    Deterministic; in particular J comes out as T^-1 S T^-1 and powers of S
    stay powers of S.
    """
    if mat_det(m) != 1:
        raise ValueError("determinant must be 1")
    powers: list[tuple[str, int]] = []  # (S or T, signed exponent)
    cur = m
    while cur[1][0] != 0:
        a, c = cur[0][0], cur[1][0]
        if a == 0:
            # c = +-1 here; a T-step makes the corner nonzero
            cur = mat_mul(T_MAT, cur)
            powers.append(("T", -1))
            continue
        q = _nearest_quotient(c, a)
        if q != 0:
            # S^-q kills most of c
            cur = mat_mul(mat_pow(S_MAT, -q), cur)
            powers.append(("S", q))
        else:
            # |c| small: reduce a against c instead
            p = _nearest_quotient(a, c)
            cur = mat_mul(mat_pow(T_MAT, -p), cur)
            powers.append(("T", p))
    # cur is now sign * T^(sign * b), sign = +-1 on the diagonal
    sign = cur[0][0]
    powers.append(("T", sign * cur[0][1]))
    return Sl2zWord(tuple((x, k) if k > 0 else (INVERSE_LETTER[x], -k)
                          for x, k in powers if k), sign)


class CongruenceSubgroup:
    """Gamma(n) presented by Reidemeister-Schreier on the coset action.

    Cosets of Gamma(n) in SL(2,Z) are the elements of SL(2,Z/n); the
    transversal assigns each coset a word in S, T found by BFS.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("level must be >= 2")
        self.n = n
        self.transversal: dict[Mat2, tuple[str, ...]] = {}
        start = mat_mod(ID2, n)
        self.transversal[start] = ()
        queue = deque([start])
        tree_edges = set()
        while queue:
            c = queue.popleft()
            for letter in ("S", "T"):
                d = mat_mod(mat_mul(c, LETTER_MATS[letter]), n)
                if d not in self.transversal:
                    self.transversal[d] = self.transversal[c] + (letter,)
                    tree_edges.add((c, letter))
                    queue.append(d)
        self.index = len(self.transversal)
        self._tree_edges = tree_edges

    def _schreier_word(self, coset: Mat2, letter: str) -> Sl2zWord:
        target = mat_mod(mat_mul(coset, LETTER_MATS[letter]), self.n)
        w_c = self.transversal[coset]
        w_d = self.transversal[target]
        letters = w_c + (letter,) + tuple(INVERSE_LETTER[x] for x in reversed(w_d))
        return Sl2zWord(tuple((x, 1) for x in letters), 1)

    def generators(self) -> list[Sl2zWord]:
        """Schreier generators (non-tree edges only); they generate Gamma(n)."""
        gens = []
        for coset in self.transversal:
            for letter in ("S", "T"):
                if (coset, letter) in self._tree_edges:
                    continue
                word = self._schreier_word(coset, letter)
                if word.matrix() != ID2:
                    gens.append(word)
        return gens


def congruence_generators(n: int) -> list[Sl2zWord]:
    return CongruenceSubgroup(n).generators()
