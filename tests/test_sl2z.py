import itertools
import random

import pytest

from origamis.sl2z import (INVERSE_LETTER, CongruenceSubgroup, ID2, J_MAT,
                           LETTER_MATS, NEG_ID, NEG_ID_RUNS, S_MAT, T_MAT, Sl2zWord,
                           congruence_generators, eval_letters, mat_mod,
                           mat_mul, mat_neg, mat_pow, sl2z_word)


def random_matrix(rng, length=14):
    m = ID2
    for _ in range(length):
        m = mat_mul(m, LETTER_MATS[rng.choice(["S", "S-", "T", "T-"])])
    return m


def rewrite(sub, letters):
    """Reference: a word lying in Gamma(n) as a product of the Schreier
    generators of `sub`, read along the coset path of the word.

    Raises ValueError if the word is not in the subgroup. The product of
    the returned words equals the input word exactly (as matrices).
    """
    coset = mat_mod(ID2, sub.n)
    out = []
    for letter in letters:
        if letter in ("S", "T"):
            gen = sub._schreier_word(coset, letter)
            coset = mat_mod(mat_mul(coset, LETTER_MATS[letter]), sub.n)
        else:
            coset = mat_mod(mat_mul(coset, LETTER_MATS[letter]), sub.n)
            fwd = sub._schreier_word(coset, INVERSE_LETTER[letter])
            gen = Sl2zWord(tuple((INVERSE_LETTER[x], 1)
                                 for x in reversed(fwd.exact_letters())), 1)
        if gen.matrix() != ID2:
            out.append(gen)
    if coset != mat_mod(ID2, sub.n):
        raise ValueError("word is not in the congruence subgroup")
    return out


def test_word_identity():
    word = sl2z_word(ID2)
    assert word.runs == () and word.sign == 1


def test_word_j_is_pinned():
    assert sl2z_word(J_MAT).exact_letters() == ("T-", "S", "T-")


def test_word_s_power():
    word = sl2z_word(mat_pow(S_MAT, 120))
    assert word.runs == (("S", 120),) and word.sign == 1


def test_word_neg_id():
    word = sl2z_word(NEG_ID)
    assert word.sign == -1
    assert eval_letters(word.exact_letters()) == NEG_ID


def test_exact_runs_merge_neighbours_and_keep_the_letters():
    """No two adjacent exact runs share a letter, and the letters are those
    of the runs followed, for sign -1, by the pinned -Id runs."""
    entries = range(-9, 10)
    merged = 0
    for a, b, c, d in itertools.product(entries, repeat=4):
        if a * d - b * c != 1:
            continue
        word = sl2z_word(((a, b), (c, d)))
        runs = word.exact_runs()
        assert all(x != y for (x, _), (y, _) in zip(runs, runs[1:]))
        assert all(k >= 1 for _, k in runs)
        unmerged = word.runs + (NEG_ID_RUNS if word.sign == -1 else ())
        assert word.exact_letters() == tuple(x for x, k in unmerged for _ in range(k))
        merged += len(runs) < len(unmerged)
    assert merged
    # the cylinder normalizers of directions (0,1) and (1,1)
    for normalizer in (((0, 1), (-1, 0)), ((0, 1), (-1, 1))):
        word = sl2z_word(normalizer)
        assert len(word.exact_runs()) == len(word.runs) + len(NEG_ID_RUNS) - 1


@pytest.mark.parametrize("seed", range(8))
def test_word_roundtrip_random(seed):
    rng = random.Random(seed)
    for _ in range(25):
        m = random_matrix(rng)
        assert eval_letters(sl2z_word(m).exact_letters()) == m


def test_congruence_indices():
    assert CongruenceSubgroup(2).index == 6
    assert CongruenceSubgroup(3).index == 24
    assert CongruenceSubgroup(4).index == 48


def test_congruence_generators_reduce_to_identity():
    for level in (2, 3, 4):
        for word in congruence_generators(level):
            assert mat_mod(word.matrix(), level) == mat_mod(ID2, level)


def test_gamma2_contains_standard_generators():
    sub = CongruenceSubgroup(2)
    for m in (mat_pow(S_MAT, 2), mat_pow(T_MAT, 2), NEG_ID):
        word = sl2z_word(m)
        pieces = rewrite(sub, word.exact_letters())
        product = ID2
        for piece in pieces:
            product = mat_mul(product, piece.matrix())
        assert product == m


def test_gamma4_contains_named_matrices():
    sub = CongruenceSubgroup(4)
    named = [
        mat_pow(S_MAT, 4),
        mat_pow(T_MAT, 4),
        mat_pow(mat_mul(T_MAT, S_MAT), 3),
        mat_neg(mat_pow(mat_mul(mat_pow(S_MAT, 2), T_MAT), 2)),
        mat_mul(mat_mul(mat_pow(S_MAT, 2), mat_pow(T_MAT, 4)), mat_pow(S_MAT, 2)),
    ]
    assert named[2] == ((13, 8), (8, 5))
    for m in named:
        pieces = rewrite(sub, sl2z_word(m).exact_letters())
        product = ID2
        for piece in pieces:
            product = mat_mul(product, piece.matrix())
        assert product == m


def test_rewrite_rejects_non_members():
    sub = CongruenceSubgroup(2)
    with pytest.raises(ValueError):
        rewrite(sub, ("S",))
