"""Arithmetic in Q[x]/(x^q - 1) and the quotient by the all-ones factor.

Group-algebra vectors for Z/q live in Q[x]/(x^q - 1); isotypic blocks for the
nontrivial characters are read off modulo Psi_q(x) = 1 + x + ... + x^{q-1},
which avoids factoring x^q - 1 when q is composite.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Poly = tuple[Fraction, ...]


def x_power(k: int, q: int) -> Poly:
    return tuple(Fraction(1 if i == k % q else 0) for i in range(q))


def p_add(a: Poly, b: Poly) -> Poly:
    return tuple(x + y for x, y in zip(a, b))


def p_scale(c, a: Poly) -> Poly:
    c = Fraction(c)
    return tuple(c * x for x in a)


def p_zero(q: int) -> Poly:
    return (Fraction(0),) * q


def p_one(q: int) -> Poly:
    return tuple(Fraction(1 if i == 0 else 0) for i in range(q))


def mod_psi(a: Poly) -> Poly:
    """Canonical representative modulo 1 + x + ... + x^{q-1}: degree < q-1."""
    q = len(a)
    out = list(a)
    if out[q - 1]:
        c = out[q - 1]
        for i in range(q):
            out[i] -= c
    return tuple(out)


def psi_equal(a: Poly, b: Poly) -> bool:
    return mod_psi(a) == mod_psi(b)


def cyclotomic_polynomial(d: int) -> list[Fraction]:
    """Coefficients of Phi_d, low degree first, by recursive division."""
    num = [Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)]  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            num = _poly_div(num, cyclotomic_polynomial(e))
    return num


def _poly_div(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    num = list(num)
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    while len(num) >= len(den) and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        shift = len(num) - len(den)
        c = num[-1] / den[-1]
        out[shift] = c
        for i, dc in enumerate(den):
            num[shift + i] -= c * dc
    return out


def reduce_mod(a: Sequence[Fraction], modulus: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Remainder of a modulo a monic-led polynomial, low degree first."""
    a = list(a)
    deg_m = len(modulus) - 1
    lead = modulus[-1]
    for k in range(len(a) - 1, deg_m - 1, -1):
        if a[k]:
            c = a[k] / lead
            for i in range(len(modulus)):
                a[k - deg_m + i] -= c * modulus[i]
    return tuple(a[:deg_m])
