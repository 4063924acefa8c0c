"""The H(2) census: an oracle for the Veech orbit search from published
counts, independent of the in-repo references.

Hubert–Lelièvre ("Prime arithmetic Teichmüller discs in H(2)", Israel J.
Math. 151, 2006) and McMullen ("Teichmüller curves in genus two:
discriminant and spin", Math. Ann. 333, 2005): there are
(3/8)(n-2) n^2 prod_{p | n} (1 - 1/p^2) primitive n-square origamis in H(2);
for odd prime n >= 5 they form two SL(2,Z)-orbits, told apart by the number
of integer Weierstrass points (1 on the larger orbit, 3 on the smaller).
"""

from fractions import Fraction
from itertools import permutations

import pytest

from origamis.affine import lift_all
from origamis.origami import canonical_pair, make_origami, veech_group
from origamis.permutations import Perm, are_transitive
from origamis.sl2z import NEG_ID

# orbit sizes of the n-square origamis in H(2); at n = 6 the orbits of 3
# and 6 are the non-primitive ones
ORBIT_SIZES = {3: [3], 4: [9], 5: [9, 18], 6: [3, 6, 36], 7: [36, 54]}


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield []
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield [part] + rest


def _h2_census(n):
    """{canonical_pair: origami} of the connected n-square origamis whose
    commutator is one 3-cycle: r runs over one permutation per cycle type,
    u over all of S_n."""
    census = {}
    for parts in _partitions(n):
        r, start = [0] * n, 0
        for part in parts:
            for x in range(start, start + part):
                r[x] = start + (x - start + 1) % part
            start += part
        for u in permutations(range(n)):
            # u r u^-1 r^-1 fixes r(u(x)) exactly when r(u(x)) = u(r(x));
            # three moved squares form one 3-cycle: a zero of order 2
            if sum(r[u[x]] != u[r[x]] for x in range(n)) == 3 and \
                    are_transitive((Perm(r), Perm(u))):
                origami = make_origami(n, r, u)
                census.setdefault(canonical_pair(origami), origami)
    return census


def _prime_factor_product(n):
    """prod_{p | n} (1 - 1/p^2)."""
    product = Fraction(1)
    for p in range(2, n + 1):
        if n % p == 0 and all(p % d for d in range(2, p)):
            product *= 1 - Fraction(1, p * p)
    return product


def _hubert_lelievre_count(n):
    return Fraction(3, 8) * (n - 2) * n * n * _prime_factor_product(n)


def test_orbit_sizes_match_the_published_formulas():
    # odd prime n >= 5: orbits of (3/16)(n-3) n^2 prod and (3/16)(n-1) n^2 prod
    for n in (5, 7):
        assert ORBIT_SIZES[n] == [Fraction(3, 16) * (n - k) * n * n
                                  * _prime_factor_product(n) for k in (3, 1)]
    for n, sizes in ORBIT_SIZES.items():
        if n in (3, 5, 7):
            assert sum(sizes) == _hubert_lelievre_count(n)


@pytest.mark.parametrize("n", sorted(ORBIT_SIZES))
def test_h2_census_orbits(n):
    census = _h2_census(n)
    if n in (3, 5, 7):  # every n-square origami in H(2) is primitive here
        assert len(census) == _hubert_lelievre_count(n)
    unseen, sizes = set(census), []
    while unseen:
        group = veech_group(census[min(unseen)])
        orbit = [canonical_pair(o) for o in group.orbit]
        # the orbit's nodes are distinct census members not met before
        assert len(set(orbit)) == len(orbit) and unseen >= set(orbit)
        unseen -= set(orbit)
        sizes.append(len(orbit))
        weierstrass = set()
        for key in orbit:
            member = veech_group(census[key])
            assert member.index == len(orbit)
            assert member.contains(NEG_ID)
            # no translation automorphism: one lift of -I, the hyperelliptic
            # involution; its fixed vertex classes are the integer
            # Weierstrass points
            (involution,) = lift_all(census[key], NEG_ID)
            weierstrass.add(sum(v == w for v, w in
                                enumerate(involution.vertex_perm.images)))
        if n in (5, 7):
            assert weierstrass == ({1} if len(orbit) > min(ORBIT_SIZES[n]) else {3})
    assert sorted(sizes) == ORBIT_SIZES[n]
