"""Built-in origamis with pinned square labelings and named homology classes.

Square index conventions (these never change; golden tests depend on them):

* eierlegende-wollmilchsau: squares are the quaternion group elements in the
  order 1, -1, i, -i, j, -j, k, -k (indices 0..7); r is right multiplication
  by i, u is right multiplication by j.
* ornithorynque (odd q >= 3): squares are triples (i, mu, nu) with i in Z/q,
  mu, nu in Z/2, at index 4*i + 2*mu + nu. r and u follow the three-case
  neighbor rules of the construction; the named edges are
  sigma_i = bottom of sq(i,1,1), sigma'_i = bottom of sq(i,0,1),
  zeta_i = left of sq(i,1,1), zeta'_i = left of sq(i,1,0).
* appendix-b: the 16-square decagon surface; named classes zeta_a..zeta_e are
  the five side classes, with zeta0, zeta1 the pinned basis of H_1^{(0)} and
  zeta* = zeta_e - zeta_d.
"""

from __future__ import annotations

from . import homology, polygons
from .errors import EvenQ, UnknownName
from .origami import Origami, make_origami
from .permutations import Perm

QUATERNION_ORDER = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
_AXIS = {"1": 0, "i": 1, "j": 2, "k": 3}
_NAME = {v: k for k, v in _AXIS.items()}


def quaternion_mul(a: str, b: str) -> str:
    """Multiply quaternion units given as '1', '-i', 'j', ... strings."""
    sign = 1
    if a.startswith("-"):
        sign, a = -sign, a[1:]
    if b.startswith("-"):
        sign, b = -sign, b[1:]
    xa, xb = _AXIS[a], _AXIS[b]
    if xa == 0:
        axis = xb
    elif xb == 0:
        axis = xa
    elif xa == xb:
        sign, axis = -sign, 0
    else:
        # i*j = k cyclically; swapped order flips the sign
        axis = ({1, 2, 3} - {xa, xb}).pop()
        if (xa, xb) not in ((1, 2), (2, 3), (3, 1)):
            sign = -sign
    name = _NAME[axis]
    return name if sign == 1 else "-" + name


def quaternion_index(a: str) -> int:
    return QUATERNION_ORDER.index(a)


class Wollmilchsau:
    """The genus-3 quaternion origami with its labeled edge dictionary."""

    name = "eierlegende-wollmilchsau"

    def __init__(self):
        n = 8
        r = Perm([quaternion_index(quaternion_mul(g, "i")) for g in QUATERNION_ORDER])
        u = Perm([quaternion_index(quaternion_mul(g, "j")) for g in QUATERNION_ORDER])
        self.origami = make_origami(n, r, u)

    def sigma(self, g: str, coeff=1) -> homology.EdgeChain:
        return homology.sigma_chain(8, quaternion_index(g), coeff)

    def zeta(self, g: str, coeff=1) -> homology.EdgeChain:
        return homology.zeta_chain(8, quaternion_index(g), coeff)

    def sigma_hat(self, g: str) -> homology.EdgeChain:
        return self.sigma(g) - self.sigma(quaternion_mul("-1", g))

    def zeta_hat(self, g: str) -> homology.EdgeChain:
        return self.zeta(g) - self.zeta(quaternion_mul("-1", g))

    def epsilon(self, g: str) -> homology.EdgeChain:
        return self.sigma_hat(g) - self.sigma_hat(quaternion_mul(g, "j"))

    def w(self, axis: str) -> homology.EdgeChain:
        """The relative classes w_i, w_j, w_k."""
        plus = {"i": ("1", "-1", "i", "-i"), "j": ("1", "-1", "j", "-j"),
                "k": ("1", "-1", "k", "-k")}[axis]
        out = homology.EdgeChain.zero(8)
        for g in QUATERNION_ORDER:
            sign = 1 if g in plus else -1
            out = out + (self.zeta(g, sign) if axis in ("i", "k")
                         else self.sigma(g, sign))
        return out

    def w_hat(self, vertex: str) -> homology.EdgeChain:
        signs = {"1": (1, 1, 1), "i": (1, -1, -1), "j": (-1, 1, -1),
                 "k": (-1, -1, 1)}[vertex]
        wi, wj, wk = self.w("i"), self.w("j"), self.w("k")
        return wi.scale(signs[0]) + wj.scale(signs[1]) + wk.scale(signs[2])

    def left_mult(self, h: str) -> Perm:
        """The automorphism sq(g) -> sq(h g)."""
        return Perm([quaternion_index(quaternion_mul(h, g)) for g in QUATERNION_ORDER])


class Ornithorynque:
    """The odd-q family of genus (3q-1)/2; q = 3 is the genus-4 surface."""

    name = "ornithorynque"

    def __init__(self, q: int):
        if q < 3 or q % 2 == 0:
            raise EvenQ(f"q must be odd and >= 3, got {q}")
        self.q = q
        n = 4 * q

        def idx(i: int, mu: int, nu: int) -> int:
            return 4 * (i % q) + 2 * (mu % 2) + (nu % 2)

        self.idx = idx
        r_images = [0] * n
        u_images = [0] * n
        for i in range(q):
            for mu in (0, 1):
                for nu in (0, 1):
                    if mu == 1:
                        r_to = idx(i, 0, nu)
                    elif nu == 0:
                        r_to = idx(i + 1, 1, nu)
                    else:
                        r_to = idx(i - 1, 1, nu)
                    if nu == 1:
                        u_to = idx(i, mu, 0)
                    elif mu == 1:
                        u_to = idx(i + 1, mu, 1)
                    else:
                        u_to = idx(i - 1, mu, 1)
                    r_images[idx(i, mu, nu)] = r_to
                    u_images[idx(i, mu, nu)] = u_to
        self.origami = make_origami(n, Perm(r_images), Perm(u_images))

    # named edges per the pinned dictionary
    def sigma(self, i: int, coeff=1) -> homology.EdgeChain:
        return homology.sigma_chain(4 * self.q, self.idx(i, 1, 1), coeff)

    def sigma_p(self, i: int, coeff=1) -> homology.EdgeChain:
        return homology.sigma_chain(4 * self.q, self.idx(i, 0, 1), coeff)

    def zeta(self, i: int, coeff=1) -> homology.EdgeChain:
        return homology.zeta_chain(4 * self.q, self.idx(i, 1, 1), coeff)

    def zeta_p(self, i: int, coeff=1) -> homology.EdgeChain:
        return homology.zeta_chain(4 * self.q, self.idx(i, 1, 0), coeff)

    def sigma_total(self) -> homology.EdgeChain:
        out = homology.EdgeChain.zero(4 * self.q)
        for i in range(self.q):
            out = out + self.sigma(i) + self.sigma_p(i)
        return out

    def zeta_total(self) -> homology.EdgeChain:
        out = homology.EdgeChain.zero(4 * self.q)
        for i in range(self.q):
            out = out + self.zeta(i) + self.zeta_p(i)
        return out

    def sigma_flat(self) -> homology.EdgeChain:
        out = homology.EdgeChain.zero(4 * self.q)
        for i in range(self.q):
            out = out + self.sigma(i) - self.sigma_p(i)
        return out

    def zeta_flat(self) -> homology.EdgeChain:
        out = homology.EdgeChain.zero(4 * self.q)
        for i in range(self.q):
            out = out + self.zeta(i) - self.zeta_p(i)
        return out

    def a(self, i: int) -> homology.EdgeChain:
        return self.sigma(i) - self.sigma(i + 1)

    def a_p(self, i: int) -> homology.EdgeChain:
        return self.sigma_p(i) - self.sigma_p(i + 1)

    def b(self, i: int) -> homology.EdgeChain:
        return self.zeta(i) - self.zeta(i + 1)

    def b_p(self, i: int) -> homology.EdgeChain:
        return self.zeta_p(i) - self.zeta_p(i + 1)

    def tau(self, i: int) -> homology.EdgeChain:
        return self.a(i) - self.a_p(i - 1)

    def sigma_breve(self, i: int) -> homology.EdgeChain:
        return self.a(i) + self.a_p(i - 1)

    def zeta_breve(self, i: int) -> homology.EdgeChain:
        return self.b_p(i) + self.b(i - 1)

    def shift(self, g: int) -> Perm:
        """The automorphism (i, mu, nu) -> (i+g, mu, nu)."""
        images = [0] * (4 * self.q)
        for i in range(self.q):
            for mu in (0, 1):
                for nu in (0, 1):
                    images[self.idx(i, mu, nu)] = self.idx(i + g, mu, nu)
        return Perm(images)


APPENDIX_B_VERTICES = ((0, 0), (1, 2), (2, 3), (3, 3), (4, 2), (5, 1),
                       (4, -1), (3, -2), (2, -2), (1, -1))


class AppendixB:
    """Genus-2 decagon surface in the stratum (1,1), with its side classes."""

    name = "appendix-b"

    def __init__(self):
        self.surface = polygons.PolygonSurface(APPENDIX_B_VERTICES)
        self.origami = self.surface.origami

    def zeta_side(self, letter: str) -> homology.EdgeChain:
        ends = {"a": ((0, 0), (1, 2)), "b": ((1, 2), (2, 3)),
                "c": ((2, 3), (3, 3)), "d": ((3, 3), (4, 2)),
                "e": ((4, 2), (5, 1))}[letter]
        return self.surface.path_chain(*ends)

    def zeta0(self) -> homology.EdgeChain:
        za, zb, zd, ze = (self.zeta_side(x) for x in "abde")
        return (za - ze).scale(2) - (zb - zd).scale(3)

    def zeta1(self) -> homology.EdgeChain:
        za, zc, ze = (self.zeta_side(x) for x in "ace")
        return za - zc.scale(3) + ze.scale(2)

    def zeta_star(self) -> homology.EdgeChain:
        return self.zeta_side("e") - self.zeta_side("d")


# each name's constructor, given q (which only the ornithorynque reads)
_CONSTRUCTORS = {"eierlegende-wollmilchsau": lambda q: Wollmilchsau(),
                 "ornithorynque": Ornithorynque,
                 "appendix-b": lambda q: AppendixB()}


def catalog(name: str, q: int | None = None):
    """Catalog entry: a Wollmilchsau, Ornithorynque, or AppendixB object,
    a new one built on each call."""
    if name not in _CONSTRUCTORS:
        raise UnknownName(f"unknown catalog name {name!r}")
    if name == "ornithorynque" and q is None:
        raise UnknownName("ornithorynque requires q")
    return _CONSTRUCTORS[name](q)


def catalog_origami(name: str, q: int | None = None) -> Origami:
    return catalog(name, q).origami
