"""Exception types shared across the package."""


class OrigamiError(Exception):
    """Base class for all library errors."""


class BadInputFile(OrigamiError):
    """An input file is missing, unreadable or not in the expected format."""


class BadArgument(OrigamiError):
    """A command-line argument does not parse or is out of range."""


class NotPermutation(OrigamiError):
    """Malformed image list: not a bijection of [0, n)."""


class NotOrigami(OrigamiError):
    """n or the base square is not an int, or the base is not in [0, n)."""


class NotTransitive(OrigamiError):
    """The group generated by r and u does not act transitively."""


class UnknownName(OrigamiError):
    """Unknown catalog name."""


class EvenQ(OrigamiError):
    """The q-family is only defined for odd q >= 3."""


class UnpairedSides(OrigamiError):
    """Polygon sides do not match up into translated opposite pairs."""


class NotSimple(OrigamiError):
    """Polygon boundary self-intersects."""


class NotAbsolute(OrigamiError):
    """Chain has nonzero boundary where an absolute class is required."""


class NotInVeechGroup(OrigamiError):
    """Matrix does not stabilize the origami's isomorphism class."""


class NotAutomorphism(OrigamiError):
    """Permutation does not commute with r and u."""


class NotInvariant(OrigamiError):
    """Subspace is not preserved by the given map."""


class OrderExceedsCap(OrigamiError):
    """Element order exceeds the provided cap."""


class NotInCyclicImage(OrigamiError):
    """Action on the tau subspace is not a power of the cyclic generator."""


class NotD4(OrigamiError):
    """Vector set is not a D4 root system."""


class NotInAut(OrigamiError):
    """Matrix does not preserve the root system."""


class ActionNotFinite(OrigamiError):
    """Action has infinite image; congruence accounting impossible."""


class EvenConeMultiplicity(OrigamiError):
    """Index parity is ill-defined: some cone angle is an even multiple of 2*pi."""


class OddOrderZeros(OrigamiError):
    """Spin parity requires all zero orders to be even."""


class NotUnimodular(OrigamiError):
    """Antisymmetric Gram matrix has determinant != +-1."""


class ProbeMovesMarks(OrigamiError):
    """A probe lift moves a marked vertex class outside the marks (it may
    permute the marks among themselves)."""


class WrongSurface(OrigamiError):
    """Operation got a surface other than the one it is defined for."""


class Inconsistent(OrigamiError):
    """A computed object breaks an identity that holds for every origami."""
