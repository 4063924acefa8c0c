import pytest

from origamis.catalog import catalog
from origamis.homology import chain_space
from origamis.structure import decompose_ew, decompose_orn
from origamis.verification import _d4_system


@pytest.fixture(scope="session")
def ew():
    return catalog("eierlegende-wollmilchsau")


@pytest.fixture(scope="session")
def orn3():
    return catalog("ornithorynque", q=3)


@pytest.fixture(scope="session")
def orn5():
    return catalog("ornithorynque", q=5)


@pytest.fixture(scope="session")
def appendix_b():
    return catalog("appendix-b")


@pytest.fixture(scope="session")
def ew_report(ew):
    return decompose_ew(ew)


@pytest.fixture(scope="session")
def orn3_report(orn3):
    return decompose_orn(orn3)


@pytest.fixture(scope="session")
def orn5_report(orn5):
    return decompose_orn(orn5)


@pytest.fixture(scope="session")
def ew_d4_args(ew):
    """Theorem A's seed and frame chains: sigma_hat_1 and the eps_g."""
    return ew.sigma_hat("1"), [ew.epsilon(g) for g in "1ijk"]


@pytest.fixture(scope="session")
def orn3_d4_args(orn3):
    """Theorem B's seed and frame chains: sigma_breve_0 and four eps."""
    s, z = orn3.sigma_breve, orn3.zeta_breve
    return s(0), [s(2).scale(-1) + z(0) - z(1), s(2).scale(-1) - z(2),
                  s(2).scale(-1) + z(2), s(0).scale(-1) + s(1) - z(2)]


@pytest.fixture(scope="session")
def ew_root_system(ew, ew_report, ew_d4_args):
    """(surface, report, chain space, D4 system) of the Wollmilchsau, built once."""
    return (ew, ew_report, chain_space(ew.origami),
            _d4_system(ew_report, *ew_d4_args))


@pytest.fixture(scope="session")
def orn3_root_system(orn3_report, orn3_d4_args):
    """Theorem B's D4 system of the ornithorynque q = 3, built once."""
    return _d4_system(orn3_report, *orn3_d4_args)


@pytest.fixture(scope="session")
def ew_roots(ew, ew_report):
    """Theorem A's roots as first built: the orbit, with negatives, of the
    eight classes sigma_hat_g, zeta_hat_g (g = 1, i, j, k) under the
    generator lifts."""
    space = chain_space(ew.origami)
    orbit = set()
    frontier = [space.canonical_vec(c(g).flat()) for c in (ew.sigma_hat, ew.zeta_hat)
                for g in "1ijk"]
    while frontier:
        v = frontier.pop()
        if v not in orbit:
            orbit |= {v, tuple(-x for x in v)}
            frontier += [lf.image(v) for lf in ew_report.generator_lifts]
    return frozenset(orbit)


@pytest.fixture(scope="session")
def orn3_roots(orn3):
    """Theorem B's roots listed by hand: the 12 classes sigma_breve_i,
    zeta_breve_i, sigma_breve_i + zeta_breve_(i-1), sigma_breve_i -
    zeta_breve_(i+1) and their negatives."""
    space = chain_space(orn3.origami)
    s, z = orn3.sigma_breve, orn3.zeta_breve
    classes = [space.canonical_vec(c.flat()) for i in range(3)
               for c in (s(i), z(i), s(i) + z(i - 1), s(i) - z(i + 1))]
    return frozenset(classes + [tuple(-x for x in v) for v in classes])
