import pytest

from origamis.catalog import catalog
from origamis.structure import decompose_ew, decompose_orn
from origamis.verification import _ew_root_system


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
def ew_root_system():
    """(surface, report, chain space, D4 system) of the Wollmilchsau, built once."""
    return _ew_root_system()
