import pytest

from spinpovm import build_table1_povm, penrose_states, set60_states, spin32_povm


def all_shipped_povms():
    """The eight bundled POVMs: spin-1 N=2..5 and both spin-3/2 catalogs at N=2,3."""
    povms = [build_table1_povm(n) for n in (2, 3, 4, 5)]
    for cat in (penrose_states(), set60_states()):
        for n in (2, 3):
            povms.append(spin32_povm(cat, n))
    return povms


@pytest.fixture(scope="session")
def shipped_povms():
    return all_shipped_povms()


@pytest.fixture(scope="session")
def penrose():
    return penrose_states()


@pytest.fixture(scope="session")
def set60():
    return set60_states()
