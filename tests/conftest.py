import dataclasses

import pytest

from spinpovm import PENROSE40, SET60, build_table1_povm, catalog, spin32_povm


def scaled(povm, factor):
    """The same POVM with every weight multiplied by `factor`."""
    return dataclasses.replace(povm, weights=povm.weights * factor)


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u), u = 2^-53."""
    return n * 2.0 ** -53 / (1 - n * 2.0 ** -53)


def all_shipped_povms():
    """The eight bundled POVMs: spin-1 N=2..5 and both spin-3/2 catalogs at N=2,3."""
    povms = [build_table1_povm(n) for n in (2, 3, 4, 5)]
    for label in (PENROSE40, SET60):
        for n in (2, 3):
            povms.append(spin32_povm(label, n))
    return povms


@pytest.fixture(scope="session")
def shipped_povms():
    return all_shipped_povms()


@pytest.fixture(scope="session")
def penrose():
    return catalog(PENROSE40)


@pytest.fixture(scope="session")
def set60():
    return catalog(SET60)
