"""Input checks of the shared containers: state rows, vectors, POVMs, catalogs."""

import numpy as np
import pytest

from spinpovm import RayCatalog, build_table1_povm
from spinpovm.povm import Povm, normalized, unit_rows

QUBIT = np.eye(2)


def test_unit_rows_refuses_an_empty_block():
    with pytest.raises(ValueError, match="non-empty"):
        unit_rows(np.empty((0, 3)))


@pytest.mark.parametrize("vec, message", [
    (np.eye(2), "must be a vector"),
    ([np.nan, 1.0], "non-finite"),
    ([0.0, 0.0], "zero vector"),
], ids=["matrix", "non-finite", "zero"])
def test_normalized_refuses(vec, message):
    with pytest.raises(ValueError, match=message):
        normalized(vec)


@pytest.mark.parametrize("weights, copies, message", [
    (["a", "b"], 1, "malformed POVM weights"),
    (np.ones((2, 1)), 1, "weights must be a vector"),
    (np.ones(3), 1, "3 weights for 2 states"),
    (np.ones(2), 0, "copies must be >= 1, got 0"),
    ([-1.0, 1.0], 1, "finite and non-negative"),
    ([np.inf, 1.0], 1, "finite and non-negative"),
], ids=["not-numbers", "2-d", "count", "copies-0", "negative", "infinite"])
def test_povm_refuses(weights, copies, message):
    with pytest.raises(ValueError, match=message):
        Povm(weights, QUBIT, copies)


def test_povm_provenance_must_be_a_string():
    povm = build_table1_povm(2)
    with pytest.raises(ValueError, match="^provenance must be a string, got None$"):
        Povm(povm.weights, povm.states, 2, provenance=None)


def test_catalog_label_must_be_a_string():
    with pytest.raises(ValueError, match="^catalog label must be a string, got 7$"):
        RayCatalog(label=7, names=("0", "1"), states=QUBIT)
