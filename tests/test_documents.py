"""JSON document round-trips and parse-failure reporting."""

import numpy as np
import pytest

from spinpovm import build_table1_povm, penrose_states, spin32_povm
from spinpovm.documents import (
    DocumentError,
    catalog_from_document,
    catalog_to_document,
    dumps,
    povm_from_document,
    povm_to_document,
    read_json,
    write_json,
)


def test_povm_round_trip_is_lossless():
    povm = spin32_povm(penrose_states(), 2)
    loaded = povm_from_document(povm_to_document(povm))
    assert np.array_equal(loaded.weights, povm.weights)
    assert np.array_equal(loaded.states, povm.states)
    assert loaded.copies == povm.copies
    assert loaded.provenance == povm.provenance


def test_povm_round_trip_through_text():
    import json
    povm = build_table1_povm(5)  # exercises the irrational (2 +- sqrt 2)/60 weights
    text = dumps(povm_to_document(povm))
    loaded = povm_from_document(json.loads(text))
    assert np.array_equal(loaded.weights, povm.weights)
    assert np.array_equal(loaded.states, povm.states)


def test_catalog_round_trip():
    catalog = penrose_states()
    loaded = catalog_from_document(catalog_to_document(catalog))
    assert loaded.names == catalog.names
    assert np.array_equal(loaded.states, catalog.states)


def test_file_round_trip(tmp_path):
    path = tmp_path / "povm.json"
    povm = build_table1_povm(2)
    write_json(povm_to_document(povm), path)
    loaded = povm_from_document(read_json(path))
    assert np.array_equal(loaded.states, povm.states)


def test_dumps_is_deterministic():
    doc = povm_to_document(build_table1_povm(2))
    assert dumps(doc) == dumps(povm_to_document(build_table1_povm(2)))


def test_empty_element_list_rejected():
    doc = povm_to_document(build_table1_povm(2))
    doc["elements"] = []
    with pytest.raises(DocumentError, match="empty"):
        povm_from_document(doc)


def test_wrong_schema_rejected():
    doc = povm_to_document(build_table1_povm(2))
    doc["schema"] = "something-else"
    with pytest.raises(DocumentError, match="schema"):
        povm_from_document(doc)


def test_dimension_mismatch_rejected():
    doc = povm_to_document(build_table1_povm(2))
    doc["dim"] = 4
    with pytest.raises(DocumentError):
        povm_from_document(doc)


def test_unnormalized_state_rejected():
    doc = povm_to_document(build_table1_povm(2))
    doc["elements"][0]["state"][0] = [2.0, 0.0]
    with pytest.raises(DocumentError):
        povm_from_document(doc)


def test_unnormalized_catalog_state_rejected():
    doc = catalog_to_document(penrose_states())
    doc["states"][0]["state"][0] = [2.0, 0.0]
    with pytest.raises(DocumentError, match="not normalized"):
        catalog_from_document(doc)


def test_catalog_dimension_mismatch_rejected():
    doc = catalog_to_document(penrose_states())
    doc["dim"] = 3
    with pytest.raises(DocumentError, match="dim = 3"):
        catalog_from_document(doc)


def test_unreadable_file_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DocumentError):
        read_json(path)
    with pytest.raises(DocumentError):
        read_json(tmp_path / "missing.json")


def _povm_doc():
    return povm_to_document(build_table1_povm(2)), povm_from_document, "elements"


def _catalog_doc():
    return catalog_to_document(penrose_states()), catalog_from_document, "states"


@pytest.mark.parametrize("make", [_povm_doc, _catalog_doc])
@pytest.mark.parametrize("resize", [lambda p: p[:1], lambda p: p + [0.0],
                                    lambda p: p + [0.0, 0.0]],
                         ids=["one", "three", "four"])
def test_amplitude_pairs_of_wrong_length_rejected(make, resize):
    doc, load, key = make()
    for entry in doc[key]:
        entry["state"] = [resize(pair) for pair in entry["state"]]
    with pytest.raises(DocumentError, match="amplitude pairs"):
        load(doc)


@pytest.mark.parametrize("make", [_povm_doc, _catalog_doc])
@pytest.mark.parametrize("pair", [["0.5", 0.0], [0.5, "0"], [None, 0.0]])
def test_amplitude_that_is_not_a_number_rejected(make, pair):
    doc, load, key = make()
    doc[key][0]["state"][0] = pair
    with pytest.raises(DocumentError, match="amplitude pairs"):
        load(doc)


@pytest.mark.parametrize("make", [_povm_doc, _catalog_doc])
def test_ragged_state_rows_rejected(make):
    doc, load, key = make()
    doc[key][0]["state"].pop()
    with pytest.raises(DocumentError, match="bad (POVM element|catalog entry)"):
        load(doc)


def test_amplitudes_keep_signed_zeros():
    doc = povm_to_document(build_table1_povm(2))
    zeros = 0
    for element in doc["elements"]:
        for pair in element["state"]:
            for part in (0, 1):
                if pair[part] == 0.0:
                    pair[part] = -0.0
                    zeros += 1
    assert zeros > 0
    loaded = povm_from_document(doc)
    expected = np.array([[complex(re, im) for re, im in el["state"]]
                         for el in doc["elements"]])
    assert loaded.states.tobytes() == expected.tobytes()


@pytest.mark.parametrize("copies", [2.7, 2.0, True, "2"])
def test_non_integer_copies_rejected(copies):
    doc = povm_to_document(build_table1_povm(2))
    doc["copies"] = copies
    with pytest.raises(DocumentError, match="copies"):
        povm_from_document(doc)
