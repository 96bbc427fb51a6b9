"""JSON document round-trips and parse-failure reporting."""

import json

import numpy as np
import pytest

from spinpovm import PENROSE40, RayCatalog, build_table1_povm, catalog, spin32_povm
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


def _povm_dict(povm):
    return json.loads(povm_to_document(povm))


def _catalog_dict(cat):
    return json.loads(catalog_to_document(cat))


def test_povm_round_trip_is_lossless():
    povm = spin32_povm(catalog(PENROSE40), 2)
    loaded = povm_from_document(_povm_dict(povm))
    assert np.array_equal(loaded.weights, povm.weights)
    assert np.array_equal(loaded.states, povm.states)
    assert loaded.copies == povm.copies
    assert loaded.provenance == povm.provenance


def test_povm_round_trip_through_text():
    povm = build_table1_povm(5)  # exercises the irrational (2 +- sqrt 2)/60 weights
    loaded = povm_from_document(_povm_dict(povm))
    assert np.array_equal(loaded.weights, povm.weights)
    assert np.array_equal(loaded.states, povm.states)


def test_catalog_round_trip():
    penrose = catalog(PENROSE40)
    loaded = catalog_from_document(_catalog_dict(penrose))
    assert loaded.names == penrose.names
    assert np.array_equal(loaded.states, penrose.states)


def test_file_round_trip(tmp_path):
    path = tmp_path / "povm.json"
    povm = build_table1_povm(2)
    write_json(povm_to_document(povm), path)
    loaded = povm_from_document(read_json(path))
    assert np.array_equal(loaded.states, povm.states)


def test_dumps_is_deterministic():
    text = povm_to_document(build_table1_povm(2))
    assert text == povm_to_document(build_table1_povm(2))
    assert dumps(json.loads(text)) == text


def test_empty_element_list_rejected():
    doc = _povm_dict(build_table1_povm(2))
    doc["elements"] = []
    with pytest.raises(DocumentError, match="empty"):
        povm_from_document(doc)


def test_wrong_schema_rejected():
    doc = _povm_dict(build_table1_povm(2))
    doc["schema"] = "something-else"
    with pytest.raises(DocumentError, match="schema"):
        povm_from_document(doc)


def test_dimension_mismatch_rejected():
    doc = _povm_dict(build_table1_povm(2))
    doc["dim"] = 4
    with pytest.raises(DocumentError):
        povm_from_document(doc)


def test_unnormalized_state_rejected():
    doc = _povm_dict(build_table1_povm(2))
    doc["elements"][0]["state"][0] = [2.0, 0.0]
    with pytest.raises(DocumentError):
        povm_from_document(doc)


def test_unnormalized_catalog_state_rejected():
    doc = _catalog_dict(catalog(PENROSE40))
    doc["states"][0]["state"][0] = [2.0, 0.0]
    with pytest.raises(DocumentError, match="not normalized"):
        catalog_from_document(doc)


def test_catalog_dimension_mismatch_rejected():
    doc = _catalog_dict(catalog(PENROSE40))
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
    return _povm_dict(build_table1_povm(2)), povm_from_document, "elements"


def _catalog_doc():
    return _catalog_dict(catalog(PENROSE40)), catalog_from_document, "states"


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
@pytest.mark.parametrize("pair", [["0.5", 0.0], [0.5, "0"], [None, 0.0],
                                  [True, 0.0], [0.5, False]])
def test_amplitude_that_is_not_a_number_rejected(make, pair):
    doc, load, key = make()
    doc[key][0]["state"][0] = pair
    with pytest.raises(DocumentError, match="amplitude pairs"):
        load(doc)


def test_all_boolean_catalog_rejected():
    # np.array reads these rows as a bool array, not by upcasting into floats
    doc = {"schema": "spinpovm/rays-v1", "label": "basis", "dim": 2,
           "states": [{"name": str(i), "state": [[i == j, False] for j in range(2)]}
                      for i in range(2)]}
    with pytest.raises(DocumentError, match="^bad catalog entry: bad amplitude pairs: "
                                            "entries must be numbers, got True$"):
        catalog_from_document(doc)


def test_catalog_needs_one_name_per_ray():
    with pytest.raises(ValueError, match="1 names for 2 states"):
        RayCatalog(label="x", names=("a",), states=np.eye(2))


def test_catalog_names_must_be_strings():
    # the JSON writer would fail on such a name with a TypeError
    with pytest.raises(ValueError, match="^catalog names must be strings, got 1$"):
        catalog_to_document(RayCatalog(label="x", names=(1, 2), states=np.eye(2)))


@pytest.mark.parametrize("make", [_povm_doc, _catalog_doc])
def test_ragged_state_rows_rejected(make):
    doc, load, key = make()
    doc[key][0]["state"].pop()
    with pytest.raises(DocumentError, match="bad (POVM element|catalog entry)"):
        load(doc)


def test_amplitudes_keep_signed_zeros():
    doc = _povm_dict(build_table1_povm(2))
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
    doc = _povm_dict(build_table1_povm(2))
    doc["copies"] = copies
    with pytest.raises(DocumentError, match="copies"):
        povm_from_document(doc)


@pytest.mark.parametrize("make", [_povm_doc, _catalog_doc])
@pytest.mark.parametrize("shift", [0.7, 0.0, None], ids=["fraction", "float", "bool"])
def test_non_integer_dim_rejected(make, shift):
    doc, load, _ = make()
    doc["dim"] = True if shift is None else doc["dim"] + shift
    with pytest.raises(DocumentError, match="dim must be an integer"):
        load(doc)


@pytest.mark.parametrize("weight", ["0.5", True, 10**400], ids=["string", "bool", "huge"])
def test_weight_that_is_not_a_float_rejected(weight):
    doc = _povm_dict(build_table1_povm(2))
    doc["elements"][0]["weight"] = weight
    with pytest.raises(DocumentError, match="bad POVM element"):
        povm_from_document(doc)
