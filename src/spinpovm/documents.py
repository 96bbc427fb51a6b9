"""JSON document formats for POVMs, ray catalogs, and reports.

Complex amplitudes are stored as explicit [re, im] pairs; Python's float
repr round-trips doubles exactly, so build -> dump -> load reproduces the
in-memory POVM bit for bit.

Every file holds the bytes of `json.dumps(data, indent=2, sort_keys=True)`
plus a newline. Reports are written by the json module; POVM and catalog
documents are filled in from one fixed template per kind.
"""

import json
import numbers
from json.encoder import encode_basestring_ascii

import numpy as np

from .povm import Povm
from .spin32 import RayCatalog

POVM_SCHEMA = "spinpovm/povm-v1"
RAYS_SCHEMA = "spinpovm/rays-v1"

# The keys of each kind in sorted order; the records are joined by _RECORD_SEPARATOR
_POVM_TEXT = """{
  "copies": %d,
  "dim": %d,
  "elements": [
    %s
  ],
  "provenance": %s,
  "schema": %s,
  "spin": %r
}
"""
_CATALOG_TEXT = """{
  "dim": %d,
  "label": %s,
  "schema": %s,
  "states": [
    %s
  ]
}
"""
_RECORD_SEPARATOR = ",\n    "


class DocumentError(ValueError):
    """Malformed or inconsistent document content."""


def _states_from_pairs(rows: list) -> np.ndarray:
    """(k, D) complex array from k lists of D [re, im] pairs.

    Each amplitude is exactly complex(re, im). Pairs of the wrong length,
    ragged rows and entries that are not numbers are refused.
    """
    try:
        pairs = np.array(rows)
    except ValueError as err:
        raise DocumentError(f"bad amplitude pairs: {err}") from None
    if pairs.ndim != 3 or pairs.shape[2] != 2:
        raise DocumentError(
            f"bad amplitude pairs: expected rows of [re, im] pairs, got shape {pairs.shape}")
    if pairs.dtype.kind not in "biuf":
        raise DocumentError(
            f"bad amplitude pairs: entries must be numbers, got {pairs.dtype}")
    return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]


def _check_dim(dim, states: np.ndarray, kind: str) -> None:
    """Refuse a document `dim` that is not an integer or not the row length."""
    # bool is an Integral, and int() would truncate 4.7 to 4
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral):
        raise DocumentError(f"{kind} document dim must be an integer, got {dim!r}")
    if states.shape[1] != dim:
        raise DocumentError(f"{kind} document states have {states.shape[1]} amplitudes, "
                            f"inconsistent with dim = {dim}")


def _weight(element: dict) -> float:
    """An element's weight, refused unless it is a JSON number."""
    weight = element["weight"]
    if isinstance(weight, bool) or not isinstance(weight, numbers.Real):
        raise DocumentError(f"weight must be a number, got {weight!r}")
    return float(weight)


def _float_texts(values: np.ndarray) -> list:
    """The repr of each float of a 2-D array, as nested lists of str. Each
    distinct bit pattern, so -0.0 apart from 0.0, is formatted once: the
    bundled documents hold thousands of amplitudes but few distinct values."""
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(float.__repr__, bits.view(float).tolist())), dtype=object)
    return texts[index.reshape(values.shape)].tolist()


def _state_field(dim: int) -> str:
    """The text of a record's "state" list of `dim` [re, im] pairs, with a
    %s slot for each float."""
    pair = "[\n          %s,\n          %s\n        ]"
    return "[\n        " + ",\n        ".join([pair] * dim) + "\n      ]"


def povm_to_document(povm: Povm) -> str:
    """The POVM's JSON document text."""
    record = '{\n      "state": ' + _state_field(povm.dim) + ',\n      "weight": %s\n    }'
    cells = _float_texts(np.column_stack([povm.states.view(float), povm.weights]))
    elements = _RECORD_SEPARATOR.join(map(record.__mod__, map(tuple, cells)))
    return _POVM_TEXT % (povm.copies, povm.dim, elements,
                         encode_basestring_ascii(povm.provenance),
                         encode_basestring_ascii(POVM_SCHEMA), povm.spin)


def povm_from_document(doc: dict) -> Povm:
    if not isinstance(doc, dict):
        raise DocumentError("POVM document must be a JSON object")
    if doc.get("schema") != POVM_SCHEMA:
        raise DocumentError(
            f"unexpected schema {doc.get('schema')!r}; expected {POVM_SCHEMA!r}")
    for key in ("dim", "copies", "elements"):
        if key not in doc:
            raise DocumentError(f"POVM document is missing {key!r}")
    elements = doc["elements"]
    if not isinstance(elements, list) or not elements:
        raise DocumentError("POVM document has an empty element list")
    try:
        weights = np.array([_weight(el) for el in elements])
        states = _states_from_pairs([el["state"] for el in elements])
    # OverflowError: an integer weight beyond the float range
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise DocumentError(f"bad POVM element: {err}") from None
    _check_dim(doc["dim"], states, "POVM")
    try:
        return Povm(weights, states, doc["copies"],
                    provenance=str(doc.get("provenance", "")))
    except ValueError as err:
        raise DocumentError(str(err)) from None


def catalog_to_document(cat: RayCatalog) -> str:
    """The catalog's JSON document text."""
    dim = cat.states.shape[1]
    record = '{\n      "name": %s,\n      "state": ' + _state_field(dim) + '\n    }'
    cells = _float_texts(cat.states.view(float))
    states = _RECORD_SEPARATOR.join(
        record % (encode_basestring_ascii(name), *row) for name, row in zip(cat.names, cells))
    return _CATALOG_TEXT % (dim, encode_basestring_ascii(cat.label),
                            encode_basestring_ascii(RAYS_SCHEMA), states)


def catalog_from_document(doc: dict) -> RayCatalog:
    if not isinstance(doc, dict):
        raise DocumentError("catalog document must be a JSON object")
    if doc.get("schema") != RAYS_SCHEMA:
        raise DocumentError(
            f"unexpected schema {doc.get('schema')!r}; expected {RAYS_SCHEMA!r}")
    for key in ("dim", "states"):
        if key not in doc:
            raise DocumentError(f"catalog document is missing {key!r}")
    entries = doc["states"]
    if not isinstance(entries, list) or not entries:
        raise DocumentError("catalog document has an empty state list")
    try:
        names = tuple(str(entry["name"]) for entry in entries)
        states = _states_from_pairs([entry["state"] for entry in entries])
    except (KeyError, TypeError, ValueError) as err:
        raise DocumentError(f"bad catalog entry: {err}") from None
    _check_dim(doc["dim"], states, "catalog")
    try:
        return RayCatalog(label=str(doc.get("label", "rays")), names=names, states=states)
    except ValueError as err:
        raise DocumentError(str(err)) from None


def dumps(data: dict) -> str:
    """Deterministic JSON text of a report: sorted keys, two-space indent,
    trailing newline."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def write_json(text: str, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(text)


def read_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        raise DocumentError(f"cannot read document {path}: {err}") from None
