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
from itertools import chain
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


def _numbers(values: list, what: str) -> list:
    """`values`, refused unless each is a real number and not a bool (which np.array
    reads as 1.0 or 0.0). Checked once per distinct type; the error names the first."""
    bad = {kind for kind in set(map(type, values))
           if issubclass(kind, bool) or not issubclass(kind, numbers.Real)}
    if bad:
        value = next(value for value in values if type(value) in bad)
        raise DocumentError(f"{what}, got {value!r}")
    return values


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
    _numbers(list(chain.from_iterable(chain.from_iterable(rows))),
             "bad amplitude pairs: entries must be numbers")
    return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]


# schema -> (document kind, what one entry is, required keys: the last holds the entries)
_FORMATS = {
    POVM_SCHEMA: ("POVM", "POVM element", ("dim", "copies", "elements")),
    RAYS_SCHEMA: ("catalog", "catalog entry", ("dim", "states")),
}


def _from_document(doc, schema: str, field: str, read_field, make):
    """`make(read_field(each entry's field), states)` for a document of
    `schema`, after the checks both kinds share. Each fault of the document
    raises DocumentError."""
    kind, entry, keys = _FORMATS[schema]
    if not isinstance(doc, dict):
        raise DocumentError(f"{kind} document must be a JSON object")
    if doc.get("schema") != schema:
        raise DocumentError(
            f"unexpected schema {doc.get('schema')!r}; expected {schema!r}")
    for key in keys:
        if key not in doc:
            raise DocumentError(f"{kind} document is missing {key!r}")
    entries = doc[keys[-1]]
    if not isinstance(entries, list) or not entries:
        # "elements" -> "element", "states" -> "state"
        raise DocumentError(f"{kind} document has an empty {keys[-1][:-1]} list")
    try:
        values = read_field([item[field] for item in entries])
        states = _states_from_pairs([item["state"] for item in entries])
    # OverflowError: an integer beyond the float range
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise DocumentError(f"bad {entry}: {err}") from None
    dim = doc["dim"]
    # bool is an Integral, and int() would truncate 4.7 to 4
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral):
        raise DocumentError(f"{kind} document dim must be an integer, got {dim!r}")
    if states.shape[1] != dim:
        raise DocumentError(f"{kind} document states have {states.shape[1]} amplitudes, "
                            f"inconsistent with dim = {dim}")
    try:
        return make(values, states)
    except ValueError as err:
        raise DocumentError(str(err)) from None


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
    return _from_document(
        doc, POVM_SCHEMA, "weight",
        lambda weights: np.array(_numbers(weights, "weight must be a number"), dtype=float),
        lambda weights, states: Povm(weights, states, doc["copies"],
                                     provenance=str(doc.get("provenance", ""))))


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
    return _from_document(
        doc, RAYS_SCHEMA, "name", lambda names: tuple(map(str, names)),
        lambda names, states: RayCatalog(label=str(doc.get("label", "rays")),
                                         names=names, states=states))


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
