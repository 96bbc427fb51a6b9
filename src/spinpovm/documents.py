"""JSON document formats for POVMs, ray catalogs, and reports.

Complex amplitudes are stored as explicit [re, im] pairs; Python's float
repr round-trips doubles exactly, so build -> dump -> load reproduces the
in-memory POVM bit for bit.
"""

import json
import numbers
from json.encoder import encode_basestring_ascii

import numpy as np

from .povm import Povm
from .spin32 import RayCatalog

POVM_SCHEMA = "spinpovm/povm-v1"
RAYS_SCHEMA = "spinpovm/rays-v1"


class DocumentError(ValueError):
    """Malformed or inconsistent document content."""


def _pairs(states: np.ndarray) -> list:
    """[re, im] pairs of a (k, D) complex array, as k nested lists."""
    return np.ascontiguousarray(states, dtype=complex).view(float).reshape(
        *states.shape, 2).tolist()


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


def povm_to_document(povm: Povm) -> dict:
    doc = {
        "schema": POVM_SCHEMA,
        "dim": povm.dim,
        "copies": povm.copies,
        "spin": povm.spin,
        "provenance": povm.provenance,
        "elements": [
            {"weight": w, "state": pairs}
            for w, pairs in zip(povm.weights.tolist(), _pairs(povm.states))
        ],
    }
    return doc


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


def catalog_to_document(cat: RayCatalog) -> dict:
    return {
        "schema": RAYS_SCHEMA,
        "dim": cat.states.shape[1],
        "label": cat.label,
        "states": [
            {"name": name, "state": pairs}
            for name, pairs in zip(cat.names, _pairs(cat.states))
        ],
    }


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


_INF = float("inf")


def _float_text(value: float) -> str:
    """A float as the json module writes it."""
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    float: _float_text,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _write(value, newline: str, out: list) -> None:
    """Append the text of `value`, whose first line is indented by `newline`.

    Scalars go by exact type first; subclasses such as numpy.float64 take
    the json module's isinstance order.
    """
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        out.append(text(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(separator + encode_basestring_ascii(key) + ": ")
            _write(value[key], inner, out)
            separator = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        records = _records(value, inner)
        if records is not None:
            out.append("[" + inner + records + newline + "]")
            return
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _write(item, inner, out)
            separator = "," + inner
        out.append(newline + "]")
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _skeleton(shape: tuple, newline: str) -> str:
    """Layout of a nested list of `shape` with a %s slot for each float."""
    if not shape:
        return "%s"
    inner = newline + "  "
    item = _skeleton(shape[1:], inner)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + newline + "]"


def _records(rows, newline: str) -> str | None:
    """Text of a list of records, each row indented by `newline`, or None.

    Applies when every row is a dict with the same str keys and each field
    is a str in every row, a float in every row, or a nested list of floats
    of one shape in every row. One %-template is filled per row, and each
    distinct float bit pattern is written once: the bundled POVM documents
    hold thousands of amplitudes but few distinct values.
    """
    first = rows[0]
    if type(first) is not dict or not first:
        return None
    keys = first.keys()
    if not all(type(key) is str for key in keys):
        return None
    if not all(type(row) is dict and row.keys() == keys for row in rows):
        return None
    names = sorted(keys)
    columns = [[row[name] for row in rows] for name in names]
    kinds = [set(map(type, column)) for column in columns]
    # a dict, bool or int field, or a mix of types, is written the generic
    # way before any numpy work
    if not all(kind in ({str}, {float}, {list}) for kind in kinds):
        return None
    inner = newline + "  "
    fields, cells = [], []  # the template of each field, its (row, slot) texts
    for name, column, kind in zip(names, columns, kinds):
        if kind == {str}:
            fields.append("%s")
            cells.append(np.array(list(map(encode_basestring_ascii, column)),
                                  dtype=object).reshape(-1, 1))
            continue
        try:
            leaves = np.array(column, dtype=object)
        except ValueError:  # ragged beyond what an object array can hold
            return None
        if set(map(type, leaves.ravel())) != {float}:
            return None
        fields.append(_skeleton(leaves.shape[1:], inner))
        values = leaves.astype(float).reshape(len(rows), -1)
        # unique on the bits, so that -0.0 and 0.0 keep their own text
        bits, index = np.unique(values.view(np.int64), return_inverse=True)
        texts = np.array(list(map(_float_text, bits.view(float).tolist())), dtype=object)
        cells.append(texts[index.reshape(values.shape)])
    template = "{" + ",".join(
        inner + encode_basestring_ascii(name).replace("%", "%%") + ": " + field
        for name, field in zip(names, fields)) + newline + "}"
    table = np.concatenate(cells, axis=1).tolist()
    return ("," + newline).join(map(template.__mod__, map(tuple, table)))


def dumps(data: dict) -> str:
    """Deterministic JSON text: sorted keys, fixed layout, trailing newline.

    The bytes are those of `json.dumps(data, indent=2, sort_keys=True)`
    plus a newline, for data whose dict keys are str; the json module's
    indented encoder is written in Python and much slower on the long
    lists of records that POVM and catalog documents hold.
    """
    out = []
    _write(data, "\n", out)
    out.append("\n")
    return "".join(out)


def write_json(data: dict, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(dumps(data))


def read_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        raise DocumentError(f"cannot read document {path}: {err}") from None
