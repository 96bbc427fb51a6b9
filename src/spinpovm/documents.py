"""JSON document formats for POVMs, ray catalogs, and reports.

Complex amplitudes are stored as explicit [re, im] pairs; Python's float
repr round-trips doubles exactly, so build -> dump -> load reproduces the
in-memory POVM bit for bit.
"""

import json
import numbers

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


def _states_from_pairs(rows: list, dim) -> np.ndarray:
    """(k, dim) complex array from k lists of dim [re, im] pairs.

    Each amplitude is exactly complex(re, im). Pairs of the wrong length,
    ragged rows, rows of another length than `dim`, entries that are not
    numbers and a `dim` that is not an integer are refused.
    """
    # bool is an Integral, and int() would truncate 4.7 to 4
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral):
        raise DocumentError(f"dim must be an integer, got {dim!r}")
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
    if pairs.shape[1] != dim:
        raise DocumentError(f"state dimensions are inconsistent with dim = {dim}")
    return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]


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
        weights = np.array([float(el["weight"]) for el in elements])
        states = _states_from_pairs([el["state"] for el in elements], doc["dim"])
    except (KeyError, TypeError, ValueError) as err:
        raise DocumentError(f"bad POVM element: {err}") from None
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
        states = _states_from_pairs([entry["state"] for entry in entries], doc["dim"])
    except (KeyError, TypeError, ValueError) as err:
        raise DocumentError(f"bad catalog entry: {err}") from None
    try:
        return RayCatalog(label=str(doc.get("label", "rays")), names=names, states=states)
    except ValueError as err:
        raise DocumentError(str(err)) from None


def dumps(data: dict) -> str:
    """Deterministic JSON text: sorted keys, fixed layout, trailing newline."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def write_json(data: dict, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(dumps(data))


def read_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        raise DocumentError(f"cannot read document {path}: {err}") from None
