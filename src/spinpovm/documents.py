"""JSON document formats for POVMs, ray catalogs, and reports.

Complex amplitudes are stored as explicit [re, im] pairs; Python's float
repr round-trips doubles exactly, so build -> dump -> load reproduces the
in-memory POVM bit for bit.
"""

import json

import numpy as np

from .povm import Povm
from .spin32 import RayCatalog

POVM_SCHEMA = "spinpovm/povm-v1"
RAYS_SCHEMA = "spinpovm/rays-v1"


class DocumentError(ValueError):
    """Malformed or inconsistent document content."""


def _state_pairs(state: np.ndarray) -> list:
    return [[float(a.real), float(a.imag)] for a in state]


def _state_from_pairs(pairs) -> np.ndarray:
    try:
        arr = np.array([complex(re, im) for re, im in pairs])
    except (TypeError, ValueError) as err:
        raise DocumentError(f"bad amplitude pairs: {err}") from None
    return arr


def povm_to_document(povm: Povm) -> dict:
    doc = {
        "schema": POVM_SCHEMA,
        "dim": povm.dim,
        "copies": povm.copies,
        "spin": povm.spin,
        "provenance": povm.provenance,
        "elements": [
            {"weight": float(w), "state": _state_pairs(s)}
            for w, s in zip(povm.weights, povm.states)
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
        states = np.array([_state_from_pairs(el["state"]) for el in elements])
    except (KeyError, TypeError, ValueError) as err:
        raise DocumentError(f"bad POVM element: {err}") from None
    dim = int(doc["dim"])
    if states.ndim != 2 or states.shape[1] != dim:
        raise DocumentError(
            f"element dimensions are inconsistent with dim = {dim}")
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
            {"name": name, "state": _state_pairs(s)}
            for name, s in zip(cat.names, cat.states)
        ],
    }


def catalog_from_document(doc: dict) -> RayCatalog:
    if not isinstance(doc, dict):
        raise DocumentError("catalog document must be a JSON object")
    if doc.get("schema") != RAYS_SCHEMA:
        raise DocumentError(
            f"unexpected schema {doc.get('schema')!r}; expected {RAYS_SCHEMA!r}")
    entries = doc.get("states")
    if not isinstance(entries, list) or not entries:
        raise DocumentError("catalog document has an empty state list")
    try:
        names = tuple(str(entry["name"]) for entry in entries)
        states = np.array([_state_from_pairs(entry["state"]) for entry in entries])
    except (KeyError, TypeError, ValueError) as err:
        raise DocumentError(f"bad catalog entry: {err}") from None
    return RayCatalog(label=str(doc.get("label", "rays")), names=names, states=states)


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
