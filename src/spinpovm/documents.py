"""JSON document formats for POVMs, ray catalogs, and reports, and the
per-trial CSV rows of `simulate`.

Complex amplitudes are stored as explicit [re, im] pairs; Python's float
repr round-trips doubles exactly, so build -> dump -> load reproduces the
in-memory POVM bit for bit.

Every JSON file holds the bytes of `json.dumps(data, indent=2,
sort_keys=True)` plus a newline. Reports are written by the json module;
POVM and catalog documents are filled in from one fixed template per kind.
`write_csv` writes the CSV of `simulate`: its rows hold the bytes of
"%d,%r\\n", with the digits of most fidelities computed in numpy
(`_csv_rows`).
"""

import json
import numbers
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .povm import Povm
from .sampling import chunks
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
                                     provenance=doc.get("provenance", "")))


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
        doc, RAYS_SCHEMA, "name", tuple,
        lambda names, states: RayCatalog(label=doc.get("label", "rays"),
                                         names=names, states=states))


# 5**s for s = 0..20
_POW5 = 5 ** np.arange(21, dtype=np.uint64)
# Doubles at 1e-3, 1e-2 and 1e-1, each just above the power of ten it
# stands for, so x >= 10**-j holds for a double x exactly when x >= 1e-j does
_DECADES = (1e-3, 1e-2, 1e-1)
_QUAD = 10_000
# the zeros of a number that _quad_text writes as NUL bytes
_LEADING, _TRAILING = 1, 2


def _quad_texts() -> np.ndarray:
    """The four ASCII digits of each of 0000 .. 9999 as one uint32, in three
    blocks of _QUAD: as they are, then with the leading zeros (block
    _LEADING) or the trailing zeros (block _TRAILING) as NUL bytes."""
    chars = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, _QUAD).T)
    chars += ord("0")
    nonzero = chars != ord("0")
    leading = np.logical_or.accumulate(nonzero, axis=1)
    trailing = np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1]
    return np.stack([chars, chars * leading, chars * trailing]).view(np.uint32).ravel()


_QUAD_TEXTS = _quad_texts()


def _base_quad(values: np.ndarray, count: int) -> list:
    """The `count` base-10**4 digits of each uint64 value, most significant first."""
    quads = []
    for _ in range(count):
        rest = values
        values = values // _QUAD
        quads.append(rest - values * _QUAD)
    return quads[::-1]


def _quad_text(quads: list, strip: int) -> np.ndarray:
    """(n, 4 len(quads)) uint8 ASCII digits of the numbers whose base-10**4
    digits are `quads`, most significant first, with the `strip` zeros of
    each number, _LEADING or _TRAILING, as NUL bytes."""
    text = np.empty((len(quads[0]), len(quads)), np.uint32)
    # whether every digit on the stripped side of this column is zero
    zeros = np.ones(len(quads[0]), bool)
    columns = range(len(quads))
    for column in columns if strip == _LEADING else reversed(columns):
        text[:, column] = _QUAD_TEXTS[quads[column] + np.uint64(strip * _QUAD) * zeros]
        zeros &= quads[column] == 0
    return text.view(np.uint8)


def _shortest_digits(x: np.ndarray) -> tuple:
    """(fast, text) for the fast path of `_csv_rows`: which x get the
    digits of repr(x) here, all in [1e-4, 1), and for those the 20 ASCII
    digits of x 10**20 that repr(x) shows after "0.", its trailing zeros
    as NUL bytes.

    Write x = M 2**(E - 53) with M the 53-bit integer mantissa, and
    N_P = x 10**s_P rounded half-even to P significant digits, s_P = P - d
    for x in [10**(d-1), 10**d). Exactly, x 10**s_17 = Q / 2**t with
    Q = M 5**s_17 < 2**100 and t = 53 - E - s_17 in [36, 46]; Q is held in
    two uint64 limbs, and q, r = divmod(Q, 2**t). For P = 17 - k,
    x 10**s_P = (q + r / 2**t) / 10**k, so with a = (q mod 10**k) 2**t + r
    and B = 10**k 2**t, N_P = q // 10**k + (2a > B): exact rounding, and
    2a = B is a tie. The distance from x to N_P / 10**s_P is
    g / (10**k 2**t 10**s_P) with g = min(a, B - a), and N_P reads back
    as x iff that is at most half an ulp, 2**(E - 54), that is iff
    2g <= 5**s_17; the two sides are even and odd, so never equal, and
    round-half-even's rule for the end points of the rounding interval
    never applies.

    repr(x) has the shortest digits that read back as x, the closest to x
    among several. They are N_15 if it reads back: by DBL_DIG = 15 at most
    one decimal of 15 digits or fewer reads back as x, and it is N_15.
    Else they are N_16 if it reads back: off powers of two the interval
    that reads back as x is symmetric about x, so when it holds a 16-digit
    decimal it holds the closest one. Else N_17, which always reads back,
    since half a unit in its last digit, 10**(d-17) / 2, is less than half
    an ulp. Powers of two, ties (several closest candidates) and carries
    to 10**P (a shorter decimal in the next decade) are left out of
    `fast`, as is every x outside [1e-4, 1), where repr switches to
    exponent form below 1e-4. In [1e-4, 1) the first and the last cannot
    change the digits: its powers of two are decimals of at most 13
    digits, and a carry reads back only as the double nearest 10**d,
    which is not below 10**d for d = 0 .. -3 (_DECADES).

    Every integer step is in uint64: numpy turns uint64 with int64 into
    float64, which would round the limbs.
    """
    fast = (x >= 1e-4) & (x < 1.0)
    # 0.3 stands in for every other value, so that no step sees a nan
    x = np.where(fast, x, 0.3)
    mantissa, exponent = np.frexp(x)
    fast &= mantissa != 0.5
    decade = 1 + sum(x >= power for power in _DECADES)
    m = (mantissa * 2.0 ** 53).astype(np.uint64)
    five = _POW5[21 - decade]
    t = (32 + decade - exponent).astype(np.uint64)
    # Q = m * five in two limbs from 32-bit halves; m < 2**53, five < 2**47
    m_lo, m_hi = m & 0xFFFFFFFF, m >> 32
    f_lo, f_hi = five & 0xFFFFFFFF, five >> 32
    limb_lo = m_lo * f_lo
    mid = m_hi * f_lo + m_lo * f_hi + (limb_lo >> 32)
    limb_hi = m_hi * f_hi + (mid >> 32)
    limb_lo = (mid << 32) | (limb_lo & 0xFFFFFFFF)
    q = (limb_hi << (64 - t)) | (limb_lo >> t)
    r = limb_lo & ((1 << t) - 1)

    # a tie at any P needs r = 0 or 2**(t-1), so M with 35 or more
    # trailing zero bits; such x take repr
    fast &= (r << (65 - t)) != 0
    # P = 17, then 16 and 15 where they read back
    twice = r << 1
    unit = 1 << t
    value = q + (twice > unit)
    for scale in (10, 100):
        unit = unit * 10
        rounded = q // scale
        twice_rest = ((q - rounded * scale) << (t + 1)) | twice
        up = twice_rest > unit
        reads_back = np.where(up, (unit << 1) - twice_rest, twice_rest) < five
        value = np.where(reads_back, (rounded + up) * scale, value)
    fast &= value < 10 ** 17

    # the digits after "0.": x 10**20 = value 10**(decade - 1), written as
    # 12 + 8 digits, as value 10**3 may exceed 2**64
    scale = 10 ** (decade - 1).astype(np.uint64)
    upper = value // 10 ** 8
    lower = (value - upper * 10 ** 8) * scale
    carry = lower // 10 ** 8
    return fast, _quad_text(_base_quad(upper * scale + carry, 3)
                            + _base_quad(lower - carry * 10 ** 8, 2), _TRAILING)


def _csv_rows(values: np.ndarray, start: int) -> str:
    """The CSV rows of the float64 `values`, the first one trial `start`:
    the text of "%d,%r\\n" for each (start + i, values[i]). The rows are
    built as one uint8 matrix in which the bytes to leave out are NUL.
    Values in [1e-4, 1), fidelities among them, take `_shortest_digits`;
    every other value is formatted by repr."""
    n = len(values)
    fast, fraction = _shortest_digits(values)
    slow = np.flatnonzero(~fast)
    texts = [repr(value).encode() for value in values[slow].tolist()]
    field = max([22] + [len(text) for text in texts])

    index = _quad_text(_base_quad(np.arange(start, start + n, dtype=np.uint64),
                                  -(-len(str(start + n - 1)) // 4)), _LEADING)
    at = index.shape[1] + 1
    rows = np.zeros((n, at + field + 1), np.uint8)
    rows[:, :at - 1] = index
    if start == 0:  # every digit of index 0 is a leading zero
        rows[0, at - 2] = ord("0")
    rows[:, at - 1:at + 2] = np.frombuffer(b",0.", np.uint8)
    rows[:, at + 2:at + 22] = fraction
    for row, text in zip(slow.tolist(), texts):
        rows[row, at:at + field] = np.frombuffer(text.ljust(field, b"\0"), np.uint8)
    rows[:, -1] = ord("\n")
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def write_csv(path: str, samples: np.ndarray) -> None:
    """Write the per-trial CSV of `samples`: the header, then one row per
    trial, built one chunk of trials at a time."""
    with open(path, "w") as handle:
        handle.write("trial,fidelity\n")
        for start, stop in chunks(len(samples)):
            handle.write(_csv_rows(samples[start:stop], start))


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
