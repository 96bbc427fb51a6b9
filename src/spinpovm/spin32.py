"""Spin-3/2 (D = 4) ray catalogs and the Bloch-moment identities they satisfy.

Two catalogs are bundled: the 40 rays of the Penrose dodecahedron (20
"explicit" rays along dodecahedron vertices plus 20 "implicit" partners)
and a 60-ray set whose first 24 members form the Peres Kochen-Specker
configuration. With a single uniform weight per catalog, either set
resolves the identity on the symmetric subspace of N = 2 or 3 copies; the
checks here express that through moments of pairwise Bloch-vector dot
products, recovered from state overlaps via

    |<a|b>|^2 = (1 + 2J n_a.n_b) / (2J + 1),   D = 2J + 1.
"""

from dataclasses import dataclass

import numpy as np

from .povm import AGGREGATE_TOL, Povm, normalized, unit_rows
from .reports import Check, VerificationReport
from .verify import _povm_id

PHASE = np.exp(1j * np.pi / 3)  # the phase p; p^3 = -1

_TOKENS = {
    "0": 0.0,
    "1": 1.0,
    "-1": -1.0,
    "i": 1j,
    "-i": -1j,
    "p": PHASE,
    "p^2": PHASE ** 2,
    "p^-1": PHASE ** -1,
    "p^-2": PHASE ** -2,
}

PENROSE40 = "penrose40"
SET60 = "set60"

# Catalog entries exactly as printed in the source tables (row-major),
# normalized numerically at load. Basis convention: F, B, E, A' are the
# four coordinate unit vectors.
_PENROSE_ROWS = (
    ("A", ("1", "p", "p^2", "0")), ("F", ("1", "0", "0", "0")),
    ("B", ("0", "1", "0", "0")), ("E", ("0", "0", "1", "0")),
    ("L", ("-1", "0", "p^2", "1")), ("G", ("0", "-1", "p", "1")),
    ("C", ("p^2", "1", "0", "1")), ("D", ("p", "0", "1", "1")),
    ("J", ("0", "p^2", "1", "-1")), ("K", ("1", "p^-2", "0", "1")),
    ("R", ("0", "p", "-1", "1")), ("M", ("p^-1", "0", "1", "1")),
    ("H", ("1", "0", "p", "-1")), ("I", ("1", "p^2", "0", "1")),
    ("P", ("p^-2", "1", "0", "1")), ("Q", ("0", "1", "p^2", "-1")),
    ("S", ("1", "1", "0", "1")), ("N", ("0", "1", "1", "-1")),
    ("U", ("-1", "0", "1", "1")), ("T", ("p^2", "p", "1", "0")),
    ("A'", ("0", "0", "0", "1")), ("F'", ("0", "p^2", "1", "p")),
    ("B'", ("p", "0", "1", "p^2")), ("E'", ("p^-2", "p^2", "0", "1")),
    ("L'", ("0", "1", "1", "p")), ("G'", ("1", "0", "-1", "p^-1")),
    ("C'", ("1", "0", "-1", "p")), ("D'", ("1", "1", "0", "p^2")),
    ("J'", ("1", "1", "0", "p^-2")), ("K'", ("0", "1", "1", "p^-1")),
    ("R'", ("-1", "1", "p^-1", "0")), ("M'", ("-1", "1", "p", "0")),
    ("H'", ("p^2", "-1", "1", "0")), ("I'", ("p", "1", "-1", "0")),
    ("P'", ("1", "p^-1", "1", "0")), ("Q'", ("1", "p", "1", "0")),
    ("S'", ("1", "p^2", "0", "p^-2")), ("N'", ("0", "1", "p^2", "p")),
    ("U'", ("p", "0", "p^2", "1")), ("T'", ("1", "-1", "1", "0")),
)

_SET60_ROWS = (
    ("1", "0", "0", "0"), ("0", "1", "0", "0"), ("0", "0", "1", "0"), ("0", "0", "0", "1"),
    ("1", "1", "1", "1"), ("-1", "1", "-1", "1"), ("-1", "-1", "1", "1"), ("1", "-1", "-1", "1"),
    ("1", "1", "1", "-1"), ("1", "-1", "-1", "-1"), ("1", "-1", "1", "1"), ("1", "1", "-1", "1"),
    ("1", "0", "1", "0"), ("0", "1", "0", "1"), ("1", "0", "-1", "0"), ("0", "1", "0", "-1"),
    ("1", "1", "0", "0"), ("1", "-1", "0", "0"), ("0", "0", "1", "1"), ("0", "0", "1", "-1"),
    ("-1", "0", "0", "-1"), ("0", "-1", "-1", "0"), ("-1", "0", "0", "1"), ("0", "-1", "1", "0"),
    ("1", "i", "i", "1"), ("1", "-i", "-i", "1"), ("1", "-i", "i", "-1"), ("1", "i", "-i", "-1"),
    ("-1", "1", "-i", "-i"), ("-1", "-1", "i", "-i"), ("-1", "-1", "-i", "i"), ("-1", "1", "i", "i"),
    ("-1", "-i", "1", "-i"), ("-1", "i", "-1", "-i"), ("-1", "-i", "-1", "i"), ("-1", "i", "1", "i"),
    ("1", "0", "0", "i"), ("1", "0", "0", "-i"), ("0", "1", "i", "0"), ("0", "1", "-i", "0"),
    ("1", "0", "i", "0"), ("1", "0", "-i", "0"), ("0", "1", "0", "i"), ("0", "1", "0", "-i"),
    ("1", "i", "i", "-1"), ("1", "-i", "-i", "-1"), ("1", "i", "-i", "1"), ("1", "-i", "i", "1"),
    ("1", "i", "0", "0"), ("1", "-i", "0", "0"), ("0", "0", "1", "i"), ("0", "0", "1", "-i"),
    ("1", "i", "1", "i"), ("1", "-i", "1", "-i"), ("1", "i", "-1", "-i"), ("1", "-i", "-1", "i"),
    ("1", "1", "i", "i"), ("1", "-1", "i", "-i"), ("1", "1", "-i", "-i"), ("1", "-1", "-i", "i"),
)

# Uniform catalog weights that resolve the identity for N copies.
CATALOG_WEIGHTS = {
    (PENROSE40, 2): 1 / 4,
    (PENROSE40, 3): 1 / 2,
    (SET60, 2): 1 / 6,
    (SET60, 3): 1 / 3,
}


@dataclass(frozen=True)
class RayCatalog:
    """A named, ordered set of unit rays in C^D."""

    label: str
    names: tuple
    states: np.ndarray  # (k, D) unit rows

    def __post_init__(self):
        object.__setattr__(self, "states", unit_rows(self.states))

    @property
    def size(self) -> int:
        return self.states.shape[0]


def _parse_row(entries) -> np.ndarray:
    try:
        raw = [_TOKENS[entry] for entry in entries]
    except KeyError as err:
        raise ValueError(f"unknown catalog entry {err.args[0]!r}") from None
    return normalized(np.array(raw, dtype=complex))


def penrose_states() -> RayCatalog:
    """The 40 rays of the Penrose dodecahedron, normalized."""
    names = tuple(name for name, _ in _PENROSE_ROWS)
    states = np.array([_parse_row(entries) for _, entries in _PENROSE_ROWS])
    return RayCatalog(label=PENROSE40, names=names, states=states)


def set60_states() -> RayCatalog:
    """The 60-ray set, normalized; rays 1..24 are the Peres configuration."""
    names = tuple(str(i + 1) for i in range(len(_SET60_ROWS)))
    states = np.array([_parse_row(entries) for entries in _SET60_ROWS])
    return RayCatalog(label=SET60, names=names, states=states)


def catalog(label: str) -> RayCatalog:
    """Load a bundled catalog by name."""
    if label == PENROSE40:
        return penrose_states()
    if label == SET60:
        return set60_states()
    raise ValueError(f"unknown catalog {label!r}; expected {PENROSE40!r} or {SET60!r}")


def bloch_dot(a, b) -> float:
    """Scalar product of the generalized Bloch vectors of two pure states.

    Recovered from the overlap: ((2J+1)|<a|b>|^2 - 1) / (2J), with
    2J + 1 = D the length of the vectors. Equals 1 iff the rays coincide
    and -1/(2J) iff they are orthogonal.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError(f"expected two vectors of one dimension >= 2, got {a.shape} and {b.shape}")
    overlap_sq = abs(np.vdot(a, b)) ** 2
    return float((a.size * overlap_sq - 1.0) / (a.size - 1))


def _bloch_dot_matrix(states: np.ndarray) -> np.ndarray:
    """Pairwise Bloch dots of the rows; D = 2J + 1 is the row length."""
    dim = states.shape[1]
    gram = states.conj() @ states.T
    return (dim * np.abs(gram) ** 2 - 1.0) / (dim - 1)


def traceless_hermitian_basis(dim: int) -> np.ndarray:
    """dim^2 - 1 traceless Hermitian matrices with Tr(L_a L_b) = 2 delta_ab."""
    mats = []
    for k in range(dim):
        for j in range(k):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            mats.append(m)
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = -1j
            m[k, j] = 1j
            mats.append(m)
    for level in range(1, dim):
        m = np.zeros((dim, dim), dtype=complex)
        m[np.arange(level), np.arange(level)] = 1.0
        m[level, level] = -level
        mats.append(m * np.sqrt(2.0 / (level * (level + 1))))
    return np.array(mats)


def bloch_vector(state) -> np.ndarray:
    """Explicit unit Bloch vector of a pure state in R^(dim^2 - 1).

    Cross-check path for `bloch_dot`: expectation values of a
    trace-orthonormal Hermitian basis, scaled to unit length.
    """
    psi = np.asarray(state, dtype=complex)
    dim = psi.size
    basis = traceless_hermitian_basis(dim)
    raw = np.einsum("i,aij,j->a", psi.conj(), basis, psi).real
    return raw / np.sqrt(2.0 * (dim - 1) / dim)


@dataclass(frozen=True)
class BlochDotSpectrum:
    """Histogram of pairwise Bloch dots over a catalog, and per-state counts."""

    label: str
    values: tuple                 # sorted distinct dots, rounded to 1e-9
    pair_counts: dict             # value -> number of unordered pairs
    per_state: tuple              # one {value: neighbor count} dict per state
    names: tuple

    def to_dict(self) -> dict:
        fmt = "{:.9f}".format
        return {
            "catalog": self.label,
            "values": [float(v) for v in self.values],
            "pair_counts": {fmt(v): int(c) for v, c in self.pair_counts.items()},
            "per_state": [
                {"name": name, "counts": {fmt(v): int(c) for v, c in counts.items()}}
                for name, counts in zip(self.names, self.per_state)
            ],
        }


def _row_value_counts(rows: np.ndarray) -> list:
    """One {value: count} dict per row, keys in order of first occurrence.

    Each key is the first occurrence itself, so -0.0 and 0.0 are counted
    under whichever of them comes first in the row.
    """
    n, m = rows.shape
    order = np.argsort(rows, axis=1, kind="stable")
    ranked = np.take_along_axis(rows, order, axis=1)
    starts = np.ones((n, m), dtype=bool)
    starts[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    row_ids, pos = np.nonzero(starts)
    counts = np.diff(np.append(row_ids * m + pos, n * m))
    first = order[row_ids, pos]  # stable sort: the earliest index of each run
    keep = np.lexsort((first, row_ids))
    tables = [{} for _ in range(n)]
    for r, value, count in zip(row_ids[keep].tolist(), rows[row_ids, first][keep].tolist(),
                               counts[keep].tolist()):
        tables[r][value] = count
    return tables


def overlap_spectrum(cat: RayCatalog) -> BlochDotSpectrum:
    """Pairwise Bloch-dot spectrum of a catalog, rounded to 1e-9."""
    dots = np.round(_bloch_dot_matrix(cat.states), 9)
    k = cat.size
    off_diagonal = dots[~np.eye(k, dtype=bool)].reshape(k, k - 1)
    per_state = tuple(_row_value_counts(off_diagonal))
    pair_counts = _row_value_counts(dots[np.triu_indices(k, 1)][None, :])[0]
    values = tuple(sorted(pair_counts))
    return BlochDotSpectrum(label=cat.label, values=values, pair_counts=pair_counts,
                            per_state=per_state, names=cat.names)


def spin32_povm(cat: RayCatalog, copies: int) -> Povm:
    """Uniform-weight POVM from a bundled catalog for 2 or 3 copies."""
    key = (cat.label, copies)
    if key not in CATALOG_WEIGHTS:
        raise ValueError(
            f"no bundled weight for catalog {cat.label!r} with {copies} copies")
    weight = CATALOG_WEIGHTS[key]
    weights = np.full(cat.size, weight)
    return Povm(weights, cat.states, copies,
                provenance=f"{cat.label}-povm-N{copies}")


def hierarchy_targets(spin: float, copies: int) -> tuple:
    """Right-hand sides (weight sum, then Bloch-dot moment values) for N = 2 or 3."""
    j2 = 2 * spin
    if copies == 2:
        return ((j2 + 1) * (spin + 1),
                0.0,
                (j2 + 1) / (2 * j2))
    if copies == 3:
        return ((j2 + 3) * (j2 + 1) * (spin + 1) / 3,
                0.0,
                (j2 + 3) * (j2 + 1) / (6 * j2),
                (j2 + 1) * (j2 - 1) / (3 * j2 ** 2))
    raise ValueError(f"moment hierarchy is defined for 2 or 3 copies, got {copies}")


def verify_hierarchy(povm: Povm, tolerance: float = AGGREGATE_TOL) -> VerificationReport:
    """Check the moment hierarchy of a two- or three-copy POVM.

    Residuals of sum_r c_r = total and sum_r c_r (n_r.n_s)^m = target_m
    for every s: the 2k+1 two-copy equations take the first two dot
    moments, the 3k+1 three-copy equations the first three.
    """
    total, *moment_targets = hierarchy_targets(povm.spin, povm.copies)
    dots = _bloch_dot_matrix(povm.states)
    checks = [Check("weight-sum", abs(povm.weight_sum - total), tolerance)]
    names = ("bloch-moment-1", "bloch-moment-2", "bloch-moment-3")
    for power, (name, target) in enumerate(zip(names, moment_targets), start=1):
        sums = (dots ** power).T @ povm.weights  # one value per s
        checks.append(Check(name, float(np.max(np.abs(sums - target))), tolerance))
    return VerificationReport(_povm_id(povm), tuple(checks))


def reduce_n3_to_n2(povm: Povm, tolerance: float = AGGREGATE_TOL) -> Povm:
    """Turn a valid three-copy POVM into a two-copy one.

    Scales every weight by 3/(2J+3), which maps the three-copy moment
    equations onto the two-copy ones. The input must pass the three-copy
    hierarchy.
    """
    if povm.copies != 3:
        raise ValueError(f"expected a three-copy POVM, got copies = {povm.copies}")
    report = verify_hierarchy(povm, tolerance)
    if not report.passed:
        raise ValueError(
            f"input fails the three-copy hierarchy (worst residual {report.worst:.3e})")
    factor = 3.0 / (2 * povm.spin + 3)
    return Povm(povm.weights * factor, povm.states, 2,
                provenance=f"{povm.provenance or 'spin32'}-reduced-N2")
