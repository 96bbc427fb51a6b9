"""Spin-3/2 (D = 4) ray catalogs, their Bloch-dot spectra and POVMs.

Two catalogs are bundled: the 40 rays of the Penrose dodecahedron (20
"explicit" rays along dodecahedron vertices plus 20 "implicit" partners)
and a 60-ray set whose first 24 members form the Peres Kochen-Specker
configuration. With one uniform weight each, both resolve the identity on
the symmetric subspace of N = 2 and 3 copies; `verify.verify_hierarchy`
checks their Bloch-moment identities, as it does for every POVM.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .povm import Povm, normalized, unit_rows
from .symmetric import sym_dim
from .verify import block_rows, blocks, bloch_dots, verify_hierarchy

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

@dataclass(frozen=True)
class RayCatalog:
    """A named, ordered set of unit rays in C^D."""

    label: str
    names: tuple
    states: np.ndarray  # (k, D) unit rows

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "states", unit_rows(self.states))
        if len(self.names) != self.size:
            raise ValueError(f"{len(self.names)} names for {self.size} states")
        if not isinstance(self.label, str):
            raise ValueError(f"catalog label must be a string, got {self.label!r}")
        for name in self.names:
            if not isinstance(name, str):
                raise ValueError(f"catalog names must be strings, got {name!r}")

    @property
    def size(self) -> int:
        return self.states.shape[0]


def _parse_row(entries) -> np.ndarray:
    try:
        raw = [_TOKENS[entry] for entry in entries]
    except KeyError as err:
        raise ValueError(f"unknown catalog entry {err.args[0]!r}") from None
    return normalized(np.array(raw, dtype=complex))


# label -> (names, rows) of every bundled catalog, and the copy counts at
# which each, uniformly weighted, is a POVM
CATALOGS = {
    PENROSE40: tuple(zip(*_PENROSE_ROWS)),
    SET60: (tuple(str(i + 1) for i in range(len(_SET60_ROWS))), _SET60_ROWS),
}
CATALOG_COPIES = (2, 3)


@functools.cache
def catalog(label: str) -> RayCatalog:
    """A bundled catalog by name: "penrose40" (the 40 Penrose rays) or
    "set60" (the 60 rays, of which 1..24 are the Peres configuration).

    Each catalog is built once per process, on first use, and shared; its
    states are read-only.
    """
    if label not in CATALOGS:
        raise ValueError(f"unknown catalog {label!r}; expected {' or '.join(map(repr, CATALOGS))}")
    names, rows = CATALOGS[label]
    states = np.array([_parse_row(entries) for entries in rows])
    return RayCatalog(label=label, names=names, states=states)


def traceless_hermitian_basis(dim: int) -> np.ndarray:
    """dim^2 - 1 traceless Hermitian matrices with Tr(L_a L_b) = 2 delta_ab."""
    mats = []
    for k in range(dim):
        for j in range(k):
            for entry in (1.0, -1j):  # the real and the imaginary off-diagonal pair
                m = np.zeros((dim, dim), dtype=complex)
                m[j, k] = entry
                m[k, j] = np.conj(entry)
                mats.append(m)
    for level in range(1, dim):
        m = np.zeros((dim, dim), dtype=complex)
        m[np.arange(level), np.arange(level)] = 1.0
        m[level, level] = -level
        mats.append(m * np.sqrt(2.0 / (level * (level + 1))))
    return np.array(mats)


def bloch_vector(state) -> np.ndarray:
    """Explicit unit Bloch vector of a pure state in R^(dim^2 - 1).

    Cross-check path for `bloch_dots`: expectation values of a
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
    pair_counts: dict             # value -> number of unordered pairs, ascending
    per_state: tuple              # one {value: neighbor count} dict per state, ascending
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


# The most distinct rounded values `overlap_spectrum` reports. The bundled
# catalogs have 2 and 3. 1024 random spin-3/2 rays have 523,589, whose
# `spectrum --in` took 3.1 s and 673 MB of peak RSS and wrote 16.8 MB to
# stdout and a 48.9 MB report; the spectrum of 91 random rays (4095
# values) takes 10 ms and a 0.3 MB report.
MAX_SPECTRUM_VALUES = 4096


def overlap_spectrum(cat: RayCatalog) -> BlochDotSpectrum:
    """Pairwise Bloch-dot spectrum of a catalog, rounded to 1e-9.

    A catalog of more than verify.MAX_BLOCH_ROWS rays, or with more than
    MAX_SPECTRUM_VALUES distinct values, raises ValueError before any count.
    Every dict is keyed in ascending value."""
    dots = bloch_dots(cat.states)
    np.round(dots, 9, out=dots)
    dots += 0.0  # -0.0 to 0.0: one zero key
    k = cat.size
    # counted on the sorted values: `np.unique` would import numpy.ma, 1.4 MB
    # of peak RSS. The pairs come from row slices: `np.triu_indices` took two
    # int64 index arrays as large as them, 48 of 80 MiB of peak at 2048 rows
    pairs = np.concatenate([row[s + 1:] for s, row in enumerate(dots)])[None]
    pairs.sort()
    starts = _run_starts(pairs)
    distinct = int(np.count_nonzero(starts))
    if distinct > MAX_SPECTRUM_VALUES:
        raise ValueError(f"catalog {cat.label!r} has {distinct} distinct Bloch dots, "
                         "too many for a spectrum: the bound is "
                         f"MAX_SPECTRUM_VALUES = {MAX_SPECTRUM_VALUES}")
    [pair_counts] = _run_counts(pairs, starts)
    per_state = []
    for lo, hi in blocks(k, block_rows(k)):
        block = dots[lo:hi]
        block[np.arange(hi - lo), np.arange(lo, hi)] = np.nan
        block.sort()
        off_diagonal = block[:, :-1]  # the NaN sorts last
        per_state += _run_counts(off_diagonal, _run_starts(off_diagonal))
    return BlochDotSpectrum(label=cat.label, values=tuple(pair_counts), pair_counts=pair_counts,
                            per_state=tuple(per_state), names=cat.names)


def _run_starts(rows: np.ndarray) -> np.ndarray:
    """Where each sorted row of the 2-D `rows` starts a run of equal values."""
    starts = np.ones(rows.shape, dtype=bool)
    np.not_equal(rows[:, 1:], rows[:, :-1], out=starts[:, 1:])
    return starts


def _run_counts(rows: np.ndarray, starts: np.ndarray) -> list[dict]:
    """One {value: run length} dict per sorted row of `rows`, in ascending
    value, from the row's run `starts`."""
    values = rows[starts].tolist()
    lengths = np.diff(np.flatnonzero(starts), append=starts.size).tolist()
    ends = np.cumsum(np.count_nonzero(starts, axis=1)).tolist()
    return [dict(zip(values[a:b], lengths[a:b])) for a, b in zip([0] + ends, ends)]


def spin32_povm(label: str, copies: int) -> Povm:
    """Uniform-weight POVM of the bundled catalog `label` at a CATALOG_COPIES
    copy count: each of its k rays weighs sym_dim(D, N)/k, so that the
    weights sum to the trace of the identity on the symmetric subspace."""
    if copies not in CATALOG_COPIES:
        raise ValueError(f"no bundled POVM of catalog {label!r} at {copies} copies; "
                         f"bundled copy counts: {', '.join(map(str, CATALOG_COPIES))}")
    cat = catalog(label)
    return Povm(np.full(cat.size, sym_dim(cat.states.shape[1], copies) / cat.size), cat.states,
                copies, provenance=f"{label}-povm-N{copies}")


def reduce_n3_to_n2(povm: Povm) -> Povm:
    """Turn a valid three-copy POVM into a two-copy one.

    Scales every weight by sym_dim(D, 2)/sym_dim(D, 3), which maps the
    three-copy moment equations onto the two-copy ones. The input must
    pass the three-copy hierarchy.
    """
    if povm.copies != 3:
        raise ValueError(f"expected a three-copy POVM, got copies = {povm.copies}")
    report = verify_hierarchy(povm)
    if not report.passed:
        raise ValueError(
            f"input fails the three-copy hierarchy (worst residual {report.worst:.3e})")
    factor = sym_dim(povm.dim, 2) / sym_dim(povm.dim, 3)
    return Povm(povm.weights * factor, povm.states, 2,
                provenance=f"{povm.provenance or 'spin32'}-reduced-N2")
