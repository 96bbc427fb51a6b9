"""Shared POVM container and the tolerance policy used across the package."""

import numbers
from dataclasses import dataclass

import numpy as np

# Constructive identities (norms, Hermiticity) hold to near machine precision.
# Aggregate identities summed over hundreds of floating terms get headroom.
CONSTRUCTIVE_TOL = 1e-12
AGGREGATE_TOL = 1e-9


def unit_rows(states) -> np.ndarray:
    """Validate a (k, dim) block of pure states: k >= 1, dim >= 2, finite
    entries, unit rows.

    Returns the rows as a fresh read-only complex array. Raises ValueError
    for anything else.
    """
    try:
        rows = np.array(states, dtype=complex)
    except (TypeError, ValueError) as err:
        raise ValueError(f"malformed state data: {err}") from None
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError(f"states must be a non-empty (k, dim) matrix, got shape {rows.shape}")
    if rows.shape[1] < 2:
        raise ValueError("states must have dimension >= 2")
    if not np.all(np.isfinite(rows)):
        raise ValueError("states contain non-finite amplitudes")
    sq_norms = np.sum(np.abs(rows) ** 2, axis=1)
    worst = float(np.max(np.abs(sq_norms - 1.0)))
    if worst > CONSTRUCTIVE_TOL:
        raise ValueError(f"states are not normalized (worst |psi|^2 error {worst:.3e})")
    rows.setflags(write=False)
    return rows


def normalized(vec) -> np.ndarray:
    """Normalize an amplitude vector, rejecting zero or non-finite input."""
    arr = np.array(vec, dtype=complex)
    if arr.ndim != 1:
        raise ValueError(f"state must be a vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("state contains non-finite amplitudes")
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return arr / norm


@dataclass(frozen=True)
class Povm:
    """Weighted rank-one POVM acting on the symmetric subspace of `copies` qudits.

    Element r is the operator weights[r] * |s_r><s_r|^(x copies) with
    |s_r> = states[r]. Resolution of the identity requires the weights to
    sum to the symmetric-subspace dimension; see `verify.verify_completeness`.
    """

    weights: np.ndarray  # (k,) non-negative
    states: np.ndarray   # (k, dim) unit rows
    copies: int
    provenance: str = ""

    def __post_init__(self):
        states = unit_rows(self.states)
        try:
            weights = np.array(self.weights, dtype=float)
        except (TypeError, ValueError) as err:
            raise ValueError(f"malformed POVM weights: {err}") from None
        if weights.ndim != 1:
            raise ValueError("weights must be a vector")
        if weights.shape[0] != states.shape[0]:
            raise ValueError(
                f"{weights.shape[0]} weights for {states.shape[0]} states"
            )
        # bool is an Integral, and int() would truncate 2.7 to 2
        if isinstance(self.copies, bool) or not isinstance(self.copies, numbers.Integral):
            raise ValueError(f"copies must be an integer, got {self.copies!r}")
        if self.copies < 1:
            raise ValueError(f"copies must be >= 1, got {self.copies}")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise ValueError("weights must be finite and non-negative")
        if not isinstance(self.provenance, str):
            raise ValueError(f"provenance must be a string, got {self.provenance!r}")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "copies", int(self.copies))

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def size(self) -> int:
        return self.states.shape[0]

    @property
    def spin(self) -> float:
        """Spin value J with dim = 2J + 1."""
        return (self.dim - 1) / 2

    @property
    def weight_sum(self) -> float:
        return float(np.sum(self.weights))
