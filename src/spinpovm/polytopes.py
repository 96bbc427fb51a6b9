"""Vertex sets of the 24-cell and 600-cell on the unit sphere in R^4."""

import functools
import itertools
import math

import numpy as np

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0  # tau, with tau^2 = tau + 1

CELL24 = "24-cell"
CELL600 = "600-cell"
POLYTOPE_KINDS = (CELL24, CELL600)


def _cell24_vertices() -> np.ndarray:
    """The 24 unit vectors (+-1,+-1,+-1,+-1)/2 plus the 8 signed coordinate axes."""
    half_cube = [np.array(signs, dtype=float) / 2.0
                 for signs in itertools.product((1, -1), repeat=4)]
    axes = []
    for i in range(4):
        for sign in (1.0, -1.0):
            v = np.zeros(4)
            v[i] = sign
            axes.append(v)
    return np.array(half_cube + axes)


def _permutation_parity(perm) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def _even_permutations(n: int):
    return [p for p in itertools.permutations(range(n)) if _permutation_parity(p) == 1]


def _cell600_vertices() -> np.ndarray:
    """The 120 unit vectors of the 600-cell.

    The 24-cell vertices plus the 96 vectors obtained by acting with the
    12 even coordinate permutations on (+-tau, +-1, +-1/tau, 0)/2 over all
    8 sign patterns of the three nonzero slots.
    """
    template = np.array([GOLDEN, 1.0, 1.0 / GOLDEN, 0.0]) / 2.0
    extra = []
    for perm in _even_permutations(4):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            w = template * np.array([signs[0], signs[1], signs[2], 1.0])
            v = np.empty(4)
            v[list(perm)] = w
            extra.append(v)
    return np.vstack([_cell24_vertices(), np.array(extra)])


_BUILDERS = {CELL24: _cell24_vertices, CELL600: _cell600_vertices}


@functools.cache
def vertices(kind: str) -> np.ndarray:
    """Vertex set for a named polytope ("24-cell" or "600-cell").

    Each set is built once per process, on first use, and shared as a
    read-only array.
    """
    if kind not in _BUILDERS:
        raise ValueError(f"unknown polytope {kind!r}; expected one of {POLYTOPE_KINDS}")
    verts = _BUILDERS[kind]()
    verts.setflags(write=False)
    return verts
