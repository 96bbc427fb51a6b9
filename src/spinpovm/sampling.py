"""Haar-uniform pure-state sampling from seeded generators."""

from collections.abc import Iterator

import numpy as np

# States are drawn this many at a time. Simulate draws one chunk of states,
# then one uniform per trial of that chunk, from the chunk's own generator,
# so this size fixes which stream values each trial consumes: changing it
# changes seeded reports.
CHUNK = 4096


def haar_random_states(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` Haar-uniform pure states as unit rows of a (count, dim) array.

    Each row is a vector of independent standard complex Gaussians,
    normalized; unitary invariance of the Gaussian makes the result
    uniform on the projective space. Deterministic for a fixed generator
    state.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    # one contiguous row of draws per state, so batching does not change
    # which stream values any given state consumes
    block = rng.standard_normal((count, 2 * dim))
    z = np.empty((count, dim), dtype=complex)
    z.real = block[:, :dim]
    z.imag = block[:, dim:]
    # the norm np.linalg.norm computes; complex division by c + 0i is
    # (a + b*0) * (1/c), so scaling by the reciprocal gives the same bits
    norms = np.sqrt(np.add.reduce((z.conj() * z).real, axis=1, keepdims=True))
    z *= 1.0 / norms
    return z


def chunks(total: int) -> Iterator[tuple[int, int]]:
    """Consecutive (start, stop) ranges of CHUNK trials, the last one shorter,
    covering range(total)."""
    for start in range(0, total, CHUNK):
        yield start, min(start + CHUNK, total)
