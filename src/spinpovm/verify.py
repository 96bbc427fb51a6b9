"""Resolution-of-identity checks for rank-one POVMs on the symmetric subspace.

Two independent routes are always available: the operator check builds
sum_r c_r v_r v_r^dag from the embedded symmetric vectors and measures its
Frobenius distance from the identity, while the scalar check probes
sum_r c_r |<psi|psi_r>|^(2N) = 1 at Haar-random states without ever
touching the embedding. Agreement of the two guards against bugs in
either path.
"""

from collections.abc import Iterator

import numpy as np

from .blas import one_blas_thread
from .povm import Povm
from .reports import Check, VerificationReport
from .sampling import CHUNK, chunks, haar_random_states
from .symmetric import _frobenius_identity_residual, sym_dim, symmetric_power_matrix

# Fewest rows per kernel block, the rows of each from k = 320 on: at k = 720
# 128 rows of overlaps (1.5 MB) stay in cache, 4096 would stream from memory.
_BLOCK = 128
# Fewest elements (rows x outcomes) per block above _BLOCK rows, so that a
# few-outcome POVM runs fewer, larger blocks: at k = 40-60 a 128-row block
# is so small that fixed numpy call costs dominate. Of 20480, 40960, 61440
# and 92160, this budget was the fastest for `simulate` at k = 40-60.
_BLOCK_ELEMENTS = 40960
# Byte alignment of the kernel buffers: one cache line, and one AVX-512 vector.
_ALIGN = 64


def block_rows(k: int) -> int:
    """Most rows per kernel block for k outcomes, in the scalar check and
    `simulate` alike. Buffers need this many rows, or all the probes if
    fewer: a short last chunk can split into larger blocks than a full one."""
    return max(_BLOCK, _BLOCK_ELEMENTS // k)


def blocks(rows: int, most: int) -> Iterator[tuple[int, int]]:
    """Even (lo, hi) ranges of at most `most` rows covering range(rows)."""
    # Even blocks have one row only when the chunk has one: numpy
    # multiplies a single row with another BLAS routine, whose last bits
    # differ from the rows of a many-row product.
    count = -(-rows // most)
    for block in range(count):
        yield rows * block // count, rows * (block + 1) // count


def kernel_buffers(povm: Povm, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Buffers for `outcome_probabilities` on up to `rows` probe states: the
    complex overlaps and their squared moduli, each starting on a 64-byte
    boundary.

    numpy takes a large array from glibc's mmap, whose chunk header puts the
    data at 16 mod 64 bytes, so every AVX-512 load of an elementwise pass
    split two cache lines: aligned, `outcome_probabilities` took 255-257
    against 274-276 ms over 100k serial trials of table1-N5
    (`tools/kernel_stages.py`, 2-vCPU Xeon, BLAS on one thread). The
    probabilities view, and every `[:rows]` slice, start where their
    buffer does, so they are aligned too.
    """
    return (_aligned_empty((rows, povm.size), complex),
            _aligned_empty((rows, povm.size), np.float64))


def _aligned_empty(shape: tuple, dtype) -> np.ndarray:
    """Uninitialized C-contiguous array of `shape` whose data starts on a
    64-byte boundary: a slice of a 64-byte larger byte array."""
    nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + _ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % _ALIGN
    return raw[start:start + nbytes].view(dtype).reshape(shape)


def outcome_probabilities(povm: Povm, psis: np.ndarray,
                          buffers: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(|<psi_r|psi>|^2, c_r |<psi_r|psi>|^(2N)) for each probe state (row of psis).

    Each row of the probabilities sums to 1 when the POVM resolves the
    identity. Both arrays live in `buffers` (from `kernel_buffers`), which
    callers may overwrite and the next call with them does: a caller that
    runs block after block reuses one set instead of leaving the memory
    allocator to return freed pages to the system and fault them in again.
    """
    rows = len(psis)
    overlaps, overlaps_sq = (buffer[:rows] for buffer in buffers)
    np.matmul(psis.conj(), povm.states.T, out=overlaps)
    np.abs(overlaps, out=overlaps_sq)
    overlaps_sq *= overlaps_sq
    # the overlaps are spent: the probabilities take the first half of their
    # memory, which is still in cache. A third buffer measured 5% slower on
    # the 20k-trial k = 40 CSV op of the cli-mix benchmark, and it raised
    # the benchmark's peak RSS.
    probs = overlaps.view(np.float64).reshape(-1)[:overlaps_sq.size].reshape(overlaps_sq.shape)
    if povm.copies > 1:
        np.multiply(overlaps_sq, overlaps_sq, out=probs)
    else:
        probs[...] = overlaps_sq
    for _ in range(povm.copies - 2):
        probs *= overlaps_sq
    probs *= povm.weights
    return overlaps_sq, probs


def verify_completeness(povm: Povm) -> VerificationReport:
    """Operator check: Frobenius residual against the identity, plus the weight sum.

    The trace of the identity fixes sum_r c_r = C(N+D-1, D-1), so the
    weight sum is reported as its own residual.
    """
    vectors = symmetric_power_matrix(povm.states, povm.copies)
    frobenius = _frobenius_identity_residual(povm.weights, vectors)
    expected_sum = sym_dim(povm.dim, povm.copies)
    checks = (
        Check("completeness-frobenius", frobenius),
        Check("weight-sum", abs(povm.weight_sum - expected_sum)),
    )
    return VerificationReport(_povm_id(povm), checks)


def verify_scalar_identity(povm: Povm, trials: int,
                           rng: np.random.Generator) -> VerificationReport:
    """Scalar check: worst deviation of the weighted overlap sum from 1.

    Probes `trials` Haar-random states of the POVM's dimension through
    the kernel `simulate` samples from, with numpy's OpenBLAS on one
    thread; deterministic for a fixed generator state.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    worst = 0.0
    most = block_rows(povm.size)
    buffers = kernel_buffers(povm, min(trials, CHUNK, most))
    with one_blas_thread():
        for start, stop in chunks(trials):
            psis = haar_random_states(povm.dim, stop - start, rng)
            for lo, hi in blocks(stop - start, most):
                _, probs = outcome_probabilities(povm, psis[lo:hi], buffers)
                worst = max(worst, float(np.max(np.abs(probs.sum(axis=1) - 1.0))))
    return VerificationReport(
        _povm_id(povm), (Check("scalar-identity", worst),))


def _povm_id(povm: Povm) -> str:
    return povm.provenance or f"povm-D{povm.dim}-N{povm.copies}"
