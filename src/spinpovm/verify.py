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
# No other floor won at both k = 480 and 720: with the pick finished once
# per chunk, 100k trials of table1-N4 and N5 took 60.4-61.5 and 87.8-89.6
# ms with a floor of 64, 59.6-59.9 and 87.4-88.4 with 96, 59.0-59.4 and
# 91.2-91.8 with 128 and 61.4-62.3 and 117.7-118.1 with 192 (medians of 9
# in two rounds, 2 vCPUs, BLAS on one thread, forked worker).
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
    """The real factor matrix of the POVM's states, and the buffer of
    `outcome_probabilities` on up to `rows` probe states.

    The factor is (2, 2D, k): a probe state, read as 2D interleaved doubles
    (re, im), times half 0 gives Re <psi_r|psi> and times half 1 gives
    Im <psi_r|psi>, for every element r. It is 69 KB at k = 720, D = 3.

    The buffer is two halves, which take the real and the imaginary parts
    of a block's overlaps, then the squared moduli and the probabilities.
    Each half's stride is padded to whole cache lines, so that both halves
    of every block's slice start on a 64-byte boundary, as the buffer and
    the factor do. numpy takes a large array from glibc's mmap, whose chunk
    header puts the data at 16 mod 64 bytes, so every AVX-512 load of an
    elementwise pass split two cache lines: aligned, `outcome_probabilities`
    took 255-257 against 274-276 ms over 100k serial trials of table1-N5
    (`tools/kernel_stages.py`, 2-vCPU Xeon, BLAS on one thread).
    """
    k = povm.size
    factor = _aligned_empty((2, povm.dim, 2, k))
    states = povm.states.T
    factor[0, :, 0] = factor[1, :, 1] = states.real
    factor[1, :, 1] *= -1.0
    factor[0, :, 1] = factor[1, :, 0] = states.imag
    line = _ALIGN // 8  # doubles per cache line
    half = -(-rows * k // line) * line
    return factor.reshape(2, 2 * povm.dim, k), _aligned_empty((2, half))


def _aligned_empty(shape: tuple) -> np.ndarray:
    """Uninitialized C-contiguous array of doubles of `shape` whose data
    starts on a 64-byte boundary: a slice of a 64-byte larger byte array."""
    nbytes = int(np.prod(shape)) * 8
    raw = np.empty(nbytes + _ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % _ALIGN
    return raw[start:start + nbytes].view(np.float64).reshape(shape)


def outcome_probabilities(povm: Povm, psis: np.ndarray,
                          buffers: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(|<psi_r|psi>|^2, c_r |<psi_r|psi>|^(2N)) for each probe state (row of psis).

    Each row of the probabilities sums to 1 when the POVM resolves the
    identity. Both arrays live in `buffers` (from `kernel_buffers`), which
    callers may overwrite and the next call with them does: a caller that
    runs block after block reuses one set instead of leaving the memory
    allocator to return freed pages to the system and fault them in again.
    """
    factor, halves = buffers
    rows, k = len(psis), povm.size
    parts = halves[:, :rows * k].reshape(2, rows, k)
    # |z|^2 as re^2 + im^2 from one real product: np.abs of the complex
    # overlaps, a hypot with a divide and a square root per element, took
    # 0.91 of 2.47 us per trial at table1-N5
    np.matmul(psis.view(np.float64), factor, out=parts)
    overlaps_sq, probs = parts
    overlaps_sq *= overlaps_sq
    probs *= probs
    overlaps_sq += probs
    # the imaginary parts are spent: the probabilities take their memory,
    # which is still in cache. A third buffer for the squared moduli took
    # 121 against 102 ms over 100k trials of table1-N5 (medians of 9, 2
    # vCPUs, BLAS on one thread).
    _power(overlaps_sq, povm.copies, probs)
    probs *= povm.weights
    return overlaps_sq, probs


def _power(x: np.ndarray, exponent: int, out: np.ndarray) -> None:
    """x^exponent into `out`, exponent >= 1, by repeated squaring from the
    top bit down: one pass per bit below the top one, and one more per set
    bit among them (2 passes at exponent 4, 3 at 5). A product of n factors
    in any order is within gamma_(n-1) of its exact value, relative to it."""
    base = x
    for bit in bin(exponent)[3:]:
        np.multiply(base, base, out=out)
        base = out
        if bit == "1":
            out *= x
    if exponent == 1:
        out[...] = x


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
                # np.maximum carries a NaN through, where Python's max drops it
                worst = float(np.maximum(worst, np.max(np.abs(probs.sum(axis=1) - 1.0))))
    return VerificationReport(
        _povm_id(povm), (Check("scalar-identity", worst),))


def _povm_id(povm: Povm) -> str:
    return povm.provenance or f"povm-D{povm.dim}-N{povm.copies}"
