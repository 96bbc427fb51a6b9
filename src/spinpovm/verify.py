"""Resolution-of-identity checks for rank-one POVMs on the symmetric subspace.

Three routes run on every POVM: the operator check builds sum_r c_r v_r
v_r^dag from the embedded symmetric vectors and measures its Frobenius
distance from the identity; the scalar check probes sum_r c_r
|<psi|psi_r>|^(2N) = 1 at Haar-random states without the embedding; the
moment hierarchy sums powers of pairwise Bloch dots, from the same overlap
product, against exact Haar values. Their agreement guards against bugs.
"""

import math
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
    """Most rows per kernel block for k outcomes, in `simulate`, the scalar
    check and the moment hierarchy alike. Buffers need this many rows, or all the probes if
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


def kernel_buffers(states: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The real factor matrix of the (k, D) array `states`, a POVM's or a
    catalog's, and the buffer of `_squared_overlaps` on up to `rows` probe states.

    The factor is (2, 2D, k): a probe state, read as 2D interleaved doubles
    (re, im), times half 0 gives Re <psi_r|psi> and times half 1 gives
    Im <psi_r|psi>, for every element r. It is 69 KB at k = 720, D = 3.

    The buffer is two halves: the real and the imaginary parts of a block's
    overlaps, then the squared moduli (or Bloch dots) and their powers.
    Each half's stride is padded to whole cache lines, so that both halves
    of every block's slice start on a 64-byte boundary, as the buffer and
    the factor do. numpy takes a large array from glibc's mmap, whose chunk
    header puts the data at 16 mod 64 bytes, so every AVX-512 load of an
    elementwise pass split two cache lines: aligned, `outcome_probabilities`
    took 255-257 against 274-276 ms over 100k serial trials of table1-N5
    (`tools/kernel_stages.py`, 2-vCPU Xeon, BLAS on one thread).
    """
    k, dim = states.shape
    factor = _aligned_empty((2, dim, 2, k))
    factor[0, :, 0] = factor[1, :, 1] = states.T.real
    factor[1, :, 1] *= -1.0
    factor[0, :, 1] = factor[1, :, 0] = states.T.imag
    line = _ALIGN // 8  # doubles per cache line
    half = -(-rows * k // line) * line
    return factor.reshape(2, 2 * dim, k), _aligned_empty((2, half))


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
    overlaps_sq, probs = _squared_overlaps(psis, buffers)
    # the imaginary parts are spent: the probabilities take their memory,
    # which is still in cache. A third buffer for the squared moduli took
    # 121 against 102 ms over 100k trials of table1-N5 (medians of 9, 2
    # vCPUs, BLAS on one thread).
    _power(overlaps_sq, povm.copies, probs)
    probs *= povm.weights
    return overlaps_sq, probs


def _squared_overlaps(psis: np.ndarray, buffers: tuple) -> np.ndarray:
    """A (2, rows, k) view of `buffers`: |<psi_r|psi>|^2 for each probe state
    (row of psis) and element r, then a half free for the caller to use."""
    factor, halves = buffers
    rows, k = len(psis), factor.shape[-1]
    parts = halves[:, :rows * k].reshape(2, rows, k)
    # |z|^2 as re^2 + im^2 from one real product: np.abs of the complex
    # overlaps, a hypot with a divide and a square root per element, took
    # 0.91 of 2.47 us per trial at table1-N5
    np.matmul(psis.view(np.float64), factor, out=parts)
    overlaps_sq, spare = parts
    overlaps_sq *= overlaps_sq
    spare *= spare
    overlaps_sq += spare
    return parts


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
    buffers = kernel_buffers(povm.states, min(trials, CHUNK, most))
    with one_blas_thread():
        for start, stop in chunks(trials):
            psis = haar_random_states(povm.dim, stop - start, rng)
            for lo, hi in blocks(stop - start, most):
                _, probs = outcome_probabilities(povm, psis[lo:hi], buffers)
                # np.maximum carries a NaN through, where Python's max drops it
                worst = float(np.maximum(worst, np.max(np.abs(probs.sum(axis=1) - 1.0))))
    return VerificationReport(
        _povm_id(povm), (Check("scalar-identity", worst),))


# The most rows `bloch_dots` takes: the two k x k halves of its kernel buffer
# are then at most 64 MiB, where a document of a few MB could ask for gigabytes.
MAX_BLOCH_ROWS = 2048


def bloch_dots(states) -> np.ndarray:
    """Pairwise dots n_a.n_b of the rows' Bloch vectors, from |<a|b>|^2 =
    (1 + 2J n_a.n_b)/(2J + 1), D = 2J + 1 the row length: 1 iff two rays
    coincide, -1/(2J) iff orthogonal. More than MAX_BLOCH_ROWS rows raise ValueError."""
    # C-contiguous, as `_squared_overlaps` reads each row as interleaved doubles
    states = np.ascontiguousarray(states, dtype=complex)
    if states.ndim != 2 or states.shape[1] < 2:
        raise ValueError(f"expected rows of one dimension >= 2, got shape {states.shape}")
    if states.shape[0] > MAX_BLOCH_ROWS:
        raise ValueError(f"{states.shape[0]} rows are too many for the Bloch-dot matrix: "
                         f"the bound is MAX_BLOCH_ROWS = {MAX_BLOCH_ROWS}")
    with one_blas_thread():
        dots, _ = _squared_overlaps(states, kernel_buffers(states, len(states)))
    return _bloch_map(dots, states.shape[1])


def _bloch_map(overlaps_sq: np.ndarray, dim: int) -> np.ndarray:
    """The Bloch dots (D x - 1) / (D - 1) of squared overlaps x, in place."""
    overlaps_sq *= dim
    overlaps_sq -= 1.0
    overlaps_sq /= dim - 1
    return overlaps_sq


def hierarchy_targets(dim: int, copies: int) -> tuple:
    """Targets T_0..T_N with sum_r c_r (n_r.n_s)^m = T_m for every s, m <= N:
    T_m = sym_dim(D, N) E[y^m] for y = (D x - 1)/(D - 1), x the squared
    overlap of a fixed state with a Haar one, of density (D-1)(1-x)^(D-2).
    With c = D/(D-1), e = -1/(D-1), E[y^m] = (D-1)/c^(D-1) sum_{l=0}^{D-2}
    C(D-2, l) (-1)^l (1 - e^(m+l+1))/(m+l+1), summed exactly and rounded once."""
    a = dim - 1
    targets = []
    for m in range(copies + 1):
        ends = range(m + 1, m + dim)  # m + l + 1
        lcm = math.lcm(*ends)
        # the sum times a^(m+a) lcm; (D-1)/c^(D-1) = a^(a+1)/D^a
        numerator = sum(math.comb(a - 1, l) * (-1) ** l * (a ** n - (-1) ** n)
                        * a ** (m + a - n) * (lcm // n) for l, n in enumerate(ends))
        targets.append(sym_dim(dim, copies) * a * numerator / (dim ** a * a ** m * lcm))
    return tuple(targets)


def verify_hierarchy(povm: Povm) -> VerificationReport:
    """Check the moment hierarchy of an N-copy POVM, for any N and D: check
    bloch-moment-m holds the residual of sum_r c_r (n_r.n_s)^m = T_m
    (`hierarchy_targets`), the weight sum at m = 0 and the worst s above."""
    total, *targets = hierarchy_targets(povm.dim, povm.copies)
    # per block, then over the blocks; np.max carries a NaN through
    worst = np.max([np.max(np.abs(s - targets), axis=0) for s in _moment_sums(povm)], axis=0)
    checks = [Check("bloch-moment-0", abs(povm.weight_sum - total)),
              *(Check(f"bloch-moment-{m}", float(w)) for m, w in enumerate(worst, start=1))]
    return VerificationReport(_povm_id(povm), tuple(checks))


def _moment_sums(povm: Povm) -> Iterator[np.ndarray]:
    """sum_r c_r (n_r.n_s)^m, one row per s and a column per m = 1..N, as one
    array per kernel block of s, in order: no k x k matrix is formed."""
    buffers = kernel_buffers(povm.states, min(povm.size, block_rows(povm.size)))
    for lo, hi in blocks(povm.size, block_rows(povm.size)):
        with one_blas_thread():
            dots, power = _squared_overlaps(povm.states[lo:hi], buffers)
            _bloch_map(dots, povm.dim)
            power.fill(1.0)
            sums = np.empty((povm.copies, hi - lo))
            for row in sums:
                power *= dots
                np.matmul(power, povm.weights, out=row)
        yield sums.T


def _povm_id(povm: Povm) -> str:
    return povm.provenance or f"povm-D{povm.dim}-N{povm.copies}"
