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
from .symmetric import (_check_copies, _frobenius_identity_residual, sym_dim,
                        symmetric_power_matrix)

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
# Byte alignment of the kernel buffers: one cache line, and one AVX-512
# vector. numpy's large arrays come from glibc's mmap at 16 mod 64 bytes, where
# every AVX-512 load of an elementwise pass split two cache lines:
# `outcome_probabilities` took 274-276 against 255-257 ms aligned over 100k
# serial trials of table1-N5 (`tools/kernel_stages.py`, 2-vCPU Xeon, 1 BLAS thread).
_ALIGN = 64
# Widest rows whose squared overlaps come from the D^2 features of psi
# psi^dag (`probe_features`): one product of D^2 terms per overlap, where the
# interleaved doubles take two of 2D terms and three squaring passes over the
# k outcomes; the features cost about 3 D^2 passes over a chunk's rows. Per
# 4096-row chunk, feature over interleaved time measured 0.37-0.44 at D = 2,
# 0.56-0.57 at D = 3 and 0.94 at D = 4 (k = 60), 1.26-1.27 at D = 4 (k = 40),
# 0.32-0.38 at D = 3, 0.45 at D = 4 and 0.87-0.88 at D = 5 (k = 480), 1.66-1.68
# at D = 5, 1.95-2.08 at D = 6 and 3.32-3.36 at D = 8 (k = 60), and 1.60 at
# D = 8 (k = 480) (2-vCPU Xeon, BLAS on one thread, medians of 31, two
# rounds). A (D^2, k) factor would take gigabytes at D = 1024 (`MAX_SYM_DIM`).
_FEATURE_MOST_DIM = 4


def block_rows(k: int) -> int:
    """Most rows per block of every pass over a POVM's or a catalog's rows,
    k the values each row produces: its outcomes in `simulate` and the
    scalar check, its Bloch dots in `bloch_dots` and the moment hierarchy,
    its symmetric coordinates in the Frobenius check. Buffers need this many
    rows, or all the rows if fewer: a short last chunk can split into
    larger blocks than a full one."""
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
    """The real (parts, F, width) factor of the (k, D) array `states`, a
    POVM's or a catalog's, and the buffer of `_squared_overlaps` on up to
    `rows` probe states, both on _ALIGN-byte boundaries, as is each half of
    every block's slice. The factor holds the elements' own `probe_features`
    rows: for D <= _FEATURE_MOST_DIM one part of D^2 features, those off the
    diagonal doubled, which a probe's features times give |<psi_r|psi>|^2;
    above, two parts of 2D interleaved doubles, (re, im) and (im, -re), for
    Re and -Im <psi_r|psi>. At k = 720 the D = 3 factor is 52 KB. The buffer
    has two halves of rows x width: the squared moduli (or Bloch dots), and
    one the caller takes for the probabilities or the powers."""
    return _factor_buffers(probe_features(states), states.shape[1], rows)


def _factor_buffers(features: np.ndarray, dim: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """`kernel_buffers` from the (k, F) `probe_features` rows of its elements."""
    k, terms = features.shape
    line = _ALIGN // 8  # doubles per cache line
    # zeros past k up to whole cache lines: OpenBLAS's small-matrix kernel
    # (rows x k x F up to about 100^3) and its general one round the last
    # k % 8 columns differently, so a 111-row block and the whole product
    # differed at k = 333, D = 4 and k = 215, D = 5. An odd count of lines
    # spreads a block's rows over every L1 set for `_sequential_pick`'s
    # transposed copy: 49.5 us per 682-row block with 8 at k = 60, 15.9 with 9
    width = k if k % line == 0 else (-(-k // line) | 1) * line
    parts = 1 if dim <= _FEATURE_MOST_DIM else 2
    factor = _aligned_empty((parts, terms, width))
    factor[..., k:] = 0.0
    factor[0, :, :k] = features.T
    if parts == 1:
        factor[0, dim:] *= 2.0
    else:
        factor[1, 0::2, :k] = features.T[1::2]
        np.negative(features.T[0::2], out=factor[1, 1::2, :k])
    return factor, _aligned_empty((2, rows * width))


def probe_features(psis: np.ndarray) -> np.ndarray:
    """The real rows that `_squared_overlaps` multiplies by the factor of
    `kernel_buffers`, one per probe state (row of psis), made once for all
    the rows of a chunk, whose blocks BLAS reads in place as row slices.
    For D <= _FEATURE_MOST_DIM they are the D^2 real entries of psi psi^dag,
    the transpose of a contiguous (D^2, rows) array: |psi_a|^2 for every a,
    then Re and then Im psi_a conj(psi_b) for every a < b (`np.triu_indices`
    order), in which |<s|psi>|^2 = sum_a |s_a|^2 |psi_a|^2 + 2 sum_(a<b)
    (Re s_a conj(s_b) Re psi_a conj(psi_b) + Im s_a conj(s_b) Im psi_a
    conj(psi_b)) is linear. Above, they are the state's (re, im) doubles."""
    rows, dim = psis.shape
    # a Povm keeps the order of the rows it was given, which may be Fortran's
    doubles = np.ascontiguousarray(psis).view(np.float64)
    if dim > _FEATURE_MOST_DIM:
        return doubles
    # (re, im) of each amplitude as one contiguous row across the states
    parts = np.ascontiguousarray(doubles.T).reshape(dim, 2, rows)
    out = np.empty((dim * dim, rows))
    products = np.empty((dim, 2, rows))
    np.multiply(parts, parts, out=products)
    np.add(products[:, 0], products[:, 1], out=out[:dim])
    count, at = dim * (dim - 1) // 2, dim
    for a in range(dim - 1):
        head = products[:dim - 1 - a]
        np.multiply(parts[a], parts[a + 1:], out=head)   # re_a re_b, im_a im_b
        np.add(head[:, 0], head[:, 1], out=out[at:at + len(head)])
        np.multiply(parts[a, ::-1], parts[a + 1:], out=head)   # im_a re_b, re_a im_b
        np.subtract(head[:, 0], head[:, 1], out=out[count + at:count + at + len(head)])
        at += len(head)
    return out.T


def _aligned_empty(shape: tuple) -> np.ndarray:
    """Uninitialized C-contiguous array of doubles of `shape` whose data
    starts on a 64-byte boundary: a slice of a 64-byte larger byte array."""
    nbytes = int(np.prod(shape)) * 8
    raw = np.empty(nbytes + _ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % _ALIGN
    return raw[start:start + nbytes].view(np.float64).reshape(shape)


def outcome_probabilities(povm: Povm, features: np.ndarray,
                          buffers: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(|<psi_r|psi>|^2, c_r |<psi_r|psi>|^(2N)) for each probe state, given
    as its row of `probe_features`; each row of the probabilities sums to 1
    when the POVM resolves the identity. Both arrays live in `buffers` (from
    `kernel_buffers`), which callers may overwrite and the next call with
    them does: a caller that runs block after block reuses one set instead
    of leaving the allocator to return freed pages and fault them in again.
    """
    overlaps_sq, probs = _squared_overlaps(features, buffers)
    # the probabilities take the spare half, which on the interleaved route
    # held the spent imaginary parts, still in cache. A third buffer for the
    # squared moduli took 121 against 102 ms over 100k trials of table1-N5
    # (medians of 9, 2 vCPUs, BLAS on one thread).
    _power(overlaps_sq, povm.copies, probs)
    k, width = povm.size, probs.shape[1]
    # passes over whole rows, zeros past k: on the first k columns of each,
    # numpy steps row by row, 851 against 592 us per 4096-row chunk of set60-N3
    probs *= povm.weights if width == k else np.concatenate((povm.weights, np.zeros(width - k)))
    return overlaps_sq[:, :k], probs[:, :k]


def _squared_overlaps(features: np.ndarray, buffers: tuple) -> tuple:
    """A (2, rows, width) view of `buffers`: |<psi_r|psi>|^2 for each probe
    state, given as its row of `probe_features`, and element r (0 past k),
    then a half free for the caller to use.

    From the D^2 features x is one sum of D^2 signed terms, whose absolute
    values add to at most (sum_a |psi_a| |s_a|)^2 <= 1 (Cauchy-Schwarz,
    unit rows), so x is within gamma_(D^2 + 4) of its exact value, the
    features' own roundings included, and can come out below zero for a
    pair near orthogonal, down to -gamma_(D^2 + 4). `_pick_chunk` counts
    this in; the interleaved route's re^2 + im^2 is never negative."""
    factor, halves = buffers
    rows, width = len(features), factor.shape[-1]
    parts = halves[:, :rows * width].reshape(2, rows, width)
    np.matmul(features, factor, out=parts[:len(factor)])
    if len(factor) == 2:
        # |z|^2 as re^2 + im^2 from one real product: np.abs of the complex
        # overlaps, a hypot with a divide and a square root per element, took
        # 0.91 of 2.47 us per trial at table1-N5
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

    The operator sum_r c_r v_r v_r^dag is summed over blocks of
    `block_rows(sym_dim)` rows, so only one block's embedding is held at a
    time, with numpy's OpenBLAS on one thread.

    The trace of the identity fixes sum_r c_r = C(N+D-1, D-1), so the
    weight sum is reported as its own residual.
    """
    _check_copies(povm.dim, povm.copies)  # before the operator takes its memory
    size = sym_dim(povm.dim, povm.copies)
    operator = np.zeros((size, size), dtype=complex)
    # on one BLAS thread, as every kernel pass: the last bits of the product
    # and of the norm's dot products follow the thread count once sym_dim is large
    with one_blas_thread():
        for lo, hi in blocks(povm.size, block_rows(size)):
            vectors = symmetric_power_matrix(povm.states[lo:hi], povm.copies)
            operator += vectors.T @ (povm.weights[lo:hi, None] * vectors.conj())
        residual = _frobenius_identity_residual(operator)
    checks = (
        Check("completeness-frobenius", residual),
        Check("weight-sum", abs(povm.weight_sum - size)),
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
            features = probe_features(haar_random_states(povm.dim, stop - start, rng))
            for lo, hi in blocks(stop - start, most):
                _, probs = outcome_probabilities(povm, features[lo:hi], buffers)
                # np.maximum carries a NaN through, where Python's max drops it
                worst = float(np.maximum(worst, np.max(np.abs(probs.sum(axis=1) - 1.0))))
    return VerificationReport(
        _povm_id(povm), (Check("scalar-identity", worst),))


# The most rows `bloch_dots` takes: its k x k result is then at most 32 MiB,
# where a document of a few MB could ask for gigabytes.
MAX_BLOCH_ROWS = 2048


def bloch_dots(states) -> np.ndarray:
    """Pairwise dots n_a.n_b of the rows' Bloch vectors, from |<a|b>|^2 =
    (1 + 2J n_a.n_b)/(2J + 1), D = 2J + 1 the row length: 1 iff two rays
    coincide, -1/(2J) iff orthogonal. More than MAX_BLOCH_ROWS rows raise ValueError."""
    states = np.asarray(states, dtype=complex)
    if states.ndim != 2 or states.shape[1] < 2:
        raise ValueError(f"expected rows of one dimension >= 2, got shape {states.shape}")
    if states.shape[0] > MAX_BLOCH_ROWS:
        raise ValueError(f"{states.shape[0]} rows are too many for the Bloch-dot matrix: "
                         f"the bound is MAX_BLOCH_ROWS = {MAX_BLOCH_ROWS}")
    dots = np.empty((len(states), len(states)))
    with one_blas_thread():
        for lo, hi, block, _ in _bloch_blocks(states):
            dots[lo:hi] = block
    return dots


def _bloch_blocks(states: np.ndarray) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """(lo, hi, dots, spare) for each kernel block of the (k, D) rows, in
    order: the (hi - lo, k) Bloch dots of rows lo:hi against every row, and a
    (hi - lo, k) half of the buffer free for the caller, both reused next."""
    k, dim = states.shape
    most = block_rows(k)
    # the probes are the rows' own features, which fill the factor too
    features = probe_features(states)
    buffers = _factor_buffers(features, dim, min(k, most))
    for lo, hi in blocks(k, most):
        dots, spare = _squared_overlaps(features[lo:hi], buffers)
        yield lo, hi, _bloch_map(dots, dim)[:, :k], spare[:, :k]


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
    with one_blas_thread():
        worst = np.max([np.max(np.abs(s - targets), axis=0) for s in _moment_sums(povm)],
                       axis=0)
    checks = [Check("bloch-moment-0", abs(povm.weight_sum - total)),
              *(Check(f"bloch-moment-{m}", float(w)) for m, w in enumerate(worst, start=1))]
    return VerificationReport(_povm_id(povm), tuple(checks))


def _moment_sums(povm: Povm) -> Iterator[np.ndarray]:
    """sum_r c_r (n_r.n_s)^m, one row per s and a column per m = 1..N, as one
    array per kernel block of s, in order: no k x k matrix is formed."""
    for lo, hi, dots, power in _bloch_blocks(povm.states):
        power.fill(1.0)
        sums = np.empty((povm.copies, hi - lo))
        for row in sums:
            power *= dots
            np.matmul(power, povm.weights, out=row)
        yield sums.T


def _povm_id(povm: Povm) -> str:
    return povm.provenance or f"povm-D{povm.dim}-N{povm.copies}"
