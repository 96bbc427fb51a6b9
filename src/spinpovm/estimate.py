"""Estimation-fidelity statistics: Monte Carlo simulation and the exact average.

The protocol: measure the N copies with the POVM, then guess that the
input was the state attached to the observed outcome. For a Haar-uniform
input the average fidelity of any POVM resolving the identity equals
(N+1)/(N+D), the optimal value.
"""

import ctypes
import functools
import math
import mmap
import os
import signal
import threading

import numpy as np

from .povm import AGGREGATE_TOL, Povm
from .reports import EstimationReport
from .sampling import chunks, haar_random_states
from .verify import _BLOCK, blocks, outcome_probabilities, verify_completeness, _povm_id

# Fewest elements (rows x outcomes) per block of `simulate`, whose blocks
# have at least _BLOCK rows. A few-outcome POVM then runs fewer, larger
# blocks: at k = 40-60 a 128-row block is so small that fixed numpy call
# costs dominate. Of 20480, 40960, 61440 and 92160, this budget was the
# fastest at k = 40-60; from k = 320 on, blocks keep 128 rows.
_BLOCK_ELEMENTS = 40960
# Fewest trial-elements (trials x k) for which `simulate` forks a worker.
# Below it the fork and the worker's copy-on-write faults cost more than
# the worker's share saves: on 2 CPUs with BLAS on one thread, 20k trials
# of penrose40-N2 (800k elements) took 13.3 ms forked against 12.6 serial,
# while at 2^21 elements forking took penrose40-N2 from 31.9 to 25.5 ms,
# table1-N2 from 29.2 to 21.4 and table1-N5 from 15.7 to 12.6 (medians
# of 15 alternating calls).
_WORKER_ELEMENTS = 2 ** 21
# Most processes, the caller included, that run the blocks of one
# `simulate` call: the count that was measured (2 CPUs). Each process
# draws every state, so a third one adds a third copy of the draws.
_MOST_WORKERS = 2
# Longest failure message a worker sends back, in bytes: less than a pipe
# holds, so the worker never blocks on writing it.
_MESSAGE_BYTES = 4096


class IncompletePovmError(ValueError):
    """A POVM that `simulate` refuses because it fails completeness."""


def optimal_fidelity(copies: int, dim: int) -> float:
    """Upper bound (N+1)/(N+D) on the average estimation fidelity."""
    if copies < 1 or dim < 2:
        raise ValueError(f"need copies >= 1 and dim >= 2, got ({copies}, {dim})")
    return (copies + 1) / (copies + dim)


def haar_moment(dim: int, power: int) -> float:
    """Haar average of |<phi|psi>|^(2M) for fixed phi: M!(D-1)!/(M+D-1)!."""
    if dim < 2 or power < 0:
        raise ValueError(f"need dim >= 2 and power >= 0, got ({dim}, {power})")
    return math.factorial(power) * math.factorial(dim - 1) / math.factorial(power + dim - 1)


def exact_average_fidelity(povm: Povm) -> float:
    """Exact Haar-average fidelity of the guess-the-outcome-state protocol.

    Equals sum_r c_r * (N+1)!(D-1)!/(N+D)!, which reduces to the optimal
    (N+1)/(N+D) exactly when the weights sum to the symmetric-subspace
    dimension. Computed from the weight sum, so a broken POVM shows a
    visibly sub-optimal value; completeness is the caller's precondition.
    """
    return povm.weight_sum * haar_moment(povm.dim, povm.copies + 1)


def simulate(povm: Povm, trials: int, rng: np.random.Generator,
             keep_samples: bool = False) -> EstimationReport:
    """Monte Carlo run of the estimation protocol over Haar-random inputs.

    Per trial: draw |psi>, form outcome probabilities
    p_r = c_r |<psi_r|psi>|^(2N) (these sum to 1 for a verified POVM),
    sample an outcome by inverse CDF over the prefix sums, and record the
    fidelity |<psi_r|psi>|^2 of the guess. The POVM is verified first and
    rejected if it fails completeness. With `keep_samples` the per-trial
    fidelities are attached to the report.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    completeness = verify_completeness(povm)
    if not completeness.passed:
        raise IncompletePovmError(
            "POVM fails completeness (worst residual "
            f"{completeness.worst:.3e}); outcome probabilities would not normalize")

    workers = _workers(trials * povm.size)
    try:
        if workers > 1:
            # shared with the forked workers, which write their blocks into it
            fidelities = np.frombuffer(mmap.mmap(-1, 8 * trials), dtype=np.float64)
        else:
            fidelities = np.empty(trials)
    except (OSError, OverflowError, ValueError, MemoryError):
        raise ValueError(
            f"--trials {trials} needs {8 * trials} bytes for the per-trial "
            "fidelities, more than can be allocated") from None
    most = max(_BLOCK, _BLOCK_ELEMENTS // povm.size)
    if workers > 1:
        _run_forked(povm, rng, fidelities, most, workers)
    else:
        _run_share(povm, rng, fidelities, most, 0, 1)

    mean = float(np.mean(fidelities))
    std_error = float(np.std(fidelities, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return EstimationReport(
        povm_id=_povm_id(povm),
        trials=trials,
        mean_fidelity=mean,
        std_error=std_error,
        exact_fidelity=exact_average_fidelity(povm),
        optimal_bound=optimal_fidelity(povm.copies, povm.dim),
        samples=fidelities if keep_samples else None,
    )


def _run_share(povm: Povm, rng: np.random.Generator, out: np.ndarray, most: int,
               index: int, count: int) -> None:
    """Draw every chunk's states and uniforms from `rng` in the serial order,
    and write into `out` the fidelities of blocks index, index + count, ...
    of each chunk, `count` processes sharing the work."""
    for start, stop in chunks(len(out)):
        rows = stop - start
        psis = haar_random_states(povm.dim, rows, rng)
        u = rng.random(rows)
        spans = list(blocks(rows, most))[index::count]
        _run_blocks(povm, psis, u, out[start:stop], spans)


def _run_blocks(povm: Povm, psis: np.ndarray, u: np.ndarray, out: np.ndarray,
                spans: list[tuple[int, int]]) -> None:
    """Write the fidelity of each trial of the (lo, hi) row ranges in `spans`
    of one chunk's states and uniforms into `out`, the chunk's slice."""
    for lo, hi in spans:
        overlaps_sq, probs = outcome_probabilities(povm, psis[lo:hi])
        picks = _pick(probs, u[lo:hi])
        out[lo:hi] = overlaps_sq[np.arange(hi - lo), picks]
        # freed before the next block allocates, which then reuses this
        # cache-warm memory instead of a second set of buffers
        del overlaps_sq, probs


def _run_forked(povm: Povm, rng: np.random.Generator, out: np.ndarray, most: int,
                workers: int) -> None:
    """`_run_share` in this process and in workers - 1 forked ones, process
    i running blocks i, i + workers, ... of each chunk, `out` being shared
    memory. Each worker draws from its own copy of `rng`, so this one's
    ends where the serial path leaves it. No worker outlives the call: a
    raise here kills them, and a worker's failure raises RuntimeError."""
    get_threads, set_threads = _openblas()
    blas_threads = get_threads()
    set_threads(1)  # a second BLAS thread per process would only contend
    children = {}
    try:
        for index in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _worker(povm, rng, out, most, index, workers, write)
            os.close(write)
            children[pid] = read
        _run_share(povm, rng, out, most, 0, workers)
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        failures = []
        for pid, read in children.items():
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            with os.fdopen(read, "rb") as pipe:
                message = pipe.read().decode(errors="replace")
            if code < 0:
                failures.append(f"killed by {signal.Signals(-code).name}")
            elif code:
                failures.append(message)
        set_threads(blas_threads)
    if failures:
        raise RuntimeError(f"simulate worker failed: {failures[0]}")


def _worker(povm: Povm, rng: np.random.Generator, out: np.ndarray, most: int,
            index: int, workers: int, write: int) -> None:
    """Body of a forked worker. It never returns into the caller's stack,
    whose frames would run a second time: it leaves by `os._exit`, which
    also flushes no buffered output the caller will flush."""
    status = 1
    try:
        _run_share(povm, rng, out, most, index, workers)
        status = 0
    except BaseException as error:
        message = f"{type(error).__name__}: {error}".encode(errors="replace")
        os.write(write, message[:_MESSAGE_BYTES])
    finally:
        os._exit(status)


def _workers(elements: int) -> int:
    """Processes to run `simulate`'s blocks in, the caller included, for
    trials x k = `elements`.

    The CPUs this process may run on, at most _MOST_WORKERS, when elements
    is at least _WORKER_ELEMENTS, the platform can fork, this is the
    process's only Python thread (a fork copies no other thread, and one
    holding a lock leaves it held in the child) and numpy's OpenBLAS is
    found, whose threads `_run_forked` sets to one and whose fork handler
    stops its thread pool; otherwise 1. A spawned process would start an
    interpreter and import numpy on every call, about 80 ms, more than
    a whole call of 100k trials at k = 40 takes. A wrong answer costs
    speed, never bytes: a block computes the same doubles in any process.
    """
    if elements < _WORKER_ELEMENTS or not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return 1
    if cpus < 2 or threading.active_count() != 1 or _openblas() is None:
        return 1
    return min(cpus, _MOST_WORKERS)


@functools.cache
def _openblas():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, or None
    when there is no such library, as with another BLAS."""
    # a numpy wheel carries its OpenBLAS in numpy.libs beside the package;
    # loading that file again returns the library numpy already loaded
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = sorted(os.listdir(libs))
    except OSError:
        return None
    for name in names:
        if "openblas" not in name:
            continue
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if getter is not None and setter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                return getter, setter
    return None


# Outcomes per segment of the two-level pick. Lengths 8 to 32 measured
# within noise of each other at k = 480 and 720.
_SEGMENT = 16
# Fewest outcomes that take the two-level pick. Its ~20 numpy calls per
# block cost more than the k - 1 vector adds of the sequential prefix sums
# below k = 128 on simulate's element-sized blocks, where two-level over
# sequential time per block measured 1.23-1.42 at k = 96, 1.22-1.27 at 112,
# 0.90-0.95 at 128, 0.87-0.98 at 144 and 0.73-0.91 at 160; the bundled
# POVMs have k = 40-96 or 480-720.
_TWO_LEVEL_MIN = 128


def _pick(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF outcome of each row of `probs` for its uniform in `u`.

    Returns what `_sequential_pick` returns, by a two-level search when
    the rows are wide: prefix sums of segment totals find the segment
    where the prefix sums cross u, and one prefix sum over that segment
    finds the outcome. A candidate j is kept only when the two-level sums
    S' lie at least delta away from u on both sides of the crossing,
    S'_(j-1) < u - delta <= u + delta <= S'_j; every other row is
    recomputed sequentially. With L = _SEGMENT, no sum in either route is
    more than k + 2L additions of non-negative terms deep, so
    |S - S'| <= 2 gamma_(k+2L) (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 4) <= delta, and the sequential sums, being
    monotone, cross u at j too.
    """
    rows, k = probs.shape
    if k < _TWO_LEVEL_MIN:
        return _sequential_pick(probs, u)

    full, tail = divmod(k, _SEGMENT)
    ends = np.empty((rows, 1 + full + (tail > 0)))
    ends[:, 0] = 0.0
    segments = probs[:, :full * _SEGMENT].reshape(rows, full, _SEGMENT)
    ends[:, 1:full + 1] = segments @ np.ones(_SEGMENT)
    if tail:
        ends[:, -1] = probs[:, full * _SEGMENT:].sum(axis=1)
    np.cumsum(ends, axis=1, out=ends)
    _check_normalized(ends[:, -1])
    ends[:, -1] = np.inf
    segment = np.argmax(ends[:, 1:] >= u[:, None], axis=1)

    index = np.arange(rows)
    first = segment * _SEGMENT
    local = np.empty((rows, 1 + _SEGMENT))
    local[:, 0] = ends[index, segment]
    flat = (index * k + first)[:, None] + np.arange(_SEGMENT)
    # a short last segment repeats outcome k - 1; a pick past it is clipped
    np.minimum(flat, (index * k + k - 1)[:, None], out=flat)
    local[:, 1:] = probs.reshape(-1)[flat]
    np.cumsum(local, axis=1, out=local)
    picks = np.minimum(first + np.argmax(local[:, 1:] >= u[:, None], axis=1), k - 1)
    offset = picks - first

    delta = 4 * (k + 2 * _SEGMENT) * 2.0 ** -53
    exact = (picks == 0) | (local[index, offset] < u - delta)
    exact &= (picks == k - 1) | (local[index, offset + 1] >= u + delta)
    if not exact.all():
        redo = ~exact
        picks[redo] = _sequential_pick(probs[redo], u[redo])
    return picks


def _sequential_pick(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """First j whose sequential prefix sum S_j = p_0 + ... + p_j reaches u,
    per row, or the last outcome when none does.

    The sums run outcome by outcome across all rows, on the transposed
    block: S_j = fl(S_(j-1) + p_j), the additions `cumsum` makes along a
    row, in the same order, as k - 1 vector adds instead of one k-long
    chain of scalar adds per row. The pick counts the sums below u. A
    `Povm` refuses negative weights, so p >= 0 and S is non-decreasing;
    #{j : S_j < u} is then the first j with S_j >= u, also where runs of
    zero probabilities make plateaus in S.
    """
    k = probs.shape[1]
    cdf = np.ascontiguousarray(probs.T)
    # row views made once: indexing cdf[j] at every add costs as much as the add
    sums = list(cdf)
    for prev, row in zip(sums, sums[1:]):
        np.add(prev, row, out=row)
    _check_normalized(cdf[-1])
    # picks the last outcome when rounding leaves the top of the prefix
    # sums below u
    cdf[-1] = np.inf
    return np.add.reduce(cdf < u, axis=0, dtype=np.min_scalar_type(k))


def _check_normalized(totals: np.ndarray) -> None:
    worst = float(np.max(np.abs(totals - 1.0)))
    if worst > AGGREGATE_TOL:
        raise RuntimeError(
            f"outcome probabilities failed to normalize: worst |sum p - 1| = {worst:.3e}, "
            f"above the tolerance {AGGREGATE_TOL:.1e}")
