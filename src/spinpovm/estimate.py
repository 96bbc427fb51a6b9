"""Estimation-fidelity statistics: Monte Carlo simulation and the exact average.

The protocol: measure the N copies with the POVM, then guess that the
input was the state attached to the observed outcome. For a Haar-uniform
input the average fidelity of any POVM resolving the identity equals
(N+1)/(N+D), the optimal value.
"""

import functools
import math
import mmap
import os
import signal
import threading

import numpy as np

from .blas import _openblas, one_blas_thread
from .povm import AGGREGATE_TOL, Povm
from .reports import EstimationReport
from .sampling import CHUNK, chunks, haar_random_states
from .verify import (block_rows, blocks, kernel_buffers, outcome_probabilities,
                     probe_features, verify_completeness, _povm_id)

# Fewest trial-elements (trials x k) for which `simulate` forks a worker.
# Below it the fork and the worker's copy-on-write faults cost more than
# the worker's share saves: on 2 CPUs with BLAS on one thread, 20k trials
# of penrose40-N2 (800k elements) took 13.3 ms forked against 12.6 serial,
# while at 2^21 elements forking took penrose40-N2 from 31.9 to 25.5 ms,
# table1-N2 from 29.2 to 21.4 and table1-N5 from 15.7 to 12.6 (medians
# of 15 alternating calls).
_WORKER_ELEMENTS = 2 ** 21
# Most processes, the caller included, that run the chunks of one
# `simulate` call: the count that was measured (2 CPUs). Each process draws
# only the states of its own chunks, so more may pay on more CPUs, unmeasured.
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

    Trials run in chunks of `sampling.CHUNK`. Chunk j draws its states,
    then one uniform per trial, from the generator of the j-th call of
    `rng.spawn(1)`, so `rng` must support `spawn` (numpy >= 1.25, and a
    bit generator seeded from a `SeedSequence`, as `default_rng(seed)`
    makes); any other is refused with `TypeError` before any work. The
    mean and standard error are merged from each chunk's mean and sum of
    squared deviations, so only `keep_samples` holds a value per trial.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    try:
        rng.spawn(0)  # spawns nothing; raises for a legacy-seeded generator
    except TypeError as error:
        raise TypeError(f"simulate needs a generator that can spawn: {error}") from None
    completeness = verify_completeness(povm)
    if not completeness.passed:
        raise IncompletePovmError(
            "POVM fails completeness (worst residual "
            f"{completeness.worst:.3e}); outcome probabilities would not normalize")

    count = -(-trials // CHUNK)
    # no more processes than chunks, as a process runs whole chunks
    workers = min(_workers(trials * povm.size), count)
    # shared with the forked workers, which write their chunks into them
    shared = workers > 1
    samples = (_allocate(trials, trials, "the per-trial fidelities", shared)
               if keep_samples else None)
    stats = _allocate(2 * count, trials, "the per-chunk statistics", shared).reshape(count, 2)
    run = functools.partial(_run_chunks, povm, rng, trials, samples, stats)
    with one_blas_thread():  # a second BLAS thread per process would only contend
        _run_forked(run, workers)

    mean, m2 = _merge(stats, trials)
    std_error = math.sqrt(m2 / (trials - 1)) / math.sqrt(trials) if trials > 1 else 0.0
    return EstimationReport(
        povm_id=_povm_id(povm),
        trials=trials,
        mean_fidelity=mean,
        std_error=std_error,
        exact_fidelity=exact_average_fidelity(povm),
        optimal_bound=optimal_fidelity(povm.copies, povm.dim),
        samples=samples,
    )


def _allocate(size: int, trials: int, what: str, shared: bool) -> np.ndarray:
    """`size` doubles, in memory shared with forked processes if `shared`;
    ValueError naming the bytes when they cannot be allocated."""
    try:
        if shared:
            return np.frombuffer(mmap.mmap(-1, 8 * size), dtype=np.float64)
        return np.empty(size)
    except (OSError, OverflowError, ValueError, MemoryError):
        raise ValueError(
            f"--trials {trials} needs {8 * size} bytes for {what}, "
            "more than can be allocated") from None


def _run_chunks(povm: Povm, rng: np.random.Generator, trials: int,
                samples: np.ndarray | None, stats: np.ndarray, mine: set, count: int) -> None:
    """Run the chunks j of the `trials` whole with j % count in `mine`, of
    `count` shares of the work: write each one's fidelities into `samples`,
    when kept, and its (mean, sum of squared deviations) into its row of
    `stats`. Every process takes every chunk's generator from `rng`, so
    `rng`'s seed sequence ends in the same state for any `count`."""
    scratch = np.empty(min(trials, CHUNK)) if samples is None else None
    # one set for every block: fresh arrays per block had glibc's malloc give
    # their pages back and fault them in again, 14,377 page faults and 62 ms
    # against 544 and 46 ms, 100k serial trials of penrose40-N2 (2 vCPUs, 1 BLAS thread)
    k = povm.size
    buffers = kernel_buffers(povm.states, min(trials, CHUNK, block_rows(k)))
    # wide POVMs find each row's segment block by block and finish the
    # picks once per chunk: at k = 720 the whole pick per 128-row block took
    # 0.54 us per trial, the stage per block and the finish per chunk 0.38
    # (`tools/kernel_stages.py`), most of the difference fixed numpy call costs
    kept = _segment_arrays(min(trials, CHUNK)) if k >= _TWO_LEVEL_MIN else None
    for chunk, (start, stop) in enumerate(chunks(trials)):
        chunk_rng = rng.spawn(1)[0]
        if chunk % count not in mine:
            continue
        rows = stop - start
        # the chunk's features at once: built per block, they took 0.14-0.26
        # us more per trial at table1-N5 and 0.019-0.043 at k = 40-60, D = 4
        # (4096-row chunks, BLAS on one thread, medians of 41)
        features = probe_features(haar_random_states(povm.dim, rows, chunk_rng))
        u = chunk_rng.random(rows)
        out = scratch[:rows] if samples is None else samples[start:stop]

        def probabilities(lo, hi):
            # a product of the same shape for the same rows, so the same bits
            return outcome_probabilities(povm, features[lo:hi], buffers)
        _pick_chunk(probabilities, u, k, kept, out, start)
        mean = np.mean(out)
        deviations = out - mean
        stats[chunk] = mean, np.dot(deviations, deviations)


def _merge(stats: np.ndarray, trials: int) -> tuple[float, float]:
    """Mean and sum of squared deviations of all `trials`, from each chunk's
    row of `stats`, merged in chunk order by the update of Chan, Golub and
    LeVeque, "Updating formulae and a pairwise algorithm for computing
    sample variances" (1979)."""
    mean = m2 = 0.0
    done = 0
    for (start, stop), (chunk_mean, chunk_m2) in zip(chunks(trials), stats.tolist()):
        rows = stop - start
        delta = chunk_mean - mean
        done += rows
        mean += delta * rows / done
        m2 += chunk_m2 + delta * delta * (done - rows) * rows / done
    return mean, m2


def _run_forked(run, workers: int) -> None:
    """`run(mine, workers)`, a `_run_chunks`, here for the shares {0} and in
    one forked process per other share, writing `samples` and `stats` in
    shared memory; a failed fork's share and the rest run here too. No worker
    outlives the call: a raise kills them, and a worker's failure raises RuntimeError."""
    children = {}
    mine = {0}
    try:
        for index in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                mine.update(range(index, workers))
                break
            if pid == 0:
                _worker(run, {index}, workers, write)
            os.close(write)
            children[pid] = read
        run(mine, workers)
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
    if failures:
        raise RuntimeError(f"simulate worker failed: {failures[0]}")


def _worker(run, mine: set, workers: int, write: int) -> None:
    """Body of a forked worker. It never returns into the caller's stack,
    whose frames would run a second time: it leaves by `os._exit`, which
    also flushes no buffered output the caller will flush."""
    status = 1
    try:
        run(mine, workers)
        status = 0
    except BaseException as error:
        message = f"{type(error).__name__}: {error}".encode(errors="replace")
        os.write(write, message[:_MESSAGE_BYTES])
    finally:
        os._exit(status)


def _workers(elements: int) -> int:
    """Processes to run `simulate`'s chunks in, the caller included, for
    trials x k = `elements`.

    The CPUs this process may run on, at most _MOST_WORKERS, when elements
    is at least _WORKER_ELEMENTS, the platform can fork, this is the
    process's only Python thread (a fork copies no other thread, and one
    holding a lock leaves it held in the child) and numpy's OpenBLAS is
    found, whose threads `simulate` sets to one and whose fork handler
    stops its thread pool; otherwise 1. A spawned process would start an
    interpreter and import numpy on every call, about 80 ms, more than
    a whole call of 100k trials at k = 40 takes. A wrong answer costs
    speed, never bytes: a chunk computes the same doubles in any process.
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


# Outcomes per segment of the two-level pick. Lengths 8 to 32 measured
# within noise of each other at k = 480 and 720.
_SEGMENT = 16
# Fewest outcomes that take the two-level pick, the lowest gate above
# which it never lost: on simulate's element-sized blocks, two-level over
# sequential time per block measured 0.52 at k = 128, 0.91 at 129, 0.83
# at 143, 0.45 at 160, 0.20 at 480, 0.16 at 720 and 0.12 at 20,000
# (random rows, medians of 7, BLAS on one thread). Below 128 it wins at
# multiples of _SEGMENT (0.89 at 64, 0.81 at 80, 0.65 at 96, 0.72 at 112)
# but loses 1.10 at 104, 1.20 at 97 and 1.28-2.60 at 40-60, where its ~20
# numpy calls per block cost more than the k - 1 vector adds of the
# sequential prefix sums. The bundled POVMs have k = 40-60, 96 (table1-N3)
# and 480-720; no benchmark workload runs k = 96.
_TWO_LEVEL_MIN = 128
# the summing vector of the segment totals
_ONES = np.ones(_SEGMENT)
_ONES.flags.writeable = False
# Most segments whose starts are one product with ones. Its rows * n^2
# adds beat `cumsum` along the rows up to about 96 segments: per block of
# 128 rows, 3.6 against 11.7 us at 30 (k = 480), 6.5 against 15.9 at 45
# (k = 720), 33 against 30 at 96 and 55 against 40 at 128; at 1250
# segments (k = 20,000) the product alone took 4.1 ms, and the whole pick
# with `cumsum` 1.2 ms.
_PREFIX_MOST = 96
# ones above the diagonal: column j of x @ _UPPER[:n, :n + 1] is
# x_0 + ... + x_(j-1), and column 0 is 0
_UPPER = np.triu(np.ones((_PREFIX_MOST, _PREFIX_MOST + 1)), 1)
_UPPER.flags.writeable = False


def _pick_chunk(probabilities, u: np.ndarray, k: int, kept: tuple | None,
                out: np.ndarray, start: int) -> None:
    """Inverse-CDF outcome of each of the len(u) trials of one chunk, from
    trial `start` on, for its uniform in `u`: write the outcome's squared
    overlap into `out`. `probabilities(lo, hi)` returns the squared
    overlaps and the probabilities of k outcomes of rows lo to hi, one
    kernel block, and the same bits each time it is asked.

    Without `kept` each block takes `_sequential_pick`. With the arrays of
    `_segment_arrays`, the pick has two levels and picks what
    `_sequential_pick` would: `_pick_segments` per block finds the segment
    where prefix sums of segment totals cross u, then `_finish_picks` once
    per chunk finds the outcome by one prefix sum over that segment. A
    candidate j is kept only when the two-level sums S' lie at least delta
    away from u on both sides of the crossing,
    S'_(j-1) < u - delta <= u + delta <= S'_j; every other row is
    recomputed sequentially, and only the blocks that hold such a row are
    asked for their probabilities again.

    The segment totals and their prefix sums are matrix products with
    ones (BLAS; past _PREFIX_MOST segments, the segments' starts are a
    `cumsum`), which may add in any order and fuse the exact products
    x * 1 into their adds: each addition still rounds once. The sums
    inside a segment add its terms to its start one by one. A sum of n
    terms in any order is then within gamma_(n-1) of its exact value,
    relative to the sum of the terms' absolute values (Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 4). A segment total adds at
    most L terms, a segment's start at most k / L totals, and a sum inside
    the segment at most L terms and the start, so no term of S' passes
    through more than k / L + 2L roundings, nor one of the sequential S
    through more than k - 1.

    The terms are p = c x^N with c >= 0, but for D <= 4 a squared overlap
    x near 0 can round below it, to no less than -g, g = gamma_(D^2+4)
    (`verify._squared_overlaps`), so at odd N a few p are negative: in a
    row they add to no less than -eta, eta = g^N sum_r c_r, which is at
    most D g < 90u at N = 1 and below 2^-90 from N = 2 on. The absolute
    values then add to at most 1 + AGGREGATE_TOL + 2 eta, so |S - S'| <=
    2 gamma_(k+2L) (1 + AGGREGATE_TOL + 2 eta) <= delta - eta: delta leaves
    2 (k + 2L) u >= 320u for eta, k being at least _TWO_LEVEL_MIN. The
    exact prefix sums fall by at most eta between any two indices, so every
    sequential sum before j is below u and every one from j on reaches it,
    and the sequential pick is j too. The test holds for any candidate, so
    how the segment was found does not matter to the result.
    """
    rows, most = len(u), block_rows(k)
    for lo, hi in blocks(rows, most):
        overlaps_sq, probs = probabilities(lo, hi)
        if kept is None:
            picks = _sequential_pick(probs, u[lo:hi], range(start + lo, start + hi))
            out[lo:hi] = overlaps_sq[np.arange(hi - lo), picks]
        else:
            _pick_segments(probs, overlaps_sq, u[lo:hi], kept, lo)
    if kept is None:
        return
    redo = _finish_picks(kept, u, k, out, range(start, start + rows))
    for lo, hi in blocks(rows, most) if redo.size else ():
        mine = redo[(lo <= redo) & (redo < hi)]
        if mine.size:
            overlaps_sq, probs = probabilities(lo, hi)
            picks = _sequential_pick(probs[mine - lo], u[mine], start + mine)
            out[mine] = overlaps_sq[mine - lo, picks]


def _segment_arrays(rows: int) -> tuple[np.ndarray, ...]:
    """The arrays `_pick_segments` fills for `_finish_picks`, for up to
    `rows` rows: each row's segment and its total; its segment's start
    followed by the segment's probabilities, one column per row; and the
    segment's squared overlaps, one row per row."""
    return (np.empty(rows, dtype=np.intp), np.empty(rows), np.empty((1 + _SEGMENT, rows)),
            np.empty((rows, _SEGMENT)))


def _kept_rows(kept: tuple, lo: int, hi: int) -> tuple[np.ndarray, ...]:
    """Rows lo to hi of the arrays from `_segment_arrays`."""
    segment, total, local, chosen_sq = kept
    return segment[lo:hi], total[lo:hi], local[:, lo:hi], chosen_sq[lo:hi]


def _pick_segments(probs: np.ndarray, overlaps_sq: np.ndarray, u: np.ndarray,
                   kept: tuple, lo: int) -> None:
    """Per-block stage of the two-level pick (see `_pick_chunk`): find the segment
    of each row of `probs` where the prefix sums of the segment totals
    cross its uniform in `u`, and keep row i as row lo + i of `kept`, from
    `_segment_arrays`."""
    rows, k = probs.shape
    full, tail = divmod(k, _SEGMENT)
    segment, total, local, chosen_sq = _kept_rows(kept, lo, lo + rows)
    grouped = probs[:, :full * _SEGMENT].reshape(rows, full, _SEGMENT)
    if tail:
        # the rows' segments are not evenly spaced, so no 2-D view of them
        # exists: one product per row sums them, and the short last segment
        # is one more column
        totals = np.empty((rows, full + 1))
        totals[:, :full] = grouped @ _ONES
        totals[:, full] = probs[:, full * _SEGMENT:] @ _ONES[:tail]
    else:
        totals = (grouped.reshape(rows * full, _SEGMENT) @ _ONES).reshape(rows, full)
    segments = totals.shape[1]
    # outcome-major, so that the count of ends below u adds whole vectors:
    # 4.4 against 7.6 us for an `argmax` along the rows, per 128-row block
    # at k = 720
    if segments <= _PREFIX_MOST:
        ends = _UPPER[:segments, :segments + 1].T @ totals.T
    else:
        ends = np.zeros((segments + 1, rows))
        np.cumsum(totals.T, axis=0, out=ends[1:])
    total[:] = ends[-1]
    # the pick's one crossing rule: count the sums below u among all but the last
    segment[:] = np.add.reduce(ends[1:-1] < u, axis=0, dtype=np.min_scalar_type(segments))
    index = np.arange(rows)
    local[0] = ends[segment, index]
    clipped = np.minimum(segment, full - 1)
    local[1:] = grouped[index, clipped].T
    chosen_sq[:] = overlaps_sq[:, :full * _SEGMENT].reshape(rows, full, _SEGMENT)[index, clipped]
    if tail:
        # the rows that chose the short last segment take its outcomes; the
        # last full segment's values after them add only to sums past the
        # last outcome, where `_finish_picks` clamps its picks to k - 1
        last = np.flatnonzero(segment == full)
        local[1:tail + 1, last] = probs[last, full * _SEGMENT:].T
        chosen_sq[last, :tail] = overlaps_sq[last, full * _SEGMENT:]


def _finish_picks(kept: tuple, u: np.ndarray, k: int, out: np.ndarray,
                  trials: range) -> np.ndarray:
    """Per-chunk finish of the two-level pick (see `_pick_chunk`) of the
    first len(u) rows of `kept`, from `_pick_segments`, whose trial indices
    are `trials`: check that the rows sum to one, find each row's outcome
    in its segment and write its squared overlap into `out`. Returns the
    rows to recompute sequentially, whose `out` values are not yet right."""
    rows = len(u)
    segment, total, local, chosen_sq = _kept_rows(kept, 0, rows)
    _check_normalized(total, trials)
    # the sums inside each segment, from its start on, in place: L vector
    # adds over the chunk; `cumsum` along the outcomes took 242 against 19
    # us at 4096 rows
    sums = list(local)
    for prev, row in zip(sums, sums[1:]):
        np.add(prev, row, out=row)
    # the crossing rule of `_pick_segments` inside the segment, then never past
    # k - 1 for a short last segment; the delta test below sorts out either
    offset = np.add.reduce(local[1:-1] < u, axis=0, dtype=np.min_scalar_type(_SEGMENT))
    first = segment * _SEGMENT
    picks = np.minimum(first + offset, k - 1)
    offset = picks - first

    index = np.arange(rows)
    delta = 4 * (k + 2 * _SEGMENT) * 2.0 ** -53
    exact = (picks == 0) | (local[offset, index] < u - delta)
    exact &= (picks == k - 1) | (local[offset + 1, index] >= u + delta)
    out[:] = chosen_sq[index, offset]
    return np.flatnonzero(~exact)


def _sequential_pick(probs: np.ndarray, u: np.ndarray,
                     trials: range | np.ndarray) -> np.ndarray:
    """First j whose sequential prefix sum S_j = p_0 + ... + p_j reaches u,
    per row, or the last outcome when none does; `trials` are the rows'
    trial indices for the normalization error. The block is only read: the
    sums run on a transposed copy, outcome by outcome across all rows,
    S_j = fl(S_(j-1) + p_j), the additions `cumsum` makes along a row in
    the same order, as k - 1 vector adds. The pick counts the sums below u
    among all but the last. A `Povm` refuses negative weights, so S is
    non-decreasing but for p < 0 from a squared overlap rounded below 0,
    whose values in a row add to no less than -eta (see `_pick_chunk`).
    The count is then the first j with S_j >= u, also on the plateaus that
    runs of zero probabilities make, for every u farther than eta from
    every sum: from N = 2 on eta is below 2^-90, and at N = 1 a pick can
    move only for u within 90u of a sum.
    """
    cdf = probs.T.copy()
    # row views made once: indexing cdf[j] at every add costs as much as the add
    sums = list(cdf)
    for prev, row in zip(sums, sums[1:]):
        np.add(prev, row, out=row)
    _check_normalized(cdf[-1], trials)
    return np.add.reduce(cdf[:-1] < u, axis=0, dtype=np.min_scalar_type(len(cdf)))


def _check_normalized(totals: np.ndarray, trials: range | np.ndarray) -> None:
    """RuntimeError naming the worst row of `totals`, by its index in
    `trials` (a range or an array), when that row's sum of probabilities
    is more than AGGREGATE_TOL away from 1 or is NaN, which `argmax`
    takes for the worst."""
    deviations = np.abs(totals - 1.0)
    row = int(np.argmax(deviations))
    worst = float(deviations[row])
    if not worst <= AGGREGATE_TOL:
        raise RuntimeError(
            f"outcome probabilities failed to normalize: worst |sum p - 1| = {worst:.3e}, "
            f"above the tolerance {AGGREGATE_TOL:.1e}, at trial {int(trials[row])} "
            f"(sum p = {float(totals[row])!r})")
