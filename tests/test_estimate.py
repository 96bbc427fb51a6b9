"""Estimation statistics: exact averages, Monte Carlo convergence, determinism."""

import contextlib
import errno
import math
import os
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest

from spinpovm import (
    PENROSE40,
    SET60,
    Povm,
    build_table1_povm,
    catalog,
    exact_average_fidelity,
    haar_moment,
    haar_random_states,
    optimal_fidelity,
    simulate,
    spin32_povm,
    verify_completeness,
)
from spinpovm import blas, estimate, verify
from spinpovm.documents import dumps
from spinpovm.sampling import CHUNK
from spinpovm.verify import block_rows, blocks, kernel_buffers, outcome_probabilities
from conftest import scaled
from oracles import projective_moment_quadrature, reference_simulate_samples


def test_exact_fidelity_table1_n2():
    assert abs(exact_average_fidelity(build_table1_povm(2)) - 0.6) < 1e-12


def test_exact_fidelity_set60_n3():
    povm = spin32_povm(catalog(SET60), 3)
    assert abs(exact_average_fidelity(povm) - 4 / 7) < 1e-12


def test_exact_fidelity_table1_n5():
    assert abs(exact_average_fidelity(build_table1_povm(5)) - 0.75) < 1e-12


def test_exact_fidelity_hits_optimum_for_all_shipped(shipped_povms):
    for povm in shipped_povms:
        bound = optimal_fidelity(povm.copies, povm.dim)
        assert abs(exact_average_fidelity(povm) - bound) < 1e-12


def test_broken_povm_shows_suboptimal_exact_value():
    # computed from the weight sum, so the check stays falsifiable
    povm = scaled(build_table1_povm(2), 0.9)
    assert abs(exact_average_fidelity(povm) - 0.9 * 0.6) < 1e-12


def test_haar_moment_against_quadrature():
    rng = np.random.default_rng(51)
    reference = haar_random_states(3, 1, rng)[0]
    for power in (2, 3, 6):
        assert abs(haar_moment(3, power)
                   - projective_moment_quadrature(reference, power)) < 1e-6


def test_simulation_mean_tracks_exact_value():
    rng = np.random.default_rng(2000)
    report = simulate(build_table1_povm(2), 30_000, rng)
    assert abs(report.mean_fidelity - report.exact_fidelity) < 5 * report.std_error
    assert report.optimal_bound == 0.6


def test_simulation_penrose_three_copies():
    rng = np.random.default_rng(2001)
    report = simulate(spin32_povm(catalog(PENROSE40), 3), 30_000, rng)
    assert abs(report.exact_fidelity - 4 / 7) < 1e-12
    assert abs(report.mean_fidelity - 4 / 7) < 5 * report.std_error


def test_simulation_converges_across_seeds():
    povm = spin32_povm(catalog(SET60), 2)
    misses = 0
    for seed in range(25):
        report = simulate(povm, 4000, np.random.default_rng(seed))
        if abs(report.mean_fidelity - report.exact_fidelity) > 5 * report.std_error:
            misses += 1
    assert misses <= 1


def _beta_cdf(x, a, b):
    """CDF of Beta(a, b) at x for integer a, b >= 1: the binomial tail
    sum_(j=a)^(a+b-1) C(a+b-1, j) x^j (1-x)^(a+b-1-j)."""
    n = a + b - 1
    return sum(math.comb(n, j) * x ** j * (1 - x) ** (n - j) for j in range(a, n + 1))


def _ks_distance(samples, cdf):
    """Kolmogorov-Smirnov distance of the samples' empirical CDF from `cdf`."""
    values = cdf(np.sort(samples))
    n = len(values)
    return max(np.max(np.arange(1, n + 1) / n - values), np.max(values - np.arange(n) / n))


@pytest.mark.parametrize("povm, seed", [
    (build_table1_povm(5), 1), (build_table1_povm(2), 2),
    (spin32_povm(catalog(PENROSE40), 2), 3), (spin32_povm(catalog(SET60), 3), 4)],
    ids=["table1-N5", "table1-N2", "penrose40-povm-N2", "set60-povm-N3"])
def test_simulated_fidelities_follow_their_exact_law(povm, seed):
    # for a complete POVM of rank-one elements, x = |<psi_r|psi>|^2 has
    # density proportional to x^N (1-x)^(D-2) given outcome r, whatever r,
    # so each trial's fidelity follows Beta(N+1, D-1)
    trials, n, dim = 100_000, povm.copies, povm.dim
    samples = simulate(povm, trials, np.random.default_rng(seed), keep_samples=True).samples
    critical = 1.95 / math.sqrt(trials)   # the KS test at the 0.1% level
    assert _ks_distance(samples, lambda x: _beta_cdf(x, n + 1, dim - 1)) < critical
    # the power of the test: one copy fewer in the law is far outside it
    assert _ks_distance(samples, lambda x: _beta_cdf(x, n, dim - 1)) > critical


def test_unverified_povm_rejected():
    broken = scaled(build_table1_povm(2), 1.05)
    with pytest.raises(ValueError, match="completeness"):
        simulate(broken, 100, np.random.default_rng(0))


def test_probabilities_normalize_before_sampling(shipped_povms):
    rng = np.random.default_rng(77)
    for povm in shipped_povms:
        psis = haar_random_states(povm.dim, 200, rng)
        _, probs = outcome_probabilities(povm, psis, kernel_buffers(povm.states, len(psis)))
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9


def test_simulation_is_deterministic():
    povm = build_table1_povm(3)
    r1 = simulate(povm, 5000, np.random.default_rng(31), keep_samples=True)
    r2 = simulate(povm, 5000, np.random.default_rng(31), keep_samples=True)
    assert r1.to_dict() == r2.to_dict()
    assert np.array_equal(r1.samples, r2.samples)


def test_successive_calls_on_one_generator_draw_different_samples():
    povm = build_table1_povm(2)
    rng = np.random.default_rng(31)
    first = simulate(povm, 5000, rng, keep_samples=True)
    second = simulate(povm, 5000, rng, keep_samples=True)
    assert rng.bit_generator.seed_seq.n_children_spawned == 4   # 2 chunks per call
    assert not np.any(first.samples == second.samples)


@pytest.mark.parametrize("trials", [1, 2, 4097, 20_000, 100_000])
def test_streamed_statistics_match_the_kept_samples(trials):
    report = simulate(spin32_povm(catalog(PENROSE40), 2), trials,
                      np.random.default_rng(trials), keep_samples=True)
    mean = np.mean(report.samples)
    assert abs(report.mean_fidelity - mean) <= 1e-14 * mean
    if trials > 1:
        std_error = np.std(report.samples, ddof=1) / np.sqrt(trials)
        assert abs(report.std_error - std_error) <= 1e-14 * std_error
    else:
        assert report.std_error == 0.0


def test_report_does_not_depend_on_keeping_the_samples():
    povm = build_table1_povm(3)
    kept = simulate(povm, 9000, np.random.default_rng(6), keep_samples=True)
    streamed = simulate(povm, 9000, np.random.default_rng(6))
    assert streamed.samples is None
    assert dumps(streamed.to_dict()) == dumps(kept.to_dict())


def _peak_bytes(povm, trials):
    simulate(povm, 1000, np.random.default_rng(0))   # caches out of the measurement
    tracemalloc.start()
    try:
        simulate(povm, trials, np.random.default_rng(1))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_statistics_are_streamed_in_bounded_memory(monkeypatch):
    # without keep_samples only the per-chunk (mean, M2) pairs grow with the
    # trials, 16 bytes per chunk; the serial path, as tracemalloc sees no
    # forked worker
    monkeypatch.setattr(estimate, "_workers", lambda elements: 1)
    kept_rows = []
    segment_arrays = estimate._segment_arrays

    def recording_segment_arrays(rows):
        kept_rows.append(rows)
        return segment_arrays(rows)

    monkeypatch.setattr(estimate, "_segment_arrays", recording_segment_arrays)
    trials = 200_000
    # at k = 40 a block's buffers and two chunks' draws hold about 2.5 MB at
    # any trial count, more than the 8 x trials bytes of a per-trial buffer;
    # that buffer would add 1.5 MB to the peak of a 3-chunk run
    penrose = spin32_povm(catalog(PENROSE40), 2)
    assert _peak_bytes(penrose, trials) < _peak_bytes(penrose, 3 * CHUNK) + trials
    assert kept_rows == []   # the sequential pick keeps no segments
    # a qubit basis holds about 1 MB
    qubit = Povm(np.ones(2), np.eye(2), 1, provenance="basis-D2-N1")
    assert _peak_bytes(qubit, trials) < 8 * trials
    # the two-level pick keeps 280 bytes per row of at most one chunk (a
    # 1000-trial warm-up, then the measured run, twice); for every trial
    # it would hold 56 MB
    table1_n4 = build_table1_povm(4)
    assert _peak_bytes(table1_n4, trials) < _peak_bytes(table1_n4, 3 * CHUNK) + trials
    assert kept_rows == [1000, CHUNK] * 2


def test_generator_that_cannot_spawn_is_refused_before_any_work(monkeypatch):
    bit_generator = np.random.MT19937()
    bit_generator._legacy_seeding(5)
    monkeypatch.setattr(estimate, "_workers", lambda elements: 2)
    for name in ("verify_completeness", "_allocate", "_run_chunks", "_run_forked"):
        monkeypatch.setattr(estimate, name, _must_not_run)
    monkeypatch.setattr(estimate.os, "fork", _must_not_run)
    with pytest.raises(TypeError, match="simulate needs a generator that can spawn"):
        simulate(build_table1_povm(2), 100_000, np.random.Generator(bit_generator))


def test_one_chunk_forks_no_worker(monkeypatch):
    # a worker would have no chunk to run
    monkeypatch.setattr(estimate, "_workers", lambda elements: 2)
    monkeypatch.setattr(estimate.os, "fork", _must_not_run)
    povm = build_table1_povm(5)
    samples, reference = _kernel_samples(povm, CHUNK, lambda: np.random.default_rng(9))
    assert np.array_equal(samples, reference)


def _must_not_run(*args, **kwargs):
    raise AssertionError("called")


def _kernel_samples(povm, trials, rng_factory):
    report = simulate(povm, trials, rng_factory(), keep_samples=True)
    return report.samples, reference_simulate_samples(povm, trials, rng_factory())


# rows per kernel block at k = 40 (penrose40), 48 (table1-N2) and 60 (set60)
_CAPS = sorted({block_rows(k) for k in (40, 48, 60)})


@pytest.mark.parametrize("trials", [1, 127, 128, 129, 4097, 20_000]
                         + [cap + d for cap in _CAPS for d in (-1, 0, 1)])
def test_blocked_kernel_matches_unblocked_reference(shipped_povms, trials):
    # block edges at 128 rows (k >= 320) and at the element-sized caps, chunk
    # edge at 4096, several large blocks per chunk at 20,000; at copies = 1
    # the power step copies the squared moduli
    identity = Povm(np.ones(3), np.eye(3), 1, provenance="identity-D3-N1")
    for povm in (*shipped_povms, identity):
        samples, reference = _kernel_samples(
            povm, trials, lambda: np.random.default_rng(trials))
        assert np.array_equal(samples, reference), povm.provenance


def _bases_povm(count, seed):
    """`count` Haar-random orthonormal bases of C^3, each weighted 1/count:
    a one-copy POVM of 3 * count elements."""
    rng = np.random.default_rng(seed)
    gaussians = rng.standard_normal((count, 3, 3)) + 1j * rng.standard_normal((count, 3, 3))
    states = np.concatenate([np.linalg.qr(g)[0].T for g in gaussians])
    return Povm(np.full(3 * count, 1 / count), states, 1, provenance=f"bases{count}-D3-N1")


needs_openblas = pytest.mark.skipif(blas._openblas() is None,
                                    reason="numpy's BLAS is not a bundled OpenBLAS")


@pytest.fixture
def open_gate(monkeypatch):
    """Every condition of `_workers` met: 2 CPUs, and an OpenBLAS found that
    runs on 2 threads, as it does when nothing is set in the environment."""
    monkeypatch.setattr(estimate.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(estimate, "_openblas", lambda: (lambda: 2, lambda threads: None))
    return monkeypatch


@contextlib.contextmanager
def _second_thread():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.mark.parametrize("case", ["below-worker-elements", "no-fork", "no-affinity", "one-cpu",
                                  "second-thread", "blas-threads-unknown"])
def test_blocks_stay_on_the_calling_thread(open_gate, case):
    elements = estimate._WORKER_ELEMENTS
    assert estimate._workers(elements) == 2
    with contextlib.ExitStack() as stack:
        if case == "below-worker-elements":
            elements -= 1
        elif case == "no-fork":
            open_gate.delattr(estimate.os, "fork")
        elif case == "no-affinity":
            open_gate.delattr(estimate.os, "sched_getaffinity")
        elif case == "one-cpu":
            open_gate.setattr(estimate.os, "sched_getaffinity", lambda pid: {0})
        elif case == "second-thread":
            # a fork copies no other thread, and one holding a lock leaves it held
            stack.enter_context(_second_thread())
        else:
            open_gate.setattr(estimate, "_openblas", lambda: None)
        assert estimate._workers(elements) == 1


@pytest.mark.parametrize("cpus", [2, 3, 64])
def test_blocks_run_on_the_available_cpus(open_gate, cpus):
    open_gate.setattr(estimate.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert estimate._workers(estimate._WORKER_ELEMENTS) == min(cpus, estimate._MOST_WORKERS)


@needs_openblas
def test_blas_threads_follow_the_live_openblas_setting():
    get_threads, set_threads = blas._openblas()
    before = get_threads()
    try:
        for threads in (1, before):
            set_threads(threads)
            assert get_threads() == threads
    finally:
        set_threads(before)


@pytest.fixture(scope="module")
def wide_povms(shipped_povms):
    """table1-N4 and N5 (k = 480, 720), and a hand-built k = 129 whose
    last segment of the two-level pick is one outcome long."""
    table1_n4, table1_n5 = shipped_povms[2:4]
    return table1_n4, table1_n5, _bases_povm(43, 5)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_openblas
@pytest.mark.parametrize("trials", [1, 127, 129, 4097, 20_000])
def test_forked_blocks_match_the_reference_and_the_serial_path(monkeypatch, shipped_povms,
                                                               wide_povms, trials):
    # the caller alone, or with 1 or 4 forked workers but no more processes
    # than chunks, each running whole chunks
    povms = (shipped_povms[4], *wide_povms)
    assert [povm.size for povm in povms] == [40, 480, 720, 129]
    chunks = -(-trials // CHUNK)
    for povm in povms:
        reports, spawned = {}, {}
        for workers in (1, 2, 5):
            monkeypatch.setattr(estimate, "_workers", lambda elements, n=workers: n)
            rng = np.random.default_rng(trials)
            reports[workers] = simulate(povm, trials, rng, keep_samples=True)
            spawned[workers] = rng.bit_generator.seed_seq.n_children_spawned
            _assert_no_child_left()
        reference = reference_simulate_samples(povm, trials, np.random.default_rng(trials))
        for workers, report in reports.items():
            assert np.array_equal(report.samples, reference), (povm.provenance, workers)
            assert report.to_dict() == reports[1].to_dict()
        assert set(spawned.values()) == {chunks}


@pytest.mark.parametrize("workers", [2, 3, 5])
def test_failed_fork_runs_the_chunks_in_the_caller(monkeypatch, wide_povms, workers):
    # no process can be forked: the caller runs every share in one pass,
    # and each chunk's generator is still spawned once
    forks = []

    def failing_fork():
        forks.append(1)
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(estimate.os, "fork", failing_fork)
    trials = 4 * CHUNK + 1
    rng = np.random.default_rng(21)
    monkeypatch.setattr(estimate, "_workers", lambda elements: workers)
    report = simulate(wide_povms[0], trials, rng, keep_samples=True)
    monkeypatch.setattr(estimate, "_workers", lambda elements: 1)
    serial = simulate(wide_povms[0], trials, np.random.default_rng(21), keep_samples=True)
    assert forks == [1]
    assert np.array_equal(report.samples, serial.samples)
    assert report.to_dict() == serial.to_dict()
    assert rng.bit_generator.seed_seq.n_children_spawned == 5
    _assert_no_child_left()


@needs_openblas
def test_more_workers_than_cpus(monkeypatch, wide_povms):
    # 5 processes on 5 full chunks, then a one-row chunk: a chunk skipped or
    # given another chunk's rows shows
    monkeypatch.setattr(estimate, "_workers", lambda elements: 5)
    stage = estimate._pick_segments
    caller_blocks = []

    def recording_stage(probs, overlaps_sq, u, *rest):
        caller_blocks.append(len(u))  # the workers' appends stay in their own memory
        return stage(probs, overlaps_sq, u, *rest)

    monkeypatch.setattr(estimate, "_pick_segments", recording_stage)
    samples, reference = _kernel_samples(
        wide_povms[1], 5 * CHUNK + 1, lambda: np.random.default_rng(12))
    assert np.array_equal(samples, reference)
    # the caller ran chunks 0 and 5 whole, every block of each, and no others
    most = block_rows(wide_povms[1].size)
    assert caller_blocks == [hi - lo for lo, hi in blocks(CHUNK, most)] + [1]
    _assert_no_child_left()


@needs_openblas
@pytest.mark.parametrize("failing", ["worker", "caller", "killed-worker"])
def test_forked_simulate_reraises_and_leaves_no_worker(monkeypatch, wide_povms, failing):
    monkeypatch.setattr(estimate, "_workers", lambda elements: 2)
    stage = estimate._pick_segments
    error = RuntimeError("injected")
    caller = os.getpid()

    def failing_stage(*args):
        if os.getpid() == caller:
            if failing == "caller":
                raise error
        elif failing == "caller":
            time.sleep(10)  # a worker the caller waited for would hold it here
        elif failing == "killed-worker":
            os.kill(os.getpid(), signal.SIGKILL)
        else:
            raise error
        return stage(*args)

    before = threading.active_count()
    monkeypatch.setattr(estimate, "_pick_segments", failing_stage)
    start = time.monotonic()
    with pytest.raises(RuntimeError) as raised:
        # chunk 0 in the caller, chunk 1 in the worker
        simulate(wide_povms[1], CHUNK + 1000, np.random.default_rng(8))
    if failing == "caller":
        assert raised.value is error
        assert time.monotonic() - start < 5  # the worker was killed, not waited out
    elif failing == "worker":
        assert str(raised.value) == "simulate worker failed: RuntimeError: injected"
    else:
        assert str(raised.value) == "simulate worker failed: killed by SIGKILL"
    _assert_no_child_left()
    assert threading.active_count() == before


@needs_openblas
@pytest.mark.parametrize("failing", [False, True], ids=["returns", "raises"])
def test_worker_path_runs_blas_on_one_thread_and_restores_it(monkeypatch, wide_povms,
                                                             failing):
    get_threads, set_threads = blas._openblas()
    before = get_threads()
    set_threads(2)
    try:
        if get_threads() != 2:
            pytest.skip("this OpenBLAS runs on one thread at most")
        monkeypatch.setattr(estimate, "_workers", lambda elements: 2)
        stage = estimate._pick_segments
        seen = []

        def recording_stage(*args):
            seen.append(get_threads())
            if failing:
                raise RuntimeError("injected")
            return stage(*args)

        monkeypatch.setattr(estimate, "_pick_segments", recording_stage)
        if failing:
            with pytest.raises(RuntimeError, match="injected"):
                simulate(wide_povms[0], CHUNK + 1000, np.random.default_rng(3))
        else:
            simulate(wide_povms[0], CHUNK + 1000, np.random.default_rng(3))
        assert seen and set(seen) == {1}
        assert get_threads() == 2
        _assert_no_child_left()
    finally:
        set_threads(before)


@needs_openblas
@pytest.mark.parametrize("failing", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("call", ["scalar-identity", "serial-simulate"])
def test_kernel_calls_run_blas_on_one_thread_and_restore_it(monkeypatch, wide_povms, call,
                                                            failing):
    get_threads, set_threads = blas._openblas()
    before = get_threads()
    set_threads(2)
    try:
        if get_threads() != 2:
            pytest.skip("this OpenBLAS runs on one thread at most")
        module = verify if call == "scalar-identity" else estimate
        kernel = module.outcome_probabilities
        seen = []

        def recording_kernel(*args):
            seen.append(get_threads())
            if failing:
                raise RuntimeError("injected")
            return kernel(*args)

        monkeypatch.setattr(module, "outcome_probabilities", recording_kernel)
        monkeypatch.setattr(estimate, "_workers", lambda elements: 1)
        rng = np.random.default_rng(3)
        with pytest.raises(RuntimeError, match="injected") if failing else contextlib.nullcontext():
            if call == "scalar-identity":
                verify.verify_scalar_identity(wide_povms[0], 1000, rng)
            else:
                simulate(wide_povms[0], 1000, rng)
        assert seen and set(seen) == {1}
        assert get_threads() == 2
    finally:
        set_threads(before)


class _UniformsAtTop:
    """Generator stand-in: Haar draws from a seeded stream, every uniform
    the largest double below 1; every chunk draws from this one stream."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def standard_normal(self, shape):
        return self._rng.standard_normal(shape)

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))

    def spawn(self, count):
        return [self] * count


# N5's weight-sum residual is 2.1e-9 at 1 - 1e-10, which fails completeness
@pytest.mark.parametrize("copies, scale", [(2, 1 - 1e-10), (5, 1 - 4e-11)],
                         ids=["table1-N2", "table1-N5"])
def test_pick_clamps_to_last_outcome_when_prefix_sums_end_below_u(copies, scale):
    povm = scaled(build_table1_povm(copies), scale)   # prefix sums top out near scale
    assert verify_completeness(povm).passed
    samples, reference = _kernel_samples(povm, 300, lambda: _UniformsAtTop(4))
    assert np.array_equal(samples, reference)
    psis = haar_random_states(3, 300, np.random.default_rng(4))
    last = np.abs(psis.conj() @ povm.states[-1]) ** 2
    assert np.allclose(samples, last, rtol=0, atol=1e-15)


def _split_last(povm, parts):
    """The same operator with its last element split into `parts` equal ones."""
    weights = np.r_[povm.weights[:-1], np.full(parts, povm.weights[-1] / parts)]
    states = np.r_[povm.states, np.repeat(povm.states[-1:], parts - 1, axis=0)]
    return Povm(weights, states, povm.copies, provenance=f"{povm.provenance}-split")


@pytest.fixture
def recomputed(monkeypatch):
    """Trial indices of the rows that the two-level pick recomputes
    sequentially, in the order it recomputes them."""
    trials_seen = []
    sequential = estimate._sequential_pick

    def recording(probs, u, trials):
        trials_seen.extend(int(trial) for trial in trials)
        return sequential(probs, u, trials)

    monkeypatch.setattr(estimate, "_sequential_pick", recording)
    return trials_seen


def _probs_and_prefix_sums(povm, rows, rng):
    _, probs = outcome_probabilities(povm, haar_random_states(povm.dim, rows, rng),
                                     kernel_buffers(povm.states, rows))
    return probs, np.cumsum(probs, axis=1)


def _reference_picks(sums, u):
    return np.minimum(np.sum(sums < u[:, None], axis=1), sums.shape[1] - 1)


def _chunk_outcomes(probs, u, start=0):
    """`estimate._pick_chunk` on the rows of `probs` as one chunk from trial
    `start`, with the two-level pick from _TWO_LEVEL_MIN outcomes on, as
    `simulate` runs it: each row's pick, and the (lo, hi) of each call for
    a block's probabilities. The squared overlaps it is handed are the
    elements' flat indices, so row i's value is i * k plus its pick, and a
    pick gathered from the wrong row or column shows."""
    rows, k = probs.shape
    flat = np.arange(rows * k, dtype=float).reshape(rows, k)
    calls = []

    def probabilities(lo, hi):
        calls.append((lo, hi))
        return flat[lo:hi], probs[lo:hi]

    kept = estimate._segment_arrays(CHUNK) if k >= estimate._TWO_LEVEL_MIN else None
    out = np.full(rows, np.nan)
    estimate._pick_chunk(probabilities, u, k, kept, out, start)
    return out - np.arange(rows) * k, calls


# around the two-level gate and the count dtype boundary at 256 outcomes
_SEQUENTIAL_KS = [1, 2, 40, 60, 159, 255, 256, 300]


def _rows_with_plateaus(k, rows, rng, scale=1.0):
    """Normalized (times `scale`) rows; every other row has a run of zero
    probabilities at outcomes k // 4 ... k // 2 - 1."""
    probs = rng.random((rows, k))
    probs[::2, k // 4:k // 2] = 0.0
    probs /= probs.sum(axis=1, keepdims=True)
    return probs * scale


@pytest.mark.parametrize("k", _SEQUENTIAL_KS)
def test_sequential_pick_matches_the_reference(k):
    rows = 64
    rng = np.random.default_rng(k)
    probs = _rows_with_plateaus(k, rows, rng)
    sums = np.cumsum(probs, axis=1)
    on = sums[np.arange(rows), rng.integers(0, k, rows)]
    plateau = sums[:, max(k // 2 - 1, 0)]   # on the plateau in the even rows
    for u in (on, np.nextafter(on, 0), np.nextafter(on, 2), plateau, np.zeros(rows),
              rng.random(rows)):
        picks = estimate._sequential_pick(probs, u, range(rows))
        assert np.array_equal(picks, _reference_picks(sums, u))
    if k >= 4:   # a u on a plateau picks its first outcome
        picks = estimate._sequential_pick(probs, plateau, range(rows))
        assert np.all(picks[::2] == k // 4 - 1)


@pytest.mark.parametrize("k", _SEQUENTIAL_KS)
def test_sequential_pick_clamps_to_the_last_outcome(k):
    rows = 64
    probs = _rows_with_plateaus(k, rows, np.random.default_rng(k), scale=1 - 1e-12)
    sums = np.cumsum(probs, axis=1)
    u = np.full(rows, np.nextafter(1.0, 0.0))
    assert np.all(sums[:, -1] < u)
    picks = estimate._sequential_pick(probs, u, range(rows))
    assert np.array_equal(picks, _reference_picks(sums, u))
    assert np.all(picks == k - 1)


@pytest.mark.parametrize("povm", [build_table1_povm(4), build_table1_povm(5),
                                  _split_last(build_table1_povm(4), 2),
                                  _split_last(build_table1_povm(4), 6),
                                  _split_last(build_table1_povm(3), 105)],
                         ids=["table1-N4", "table1-N5", "k481", "k485", "k200"])
def test_pick_recomputes_rows_whose_uniform_sits_on_a_prefix_sum(povm, recomputed):
    # u on, just below and just above a sequential prefix sum: the two-level
    # sums may land on either side of u, so each such row must be recomputed,
    # from its block's probabilities asked for again
    rows, k = 128, povm.size
    assert k >= estimate._TWO_LEVEL_MIN
    rng = np.random.default_rng(k)
    probs, sums = _probs_and_prefix_sums(povm, rows, rng)
    on = sums[np.arange(rows), rng.integers(0, k - 1, rows)]
    for u in (on, np.nextafter(on, 0), np.nextafter(on, 2)):
        picks, calls = _chunk_outcomes(probs, u)
        assert np.array_equal(picks, _reference_picks(sums, u))
        assert calls == [(0, rows)] * 2
    assert recomputed == list(range(rows)) * 3


@pytest.mark.parametrize("parts", [2, 6])
def test_two_level_pick_on_a_short_last_segment(parts, recomputed):
    povm = _split_last(build_table1_povm(4), parts)   # k = 481 and 485
    assert verify_completeness(povm).passed
    samples, reference = _kernel_samples(povm, 1000, lambda: np.random.default_rng(parts))
    assert np.array_equal(samples, reference)
    # uniforms above the last full segment, which the simulation rarely draws
    rows, top = 128, povm.size // estimate._SEGMENT * estimate._SEGMENT - 1
    rng = np.random.default_rng(parts)
    probs, sums = _probs_and_prefix_sums(povm, rows, rng)
    u = sums[:, top] + (1 - sums[:, top]) * rng.random(rows)
    picks = _chunk_outcomes(probs, u)[0]
    assert np.array_equal(picks, _reference_picks(sums, u))
    assert np.all(picks > top)
    # only rows whose last probabilities are within delta of u are recomputed
    assert len(recomputed) < rows // 4


@pytest.mark.parametrize("k", [128, 129, 143, 144, 480, 720, 1000, 1544, 4000])
def test_two_level_pick_matches_the_sequential_pick(k):
    # short last segments of 1, 15, 8 and 8 outcomes at k = 129, 143, 1000
    # and 1544; k = 1544 and 4000 have more than _PREFIX_MOST segments; from
    # k = 320 on the 256 rows are two blocks
    assert (1544 + estimate._SEGMENT - 1) // estimate._SEGMENT > estimate._PREFIX_MOST
    assert k >= estimate._TWO_LEVEL_MIN
    rows, segment = 256, estimate._SEGMENT
    rng = np.random.default_rng(k)
    probs = _rows_with_plateaus(k, rows, rng)   # k = 1000 zeroes whole segments
    sums = np.cumsum(probs, axis=1)
    on = sums[np.arange(rows), rng.integers(0, k, rows)]
    segment_ends = sums[np.arange(rows), rng.integers(1, k // segment + 1, rows) * segment - 1]
    last = sums[:, -2] + (sums[:, -1] - sums[:, -2]) * rng.random(rows)
    first = sums[np.arange(rows), rng.integers(0, segment, rows)]
    for u in (on, np.nextafter(on, 0), np.nextafter(on, 2), segment_ends,
              np.nextafter(segment_ends, 2), sums[:, k // 2 - 1], last, first,
              np.zeros(rows), rng.random(rows)):
        kept = probs.copy()
        picks = _chunk_outcomes(probs, u)[0]
        assert np.array_equal(probs, kept)   # the pick leaves the block as it was
        assert np.array_equal(picks, estimate._sequential_pick(probs, u, range(rows)))
        assert np.array_equal(picks, _reference_picks(sums, u))
    # prefix sums that end below u pick the last outcome
    low = _rows_with_plateaus(k, rows, rng, scale=1 - 1e-12)
    u = np.full(rows, np.nextafter(1.0, 0.0))
    picks = _chunk_outcomes(low, u)[0]
    assert np.array_equal(picks, estimate._sequential_pick(low, u, range(rows)))
    assert np.all(picks == k - 1)


@pytest.mark.parametrize("k", [48, 720])
def test_pick_rejects_rows_that_do_not_sum_to_one(k):
    assert 48 < estimate._TWO_LEVEL_MIN <= 720   # one case on each side of the gate
    probs = np.full((4, k), (1 + 1e-8) / k)
    with pytest.raises(RuntimeError, match=r"normalize: worst \|sum p - 1\| = 1\.000e-08, "
                                           r"above the tolerance 1\.0e-09"):
        _chunk_outcomes(probs, np.full(4, 0.5))


@pytest.mark.parametrize("k", [48, 720])
def test_pick_rejects_a_row_with_a_nan_probability(k):
    probs = np.full((4, k), 1 / k)
    probs[2, k // 2] = np.nan
    with pytest.raises(RuntimeError, match=r"worst \|sum p - 1\| = nan, .* at trial 2 "
                                           r"\(sum p = nan\)$"):
        _chunk_outcomes(probs, np.full(4, 0.5))


# short last segments of 2 and 15 outcomes at k = 130 and 143, and 1 to 8
# blocks in a chunk (of 315, 286 and 128 rows)
@pytest.mark.parametrize("rows", [1, 300, 1000])
@pytest.mark.parametrize("k", [130, 143, 480, 720])
def test_chunk_path_picks_match_the_sequential_pick(k, rows, recomputed):
    assert k >= estimate._TWO_LEVEL_MIN
    rng = np.random.default_rng(k + rows)
    probs = _rows_with_plateaus(k, rows, rng)
    sums = np.cumsum(probs, axis=1)
    on = sums[np.arange(rows), rng.integers(0, k, rows)]
    last = sums[:, -2] + (sums[:, -1] - sums[:, -2]) * rng.random(rows)
    redone = []
    for u in (on, np.nextafter(on, 0), np.nextafter(on, 2), last, np.zeros(rows),
              rng.random(rows)):
        unchanged = probs.copy()
        recomputed.clear()
        picks = _chunk_outcomes(probs, u)[0]
        redone.append(len(recomputed))
        assert np.array_equal(probs, unchanged)
        assert np.array_equal(picks, estimate._sequential_pick(probs, u, range(rows)))
        assert np.array_equal(picks, _reference_picks(sums, u))
    # the rows whose u is on or next to a sum take the redo, bar a few on a
    # plateau or at the last outcome; the other rows do not
    assert min(redone[:3]) > 0.98 * rows and redone[3:] == [0, 0, 0]


# one block at k = 1 and 2 and at 300 rows; at 4096 rows, 4 blocks at k = 40,
# 7 at k = 60 (of 585 and 586 rows) and 13 at k = 127
@pytest.mark.parametrize("rows", [1, 300, CHUNK])
@pytest.mark.parametrize("k", [1, 2, 40, 60, 127])
def test_narrow_chunk_picks_match_the_reference(k, rows):
    assert k < estimate._TWO_LEVEL_MIN
    rng = np.random.default_rng(k + rows)
    probs = _rows_with_plateaus(k, rows, rng)
    sums = np.cumsum(probs, axis=1)
    on = sums[np.arange(rows), rng.integers(0, k, rows)]
    plateau = sums[:, max(k // 2 - 1, 0)]   # on the plateau in the even rows
    start = 3 * CHUNK
    for u in (on, np.nextafter(on, 0), np.nextafter(on, 2), plateau, np.zeros(rows),
              rng.random(rows)):
        picks, calls = _chunk_outcomes(probs, u, start)
        assert np.array_equal(picks, _reference_picks(sums, u))
        assert calls == list(blocks(rows, block_rows(k)))
    if k >= 4:   # a u on a plateau picks its first outcome
        assert np.all(_chunk_outcomes(probs, plateau, start)[0][::2] == k // 4 - 1)
    # prefix sums that top out at 1 - 1e-12, below u, pick the last outcome
    low = _rows_with_plateaus(k, rows, rng, scale=1 - 1e-12)
    u = np.full(rows, np.nextafter(1.0, 0.0))
    picks = _chunk_outcomes(low, u, start)[0]
    assert np.array_equal(picks, _reference_picks(np.cumsum(low, axis=1), u))
    assert np.all(picks == k - 1)


# the transpose of a block of one row or one outcome is contiguous, so only
# an explicit copy keeps the prefix sums out of the block
@pytest.mark.parametrize("rows, k", [(1, 40), (64, 1), (64, 40)])
def test_the_pick_only_reads_its_block(rows, k):
    rng = np.random.default_rng(rows + k)
    probs = _rows_with_plateaus(k, rows, rng)
    u = rng.random(rows)
    unchanged, same_u = probs.copy(), u.copy()
    picks = estimate._sequential_pick(probs, u, range(rows))
    assert np.array_equal(probs, unchanged) and np.array_equal(u, same_u)
    assert np.array_equal(picks, _reference_picks(np.cumsum(probs, axis=1), u))
    # the narrow path of the chunk pick, which `simulate` runs below the gate
    picks = _chunk_outcomes(probs, u)[0]
    assert np.array_equal(probs, unchanged) and np.array_equal(u, same_u)
    assert np.array_equal(picks, _reference_picks(np.cumsum(probs, axis=1), u))


# a row of the last block of a 2000-row chunk from trial 8192: the second
# of 2 blocks at k = 40, the 7th of 7 at k = 127, and at k = 720, where the
# two-level pick checks the whole chunk at once, the 16th of 16
@pytest.mark.parametrize("k", [40, 127, 720])
def test_chunk_pick_names_the_trial_of_an_unnormalized_row(k):
    rows, row, start = 2000, 1995, 2 * CHUNK
    probs = np.full((rows, k), 1 / k)
    probs[row] *= 1 + 1e-8
    with pytest.raises(RuntimeError, match=r"normalize: worst \|sum p - 1\| = 1\.000e-08, "
                                           rf".* at trial {start + row} "):
        _chunk_outcomes(probs, np.full(rows, 0.5), start)


# blocks of 125 rows and a last one of 126 at k = 480 (1001 rows), of 233,
# 233 and 234 at k = 143 (700 rows) and of 100 at k = 720 (300 rows); u sits
# on a prefix sum in the listed blocks only, so only they take the redo
@pytest.mark.parametrize("k, rows, redone", [(480, 1001, (1, 7)), (143, 700, (0, 2)),
                                             (720, 300, (1,))])
def test_redo_recomputes_only_the_blocks_that_hold_a_redo_row(k, rows, redone, recomputed):
    rng = np.random.default_rng(k)
    probs = _rows_with_plateaus(k, rows, rng)
    sums = np.cumsum(probs, axis=1)
    spans = list(blocks(rows, block_rows(k)))
    assert len({hi - lo for lo, hi in spans}) == 1 + (rows % len(spans) > 0)
    u = rng.random(rows)
    on = np.concatenate([np.arange(*spans[block]) for block in redone])
    u[on] = sums[on, rng.integers(0, k - 1, on.size)]
    picks, calls = _chunk_outcomes(probs, u, start=CHUNK)
    # each row, recomputed or not, has its reference pick, gathered from its row
    assert np.array_equal(picks, _reference_picks(sums, u))
    # one call per block, then one per block that holds a redo row
    assert calls == spans + [spans[block] for block in redone]
    assert 0.9 * on.size < len(recomputed) and set(recomputed) <= set((CHUNK + on).tolist())


class _UniformsOnPrefixSums:
    """Generator stand-in for `simulate` on `povm`: each chunk's Haar draws
    from a generator seeded with the chunk's number, and each uniform on,
    just below or just above (`side` 0, -1 or 1) a sequential prefix sum of
    its state's outcome probabilities, which it forms block by block as
    `simulate` does. `expected` holds each trial's reference pick's squared
    overlap."""

    def __init__(self, povm, trials, side, seed):
        self._povm, self._trials, self._side = povm, trials, side
        self._rng = np.random.default_rng(seed)
        self._chunk = 0
        self.expected = []

    def spawn(self, count):
        return [self] * count

    def standard_normal(self, shape):
        self._chunk += 1
        return np.random.default_rng(self._chunk).standard_normal(shape)

    def random(self, rows):
        povm, k = self._povm, self._povm.size
        psis = haar_random_states(povm.dim, rows, np.random.default_rng(self._chunk))
        most = block_rows(k)
        buffers = kernel_buffers(povm.states, min(self._trials, CHUNK, most))
        overlaps_sq, probs = np.empty((rows, k)), np.empty((rows, k))
        for lo, hi in blocks(rows, most):
            overlaps_sq[lo:hi], probs[lo:hi] = outcome_probabilities(povm, psis[lo:hi], buffers)
        sums = np.cumsum(probs, axis=1)
        u = sums[np.arange(rows), self._rng.integers(0, k - 1, rows)]
        if self._side:
            u = np.nextafter(u, 1 + self._side)
        self.expected.append(overlaps_sq[np.arange(rows), _reference_picks(sums, u)])
        return u


@pytest.mark.parametrize("side", [0, -1, 1], ids=["on", "below", "above"])
def test_simulate_recomputes_rows_whose_uniform_sits_on_a_prefix_sum(monkeypatch, wide_povms,
                                                                    side, recomputed):
    # every row goes through the redo of its block, and a full chunk and a
    # one-row chunk still give each row its reference pick's fidelity
    monkeypatch.setattr(estimate, "_workers", lambda elements: 1)
    for povm in (wide_povms[0], wide_povms[2]):   # k = 480 and 129
        recomputed.clear()
        trials = CHUNK + 1
        rng = _UniformsOnPrefixSums(povm, trials, side, povm.size)
        report = simulate(povm, trials, rng, keep_samples=True)
        assert np.array_equal(report.samples, np.concatenate(rng.expected)), povm.provenance
        assert recomputed == list(range(trials))


def _unnormalized_row(monkeypatch, call, row):
    """Make row `row` of the `call`-th kernel call of `simulate` (from 0)
    sum to 1 + 1e-8."""
    kernel = estimate.outcome_probabilities
    calls = []

    def off_by_1e8(*args):
        overlaps_sq, probs = kernel(*args)
        if len(calls) == call:
            probs[row] *= (1 + 1e-8) / probs[row].sum()
        calls.append(len(probs))
        return overlaps_sq, probs

    monkeypatch.setattr(estimate, "outcome_probabilities", off_by_1e8)


# row 5 of the second chunk's first block at k = 40 (the first chunk runs 4
# blocks), and of its second block, rows 100-200, at k = 480 (the first
# chunk runs 32): the sequential and the two-level pick
@pytest.mark.parametrize("povm, call, trial", [(4, 4, 4096 + 5), (2, 33, 4096 + 105)],
                         ids=["sequential", "two-level"])
def test_normalization_error_names_the_trial(monkeypatch, shipped_povms, povm, call, trial):
    monkeypatch.setattr(estimate, "_workers", lambda elements: 1)
    povm = shipped_povms[povm]
    _unnormalized_row(monkeypatch, call, 5)
    with pytest.raises(RuntimeError, match=r"normalize: worst \|sum p - 1\| = 1\.000e-08, "
                                           r"above the tolerance 1\.0e-09, "
                                           rf"at trial {trial} \(sum p = 1\.0000000\d+\)$"):
        simulate(povm, CHUNK + 300, np.random.default_rng(2))


def test_samples_only_kept_on_request():
    povm = build_table1_povm(2)
    assert simulate(povm, 50, np.random.default_rng(1)).samples is None
    report = simulate(povm, 50, np.random.default_rng(1), keep_samples=True)
    assert report.samples.shape == (50,)
    assert "samples" not in report.to_dict()


def test_argument_validation():
    with pytest.raises(ValueError):
        simulate(build_table1_povm(2), 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        optimal_fidelity(0, 3)
    with pytest.raises(ValueError):
        haar_moment(1, 2)
