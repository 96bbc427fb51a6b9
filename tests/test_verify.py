"""Verifier behaviour on healthy, broken, and perturbed POVMs."""

import tracemalloc

import numpy as np
import pytest

from spinpovm import (
    PENROSE40,
    Check,
    Povm,
    RayCatalog,
    VerificationReport,
    build_table1_povm,
    catalog,
    haar_random_states,
    overlap_spectrum,
    spin32_povm,
    sym_dim,
    symmetric_power_matrix,
    verify_completeness,
    verify_scalar_identity,
)
from spinpovm import blas, verify
from spinpovm.sampling import chunks
from spinpovm.verify import (block_rows, blocks, kernel_buffers, outcome_probabilities,
                             probe_features)
from conftest import gamma, scaled
from oracles import brute_force_identity_residual, reference_moment_sums


def test_table1_n3_passes(shipped_povms):
    report = verify_completeness(build_table1_povm(3))
    assert report.passed and report.worst < 1e-9


def test_penrose_n3_passes():
    report = verify_completeness(spin32_povm(PENROSE40, 3))
    assert report.passed


def test_deleting_a_state_breaks_completeness():
    povm = spin32_povm(PENROSE40, 3)
    deficient = Povm(povm.weights[:-1], povm.states[:-1], 3)
    report = verify_completeness(deficient)
    assert not report.passed
    frobenius = {c.name: c for c in report.checks}["completeness-frobenius"]
    assert frobenius.residual > 1e-3


def test_completeness_matches_full_space_brute_force():
    # residual against the explicit symmetrizer in the D^N tensor space
    povm = build_table1_povm(2)
    via_subspace = {c.name: c for c in verify_completeness(povm).checks}[
        "completeness-frobenius"].residual
    via_full = brute_force_identity_residual(povm.weights, povm.states, 2)
    assert via_full < 1e-12
    assert abs(via_subspace - via_full) < 1e-12

    deficient = Povm(povm.weights[:-4], povm.states[:-4], 2)
    sub = {c.name: c for c in verify_completeness(deficient).checks}[
        "completeness-frobenius"].residual
    full = brute_force_identity_residual(deficient.weights, deficient.states, 2)
    assert abs(sub - full) < 1e-10


def _one_block_frobenius(povm):
    """The Frobenius residual from one product over every row."""
    vectors = symmetric_power_matrix(povm.states, povm.copies)
    operator = vectors.T @ (povm.weights[:, None] * vectors.conj())
    return float(np.linalg.norm(operator - np.eye(len(operator))))


def test_bundled_completeness_is_one_block(shipped_povms):
    # sym_dim is at most 21 and k at most 720: every bundled POVM is one
    # block of block_rows(sym_dim) rows, with the one-product bits
    for povm in shipped_povms:
        assert verify_completeness(povm).checks == (
            Check("completeness-frobenius", _one_block_frobenius(povm)),
            Check("weight-sum", abs(povm.weight_sum - sym_dim(povm.dim, povm.copies))))


def test_completeness_holds_one_block_of_embeddings():
    # 2000 rows at sym_dim(4, 15) = 816 are 16 blocks of 125: the operator
    # and one block's product take 10.6 MB each, and an embedding of every
    # row at once would take 150 MiB
    povm = Povm(np.full(2000, 816 / 2000), haar_random_states(4, 2000,
                                                              np.random.default_rng(15)), 15)
    verify_completeness(Povm(povm.weights[:2], povm.states[:2], 15))  # caches
    tracemalloc.start()
    try:
        report = verify_completeness(povm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20, peak
    residual = report.checks[0].residual
    assert abs(residual - _one_block_frobenius(povm)) <= 1e-12 * residual


@pytest.mark.skipif(blas._openblas() is None, reason="numpy's BLAS is not a bundled OpenBLAS")
def test_completeness_is_the_same_on_any_blas_thread_count():
    # 300 Haar rays of C^4 at 15 copies, three blocks at sym_dim 816: the
    # product and the norm's dot products run on one thread, whatever count
    # OpenBLAS is set to, which is set back afterwards
    povm = Povm(np.full(300, 816 / 300), haar_random_states(4, 300,
                                                            np.random.default_rng(15)), 15)
    get_threads, set_threads = blas._openblas()
    before = get_threads()
    residuals = []
    try:
        for threads in (1, 2):
            set_threads(threads)
            residuals.append(verify_completeness(povm).checks[0].residual)
            assert get_threads() == threads
    finally:
        set_threads(before)
    assert residuals[0] == residuals[1]


def test_completeness_pass_implies_scalar_pass(shipped_povms):
    rng = np.random.default_rng(99)
    for povm in shipped_povms:
        assert verify_completeness(povm).passed
        assert verify_scalar_identity(povm, 1000, rng).passed


def test_scaled_weights_shift_scalar_residual_linearly():
    povm = build_table1_povm(2)
    scaled_up = scaled(povm, 1.01)
    rng = np.random.default_rng(4)
    report = verify_scalar_identity(scaled_up, 500, rng)
    assert abs(report.worst - 0.01) < 1e-3
    assert not report.passed


# 3 is the smallest cap for which an even split has no one-row block
@pytest.mark.parametrize("most", [3, 128, 682, 853, 1024])
def test_blocks_are_an_even_split_within_the_cap(most):
    for rows in [1, 2, 3, most - 1, most, most + 1, 2 * most + 1, 4095, 4096]:
        ranges = list(blocks(rows, most))
        assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
        assert ranges[-1][1] == rows
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) <= most
        assert len(ranges) == -(-rows // most)
        assert max(sizes) - min(sizes) <= 1
        # a one-row block only for a one-row input
        assert min(sizes) > 1 or rows == 1


@pytest.mark.parametrize("trials", [1, 127, 128, 129, 4097])
def test_blocked_scalar_check_matches_closed_form(trials):
    # at k = 3 a whole chunk is one block (block_rows(3) > 4096): chunk edge
    # at 4096; with weights (1, 1, 0.5) on the identity basis the overlap
    # sum is 1 - 0.5 |psi_3|^2
    _assert_closed_form(3, trials)


@pytest.mark.parametrize("trials", [2047, 2048, 2049, 4097, 6145])
def test_blocked_scalar_check_matches_closed_form_across_block_edges(trials):
    # at k = 20 the element-sized blocks hold 2048 rows, so block edges
    # fall inside a chunk, in the last one too at 6145 probes
    assert block_rows(20) == 2048
    _assert_closed_form(20, trials)


def _assert_closed_form(dim, trials):
    """The scalar check of weights (1, ..., 1, 0.5) on the identity basis of
    C^dim, whose overlap sum is 1 - 0.5 |psi_dim|^2, against that value."""
    povm = Povm(np.r_[np.ones(dim - 1), 0.5], np.eye(dim), 1)
    rng = np.random.default_rng(trials)
    expected = max(float(np.max(0.5 * np.abs(
        haar_random_states(dim, stop - start, rng)[:, -1]) ** 2))
        for start, stop in chunks(trials))
    report = verify_scalar_identity(povm, trials, np.random.default_rng(trials))
    assert abs(report.worst - expected) < 1e-15


@pytest.mark.parametrize("index, trials, calls, largest",
                         [(4, 1000, 1, 1000), (3, 1000, 8, 125), (7, 20_000, 34, 603)],
                         ids=["k40", "k720", "k60-short-last-chunk"])
def test_scalar_check_calls_the_kernel_once_per_block(monkeypatch, shipped_povms, index, trials,
                                                     calls, largest):
    # one kernel call per element-sized block: 1000 probes are one block at
    # k = 40 (1024 rows) and 8 of 125 rows at k = 720 (128). At k = 60 (682
    # rows) 20,000 probes are 4 chunks of 7 blocks of 585-586 rows, then a
    # 3616-row chunk of 6 blocks of 602-603, which the buffers must hold
    povm = shipped_povms[index]
    most = block_rows(povm.size)
    expected = [hi - lo for start, stop in chunks(trials) for lo, hi in blocks(stop - start, most)]
    assert len(expected) == calls and max(expected) == largest
    kernel, seen, worst = verify.outcome_probabilities, [], 0.0

    def recording_kernel(povm, features, buffers):
        seen.append(len(features))
        return kernel(povm, features, buffers)

    monkeypatch.setattr(verify, "outcome_probabilities", recording_kernel)
    report = verify_scalar_identity(povm, trials, np.random.default_rng(trials))
    assert seen == expected
    # the same worst residual as one kernel call per chunk
    rng = np.random.default_rng(trials)
    for start, stop in chunks(trials):
        features = probe_features(haar_random_states(povm.dim, stop - start, rng))
        _, probs = kernel(povm, features, kernel_buffers(povm.states, stop - start))
        worst = max(worst, float(np.max(np.abs(probs.sum(axis=1) - 1.0))))
    assert report.worst == worst


# 3000 probes of table1-N2 (k = 48) are 4 blocks of 750 rows
@pytest.mark.parametrize("block", [0, 2])
def test_scalar_check_fails_a_nan_probability_in_any_block(monkeypatch, block):
    povm = build_table1_povm(2)
    kernel, seen = verify.outcome_probabilities, []

    def nan_kernel(povm, features, buffers):
        overlaps_sq, probs = kernel(povm, features, buffers)
        if len(seen) == block:
            probs[len(features) // 2, 7] = np.nan
        seen.append(len(features))
        return overlaps_sq, probs

    monkeypatch.setattr(verify, "outcome_probabilities", nan_kernel)
    report = verify_scalar_identity(povm, 3000, np.random.default_rng(0))
    assert seen == [750] * 4
    assert np.isnan(report.worst) and not report.passed


@pytest.mark.parametrize("residuals", [(1e-15, np.nan), (np.nan, 1e-15)])
def test_a_report_holding_a_nan_residual_has_a_nan_worst(residuals):
    report = VerificationReport("povm", tuple(Check(f"check-{i}", residual)
                                              for i, residual in enumerate(residuals)))
    assert np.isnan(report.worst) and not report.passed
    assert VerificationReport("povm", (Check("a", 1e-15), Check("b", 3e-16))).worst == 1e-15


def test_reports_are_deterministic_for_a_seed():
    povm = spin32_povm(PENROSE40, 2)
    r1 = verify_scalar_identity(povm, 700, np.random.default_rng(21))
    r2 = verify_scalar_identity(povm, 700, np.random.default_rng(21))
    assert r1.to_dict() == r2.to_dict()


def test_mixed_dimensions_are_unrepresentable():
    # a Povm carries one rectangular state block, so mixed dims fail at entry
    with pytest.raises(ValueError):
        Povm(np.array([1.0, 1.0]),
             np.array([np.array([1, 0, 0]), np.array([1, 0, 0, 0])], dtype=object), 2)


@pytest.mark.parametrize("copies", [2.7, 2.0, True, np.True_])
def test_non_integer_copies_rejected(copies):
    povm = build_table1_povm(2)
    with pytest.raises(ValueError, match="copies must be an integer"):
        Povm(povm.weights, povm.states, copies)


def test_numpy_integer_copies_accepted():
    povm = build_table1_povm(2)
    assert Povm(povm.weights, povm.states, np.int64(2)).copies == 2


def test_report_serialization_shape():
    report = verify_completeness(build_table1_povm(2))
    payload = report.to_dict()
    assert payload["passed"] is True
    assert {row["name"] for row in payload["checks"]} == {
        "completeness-frobenius", "weight-sum"}
    assert payload["worst"] == max(row["residual"] for row in payload["checks"])


def test_trials_validation():
    with pytest.raises(ValueError):
        verify_scalar_identity(build_table1_povm(2), 0, np.random.default_rng(0))


def _terms(dim):
    """Terms of each real dot product behind a squared overlap: the D^2
    features for D <= 4, and 2D interleaved doubles for Re and for Im above."""
    return dim * dim if dim <= verify._FEATURE_MOST_DIM else 2 * dim


# the dimensions the kernel tests run at: D <= 4 takes the feature route
_DIMS = (2, 3, 4, 5, 8)


@pytest.mark.parametrize("k", [21, 40, 60, 129, 480, 720])
def test_kernel_buffers_start_on_a_cache_line(k):
    # odd k and odd rows: the spare half starts a padded stride after the
    # first one, as the factor's rows are padded
    for dim in _DIMS:
        _assert_kernel_buffers(k, dim)


def _assert_kernel_buffers(k, dim):
    rng = np.random.default_rng(k)
    povm = Povm(np.full(k, dim / k), haar_random_states(dim, k, rng), 1)
    # on either route an odd number of whole cache lines, unless k is whole
    width = k if k % 8 == 0 else (-(-k // 8) | 1) * 8
    parts = 1 if dim <= verify._FEATURE_MOST_DIM else 2
    for rows in (127, 128):
        buffers = kernel_buffers(povm.states, rows)
        factor, halves = buffers
        assert not np.shares_memory(factor, halves)
        for buffer in buffers:
            assert buffer.dtype == np.float64
            assert buffer.flags.c_contiguous and buffer.flags.writeable
            assert buffer.ctypes.data % 64 == 0
        assert factor.shape == (parts, _terms(dim), width)
        assert not factor[..., k:].any()
        assert halves.shape == (2, rows * width)
        psis = haar_random_states(dim, rows, rng)
        features = probe_features(psis)
        for hi in range(1, rows + 1):
            overlaps_sq, probs = outcome_probabilities(povm, features[:hi], buffers)
            assert probs.shape == overlaps_sq.shape == (hi, k)
            assert probs.ctypes.data % 64 == 0 and overlaps_sq.ctypes.data % 64 == 0
            assert overlaps_sq.strides == probs.strides == (8 * width, 8)
            # the squared moduli take the first half, the probabilities the
            # spare one
            assert overlaps_sq.ctypes.data == halves[0].ctypes.data
            assert probs.ctypes.data == halves[1].ctypes.data
        # the zero columns give zero squared moduli and probabilities
        assert not halves[:, :rows * width].reshape(2, rows, width)[:, :, k:].any()
        # the route keeps an absolute bound, not a relative one: at |z|^2 =
        # 7e-7 re^2 + im^2 and np.abs differ by 1.8e-13 of it (k = 21, D = 3)
        expected = np.abs(psis.conj() @ povm.states.T) ** 2
        bound = 8 * gamma(_terms(dim))
        assert np.allclose(overlaps_sq, expected, rtol=1e-13, atol=bound), dim
        assert np.allclose(probs, expected * povm.weights, rtol=1e-13, atol=bound), dim


@pytest.mark.parametrize("dim", _DIMS)
def test_block_overlaps_match_the_chunk_product_bit_for_bit(dim):
    # k = 43 D is a whole number of cache lines only at D = 8: without the
    # zero columns, OpenBLAS's small-matrix kernel rounded the last k % 8
    # columns of a block unlike the general kernel of the 4096-row product
    k = 43 * dim
    rng = np.random.default_rng(dim)
    states = haar_random_states(dim, k, rng)
    features = probe_features(haar_random_states(dim, 4096, rng))
    with blas.one_blas_thread():
        full = verify._squared_overlaps(features, kernel_buffers(states, 4096))[0, :, :k].copy()
        for rows in (2, 3, 111, 128, 682, 4095):
            buffers = kernel_buffers(states, rows)
            for lo, hi in blocks(4096, rows):
                block = verify._squared_overlaps(features[lo:hi], buffers)[0, :, :k]
                assert np.array_equal(block, full[lo:hi]), (dim, rows, lo)


@pytest.mark.parametrize("states", [np.eye(3)[[0, 1, 2, 0]], catalog(PENROSE40).states,
                                    haar_random_states(5, 30, np.random.default_rng(5))],
                         ids=["D3", "penrose40", "D5"])
def test_a_bloch_dot_pass_builds_its_rows_features_once(monkeypatch, states):
    # the probes of `_bloch_blocks` are the rows' own features, which also
    # fill the factor
    build, calls = verify.probe_features, []

    def counting_build(psis):
        calls.append(len(psis))
        return build(psis)

    monkeypatch.setattr(verify, "probe_features", counting_build)
    k = len(states)
    povm = Povm(np.full(k, states.shape[1] / k), states, 1)
    for run in (lambda: verify.bloch_dots(states), lambda: verify.verify_hierarchy(povm),
                lambda: overlap_spectrum(RayCatalog("rays", tuple(map(str, range(k))), states))):
        calls.clear()
        run()
        assert calls == [k]


def test_real_overlaps_match_the_complex_moduli(shipped_povms):
    # For D <= 4, x is one real dot product of K = D^2 terms, the features
    # times the factor, whose absolute values add to at most (sum_a |psi_a|
    # |s_a|)^2 <= 1 (Cauchy-Schwarz, unit rows); with the features' own
    # roundings it is within gamma_(K+4) of |z|^2. Above, Re and Im of
    # <psi_r|psi> are each a real dot product of K = 2D terms, within gamma_K
    # of their exact values, and re^2 + im^2 within 2 sqrt(2) gamma_K + 2u of
    # |z|^2 <= 1. The complex route's products sum the same 2D real terms,
    # then take a hypot (1 ulp) and square it, so on either route the two
    # differ by less than 8 gamma_K.
    rng = np.random.default_rng(24)
    for dim in _DIMS:
        identity = Povm(np.ones(dim), np.eye(dim, dtype=complex), 1,
                        provenance=f"identity-D{dim}-N1")
        haar = Povm(np.full(60, dim / 60), haar_random_states(dim, 60, rng), 1,
                    provenance=f"haar60-D{dim}")
        for povm in [povm for povm in shipped_povms if povm.dim == dim] + [identity, haar]:
            psis = haar_random_states(povm.dim, 2000, rng)
            overlaps_sq, _ = outcome_probabilities(povm, probe_features(psis),
                                                   kernel_buffers(povm.states, len(psis)))
            expected = np.abs(psis.conj() @ povm.states.T) ** 2
            gap = float(np.max(np.abs(overlaps_sq - expected)))
            assert gap <= 8 * gamma(_terms(dim)), (povm.provenance, gap)


@pytest.mark.parametrize("copies", range(1, 9))
def test_power_step_matches_the_power_function(copies):
    # a product of N factors in any order is within gamma_(N-1) of x^N,
    # and x ** N (the C library's pow) within an ulp of it
    rng = np.random.default_rng(copies)
    x = np.concatenate([[0.0, 1.0, 0.5, 1e-30], rng.random(4000), rng.random(100) ** 8])
    out = np.empty_like(x)
    verify._power(x, copies, out)
    expected = x ** copies
    assert out[0] == 0.0 and out[1] == 1.0 and out[2] == expected[2]
    assert np.all(np.abs(out - expected) <= (gamma(copies - 1) + 2.0 ** -52) * expected)


def _split(povm, parts, first):
    """The same operator with elements `first` on split into `parts` equal ones."""
    weights, states = povm.weights, povm.states
    return Povm(np.r_[weights[:first], np.repeat(weights[first:] / parts, parts)],
                np.r_[states[:first], np.repeat(states[first:], parts, axis=0)],
                povm.copies, provenance=f"{povm.provenance}-split-{parts}")


def _basis_2049():
    # e_0 appears 513 times and the others 512: each copy weighs 1/count
    index = np.arange(2049) % 4
    return Povm(1 / np.bincount(index)[index], np.eye(4)[index], 1)


@pytest.mark.parametrize("make, k", [(lambda: _split(build_table1_povm(4), 2, 479), 481),
                                     (lambda: _split(build_table1_povm(5), 3, 0), 2160),
                                     (_basis_2049, 2049)],
                         ids=["k481", "k2160", "basis2049"])
def test_blocked_moment_sums_match_the_full_matrix(make, k):
    povm = make()
    parts = list(verify._moment_sums(povm))
    # k = 481 splits into uneven blocks of 120 and 121 rows
    assert [part.shape for part in parts] == [(hi - lo, povm.copies) for lo, hi in
                                              blocks(k, block_rows(k))]
    assert len(parts) > 1
    sums = np.concatenate(parts)
    for m in range(1, povm.copies + 1):
        expected = reference_moment_sums(povm.states, povm.weights, m)
        assert np.max(np.abs(sums[:, m - 1] - expected)) < 1e-13, m
    assert verify.verify_hierarchy(povm).passed


def test_hierarchy_forms_no_k_by_k_matrix():
    # at k = 2160 the k x k complex Gram alone takes 75 MB
    povm = _split(build_table1_povm(5), 3, 0)
    tracemalloc.start()
    try:
        report = verify.verify_hierarchy(povm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 16 * povm.size ** 2 / 4, peak


def test_embedding_holds_a_bounded_slice_of_powers():
    # the one-copy basis of C^256: two 128-row blocks, whose (rows, sym_dim,
    # D) powers took 128 MiB at once (131 MiB of peak measured); in slices
    # of basis columns the peak is the 1 MiB operator and a block's
    # embedding and its products (3.8 MiB measured)
    povm = Povm(np.ones(256), np.eye(256), 1)
    verify_completeness(Povm(np.ones(4), np.eye(4), 1))   # caches
    tracemalloc.start()
    try:
        report = verify_completeness(povm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 8 * 2 ** 20, peak
