"""Estimation statistics: exact averages, Monte Carlo convergence, determinism."""

import numpy as np
import pytest

from spinpovm import (
    Povm,
    build_table1_povm,
    exact_average_fidelity,
    haar_moment,
    haar_random_states,
    optimal_fidelity,
    penrose_states,
    set60_states,
    simulate,
    spin32_povm,
    verify_completeness,
)
from spinpovm.verify import outcome_probabilities
from oracles import projective_moment_quadrature, reference_simulate_samples


def test_exact_fidelity_table1_n2():
    assert abs(exact_average_fidelity(build_table1_povm(2)) - 0.6) < 1e-12


def test_exact_fidelity_set60_n3():
    povm = spin32_povm(set60_states(), 3)
    assert abs(exact_average_fidelity(povm) - 4 / 7) < 1e-12


def test_exact_fidelity_table1_n5():
    assert abs(exact_average_fidelity(build_table1_povm(5)) - 0.75) < 1e-12


def test_exact_fidelity_hits_optimum_for_all_shipped(shipped_povms):
    for povm in shipped_povms:
        bound = optimal_fidelity(povm.copies, povm.dim)
        assert abs(exact_average_fidelity(povm) - bound) < 1e-12


def test_broken_povm_shows_suboptimal_exact_value():
    # computed from the weight sum, so the check stays falsifiable
    povm = build_table1_povm(2).scaled(0.9)
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
    report = simulate(spin32_povm(penrose_states(), 3), 30_000, rng)
    assert abs(report.exact_fidelity - 4 / 7) < 1e-12
    assert abs(report.mean_fidelity - 4 / 7) < 5 * report.std_error


def test_simulation_converges_across_seeds():
    povm = spin32_povm(set60_states(), 2)
    misses = 0
    for seed in range(25):
        report = simulate(povm, 4000, np.random.default_rng(seed))
        if abs(report.mean_fidelity - report.exact_fidelity) > 5 * report.std_error:
            misses += 1
    assert misses <= 1


def test_unverified_povm_rejected():
    broken = build_table1_povm(2).scaled(1.05)
    with pytest.raises(ValueError, match="completeness"):
        simulate(broken, 100, np.random.default_rng(0))


def test_probabilities_normalize_before_sampling(shipped_povms):
    rng = np.random.default_rng(77)
    for povm in shipped_povms:
        psis = haar_random_states(povm.dim, 200, rng)
        _, probs = outcome_probabilities(povm, psis)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9


def test_simulation_is_deterministic():
    povm = build_table1_povm(3)
    r1 = simulate(povm, 5000, np.random.default_rng(31), keep_samples=True)
    r2 = simulate(povm, 5000, np.random.default_rng(31), keep_samples=True)
    assert r1.to_dict() == r2.to_dict()
    assert np.array_equal(r1.samples, r2.samples)


def _kernel_samples(povm, trials, rng_factory):
    report = simulate(povm, trials, rng_factory(), keep_samples=True)
    return report.samples, reference_simulate_samples(povm, trials, rng_factory())


@pytest.mark.parametrize("trials", [1, 127, 128, 129, 4097])
def test_blocked_kernel_matches_unblocked_reference(shipped_povms, trials):
    # block edges at 128 rows, chunk edge at 4096; copies = 1 has no power step
    identity = Povm(np.ones(3), np.eye(3), 1, provenance="identity-D3-N1")
    for povm in (*shipped_povms, identity):
        samples, reference = _kernel_samples(
            povm, trials, lambda: np.random.default_rng(trials))
        assert np.array_equal(samples, reference), povm.provenance


class _UniformsAtTop:
    """Generator stand-in: Haar draws from a seeded stream, every uniform
    the largest double below 1."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def standard_normal(self, shape):
        return self._rng.standard_normal(shape)

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


def test_pick_clamps_to_last_outcome_when_prefix_sums_end_below_u():
    povm = build_table1_povm(2).scaled(1 - 1e-10)   # prefix sums top out near 1 - 1e-10
    assert verify_completeness(povm).passed
    samples, reference = _kernel_samples(povm, 300, lambda: _UniformsAtTop(4))
    assert np.array_equal(samples, reference)
    psis = haar_random_states(3, 300, np.random.default_rng(4))
    last = np.abs(psis.conj() @ povm.states[-1]) ** 2
    assert np.allclose(samples, last, rtol=0, atol=1e-15)


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
