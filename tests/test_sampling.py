"""Haar sampler: determinism and moment checks against independent references."""

import numpy as np
import pytest

from spinpovm import haar_moment, haar_random_states
from oracles import projective_moment_quadrature, reference_haar_states


def test_same_seed_gives_identical_states():
    a = haar_random_states(3, 1, np.random.default_rng(123))[0]
    b = haar_random_states(3, 1, np.random.default_rng(123))[0]
    assert np.array_equal(a, b)


def test_batch_matches_sequence_of_singles():
    batch = haar_random_states(4, 5, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    singles = np.array([haar_random_states(4, 1, rng)[0] for _ in range(5)])
    assert np.array_equal(batch, singles)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@pytest.mark.parametrize("count", [1, 7, 4096])
def test_states_match_the_reference_bit_for_bit(dim, count):
    for seed in (0, 5, 2026):
        states = haar_random_states(dim, count, np.random.default_rng(seed))
        reference = reference_haar_states(dim, count, np.random.default_rng(seed))
        assert states.tobytes() == reference.tobytes()


def test_states_are_normalized():
    states = haar_random_states(3, 1000, np.random.default_rng(1))
    assert np.max(np.abs(np.sum(np.abs(states) ** 2, axis=1) - 1.0)) < 1e-12


def test_rejects_bad_arguments():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        haar_random_states(1, 10, rng)
    with pytest.raises(ValueError):
        haar_random_states(3, 0, rng)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_first_moment_is_one_over_dim(dim):
    rng = np.random.default_rng(2024)
    draws = 100_000
    states = haar_random_states(dim, draws, rng)
    values = np.abs(states[:, 0]) ** 2
    mean = values.mean()
    stderr = values.std(ddof=1) / np.sqrt(draws)
    assert abs(mean - 1.0 / dim) < 5 * stderr


@pytest.mark.parametrize("dim,power", [(3, 2), (3, 3), (4, 2), (4, 4)])
def test_overlap_moments_match_haar_formula(dim, power):
    rng = np.random.default_rng(5150 + dim + power)
    reference = haar_random_states(dim, 1, rng)[0]
    draws = 100_000
    states = haar_random_states(dim, draws, rng)
    values = np.abs(states.conj() @ reference) ** (2 * power)
    mean = values.mean()
    stderr = values.std(ddof=1) / np.sqrt(draws)
    assert abs(mean - haar_moment(dim, power)) < 5 * stderr


@pytest.mark.parametrize("power", [1, 2, 3, 4, 5, 6])
def test_haar_moment_matches_projective_quadrature_d3(power):
    rng = np.random.default_rng(77 + power)
    reference = haar_random_states(3, 1, rng)[0]
    via_quadrature = projective_moment_quadrature(reference, power)
    assert abs(via_quadrature - haar_moment(3, power)) < 1e-6
