"""Symmetric-subspace embedding against explicit tensor-product oracles."""

import numpy as np
import pytest

from spinpovm import (
    build_table1_povm,
    haar_random_states,
    multi_indices,
    sym_dim,
    symmetric_power_matrix,
    verify_completeness,
)
from spinpovm import symmetric
from conftest import scaled
from oracles import count_multisets, tensor_power_overlap


def test_sym_dim_known_values():
    assert sym_dim(3, 2) == 6
    assert sym_dim(3, 3) == 10
    assert sym_dim(3, 4) == 15
    assert sym_dim(3, 5) == 21
    assert sym_dim(4, 2) == 10
    assert sym_dim(4, 3) == 20


def test_sym_dim_single_copy_is_full_space():
    for dim in (2, 3, 4, 7):
        assert sym_dim(dim, 1) == dim


def test_sym_dim_matches_multiset_enumeration():
    # frozen from the brute-force count of multisets of size 3 from 4 symbols
    assert count_multisets(4, 3) == 20
    assert sym_dim(4, 3) == 20
    for dim in (2, 3, 4):
        for copies in (1, 2, 3, 4, 5):
            assert sym_dim(dim, copies) == count_multisets(dim, copies)


@pytest.mark.parametrize("dim,copies", [(1, 2), (0, 2), (3, 0), (3, -1)])
def test_sym_dim_rejects_bad_arguments(dim, copies):
    with pytest.raises(ValueError):
        sym_dim(dim, copies)


@pytest.mark.parametrize("dim,copies", [(2, 1023), (3, 43), (4, 16)])
def test_embedding_up_to_the_bound(dim, copies):
    assert sym_dim(dim, copies) <= symmetric.MAX_SYM_DIM < sym_dim(dim, copies + 1)
    psi = haar_random_states(dim, 1, np.random.default_rng(5))[0]
    coords = symmetric_power_matrix(psi, copies)[0]
    assert coords.shape == (sym_dim(dim, copies),)
    assert abs(np.vdot(coords, coords).real - 1.0) < 1e-9


@pytest.mark.parametrize("dim,copies", [(2, 1024), (2, 1100), (3, 44), (4, 17), (4, 500)])
def test_embedding_beyond_the_bound_is_refused_before_enumeration(dim, copies, monkeypatch):
    monkeypatch.setattr(symmetric, "multi_indices", None)
    with pytest.raises(ValueError, match=f"copies = {copies} is too many for dim = {dim}"):
        symmetric_power_matrix(np.eye(dim)[0], copies)


def test_sym_dim_and_multi_indices_are_not_bounded():
    assert sym_dim(4, 500) == 21_084_251
    assert len(multi_indices(2, 1100)) == 1101


def test_multi_indices_keeps_no_cache():
    # the embedding caches its arrays; the enumeration pins nothing a caller dropped
    assert multi_indices(3, 3) == multi_indices(3, 3)
    assert multi_indices(3, 3) is not multi_indices(3, 3)


def test_multi_indices_enumeration_is_a_bijection():
    for dim, copies in [(3, 2), (3, 5), (4, 3)]:
        idx = multi_indices(dim, copies)
        assert len(idx) == sym_dim(dim, copies)
        assert len(set(idx)) == len(idx)
        assert all(len(row) == dim and sum(row) == copies for row in idx)
        # decreasing lexicographic order is the fixed, reproducible convention
        assert list(idx) == sorted(idx, reverse=True)


def test_symmetric_power_of_basis_state():
    e1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    coords = symmetric_power_matrix(e1, 3)[0]
    idx = multi_indices(3, 3)
    expected = np.zeros(len(idx), dtype=complex)
    expected[idx.index((3, 0, 0))] = 1.0
    assert np.allclose(coords, expected, atol=1e-15)


def test_symmetric_power_overlaps_match_full_tensor_product():
    rng = np.random.default_rng(42)
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        copies = int(rng.integers(1, 4))
        phi, psi = haar_random_states(dim, 2, rng)
        via_sym = np.vdot(symmetric_power_matrix(phi, copies)[0],
                          symmetric_power_matrix(psi, copies)[0])
        via_full = tensor_power_overlap(phi, psi, copies)
        assert abs(via_sym - via_full) < 1e-12


def test_symmetric_power_overlap_is_single_copy_overlap_to_the_n():
    rng = np.random.default_rng(7)
    for copies in (2, 3, 4, 5):
        for _ in range(25):
            phi, psi = haar_random_states(3, 2, rng)
            via_sym = np.vdot(symmetric_power_matrix(phi, copies)[0],
                              symmetric_power_matrix(psi, copies)[0])
            assert abs(via_sym - np.vdot(phi, psi) ** copies) < 1e-12


def test_symmetric_power_preserves_norm():
    rng = np.random.default_rng(3)
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        psi = haar_random_states(dim, 1, rng)[0]
        coords = symmetric_power_matrix(psi, int(rng.integers(1, 6)))[0]
        assert abs(np.vdot(coords, coords).real - 1.0) < 1e-12


def _frobenius_residual(povm):
    return {c.name: c for c in verify_completeness(povm).checks}[
        "completeness-frobenius"].residual


def test_identity_residual_halved_weights_table1_n2():
    povm = scaled(build_table1_povm(2), 0.5)
    # sum reduces to I/2, whose distance from I is sqrt(dim)/2
    assert abs(_frobenius_residual(povm) - np.sqrt(6) / 2) < 1e-12


def test_identity_residual_table1_n2():
    assert _frobenius_residual(build_table1_povm(2)) < 1e-9


def test_trace_identity_for_shipped_povms(shipped_povms):
    for povm in shipped_povms:
        assert abs(povm.weight_sum - sym_dim(povm.dim, povm.copies)) < 1e-9


def test_symmetric_power_matrix_matches_single_state_path():
    rng = np.random.default_rng(11)
    states = haar_random_states(4, 6, rng)
    block = symmetric_power_matrix(states, 3)
    for row, state in zip(block, states):
        assert np.allclose(row, symmetric_power_matrix(state, 3)[0], atol=1e-14)
