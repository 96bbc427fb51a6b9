"""Spin-3/2 catalogs: spectra, moment hierarchies, and identity resolution."""

import numpy as np
import pytest
from oracles import reference_value_counts

from spinpovm import (
    PHASE,
    bloch_dot,
    bloch_vector,
    haar_random_states,
    overlap_spectrum,
    penrose_states,
    reduce_n3_to_n2,
    set60_states,
    spin32_povm,
    traceless_hermitian_basis,
    verify_completeness,
    verify_hierarchy,
)
from spinpovm.povm import Povm
from spinpovm.spin32 import BlochDotSpectrum, _bloch_dot_matrix
from spinpovm.verify import outcome_probabilities

THIRD = round(1 / 3, 9)
NINTH = round(1 / 9, 9)


def _state(catalog, name):
    return catalog.states[catalog.names.index(name)]


class TestPenroseCatalog:
    def test_forty_normalized_states(self, penrose):
        assert penrose.size == 40
        norms = np.sum(np.abs(penrose.states) ** 2, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_first_entry(self, penrose):
        expected = np.array([1.0, PHASE, PHASE ** 2, 0.0]) / np.sqrt(3)
        assert np.allclose(_state(penrose, "A"), expected, atol=1e-15)

    def test_basis_quadruple_is_the_coordinate_basis(self, penrose):
        eye = np.eye(4)
        assert np.allclose(_state(penrose, "F"), eye[0], atol=1e-15)
        assert np.allclose(_state(penrose, "B"), eye[1], atol=1e-15)
        assert np.allclose(_state(penrose, "E"), eye[2], atol=1e-15)
        assert np.allclose(_state(penrose, "A'"), eye[3], atol=1e-15)

    def test_basis_states_orthogonal(self, penrose):
        assert abs(np.vdot(_state(penrose, "F"), _state(penrose, "B"))) < 1e-15

    def test_orthogonality_counts_by_brute_force(self, penrose):
        # every state: orthogonal to exactly 12, |overlap|^2 = 1/3 with 27
        gram_sq = np.abs(penrose.states.conj() @ penrose.states.T) ** 2
        for s in range(40):
            row = np.delete(gram_sq[s], s)
            assert np.sum(row < 1e-12) == 12
            assert np.sum(np.abs(row - 1 / 3) < 1e-12) == 27


class TestSet60Catalog:
    def test_sixty_normalized_states(self, set60):
        assert set60.size == 60
        norms = np.sum(np.abs(set60.states) ** 2, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_sample_entries(self, set60):
        assert np.allclose(_state(set60, "5"), np.array([1, 1, 1, 1]) / 2, atol=1e-15)
        assert np.allclose(_state(set60, "25"), np.array([1, 1j, 1j, 1]) / 2, atol=1e-15)

    def test_neighbor_counts(self, set60):
        spectrum = overlap_spectrum(set60)
        for counts in spectrum.per_state:
            assert counts == {-THIRD: 15, 0.0: 32, THIRD: 12}


class TestBlochDot:
    def test_self_dot_is_one(self, penrose):
        for state in penrose.states[:5]:
            assert abs(bloch_dot(state, state) - 1.0) < 1e-12

    def test_orthogonal_pair(self, penrose):
        value = bloch_dot(_state(penrose, "F"), _state(penrose, "B"))
        assert abs(value - (-1 / 3)) < 1e-12

    def test_penrose_non_orthogonal_pair(self, penrose):
        value = bloch_dot(_state(penrose, "A"), _state(penrose, "F"))
        assert abs(value - 1 / 9) < 1e-12

    def test_spin_follows_the_dimension(self):
        # orthogonal rays sit at -1/(2J), here -1/2 for spin 1
        assert abs(bloch_dot(np.eye(3)[0], np.eye(3)[1]) - (-1 / 2)) < 1e-15

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bloch_dot(np.array([1, 0, 0, 0]), np.array([1, 0, 0]))

    def test_symmetry_and_lower_bound(self):
        rng = np.random.default_rng(8)
        states = haar_random_states(4, 40, rng)
        for a, b in zip(states[:20], states[20:]):
            ab = bloch_dot(a, b)
            assert abs(ab - bloch_dot(b, a)) < 1e-14
            assert ab >= -1 / 3 - 1e-12

    def test_unity_iff_same_ray(self):
        rng = np.random.default_rng(9)
        (a, b) = haar_random_states(4, 2, rng)
        assert abs(bloch_dot(a, np.exp(0.7j) * a) - 1.0) < 1e-12
        assert bloch_dot(a, b) < 1.0 - 1e-6

    def test_matches_explicit_bloch_vectors(self):
        # cross-check against the 15-component construction
        rng = np.random.default_rng(123)
        states = haar_random_states(4, 100, rng)
        for a, b in zip(states[:50], states[50:]):
            explicit = float(bloch_vector(a) @ bloch_vector(b))
            assert abs(explicit - bloch_dot(a, b)) < 1e-10

    def test_explicit_bloch_vectors_are_unit(self):
        rng = np.random.default_rng(124)
        for dim in (3, 4):
            for state in haar_random_states(dim, 10, rng):
                n = bloch_vector(state)
                assert n.shape == (dim * dim - 1,)
                assert abs(n @ n - 1.0) < 1e-12

    def test_hermitian_basis_is_trace_orthonormal(self):
        for dim in (3, 4):
            basis = traceless_hermitian_basis(dim)
            assert basis.shape == (dim * dim - 1, dim, dim)
            for i, a in enumerate(basis):
                assert abs(np.trace(a)) < 1e-14
                assert np.allclose(a, a.conj().T, atol=1e-14)
                for j, b in enumerate(basis):
                    expected = 2.0 if i == j else 0.0
                    assert abs(np.trace(a @ b).real - expected) < 1e-12


class TestOverlapSpectrum:
    def test_penrose_spectrum(self, penrose):
        spectrum = overlap_spectrum(penrose)
        assert spectrum.values == (-THIRD, NINTH)
        for counts in spectrum.per_state:
            assert counts == {-THIRD: 12, NINTH: 27}

    def test_set60_spectrum(self, set60):
        spectrum = overlap_spectrum(set60)
        assert spectrum.values == (-THIRD, 0.0, THIRD)
        assert spectrum.pair_counts == {-THIRD: 450, 0.0: 960, THIRD: 360}

    @pytest.mark.parametrize("name", ["penrose", "set60"])
    def test_counts_match_per_pair_reference(self, name, request):
        catalog = request.getfixturevalue(name)
        spectrum = overlap_spectrum(catalog)
        dots = np.round(_bloch_dot_matrix(catalog.states), 9)
        pair_counts, per_state = reference_value_counts(dots)
        assert list(spectrum.pair_counts.items()) == list(pair_counts.items())
        assert [list(c.items()) for c in spectrum.per_state] == \
            [list(c.items()) for c in per_state]
        # the text keys tell a -0.0 key from a 0.0 one; set60 has both
        assert spectrum.to_dict() == BlochDotSpectrum(
            catalog.label, spectrum.values, pair_counts, tuple(per_state),
            catalog.names).to_dict()

    def test_per_state_counts_sum_to_size_minus_one(self, penrose, set60):
        for catalog in (penrose, set60):
            spectrum = overlap_spectrum(catalog)
            for counts in spectrum.per_state:
                assert sum(counts.values()) == catalog.size - 1


class TestHierarchies:
    def test_penrose_two_copies(self, penrose):
        report = verify_hierarchy(spin32_povm(penrose, 2))
        assert report.passed and report.worst < 1e-9

    def test_set60_two_copies(self, set60):
        report = verify_hierarchy(spin32_povm(set60, 2))
        assert report.passed and report.worst < 1e-9

    def test_wrong_weight_fails_weight_sum_by_ten(self, penrose):
        wrong = Povm(np.full(40, 0.5), penrose.states, 2)
        report = verify_hierarchy(wrong)
        weight_check = {c.name: c for c in report.checks}["weight-sum"]
        assert abs(weight_check.residual - 10.0) < 1e-9
        assert not report.passed
        assert report.povm_id == "povm-D4-N2"   # verify's id rule

    def test_penrose_three_copies(self, penrose):
        report = verify_hierarchy(spin32_povm(penrose, 3))
        assert report.passed and report.worst < 1e-9

    def test_set60_three_copies(self, set60):
        report = verify_hierarchy(spin32_povm(set60, 3))
        assert report.passed and report.worst < 1e-9

    def test_three_copy_moment_targets_at_spin_three_halves(self):
        # substituting J = 3/2: second moment 6*4/18 = 4/3, third 4*2/27 = 8/27
        from spinpovm.spin32 import hierarchy_targets
        targets = hierarchy_targets(3 / 2, 3)
        assert abs(targets[2] - 4 / 3) < 1e-15
        assert abs(targets[3] - 8 / 27) < 1e-15

    def test_copies_preconditions(self, penrose):
        for copies in (1, 4):
            with pytest.raises(ValueError, match="2 or 3 copies"):
                verify_hierarchy(Povm(np.full(40, 0.5), penrose.states, copies))
        with pytest.raises(ValueError, match="three-copy"):
            reduce_n3_to_n2(spin32_povm(penrose, 2))


class TestReduction:
    def test_penrose_reduction_halves_weights(self, penrose):
        reduced = reduce_n3_to_n2(spin32_povm(penrose, 3))
        assert reduced.copies == 2
        assert np.allclose(reduced.weights, 1 / 4, atol=1e-12)
        assert abs(reduced.weight_sum - 10.0) < 1e-9
        assert verify_hierarchy(reduced).passed

    def test_set60_reduction(self, set60):
        reduced = reduce_n3_to_n2(spin32_povm(set60, 3))
        assert np.allclose(reduced.weights, 1 / 6, atol=1e-12)
        assert verify_hierarchy(reduced).passed

    def test_invalid_input_rejected(self, penrose):
        broken = Povm(np.full(40, 0.7), penrose.states, 3)
        with pytest.raises(ValueError, match="hierarchy"):
            reduce_n3_to_n2(broken)


class TestIdentityResolution:
    def test_completeness_for_all_four_povms(self, penrose, set60):
        for catalog in (penrose, set60):
            for copies in (2, 3):
                report = verify_completeness(spin32_povm(catalog, copies))
                assert report.passed, report.to_dict()

    def test_scalar_identity_at_haar_states(self, penrose, set60):
        rng = np.random.default_rng(555)
        psis = haar_random_states(4, 1000, rng)
        for catalog in (penrose, set60):
            for copies in (2, 3):
                _, probs = outcome_probabilities(spin32_povm(catalog, copies), psis)
                assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9
