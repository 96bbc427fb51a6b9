"""Spin-3/2 catalogs: spectra, moment hierarchies, and identity resolution."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from oracles import reference_value_counts

from spinpovm import (
    PENROSE40,
    PHASE,
    RayCatalog,
    SET60,
    bloch_dots,
    bloch_vector,
    build_table1_povm,
    catalog,
    haar_random_states,
    overlap_spectrum,
    reduce_n3_to_n2,
    spin32_povm,
    sym_dim,
    traceless_hermitian_basis,
    verify_completeness,
    verify_hierarchy,
)
from spinpovm.povm import Povm
from spinpovm import spin32
from spinpovm.spin32 import BlochDotSpectrum, _parse_row
from spinpovm.verify import (
    MAX_BLOCH_ROWS,
    hierarchy_targets,
    kernel_buffers,
    outcome_probabilities,
)

THIRD = round(1 / 3, 9)


def _reference_targets(dim, copies):
    """T_m = sym_dim * E[((D x - 1)/(D - 1))^m] over x = |<phi|psi>|^2 of a
    Haar state psi, whose density on [0, 1] is (D-1)(1-x)^(D-2); each Haar
    moment E[x^j] is integrated exactly, then each T_m rounded once."""
    haar = [(dim - 1) * sum(Fraction((-1) ** i * math.comb(dim - 2, i), j + i + 1)
                            for i in range(dim - 1))
            for j in range(copies + 1)]
    return tuple(
        float(sym_dim(dim, copies) * Fraction(sum(
            math.comb(m, j) * (-1) ** (m - j) * dim ** j * haar[j] for j in range(m + 1)),
            (dim - 1) ** m))
        for m in range(copies + 1))
NINTH = round(1 / 9, 9)


def _state(cat, name):
    return cat.states[cat.names.index(name)]


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


@pytest.mark.parametrize("label", [PENROSE40, SET60])
def test_catalogs_are_built_once_and_read_only(label):
    cat = catalog(label)
    assert catalog(label) is cat
    with pytest.raises(ValueError, match="read-only"):
        cat.states[0, 0] = 0.0


def test_unknown_catalog_token_rejected():
    with pytest.raises(ValueError, match="unknown catalog entry 'x'"):
        _parse_row(("1", "x", "0", "0"))


def test_copies_without_a_bundled_weight_rejected():
    with pytest.raises(ValueError, match="no bundled weight for catalog 'set60' with 4 copies"):
        spin32_povm(catalog(SET60), 4)


def test_unknown_catalog_rejected():
    with pytest.raises(ValueError, match="unknown catalog"):
        catalog("penrose41")


class TestBlochDots:
    def test_self_dot_is_one(self, penrose):
        assert np.max(np.abs(np.diag(bloch_dots(penrose.states)) - 1.0)) < 1e-12

    def test_orthogonal_pair(self, penrose):
        value = bloch_dots([_state(penrose, "F"), _state(penrose, "B")])[0, 1]
        assert abs(value - (-1 / 3)) < 1e-12

    def test_penrose_non_orthogonal_pair(self, penrose):
        value = bloch_dots([_state(penrose, "A"), _state(penrose, "F")])[0, 1]
        assert abs(value - 1 / 9) < 1e-12

    def test_spin_follows_the_dimension(self):
        # orthogonal rays sit at -1/(2J), here -1/2 for spin 1
        assert abs(bloch_dots(np.eye(3)[:2])[0, 1] - (-1 / 2)) < 1e-15

    @pytest.mark.parametrize("states", [np.array([1, 0, 0, 0]), np.ones((3, 1)),
                                        np.ones((2, 2, 2))], ids=["vector", "dim-1", "3-d"])
    def test_rows_of_one_dimension_at_least_two_required(self, states):
        with pytest.raises(ValueError, match="dimension >= 2"):
            bloch_dots(states)

    def test_symmetry_and_lower_bound(self):
        rng = np.random.default_rng(8)
        dots = bloch_dots(haar_random_states(4, 40, rng))
        assert np.max(np.abs(dots - dots.T)) < 1e-14
        assert np.min(dots) >= -1 / 3 - 1e-12

    def test_unity_iff_same_ray(self):
        rng = np.random.default_rng(9)
        (a, b) = haar_random_states(4, 2, rng)
        dots = bloch_dots([a, np.exp(0.7j) * a, b])
        assert abs(dots[0, 1] - 1.0) < 1e-12
        assert dots[0, 2] < 1.0 - 1e-6

    def test_rows_up_to_the_bound(self):
        states = np.eye(4)[np.arange(MAX_BLOCH_ROWS + 1) % 4]
        assert MAX_BLOCH_ROWS == 2048
        assert bloch_dots(states[:-1]).shape == (2048, 2048)
        with pytest.raises(ValueError, match="2049 rows .* MAX_BLOCH_ROWS = 2048"):
            bloch_dots(states)

    def test_matches_explicit_bloch_vectors(self):
        # cross-check against the 15-component construction, on the matrix
        # that overlap_spectrum and verify_hierarchy use
        rng = np.random.default_rng(123)
        states = haar_random_states(4, 100, rng)
        vectors = np.array([bloch_vector(state) for state in states])
        assert np.max(np.abs(vectors @ vectors.T - bloch_dots(states))) < 1e-10
        # the kernel's product reads rows as interleaved doubles: a
        # column-major input is copied, not misread
        assert np.array_equal(bloch_dots(np.asfortranarray(states)), bloch_dots(states))

    def test_memory_at_the_bound(self):
        # the kernel buffer's two 2048 x 2048 halves, 64 MiB, and no k x k
        # complex array
        states = haar_random_states(4, MAX_BLOCH_ROWS, np.random.default_rng(2048))
        bloch_dots(states[:8])   # caches out of the measurement
        tracemalloc.start()
        try:
            bloch_dots(states)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 65 * 2 ** 20

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
        cat = request.getfixturevalue(name)
        spectrum = overlap_spectrum(cat)
        dots = np.round(bloch_dots(cat.states), 9) + 0.0
        pair_counts, per_state = reference_value_counts(dots)
        assert list(spectrum.pair_counts.items()) == list(pair_counts.items())
        assert [list(c.items()) for c in spectrum.per_state] == \
            [list(c.items()) for c in per_state]
        # the text keys tell a -0.0 key from a 0.0 one; set60 has no -0.0
        assert spectrum.to_dict() == BlochDotSpectrum(
            cat.label, spectrum.values, pair_counts, tuple(per_state),
            cat.names).to_dict()

    def test_per_state_counts_sum_to_size_minus_one(self, penrose, set60):
        for cat in (penrose, set60):
            spectrum = overlap_spectrum(cat)
            for counts in spectrum.per_state:
                assert sum(counts.values()) == cat.size - 1

    def test_refuses_more_distinct_values_than_the_bound(self, monkeypatch):
        rays = haar_random_states(4, 91, np.random.default_rng(91))
        cat = RayCatalog("random", tuple(map(str, range(91))), rays)
        distinct = len(np.unique(np.round(bloch_dots(rays), 9)[np.triu_indices(91, 1)]))
        assert distinct == 91 * 90 // 2 <= spin32.MAX_SPECTRUM_VALUES
        monkeypatch.setattr(spin32, "MAX_SPECTRUM_VALUES", distinct)
        assert len(overlap_spectrum(cat).values) == distinct
        monkeypatch.setattr(spin32, "MAX_SPECTRUM_VALUES", distinct - 1)
        with pytest.raises(ValueError, match=f"catalog 'random' has {distinct} distinct "
                                             f"Bloch dots, too many for a spectrum: the "
                                             f"bound is MAX_SPECTRUM_VALUES = {distinct - 1}"):
            overlap_spectrum(cat)


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
        weight_check = {c.name: c for c in report.checks}["bloch-moment-0"]
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
        # the paper's N = 2 and 3 equations at J = 3/2, to the last bit
        assert hierarchy_targets(4, 2) == (10.0, 0.0, 2 / 3)
        assert hierarchy_targets(4, 3) == (20.0, 0.0, 4 / 3, 8 / 27)
        assert hierarchy_targets(3, 5) == (21.0, 0.0, 21 / 8, 21 / 40, 63 / 80, 3 / 8)

    @pytest.mark.parametrize("dim, copies", [(4, 2), (4, 3), (3, 5), (2, 2), (4, 1), (4, 4)])
    def test_targets_are_the_rounded_haar_averages(self, dim, copies):
        assert hierarchy_targets(dim, copies) == _reference_targets(dim, copies)

    @pytest.mark.parametrize("copies", [5, 1023])
    def test_qubit_targets_in_closed_form(self, copies):
        # y = n_r.n_s is uniform on [-1, 1] for D = 2: E[y^m] = 1/(m+1) for even m
        assert hierarchy_targets(2, copies) == tuple(
            (copies + 1) / (m + 1) if m % 2 == 0 else 0.0 for m in range(copies + 1))

    def test_copies_preconditions(self, penrose):
        with pytest.raises(ValueError, match="three-copy"):
            reduce_n3_to_n2(spin32_povm(penrose, 2))


class TestGeneralHierarchy:
    @pytest.mark.parametrize("copies", [2, 3, 4, 5])
    def test_table1_povms(self, copies):
        report = verify_hierarchy(build_table1_povm(copies))
        assert [c.name for c in report.checks] == \
            [f"bloch-moment-{m}" for m in range(copies + 1)]
        assert report.passed and report.worst < 1e-13

    def test_qubit_tetrahedron_at_two_copies(self):
        # the SIC, a 2-design: weights sym_dim(2, 2)/4
        a, b, w = np.sqrt(1 / 3), np.sqrt(2 / 3), np.exp(2j * np.pi / 3)
        states = [[1, 0], [a, b], [a, b * w], [a, b * w ** 2]]
        report = verify_hierarchy(Povm(np.full(4, 3 / 4), states, 2))
        assert len(report.checks) == 3
        assert report.passed and report.worst < 1e-14

    def test_orthonormal_basis_at_one_copy(self):
        report = verify_hierarchy(Povm(np.ones(4), np.eye(4), 1))
        assert [c.name for c in report.checks] == ["bloch-moment-0", "bloch-moment-1"]
        assert report.passed and report.worst < 1e-14

    @pytest.mark.parametrize("name, excess", [("penrose", 128 / 243), ("set60", 8 / 27)])
    def test_catalogs_are_not_four_designs(self, name, excess, request):
        # uniform weights summing to sym_dim(4, 4) meet every moment but the fourth
        cat = request.getfixturevalue(name)
        povm = Povm(np.full(cat.size, sym_dim(4, 4) / cat.size), cat.states, 4)
        report = verify_hierarchy(povm)
        assert [c.name for c in report.checks if not c.passed] == ["bloch-moment-4"]
        assert abs(report.checks[-1].residual - excess) < 1e-12
        assert not verify_completeness(povm).passed


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
        for cat in (penrose, set60):
            for copies in (2, 3):
                report = verify_completeness(spin32_povm(cat, copies))
                assert report.passed, report.to_dict()

    def test_scalar_identity_at_haar_states(self, penrose, set60):
        rng = np.random.default_rng(555)
        psis = haar_random_states(4, 1000, rng)
        for cat in (penrose, set60):
            for copies in (2, 3):
                povm = spin32_povm(cat, copies)
                _, probs = outcome_probabilities(povm, psis, kernel_buffers(povm.states, len(psis)))
                assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9
