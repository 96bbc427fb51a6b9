"""Spin-1 shells: state construction, polynomial cancellation, weight solving."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from oracles import reference_shell_states, spin1_state

from spinpovm import (
    AngularCancellationError,
    WeightSolveError,
    build_table1_povm,
    haar_random_states,
    povm_from_shells,
    shell_polynomial,
    shell_states,
    solve_weights,
    verify_completeness,
)
from spinpovm import spin1
from spinpovm.polytopes import CELL24, CELL600, vertices
from spinpovm.verify import kernel_buffers, outcome_probabilities

PI = math.pi
TABLE1_ANGLES = sorted({theta for _, angles, _ in spin1.TABLE1.values()
                        for theta in angles})


class TestShellStateFormula:
    """Rows (sin t (x1 + i x2), sin t (x3 + i x4), cos t) at known vertices."""

    def test_theta_zero_is_the_pole(self):
        for polytope in (CELL24, CELL600):
            assert np.array_equal(shell_states(polytope, 0.0), [[0, 0, 1]])

    def test_theta_half_pi_on_first_axis(self):
        row = np.flatnonzero(np.all(vertices(CELL24) == [1.0, 0, 0, 0], axis=1))[0]
        assert np.allclose(shell_states(CELL24, PI / 2)[row], [1, 0, 0], atol=1e-15)

    def test_quarter_angle_diagonal_vertex(self):
        assert np.array_equal(vertices(CELL24)[0], [0.5, 0.5, 0.5, 0.5])
        expected = np.array([(1 + 1j) / (2 * math.sqrt(2)),
                             (1 + 1j) / (2 * math.sqrt(2)),
                             1 / math.sqrt(2)])
        assert np.allclose(shell_states(CELL24, PI / 4)[0], expected, atol=1e-15)

    def test_output_is_normalized(self):
        rng = np.random.default_rng(10)
        for polytope in (CELL24, CELL600):
            for theta in rng.uniform(0, PI / 2, size=10):
                states = shell_states(polytope, theta)
                assert np.max(np.abs(np.sum(np.abs(states) ** 2, axis=1) - 1.0)) < 1e-12


class TestTable1:
    def test_element_counts(self):
        assert build_table1_povm(2).size == 48
        assert build_table1_povm(3).size == 96
        assert build_table1_povm(4).size == 480
        assert build_table1_povm(5).size == 720

    def test_weight_sums_are_subspace_dimensions(self):
        for copies, expected in [(2, 6), (3, 10), (4, 15), (5, 21)]:
            assert abs(build_table1_povm(copies).weight_sum - expected) < 1e-9

    def test_n2_weight_multiset(self):
        povm = build_table1_povm(2)
        values, counts = np.unique(np.round(povm.weights, 15), return_counts=True)
        assert np.allclose(values, [1 / 12, 1 / 6])
        assert list(counts) == [24, 24]

    def test_rejects_out_of_range_copies(self):
        for copies in (1, 6, 0):
            with pytest.raises(ValueError):
                build_table1_povm(copies)

    def test_all_four_resolve_the_identity(self):
        for copies in (2, 3, 4, 5):
            report = verify_completeness(build_table1_povm(copies))
            assert report.passed, report.to_dict()

    def test_scalar_identity_at_haar_states(self):
        rng = np.random.default_rng(314)
        psis = haar_random_states(3, 1000, rng)
        for copies in (2, 3, 4, 5):
            povm = build_table1_povm(copies)
            _, probs = outcome_probabilities(povm, psis, kernel_buffers(povm.states, len(psis)))
            assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9


class TestShellPolynomial:
    def test_golden_coefficients_quarter_pi(self):
        assert np.allclose(shell_polynomial(CELL24, PI / 4, 2), [2.0, 8.0, -4.0], atol=1e-10)

    def test_golden_coefficients_half_pi(self):
        assert np.allclose(shell_polynomial(CELL24, PI / 2, 2), [8.0, -16.0, 8.0], atol=1e-10)

    def test_golden_coefficients_zero_angle(self):
        assert np.allclose(shell_polynomial(CELL24, 0.0, 2), [0.0, 0.0, 1.0], atol=1e-10)

    def test_polynomial_reproduces_direct_shell_sum(self):
        rng = np.random.default_rng(2718)
        for polytope, copies in [(CELL24, 2), (CELL24, 3), (CELL600, 4), (CELL600, 5)]:
            theta_r = rng.uniform(0, PI / 2)
            coeffs = shell_polynomial(polytope, theta_r, copies)
            states = shell_states(polytope, theta_r)
            for _ in range(20):
                theta = rng.uniform(0, PI / 2)
                psi = spin1_state(theta, rng.uniform(0, PI / 2),
                                  rng.uniform(0, 2 * PI), rng.uniform(0, 2 * PI))
                direct = float(np.sum(np.abs(states @ psi.conj()) ** (2 * copies)))
                value = np.polynomial.polynomial.polyval(math.cos(theta) ** 2, coeffs)
                assert abs(value - direct) < 1e-9

    @pytest.mark.parametrize("theta_r", [PI / 8, PI / 6, PI / 4, PI / 3, 3 * PI / 8, PI / 2,
                                         0.7, 1.1, 0.0])
    @pytest.mark.parametrize("polytope, copies", [(CELL24, 2), (CELL24, 3), (CELL600, 2),
                                                  (CELL600, 3), (CELL600, 4), (CELL600, 5)])
    def test_coefficients_match_the_closed_form(self, polytope, copies, theta_r):
        # S(t) = n sum_j C(N, j)^2 [(1-t)(1-t_r)]^j (t t_r)^(N-j) / (j+1) over
        # the n states of the shell, t_r = cos^2(theta_r), expanded in t
        n, t_r = len(shell_states(polytope, theta_r)), math.cos(theta_r) ** 2
        exact = np.zeros(copies + 1)
        for j in range(copies + 1):
            scale = n * math.comb(copies, j) ** 2 * (1 - t_r) ** j * t_r ** (copies - j) / (j + 1)
            exact[copies - j:] += scale * np.polynomial.polynomial.polypow([1.0, -1.0], j)
        coeffs = shell_polynomial(polytope, theta_r, copies)
        assert np.max(np.abs(coeffs - exact)) <= 1e-12 * np.max(np.abs(exact))

    def test_coefficients_are_read_only(self):
        coeffs = shell_polynomial(CELL24, PI / 4, 2)
        assert coeffs.dtype == float and coeffs.shape == (3,)
        with pytest.raises(ValueError, match="read-only"):
            coeffs[0] = 0.0

    def test_cancellation_holds_for_supported_pairs(self):
        # at fixed theta, the shell sum does not move with (phi, chi1, chi2)
        rng = np.random.default_rng(1729)
        for polytope, copies in [(CELL24, 2), (CELL24, 3),
                                 (CELL600, 2), (CELL600, 3), (CELL600, 4), (CELL600, 5)]:
            states = shell_states(polytope, PI / 5)
            sums = [float(np.sum(np.abs(states @ spin1_state(0.9, *angles).conj())
                                 ** (2 * copies)))
                    for angles in rng.uniform(0, [PI / 2, 2 * PI, 2 * PI], size=(20, 3))]
            assert max(sums) - min(sums) < 1e-9

    def test_rejects_zero_copies(self):
        with pytest.raises(ValueError, match="copies must be >= 1, got 0"):
            shell_polynomial(CELL24, PI / 4, 0)

    def test_rejects_copies_beyond_the_symmetric_bound(self, monkeypatch):
        # sym_dim(3, 43) = 990 has a polynomial; 44 copies (1035) and more
        # are refused before any shell is built
        assert shell_polynomial(CELL24, PI / 4, 43).shape == (44,)
        monkeypatch.setattr(spin1, "shell_states", None)
        for copies in (44, 10 ** 9):
            with pytest.raises(ValueError, match=f"copies = {copies} is too many for dim = 3"):
                shell_polynomial(CELL24, PI / 4, copies)

    def test_cell24_four_copies_fails_cancellation(self):
        # the closed form solves (5/45, 5/60, 5/15, 35/360); the shells then
        # miss the identity, which `solve_weights` checks
        with pytest.raises(AngularCancellationError) as info:
            solve_weights(CELL24, [PI / 6, PI / 4, PI / 3, PI / 2], 4)
        assert info.value.deviation > 1e-9

    def test_shell_at_zero_angle_is_a_single_state(self):
        assert shell_states(CELL24, 0.0).shape == (1, 3)
        assert shell_states(CELL600, PI / 3).shape == (120, 3)

    @pytest.mark.parametrize("polytope", [CELL24, CELL600])
    @pytest.mark.parametrize("theta", [0.0] + TABLE1_ANGLES)
    def test_shell_states_match_per_point_reference(self, polytope, theta):
        expected = reference_shell_states(polytope, theta)
        assert shell_states(polytope, theta).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("theta", [-0.1, PI / 2 + 1e-9, 2.0])
    def test_shell_states_rejects_out_of_range_theta(self, theta):
        with pytest.raises(ValueError, match="theta"):
            shell_states(CELL600, theta)


class TestSolveWeights:
    def test_reproduces_two_copy_solution(self):
        weights = solve_weights(CELL24, [PI / 4, PI / 2, 0.0], 2)
        assert np.allclose(weights, [1 / 6, 1 / 12, 0.0], atol=1e-10)

    def test_reproduces_three_copy_solution(self):
        weights = solve_weights(CELL24, [PI / 6, PI / 4, PI / 3, PI / 2], 3)
        assert np.allclose(weights, [2 / 27, 1 / 18, 2 / 9, 7 / 108], atol=1e-10)

    def test_reproduces_four_copy_solution(self):
        weights = solve_weights(CELL600, [PI / 6, PI / 4, PI / 3, PI / 2], 4)
        assert np.allclose(weights, [1 / 45, 1 / 60, 1 / 15, 7 / 360], atol=1e-10)

    def test_reproduces_five_copy_solution(self):
        angles = [PI / 6, PI / 4, PI / 3, PI / 2, PI / 8, 3 * PI / 8]
        expected = [2 / 225, 17 / 300, 2 / 75, 29 / 1800,
                    (2 - math.sqrt(2)) / 60, (2 + math.sqrt(2)) / 60]
        weights = solve_weights(CELL600, angles, 5)
        assert np.allclose(weights, expected, atol=1e-10)

    def test_infeasible_angle_set_reports_residual(self):
        with pytest.raises(WeightSolveError) as info:
            solve_weights(CELL24, [PI / 6, PI / 4], 2)
        assert info.value.residual > 1e-9
        assert "residual" in str(info.value)

    def test_negative_weight_reported_with_offender(self):
        # consistent system whose unique solution has c_2 = -1/12
        with pytest.raises(WeightSolveError) as info:
            solve_weights(CELL24, [PI / 6, PI / 4, PI / 3], 2)
        assert info.value.residual < 1e-9
        assert np.min(info.value.weights) < -1e-6
        assert "negative weight" in str(info.value)

    def test_unsupported_pair_propagates_cancellation_error(self):
        with pytest.raises(AngularCancellationError):
            solve_weights(CELL24, [PI / 6, PI / 4, PI / 3, PI / 2, PI / 5], 4)

    def test_rejects_no_angles(self):
        with pytest.raises(ValueError, match="at least one angle"):
            solve_weights(CELL24, [], 2)

    def test_rejects_duplicate_angles(self):
        with pytest.raises(ValueError, match="distinct"):
            solve_weights(CELL24, [PI / 4, PI / 4], 2)

    def test_rejects_unknown_polytope(self):
        # a pole-only shell needs no vertices, and is refused all the same
        with pytest.raises(ValueError, match="unknown polytope 'tesseract'"):
            solve_weights("tesseract", [0.0], 2)

    @pytest.mark.parametrize("copies", sorted(spin1.TABLE1))
    def test_table1_weights_match_exact_fractions(self, copies):
        root2 = Decimal(2).sqrt()  # 28 digits
        exact = {2: [Fraction(1, 6), Fraction(1, 12)],
                 3: [Fraction(2, 27), Fraction(1, 18), Fraction(2, 9), Fraction(7, 108)],
                 4: [Fraction(1, 45), Fraction(1, 60), Fraction(1, 15), Fraction(7, 360)],
                 5: [Fraction(2, 225), Fraction(17, 300), Fraction(2, 75), Fraction(29, 1800),
                     (2 - root2) / 60, (2 + root2) / 60]}[copies]
        polytope, angles, _ = spin1.TABLE1[copies]
        for weight, value in zip(solve_weights(polytope, angles, copies), exact):
            if isinstance(value, Fraction):
                value = Decimal(value.numerator) / value.denominator
            error = abs(Decimal(float(weight)) - value)
            assert error <= 32 * Decimal(math.ulp(float(value))), (weight, value)

    def test_solved_weights_build_a_complete_povm(self):
        weights = solve_weights(CELL24, [PI / 4, PI / 2, 0.0], 2)
        povm = povm_from_shells(CELL24, zip([PI / 4, PI / 2, 0.0], weights), 2)
        assert verify_completeness(povm).passed


class TestPovmFromShells:
    def test_zero_weight_shell_changes_nothing(self):
        _, angles, weights = spin1.TABLE1[2]
        shells = list(zip(angles, weights))
        with_pole = povm_from_shells(CELL24, shells + [(0.0, 0.0)], 2)
        without = povm_from_shells(CELL24, shells, 2)
        assert with_pole.size == without.size == 48
        r1 = verify_completeness(with_pole).worst
        r2 = verify_completeness(without).worst
        assert r1 == r2

    def test_degenerate_pole_shell_povm_is_complete(self):
        # (pi/3, pi/2, 0) admits weights (2/9, 0, 2/3); the theta = 0 shell
        # contributes a single pole state, counted once
        weights = solve_weights(CELL24, [PI / 3, PI / 2, 0.0], 2)
        assert np.allclose(weights, [2 / 9, 0.0, 2 / 3], atol=1e-10)
        assert weights[1] == 0.0  # solved as 2.8e-17, within CONSTRUCTIVE_TOL of 0
        povm = povm_from_shells(CELL24, zip([PI / 3, PI / 2, 0.0], weights), 2)
        assert povm.size == 25  # 24 shell states + 1 pole
        assert verify_completeness(povm).passed

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            povm_from_shells(CELL24, [(PI / 4, 0.0)], 2)

    def test_negative_weight_rejected(self):
        # Povm refuses it, as it refuses a negative weight from any source
        with pytest.raises(ValueError, match="weights must be finite and non-negative"):
            povm_from_shells(CELL24, [(PI / 4, -0.1)], 2)
        with pytest.raises(ValueError, match="weights must be finite and non-negative"):
            povm_from_shells(CELL24, [(PI / 4, 1 / 6), (PI / 2, -1 / 12)], 2)


def test_angle_parametrization_matches_shell_states():
    # the two parametrizations agree once the angles are read off each vertex
    verts = vertices(CELL600)
    phi = np.arctan2(np.hypot(verts[:, 2], verts[:, 3]), np.hypot(verts[:, 0], verts[:, 1]))
    chi1 = np.arctan2(verts[:, 1], verts[:, 0])
    chi2 = np.arctan2(verts[:, 3], verts[:, 2])
    rng = np.random.default_rng(33)
    for theta in rng.uniform(0, PI / 2, size=5):
        via_angles = np.array([spin1_state(theta, *angles)
                               for angles in zip(phi, chi1, chi2)])
        assert np.allclose(via_angles, shell_states(CELL600, theta), atol=1e-14)
