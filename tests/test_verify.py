"""Verifier behaviour on healthy, broken, and perturbed POVMs."""

import numpy as np
import pytest

from spinpovm import (
    Povm,
    build_table1_povm,
    haar_random_states,
    penrose_states,
    spin32_povm,
    verify_completeness,
    verify_scalar_identity,
)
from spinpovm.sampling import chunks
from oracles import brute_force_identity_residual


def test_table1_n3_passes(shipped_povms):
    report = verify_completeness(build_table1_povm(3))
    assert report.passed and report.worst < 1e-9


def test_penrose_n3_passes():
    report = verify_completeness(spin32_povm(penrose_states(), 3))
    assert report.passed


def test_deleting_a_state_breaks_completeness():
    povm = spin32_povm(penrose_states(), 3)
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


def test_completeness_pass_implies_scalar_pass(shipped_povms):
    rng = np.random.default_rng(99)
    for povm in shipped_povms:
        assert verify_completeness(povm).passed
        assert verify_scalar_identity(povm, 1000, rng).passed


def test_scaled_weights_shift_scalar_residual_linearly():
    povm = build_table1_povm(2)
    scaled = povm.scaled(1.01)
    rng = np.random.default_rng(4)
    report = verify_scalar_identity(scaled, 500, rng)
    assert abs(report.worst - 0.01) < 1e-3
    assert not report.passed


@pytest.mark.parametrize("trials", [1, 127, 128, 129, 4097])
def test_blocked_scalar_check_matches_closed_form(trials):
    # block edges at 128 rows, chunk edge at 4096; with weights (1, 1, 0.5)
    # on the identity basis the overlap sum is 1 - 0.5 |psi_3|^2
    povm = Povm(np.array([1.0, 1.0, 0.5]), np.eye(3), 1)
    rng = np.random.default_rng(trials)
    expected = max(float(np.max(0.5 * np.abs(
        haar_random_states(3, stop - start, rng)[:, 2]) ** 2))
        for start, stop in chunks(trials))
    report = verify_scalar_identity(povm, trials, np.random.default_rng(trials))
    assert abs(report.worst - expected) < 1e-15


def test_reports_are_deterministic_for_a_seed():
    povm = spin32_povm(penrose_states(), 2)
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
