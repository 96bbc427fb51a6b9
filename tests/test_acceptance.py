"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

import json
import math
import time

import numpy as np

from spinpovm import (
    PENROSE40,
    SET60,
    build_table1_povm,
    catalog,
    exact_average_fidelity,
    reduce_n3_to_n2,
    shell_polynomial,
    simulate,
    solve_weights,
    spin32_povm,
    verify_completeness,
    verify_hierarchy,
    verify_scalar_identity,
    AngularCancellationError,
)
from spinpovm.cli import main
from spinpovm.polytopes import CELL24, CELL600
from conftest import all_shipped_povms

PI = math.pi


def _criterion(number: int, title: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {title}{suffix}")
    assert ok, f"criterion {number} failed: {title}{suffix}"


def test_criterion_1_completeness():
    start = time.perf_counter()
    worst = 0.0
    for povm in all_shipped_povms():
        checks = {c.name: c for c in verify_completeness(povm).checks}
        worst = max(worst, checks["completeness-frobenius"].residual)
    elapsed = time.perf_counter() - start
    _criterion(1, "operator identity residual < 1e-9 for all eight POVMs",
               worst < 1e-9 and elapsed < 5.0,
               f"worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_scalar_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for povm in all_shipped_povms():
        worst = max(worst, verify_scalar_identity(povm, 1000, rng).worst)
    elapsed = time.perf_counter() - start
    _criterion(2, "scalar identity within 1e-9 at 1000 Haar states per POVM",
               worst < 1e-9 and elapsed < 10.0,
               f"worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_weight_sums():
    expectations = [
        (build_table1_povm(2), 6.0),
        (build_table1_povm(3), 10.0),
        (build_table1_povm(4), 15.0),
        (build_table1_povm(5), 21.0),
        (spin32_povm(catalog(PENROSE40), 2), 10.0),
        (spin32_povm(catalog(PENROSE40), 3), 20.0),
        (spin32_povm(catalog(SET60), 2), 10.0),
        (spin32_povm(catalog(SET60), 3), 20.0),
    ]
    worst = max(abs(povm.weight_sum - target) for povm, target in expectations)
    _criterion(3, "weight sums equal 6/10/15/21 and 10/20 within 1e-9",
               worst < 1e-9, f"worst {worst:.2e}")


def test_criterion_4_golden_shell_polynomials():
    golden = [
        (PI / 4, (2.0, 8.0, -4.0)),
        (PI / 2, (8.0, -16.0, 8.0)),
        (0.0, (0.0, 0.0, 1.0)),
    ]
    worst = 0.0
    for theta, coeffs in golden:
        solved = shell_polynomial(CELL24, theta, 2)
        worst = max(worst, float(np.max(np.abs(solved - np.array(coeffs)))))
    _criterion(4, "24-cell two-copy shell polynomials match term by term",
               worst < 1e-10, f"worst coefficient error {worst:.2e}")


def test_criterion_5_weight_solving():
    cases = [
        (CELL24, [PI / 4, PI / 2, 0.0], 2, [1 / 6, 1 / 12, 0.0]),
        (CELL24, [PI / 6, PI / 4, PI / 3, PI / 2], 3, [2 / 27, 1 / 18, 2 / 9, 7 / 108]),
        (CELL600, [PI / 6, PI / 4, PI / 3, PI / 2], 4, [1 / 45, 1 / 60, 1 / 15, 7 / 360]),
        (CELL600, [PI / 6, PI / 4, PI / 3, PI / 2, PI / 8, 3 * PI / 8], 5,
         [2 / 225, 17 / 300, 2 / 75, 29 / 1800,
          (2 - math.sqrt(2)) / 60, (2 + math.sqrt(2)) / 60]),
    ]
    worst = 0.0
    for polytope, angles, copies, expected in cases:
        solved = solve_weights(polytope, angles, copies)
        worst = max(worst, float(np.max(np.abs(solved - np.array(expected)))))
    try:
        solve_weights(CELL24, [PI / 6, PI / 4, PI / 3, PI / 2], 4)
        cell24_fails_at_four = False
    except AngularCancellationError:
        cell24_fails_at_four = True
    _criterion(5, "solver reproduces all four weight sets; 24-cell fails at N=4",
               worst < 1e-10 and cell24_fails_at_four,
               f"worst weight error {worst:.2e}")


def _spectrum_deviations(cat, expected_counts):
    from spinpovm import overlap_spectrum
    spectrum = overlap_spectrum(cat)
    expected = {round(v, 9): c for v, c in expected_counts.items()}
    deviations = []
    for name, counts in zip(spectrum.names, spectrum.per_state):
        if counts != expected:
            deviations.append(f"{name}: {counts}")
    return deviations


def test_criterion_6_spectra():
    bad_penrose = _spectrum_deviations(catalog(PENROSE40), {-1 / 3: 12, 1 / 9: 27})
    bad_set60 = _spectrum_deviations(catalog(SET60), {-1 / 3: 15, 0.0: 32, 1 / 3: 12})
    deviations = bad_penrose + bad_set60
    _criterion(6, "Bloch-dot spectra and per-state counts are exact",
               not deviations,
               "; ".join(deviations) if deviations else "40x(12,27), 60x(15,32,12)")


def test_criterion_7_hierarchies_and_reduction():
    worst = 0.0
    for cat in (catalog(PENROSE40), catalog(SET60)):
        n2 = verify_hierarchy(spin32_povm(cat, 2))
        n3 = verify_hierarchy(spin32_povm(cat, 3))
        worst = max(worst, n2.worst, n3.worst)
    reduced_pen = reduce_n3_to_n2(spin32_povm(catalog(PENROSE40), 3))
    reduced_60 = reduce_n3_to_n2(spin32_povm(catalog(SET60), 3))
    weights_ok = (np.allclose(reduced_pen.weights, 1 / 4, atol=1e-12)
                  and np.allclose(reduced_60.weights, 1 / 6, atol=1e-12))
    reduced_pass = (verify_hierarchy(reduced_pen).passed
                    and verify_hierarchy(reduced_60).passed)
    _criterion(7, "moment hierarchies hold; reduction maps 1/2->1/4 and 1/3->1/6",
               worst < 1e-9 and weights_ok and reduced_pass,
               f"worst residual {worst:.2e}")


def test_criterion_8_optimal_fidelity():
    start = time.perf_counter()
    worst_exact = 0.0
    mc_ok = True
    details = []
    for povm in all_shipped_povms():
        bound = (povm.copies + 1) / (povm.copies + povm.dim)
        worst_exact = max(worst_exact, abs(exact_average_fidelity(povm) - bound))
        report = simulate(povm, 100_000, np.random.default_rng(987654321))
        gap = abs(report.mean_fidelity - report.exact_fidelity)
        if gap > 5 * report.std_error:
            mc_ok = False
            details.append(f"{povm.provenance}: {gap / report.std_error:.1f} sigma")
    elapsed = time.perf_counter() - start
    _criterion(8, "exact fidelity equals (N+1)/(N+D); 1e5-trial means within 5 sigma",
               worst_exact < 1e-12 and mc_ok and elapsed < 60.0,
               "; ".join(details) if details else
               f"worst exact gap {worst_exact:.1e}, {elapsed:.1f}s")


def test_criterion_9_determinism(tmp_path):
    outputs = []
    for run in (1, 2):
        paths = {
            "verify": tmp_path / f"verify{run}.json",
            "simulate": tmp_path / f"sim{run}.json",
            "csv": tmp_path / f"sim{run}.csv",
            "build": tmp_path / f"build{run}.json",
            "solve": tmp_path / f"solve{run}.json",
            "spectrum": tmp_path / f"spectrum{run}.json",
        }
        assert main(["verify", "--target", "penrose40-povm-N3", "--trials", "500",
                     "--seed", "13", "--out", str(paths["verify"])]) == 0
        assert main(["simulate", "--target", "table1-N4", "--trials", "5000",
                     "--seed", "13", "--out", str(paths["simulate"]),
                     "--csv", str(paths["csv"])]) == 0
        assert main(["build", "--target", "table1-N5",
                     "--out", str(paths["build"])]) == 0
        assert main(["solve-weights", "--polytope", "600-cell", "--angles",
                     "pi/6", "pi/4", "pi/3", "pi/2", "pi/8", "3pi/8",
                     "--copies", "5", "--out", str(paths["solve"])]) == 0
        assert main(["spectrum", "--target", "set60",
                     "--out", str(paths["spectrum"])]) == 0
        outputs.append({key: path.read_bytes() for key, path in paths.items()})
    identical = outputs[0] == outputs[1]
    _criterion(9, "repeated commands with one seed produce byte-identical reports",
               identical)
