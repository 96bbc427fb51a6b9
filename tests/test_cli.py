"""Command-line behaviour: targets, exit codes, file round-trips, determinism."""

import json
import math
import os

import numpy as np
import pytest

from spinpovm import (
    PENROSE40,
    Povm,
    RayCatalog,
    build_table1_povm,
    catalog,
    cli,
    documents,
    estimate,
    haar_random_states,
    simulate,
)
from spinpovm.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_UNSUPPORTED,
    EXIT_VERIFY,
    main,
    CliInputError,
)
from spinpovm.spin1 import parse_angle


def read(path):
    return path.read_bytes()


def _must_not_run(*args, **kwargs):
    raise AssertionError("the output path should have been refused before the work")


class TestParseAngle:
    def test_fractions_of_pi(self):
        assert parse_angle("0") == 0.0
        assert parse_angle("pi") == math.pi
        assert parse_angle("pi/4") == math.pi / 4
        assert parse_angle("3pi/8") == 3 * math.pi / 8
        assert parse_angle("PI/2") == math.pi / 2

    def test_rejects_decimals(self):
        for bad in ("0.785", "1.57", "pi/0x2", "2*pi", "", "pi/0", "3pi/00"):
            with pytest.raises(ValueError, match="cannot parse angle"):
                parse_angle(bad)

    def test_spellings_of_one_angle_are_one_float(self):
        # unreduced, 11pi/22 was one ulp from pi/2, and 13pi/39 from pi/3
        for spelling, reduced in [("11pi/22", "pi/2"), ("13pi/39", "pi/3"),
                                  ("15pi/36", "5pi/12"), ("2pi/4", "pi/2"), ("0pi/7", "0"),
                                  ("4pi/4", "pi"), ("3pi/9", "pi/3")]:
            assert parse_angle(spelling) == parse_angle(reduced), spelling
        assert 11 * math.pi / 22 != math.pi / 2
        # a reduced spelling keeps the bits of n * pi / d
        for d in range(1, 64):
            for n in range(2 * d + 1):
                if math.gcd(n, d) == 1:
                    assert parse_angle(f"{n}pi/{d}") == n * math.pi / d

    @pytest.mark.parametrize("text", ["1" + "0" * 400 + "pi", "pi/1" + "0" * 400,
                                      "1" + "0" * 308 + "pi", "9" * 5000 + "pi/3"])
    def test_angle_beyond_the_float_range_is_refused(self, text):
        with pytest.raises(ValueError, match=f"cannot parse angle '{text}': too large"):
            parse_angle(text)


def _catalog_doc(rows):
    states = [{"name": str(i), "state": [[float(re), 0.0] for re in row]}
              for i, row in enumerate(rows)]
    return {"schema": "spinpovm/rays-v1", "label": "rays", "dim": len(rows[0]),
            "states": states}


def _write_catalog(path, rows):
    path.write_text(json.dumps(_catalog_doc(rows)))


KET0 = [[1.0, 0.0], [0.0, 0.0]]
KET1 = [[0.0, 0.0], [1.0, 0.0]]


def _qubit_elements(weight=1.0, ket0=KET0):
    """|0> (or `ket0`) at `weight`, then |1> at weight 1."""
    return [{"weight": weight, "state": ket0}, {"weight": 1.0, "state": KET1}]


def _qubit_povm_doc(copies):
    """A two-element qubit POVM document, |0> and |1> at unit weight."""
    return {"schema": "spinpovm/povm-v1", "dim": 2, "copies": copies,
            "elements": _qubit_elements()}


def _write_qubit_povm(path, copies):
    path.write_text(json.dumps(_qubit_povm_doc(copies)))


# |0> and |1> at unit weight, with |0> written as booleans: np.array reads
# [true, false] among floats as [1.0, 0.0]
BOOLEAN_QUBIT_POVM = {"schema": "spinpovm/povm-v1", "dim": 2, "copies": 1,
                      "elements": [{"weight": 1.0, "state": [[True, False], [0.0, 0.0]]},
                                   {"weight": 1.0, "state": [[0.0, 0.0], [1.0, 0.0]]}]}
# the same two rays with every amplitude a boolean
BOOLEAN_QUBIT_RAYS = {"schema": "spinpovm/rays-v1", "label": "rays", "dim": 2,
                      "states": [{"name": "0", "state": [[True, False], [False, False]]},
                                 {"name": "1", "state": [[False, False], [True, False]]}]}
BOOLEAN_AMPLITUDE = "bad amplitude pairs: entries must be numbers, got True\n"
_SIMULATE_10 = ["simulate", "--trials", "10", "--seed", "1"]


def _refuses_boolean_amplitudes(argv, doc, tmp_path, capsys, entry):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    assert main([argv[0], "--in", str(path), *argv[1:]]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == f"error: bad {entry}: {BOOLEAN_AMPLITUDE}"
    assert captured.out == ""


def test_target_table_order_and_names():
    assert tuple(cli.TARGETS) == (
        "table1-N2", "table1-N3", "table1-N4", "table1-N5",
        "penrose40-povm-N2", "penrose40-povm-N3", "set60-povm-N2", "set60-povm-N3",
        "penrose40", "set60")
    for name, build in cli.TARGETS.items():
        built = build()
        assert (built.label if isinstance(built, RayCatalog) else built.provenance) == name


class TestBuild:
    def test_table1_n4_has_480_elements(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["build", "--target", "table1-N4", "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert len(doc["elements"]) == 480
        assert "480 elements" in capsys.readouterr().out

    def test_penrose40_catalog_has_states_without_weights(self, tmp_path):
        out = tmp_path / "p.json"
        assert main(["build", "--target", "penrose40", "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert len(doc["states"]) == 40
        assert "elements" not in doc

    def test_set60_povm_n3_weights(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["build", "--target", "set60-povm-N3", "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert len(doc["elements"]) == 60
        assert all(abs(el["weight"] - 1 / 3) < 1e-15 for el in doc["elements"])

    def test_unwritable_out_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_table1_povm", _must_not_run)
        code = main(["build", "--target", "table1-N2",
                     "--out", str(tmp_path / "missing" / "x.json")])
        assert code == EXIT_INPUT
        assert "error: [Errno 2] No such file or directory" in capsys.readouterr().err

    def test_unknown_target_lists_valid_ones(self, tmp_path, capsys):
        code = main(["build", "--target", "nonsense", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_INPUT
        assert "table1-N2" in capsys.readouterr().err


class TestVerify:
    def test_builtin_passes(self, capsys):
        assert main(["verify", "--target", "table1-N2", "--trials", "200",
                     "--seed", "5"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_catalog_target_is_not_a_povm(self, capsys):
        code = main(["verify", "--target", "penrose40", "--trials", "10", "--seed", "1"])
        assert code == EXIT_INPUT
        assert "penrose40-povm" in capsys.readouterr().err

    def test_perturbed_weight_fails_with_matching_residual(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        main(["build", "--target", "penrose40-povm-N2", "--out", str(out)])
        doc = json.loads(out.read_text())
        doc["elements"][0]["weight"] += 1e-3
        out.write_text(json.dumps(doc))
        code = main(["verify", "--in", str(out), "--trials", "100", "--seed", "3"])
        assert code == EXIT_VERIFY
        text = capsys.readouterr().out
        assert "FAIL" in text

    def test_empty_elements_is_a_parse_error(self, tmp_path, capsys):
        out = tmp_path / "e.json"
        main(["build", "--target", "table1-N2", "--out", str(out)])
        doc = json.loads(out.read_text())
        doc["elements"] = []
        out.write_text(json.dumps(doc))
        assert main(["verify", "--in", str(out), "--trials", "10",
                     "--seed", "1"]) == EXIT_INPUT

    def test_file_and_builtin_reports_match_bytewise(self, tmp_path):
        povm_path = tmp_path / "povm.json"
        main(["build", "--target", "table1-N3", "--out", str(povm_path)])
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        assert main(["verify", "--in", str(povm_path), "--trials", "300",
                     "--seed", "11", "--out", str(r1)]) == EXIT_OK
        assert main(["verify", "--target", "table1-N3", "--trials", "300",
                     "--seed", "11", "--out", str(r2)]) == EXIT_OK
        assert read(r1) == read(r2)

    def test_hierarchy_rows_included_for_spin32(self, tmp_path):
        out = tmp_path / "r.json"
        main(["verify", "--target", "set60-povm-N3", "--trials", "100",
              "--seed", "2", "--out", str(out)])
        names = {row["name"] for row in json.loads(out.read_text())["checks"]}
        assert "bloch-moment-3" in names

    def test_hierarchy_rows_for_a_one_copy_spin32_basis(self, tmp_path, capsys):
        path, out = tmp_path / "basis.json", tmp_path / "r.json"
        path.write_text(documents.povm_to_document(Povm(np.ones(4), np.eye(4), 1)))
        assert main(["verify", "--in", str(path), "--trials", "100", "--seed", "2",
                     "--out", str(out)]) == EXIT_OK
        names = [row["name"] for row in json.loads(out.read_text())["checks"]]
        assert names[-2:] == ["bloch-moment-0", "bloch-moment-1"]
        assert "PASS  bloch-moment-1" in capsys.readouterr().out

    def test_four_copy_penrose_fails_the_fourth_moment(self, tmp_path, capsys):
        # uniform weights summing to sym_dim(4, 4) = 35: not a 4-design
        path, out = tmp_path / "p.json", tmp_path / "r.json"
        penrose = catalog(PENROSE40)
        path.write_text(documents.povm_to_document(
            Povm(np.full(40, 35 / 40), penrose.states, 4)))
        assert main(["verify", "--in", str(path), "--trials", "100", "--seed", "2",
                     "--out", str(out)]) == EXIT_VERIFY
        checks = {row["name"]: row for row in json.loads(out.read_text())["checks"]}
        assert [f"bloch-moment-{m}" in checks for m in range(6)] == [True] * 5 + [False]
        assert not checks["bloch-moment-4"]["passed"]
        assert all(checks[f"bloch-moment-{m}"]["passed"] for m in range(4))
        assert "FAIL  bloch-moment-4" in capsys.readouterr().out

    @pytest.mark.parametrize("target", [t for t in cli.POVM_TARGETS if t.startswith("table1-")])
    def test_spin1_reports_have_hierarchy_rows(self, target, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["verify", "--target", target, "--trials", "10", "--seed", "2",
                     "--out", str(out)]) == EXIT_OK
        copies = int(target.removeprefix("table1-N"))
        rows = [row for row in json.loads(out.read_text())["checks"]
                if row["name"].startswith("bloch-moment")]
        assert [row["name"] for row in rows] == [f"bloch-moment-{m}" for m in range(copies + 1)]
        assert all(row["passed"] and row["residual"] < 1e-13 for row in rows)
        printed = capsys.readouterr().out
        assert all(f"PASS  bloch-moment-{m}:" in printed for m in range(copies + 1))

    def test_four_copy_spin1_fails_the_fourth_moment(self, tmp_path, capsys):
        # table1-N3's elements with weights summing to sym_dim(3, 4) = 15:
        # a 3-design but not a 4-design
        path, out = tmp_path / "p.json", tmp_path / "r.json"
        povm = build_table1_povm(3)
        path.write_text(documents.povm_to_document(
            Povm(povm.weights * 1.5, povm.states, 4)))
        assert main(["verify", "--in", str(path), "--trials", "100", "--seed", "2",
                     "--out", str(out)]) == EXIT_VERIFY
        moments = {row["name"]: row for row in json.loads(out.read_text())["checks"]
                   if row["name"].startswith("bloch-moment")}
        assert list(moments) == [f"bloch-moment-{m}" for m in range(5)]
        assert [name for name, row in moments.items() if not row["passed"]] == ["bloch-moment-4"]
        assert abs(moments["bloch-moment-4"]["residual"] - 27 / 128) < 1e-12
        assert "FAIL  bloch-moment-4" in capsys.readouterr().out

    @pytest.mark.parametrize("target", cli.POVM_TARGETS)
    def test_check_names_are_unique(self, target, tmp_path):
        out = tmp_path / "r.json"
        main(["verify", "--target", target, "--trials", "10", "--seed", "2",
              "--out", str(out)])
        names = [row["name"] for row in json.loads(out.read_text())["checks"]]
        assert len(names) == len(set(names)), names

    @pytest.mark.parametrize("dim", [3.7, 3.0, True], ids=["fraction", "float", "bool"])
    def test_non_integer_dim_is_an_input_error(self, dim, tmp_path, capsys):
        path = tmp_path / "p.json"
        main(["build", "--target", "table1-N2", "--out", str(path)])
        doc = json.loads(path.read_text())
        doc["dim"] = dim
        path.write_text(json.dumps(doc))
        assert main(["verify", "--in", str(path), "--seed", "1"]) == EXIT_INPUT
        assert "dim must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("dim, message", [
        (3.7, "error: POVM document dim must be an integer, got 3.7\n"),
        (4, "error: POVM document states have 3 amplitudes, inconsistent with dim = 4\n"),
    ], ids=["non-integer", "mismatch"])
    def test_dim_fault_names_the_document_field(self, dim, message, tmp_path, capsys):
        path = tmp_path / "p.json"
        main(["build", "--target", "table1-N2", "--out", str(path)])
        doc = json.loads(path.read_text())
        doc["dim"] = dim
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--in", str(path), "--seed", "1"]) == EXIT_INPUT
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("weight", [str, lambda w: True], ids=["string", "bool"])
    def test_weight_that_is_not_a_number_is_an_input_error(self, weight, tmp_path, capsys):
        path = tmp_path / "p.json"
        main(["build", "--target", "table1-N2", "--out", str(path)])
        doc = json.loads(path.read_text())
        # the string holds the element's own weight, which float() would read back
        doc["elements"][0]["weight"] = weight(doc["elements"][0]["weight"])
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--in", str(path), "--seed", "1"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "bad POVM element: weight must be a number" in captured.err
        assert captured.out == ""

    def test_copies_beyond_the_float_range_is_an_input_error(self, tmp_path, capsys):
        # sym_dim(2, 1100) = 1101 is above symmetric.MAX_SYM_DIM = 1024
        path = tmp_path / "q.json"
        _write_qubit_povm(path, 1100)
        assert main(["verify", "--in", str(path), "--seed", "1"]) == EXIT_INPUT
        assert "copies = 1100 is too many for dim = 2" in capsys.readouterr().err

    def test_boolean_amplitude_is_an_input_error(self, tmp_path, capsys):
        _refuses_boolean_amplitudes(["verify", "--seed", "1"], BOOLEAN_QUBIT_POVM,
                                    tmp_path, capsys, "POVM element")

    def test_missing_input_choice(self, capsys):
        assert main(["verify", "--trials", "10", "--seed", "1"]) == EXIT_INPUT

    def test_negative_trials_is_an_input_error(self, capsys):
        assert main(["verify", "--target", "table1-N2", "--trials", "-3",
                     "--seed", "1"]) == EXIT_INPUT
        assert "--trials" in capsys.readouterr().err

    def test_unwritable_out_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_scalar_identity", _must_not_run)
        code = main(["verify", "--target", "table1-N2", "--trials", "10", "--seed", "1",
                     "--out", str(tmp_path / "missing" / "r.json")])
        assert code == EXIT_INPUT
        assert "error: [Errno 2] No such file or directory" in capsys.readouterr().err

    def test_directory_out_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_scalar_identity", _must_not_run)
        code = main(["verify", "--target", "table1-N2", "--trials", "10", "--seed", "1",
                     "--out", str(tmp_path)])
        assert code == EXIT_INPUT
        assert "error: [Errno 21] Is a directory" in capsys.readouterr().err

    # the --tolerance option is gone: any value, valid or not, is an unknown argument
    @pytest.mark.parametrize("tolerance", ["1e-3", "-1", "nan", "inf", "abc"])
    def test_bad_tolerance_is_an_input_error(self, tolerance, capsys):
        assert main(["verify", "--target", "table1-N2", "--trials", "10", "--seed", "1",
                     "--tolerance", tolerance]) == EXIT_INPUT
        assert f"unrecognized arguments: --tolerance {tolerance}" in capsys.readouterr().err

    def test_non_integer_trials_is_an_input_error(self, capsys):
        assert main(["verify", "--target", "table1-N2", "--trials", "abc",
                     "--seed", "1"]) == EXIT_INPUT
        assert "expected an integer, got 'abc'" in capsys.readouterr().err

    def test_read_only_out_directory_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        # root passes os.access on any directory, so the check is made to fail
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        monkeypatch.setattr(cli, "verify_scalar_identity", _must_not_run)
        code = main(["verify", "--target", "table1-N2", "--trials", "10", "--seed", "1",
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_INPUT
        assert "error: [Errno 13] Permission denied" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    # os.access grants root every write, so it is made to answer per path
    def test_writable_out_file_in_a_read_only_directory_is_written(self, tmp_path,
                                                                   monkeypatch):
        out = tmp_path / "r.json"
        out.write_text("before\n")
        monkeypatch.setattr(cli.os, "access", lambda path, mode: path != str(tmp_path))
        assert main(["verify", "--target", "table1-N2", "--trials", "10", "--seed", "1",
                     "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["povm"] == "table1-N2"

    def test_read_only_out_file_in_a_writable_directory_is_an_input_error(
            self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "r.json"
        out.write_text("before\n")
        monkeypatch.setattr(cli.os, "access", lambda path, mode: path != str(out))
        monkeypatch.setattr(cli, "verify_completeness", _must_not_run)
        assert main(["verify", "--target", "table1-N2", "--trials", "10", "--seed", "1",
                     "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: [Errno 13] Permission denied: '{out}'\n")
        assert out.read_text() == "before\n"

    def test_negative_seed_is_an_input_error(self, capsys):
        assert main(["verify", "--target", "table1-N2", "--trials", "10",
                     "--seed", "-1"]) == EXIT_INPUT
        assert "--seed" in capsys.readouterr().err


class TestSimulate:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        r1, c1 = tmp_path / "r1.json", tmp_path / "c1.csv"
        r2, c2 = tmp_path / "r2.json", tmp_path / "c2.csv"
        base = ["simulate", "--target", "table1-N2", "--trials", "2000", "--seed", "42"]
        assert main(base + ["--out", str(r1), "--csv", str(c1)]) == EXIT_OK
        assert main(base + ["--out", str(r2), "--csv", str(c2)]) == EXIT_OK
        assert read(r1) == read(r2)
        assert read(c1) == read(c2)

    def test_csv_has_header_and_one_row_per_trial(self, tmp_path):
        csv = tmp_path / "f.csv"
        main(["simulate", "--target", "set60-povm-N2", "--trials", "50",
              "--seed", "9", "--csv", str(csv)])
        lines = csv.read_text().splitlines()
        assert lines[0] == "trial,fidelity"
        assert len(lines) == 51
        assert lines[1].startswith("0,")

    def test_csv_values_round_trip_to_the_samples(self, tmp_path):
        csv = tmp_path / "f.csv"
        assert main(["simulate", "--target", "table1-N3", "--trials", "300",
                     "--seed", "4", "--csv", str(csv)]) == EXIT_OK
        rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
        assert [int(index) for index, _ in rows] == list(range(300))
        values = np.array([float(value) for _, value in rows])
        expected = simulate(build_table1_povm(3), 300, np.random.default_rng(4),
                            keep_samples=True).samples
        assert np.array_equal(values, expected)

    def test_zero_trials_is_an_input_error(self, capsys):
        assert main(["simulate", "--target", "table1-N2", "--trials", "0",
                     "--seed", "1"]) == EXIT_INPUT
        assert "--trials" in capsys.readouterr().err

    def test_trials_beyond_memory_is_an_input_error(self, capsys, tmp_path):
        # 8e15 bytes of fidelities for the CSV: more than any address space holds
        assert main(["simulate", "--target", "table1-N2", "--trials", str(10 ** 15),
                     "--seed", "1", "--csv", str(tmp_path / "f.csv")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "--trials" in err and f"{8 * 10 ** 15} bytes" in err

    def test_trials_beyond_memory_on_the_worker_path(self, capsys, monkeypatch, tmp_path):
        # the shared buffer of the forked workers is refused with the same text
        monkeypatch.setattr(estimate, "_workers", lambda elements: 2)
        assert main(["simulate", "--target", "table1-N2", "--trials", str(10 ** 15),
                     "--seed", "1", "--csv", str(tmp_path / "f.csv")]) == EXIT_INPUT
        assert capsys.readouterr() == ("", (
            f"error: --trials {10 ** 15} needs {8 * 10 ** 15} bytes for the per-trial "
            "fidelities, more than can be allocated\n"))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunks_beyond_memory_is_an_input_error(self, capsys, monkeypatch, workers):
        # without --csv only the per-chunk (mean, M2) pairs grow with the
        # trials: 16 bytes per 4096 trials, 3.9e15 bytes at 10^18 trials
        monkeypatch.setattr(estimate, "_workers", lambda elements: workers)
        trials = 10 ** 18
        assert main(["simulate", "--target", "table1-N2", "--trials", str(trials),
                     "--seed", "1"]) == EXIT_INPUT
        assert capsys.readouterr() == ("", (
            f"error: --trials {trials} needs {16 * -(-trials // 4096)} bytes for the "
            "per-chunk statistics, more than can be allocated\n"))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_unwritable_output_is_an_input_error(self, flag, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "simulate", _must_not_run)
        code = main(["simulate", "--target", "table1-N2", "--trials", "10", "--seed", "1",
                     flag, str(tmp_path / "missing" / "f")])
        assert code == EXIT_INPUT
        assert "error: [Errno 2] No such file or directory" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_directory_output_is_an_input_error(self, flag, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "simulate", _must_not_run)
        code = main(["simulate", "--target", "table1-N2", "--trials", "10", "--seed", "1",
                     flag, str(tmp_path)])
        assert code == EXIT_INPUT
        assert "error: [Errno 21] Is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_empty_output_path_is_an_input_error(self, flag, capsys, monkeypatch):
        # open('') fails after the work; the check refuses it before
        monkeypatch.setattr(cli, "simulate", _must_not_run)
        code = main(["simulate", "--target", "table1-N5", "--trials", "200000", "--seed", "1",
                     flag, ""])
        assert code == EXIT_INPUT
        assert capsys.readouterr() == ("", "error: [Errno 2] No such file or directory: ''\n")

    @pytest.mark.parametrize("csv", ["same.json", "./same.json", "symlink.json",
                                     "hardlink.json"])
    def test_report_and_csv_on_one_file_is_an_input_error(self, csv, tmp_path, capsys,
                                                         monkeypatch):
        monkeypatch.setattr(cli, "simulate", _must_not_run)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "same.json").write_text("before\n")
        (tmp_path / "symlink.json").symlink_to(tmp_path / "same.json")
        os.link(tmp_path / "same.json", tmp_path / "hardlink.json")
        code = main(["simulate", "--target", "table1-N2", "--trials", "10", "--seed", "1",
                     "--out", "same.json", "--csv", csv])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: --out and --csv name the same file: {csv}\n")
        assert (tmp_path / "same.json").read_text() == "before\n"

    def test_mean_lands_near_bound(self, tmp_path):
        out = tmp_path / "sim.json"
        assert main(["simulate", "--target", "penrose40-povm-N2", "--trials", "20000",
                     "--seed", "8", "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert abs(doc["mean_fidelity"] - 0.5) < 5 * doc["std_error"]

    def test_broken_document_is_refused(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        main(["build", "--target", "table1-N2", "--out", str(path)])
        doc = json.loads(path.read_text())
        for el in doc["elements"]:
            el["weight"] *= 1.05
        path.write_text(json.dumps(doc))
        code = main(["simulate", "--in", str(path), "--trials", "100", "--seed", "1"])
        assert code == EXIT_VERIFY
        assert "refusing" in capsys.readouterr().err


    def test_copies_beyond_the_float_range_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "q.json"
        _write_qubit_povm(path, 1100)
        assert main(["simulate", "--in", str(path), "--trials", "10", "--seed", "1"]) == EXIT_INPUT
        assert "copies = 1100 is too many for dim = 2" in capsys.readouterr().err

    def test_boolean_amplitude_is_an_input_error(self, tmp_path, capsys):
        _refuses_boolean_amplitudes(["simulate", "--trials", "10", "--seed", "1"],
                                    BOOLEAN_QUBIT_POVM, tmp_path, capsys, "POVM element")


class TestSymmetricSubspaceBound:
    """A copy count whose symmetric subspace is above symmetric.MAX_SYM_DIM
    = 1024 exits 2 before any work, whatever the size of the document."""

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    @pytest.mark.parametrize("copies", [60, 500])
    def test_penrose_document_at_many_copies(self, command, copies, tmp_path, capsys):
        # sym_dim(4, 60) = 39,711, whose operator would take 23.5 GiB;
        # sym_dim(4, 500) = 21,084,251 multi-indices would take minutes
        path = tmp_path / "p.json"
        path.write_text(documents.povm_to_document(
            Povm(np.ones(40), catalog(PENROSE40).states, copies)))
        assert main([command, "--in", str(path), "--seed", "1"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert f"error: copies = {copies} is too many for dim = 4" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", [["verify"], ["simulate", "--trials", "10"]])
    def test_qubit_boundary(self, command, tmp_path, capsys):
        # sym_dim(2, 1023) = 1024 is checked, and fails; sym_dim(2, 1024) = 1025 is refused
        path = tmp_path / "q.json"
        _write_qubit_povm(path, 1023)
        assert main([*command, "--in", str(path), "--seed", "1"]) == EXIT_VERIFY
        _write_qubit_povm(path, 1024)
        capsys.readouterr()
        assert main([*command, "--in", str(path), "--seed", "1"]) == EXIT_INPUT
        assert "copies = 1024 is too many for dim = 2" in capsys.readouterr().err

    def test_solve_weights_copies(self, capsys):
        # sym_dim(3, 43) = 990 reaches the solve, where two shells cannot cancel
        # 43 powers of t; sym_dim(3, 44) = 1035 is refused before it
        argv = ["solve-weights", "--polytope", "24-cell", "--angles", "pi/4", "pi/2",
                "--copies"]
        assert main(argv + ["43"]) == EXIT_UNSUPPORTED
        assert "unsolvable" in capsys.readouterr().err
        for copies in ("44", "1000000000"):
            assert main(argv + [copies]) == EXIT_INPUT
            captured = capsys.readouterr()
            assert f"error: copies = {copies} is too many for dim = 3" in captured.err
            assert captured.out == ""


class TestBlochDotBound:
    """More rays than verify.MAX_BLOCH_ROWS = 2048 exit 2 from `spectrum`
    before the Bloch-dot matrix is formed (20,000 rows would need 6 GiB).
    `verify` sums the moment hierarchy block by block and has no such bound."""

    REFUSAL = ("error: 2049 rows are too many for the Bloch-dot matrix: "
               "the bound is MAX_BLOCH_ROWS = 2048\n")

    @staticmethod
    def _basis_rows(count):
        # the spin-3/2 basis repeated, which keeps the spectrum at the bound small
        return np.eye(4)[np.arange(count) % 4]

    def test_spectrum_catalog(self, tmp_path, capsys):
        path = tmp_path / "rays.json"
        _write_catalog(path, self._basis_rows(2048).tolist())
        assert main(["spectrum", "--in", str(path)]) == EXIT_OK
        assert "bloch dot -0.333333333: 1572864 pairs" in capsys.readouterr().out
        _write_catalog(path, self._basis_rows(2049).tolist())
        assert main(["spectrum", "--in", str(path)]) == EXIT_INPUT
        assert capsys.readouterr() == ("", self.REFUSAL)

    def test_verify_spin32_povm(self, tmp_path, capsys):
        # e_0 appears 513 times and the others 512: each copy weighs 1/count
        path, out = tmp_path / "povm.json", tmp_path / "r.json"
        counts = np.bincount(np.arange(2049) % 4)
        path.write_text(documents.povm_to_document(
            Povm(1 / counts[np.arange(2049) % 4], self._basis_rows(2049), 1)))
        assert main(["verify", "--in", str(path), "--trials", "10", "--seed", "1",
                     "--out", str(out)]) == EXIT_OK
        moments = [row for row in json.loads(out.read_text())["checks"]
                   if row["name"].startswith("bloch-moment")]
        assert [row["name"] for row in moments] == ["bloch-moment-0", "bloch-moment-1"]
        assert all(row["passed"] for row in moments)
        assert "PASS  bloch-moment-1" in capsys.readouterr().out


def test_spectrum_of_many_distinct_values_is_an_input_error(tmp_path, capsys):
    # 1024 random rays have 523,589 distinct rounded Bloch dots: refused
    # before any count, where the report would have been 36 MB
    rays = haar_random_states(4, 1024, np.random.default_rng(1024))
    path = tmp_path / "rays.json"
    path.write_text(documents.catalog_to_document(
        RayCatalog("random", tuple(map(str, range(1024))), rays)))
    out = tmp_path / "spectrum.json"
    assert main(["spectrum", "--in", str(path), "--out", str(out)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: catalog 'random' has 523589 distinct Bloch dots, too many "
                            "for a spectrum: the bound is MAX_SPECTRUM_VALUES = 4096\n")
    assert not out.exists()


class TestSolveWeights:
    def test_two_copy_solution(self, tmp_path):
        out = tmp_path / "w.json"
        code = main(["solve-weights", "--polytope", "24-cell",
                     "--angles", "pi/4", "pi/2", "0", "--copies", "2",
                     "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert abs(doc["weights"][0] - 1 / 6) < 1e-10
        assert abs(doc["weights"][1] - 1 / 12) < 1e-10
        assert abs(doc["weights"][2]) < 1e-10

    def test_cell24_four_copies_unsupported(self, capsys):
        code = main(["solve-weights", "--polytope", "24-cell",
                     "--angles", "pi/6", "pi/4", "pi/3", "pi/2", "--copies", "4"])
        assert code == EXIT_UNSUPPORTED
        assert "unsupported" in capsys.readouterr().err

    def test_infeasible_angles_report_residual(self, capsys):
        code = main(["solve-weights", "--polytope", "24-cell",
                     "--angles", "pi/6", "pi/4", "--copies", "2"])
        assert code == EXIT_UNSUPPORTED
        assert "residual" in capsys.readouterr().err

    def test_duplicate_angles_are_an_input_error(self, capsys):
        code = main(["solve-weights", "--polytope", "24-cell",
                     "--angles", "pi/4", "pi/4", "--copies", "2"])
        assert code == EXIT_INPUT
        assert "distinct" in capsys.readouterr().err

    def test_two_spellings_of_one_angle_are_an_input_error(self, capsys):
        code = main(["solve-weights", "--polytope", "24-cell",
                     "--angles", "pi/4", "pi/2", "11pi/22", "--copies", "2"])
        assert code == EXIT_INPUT
        assert "distinct" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1" + "0" * 400 + "pi", "pi/1" + "0" * 400])
    def test_angle_beyond_the_float_range_is_an_input_error(self, text, capsys):
        code = main(["solve-weights", "--polytope", "24-cell",
                     "--angles", "pi/4", text, "--copies", "2"])
        assert code == EXIT_INPUT
        assert f"error: cannot parse angle '{text}': too large for a float" in \
            capsys.readouterr().err

    def test_out_of_range_angle_is_an_input_error(self, capsys):
        code = main(["solve-weights", "--polytope", "24-cell",
                     "--angles", "3pi/4", "--copies", "2"])
        assert code == EXIT_INPUT
        assert "theta" in capsys.readouterr().err

    def test_zero_copies_is_an_input_error(self, capsys):
        code = main(["solve-weights", "--polytope", "24-cell",
                     "--angles", "pi/4", "--copies", "0"])
        assert code == EXIT_INPUT
        assert "--copies" in capsys.readouterr().err

    def test_unknown_polytope(self, capsys):
        # a pole-only shell needs no vertices, and is refused all the same
        for angle in ("pi/4", "0"):
            code = main(["solve-weights", "--polytope", "tesseract",
                         "--angles", angle, "--copies", "2"])
            assert code == EXIT_INPUT
            assert "unknown polytope 'tesseract'" in capsys.readouterr().err

    def test_unwritable_out_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "solve_weights", _must_not_run)
        code = main(["solve-weights", "--polytope", "24-cell", "--angles", "pi/4", "pi/2",
                     "--copies", "2", "--out", str(tmp_path / "missing" / "w.json")])
        assert code == EXIT_INPUT
        assert "error: [Errno 2] No such file or directory" in capsys.readouterr().err


class TestSpectrum:
    def test_penrose_spectrum_output(self, tmp_path):
        out = tmp_path / "spectrum.json"
        assert main(["spectrum", "--target", "penrose40", "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["pair_counts"] == {"-0.333333333": 240, "0.111111111": 540}
        assert len(doc["per_state"]) == 40

    def test_set60_zero_dots_have_one_key(self, tmp_path):
        # a dot rounded to -0.0 is counted and printed as 0.0
        out = tmp_path / "spectrum.json"
        assert main(["spectrum", "--target", "set60", "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["pair_counts"] == {"-0.333333333": 450, "0.000000000": 960,
                                      "0.333333333": 360}
        keys = {key for state in doc["per_state"] for key in state["counts"]}
        assert keys == {"-0.333333333", "0.000000000", "0.333333333"}
        assert all(state["counts"]["0.000000000"] == 32 for state in doc["per_state"])

    def test_spectrum_from_exported_catalog(self, tmp_path):
        rays = tmp_path / "rays.json"
        main(["build", "--target", "set60", "--out", str(rays)])
        out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
        assert main(["spectrum", "--in", str(rays), "--out", str(out1)]) == EXIT_OK
        assert main(["spectrum", "--target", "set60", "--out", str(out2)]) == EXIT_OK
        assert read(out1) == read(out2)

    def test_unknown_catalog(self):
        assert main(["spectrum", "--target", "icosahedron"]) == EXIT_INPUT

    @pytest.mark.parametrize("flags", [[], ["--target", "set60", "--in", "rays.json"]],
                             ids=["neither", "both"])
    def test_exactly_one_of_target_and_in(self, flags, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["build", "--target", "set60", "--out", "rays.json"])
        capsys.readouterr()
        assert main(["spectrum", *flags]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "exactly one" in captured.err
        assert captured.out == ""

    def test_unwritable_out_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "overlap_spectrum", _must_not_run)
        code = main(["spectrum", "--target", "set60",
                     "--out", str(tmp_path / "missing" / "s.json")])
        assert code == EXIT_INPUT
        assert "error: [Errno 2] No such file or directory" in capsys.readouterr().err

    def test_spin1_catalog_is_scored_with_its_own_dimension(self, tmp_path):
        rays, out = tmp_path / "basis3.json", tmp_path / "s.json"
        _write_catalog(rays, np.eye(3))
        assert main(["spectrum", "--in", str(rays), "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["pair_counts"] == {"-0.500000000": 3}

    @pytest.mark.parametrize("dim", [4.7, 4.0, True], ids=["fraction", "float", "bool"])
    def test_non_integer_dim_is_an_input_error(self, dim, tmp_path, capsys):
        rays = tmp_path / "rays.json"
        main(["build", "--target", "penrose40", "--out", str(rays)])
        doc = json.loads(rays.read_text())
        doc["dim"] = dim
        rays.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["spectrum", "--in", str(rays)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "dim must be an integer" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("dim, message", [
        (4.7, "error: catalog document dim must be an integer, got 4.7\n"),
        (3, "error: catalog document states have 4 amplitudes, inconsistent with dim = 3\n"),
    ], ids=["non-integer", "mismatch"])
    def test_dim_fault_names_the_document_field(self, dim, message, tmp_path, capsys):
        rays = tmp_path / "rays.json"
        main(["build", "--target", "penrose40", "--out", str(rays)])
        doc = json.loads(rays.read_text())
        doc["dim"] = dim
        rays.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["spectrum", "--in", str(rays)]) == EXIT_INPUT
        assert capsys.readouterr().err == message

    def test_unnormalized_catalog_is_refused(self, tmp_path, capsys):
        rays = tmp_path / "doubled.json"
        _write_catalog(rays, 2 * np.eye(4))
        assert main(["spectrum", "--in", str(rays)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "not normalized" in captured.err
        assert captured.out == ""

    def test_boolean_amplitude_is_an_input_error(self, tmp_path, capsys):
        _refuses_boolean_amplitudes(["spectrum"], BOOLEAN_QUBIT_RAYS, tmp_path, capsys,
                                    "catalog entry")


def test_build_povm_target():
    assert cli.build_povm_target("set60-povm-N2").provenance == "set60-povm-N2"
    with pytest.raises(CliInputError, match="penrose40-povm-N2"):
        cli.build_povm_target("penrose40")


@pytest.mark.parametrize("scale, code", [(1.0, EXIT_OK), (1 + 1e-7, EXIT_VERIFY)],
                         ids=["exact", "scaled"])
def test_verify_and_simulate_apply_one_gate(scale, code, tmp_path, capsys):
    # scaled by 1 + 1e-7, the weight sum of table1-N2 is 6e-7 off
    path = tmp_path / "p.json"
    main(["build", "--target", "table1-N2", "--out", str(path)])
    doc = json.loads(path.read_text())
    for element in doc["elements"]:
        element["weight"] *= scale
    path.write_text(json.dumps(doc))
    assert main(["verify", "--in", str(path), "--seed", "1"]) == code
    assert main(["simulate", "--in", str(path), "--trials", "100", "--seed", "1"]) == code


# a key given this value is left out of the document
DROP = object()


def _edited(doc, **changes):
    doc = {**doc, **changes}
    return {key: value for key, value in doc.items() if value is not DROP}


@pytest.mark.parametrize("argv, doc", [
    (["verify", "--seed", "1"], _qubit_povm_doc(1)),
    (_SIMULATE_10, _qubit_povm_doc(1)),
    (["spectrum"], _catalog_doc(np.eye(2))),
], ids=["verify", "simulate", "spectrum"])
def test_document_that_is_an_array_is_an_input_error(argv, doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps([doc]))
    assert main([*argv, "--in", str(path)]) == EXIT_INPUT
    assert "document must be a JSON object" in capsys.readouterr().err


# changes to the qubit POVM document, a fragment of the error it must exit 2 with
@pytest.mark.parametrize("changes, message", [
    ({"dim": DROP}, "POVM document is missing 'dim'"),
    ({"copies": DROP}, "POVM document is missing 'copies'"),
    ({"elements": DROP}, "POVM document is missing 'elements'"),
    ({"dim": 1, "elements": [{"weight": 2.0, "state": [[1.0, 0.0]]}]},
     "states must have dimension >= 2"),
    ({"elements": _qubit_elements(ket0=[[math.nan, 0.0], [0.0, 0.0]])},
     "non-finite amplitudes"),
    ({"copies": 0}, "copies must be >= 1, got 0"),
    ({"elements": _qubit_elements(-1.0)}, "weights must be finite and non-negative"),
    ({"elements": _qubit_elements(math.inf)}, "weights must be finite and non-negative"),
    ({"provenance": {"x": 1}}, "provenance must be a string, got {'x': 1}"),
], ids=["no-dim", "no-copies", "no-elements", "dim-1", "nan-amplitude", "copies-0",
        "negative-weight", "infinite-weight", "provenance-object"])
@pytest.mark.parametrize("argv", [["verify", "--seed", "1"], _SIMULATE_10],
                         ids=["verify", "simulate"])
def test_povm_document_fault_is_an_input_error(argv, changes, message, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(_edited(_qubit_povm_doc(1), **changes)))
    assert main([*argv, "--in", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("changes, message", [
    ({"dim": DROP}, "catalog document is missing 'dim'"),
    ({"states": DROP}, "catalog document is missing 'states'"),
    ({"label": None}, "catalog label must be a string, got None"),
    ({"states": [{"name": [0], "state": KET0}, {"name": None, "state": KET1}]},
     "catalog names must be strings, got [0]"),
], ids=["no-dim", "no-states", "label-null", "names-not-strings"])
def test_catalog_document_fault_is_an_input_error(changes, message, tmp_path, capsys):
    path = tmp_path / "rays.json"
    path.write_text(json.dumps(_edited(_catalog_doc(np.eye(2)), **changes)))
    assert main(["spectrum", "--in", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_argparse_failures_map_to_input_error():
    assert main(["verify", "--target", "table1-N2"]) == EXIT_INPUT  # missing --seed
    assert main(["no-such-command"]) == EXIT_INPUT


# command, the target its --in document is built from, the work it must not
# start, the output flag
@pytest.mark.parametrize("argv, target, work, flag", [
    (["verify", "--seed", "1"], "table1-N2", "verify_scalar_identity", "--out"),
    (_SIMULATE_10, "table1-N2", "simulate", "--out"),
    (_SIMULATE_10, "table1-N2", "simulate", "--csv"),
    (["spectrum"], "penrose40", "overlap_spectrum", "--out"),
], ids=["verify-out", "simulate-out", "simulate-csv", "spectrum-out"])
@pytest.mark.parametrize("out", ["doc.json", "./doc.json", "symlink.json", "hardlink.json"])
def test_output_over_the_input_document_is_an_input_error(argv, target, work, flag, out,
                                                          tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["build", "--target", target, "--out", "doc.json"]) == EXIT_OK
    before = read(tmp_path / "doc.json")
    (tmp_path / "symlink.json").symlink_to(tmp_path / "doc.json")
    os.link(tmp_path / "doc.json", tmp_path / "hardlink.json")
    capsys.readouterr()
    monkeypatch.setattr(cli, work, _must_not_run)
    assert main([*argv, "--in", "doc.json", flag, out]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {flag} names the --in file: {out}\n"
    assert read(tmp_path / "doc.json") == before
