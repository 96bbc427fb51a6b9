"""Command-line behaviour: targets, exit codes, file round-trips, determinism."""

import json
import math

import numpy as np
import pytest

from spinpovm import RayCatalog, build_table1_povm, cli, simulate
from spinpovm.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_UNSUPPORTED,
    EXIT_VERIFY,
    main,
    parse_angle,
    CliInputError,
)


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
        for bad in ("0.785", "1.57", "pi/0x2", "2*pi", ""):
            with pytest.raises(CliInputError):
                parse_angle(bad)


def _write_catalog(path, rows):
    states = [{"name": str(i), "state": [[float(re), 0.0] for re in row]}
              for i, row in enumerate(rows)]
    path.write_text(json.dumps({"schema": "spinpovm/rays-v1", "label": "rays",
                                "dim": len(rows[0]), "states": states}))


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

    @pytest.mark.parametrize("tolerance", ["-1", "nan", "inf", "abc"])
    def test_bad_tolerance_is_an_input_error(self, tolerance, capsys):
        assert main(["verify", "--target", "table1-N2", "--trials", "10", "--seed", "1",
                     "--tolerance", tolerance]) == EXIT_INPUT
        assert "--tolerance" in capsys.readouterr().err

    def test_zero_tolerance_is_accepted(self, capsys):
        code = main(["verify", "--target", "table1-N2", "--trials", "10", "--seed", "1",
                     "--tolerance", "0"])
        assert code in (EXIT_OK, EXIT_VERIFY)
        assert "(tolerance 0.0e+00)" in capsys.readouterr().out

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
        code = main(["solve-weights", "--polytope", "tesseract",
                     "--angles", "pi/4", "--copies", "2"])
        assert code == EXIT_INPUT

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

    def test_unnormalized_catalog_is_refused(self, tmp_path, capsys):
        rays = tmp_path / "doubled.json"
        _write_catalog(rays, 2 * np.eye(4))
        assert main(["spectrum", "--in", str(rays)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "not normalized" in captured.err
        assert captured.out == ""


def test_argparse_failures_map_to_input_error():
    assert main(["verify", "--target", "table1-N2"]) == EXIT_INPUT  # missing --seed
    assert main(["no-such-command"]) == EXIT_INPUT
