"""The package's JSON and CSV writers against the reference writers they
replace: every byte must match."""

import numpy as np
import pytest

from oracles import reference_csv, reference_dumps
from spinpovm import cli, documents, simulate
from spinpovm.cli import EXIT_OK, main
from spinpovm.documents import dumps


@pytest.mark.parametrize("target", cli.TARGETS)
def test_build_documents_match_the_json_module(target, tmp_path):
    path = tmp_path / "doc.json"
    assert main(["build", "--target", target, "--out", str(path)]) == EXIT_OK
    built = cli.TARGETS[target]()
    if target in cli.CATALOG_TARGETS:
        doc = documents.catalog_to_document(built)
    else:
        doc = documents.povm_to_document(built)
    assert path.read_text() == reference_dumps(doc)


def _written(monkeypatch, argv):
    """The dicts the command passes to write_json."""
    data = []
    write_json = documents.write_json

    def record(payload, path):
        data.append(payload)
        write_json(payload, path)

    monkeypatch.setattr(documents, "write_json", record)
    assert main(argv) == EXIT_OK
    return data


REPORT_COMMANDS = {
    **{f"verify-{t}": ["verify", "--target", t, "--trials", "20", "--seed", "3"]
       for t in cli.POVM_TARGETS},
    **{f"simulate-{t}": ["simulate", "--target", t, "--trials", "200", "--seed", "3"]
       for t in ("table1-N2", "set60-povm-N3")},
    "solve-weights-600-cell": ["solve-weights", "--polytope", "600-cell", "--angles",
                               "pi/6", "pi/4", "pi/3", "pi/2", "pi/8", "3pi/8",
                               "--copies", "5"],
    "solve-weights-24-cell": ["solve-weights", "--polytope", "24-cell", "--angles",
                              "pi/4", "pi/2", "0", "--copies", "2"],
    **{f"spectrum-{label}": ["spectrum", "--target", label]
       for label in cli.CATALOG_TARGETS},
}


@pytest.mark.parametrize("argv", REPORT_COMMANDS.values(), ids=REPORT_COMMANDS)
def test_reports_match_the_json_module(argv, tmp_path, monkeypatch):
    path = tmp_path / "report.json"
    (report,) = _written(monkeypatch, argv + ["--out", str(path)])
    assert path.read_text() == reference_dumps(report)


NAN, INF = float("nan"), float("inf")

ADVERSARIAL = {
    "scalars": {"a": 1, "b": 1.0, "c": True, "d": None, "e": "x", "f": -0.0,
                "g": NAN, "h": INF, "i": -INF, "j": 5e-324, "k": 10**30},
    "empty": {"list": [], "dict": {}, "nested": [[], {}, [[]]], "": ""},
    "non-ascii and %": {"κ%s": "%d ü \"\\", "%": [{"%%": "%", "a%sb": 0.5}]},
    "signed zeros in one column": {"r": [{"x": 0.0}, {"x": -0.0}, {"x": 0.0}]},
    "signed zeros in pairs": {"r": [{"s": [[0.0, -0.0]]}, {"s": [[-0.0, 0.0]]}]},
    "special floats in records": {"r": [{"x": NAN, "y": [INF, -INF]},
                                        {"x": 5e-324, "y": [-5e-324, 1e308]}]},
    "int and float in one column": {"r": [{"x": 1.0}, {"x": 1}]},
    "bool and float in one column": {"r": [{"x": 1.0}, {"x": True}]},
    "bool column": {"r": [{"x": True}, {"x": False}]},
    "int leaf in a nested column": {"r": [{"s": [1.0, 2.0]}, {"s": [1.0, 2]}]},
    "ragged rows": {"r": [{"s": [[1.0, 2.0]]}, {"s": [[1.0], [2.0]]}]},
    "ragged leaves": {"r": [{"s": [1.0, 2.0]}, {"s": [1.0, [2.0]]}]},
    "rows of different lengths": {"r": [{"s": [1.0, 2.0]}, {"s": [1.0]}]},
    "float or list": {"r": [{"s": 1.0}, {"s": [1.0]}]},
    "different keys": {"r": [{"a": 1.0}, {"b": 1.0}]},
    "extra key": {"r": [{"a": 1.0}, {"a": 1.0, "b": 2.0}]},
    "str or float": {"r": [{"a": "1.0"}, {"a": 1.0}]},
    "empty records": {"r": [{}, {}]},
    "empty leaves": {"r": [{"s": []}, {"s": []}]},
    "one row": {"r": [{"name": "only", "state": [[0.25, -0.5]], "weight": 1.0}]},
    "mixed items": {"r": [{"a": 1.0}, [1.0], 1.0, "a", None]},
    "dict fields": {"r": [{"name": "a", "counts": {"0.5": 1}},
                          {"name": "b", "counts": {"-0.5": 2}}]},
    "shapes differ between lists": {"p": [{"s": [[1.0, 2.0]]}, {"s": [[3.0, 4.0]]}],
                                    "q": [{"s": [1.0, 2.0]}, {"s": [3.0, 4.0]}],
                                    "r": [{"s": 1.0}, {"s": 2.0}]},
    "records at depth": {"a": {"b": [[{"x": 0.1, "y": "z"}, {"x": 0.2, "y": "w"}]]}},
    "tuples": {"t": (1.0, (2.0, "x")), "r": ({"x": 0.5}, {"x": 0.25})},
    "numpy float64": {"x": np.float64(0.1), "r": [{"x": np.float64(0.1)},
                                                  {"x": np.float64(-0.0)}],
                      "s": [{"x": [np.float64(1.5), 2.0]}, {"x": [3.0, 4.0]}]},
    "many repeats": {"r": [{"s": [[0.1 * (i % 3), -0.1 * (i % 2)]] * 3,
                            "w": 1.0 / (1 + i % 4), "n": f"e{i}"} for i in range(50)]},
}


@pytest.mark.parametrize("data", ADVERSARIAL.values(), ids=ADVERSARIAL)
def test_adversarial_data_matches_the_json_module(data):
    assert dumps(data) == reference_dumps(data)


@pytest.mark.parametrize("trials", [1, 4095, 4096, 4097, 20_000])
def test_csv_matches_the_row_writer(trials, tmp_path):
    path = tmp_path / "f.csv"
    assert main(["simulate", "--target", "table1-N2", "--trials", str(trials),
                 "--seed", "5", "--csv", str(path)]) == EXIT_OK
    povm = cli.TARGETS["table1-N2"]()
    report = simulate(povm, trials, np.random.default_rng(5), keep_samples=True)
    assert path.read_text() == reference_csv(report.samples)

