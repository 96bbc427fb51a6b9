"""The package's JSON and CSV writers against the reference writers they
replace: every byte must match."""

import numpy as np
import pytest

from oracles import (
    reference_catalog_document,
    reference_csv,
    reference_csv_rows,
    reference_dumps,
    reference_povm_document,
)
from spinpovm import Povm, RayCatalog, cli, documents, simulate
from spinpovm.cli import EXIT_OK, main
from spinpovm.documents import (
    _csv_rows,
    _shortest_digits,
    catalog_to_document,
    dumps,
    povm_to_document,
)
from spinpovm.sampling import CHUNK


def _expected(built):
    if isinstance(built, RayCatalog):
        return reference_dumps(reference_catalog_document(built))
    return reference_dumps(reference_povm_document(built))


@pytest.mark.parametrize("target", cli.TARGETS)
def test_build_documents_match_the_json_module(target, tmp_path):
    path = tmp_path / "doc.json"
    assert main(["build", "--target", target, "--out", str(path)]) == EXIT_OK
    assert path.read_text() == _expected(cli.TARGETS[target]())


def _rows(re_im):
    """(k, D) complex rows from (k, D, 2) [re, im] floats, bit for bit."""
    return np.ascontiguousarray(re_im, dtype=float).view(complex)[..., 0]


ODD_TEXT = 'a "quote", a back\\slash, %s %d %% and κ'
# a qubit with signed zeros and the smallest subnormal in the amplitudes
# and the weights, and D = 5 with a zero of each sign in every row
QUBIT = _rows([[[1.0, -0.0], [-0.0, 0.0]],
               [[5e-324, -0.0], [1.0, 5e-324]],
               [[-0.0, -0.0], [0.6, -0.8]]])
QUINT = _rows(np.where(np.eye(5)[..., None] == 1, [[[0.6, -0.8]]], [[[0.0, -0.0]]]))

UNBUNDLED = {
    "povm-D2": Povm(np.array([1.0, -0.0, 5e-324]), QUBIT, 3, provenance=ODD_TEXT),
    "povm-D5": Povm(np.linspace(0.1, 0.5, 5), QUINT, 1, provenance=""),
    "catalog-D2": RayCatalog(label=ODD_TEXT, names=("%s", '"\\κ', "3"), states=QUBIT),
    "catalog-D5": RayCatalog(label="rays", names=tuple("abcde"), states=QUINT),
}


@pytest.mark.parametrize("built", UNBUNDLED.values(), ids=UNBUNDLED)
def test_unbundled_documents_match_the_json_module(built):
    to_document = catalog_to_document if isinstance(built, RayCatalog) else povm_to_document
    assert to_document(built) == _expected(built)


def _written(monkeypatch, argv):
    """The reports the command passes to documents.dumps."""
    data = []
    write = documents.dumps

    def record(payload):
        data.append(payload)
        return write(payload)

    monkeypatch.setattr(documents, "dumps", record)
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


@pytest.mark.parametrize("trials", [1, 4095, 4096, 4097, 10_001, 20_000])
def test_csv_matches_the_row_writer(trials, tmp_path):
    path = tmp_path / "f.csv"
    assert main(["simulate", "--target", "table1-N2", "--trials", str(trials),
                 "--seed", "5", "--csv", str(path)]) == EXIT_OK
    povm = cli.TARGETS["table1-N2"]()
    report = simulate(povm, trials, np.random.default_rng(5), keep_samples=True)
    assert path.read_text() == reference_csv(report.samples)



def _near(value: float, steps: int) -> list:
    """`value` and the `steps` doubles on each side of it."""
    below, above = [value], [value]
    for _ in range(steps):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], 2.0))
    return below[::-1] + above[1:]


_RNG = np.random.default_rng(2026)
# the doubles next to 10**-1 .. 10**-5
_EDGES = np.concatenate([_near(10.0 ** -j, 40) for j in range(1, 6)])
# the fast path: uniform and log-uniform in [1e-4, 1), and the edges in it
FAST_VALUES = np.concatenate([
    _RNG.uniform(1e-4, 1.0, 40_000),
    10.0 ** _RNG.uniform(-4.0, 0.0, 40_000),
    _EDGES[_EDGES >= 1e-4],
])
# the same with what repr formats: the edges below 1e-4, powers of two,
# 0, 1, the smallest subnormal, values below 1e-4, and doubles of few
# significant bits, which are exact decimals and include the ties
CSV_VALUES = np.concatenate([
    FAST_VALUES,
    _EDGES[_EDGES < 1e-4],
    2.0 ** -np.arange(40.0),
    [0.0, 1.0, 5e-324],
    10.0 ** _RNG.uniform(-12.0, -4.0, 2_000),
    np.concatenate([_RNG.integers(1, 2 ** bits, 100) / 2.0 ** bits for bits in range(1, 50)]),
])


def test_fast_path_takes_every_value_it_should():
    fast, _ = _shortest_digits(FAST_VALUES)
    assert fast.all()


@pytest.mark.parametrize("start", [0, 4096, 9_999, 99_999])
def test_row_writer_matches_repr(start):
    for first in range(0, len(CSV_VALUES), CHUNK):
        values = CSV_VALUES[first:first + CHUNK]
        assert _csv_rows(values, start + first) == reference_csv_rows(values, start + first)
