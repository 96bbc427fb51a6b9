"""Run a fixed sweep of spinpovm CLI commands and write a manifest of what each did.

    python3 tools/cli_sweep.py OUTDIR

The sweep calls `spinpovm.cli.main` in-process, with OUTDIR as the working
directory, so every output file lands in OUTDIR under a relative name. It
covers `build` for every target, `verify` and `simulate` for every POVM
(by target and from the built documents), `verify` at probe counts just
past the scalar check's block edges, one `simulate --csv` of 10_001
trials, `spectrum` and `solve-weights`, including error cases, some of
them on documents written into OUTDIR first: a qubit POVM at 1100
copies and the Penrose rays at 60 and 500 copies (`solve-weights` runs
at 43, 44 and 10^9 copies too, and on an unknown polytope with a
pole-only shell), a qubit POVM at 1023 copies for `verify`
alone, a POVM and a catalog with boolean amplitudes, catalogs with a
null label or names that are not strings, and qubit POVMs with an object
for provenance, zero copies, a negative weight or a NaN amplitude; the
last two commands name their `--in` document as an output. Two spin-3/2
documents at copy counts no bundled POVM has run `verify` too, and
`spectrum` and `verify` each run on a document of 2049 repeated
spin-3/2 basis rays, one row above the bound of `spectrum`'s Bloch-dot
matrix, and `spectrum` on set60's rays repeated to 2048, at the bound.
The Penrose rays at one copy run `verify` and `simulate --csv`,
and so do two documents of Table 1 POVMs with split
elements, whose two-level outcome picks no bundled POVM takes: table1-N4
with its last element split in two (k = 481, a one-outcome last segment)
and table1-N5 with every element split in three (k = 2160, more segments
than one matrix product sums).
`OUTDIR/manifest.json` records, per command, its argv, exit code, stdout,
stderr and the sha256 of each output file it names. The package is
imported from `src/` of the checkout this file sits in, so two checkouts
give two manifests, and a plain `diff` of them shows every changed byte
of output.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spinpovm import (PENROSE40, SET60, Povm, RayCatalog, build_table1_povm, catalog,  # noqa: E402
                      cli, documents)

SEEDS = (11, 2026)
# Table 1 of the paper, then a trailing zero-weight shell, an infeasible
# set and the 24-cell at N = 4, which cannot cancel the angular dependence
SOLVE_WEIGHTS = (
    ("24-cell", ("pi/4", "pi/2"), 2),
    ("24-cell", ("pi/6", "pi/4", "pi/3", "pi/2"), 3),
    ("600-cell", ("pi/6", "pi/4", "pi/3", "pi/2"), 4),
    ("600-cell", ("pi/6", "pi/4", "pi/3", "pi/2", "pi/8", "3pi/8"), 5),
    ("24-cell", ("pi/4", "pi/2", "0"), 2),
    ("24-cell", ("pi/6", "pi/4"), 2),
    ("24-cell", ("pi/6", "pi/4", "pi/3", "pi/2"), 4),
)
# copy counts whose symmetric subspace is above symmetric.MAX_SYM_DIM =
# 1024: a qubit at 1100 copies (sym_dim 1101, where C(1100, 550) ~ 1e329
# would overflow a float), the Penrose rays at 60 and 500 copies (sym_dim
# 39,711 and 21,084,251) and solve-weights above 43 copies (sym_dim(3, 44)
# = 1035)
HUGE_COPIES = "qubit-copies-1100.json"
# a qubit at 1023 copies, sym_dim 1024 = MAX_SYM_DIM: verify's moment
# hierarchy has 1024 exact targets to sum
MOST_COPIES = "qubit-copies-1023.json"
PENROSE_MANY = {copies: f"penrose40-uniform-N{copies}.json" for copies in (60, 500)}
# |0> and |1> with boolean amplitudes, which np.array reads as 1.0 and 0.0:
# among floats in the POVM, alone in the catalog
BOOL_POVM = "qubit-bool-amplitudes.json"
BOOL_RAYS = "rays-bool-amplitudes.json"
# documents with a text field that is not a string
NULL_LABEL_RAYS = "rays-null-label.json"
ODD_NAMES_RAYS = "rays-odd-names.json"
OBJECT_PROVENANCE = "qubit-object-provenance.json"
# POVM documents with a fault that a Povm refuses
ZERO_COPIES = "qubit-copies-0.json"
NEGATIVE_WEIGHT = "qubit-negative-weight.json"
NAN_AMPLITUDE = "qubit-nan-amplitude.json"
KET0, KET1 = [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]
# the moment hierarchy at N = 1 and 4: a spin-3/2 basis passes it; the
# Penrose rays, weighted to sum to sym_dim(4, 4) = 35, fail its fourth moment
BASIS_N1 = "spin32-basis-N1.json"
PENROSE_N4 = "penrose40-uniform-N4.json"
# the Penrose rays at one copy, weighted to sum to sym_dim(4, 1) = 4: the
# estimation kernel's power step copies |<psi_r|psi>|^2 unsquared
PENROSE_N1 = "penrose40-uniform-N1.json"
# one row above verify.MAX_BLOCH_ROWS = 2048: the spin-3/2 basis repeated,
# as a catalog, which spectrum refuses, and as a one-copy POVM of uniform
# weights, whose moment hierarchy verify sums block by block (it fails:
# e_0 appears 513 times and the others 512)
MANY_RAYS = "spin32-basis-rays-2049.json"
MANY_ELEMENTS = "spin32-basis-N1-2049.json"
BASIS_2049 = np.eye(4)[np.arange(2049) % 4]
# set60's rays repeated to verify.MAX_BLOCH_ROWS = 2048 rows, the most
# `spectrum` takes: many zero dots, and a dot of 1 between repeats
MOST_RAYS = "set60-rays-2048.json"
# Table 1 POVMs with elements split into equal parts: N4's last in two (k =
# 481: 30 segments of estimate._SEGMENT = 16 and one of 1) and each of N5's
# in three (k = 2160: 135 segments, past estimate._PREFIX_MOST = 96, and
# 10_001 trials of it are 3 chunks above estimate._WORKER_ELEMENTS)
SPLIT_LAST = "table1-N4-last-split-2.json"
SPLIT_ALL = "table1-N5-split-3.json"


def _split(povm: Povm, parts: int, first: int) -> dict:
    """The document of `povm` with elements `first` on split into `parts` equal ones."""
    weights, states = povm.weights, povm.states
    return json.loads(documents.povm_to_document(Povm(
        np.r_[weights[:first], np.repeat(weights[first:] / parts, parts)],
        np.r_[states[:first], np.repeat(states[first:], parts, axis=0)],
        povm.copies, provenance=f"{povm.provenance}-split-{parts}")))


def _qubit(copies=1, weight=1.0, ket0=KET0, **extra) -> dict:
    """A POVM document of |0> (at `weight`) and |1> (at weight 1)."""
    return {"schema": "spinpovm/povm-v1", "dim": 2, "copies": copies, **extra,
            "elements": [{"weight": weight, "state": ket0}, {"weight": 1.0, "state": KET1}]}


def _rays(label="rays", names=("0", "1")) -> dict:
    return {"schema": "spinpovm/rays-v1", "dim": 2, "label": label,
            "states": [{"name": name, "state": ket} for name, ket in zip(names, (KET0, KET1))]}


# name -> content of each document the sweep writes into OUTDIR before it runs
INPUT_DOCS = {
    NULL_LABEL_RAYS: _rays(label=None),
    ODD_NAMES_RAYS: _rays(names=([0], None)),
    OBJECT_PROVENANCE: _qubit(provenance={"x": 1}),
    ZERO_COPIES: _qubit(copies=0),
    NEGATIVE_WEIGHT: _qubit(weight=-1.0),
    NAN_AMPLITUDE: _qubit(ket0=[[float("nan"), 0.0], [0.0, 0.0]]),
    HUGE_COPIES: _qubit(copies=1100),
    MOST_COPIES: _qubit(copies=1023),
    BOOL_POVM: _qubit(ket0=[[True, False], [0.0, 0.0]]),
    BASIS_N1: json.loads(documents.povm_to_document(Povm(np.ones(4), np.eye(4), 1))),
    PENROSE_N4: json.loads(documents.povm_to_document(
        Povm(np.full(40, 35 / 40), catalog(PENROSE40).states, 4))),
    PENROSE_N1: json.loads(documents.povm_to_document(
        Povm(np.full(40, 4 / 40), catalog(PENROSE40).states, 1))),
    MANY_RAYS: json.loads(documents.catalog_to_document(
        RayCatalog("rays", tuple(map(str, range(2049))), BASIS_2049))),
    MANY_ELEMENTS: json.loads(documents.povm_to_document(
        Povm(np.full(2049, 4 / 2049), BASIS_2049, 1))),
    MOST_RAYS: json.loads(documents.catalog_to_document(RayCatalog(
        "set60-repeated", tuple(map(str, range(2048))),
        catalog(SET60).states[np.arange(2048) % 60]))),
    SPLIT_LAST: _split(build_table1_povm(4), 2, 479),
    SPLIT_ALL: _split(build_table1_povm(5), 3, 0),
    **{name: json.loads(documents.povm_to_document(
        Povm(np.ones(40), catalog(PENROSE40).states, copies)))
       for copies, name in PENROSE_MANY.items()},
    BOOL_RAYS: {
        "schema": "spinpovm/rays-v1", "dim": 2, "label": "rays",
        "states": [{"name": "0", "state": [[True, False], [False, False]]},
                   {"name": "1", "state": [[False, False], [True, False]]}],
    },
}


def commands() -> list[list[str]]:
    """Every argv of the sweep, in order."""
    runs = [["build", "--target", t, "--out", f"build-{t}.json"] for t in cli.TARGETS]
    for t in cli.POVM_TARGETS:
        for seed in SEEDS:
            runs.append(["verify", "--target", t, "--seed", str(seed),
                         "--out", f"verify-{t}-{seed}.json"])
        runs.append(["verify", "--in", f"build-{t}.json", "--trials", "300", "--seed", "5",
                     "--out", f"verify-in-{t}.json"])
        for trials, seed in [(100_000, s) for s in SEEDS] + [(1, 5), (4097, 5)]:
            name = f"simulate-{t}-{trials}-{seed}"
            runs.append(["simulate", "--target", t, "--trials", str(trials),
                         "--seed", str(seed), "--out", f"{name}.json", "--csv", f"{name}.csv"])
        runs.append(["simulate", "--in", f"build-{t}.json", "--trials", "5000", "--seed", "5",
                     "--out", f"simulate-in-{t}.json"])
    for label in cli.CATALOG_TARGETS:
        runs.append(["spectrum", "--target", label, "--out", f"spectrum-{label}.json"])
        runs.append(["spectrum", "--in", f"build-{label}.json",
                     "--out", f"spectrum-in-{label}.json"])
    for polytope, angles, copies in SOLVE_WEIGHTS:
        runs.append(["solve-weights", "--polytope", polytope, "--angles", *angles,
                     "--copies", str(copies),
                     "--out", f"solve-{polytope}-N{copies}-{len(angles)}.json"])
    # weights (2/9, 0, 2/3): the pi/2 weight solves to about 3e-17, and is 0
    runs.append(["solve-weights", "--polytope", "24-cell", "--angles", "pi/3", "pi/2", "0",
                 "--copies", "2", "--out", "solve-24-cell-N2-zero-weight.json"])
    # probe counts one past a block edge of the scalar check: block_rows(k)
    # is 1024 at k = 40 and 853 at k = 48; at k = 60 (682) a chunk edge
    # follows at 4097, and the 3616-probe last chunk of 20,000 splits into
    # larger blocks (603 rows) than the full ones (586)
    for target, trials in [("penrose40-povm-N2", 1025), ("table1-N2", 854),
                           ("set60-povm-N3", 4097), ("set60-povm-N3", 20_000)]:
        runs.append(["verify", "--target", target, "--trials", str(trials), "--seed", "5",
                     "--out", f"verify-{target}-{trials}.json"])
    # 10_001 rows: the trial index gains a fifth digit inside the third slice
    runs.append(["simulate", "--target", "penrose40-povm-N2", "--trials", "10001",
                 "--seed", "5", "--out", "simulate-csv-10001.json",
                 "--csv", "simulate-csv-10001.csv"])
    # more trials than memory holds
    runs.append(["simulate", "--target", "table1-N2", "--trials", str(10 ** 15), "--seed", "1"])
    for doc in (HUGE_COPIES, *PENROSE_MANY.values()):
        runs.append(["verify", "--in", doc, "--seed", "1"])
        runs.append(["simulate", "--in", doc, "--seed", "1"])
    # 43 copies reach the solve, which fails; 44 and more are refused before it
    for copies in ("43", "44", "1000000000"):
        runs.append(["solve-weights", "--polytope", "24-cell", "--angles", "pi/4", "pi/2",
                     "--copies", copies])
    runs.append(["solve-weights", "--polytope", "foo", "--angles", "0", "--copies", "2"])
    runs.append(["verify", "--in", MOST_COPIES, "--seed", "1"])
    runs.append(["verify", "--in", BOOL_POVM, "--seed", "1"])
    runs.append(["simulate", "--in", BOOL_POVM, "--seed", "1"])
    runs.append(["spectrum", "--in", BOOL_RAYS])
    for doc in (BASIS_N1, PENROSE_N4, PENROSE_N1):
        runs.append(["verify", "--in", doc, "--seed", "1", "--out", f"verify-{doc}"])
    runs.append(["simulate", "--in", PENROSE_N1, "--trials", "5000", "--seed", "5",
                 "--out", f"simulate-{PENROSE_N1}", "--csv", "simulate-penrose40-N1.csv"])
    for doc in (SPLIT_LAST, SPLIT_ALL):
        runs.append(["verify", "--in", doc, "--seed", "5", "--out", f"verify-{doc}"])
        runs.append(["simulate", "--in", doc, "--trials", "10001", "--seed", "5",
                     "--out", f"simulate-{doc}", "--csv", f"simulate-{doc}.csv"])
    for doc in (OBJECT_PROVENANCE, ZERO_COPIES, NEGATIVE_WEIGHT, NAN_AMPLITUDE):
        runs.append(["verify", "--in", doc, "--seed", "1"])
        runs.append(["simulate", "--in", doc, "--seed", "1"])
    runs.append(["spectrum", "--in", NULL_LABEL_RAYS])
    runs.append(["spectrum", "--in", ODD_NAMES_RAYS])
    runs.append(["spectrum", "--in", MANY_RAYS])
    runs.append(["spectrum", "--in", MOST_RAYS, "--out", f"spectrum-{MOST_RAYS}"])
    runs.append(["verify", "--in", MANY_ELEMENTS, "--seed", "1"])
    # verify has no --tolerance: its gate is fixed at 1e-9
    runs.append(["verify", "--target", "table1-N2", "--seed", "1", "--tolerance", "1e-3"])
    # an output path naming the --in document, last so that no other
    # command reads what it would have written
    runs.append(["verify", "--in", "build-table1-N2.json", "--seed", "1",
                 "--out", "build-table1-N2.json"])
    runs.append(["simulate", "--in", "build-table1-N2.json", "--seed", "1",
                 "--csv", "./build-table1-N2.json"])
    return runs


def run(argv: list[str]) -> dict:
    """Run one command and record what it did."""
    out, err = io.StringIO(), io.StringIO()
    entry = {"argv": argv}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            entry["exit"] = cli.main(argv)
        except Exception as exc:  # a traceback is a result of the sweep too
            entry["exit"] = None
            entry["raised"] = f"{type(exc).__name__}: {exc}"
    entry["stdout"] = out.getvalue()
    entry["stderr"] = err.getvalue()
    paths = [argv[i + 1] for i, arg in enumerate(argv) if arg in ("--out", "--csv")]
    entry["files"] = {
        path: hashlib.sha256(Path(path).read_bytes()).hexdigest() if Path(path).exists()
        else None
        for path in paths}
    return entry


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    outdir = Path(args[0])
    outdir.mkdir(parents=True, exist_ok=True)
    here = os.getcwd()
    os.chdir(outdir)
    try:
        for name, doc in INPUT_DOCS.items():
            Path(name).write_text(json.dumps(doc))
        manifest = [run(command) for command in commands()]
    finally:
        os.chdir(here)
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"{len(manifest)} commands, "
          f"{sum(len(entry['files']) for entry in manifest)} output files -> "
          f"{outdir / 'manifest.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
