"""Workloads of the spinpovm CLI benchmark: seeded rounds of CLI operations.

A workload is an endless sequence of rounds. A round is a list of CLI
operations (argv for `spinpovm.cli.main`) that is balanced on its own, so a
run that stops after a whole round always measures the same operation mix.
The workload seed feeds one `random.Random`; the program only ever sees the
`--seed` values drawn from it and the argv built here.

Every operation carries the values its output is checked against. The
expected values are the paper's numbers written out here, not read back
from the package, so a check is an independent oracle.
"""

import hashlib
import io
import json
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("sim-spin1-wide", "sim-spin32-narrow", "cli-mix")

# Table 1 of the paper: polytope, shell angles (fractions of pi), weights.
_SQRT2 = math.sqrt(2.0)
SPIN1_SETS = {
    2: ("24-cell", ("pi/4", "pi/2"), (1 / 6, 1 / 12)),
    3: ("24-cell", ("pi/6", "pi/4", "pi/3", "pi/2"), (2 / 27, 1 / 18, 2 / 9, 7 / 108)),
    4: ("600-cell", ("pi/6", "pi/4", "pi/3", "pi/2"), (1 / 45, 1 / 60, 1 / 15, 7 / 360)),
    5: ("600-cell", ("pi/6", "pi/4", "pi/3", "pi/2", "pi/8", "3pi/8"),
        (2 / 225, 17 / 300, 2 / 75, 29 / 1800, (2 - _SQRT2) / 60, (2 + _SQRT2) / 60)),
}

# Element count of every bundled target.
TARGET_SIZES = {
    "table1-N2": 48, "table1-N3": 96, "table1-N4": 480, "table1-N5": 720,
    "penrose40-povm-N2": 40, "penrose40-povm-N3": 40,
    "set60-povm-N2": 60, "set60-povm-N3": 60,
    "penrose40": 40, "set60": 60,
}
SPIN32_POVMS = ("penrose40-povm-N2", "penrose40-povm-N3", "set60-povm-N2", "set60-povm-N3")
POVM_TARGETS = ("table1-N2", "table1-N3", "table1-N4", "table1-N5") + SPIN32_POVMS

# Pairwise Bloch-dot spectrum of each ray catalog: value -> unordered pairs.
# Per state, penrose40 has 12 neighbours at -1/3 and 27 at 1/9; set60 has
# 15 at -1/3, 32 at 0 and 12 at 1/3.
SPECTRA = {
    "penrose40": {-1 / 3: 40 * 12 // 2, 1 / 9: 40 * 27 // 2},
    "set60": {-1 / 3: 60 * 15 // 2, 0.0: 60 * 32 // 2, 1 / 3: 60 * 12 // 2},
}

# Largest |mean - bound| accepted from a simulation, in standard errors.
SIGMAS = 5.0


@dataclass(frozen=True)
class Size:
    """Work per operation. `full` is what the benchmark measures."""

    sim_trials: int        # trials per op on the sim-* workloads
    mix_sim_trials: int    # trials of the CSV simulate op in cli-mix
    verify_trials: int     # Haar probes per verify op in cli-mix
    setup_repeats: int     # fresh interpreters timed for setup_s
    warmup_rounds: dict    # untimed rounds before measuring, per workload


SIZES = {
    "full": Size(100_000, 20_000, 1000, 9,
                 {"sim-spin1-wide": 1, "sim-spin32-narrow": 1, "cli-mix": 3}),
    "smoke": Size(2000, 2000, 100, 1,
                  {"sim-spin1-wide": 0, "sim-spin32-narrow": 0, "cli-mix": 0}),
}


@dataclass
class Op:
    """One CLI call, the files it writes and the values its output must match."""

    kind: str
    argv: list
    expect: dict
    outputs: tuple = ()


@dataclass
class Result:
    op: Op
    latency_s: float
    error: str | None    # None when the op passed its check
    digest: str          # sha256 of the files the op wrote


def _simulate(target: str, trials: int, seed: int, work: Path, csv: bool = False) -> Op:
    copies = int(target.rsplit("N", 1)[1])
    dim = 3 if target.startswith("table1-") else 4
    report = work / "simulate.json"
    argv = ["simulate", "--target", target, "--trials", str(trials),
            "--seed", str(seed), "--out", str(report)]
    outputs = (report,)
    if csv:
        argv += ["--csv", str(work / "simulate.csv")]
        outputs += (work / "simulate.csv",)
    return Op("simulate", argv, {"target": target, "trials": trials, "csv": csv,
                                 "bound": (copies + 1) / (copies + dim)},
              outputs)


def _build_verify(target: str, seed: int, size: Size, work: Path) -> list:
    doc = work / f"build-{target}.json"
    report = work / f"verify-{target}.json"
    return [
        Op("build", ["build", "--target", target, "--out", str(doc)],
           {"elements": TARGET_SIZES[target]}, (doc,)),
        Op("verify", ["verify", "--in", str(doc), "--trials", str(size.verify_trials),
                      "--seed", str(seed), "--out", str(report)], {}, (report,)),
    ]


def _solve_weights(copies: int, polytope: str, angles, weights, work: Path) -> Op:
    report = work / f"weights-{polytope}-N{copies}.json"
    argv = ["solve-weights", "--polytope", polytope, "--angles", *angles,
            "--copies", str(copies), "--out", str(report)]
    return Op("solve-weights", argv, {"weights": weights}, (report,))


def _spectrum(label: str, work: Path) -> Op:
    report = work / f"spectrum-{label}.json"
    return Op("spectrum", ["spectrum", "--target", label, "--out", str(report)],
              {"pairs": SPECTRA[label]}, (report,))


def round_ops(workload: str, rng: random.Random, size: Size, work: Path) -> list:
    """The next round of `workload`, drawing per-op seeds from `rng`."""
    def seed():
        return rng.randrange(2 ** 31)

    if workload == "sim-spin1-wide":
        return [_simulate(t, size.sim_trials, seed(), work) for t in ("table1-N5", "table1-N4")]
    if workload == "sim-spin32-narrow":
        return [_simulate(t, size.sim_trials, seed(), work) for t in SPIN32_POVMS]
    if workload != "cli-mix":
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    items = [_build_verify(t, seed(), size, work) for t in POVM_TARGETS]
    items += [[_solve_weights(n, *SPIN1_SETS[n], work)] for n in sorted(SPIN1_SETS)]
    # the 24-cell cannot cancel the angular dependence at N = 4: exit 3 expected
    items.append([_solve_weights(4, "24-cell", SPIN1_SETS[4][1], None, work)])
    items += [[_spectrum(label, work)] for label in SPECTRA]
    # a spin-3/2 target keeps the estimate kernel a minor share of the round
    items.append([_simulate("penrose40-povm-N2", size.mix_sim_trials, seed(), work, csv=True)])
    rng.shuffle(items)
    return [op for item in items for op in item]


def rounds(workload: str, seed: int, size: Size, work: Path):
    """Endless, reproducible sequence of rounds for one workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield round_ops(workload, rng, size, work)


def _read(path: Path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _check_simulate(op: Op, code) -> str | None:
    if code != 0:
        return f"exit {code}"
    want = op.expect
    report = _read(op.outputs[0])
    if report["povm"] != want["target"] or report["trials"] != want["trials"]:
        return f"report is for {report['povm']} x {report['trials']}"
    bound = want["bound"]
    if abs(report["exact_fidelity"] - bound) > 1e-12:
        return f"exact fidelity {report['exact_fidelity']!r} != bound {bound!r}"
    if abs(report["optimal_bound"] - bound) > 1e-12:
        return f"optimal bound {report['optimal_bound']!r} != {bound!r}"
    deviation = abs(report["mean_fidelity"] - bound)
    if not report["std_error"] > 0 or deviation > SIGMAS * report["std_error"]:
        return (f"mean {report['mean_fidelity']!r} is {deviation:.3e} from {bound!r} "
                f"(std error {report['std_error']!r})")
    if want["csv"]:
        with open(op.outputs[1]) as handle:
            rows = sum(1 for _ in handle) - 1
        if rows != want["trials"]:
            return f"CSV has {rows} rows, expected {want['trials']}"
    return None


def _check_build(op: Op, code) -> str | None:
    if code != 0:
        return f"exit {code}"
    doc = _read(op.outputs[0])
    count = len(doc.get("elements", doc.get("states", ())))
    if count != op.expect["elements"]:
        return f"{count} elements, expected {op.expect['elements']}"
    return None


def _check_verify(op: Op, code) -> str | None:
    if code != 0:
        return f"exit {code}"
    if _read(op.outputs[0]).get("passed") is not True:
        return "report does not say passed"
    return None


def _check_solve_weights(op: Op, code) -> str | None:
    want = op.expect["weights"]
    if want is None:
        return None if code == 3 else f"exit {code}, expected 3"
    if code != 0:
        return f"exit {code}"
    got = _read(op.outputs[0])["weights"]
    if len(got) != len(want) or max(abs(g - w) for g, w in zip(got, want)) > 1e-9:
        return f"weights {got} differ from {list(want)}"
    return None


def _check_spectrum(op: Op, code) -> str | None:
    if code != 0:
        return f"exit {code}"
    got = {float(value): count for value, count in _read(op.outputs[0])["pair_counts"].items()}
    want = op.expect["pairs"]
    matched = {w: c for w, c in want.items()
               if any(abs(g - w) < 1e-8 and c == count for g, count in got.items())}
    if len(got) != len(want) or len(matched) != len(want):
        return f"pair counts {got} differ from {want}"
    return None


CHECKS = {
    "simulate": _check_simulate,
    "build": _check_build,
    "verify": _check_verify,
    "solve-weights": _check_solve_weights,
    "spectrum": _check_spectrum,
}


def execute(op: Op, main) -> Result:
    """Run one op through `main(argv)`, time it, and check its output.

    Any exception, from the program or from reading its output, becomes a
    failed op with the exception text; nothing is raised.
    """
    for path in op.outputs:
        path.unlink(missing_ok=True)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = main(op.argv)
        except Exception as exc:  # a crash in the program is a failed op
            code = f"raised {exc!r}"
        latency = time.perf_counter() - start
    try:
        error = CHECKS[op.kind](op, code)
    except Exception as exc:  # unreadable or malformed output
        error = f"check raised {exc!r}"
    digest = hashlib.sha256()
    for path in op.outputs:
        if path.exists():
            digest.update(path.read_bytes())
    return Result(op, latency, error, digest.hexdigest())
