"""Command-line surface: build documents, verify, simulate, solve weights.

Exit codes: 0 success, 1 verification failure, 2 input/parse error,
3 unsupported parameters.
"""

import argparse
import errno
import functools
import math
import os
import re
import sys

import numpy as np

from . import documents
from .estimate import IncompletePovmError, simulate
from .povm import AGGREGATE_TOL, Povm
from .spin1 import (
    TABLE1,
    AngularCancellationError,
    WeightSolveError,
    build_table1_povm,
    solve_weights,
)
from .spin32 import (
    CATALOG_WEIGHTS,
    PENROSE40,
    SET60,
    RayCatalog,
    catalog,
    overlap_spectrum,
    spin32_povm,
)
from .verify import verify_completeness, verify_hierarchy, verify_scalar_identity

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3

# Every bundled target by name, in help order. Each entry finds
# build_table1_povm, spin32_povm and catalog in this module per call, so a
# test or the perfbench tracer that replaces those names here sees the calls.
CATALOG_TARGETS = (PENROSE40, SET60)
TARGETS = {
    **{f"table1-N{n}": lambda n=n: build_table1_povm(n) for n in sorted(TABLE1)},
    **{f"{label}-povm-N{n}": lambda label=label, n=n: spin32_povm(catalog(label), n)
       for label, n in CATALOG_WEIGHTS},
    **{label: lambda label=label: catalog(label) for label in CATALOG_TARGETS},
}
POVM_TARGETS = tuple(name for name in TARGETS if name not in CATALOG_TARGETS)


class CliInputError(Exception):
    """User input that cannot be acted on; maps to exit code 2."""


_PI_FRACTION = re.compile(r"^(\d+)?pi(?:/(\d+))?$")


def parse_angle(text: str) -> float:
    """Angles as exact fractions of pi: '0', 'pi', 'pi/4', '3pi/8'."""
    token = text.strip().lower().replace(" ", "")
    if token == "0":
        return 0.0
    match = _PI_FRACTION.match(token)
    if match is None:
        raise CliInputError(
            f"cannot parse angle {text!r}; use forms like 0, pi/2, 3pi/8")
    numerator = int(match.group(1) or 1)
    denominator = int(match.group(2) or 1)
    if denominator == 0:
        raise CliInputError(f"cannot parse angle {text!r}: division by zero")
    return numerator * math.pi / denominator


def _int_at_least(minimum: int):
    """argparse type for counts (>= 1) and seeds (>= 0, as numpy requires)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return parse


def _build(name: str, names) -> Povm | RayCatalog:
    """Build the bundled target `name`, which must be one of `names`."""
    if name in names:
        return TARGETS[name]()
    if name in CATALOG_TARGETS:
        raise CliInputError(
            f"{name!r} is a ray catalog, not a POVM; use one of "
            f"{', '.join(t for t in names if t.startswith(name + '-'))}")
    raise CliInputError(f"unknown target {name!r}; valid targets: {', '.join(names)}")


def build_povm_target(name: str) -> Povm:
    """Build a bundled POVM by name."""
    return _build(name, POVM_TARGETS)


def _load(args, names, from_document):
    """The target named by --target (one of `names`) or read from --in."""
    if (args.target is None) == (args.infile is None):
        raise CliInputError("provide exactly one of --target or --in")
    if args.infile is not None:
        return from_document(documents.read_json(args.infile))
    return _build(args.target, names)


def _check_writable(path: str | None) -> None:
    """Raise an OSError, as writing `path` would, when it is empty or a
    directory or its directory is missing or read-only, so that a long run
    fails before its work. A write can still fail later; main maps that to
    exit 2 as well."""
    if path is None:
        return
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not path or not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _same_file(first: str, second: str) -> bool:
    """Whether two paths name one file: one path once symbolic links are
    resolved, or, when both exist, one file through two hard links."""
    if os.path.realpath(first) == os.path.realpath(second):
        return True
    return os.path.exists(first) and os.path.exists(second) and os.path.samefile(first, second)


def _write_if_requested(data: dict, path: str | None) -> None:
    if path is not None:
        documents.write_json(documents.dumps(data), path)


def cmd_build(args) -> int:
    built = _build(args.target, TARGETS)
    if isinstance(built, RayCatalog):
        documents.write_json(documents.catalog_to_document(built), args.out)
        print(f"wrote {args.out}: {built.size} states")
    else:
        documents.write_json(documents.povm_to_document(built), args.out)
        print(f"wrote {args.out}: {built.size} elements, weight sum {built.weight_sum!r}")
    return EXIT_OK


def cmd_verify(args) -> int:
    povm = _load(args, POVM_TARGETS, documents.povm_from_document)
    rng = np.random.default_rng(args.seed)
    report = verify_completeness(povm).merged(verify_scalar_identity(povm, args.trials, rng))
    report = report.merged(verify_hierarchy(povm))
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status}  {check.name}: residual {check.residual:.6e} "
              f"(tolerance {AGGREGATE_TOL:.1e})")
    print(f"{report.povm_id}: worst residual {report.worst:.6e} -> "
          f"{'PASS' if report.passed else 'FAIL'}")
    _write_if_requested(report.to_dict(), args.out)
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_simulate(args) -> int:
    povm = _load(args, POVM_TARGETS, documents.povm_from_document)
    rng = np.random.default_rng(args.seed)
    try:
        report = simulate(povm, args.trials, rng, keep_samples=args.csv is not None)
    except IncompletePovmError as err:
        print(f"refusing to simulate: {err}", file=sys.stderr)
        return EXIT_VERIFY
    print(f"{report.povm_id}: mean fidelity {report.mean_fidelity:.6f} "
          f"+- {report.std_error:.6f} over {report.trials} trials")
    print(f"exact average {report.exact_fidelity!r}, optimal bound "
          f"{report.optimal_bound!r}")
    _write_if_requested(report.to_dict(), args.out)
    if args.csv is not None:
        documents.write_csv(args.csv, report.samples)
        print(f"wrote per-trial fidelities to {args.csv}")
    return EXIT_OK


def cmd_solve_weights(args) -> int:
    angles = [parse_angle(text) for text in args.angles]
    try:
        weights = solve_weights(args.polytope, angles, args.copies)
    except AngularCancellationError as err:
        print(f"unsupported: {err}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except WeightSolveError as err:
        print(f"unsolvable: {err}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    for text, weight in zip(args.angles, weights):
        print(f"theta = {text}: weight {float(weight)!r}")
    payload = {
        "polytope": args.polytope,
        "copies": args.copies,
        "angles": list(args.angles),
        "angles_radians": [float(a) for a in angles],
        "weights": [float(w) for w in weights],
    }
    _write_if_requested(payload, args.out)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    cat = _load(args, CATALOG_TARGETS, documents.catalog_from_document)
    spectrum = overlap_spectrum(cat)
    for value in spectrum.values:
        print(f"bloch dot {value:+.9f}: {spectrum.pair_counts[value]} pairs")
    _write_if_requested(spectrum.to_dict(), args.out)
    return EXIT_OK


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinpovm",
        description="Build, verify, and simulate optimal multi-copy POVMs "
                    "for spin-1 and spin-3/2 state estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="write a POVM or ray catalog as JSON")
    build.add_argument("--target", required=True,
                       help=f"one of: {', '.join(TARGETS)}")
    build.add_argument("--out", required=True, help="output JSON path")
    build.set_defaults(func=cmd_build)

    verify = sub.add_parser("verify", help="run the identity checks on a POVM")
    verify.add_argument("--target", help=f"built-in POVM: {', '.join(POVM_TARGETS)}")
    verify.add_argument("--in", dest="infile", help="POVM document to verify")
    verify.add_argument("--trials", type=_int_at_least(1), default=1000,
                        help="Haar probes for the scalar identity (default 1000)")
    verify.add_argument("--seed", type=_int_at_least(0), required=True, help="RNG seed")
    verify.add_argument("--out", help="write the verification report as JSON")
    verify.set_defaults(func=cmd_verify)

    sim = sub.add_parser("simulate", help="Monte Carlo estimation-fidelity run")
    sim.add_argument("--target", help=f"built-in POVM: {', '.join(POVM_TARGETS)}")
    sim.add_argument("--in", dest="infile", help="POVM document to simulate")
    sim.add_argument("--trials", type=_int_at_least(1), default=100_000,
                     help="number of simulated estimation rounds (default 100000)")
    sim.add_argument("--seed", type=_int_at_least(0), required=True, help="RNG seed")
    sim.add_argument("--out", help="write the estimation report as JSON")
    sim.add_argument("--csv", help="write per-trial fidelities as CSV")
    sim.set_defaults(func=cmd_simulate)

    solve = sub.add_parser("solve-weights",
                           help="solve for shell weights from angles")
    solve.add_argument("--polytope", required=True,
                       help="24-cell or 600-cell")
    solve.add_argument("--angles", nargs="+", required=True,
                       help="angles as fractions of pi, e.g. pi/4 pi/2 0")
    solve.add_argument("--copies", type=_int_at_least(1), required=True, help="copy count N")
    solve.add_argument("--out", help="write the weight report as JSON")
    solve.set_defaults(func=cmd_solve_weights)

    spectrum = sub.add_parser("spectrum",
                              help="pairwise Bloch-dot spectrum of a ray catalog")
    spectrum.add_argument("--target", help=f"one of: {', '.join(CATALOG_TARGETS)}")
    spectrum.add_argument("--in", dest="infile", help="ray catalog document")
    spectrum.add_argument("--out", help="write the spectrum as JSON")
    spectrum.set_defaults(func=cmd_spectrum)

    return parser


def main(argv=None) -> int:
    try:
        args = _make_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        csv = getattr(args, "csv", None)
        _check_writable(args.out)
        _check_writable(csv)
        if None not in (args.out, csv) and _same_file(args.out, csv):
            raise CliInputError(f"--out and --csv name the same file: {csv}")
        infile = getattr(args, "infile", None)
        for flag, path in (("--out", args.out), ("--csv", csv)):
            if None not in (infile, path) and _same_file(infile, path):
                raise CliInputError(f"{flag} names the --in file: {path}")
        return args.func(args)
    # ValueError covers DocumentError and the solver's argument checks;
    # its typed subclasses for unsupported parameters exit 3 where raised
    except (CliInputError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
