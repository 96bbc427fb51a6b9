"""Closed-loop benchmark of the spinpovm command line.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 30 --trace 0

One client calls `spinpovm.cli.main(argv)` in this process and sends the
next command only after the previous one returned and its output passed
its check, as a user at a shell does. The package is imported from `src/`
of the checkout this script sits in.

With `--trace 0` the run measures for `--seconds` and prints every
end-to-end metric. With `--trace 1` it runs each command twice, first
untraced and then with every cross-module call timed by `spans.Tracer`,
checks that both runs wrote the same bytes, and prints the per-module
metrics. The last line of standard output is
the result as one JSON object; the lines before it name each metric with
its unit and sample count, and the environment it was measured in. The
full result is written under `.perfbench_out/` in the checkout.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import machine
import workloads
from spans import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Run in a fresh interpreter to time set-up: import, then build the targets
# a workload uses. Prints each target's element count for the parent to check.
SETUP_CODE = """
import sys
import spinpovm
from spinpovm.cli import build_povm_target
for name in sys.argv[1:]:
    built = spinpovm.catalog(name) if name in ("penrose40", "set60") else build_povm_target(name)
    print(name, built.size)
"""

SETUP_TARGETS = {
    "sim-spin1-wide": ("table1-N5", "table1-N4"),
    "sim-spin32-narrow": workloads.SPIN32_POVMS,
    "cli-mix": workloads.POVM_TARGETS + ("penrose40", "set60"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True, help="time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="work per op; 'smoke' is for the benchmark's own tests")
    return parser.parse_args(argv)


def import_cli():
    """Import spinpovm.cli from this checkout's src/; exit with an error if it has none."""
    if not (SRC / "spinpovm" / "__init__.py").is_file():
        sys.exit(f"error: no spinpovm package under {SRC}")
    sys.path.insert(0, str(SRC))
    import spinpovm.cli

    if Path(spinpovm.__file__).resolve().parent != SRC / "spinpovm":
        sys.exit(f"error: imported spinpovm from {spinpovm.__file__}, not from {SRC}")
    return spinpovm.cli


def time_setup(workload: str) -> tuple:
    """(wall time, error or None) of a fresh interpreter that imports spinpovm
    and builds the workload's targets."""
    targets = SETUP_TARGETS[workload]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    expected = "".join(f"{t} {workloads.TARGET_SIZES[t]}\n" for t in targets)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *targets], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or proc.stdout != expected:
        return elapsed, f"setup exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return elapsed, None


def run_rounds(rounds, run, seconds: float, count: int | None = None,
               after_round=lambda elapsed: None) -> list:
    """Apply `run` to each op of whole rounds until `seconds` have passed, or
    `count` rounds are done; one list of `run`'s results per round.
    `after_round` is called with the seconds elapsed after each round."""
    done = []
    start = time.perf_counter()
    while count is None or len(done) < count:
        done.append([run(op) for op in next(rounds)])
        elapsed = time.perf_counter() - start
        after_round(elapsed)
        if count is None and elapsed >= seconds:
            break
    return done


def tail(latencies: list) -> tuple:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    With fewer than 100 samples that percentile is below p90, not a tail:
    with 20 it is the median, and as the sample count of a run shifts by
    one round it jumps from one kind of op to another. The maximum is
    reported instead, at percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 100:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(rounds: list, setup_times: list) -> dict:
    """Metrics for trace 0 as (value, unit, note printed beside it).

    Rates are medians over rounds, which keeps a burst of load from another
    process out of them. So is the p50: each round's upper median, median
    over rounds. A round mixes ops of different lengths, and the median of
    all ops pooled falls in the gap between two kinds of op, where it reads
    the fastest op of the slower kind; a round's upper median is the same
    kind of op in every round, and the median over rounds its typical time.
    """
    latencies = [r.latency_s for results in rounds for r in results]
    n = len(latencies)
    ops_rates = [len(results) / sum(r.latency_s for r in results) for results in rounds]
    trial_rates = []
    for results in rounds:
        sims = [r for r in results if r.op.kind == "simulate"]
        if sims:
            trials = sum(r.op.expect["trials"] for r in sims)
            trial_rates.append(trials / sum(r.latency_s for r in sims))
    round_p50s = [statistics.median_high([r.latency_s for r in results]) for results in rounds]
    tail_s, tail_pct = tail(latencies)
    return {
        "trials_per_s": (statistics.median(trial_rates), "1/s",
                         f"median of {len(trial_rates)} rounds"),
        "ops_per_s": (statistics.median(ops_rates), "1/s", f"median of {len(rounds)} rounds"),
        "op_p50_ms": (statistics.median(round_p50s) * 1e3, "ms",
                      f"median of {len(rounds)} rounds of {len(rounds[0])} ops"),
        "op_tail_ms": (tail_s * 1e3, "ms", f"p{tail_pct:.2f} of {n} ops"),
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} fresh interpreters"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "this process"),
    }


def per_layer(untraced: list, traced: list, tracer: Tracer) -> dict:
    """Metrics for trace 1. Times and counts are per traced op."""
    n = len(traced)
    op_ns = sum(r.latency_s for r in traced) * 1e9
    calls = tracer.layer_totals(tracer.calls)
    self_ns = tracer.layer_totals(tracer.self_ns)
    failed = tracer.layer_totals(tracer.failed)
    counts = tracer.counts
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer] / n, "1/op", f"{calls[layer]} calls")
        metrics[f"{layer}.self_ms"] = (self_ns[layer] / n / 1e6, "ms/op", f"{n} ops")
        metrics[f"{layer}.share"] = (self_ns[layer] / op_ns, "ratio", "of op time")
        metrics[f"{layer}.failed"] = (failed[layer] / n, "1/op", f"{failed[layer]} raised")

    def ratio(num, den):
        return num / den if den else 0.0

    scalar_ns = tracer.self_ns[("verify", "verify_scalar_identity")]
    metrics.update({
        "estimate.trials": (counts["estimate.trials"] / n, "1/op", ""),
        "estimate.elements": (counts["estimate.elements"] / n, "1/op", "trials x k"),
        "estimate.ns_per_element": (ratio(self_ns["estimate"], counts["estimate.elements"]),
                                    "ns", "estimate self time per element"),
        "sampling.states": (counts["sampling.states"] / n, "1/op", ""),
        "sampling.ns_per_state": (ratio(self_ns["sampling"], counts["sampling.states"]),
                                  "ns", "sampling self time per state"),
        "verify.probes": (counts["verify.probes"] / n, "1/op", ""),
        "verify.ns_per_element": (ratio(scalar_ns, counts["verify.probe_elements"]), "ns",
                                  "verify_scalar_identity self time per probe x k"),
        "symmetric.elements": (counts["symmetric.elements"] / n, "1/op", "k x sym_dim"),
        "documents.bytes": (counts["documents.bytes"] / n, "B/op", "read and written"),
        "trace.overhead_frac": (
            sum(r.latency_s for r in traced) / sum(r.latency_s for r in untraced) - 1,
            "ratio", "traced / untraced time of the same ops, minus 1"),
        "trace.missing": (len(tracer.missing), "count", ", ".join(sorted(tracer.missing))),
    })
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    size = workloads.SIZES[args.size]
    machine.set_blas_threads()
    cli = import_cli()
    env = machine.describe(ROOT, args.workload, args.seed)

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    errors = []
    try:
        setup_times = []
        rounds = workloads.rounds(args.workload, args.seed, size, work)

        def main_call(argv):
            return cli.main(argv)  # looked up per call, so the tracer's wrapper is used

        def plain(op):
            return workloads.execute(op, main_call)

        warmup = run_rounds(rounds, plain, 0, count=size.warmup_rounds[args.workload])
        attempted = [r for results in warmup for r in results]
        if not args.trace:
            def set_up_when_due(elapsed):
                # spread over the run, the fresh interpreters meet the same
                # drift in host speed as the ops, not one moment of it
                due = (size.setup_repeats if elapsed >= args.seconds
                       else int(size.setup_repeats * elapsed / args.seconds))
                while len(setup_times) < due:
                    setup_s, error = time_setup(args.workload)
                    setup_times.append(setup_s)
                    if error:
                        errors.append(error)

            measured = run_rounds(rounds, plain, args.seconds, after_round=set_up_when_due)
            metrics = end_to_end(measured, setup_times)
            attempted += [r for results in measured for r in results]
        else:
            tracer = Tracer()

            def paired(op):
                # the traced run follows its untraced twin at once, so drift in
                # machine speed cancels in trace.overhead_frac
                untraced = plain(op)
                with tracer:
                    return untraced, plain(op)

            pairs = [pair for results in run_rounds(rounds, paired, args.seconds)
                     for pair in results]
            untraced = [u for u, _ in pairs]
            traced = [t for _, t in pairs]
            mismatched = [t for u, t in pairs if u.digest != t.digest]
            errors += [f"{' '.join(r.op.argv[:3])}: traced run wrote other bytes"
                       for r in mismatched]
            attempted += untraced + traced
            metrics = per_layer(untraced, traced, tracer)
            metrics["trace.mismatched_reports"] = (len(mismatched), "count",
                                                   "ops whose outputs differ")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # each failed set-up run and each traced op that wrote other bytes is a failure too
    failures = [f"{' '.join(r.op.argv[:3])}: {r.error}" for r in attempted if r.error] + errors
    failed = len(failures)
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "correct": failed == 0,
        "attempted": len(attempted) + len(setup_times),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    record = dict(result, env=env, notes={name: note for name, (_, _, note) in metrics.items()},
                  failures=failures, setup_times_s=setup_times)
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(attempted)} ops and {len(setup_times)} set-ups attempted, {failed} failed")
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
