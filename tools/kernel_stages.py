"""Time each stage of `simulate`'s estimation kernel, in µs per trial.

    python3 tools/kernel_stages.py TARGET ...

For each bundled POVM target, runs `simulate` of TRIALS = 100,000 trials
REPEATS = 7 times at the fixed seeds 0-6, serially (no forked worker)
with numpy's OpenBLAS on one thread, and prints one JSON object of the
median µs per trial of each stage:

- `haar_random_states`, `probe_features`, `outcome_probabilities`,
  `_pick_segments`, `_finish_picks` and `_sequential_pick`: the time
  inside these calls, which the kernel makes by module-level name from
  `spinpovm.estimate` and this script wraps with a clock.
  `probe_features` runs once per chunk, after its states are drawn: for
  D <= 4 it builds the D^2 features of each state's psi psi^dag, and for
  larger D it only views the states as interleaved doubles. Either way
  `outcome_probabilities` multiplies a block of those rows, in one product,
  by a factor of the same layout filled from the POVM's own rows (one
  part of features, or two of doubles). A POVM of k >= 128 outcomes runs
  the two-level pick: `_pick_segments` per block and `_finish_picks`,
  with the gather of the picked fidelities, per chunk; `_sequential_pick`
  then runs only for the rows the finish leaves. A narrower one runs
  `_sequential_pick` per block and neither of the other two;
- `gather`: from each `_sequential_pick` or `_finish_picks` return to the
  next wrapped call, or to the end of the run: on the sequential path the
  gather of the picked fidelities, and on both, once per chunk, its
  statistics and the next chunk's generator;
- `other`: the rest of the call: the completeness check, the uniforms
  and the set-up;
- `total`: the whole `simulate` call.

The package is imported from `src/` of the checkout this file sits in, so
running the script in two checkouts compares them stage by stage.
"""

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"   # before numpy loads its BLAS
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from spinpovm import cli, estimate  # noqa: E402

STAGES = ("haar_random_states", "probe_features", "outcome_probabilities", "_pick_segments",
          "_finish_picks", "_sequential_pick")
# the stages after whose return a gather runs
PICKS = ("_finish_picks", "_sequential_pick")
TRIALS = 100_000
REPEATS = 7


def _time_run(povm, trials: int, seed: int) -> dict:
    """Seconds per stage of one serial `simulate` call."""
    spent = dict.fromkeys(STAGES + ("gather",), 0.0)
    picked = [None]   # the clock at the last return of one of PICKS, while a gather runs
    originals = {name: getattr(estimate, name) for name in STAGES}

    def clocked(name):
        inner = originals[name]

        def call(*args):
            start = time.perf_counter()
            if picked[0] is not None:
                spent["gather"] += start - picked[0]
                picked[0] = None
            result = inner(*args)
            stop = time.perf_counter()
            spent[name] += stop - start
            if name in PICKS:
                picked[0] = stop
            return result
        return call

    workers = estimate._workers
    try:
        estimate._workers = lambda elements: 1
        for name in STAGES:
            setattr(estimate, name, clocked(name))
        start = time.perf_counter()
        estimate.simulate(povm, trials, np.random.default_rng(seed))
        stop = time.perf_counter()
    finally:
        estimate._workers = workers
        for name, original in originals.items():
            setattr(estimate, name, original)
    spent["gather"] += stop - picked[0]
    spent["other"] = (stop - start) - sum(spent.values())
    spent["total"] = stop - start
    return spent


def stages(target: str) -> dict:
    """Median µs per trial of each stage of REPEATS runs on `target`."""
    povm = cli.TARGETS[target]()
    _time_run(povm, 4096, 0)   # warm-up: caches, page faults
    runs = [_time_run(povm, TRIALS, seed) for seed in range(REPEATS)]
    return {"k": povm.size, **{
        stage: round(statistics.median(run[stage] for run in runs) / TRIALS * 1e6, 4)
        for stage in runs[0]}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="+", choices=sorted(cli.POVM_TARGETS),
                        metavar="TARGET")
    args = parser.parse_args(argv)
    report = {
        "trials": TRIALS,
        "repeats": REPEATS,
        "unit": "us/trial",
        "numpy": np.__version__,
        "targets": {target: stages(target) for target in args.targets},
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
