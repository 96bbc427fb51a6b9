"""Smoke tests of the benchmark, every workload at minimal size.

    python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT):
    # a thread count left in the shell must not change what is measured
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert env["blas_threads"] in (None, 1)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"{metric['name']} = ") and f" {metric['unit']}" in line
                   for line in lines[:-1])


def _corrupt(op) -> bool:
    """Make one expected value of `op` wrong; False if the op has none to change."""
    want = op.expect
    if op.kind == "simulate":
        want["bound"] += 0.05
    elif op.kind == "build":
        want["elements"] += 1
    elif op.kind == "solve-weights" and want["weights"] is not None:
        want["weights"] = tuple(w * 1.001 for w in want["weights"])
    elif op.kind == "spectrum":
        want["pairs"] = {value: count + 1 for value, count in want["pairs"].items()}
    else:
        return False
    return True


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrong_expected_value_is_a_failed_op_not_an_exception(workload, tmp_path):
    import spinpovm.cli

    ops = next(workloads.rounds(workload, 5, workloads.SIZES["smoke"], tmp_path))
    corrupted, kinds = [], set()
    for op in ops:
        if op.kind not in kinds and _corrupt(op):
            kinds.add(op.kind)
            corrupted.append(op)
    results = [workloads.execute(op, spinpovm.cli.main) for op in ops]
    assert [r.op for r in results if r.error] == corrupted
    assert corrupted


def test_tracer_records_missing_names_and_restores_the_originals():
    import spinpovm.cli
    import spinpovm.estimate

    original = spinpovm.estimate.haar_random_states
    wrapped = spans.WRAPPED + (("estimate", "no_such_function", "estimate", None),)
    with spans.Tracer(wrapped) as tracer:
        assert spinpovm.estimate.haar_random_states is not original
        assert spinpovm.cli.main(["simulate", "--target", "table1-N2", "--trials", "100",
                                  "--seed", "1"]) == 0
    assert spinpovm.estimate.haar_random_states is original
    assert tracer.missing == {"estimate.no_such_function"}
    assert tracer.calls[("cli", "main")] == 1
    assert tracer.calls[("sampling", "haar_random_states")] == 1
    assert tracer.counts["estimate.trials"] == 100


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("cli-mix", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
