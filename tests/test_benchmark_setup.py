"""The benchmark times its set-up by building each workload's targets in a
fresh interpreter, through names of the package that no other test reaches
that way. A rename there would break the benchmark, not the suite."""

import importlib.util
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    # run.py imports its sibling modules by their bare names
    sys.path.insert(0, str(RUN.parent))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(RUN.parent))
    return module


@pytest.mark.parametrize("workload", ["sim-spin1-wide", "sim-spin32-narrow", "cli-mix"])
def test_set_up_builds_every_target(run, workload):
    assert workload in run.workloads.WORKLOADS
    assert run.time_setup(workload)[1] is None
