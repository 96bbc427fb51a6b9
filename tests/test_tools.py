"""Smoke tests of the scripts under tools/, which reach into the package by name."""

import importlib.util
import sys
from pathlib import Path

from spinpovm import cli, estimate

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(monkeypatch, name):
    """tools/`name`.py as a module. Its import sets OPENBLAS_NUM_THREADS to 1
    and puts `src/` on sys.path; both are restored after the test."""
    # set here first, so that monkeypatch restores it, or unsets it again
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_stages_times_each_pick_path(monkeypatch):
    stages = _load(monkeypatch, "kernel_stages")
    assert all(hasattr(estimate, name) for name in stages.STAGES)
    originals = {name: getattr(estimate, name) for name in stages.STAGES}
    two_level = ("_pick_segments", "_finish_picks")
    # k = 40 takes the sequential pick, and k = 480 the two-level one, whose
    # random uniforms leave no row to redo at this seed
    narrow = stages._time_run(cli.TARGETS["penrose40-povm-N2"](), 4096, 0)
    assert all(narrow[name] == 0 for name in two_level) and narrow["_sequential_pick"] > 0
    wide = stages._time_run(cli.TARGETS["table1-N4"](), 4096, 0)
    assert all(wide[name] > 0 for name in two_level) and wide["_sequential_pick"] == 0
    for spent in (narrow, wide):
        assert min(spent.values()) >= 0, spent
    assert {name: getattr(estimate, name) for name in stages.STAGES} == originals


def test_cli_sweep_runs_the_documented_commands(monkeypatch):
    sweep = _load(monkeypatch, "cli_sweep")
    runs = sweep.commands()
    assert len(runs) == 130   # the count README states
    # every document written into OUTDIR is read by some command
    assert all(any(name in argv for argv in runs) for name in sweep.INPUT_DOCS)
    targets = [argv[i + 1] for argv in runs for i, arg in enumerate(argv) if arg == "--target"]
    assert targets and set(targets) <= set(cli.TARGETS)
