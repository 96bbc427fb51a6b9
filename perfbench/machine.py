"""The environment a benchmark result was measured in."""

import ctypes
import glob
import os
import platform
import subprocess
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def set_blas_threads() -> None:
    """Run BLAS on one thread whatever the caller set; call before numpy is imported.

    More threads gain little on the kernel's small matrix products, and on a
    shared host their spin-waits make the timings follow the other tenants.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas():
    """(name and version of numpy's BLAS build, its thread count at run time)."""
    import numpy

    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict mode
        build = "unknown"
    threads = None
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return build, threads


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout; None if it is not a git repository of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def describe(root: Path, workload: str, seed: int) -> dict:
    import numpy

    build, threads = _blas()
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": build,
        "blas_threads": threads,
        "git_commit": _git_commit(root),
        "workload": workload,
        "workload_seed": seed,
    }
