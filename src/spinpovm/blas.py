"""The thread count of numpy's bundled OpenBLAS, and a switch to one thread.

The estimation kernel's overlap product is a small matrix product per
block, so a second BLAS thread only burns CPU: on a 2-vCPU host the
1000-probe scalar check of table1-N5 took 4.99 ms of wall time and 9.04 ms
of CPU on OpenBLAS's default 2 threads, against 4.88 ms of each on one.
"""

import contextlib
import ctypes
import functools
import os

import numpy as np


@functools.cache
def _openblas():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, or None
    when there is no such library, as with another BLAS."""
    # a numpy wheel carries its OpenBLAS in numpy.libs beside the package;
    # loading that file again returns the library numpy already loaded
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = sorted(os.listdir(libs))
    except OSError:
        return None
    for name in names:
        if "openblas" not in name:
            continue
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if getter is not None and setter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                return getter, setter
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread and set its old
    count back afterwards, also when the body raises. Without such a
    library the body runs as it is."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get_threads, set_threads = blas
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)
