"""Per-module spans recorded from outside the program.

The tracer replaces, for the length of a `with` block, the names through
which one spinpovm module calls into another (for example
`spinpovm.cli.simulate`, the name under which `cli` imported
`estimate.simulate`) with timing wrappers, and restores them afterwards.
No file of the package changes. A span opens only when a call crosses into
another module, so a module's self time is its spans' time minus the time
of the spans they caused.

A name listed here that the package no longer has, or that is not
callable, is recorded in `missing` instead of failing the run, so the
benchmark keeps working across refactors that merge or move functions.
"""

import importlib
import inspect
import math
import os
import time
from collections import defaultdict
from dataclasses import dataclass

PACKAGE = "spinpovm"

# Layers are the package's modules. `reports` is left out: it holds only
# data classes, whose construction counts towards the caller.
LAYERS = ("cli", "documents", "estimate", "sampling", "verify", "symmetric",
          "spin1", "spin32", "polytopes", "povm")


def _simulate(counts, args, result):
    counts["estimate.trials"] += args["trials"]
    counts["estimate.elements"] += args["trials"] * args["povm"].size


def _haar(counts, args, result):
    counts["sampling.states"] += args["count"]


def _scalar_identity(counts, args, result):
    counts["verify.probes"] += args["trials"]
    counts["verify.probe_elements"] += args["trials"] * args["povm"].size


def _embedding(counts, args, result):
    rows, dim = args["states"].shape
    counts["symmetric.elements"] += rows * math.comb(args["copies"] + dim - 1, dim - 1)


def _file_bytes(counts, args, result):
    counts["documents.bytes"] += os.path.getsize(args["path"])


# (module whose name is replaced, name, layer the call enters, counter).
# `cli` reaches `documents` through the module object, so those names are
# replaced on `documents` itself.
WRAPPED = (
    ("cli", "main", "cli", None),
    ("cli", "simulate", "estimate", _simulate),
    ("cli", "build_table1_povm", "spin1", None),
    ("cli", "solve_weights", "spin1", None),
    ("cli", "catalog", "spin32", None),
    ("cli", "spin32_povm", "spin32", None),
    ("cli", "overlap_spectrum", "spin32", None),
    ("cli", "verify_hierarchy_n2", "spin32", None),
    ("cli", "verify_hierarchy_n3", "spin32", None),
    ("cli", "verify_completeness", "verify", None),
    ("cli", "verify_scalar_identity", "verify", _scalar_identity),
    ("documents", "povm_to_document", "documents", None),
    ("documents", "povm_from_document", "documents", None),
    ("documents", "catalog_to_document", "documents", None),
    ("documents", "catalog_from_document", "documents", None),
    ("documents", "write_json", "documents", _file_bytes),
    ("documents", "read_json", "documents", _file_bytes),
    ("estimate", "haar_random_states", "sampling", _haar),
    ("estimate", "verify_completeness", "verify", None),
    ("estimate", "scalar_identity_values", "verify", None),
    ("estimate", "_povm_id", "verify", None),
    ("verify", "haar_random_states", "sampling", _haar),
    ("verify", "symmetric_power_matrix", "symmetric", _embedding),
    ("verify", "_frobenius_identity_residual", "symmetric", None),
    ("verify", "sym_dim", "symmetric", None),
    ("spin1", "vertices", "polytopes", None),
    ("spin32", "normalized", "povm", None),
    ("symmetric", "as_state", "povm", None),
)


@dataclass
class _Frame:
    layer: str
    child_ns: int = 0


class Tracer:
    """Wraps the names in `WRAPPED`; the wrappers are in place while the
    tracer is used as a context manager, which may be entered many times."""

    def __init__(self, wrapped=WRAPPED):
        self.calls = defaultdict(int)      # (layer, name) -> calls
        self.self_ns = defaultdict(int)    # (layer, name) -> self time
        self.failed = defaultdict(int)     # (layer, name) -> calls that raised
        self.counts = defaultdict(int)     # named work counters
        self.missing = set()               # "module.name" entries that could not be wrapped
        self._stack = []
        self._patches = []                 # (module, name, original, wrapper)
        for module_name, name, layer, counter in wrapped:
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                module = None
            original = getattr(module, name, None)
            if not callable(original):
                self.missing.add(f"{module_name}.{name}")
                continue
            self._patches.append((module, name, original,
                                  self._wrap(original, layer, name, counter)))

    def __enter__(self):
        for module, name, _, wrapper in self._patches:
            setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc_info):
        for module, name, original, _ in reversed(self._patches):
            setattr(module, name, original)
        return False

    def _wrap(self, fn, layer, name, counter):
        signature = inspect.signature(fn)
        key = (layer, name)

        def wrapper(*args, **kwargs):
            stack = self._stack
            if stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            frame = _Frame(layer)
            stack.append(frame)
            failed = False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1].child_ns += end - start
                self.calls[key] += 1
                self.self_ns[key] += end - start - frame.child_ns
                self.failed[key] += failed
            if counter is not None:
                try:
                    counter(self.counts, signature.bind(*args, **kwargs).arguments, result)
                except Exception:  # a changed signature must not stop the run
                    self.missing.add(f"{layer}.{name} (counter)")
            return result

        return wrapper

    def layer_totals(self, field: dict) -> dict:
        """Sum a per-(layer, name) table over each layer."""
        totals = dict.fromkeys(LAYERS, 0)
        for (layer, _), value in field.items():
            totals[layer] = totals.get(layer, 0) + value
        return totals
