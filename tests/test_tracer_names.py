"""The benchmark tracer wraps package names by string; a rename or deletion
in the package leaves its entry unwrapped, and `trace.missing` counts it."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# Entries whose functions were merged away before this test existed.
KNOWN_STALE = {
    "cli.verify_hierarchy_n2",
    "cli.verify_hierarchy_n3",
    "estimate.scalar_identity_values",
    "symmetric.as_state",
}


def test_no_new_tracer_entry_is_missing():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    assert tracer.missing <= KNOWN_STALE, sorted(tracer.missing - KNOWN_STALE)
