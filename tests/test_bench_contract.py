"""The names the benchmark's span wrappers patch must exist in the package.

``bench/spans.py`` swaps module attributes for timing wrappers; a name it
lists that the package no longer has kills every traced bench run with
AttributeError.  The file is read here, never changed.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclass looks its module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_span_points_resolve_on_the_package(monkeypatch):
    spans = _load_spans(monkeypatch)
    points = spans.SETUP_POINTS + spans.RUN_POINTS
    assert points
    for module_name, attr, _ in points:
        module = importlib.import_module(f"avdcolor.{module_name}")
        assert callable(getattr(module, attr, None)), (module_name, attr)


def test_trace_entry_takes_the_bench_keywords(monkeypatch):
    spans = _load_spans(monkeypatch)
    assert spans.TRACE_ENTRY == "partition.partition_p1"
    from avdcolor import complete, partition
    inspect.signature(partition.partition_p1).bind(
        complete(7), trace=None, coloring=None)
