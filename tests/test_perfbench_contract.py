"""The benchmark's tracer (perfbench/spans.py) wraps library functions where
each module binds them, and the benchmark calls ``lexmatch.cli`` directly.
These names must keep resolving, or ``perfbench/run.py --trace 1`` crashes."""

import importlib.util
import sys
from pathlib import Path

import lexmatch

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_where_the_tracer_looks_them_up():
    for module_name, attr, _ in _load_spans().TARGETS:
        module = sys.modules[f"{lexmatch.__name__}.{module_name}"]
        assert callable(getattr(module, attr, None)), f"lexmatch.{module_name}.{attr}"


def test_cli_exposes_the_benchmark_entry_points():
    cli = sys.modules["lexmatch.cli"]
    assert callable(cli.solve_dispatch)
    assert callable(cli.main)
