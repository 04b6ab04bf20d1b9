"""The benchmark's tracer (perfbench/spans.py) wraps library functions where
each module binds them, and the benchmark calls ``lexmatch.cli`` directly.
These names must keep resolving, or ``perfbench/run.py --trace 1`` crashes.
The benchmark also checks each output against the result recorded in
``perfbench/reference.json``; the ranked and strict m=2 workloads are pinned
here too, so a solver change that moves them fails in the test suite, not
only in a run."""

import importlib.util
import json
import sys
from pathlib import Path

import lexmatch
from lexmatch.cli import solve_dispatch

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_where_the_tracer_looks_them_up():
    for module_name, attr, _ in _load("spans").TARGETS:
        module = sys.modules[f"{lexmatch.__name__}.{module_name}"]
        assert callable(getattr(module, attr, None)), f"lexmatch.{module_name}.{attr}"


def test_cli_exposes_the_benchmark_entry_points():
    cli = sys.modules["lexmatch.cli"]
    assert callable(cli.solve_dispatch)
    assert callable(cli.main)


def _recorded_items(name):
    workloads = _load("workloads")
    workload = workloads.WORKLOADS[name]
    reference = json.loads((PERFBENCH / "reference.json").read_text())["workloads"][
        workload.name
    ]
    return workloads.pool(workload, lexmatch, reference)


def _recorded_assignment(item):
    return [j for j, count in item.reference["ref"] for _ in range(count)]


def test_ranked_gen_solves_to_the_recorded_assignments():
    items = _recorded_items("ranked_gen")
    assert len(items) == 9
    for item in items:
        report = solve_dispatch(lexmatch.load_instance(item.text), item.algo)
        assert list(report.matching.assignment) == _recorded_assignment(item), item.key


def test_strict_toggle_solves_to_the_recorded_assignments():
    items = _recorded_items("strict_toggle")
    assert len(items) == 5
    for item in items:
        report = solve_dispatch(lexmatch.load_instance(item.text), item.algo)
        assert report.algorithm == "fast_const", item.key
        assert report.counters["toggles"] > 0, item.key
        assert list(report.matching.assignment) == _recorded_assignment(item), item.key
