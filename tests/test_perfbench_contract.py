"""The benchmark's tracer (perfbench/spans.py) wraps library functions where
each module binds them, and the benchmark calls ``lexmatch.cli`` directly.
These names must keep resolving, or ``perfbench/run.py --trace 1`` crashes.
The benchmark also checks each output against the result recorded in
``perfbench/reference.json``; the in-process workloads are pinned here too,
so a solver change that moves them fails in the test suite, not only in a
run."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import lexmatch
from lexmatch.cli import solve_dispatch

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = PERFBENCH.parent / "src"


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


def test_the_only_unread_imports_are_the_tracer_targets():
    # a module binds these names only so that spans.py can wrap them there;
    # any other import a module never reads is a stray one
    unread = set()
    for path in sorted((SRC / "lexmatch").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        # a package's __all__ reads the names it re-exports
        exported = {
            name
            for node in tree.body
            if isinstance(node, ast.Assign)
            and getattr(node.targets[0], "id", None) == "__all__"
            for name in ast.literal_eval(node.value)
        }
        unread |= {f"{path.stem}.{name}" for name in imported - read - exported}
    assert unread == {
        "cli.leximin_tuple",
        "const2.is_stable",
        "const2.leximin_tuple",
        "fastgen.classify",
        "fastgen.leximin_tuple",
        "oracle.leximin_tuple",
    }


def test_import_lexmatch_loads_the_modules_the_benchmark_reads():
    # run.py's import_lexmatch takes LIBRARY_MODULES from sys.modules right
    # after `import lexmatch`.  In this process pytest has imported them all
    # already, so only a fresh interpreter shows a package that loads lazily.
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    (names,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and getattr(node.targets[0], "id", None) == "LIBRARY_MODULES"
    ]
    assert names
    code = "import sys, lexmatch; print(lexmatch.__file__); print(*sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    where, loaded = proc.stdout.split("\n", 1)
    assert Path(where).resolve().parent == (SRC / "lexmatch").resolve()
    missing = {f"lexmatch.{name}" for name in names} - set(loaded.split())
    assert not missing, sorted(missing)


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


def test_iso_large_solves_to_the_recorded_assignments():
    items = _recorded_items("iso_large")
    assert len(items) == 5
    for item in items:
        report = solve_dispatch(lexmatch.load_instance(item.text), item.algo)
        assert report.algorithm == "fast", item.key
        assert list(report.matching.assignment) == _recorded_assignment(item), item.key


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
