"""The benchmark's tracer (perfbench/spans.py) wraps library functions where
each module binds them, and the benchmark calls ``lexmatch.cli`` directly.
These names must keep resolving, or ``perfbench/run.py --trace 1`` crashes.
The benchmark also checks each output against the result recorded in
``perfbench/reference.json``; the in-process workloads are pinned here too,
so a solver change that moves them fails in the test suite, not only in a
run, and fast_gen's walk on each ranked_gen input is pinned by digest."""

import ast
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import lexmatch
from lexmatch import fast_gen
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
        # the workload times fast_gen's walk: caps inputs bind, the rest do not
        want = "cap_fast_gen" if item.shape.regime == "caps" else "fast_gen"
        assert report.algorithm == want, item.key
        assert list(report.matching.assignment) == _recorded_assignment(item), item.key


# fast_gen's walk on each ranked_gen input (n = 100-360, m = 4-8), beyond
# the n <= 60 of the equivalence sweep: sha256 of the block sizes it hands
# on_state, in order, then of the report's canonical JSON (counters, steps,
# matching and tuple).  A speed-up must leave them in place.
RANKED_GEN_WALKS = {
    "ranked-n100-m8": "e74e174a29e096f272ef13380af0037bd6777bad98dff30a8c974fdf0f807e12",
    "ranked-n160-m6": "43f3ead2dfa7ec9235492c96bf3052cc063d03fbb8bbeb60839e972e443b93c5",
    "ranked-n260-m4": "dea3ea4c83e8dea305d490d2d25d45dab0aea9df083010f9d2d0f3ffaf611109",
    "ties-n100-m8": "0dda4f609f5618ffdfd248642f16982a8209f7cc6f1a9b4304333eb60f3107e9",
    "ties-n160-m6": "59ede9395bafeff99471efa527703f18deecee7424e517581cdb4664e419e926",
    "ties-n260-m4": "2880a2c8c14f2d3de478b74190f4f1a42a0de3398169999f6e80d5ca2e786c00",
    "caps-n140-m8": "fe3418796680c7ebe47e5e25978922d201a7279b6616b08b318e52991378e289",
    "caps-n220-m6": "e5adb9eaf782015ad18422e7afaf78647472598e877c9dab2f41c5c7c534148a",
    "caps-n360-m4": "1545ba41e157825b5b5ff1dcff1ac8d0b9daf793aaafe001eecec6c52f18602b",
}


def _walk_digest(instance):
    h = hashlib.sha256()
    report = fast_gen(instance, on_state=lambda k: h.update(json.dumps(k).encode()))
    h.update(json.dumps(report.to_json_dict(), sort_keys=True, separators=(",", ":")).encode())
    return h.hexdigest()


def test_fast_gen_walks_the_ranked_gen_inputs_as_recorded():
    items = _recorded_items("ranked_gen")
    got = {item.key: _walk_digest(lexmatch.load_instance(item.text)) for item in items}
    assert got == RANKED_GEN_WALKS


def test_strict_toggle_solves_to_the_recorded_assignments():
    items = _recorded_items("strict_toggle")
    assert len(items) == 5
    for item in items:
        report = solve_dispatch(lexmatch.load_instance(item.text), item.algo)
        assert report.algorithm == "fast_const", item.key
        assert report.counters["toggles"] > 0, item.key
        assert list(report.matching.assignment) == _recorded_assignment(item), item.key
