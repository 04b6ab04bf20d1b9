import json
import shutil
import subprocess
import sys

import pytest

import calibrate
import check
import run
import workloads
from spans import Tracer, layer_totals
from workloads import Item, Shape

ROOT = run.ROOT

# the metrics the benchmark promises, by the names its documentation uses
END_TO_END = {
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "failed_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "serialize.load_ms": "ms",
    "serialize.emit_ms": "ms",
    "serialize.bytes_in": "B",
    "model.classify_ms": "ms",
    "model.classify_calls": "count",
    "model.leximin_tuple_ms": "ms",
    "model.leximin_tuple_calls": "count",
    "model.is_stable_ms": "ms",
    "model.is_stable_calls": "count",
    "cli.dispatch_self_ms": "ms",
    "cli.import_ms": "ms",
    "cli.interp_ms": "ms",
    "fast.solve_ms": "ms",
    "fast.iterations": "count",
    "fast.chain_moves": "count",
    "fast.tuple_comparisons": "count",
    "fastgen.solve_ms": "ms",
    "fastgen.iterations": "count",
    "fastgen.chain_moves": "count",
    "fastgen.tuple_comparisons": "count",
    "fastgen.reruns": "count",
    "fastgen.values_sorted": "count",
    "const2.solve_ms": "ms",
    "const2.toggles": "count",
    "const2.tuple_comparisons": "count",
    "oracle.solve_ms": "ms",
    "oracle.enumerated": "count",
    "oracle.stable_ratio": "ratio",
    "solver.steps": "count",
    "trace.overhead_ms": "ms",
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(lib, name):
    lexmatch, _ = lib
    workload = workloads.WORKLOADS[name]
    first = [item.text for item in workloads.pool(workload, lexmatch, None)]
    second = [item.text for item in workloads.pool(workload, lexmatch, None)]
    assert first == second
    order = workloads.loop_order(workload, 7, len(first))
    assert order == workloads.loop_order(workload, 7, len(first))
    assert sorted(order) == list(range(len(first)))
    orders = {tuple(workloads.loop_order(workload, seed, len(first))) for seed in range(10)}
    assert len(orders) > 1


def test_every_input_has_a_matching_reference(lib):
    lexmatch, _ = lib
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)["workloads"]
    for name, workload in workloads.WORKLOADS.items():
        assert len(reference[name]) == len(workload.shapes)
        # build_item raises when a digest no longer matches the generator
        workloads.pool(workload, lexmatch, reference[name])


# 4x2 ranked-isometric instance; its complete stable matchings are the
# contiguous splits (1,3) > (2,2) > (3,1) in leximin order
MATRIX = [[100, 10], [99, 9], [20, 4], [19, 3]]
BEST, MIDDLE = [0, 1, 1, 1], [0, 0, 1, 1]


def _item(lexmatch, reference_assignment, oracle_assignment=None):
    instance = lexmatch.Instance.from_matrix(MATRIX)
    reference = {"ref": check.encode_assignment(reference_assignment)}
    if oracle_assignment is not None:
        reference["oracle"] = check.encode_assignment(oracle_assignment)
    return Item("hand/0", Shape("iso", 4, 2), "", instance, reference)


def _output(lexmatch, item, assignment, leximin=None):
    if leximin is None:
        tuple_ = lexmatch.leximin_tuple(item.instance, lexmatch.Matching(assignment))
        leximin = [str(v) for v in tuple_.values]
    return json.dumps(
        {
            "algorithm": "hand",
            "steps": 0,
            "counters": {},
            "matching": {"assignment": assignment},
            "leximin": leximin,
        }
    )


def test_check_accepts_the_reference_result(lib):
    lexmatch, _ = lib
    item = _item(lexmatch, BEST)
    assert check.check_output(lexmatch, item, _output(lexmatch, item, BEST)) == check.OK


def test_check_flags_an_unstable_matching(lib):
    lexmatch, _ = lib
    item = _item(lexmatch, BEST)
    # student 0 prefers college 0, which prefers it to students 1 and 2
    unstable = [1, 0, 0, 1]
    assert check.check_output(lexmatch, item, _output(lexmatch, item, unstable)) == "unstable"


def test_check_flags_a_worse_tuple(lib):
    lexmatch, _ = lib
    item = _item(lexmatch, BEST)
    status = check.check_output(lexmatch, item, _output(lexmatch, item, MIDDLE))
    assert status == "worse_than_reference"


def test_check_counts_a_better_tuple_as_improved(lib):
    lexmatch, _ = lib
    item = _item(lexmatch, MIDDLE)
    assert check.check_output(lexmatch, item, _output(lexmatch, item, BEST)) == check.IMPROVED


def test_check_flags_a_misreported_tuple_and_an_oracle_miss(lib):
    lexmatch, _ = lib
    item = _item(lexmatch, BEST)
    wrong = _output(lexmatch, item, BEST, leximin=["3", "4", "9", "16", "100", "101"])
    assert check.check_output(lexmatch, item, wrong) == "tuple_mismatch"
    item = _item(lexmatch, MIDDLE, oracle_assignment=BEST)
    assert check.check_output(lexmatch, item, _output(lexmatch, item, MIDDLE)) == "oracle_mismatch"


def test_self_time_subtracts_direct_children():
    # op 0: op [0, 100] > dispatch [10, 90] > solve [20, 80] > classify [30, 40]
    spans = [
        (0, 3, 2, "model.classify", 30, 40),
        (0, 2, 1, "fast.solve", 20, 80),
        (0, 1, 0, "cli.dispatch", 10, 90),
        (0, 0, -1, "op", 0, 100),
    ]
    totals = layer_totals(spans)[0]
    assert totals["op"] == [20, 1]
    assert totals["cli.dispatch"] == [20, 1]
    assert totals["fast.solve"] == [50, 1]
    assert totals["model.classify"] == [10, 1]


def test_tracer_restores_the_library_functions(lib):
    _, modules = lib
    before = modules["cli"].solve_dispatch, modules["fast"].classify
    tracer = Tracer(modules)
    with tracer.operation(0):
        assert modules["cli"].solve_dispatch is not before[0]
    assert (modules["cli"].solve_dispatch, modules["fast"].classify) == before


@pytest.mark.parametrize("count", [4, 5])
def test_each_input_is_traced_in_one_of_two_passes(count):
    for index in range(count):
        turns = [run.traced_turn(p * count + index, count) for p in range(4)]
        assert turns in ([False, True] * 2, [True, False] * 2)


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([float(x) for x in range(10)]) is None
    assert run.tail([float(x) for x in range(20)]) == (9.0, 50.0)


def test_operation_times_are_scaled_by_the_kernel_times_around_them():
    loop = {"durations": [10.0, 20.0], "kernel": [5.0, 10.0, 10.0]}
    expected = [10.0 * 2 * 5.0 / 15.0, 20.0 * 2 * 5.0 / 20.0]
    assert run.at_reference_speed(loop) == pytest.approx(
        [ms * calibrate.REFERENCE_MS / 5.0 for ms in expected]
    )


def _run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _printed_units(stdout):
    units = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) >= 3:
            units.setdefault(parts[0], parts[2])
    return units


def test_untraced_run_prints_every_end_to_end_metric():
    proc = _run_bench("small_cli", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    printed = _printed_units(proc.stdout)
    for name, unit in END_TO_END.items():
        assert printed.get(name) == unit, name
    for name, unit in run.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit


def test_traced_run_prints_every_layer_metric():
    proc = _run_bench("small_cli", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    printed = _printed_units(proc.stdout)
    for name, unit in PER_LAYER.items():
        assert printed.get(name) == unit, name
        assert result["metrics"][name]["unit"] == unit, name
    assert result["metrics"]["cli.import_ms"]["value"] > 0
    assert result["metrics"]["oracle.enumerated"]["value"] > 0


def test_benchmark_json_names_what_run_prints():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = _run_bench("iso_large", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
