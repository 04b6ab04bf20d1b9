"""Layered benchmark of lexmatch: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload ranked_gen --seed 1 --seconds 20 --trace 0

Each workload runs as a closed loop from this single process: one operation
in flight, the next sent when the previous one returns.  In-process
workloads take instance JSON text through ``load_instance``,
``solve_dispatch`` and ``json.dumps(report.to_json_dict())``; ``small_cli``
runs one ``lexmatch solve`` process per operation.  Every output is checked
after the loop (see check.py).  The code under test is always ``src/`` of
the checkout this file sits in, never an installed copy.  The end-to-end
times are wall times scaled to reference machine speed (see calibrate.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced operations over the same inputs, prints the per-layer
metrics and the tracing overhead, and writes the spans to
``.perfbench/spans-<workload>-seed<seed>.json``.  Human-readable lines come
first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import calibrate
import check
import workloads
from spans import Tracer, layer_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

# the body of the `lexmatch` console script
CLI_MAIN = "import sys; from lexmatch.cli import main; sys.exit(main())"
SETUP_REPEATS = 5
INTERP_REPEATS = 7
# op_tail_ms is the sample with this many samples beyond it
TAIL_BEYOND = 10
LIBRARY_MODULES = ("cli", "const2", "fast", "fastgen", "oracle", "serialize")

END_TO_END = {
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# span name -> metric prefix; each gives <prefix>_ms (self time per op)
SELF_TIME = {
    "serialize.load": "serialize.load",
    "serialize.emit": "serialize.emit",
    "model.classify": "model.classify",
    "model.leximin_tuple": "model.leximin_tuple",
    "model.is_stable": "model.is_stable",
    "cli.dispatch": "cli.dispatch_self",
    "fast.solve": "fast.solve",
    "fastgen.solve": "fastgen.solve",
    "const2.solve": "const2.solve",
    "oracle.solve": "oracle.solve",
}
CALLS = ("model.classify", "model.leximin_tuple", "model.is_stable")
# report algorithm -> layer, and the counters reported per layer
LAYER_OF = {
    "fast": "fast",
    "cap_fast": "fast",
    "fast_gen": "fastgen",
    "cap_fast_gen": "fastgen",
    "fast_const": "const2",
    "oracle": "oracle",
}
COUNTERS = {
    "fast": ("iterations", "chain_moves", "tuple_comparisons"),
    "fastgen": ("iterations", "chain_moves", "tuple_comparisons", "reruns"),
    "const2": ("toggles", "tuple_comparisons"),
    "oracle": ("enumerated",),
}

PER_LAYER = {f"{prefix}_ms": "ms" for prefix in SELF_TIME.values()}
PER_LAYER.update({f"{name}_calls": "count" for name in CALLS})
PER_LAYER.update(
    {f"{layer}.{c}": "count" for layer, names in COUNTERS.items() for c in names}
)
PER_LAYER.update(
    {
        "serialize.bytes_in": "B",
        "fastgen.values_sorted": "count",
        "oracle.stable_ratio": "ratio",
        "solver.steps": "count",
        "cli.interp_ms": "ms",
        "cli.import_ms": "ms",
        "trace.overhead_ms": "ms",
    }
)


def import_lexmatch():
    """Import the package from src/ and return (package, modules, seconds)."""
    if not (SRC / "lexmatch" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package at {SRC / 'lexmatch'}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import lexmatch

    modules = {name: sys.modules[f"lexmatch.{name}"] for name in LIBRARY_MODULES}
    seconds = time.perf_counter() - t0
    if Path(lexmatch.__file__).resolve().parent != (SRC / "lexmatch").resolve():
        raise SystemExit(f"perfbench: imported lexmatch from {lexmatch.__file__}")
    return lexmatch, modules, seconds


def solve_in_process(modules, text: str, algo: str, tracer=None) -> str:
    instance = modules["serialize"].load_instance(text)
    report = modules["cli"].solve_dispatch(instance, algo=algo)
    if tracer is None:
        return json.dumps(report.to_json_dict())
    with tracer.span("serialize.emit"):
        return json.dumps(report.to_json_dict())


class CliFailed(Exception):
    pass


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def solve_cli(env, text: str, algo: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", CLI_MAIN, "solve", "--instance", "-", "--algo", algo],
        input=text,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    if proc.returncode != 0:
        raise CliFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return proc.stdout


def interpreter_ms(env) -> tuple:
    """Median wall time of a bare interpreter start and of `import lexmatch`,
    alternating the two."""
    bare, imported = [], []
    for _ in range(INTERP_REPEATS):
        for code, sink in (("pass", bare), ("import lexmatch", imported)):
            t0 = time.perf_counter_ns()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            sink.append((time.perf_counter_ns() - t0) / 1e6)
    return statistics.median(bare), statistics.median(imported)


def tail(values_ms: list):
    """The highest percentile with at least 10 samples beyond it: the
    eleventh-largest sample and the percentile it stands at, or None when
    there are fewer than 11 samples."""
    if len(values_ms) <= TAIL_BEYOND:
        return None
    ordered = sorted(values_ms)
    index = len(ordered) - TAIL_BEYOND - 1
    return ordered[index], 100 * (index + 1) / len(ordered)


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


class Run:
    def __init__(self, workload, seed, lexmatch, modules, reference):
        self.workload = workload
        self.seed = seed
        self.lexmatch = lexmatch
        self.modules = modules
        self.reference = reference
        self.env = cli_env()

    def op(self, item) -> str:
        if self.workload.in_process:
            return solve_in_process(self.modules, item.text, item.algo)
        return solve_cli(self.env, item.text, item.algo)

    def set_up(self) -> list:
        items = workloads.pool(self.workload, self.lexmatch, self.reference)
        self.op(items[0])
        return items

    def require(self, report):
        if self.workload.name != "strict_toggle":
            return None
        if report.get("algorithm") != "fast_const":
            return "not_fast_const"
        if not report.get("counters", {}).get("toggles", 0) > 0:
            return "no_toggles"
        return None


def traced_turn(k: int, count: int) -> bool:
    """Whether operation `k` of a traced loop over `count` inputs is traced:
    every other position of a pass, shifted by one each pass, so each input
    is traced in one of two consecutive passes and untraced in the other."""
    return (k % count + k // count) % 2 == 1


def closed_loop(bench: Run, items, seconds: float, tracer=None) -> dict:
    """Run whole passes over the inputs, operations back to back, until
    `seconds` have passed.  With a tracer, operations alternate between
    traced and untraced (each input gets both over two passes); for
    small_cli the traced half is an in-process replay of the same input,
    timed apart from the operation.  The calibration kernel runs before the
    first operation and after every operation, untimed.  Equal outputs are
    kept once, so what the loop holds does not grow with the number of
    operations."""
    order = workloads.loop_order(bench.workload, bench.seed, len(items))
    durations, traced_flags, results = [], [], []
    distinct = {}  # output text -> the one copy kept of it
    replay = []  # small_cli with tracing: (traced, ms, input index, text)
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    kernel = [calibrate.kernel_ms()]
    end = start
    k = 0
    # whole passes only, so every input weighs the same in every statistic,
    # and enough operations that op_tail_ms exists
    while k % len(order) != 0 or k <= TAIL_BEYOND or end < deadline:
        index = order[k % len(order)]
        item = items[index]
        traced = tracer is not None and traced_turn(k, len(order))
        text = error = None
        t0 = time.perf_counter_ns()
        try:
            if traced and bench.workload.in_process:
                with tracer.operation(k):
                    text = solve_in_process(bench.modules, item.text, item.algo, tracer)
            else:
                text = bench.op(item)
        except Exception as exc:  # the loop must go on; the op counts as failed
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        end = time.perf_counter_ns()
        durations.append((end - t0) / 1e6)
        traced_flags.append(traced)
        results.append((index, distinct.setdefault(text, text), error))
        if tracer is not None and not bench.workload.in_process:
            r0 = time.perf_counter_ns()
            replay_text = None
            try:
                if traced:
                    with tracer.operation(k):
                        replay_text = solve_in_process(
                            bench.modules, item.text, item.algo, tracer
                        )
                else:
                    replay_text = solve_in_process(bench.modules, item.text, item.algo)
            except Exception:  # the failure is counted on the CLI operation
                traceback.print_exc(file=sys.stderr)
            replay_ms = (time.perf_counter_ns() - r0) / 1e6
            replay.append((traced, replay_ms, index, distinct.setdefault(replay_text, replay_text)))
        kernel.append(calibrate.kernel_ms())
        end = time.perf_counter_ns()
        k += 1
    return {
        "durations": durations,
        "kernel": kernel,
        "traced": traced_flags,
        "results": results,
        "replay": replay,
        "wall_s": (end - start) / 1e9,
    }


def speed_factors(loop) -> list:
    """Per operation, the factor that takes its wall times to reference
    speed, from the calibration kernel times taken just before and just
    after it (see calibrate.py)."""
    kernel = loop["kernel"]
    return [calibrate.scale(1.0, kernel[k], kernel[k + 1]) for k in range(len(loop["durations"]))]


def at_reference_speed(loop) -> list:
    return [ms * f for ms, f in zip(loop["durations"], speed_factors(loop))]


def check_all(bench: Run, items, results) -> tuple:
    """Check every operation's output; identical outputs for one input are
    checked once.  Returns (failed, improved, failure reasons)."""
    verdicts = {}
    reasons = Counter()
    improved = failed = 0
    for index, text, error in results:
        if error is not None:
            status = "raised"
        else:
            key = (index, text)
            if key not in verdicts:
                verdicts[key] = check.check_output(bench.lexmatch, items[index], text, bench.require)
            status = verdicts[key]
        if status == check.IMPROVED:
            improved += 1
        elif status != check.OK:
            failed += 1
            reasons[f"{status} {items[index].key}"] += 1
    return failed, improved, reasons


def layer_metrics(bench: Run, items, loop, tracer, interp) -> dict:
    """Per-layer metrics of a traced loop; times are at reference speed,
    like the end-to-end ones."""
    factors = speed_factors(loop)
    if bench.workload.in_process:
        samples = [
            (traced, d * f, index, text)
            for d, f, traced, (index, text, _) in zip(
                loop["durations"], factors, loop["traced"], loop["results"]
            )
        ]
    else:
        samples = [
            (traced, d * f, index, text)
            for (traced, d, index, text), f in zip(loop["replay"], factors)
        ]
    traced_ms = [d for traced, d, _, _ in samples if traced]
    untraced_ms = [d for traced, d, _, _ in samples if not traced]
    traced_ops = [(index, text) for traced, _, index, text in samples if traced]
    count = len(traced_ops)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    totals = layer_totals(tracer.spans)
    for op, per_op in totals.items():
        for name, (self_ns, calls) in per_op.items():
            if name in SELF_TIME:
                metrics[f"{SELF_TIME[name]}_ms"] += self_ns / 1e6 * factors[op] / count
            if name in CALLS:
                metrics[f"{name}_calls"] += calls / count
    stable = enumerated = 0
    for index, text in traced_ops:
        metrics["serialize.bytes_in"] += len(items[index].text.encode()) / count
        if text is None:
            continue
        report = json.loads(text)
        counters = report["counters"]
        metrics["solver.steps"] += report["steps"] / count
        layer = LAYER_OF.get(report["algorithm"])
        for name in COUNTERS.get(layer, ()):
            metrics[f"{layer}.{name}"] += counters[name] / count
        if layer == "fastgen":
            instance = items[index].instance
            metrics["fastgen.values_sorted"] += (
                counters["tuple_comparisons"] * (instance.n + instance.m) / count
            )
        if layer == "oracle":
            stable += counters["stable"]
            enumerated += counters["enumerated"]
    if enumerated:
        metrics["oracle.stable_ratio"] = stable / enumerated
    if interp is not None:
        metrics["cli.interp_ms"] = interp[0]
        metrics["cli.import_ms"] = interp[1] - interp[0]
    metrics["trace.overhead_ms"] = statistics.median(traced_ms) - statistics.median(
        untraced_ms
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lexmatch, modules, import_s = import_lexmatch()
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)["workloads"][args.workload]
    workload = workloads.WORKLOADS[args.workload]
    bench = Run(workload, args.seed, lexmatch, modules, reference)

    # set-up times at reference speed, like the operation times
    before = calibrate.kernel_ms()
    import_s = calibrate.scale(import_s, before, before)
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        items = bench.set_up()
        seconds = time.perf_counter() - t0
        after = calibrate.kernel_ms()
        setups.append(calibrate.scale(seconds, before, after))
        before = after
    tracer = interp = None
    if args.trace:
        tracer = Tracer(modules)
        if not workload.in_process:
            interp = interpreter_ms(bench.env)

    loop = closed_loop(bench, items, args.seconds, tracer)
    # read before the check, which is not the program's memory
    rss_mb = peak_rss_mb(with_children=not workload.in_process)
    attempted = len(loop["results"])
    failed, improved, reasons = check_all(bench, items, loop["results"])

    print(
        f"workload {workload.name} seed {args.seed} trace {args.trace}: "
        f"{attempted} ops over {len(items)} inputs in {loop['wall_s']:.2f} s"
    )
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted}, improved {improved})")
    for reason, n in sorted(reasons.items()):
        print(f"  failed {n}x {reason}")
    notes = {}
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        tracer.write(path)
        print(f"spans written to {path.relative_to(ROOT)}")
        metrics = layer_metrics(bench, items, loop, tracer, interp)
        units = PER_LAYER
    else:
        scaled = at_reference_speed(loop)
        print(
            f"unscaled wall time: op p50 {statistics.median(loop['durations']):.6g} ms, "
            f"{attempted / sum(loop['durations']) * 1000:.6g} ops/s; calibration kernel "
            f"p50 {statistics.median(loop['kernel']):.6g} ms (reference {calibrate.REFERENCE_MS} ms)"
        )
        # the loop runs enough operations for a tail to exist
        op_tail, percentile = tail(scaled)
        notes["op_tail_ms"] = f"(p{percentile:.1f} of {attempted} samples)"
        metrics = {
            "op_p50_ms": statistics.median(scaled),
            "op_tail_ms": op_tail,
            "ops_per_s": attempted / sum(scaled) * 1000,
            "ok_frac": 1 - failed / attempted,
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": rss_mb,
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]} {notes.get(name, '')}".rstrip())
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
