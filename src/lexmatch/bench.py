"""Benchmark harness.  Step counters (not wall time) back the scaling
assertions; wall time is recorded for reference only."""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass

from . import cli
from .errors import InvalidInputError
from .generate import GenSpec, generate

FIELDS = ("algorithm", "n", "m", "seed", "wall_time", "steps", "peak_candidates")

_KIND_FOR = {
    "fast": "ranked_isometric",
    "fast_gen": "ranked",
    "fast_const": "strict",
    "oracle": "ranked",
}


@dataclass(frozen=True)
class BenchRecord:
    algorithm: str
    n: int
    m: int
    seed: int
    wall_time: float
    steps: int
    peak_candidates: int


def bench_one(algorithm: str, n: int, m: int, seed: int = 0) -> BenchRecord:
    kind = _KIND_FOR.get(algorithm)
    if kind is None:
        raise InvalidInputError(f"unknown benchmark algorithm {algorithm!r}")
    if algorithm == "fast_const" and m != 2:
        raise InvalidInputError("fast_const benchmarks need m = 2")
    instance = generate(GenSpec(kind=kind, n=n, m=m, seed=seed))
    t0 = time.perf_counter()
    report = cli.solve_dispatch(instance, algorithm)
    wall = time.perf_counter() - t0
    counters = report.counters
    peak = counters.get("enumerated", counters.get("tuple_comparisons", 0))
    return BenchRecord(
        algorithm=algorithm,
        n=n,
        m=m,
        seed=seed,
        wall_time=wall,
        steps=report.steps,
        peak_candidates=peak,
    )


def bench(algorithms, sizes, repeats: int = 1, seed: int = 0) -> list:
    """Run each algorithm on each (n, m) size for `repeats` seeds.  Records
    come back sorted by (algorithm, n, m, seed) regardless of run order."""
    records = []
    for algorithm in algorithms:
        for n, m in sizes:
            for r in range(repeats):
                records.append(bench_one(algorithm, n, m, seed=seed + r))
    records.sort(key=lambda rec: (rec.algorithm, rec.n, rec.m, rec.seed))
    return records


def records_to_csv(records) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(FIELDS)
    for rec in records:
        writer.writerow([getattr(rec, f) for f in FIELDS])
    return out.getvalue()
