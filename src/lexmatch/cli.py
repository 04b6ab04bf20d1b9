"""Command-line interface and the regime-based solve dispatcher.

Exit codes: 0 ok; 2 invalid input; 3 NP-hard regime (no exact solver);
4 infeasible; 5 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .const2 import fast_const
from .errors import (
    BudgetExceededError,
    InfeasibleError,
    InvalidInputError,
    NpHardRegimeError,
)
from .fairness import fairness_report
from .fast import fast
from .fastgen import fast_gen
from .generate import CAPACITY_MODES, KINDS, GenSpec, generate
# leximin_tuple is not called here; it is kept bound for perfbench/spans.py
from .model import Instance, classify, is_stable, leximin_tuple, scaled_leximin
from .oracle import candidate_count, candidates, oracle_leximin
from .reductions import ReductionSpec
from .report import SolverReport
from .serialize import (
    dump_instance,
    load_instance,
    load_matching,
    matching_to_dict,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NP_HARD = 3
EXIT_INFEASIBLE = 4
EXIT_BUDGET = 5


def solve_dispatch(instance: Instance, algo: str = "auto") -> SolverReport:
    """Route an instance to the right solver.  This is the one name-to-solver
    table: `lexmatch solve` and library callers both go through it.
    `auto` picks by structure: ranked+isometric -> fast, ranked -> fast_gen,
    strict with two colleges -> fast_const; anything else has no known
    polynomial solver and raises NpHardRegimeError (the oracle remains
    available explicitly)."""
    if algo == "auto":
        flags = classify(instance)
        if flags.ranked and flags.isometric:
            algo = "fast"
        elif flags.ranked:
            algo = "fast-gen"
        elif flags.strict and instance.m == 2 and all(
            b >= instance.n - 1 for b in instance.capacities
        ):
            algo = "fast-const"
        else:
            raise NpHardRegimeError(
                "no exact polynomial solver covers this instance class; "
                "use the oracle for small instances"
            )
    if algo == "fast":
        return fast(instance)
    if algo in ("fast-gen", "fast_gen"):
        return fast_gen(instance)
    if algo in ("fast-const", "fast_const"):
        return fast_const(instance)
    if algo == "oracle":
        return oracle_leximin(instance, require_complete=True, respect_capacities=True)
    raise InvalidInputError(f"unknown algorithm {algo!r}")


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(data) -> None:
    print(json.dumps(data, indent=2))


def _cmd_solve(args) -> int:
    instance = load_instance(_read(args.instance))
    report = solve_dispatch(instance, algo=args.algo)
    _emit(report.to_json_dict())
    return EXIT_OK


def _cmd_verify(args) -> int:
    instance = load_instance(_read(args.instance))
    matching = load_matching(_read(args.matching))
    certificate = is_stable(instance, matching)
    out = {
        "stable": certificate is None,
        "leximin": scaled_leximin(instance, matching).wire(),
    }
    if certificate is not None:
        out["blocking_pair"] = {
            "student": certificate.student,
            "college": certificate.college,
            "displaced_student": certificate.displaced_student,
        }
    _emit(out)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    instance = load_instance(_read(args.instance))
    # the ranked walk is pruned by --complete/--respect-capacities, so only
    # the general assignment space is refused before it starts
    total = candidate_count(instance, args.complete)
    if not classify(instance).ranked and total > args.budget:
        raise BudgetExceededError(f"{total} candidates exceed the budget of {args.budget}")
    results = []
    walk = candidates(instance, args.complete, args.respect_capacities)
    for count, mu in enumerate(walk, start=1):
        if count > args.budget:
            raise BudgetExceededError(
                f"candidate count exceeds the budget of {args.budget}"
            )
        if is_stable(instance, mu) is None:
            results.append(matching_to_dict(mu))
    _emit({"stable_matchings": results, "count": len(results)})
    return EXIT_OK


def _cmd_fairness(args) -> int:
    instance = load_instance(_read(args.instance))
    matching = load_matching(_read(args.matching))
    _emit(fairness_report(instance, matching).to_json_dict())
    return EXIT_OK


def _cmd_gen(args) -> int:
    spec = GenSpec(
        kind=args.kind,
        n=args.n,
        m=args.m,
        seed=args.seed,
        capacity_mode=args.capacity_mode,
        capacity=args.capacity,
        value_max=args.value_max,
    )
    print(dump_instance(generate(spec)))
    return EXIT_OK


_REDUCTION_KINDS = {
    "subset-sum": "subset_sum",
    "partition": "balanced_partition",
    "3partition": "three_partition",
    "bin-packing": "bin_packing",
}


def _cmd_reduce(args) -> int:
    try:
        data = json.loads(_read(args.input))
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"bad JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInputError("reduction input must be a JSON object")
    if args.replicate != 1:
        data = dict(data, replicate=args.replicate)
    spec = ReductionSpec(kind=_REDUCTION_KINDS[getattr(args, "from")], data=data)
    print(dump_instance(spec.build()))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexmatch",
        description="Leximin-optimal stable many-to-one matchings under "
        "cardinal valuations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance")
    p.add_argument("--instance", required=True, help="instance JSON file or -")
    p.add_argument(
        "--algo",
        default="auto",
        choices=["auto", "fast", "fast-gen", "fast-const", "oracle"],
    )
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check stability of a given matching")
    p.add_argument("--instance", required=True)
    p.add_argument("--matching", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("enumerate", help="list stable matchings")
    p.add_argument("--instance", required=True)
    p.add_argument("--complete", action="store_true")
    p.add_argument("--respect-capacities", action="store_true")
    p.add_argument("--budget", type=int, default=10**6)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("fairness", help="envy/EF1/EFX/welfare report")
    p.add_argument("--instance", required=True)
    p.add_argument("--matching", required=True)
    p.set_defaults(func=_cmd_fairness)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--kind", required=True, choices=list(KINDS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--capacity-mode", default="none", choices=list(CAPACITY_MODES))
    p.add_argument("--capacity", type=int, default=None)
    p.add_argument("--value-max", type=int, default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("reduce", help="build an instance from an NP-hard problem")
    p.add_argument("--from", required=True, choices=sorted(_REDUCTION_KINDS))
    p.add_argument("--input", required=True, help="problem JSON file or -")
    p.add_argument("--replicate", type=int, default=1)
    p.set_defaults(func=_cmd_reduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NpHardRegimeError as exc:
        print(f"error: NP_HARD_REGIME: {exc}", file=sys.stderr)
        return EXIT_NP_HARD
    except InfeasibleError as exc:
        print(f"error: INFEASIBLE: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except BudgetExceededError as exc:
        print(f"error: BUDGET_EXCEEDED: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InvalidInputError, OSError, KeyError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
