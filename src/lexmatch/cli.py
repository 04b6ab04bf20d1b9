"""Command-line interface and the regime-based solve dispatcher.

Exit codes: 0 ok; 1 stdout closed before the output was written (a reader
such as `head` stopped early); 2 invalid input: an unreadable input file, or
one that does not parse, an integer over the interpreter's 4,300-digit limit
or nesting deeper than its recursion limit included; 3 NP-hard regime (no
exact solver); 4 infeasible; 5 enumeration budget exceeded: on ranked input
under --complete, refused before the walk on the exact count of block
assignments it would yield, and elsewhere once the walk has tried more
placements than the budget.
"""

from __future__ import annotations

import json
import os
import sys
from typing import TYPE_CHECKING

from .const2 import fast_const
from .errors import (
    BudgetExceededError,
    InfeasibleError,
    InvalidInputError,
    NpHardRegimeError,
)
from .fast import fast
from .fastgen import fast_gen
from .generate import CAPACITY_MODES, KINDS, GenSpec, generate
# leximin_tuple is not called here; it is kept bound for perfbench/spans.py
from .model import Instance, classify, is_stable, leximin_tuple, scaled_leximin
from .oracle import candidates, oracle_leximin
from .report import SolverReport
from .serialize import (
    _decode,
    dump_instance,
    load_instance,
    load_matching,
    matching_to_dict,
)

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NP_HARD = 3
EXIT_INFEASIBLE = 4
EXIT_BUDGET = 5

# the names solve_dispatch takes, and so `solve --algo`'s choices
_ALGORITHMS = ("auto", "fast", "fast-gen", "fast-const", "oracle")


def solve_dispatch(instance: Instance, algo: str = "auto") -> SolverReport:
    """Route an instance to the right solver.  This is the one name-to-solver
    table: `lexmatch solve` and library callers both go through it.
    `auto` picks by structure: strict with two colleges -> fast_const,
    ranked and capacitated instances included (const2 proves it exact on
    every strict m=2 input); otherwise ranked+isometric -> fast, ranked ->
    fast_gen; anything else has no known polynomial solver and raises
    NpHardRegimeError (the oracle remains available explicitly).  fast and
    fast_gen are heuristics: at m >= 3 neither is exact, on isometric input
    or not (see reference.ranked_dp for the exact optimum).  The names are
    _ALGORITHMS; each solver is called by its name in this module, which
    perfbench's tracer rebinds to time the layer."""
    if algo == "auto":
        flags = classify(instance)
        if flags.strict and instance.m == 2:
            algo = "fast-const"
        elif flags.ranked and flags.isometric:
            algo = "fast"
        elif flags.ranked:
            algo = "fast-gen"
        else:
            raise NpHardRegimeError(
                "no exact polynomial solver covers this instance class; "
                "use the oracle for small instances"
            )
    if algo == "fast":
        return fast(instance)
    if algo == "fast-gen":
        return fast_gen(instance)
    if algo == "fast-const":
        return fast_const(instance)
    if algo == "oracle":
        return oracle_leximin(instance, require_complete=True, respect_capacities=True)
    raise InvalidInputError(f"unknown algorithm {algo!r}")


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc


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
        out["blocking_pair"] = certificate._asdict()
    _emit(out)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    instance = load_instance(_read(args.instance))
    walk = candidates(instance, args.complete, args.respect_capacities, args.budget)
    results = [matching_to_dict(mu) for mu in walk if is_stable(instance, mu) is None]
    _emit({"stable_matchings": results, "count": len(results)})
    return EXIT_OK


def _cmd_fairness(args) -> int:
    from .fairness import fairness_report  # off the solve path's imports

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
    from .reductions import ReductionSpec  # off the solve path's imports

    data = _decode(_read(args.input))
    kind = _REDUCTION_KINDS[getattr(args, "from")]
    if args.replicate != 1:
        # only the bin-packing encoding has copies to replicate
        if kind != "bin_packing":
            raise InvalidInputError("--replicate applies only to --from bin-packing")
        if isinstance(data, dict):  # build refuses any other data
            data = dict(data, replicate=args.replicate)
    spec = ReductionSpec(kind=kind, data=data)
    print(dump_instance(spec.build()))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # imported here so that `import lexmatch` does not load argparse
    import argparse

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
        choices=_ALGORITHMS,
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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped early; as the Python docs advise, send what is
        # left of stdout to devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except NpHardRegimeError as exc:
        print(f"error: NP_HARD_REGIME: {exc}", file=sys.stderr)
        return EXIT_NP_HARD
    except InfeasibleError as exc:
        print(f"error: INFEASIBLE: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except BudgetExceededError as exc:
        print(f"error: BUDGET_EXCEEDED: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InvalidInputError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
