"""Leximin-optimal stable many-to-one matchings under cardinal valuations."""

from .cli import main, solve_dispatch
from .const2 import fast_const, is_stable_m2
from .errors import (
    BudgetExceededError,
    FrozenInstanceError,
    InfeasibleError,
    InvalidInputError,
    LexmatchError,
    NotAdmissibleError,
    NpHardRegimeError,
)
from .fast import cap_fast, fast, fast_admissible
from .fastgen import cap_fast_gen, fast_gen
from .generate import GenSpec, generate
from .model import (
    EQUAL,
    GREATER,
    LESS,
    BlockingPair,
    ClassificationFlags,
    Instance,
    LeximinTuple,
    Matching,
    Value,
    as_value,
    check_alpha_approx,
    classify,
    college_value,
    is_stable,
    leximin_compare,
    leximin_tuple,
    student_value,
    value_to_str,
)
from .oracle import oracle_leximin
from .ranked import (
    BoundaryVector,
    boundary_from_matching,
    matching_from_boundary,
)
from .report import SolverReport
from .serialize import (
    dump_instance,
    dump_matching,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_matching,
    matching_from_dict,
    matching_to_dict,
)

__version__ = "0.1.0"

# Loaded on first use (PEP 562), so that a `lexmatch solve` process does not
# compile modules it never runs.  generate stays eager: the submodule
# lexmatch.generate would otherwise replace the function of that name.
_LAZY = {
    "FairnessReport": "fairness",
    "ef1_check": "fairness",
    "efx_check": "fairness",
    "envy_totals": "fairness",
    "fairness_report": "fairness",
    "welfare": "fairness",
    "ReductionSpec": "reductions",
    "bin_packing_to_smo": "reductions",
    "partition_to_smo": "reductions",
    "subset_sum_to_smo": "reductions",
    "three_partition_to_smo": "reductions",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


__all__ = [
    "BlockingPair",
    "BoundaryVector",
    "BudgetExceededError",
    "ClassificationFlags",
    "EQUAL",
    "FairnessReport",
    "FrozenInstanceError",
    "GREATER",
    "GenSpec",
    "InfeasibleError",
    "Instance",
    "InvalidInputError",
    "LESS",
    "LexmatchError",
    "LeximinTuple",
    "Matching",
    "NotAdmissibleError",
    "NpHardRegimeError",
    "ReductionSpec",
    "SolverReport",
    "Value",
    "as_value",
    "bin_packing_to_smo",
    "boundary_from_matching",
    "cap_fast",
    "cap_fast_gen",
    "check_alpha_approx",
    "classify",
    "college_value",
    "dump_instance",
    "dump_matching",
    "ef1_check",
    "efx_check",
    "envy_totals",
    "fairness_report",
    "fast",
    "fast_admissible",
    "fast_const",
    "fast_gen",
    "generate",
    "instance_from_dict",
    "instance_to_dict",
    "is_stable",
    "is_stable_m2",
    "leximin_compare",
    "leximin_tuple",
    "load_instance",
    "load_matching",
    "main",
    "matching_from_boundary",
    "matching_from_dict",
    "matching_to_dict",
    "oracle_leximin",
    "partition_to_smo",
    "solve_dispatch",
    "student_value",
    "subset_sum_to_smo",
    "three_partition_to_smo",
    "value_to_str",
    "welfare",
]
