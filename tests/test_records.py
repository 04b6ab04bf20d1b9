"""The record types keep the contract they had as dataclasses: the same
repr, equality and hash by value, frozen fields, the same defaults and the
BoundaryVector refusal.  The frozen records are NamedTuples, so they also
unpack and compare equal to plain tuples of their fields."""

from fractions import Fraction

import pytest

import lexmatch.errors
from lexmatch import (
    BlockingPair,
    BoundaryVector,
    FrozenInstanceError,
    GenSpec,
    Instance,
    InvalidInputError,
    LeximinTuple,
    Matching,
    OracleBudget,
    ReductionSpec,
    SolverReport,
    classify,
    fairness_report,
    is_stable,
    solve_dispatch,
)
from lexmatch.fastgen import FixSets

REF_LEXIMIN = (
    "LeximinTuple(values=(Fraction(3, 1), Fraction(4, 1), Fraction(9, 1), "
    "Fraction(16, 1), Fraction(100, 1), Fraction(100, 1)), agent_at=(('s', 3), "
    "('s', 2), ('s', 1), ('c', 1), ('s', 0), ('c', 0)))"
)


def _records(ref_instance):
    """(record, repr text of the dataclass version) for each frozen record."""
    optimum = solve_dispatch(ref_instance).matching
    return [
        (
            classify(ref_instance),
            "ClassificationFlags(strict_students=True, strict_colleges=True, "
            "strict=True, ranked=True, weakly_ranked=True, isometric=True)",
        ),
        (
            is_stable(ref_instance, Matching([1, 0, 1, 1])),
            "BlockingPair(student=0, college=0, displaced_student=1)",
        ),
        (solve_dispatch(ref_instance).leximin, REF_LEXIMIN),
        (OracleBudget(), "OracleBudget(max_enumerated=10000000)"),
        (
            GenSpec("ranked", 5, 2),
            "GenSpec(kind='ranked', n=5, m=2, seed=0, capacity_mode='none', "
            "capacity=None, value_max=None)",
        ),
        (
            fairness_report(ref_instance, optimum),
            "FairnessReport(e_s=Fraction(122, 1), e_c=Fraction(38, 1), "
            "e_total=Fraction(160, 1), ef1_colleges=True, efx_colleges=False, "
            "egalitarian=Fraction(3, 1), nash=Fraction(17280000, 1), "
            "utilitarian=Fraction(232, 1))",
        ),
        (
            ReductionSpec("subset_sum", {"integers": [1, 2], "target": 3}),
            "ReductionSpec(kind='subset_sum', data={'integers': [1, 2], 'target': 3})",
        ),
        (BoundaryVector((1, 3)), "BoundaryVector(k=(1, 3))"),
    ]


def test_frozen_records_keep_repr_equality_hash_and_frozen_fields(ref_instance):
    for record, text in _records(ref_instance):
        assert repr(record) == text
        fields = record._fields
        copy = type(record)(**{name: getattr(record, name) for name in fields})
        assert copy == record and not copy != record
        assert type(record)(*record) == record
        # a dataclass hashed the tuple of its fields; ReductionSpec holds a
        # dict, so it was and is unhashable
        if isinstance(record, ReductionSpec):
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(copy) == hash(tuple(record))
        for name in (*fields, "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, fields[0])


def test_frozen_records_unpack_and_equal_plain_tuples():
    student, college, displaced = BlockingPair(student=2, college=1, displaced_student=0)
    assert (student, college, displaced) == (2, 1, 0)
    assert BlockingPair(2, 1, 0) == (2, 1, 0)
    assert LeximinTuple(values=(1,), agent_at=(("s", 0),)) != LeximinTuple((2,), (("s", 0),))


def test_defaults():
    assert OracleBudget().max_enumerated == 10**7
    spec = GenSpec(kind="strict", n=4, m=2)
    assert (spec.seed, spec.capacity_mode, spec.capacity, spec.value_max) == (
        0,
        "none",
        None,
        None,
    )
    assert GenSpec("strict", 4, 2, 7, "uniform", 2, 9) == GenSpec(
        kind="strict", n=4, m=2, seed=7, capacity_mode="uniform", capacity=2, value_max=9
    )


@pytest.mark.parametrize(
    "k, message",
    [
        ((1, -1), "boundary vector parts must be ints >= 0: (1, -1)"),
        ((2, 1.0), "boundary vector parts must be ints >= 0: (2, 1.0)"),
        (("1",), "boundary vector parts must be ints >= 0: ('1',)"),
    ],
)
def test_boundary_vector_refusal(k, message):
    with pytest.raises(InvalidInputError) as info:
        BoundaryVector(k)
    assert str(info.value) == message
    with pytest.raises(InvalidInputError):
        BoundaryVector(k=k)
    with pytest.raises(InvalidInputError):
        BoundaryVector((1, 2))._replace(k=k)


def test_solver_report_fields_repr_equality_and_json(ref_instance):
    solved = solve_dispatch(ref_instance)
    report = SolverReport(
        algorithm="fast",
        matching=Matching([0, 1, 1, 1]),
        leximin=solved.leximin,
        steps=5,
        counters={"iterations": 3, "chain_moves": 2, "tuple_comparisons": 0},
    )
    assert report == solved and not report != solved
    assert repr(report) == (
        "SolverReport(algorithm='fast', matching=Matching([0, 1, 1, 1]), "
        f"leximin={REF_LEXIMIN}, steps=5, "
        "counters={'iterations': 3, 'chain_moves': 2, 'tuple_comparisons': 0})"
    )
    assert report.to_json_dict() == {
        "algorithm": "fast",
        "steps": 5,
        "counters": {"iterations": 3, "chain_moves": 2, "tuple_comparisons": 0},
        "matching": {"assignment": [0, 1, 1, 1]},
        "leximin": ["3", "4", "9", "16", "100", "100"],
    }
    with pytest.raises(TypeError):
        hash(report)
    # mutable, as it was
    report.steps = 6
    assert report != solved
    report.steps = 5
    halves = LeximinTuple((Fraction(1, 2), Fraction(2)), (("s", 0), ("c", 0)))
    report.leximin = halves
    assert report.leximin is halves and report != solved
    assert report.to_json_dict()["leximin"] == ["1/2", "2"]
    report.leximin = solved.leximin
    assert report == solved
    bare = SolverReport("oracle", Matching([0]), LeximinTuple((Fraction(1),), (("s", 0),)), 1)
    assert bare.counters == {} and bare.to_json_dict()["counters"] == {}
    assert SolverReport("oracle", Matching([0]), bare.leximin, 1).counters is not bare.counters


def test_fix_sets_defaults_repr_and_equality():
    fixes = FixSets()
    assert repr(fixes) == "FixSets(upper_fix=set(), lower_fix=set(), soft_fix=set())"
    assert FixSets().upper_fix is not fixes.upper_fix
    given = FixSets(upper_fix={0}, lower_fix={1})
    assert repr(given) == "FixSets(upper_fix={0}, lower_fix={1}, soft_fix=set())"
    assert given == FixSets({0}, {1}, set()) and given != fixes
    with pytest.raises(TypeError):
        hash(given)


def test_frozen_instance_error_lives_in_errors():
    assert lexmatch.errors.FrozenInstanceError is FrozenInstanceError
    assert issubclass(FrozenInstanceError, AttributeError)
    inst = Instance.build([[2, 1]], [[2], [1]])
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'capacities'"):
        inst.capacities = (1, 1)
    with pytest.raises(FrozenInstanceError, match="cannot delete field '_kernel'"):
        del inst._kernel
