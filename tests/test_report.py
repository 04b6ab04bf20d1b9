"""SolverReport keeps its leximin tuple as scaled kernel ints: the JSON
strings are rendered from the ints, and the Fraction tuple is built only
when ``report.leximin`` is read.  Both must agree with the Fraction
definition (``leximin_tuple``) for every solver, at scale 1 and above."""

from fractions import Fraction

from lexmatch import (
    GenSpec,
    Instance,
    LexmatchError,
    cap_fast,
    cap_fast_gen,
    dump_instance,
    fast,
    fast_const,
    fast_gen,
    generate,
    leximin_tuple,
    load_instance,
    oracle_leximin,
    solve_dispatch,
    value_to_str,
)
from lexmatch.generate import KINDS

SOLVERS = (
    fast,
    cap_fast,
    fast_gen,
    cap_fast_gen,
    fast_const,
    lambda inst: oracle_leximin(inst, require_complete=True, respect_capacities=True),
)


def _sweep():
    """generate instances of every kind, default and tie-heavy values,
    capacity modes none and random, each followed by its image with student
    rows divided by 6 and college rows by 35 (scale 70, 105 or 210)."""
    for kind in KINDS:
        for n, m in ((3, 2), (5, 2), (6, 3)):
            tight = n * m if kind == "ranked_isometric" else max(n, m)
            for value_max in (None, tight + 3):
                for capacity_mode in ("none", "random"):
                    for seed in range(3):
                        inst = generate(GenSpec(kind, n, m, seed, capacity_mode, None, value_max))
                        yield inst
                        yield Instance.build(
                            [[x / 6 for x in row] for row in inst.student_values],
                            [[x / 35 for x in row] for row in inst.college_values],
                            inst.capacities,
                        )


def test_wire_strings_and_tuple_match_the_fraction_definition():
    solved = {}
    scales = set()
    for inst in _sweep():
        scales.add(inst._kernel[0])
        for solve in SOLVERS:
            try:
                report = solve(inst)
            except LexmatchError:  # not admissible, infeasible or over budget
                continue
            solved[report.algorithm] = solved.get(report.algorithm, 0) + 1
            # emit first, so the strings cannot come from a built tuple
            wire = report.to_json_dict()["leximin"]
            assert all(type(v) is Fraction for v in report.leximin.values)
            assert wire == [value_to_str(v) for v in report.leximin.values]
            assert report.leximin == leximin_tuple(inst, report.matching)
    assert set(solved) == {"fast", "cap_fast", "fast_gen", "cap_fast_gen", "fast_const", "oracle"}
    assert min(solved.values()) >= 10, solved
    assert scales > {1}


def test_solve_and_emit_build_no_fraction_until_the_tuple_is_read(monkeypatch):
    # an int instance of the iso_large kind: JSON ints, ranked isometric
    inst = load_instance(dump_instance(generate(GenSpec("ranked_isometric", 400, 6, seed=3))))
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    report = solve_dispatch(inst)
    data = report.to_json_dict()
    assert report.algorithm == "fast"
    assert built == []
    assert data["leximin"] == [str(v) for v in report.leximin.values]
    assert len(built) >= inst.n + inst.m


def test_is_not_equal_to_another_type(ref_instance):
    report = solve_dispatch(ref_instance)
    assert report.__eq__(5) is NotImplemented
    assert (report == 5) is False and report != 5
