import gc
import itertools
import json
import math
import random
import re
import shlex
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import lexmatch.cli
import lexmatch.model
from lexmatch import (
    GenSpec,
    Instance,
    InvalidInputError,
    Matching,
    InfeasibleError,
    NpHardRegimeError,
    classify,
    generate,
    is_stable,
    solve_dispatch,
)
from lexmatch.cli import _ALGORITHMS, build_parser, main
from lexmatch.generate import KINDS
from lexmatch.serialize import (
    dump_instance,
    dump_matching,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_matching,
)

from conftest import random_instances


class TestGenerate:
    @pytest.mark.parametrize(
        "kind,check",
        [
            ("ranked_isometric", lambda f: f.ranked and f.isometric and f.strict),
            ("ranked", lambda f: f.ranked),
            ("strict", lambda f: f.strict and not f.ranked),
            ("weak", lambda f: not f.strict),
            (
                "weak_ranked_isometric",
                lambda f: f.weakly_ranked and f.isometric and not f.strict,
            ),
        ],
    )
    def test_kinds_have_their_flags(self, kind, check):
        for seed in range(5):
            inst = generate(GenSpec(kind=kind, n=6, m=3, seed=seed))
            assert check(classify(inst)), (kind, seed)

    def test_unknown_capacity_mode_is_refused(self):
        with pytest.raises(InvalidInputError, match="unknown capacity mode 'tight'"):
            generate(GenSpec("ranked", 4, 2, capacity_mode="tight"))

    def test_deterministic_per_spec(self):
        spec = GenSpec(kind="ranked", n=7, m=3, seed=42)
        assert generate(spec) == generate(spec)

    def test_seed_changes_output(self):
        a = generate(GenSpec(kind="ranked", n=7, m=3, seed=0))
        b = generate(GenSpec(kind="ranked", n=7, m=3, seed=1))
        assert a != b

    def test_value_max_respected(self):
        inst = generate(GenSpec(kind="ranked_isometric", n=2, m=2, value_max=4))
        assert all(1 <= x <= 4 for row in inst.student_values for x in row)

    def test_uniform_capacities(self):
        inst = generate(
            GenSpec(kind="ranked", n=6, m=3, capacity_mode="uniform", capacity=3)
        )
        assert inst.capacities == (3, 3, 3)

    def test_random_capacities_feasible(self):
        for seed in range(10):
            inst = generate(
                GenSpec(kind="ranked", n=6, m=3, seed=seed, capacity_mode="random")
            )
            assert sum(inst.capacities) >= inst.n
            assert all(1 <= b <= inst.n for b in inst.capacities)

    @pytest.mark.parametrize(
        "spec",
        [
            GenSpec(kind="lattice", n=3, m=2),
            GenSpec(kind="ranked", n=2, m=3),
            GenSpec(kind="strict", n=1, m=1),
            GenSpec(kind="ranked", n=4, m=2, capacity_mode="uniform"),
            GenSpec(kind="ranked", n=4, m=2, capacity_mode="uniform", capacity=1),
            GenSpec(kind="ranked_isometric", n=4, m=4, value_max=10),
        ],
    )
    def test_impossible_specs_rejected(self, spec):
        with pytest.raises(InvalidInputError):
            generate(spec)

    @pytest.mark.parametrize("value", ["5", 5.0, True, False, Fraction(5)])
    @pytest.mark.parametrize("field", ["n", "m", "capacity", "value_max"])
    def test_fields_that_are_not_plain_ints_are_refused(self, field, value):
        spec = GenSpec("ranked", 5, 2, capacity_mode="uniform", capacity=3)
        message = re.escape(f"{field} must be an int, got {value!r}")
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            generate(spec._replace(**{field: value}))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("value_max", [0, -5])
    def test_value_max_below_one_is_invalid_input(self, capsys, kind, value_max):
        message = f"value_max must be at least 1, got {value_max}$"
        with pytest.raises(InvalidInputError, match=message):
            generate(GenSpec(kind=kind, n=3, m=2, value_max=value_max))
        args = ["gen", "--kind", kind, "--n", "3", "--m", "2", "--value-max", str(value_max)]
        assert main(args) == 2
        assert "invalid input: value_max must be at least 1" in capsys.readouterr().err


class TestSerialize:
    def test_instance_round_trip_bit_exact(self):
        inst = Instance.build(
            [["1/3", 2], ["7/2", "1/6"]],
            [[5, "2/7"], ["9/4", 1]],
            capacities=[1, 2],
        )
        assert load_instance(dump_instance(inst)) == inst

    def test_random_round_trips(self):
        for inst in random_instances("weak", seed=91, count=10, n_max=6, m_max=3, n_min=2):
            assert load_instance(dump_instance(inst)) == inst

    def test_integers_emitted_plain(self):
        inst = Instance.build([[2], [1]], [[4, 3]])
        data = instance_to_dict(inst)
        assert data["student_values"] == [[2], [1]]
        assert data["capacities"] == [2]
        dump_instance(inst)
        assert "student_values" not in vars(inst)
        assert "college_values" not in vars(inst)

    def test_integer_values_stay_ints_beside_fractions(self):
        inst = Instance.build([["1/2", 3]], [["3/2"], [Fraction(8, 4)]])
        assert inst._kernel[0] == 2
        data = instance_to_dict(inst)
        assert data["student_values"] == [["1/2", 3]]
        assert data["college_values"] == [["3/2"], [2]]

    def test_default_capacities_applied_when_omitted(self):
        inst = instance_from_dict(
            {"student_values": [[2], [1]], "college_values": [[4, 3]]}
        )
        # a single college must be able to hold everyone
        assert inst.capacities == (2,)

    def test_matching_round_trip_with_unmatched(self):
        mu = Matching([0, None, 1])
        assert load_matching(dump_matching(mu)) == mu

    @pytest.mark.parametrize(
        "payload",
        [
            "not json",
            '{"college_values": [[1]]}',
            '{"student_values": [[1.5]], "college_values": [[1]]}',
            '{"student_values": [[true]], "college_values": [[1]]}',
            '{"student_values": [["x"]], "college_values": [[1]]}',
            '{"student_values": [[-1]], "college_values": [[1]]}',
            '{"student_values": [["1/0"]], "college_values": [[1]]}',
            '{"student_values": [[null]], "college_values": [[1]]}',
            '{"student_values": [[[1]]], "college_values": [[1]]}',
            '{"student_values": [1], "college_values": [[1]]}',
            '{"student_values": 1, "college_values": [[1]]}',
            # strings are iterable, so these once parsed digit by digit
            '{"student_values": ["21", "43"], "college_values": [[2, 1], [4, 3]]}',
            '{"student_values": [[2, 1], [4, 3]], "college_values": ["21", "43"]}',
            '{"student_values": "2143", "college_values": [[2, 1], [4, 3]]}',
            '{"student_values": [[2, 1], [4, 3]], "college_values": [[2, 1], [4, 3]], '
            '"capacities": ["a", 2]}',
            '{"student_values": [[2, 1], [4, 3]], "college_values": [[2, 1], [4, 3]], '
            '"capacities": 5}',
            '{"student_values": [[2, 1], [4, 3]], "college_values": [[2, 1], [4, 3]], '
            '"capacities": [null, 2]}',
            '{"student_values": [[2, 1], [4, 3]], "college_values": [[2, 1], [4, 3]], '
            '"capacities": [1.5, 2]}',
            '{"student_values": [[2, 1], [4, 3]], "college_values": [[2, 1], [4, 3]], '
            '"capacities": [true, 2]}',
        ],
    )
    def test_bad_instance_payloads(self, payload):
        with pytest.raises(InvalidInputError):
            load_instance(payload)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("capacities", 2),
            ("capacities", "22"),
            ("capacities", {"0": 2, "1": 2}),
            ("student_values", [{"0": 2, "1": 1}, {"0": 4, "1": 3}]),
            ("student_values", [[[2], [1]], [[4], [3]]]),
            ("student_values", [None, None]),
            ("college_values", [{"0": 2, "1": 1}, {"0": 4, "1": 3}]),
            ("college_values", [[[2], [1]], [[4], [3]]]),
            ("college_values", [None, None]),
        ],
    )
    def test_odd_shapes_are_refused_by_the_instance_itself(self, field, value):
        # Instance raises InvalidInputError on each, so no TypeError reaches
        # instance_from_dict
        data = {"student_values": [[2, 1], [4, 3]], "college_values": [[2, 1], [4, 3]]}
        with pytest.raises(InvalidInputError):
            instance_from_dict(dict(data, **{field: value}))

    @pytest.mark.parametrize(
        "payload",
        [
            "[]",
            '{"assignment": [0, 1.5]}',
            '{"assignment": [true]}',
            '{"assignment": 5}',
            # a string is iterable: unchecked, it would read character by character
            '{"assignment": "01"}',
        ],
    )
    def test_bad_matching_payloads(self, payload):
        with pytest.raises(InvalidInputError):
            load_matching(payload)


def _compact(data) -> str:
    return json.dumps(data, separators=(",", ":"))


def _loads_or_refuses(text) -> None:
    """Load `text`; a refusal must be an InvalidInputError, never another
    exception."""
    try:
        load_instance(text)
    except InvalidInputError:
        pass


class TestLoadInstance:
    """load_instance decodes a text whole and builds its instance with the
    garbage collector paused."""

    def _matrices(self, rng, n, m, hi=9):
        sv = [[rng.randint(0, hi) for _ in range(m)] for _ in range(n)]
        cv = [[rng.randint(0, hi) for _ in range(n)] for _ in range(m)]
        return {"student_values": sv, "college_values": cv}

    @pytest.mark.parametrize("capacities", ["absent", "n", "null"])
    def test_a_compact_text_loads_as_built(self, capacities):
        rng = random.Random(1)
        for n, m in ((1, 1), (1, 3), (2, 1), (7, 2), (300, 4), (1100, 2)):
            data = self._matrices(rng, n, m)
            extra = {"absent": {}, "n": {"capacities": [n] * m}, "null": {"capacities": None}}[
                capacities
            ]
            text = _compact(dict(data, **extra))
            built = Instance.build(*data.values(), capacities=extra.get("capacities"))
            assert load_instance(text) == built

    def test_ranked_isometric_kernel_is_shared(self):
        n, m = 1000, 4
        sv = [[4 * (n - i) - j for j in range(m)] for i in range(n)]
        text = _compact({"student_values": sv, "college_values": [list(c) for c in zip(*sv)]})
        inst = load_instance(text)
        assert inst._flags.ranked and inst._flags.isometric
        assert inst._kernel[1] is inst._kernel[2]

    def test_rational_values_go_through_the_constructor(self):
        text = _compact(
            {
                "student_values": [["1/2", 3], [2, "7/3"], [1, 0]],
                "college_values": [[5, "2/9", 1], [1, 1, "3/4"]],
                "capacities": [2, 2],
            }
        )
        assert load_instance(text) == Instance.build(*json.loads(text).values())

    def test_an_indented_text_is_decoded_whole(self, ref_instance):
        text = dump_instance(ref_instance)
        assert load_instance(text) == ref_instance
        assert load_instance(text.encode()) == ref_instance

    @pytest.mark.parametrize(
        "text",
        [
            # a later key of the same name wins, NaN and all
            '{"student_values":[[1],[2]],"college_values":[[1,2]],"student_values":NaN}',
            '{"student_values":[[1],[2]],"college_values":[[1,2]],"student_values":[[3]]}',
            '{"student_values":[[1],[2]],"college_values":[[1,2]],"capacities":[NaN]}',
            '{"student_values":[[NaN],[2]],"college_values":[[1,2]]}',
            # the first "]]" or a "],[" inside a string
            '{"student_values":[[1],["]],["]],"college_values":[[1,2]]}',
            '{"student_values":[[1],[2]],"college_values":[[1,2]],"x":"]],["}',
            '{"student_values":[[1],[2]],"college_values":[["]]",2]]}',
            # shapes
            '{"student_values":[[1],[2,3]],"college_values":[[1,2]]}',
            '{"student_values":[[1],[2]],"college_values":[[1,2,3]]}',
            '{"student_values":[[1],[2]],"college_values":[[1,2],[3]]}',
            '{"student_values":[[1],[2]],"college_values":[]}',
            '{"student_values":[[]],"college_values":[[]]}',
            '{"student_values":[[1],[[2]]],"college_values":[[1,2]]}',
            '{"student_values":[[1],{"a":2}],"college_values":[[1,2]]}',
            '{"student_values":[[1],[2]]}',
            # values and capacities
            '{"student_values":[[1],[-2]],"college_values":[[1,2]]}',
            '{"student_values":[[1],[true]],"college_values":[[1,2]]}',
            '{"student_values":[[1],[2.5]],"college_values":[[1,2]]}',
            '{"student_values":[[1],["x"]],"college_values":[[1,2]]}',
            '{"student_values":[[1],[2]],"college_values":[[1,2]],"capacities":[3]}',
            '{"student_values":[[1],[2]],"college_values":[[1,2]],"capacities":[Infinity]}',
            '{"student_values":[[1],[2]],"college_values":[[1,2]],"capacities":{"0":1}}',
            # not JSON
            '{"student_values":[[1],[02]],"college_values":[[1,2]]}',
            '{"student_values":[[1],[2]],"college_values":[[1,2]]}x',
            '{"student_values":[[1],[2],],"college_values":[[1,2]]}',
            '{"student_values":[[1],[2]]],"college_values":[[1,2]]}',
            '{"student_values":[[1],[2]],"college_values":[[1,2]]',
        ],
    )
    def test_odd_texts_load_or_are_refused(self, text):
        _loads_or_refuses(text)

    def test_mutated_texts_load_or_are_refused(self):
        rng = random.Random(7)
        texts = []
        for _ in range(20):
            n, m = rng.randint(3, 12), rng.randint(1, 3)
            data = self._matrices(rng, n, m)
            if rng.random() < 0.3:
                data["capacities"] = [rng.randint(0, n + 1) for _ in range(m)]
            texts.append(_compact(data))
        pieces = list("[],0123456789") + ["],[", "]]", "[[", "NaN", '"3/2"', "true", '"a":']
        for _ in range(3000):
            text = rng.choice(texts)
            for _ in range(rng.randint(1, 2)):
                at = rng.randrange(len(text) + 1)
                if rng.random() < 0.5:
                    text = text[:at] + rng.choice(pieces) + text[at:]
                else:
                    text = text[:at] + text[at + 1 :]
            _loads_or_refuses(text)

    def test_a_load_sets_off_no_young_collections(self):
        # with the collector running, the 5,000 row lists of a whole decode
        # set off 7 young collections at the default threshold of 700
        n = 5000
        sv = [[2 * (n - i) + 1, 2 * (n - i)] for i in range(n)]
        data = {"student_values": sv, "college_values": [list(c) for c in zip(*sv)]}
        thresholds = gc.get_threshold()
        try:
            for text in (_compact(data), dump_instance(instance_from_dict(data))):
                gc.collect()
                gc.set_threshold(700)
                before = gc.get_stats()[0]["collections"]
                inst = load_instance(text)
                collections = gc.get_stats()[0]["collections"] - before
                gc.set_threshold(*thresholds)
                assert inst.n == n and inst._flags.ranked
                assert collections == 0
        finally:
            gc.set_threshold(*thresholds)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_collectors_state_is_restored(self, enabled):
        data = {"student_values": [[2, 1], [4, 3]], "college_values": [[2, 1], [4, 3]]}
        refused = (
            '{"student_values": [[2, 1], [4, 3]]',  # bad JSON
            _compact(dict(data, student_values=[[2, 1], [-4, 3]])),
            _compact(dict(data, capacities=[0, 2])),
        )
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert load_instance(_compact(data)).n == 2
            assert gc.isenabled() is enabled
            for text in refused:
                with pytest.raises(InvalidInputError):
                    load_instance(text)
                assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


class TestDispatch:
    def test_routes_by_structure(self, ref_instance):
        # the paper's 4x2 example is ranked isometric, but uncapacitated
        # strict m=2 goes to fast_const, which const2 proves exact there
        report = solve_dispatch(ref_instance)
        assert report.algorithm == "fast_const"
        assert report.matching.assignment == (0, 1, 1, 1)
        assert report.leximin.values == (3, 4, 9, 16, 100, 100)
        iso = generate(GenSpec(kind="ranked_isometric", n=5, m=3, seed=2))
        assert solve_dispatch(iso).algorithm == "fast"
        ranked = generate(GenSpec(kind="ranked", n=5, m=3, seed=2))
        assert solve_dispatch(ranked).algorithm == "fast_gen"
        strict = generate(GenSpec(kind="strict", n=5, m=2, seed=2))
        assert solve_dispatch(strict).algorithm == "fast_const"

    @pytest.mark.parametrize(
        "college_row, solver", [([3, 2, 1], "fast"), ([5, 4, 3], "fast-gen")]
    )
    def test_one_college_with_capacity_n_minus_1_is_infeasible(self, college_row, solver):
        # a capacity of n - 1 binds when there is only one college; it was
        # once ignored, and all three students were put in a college of 2
        inst = Instance.build([[3], [2], [1]], [college_row], [2])
        assert classify(inst).isometric == (solver == "fast")
        for algo in ("auto", solver, "oracle"):
            with pytest.raises(InfeasibleError):
                solve_dispatch(inst, algo)

    def test_weak_instances_are_refused(self):
        inst = generate(GenSpec(kind="weak", n=4, m=3, seed=0))
        with pytest.raises(NpHardRegimeError):
            solve_dispatch(inst)

    def test_the_algo_choices_are_the_dispatch_names(self, tmp_path, capsys, ref_instance):
        # ranked, isometric, strict and m = 2, so every solver admits it
        path = _write(tmp_path, "inst.json", dump_instance(ref_instance))
        for algo in _ALGORITHMS:
            assert main(["solve", "--instance", path, "--algo", algo]) == 0
        for spelling in ("fast_gen", "fast_const"):
            with pytest.raises(InvalidInputError, match="unknown algorithm"):
                solve_dispatch(ref_instance, spelling)
            with pytest.raises(SystemExit):
                main(["solve", "--instance", path, "--algo", spelling])

    def test_an_unknown_algorithm_is_refused(self, ref_instance):
        with pytest.raises(InvalidInputError, match="^unknown algorithm 'nope'$"):
            solve_dispatch(ref_instance, "nope")

    def test_oracle_is_explicit_only(self):
        inst = generate(GenSpec(kind="weak", n=4, m=2, seed=0))
        report = solve_dispatch(inst, algo="oracle")
        assert report.algorithm == "oracle"

    def test_auto_never_picks_an_inadmissible_solver(self):
        # whatever auto picks must run without a not-admissible rejection
        for kind in ("ranked_isometric", "ranked", "strict", "weak"):
            for inst in random_instances(kind, seed=93, count=10, n_max=6, m_max=3, n_min=2):
                try:
                    solve_dispatch(inst)
                except NpHardRegimeError:
                    continue


    def test_solvers_leave_int_instances_without_fraction_rows(self):
        # an instance loaded from JSON ints holds only its integer kernel;
        # a solver that reads Fraction values (instance.u, .student_values)
        # would build the rows and give the ingest saving back
        cases = (
            ("ranked_isometric", 3, "none", "fast"),
            ("ranked", 3, "none", "fast_gen"),
            ("ranked", 3, "random", "cap_fast_gen"),
            ("strict", 2, "none", "fast_const"),
        )
        for kind, m, capacity_mode, algorithm in cases:
            for seed in range(4):
                spec = GenSpec(kind, n=9, m=m, seed=seed, capacity_mode=capacity_mode)
                inst = load_instance(dump_instance(generate(spec)))
                assert solve_dispatch(inst).algorithm == algorithm
                assert "student_values" not in vars(inst), (spec, algorithm)
                assert "college_values" not in vars(inst), (spec, algorithm)

def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _readme_cli_lines():
    """The command lines of README's `## CLI` code block, split into words
    with the comments dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    lines = [words for words in lines if words]
    assert len(lines) >= 8, block
    return lines


class TestCli:
    def test_solve_auto(self, tmp_path, capsys, ref_instance):
        path = _write(tmp_path, "inst.json", dump_instance(ref_instance))
        assert main(["solve", "--instance", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["algorithm"] == "fast_const"
        assert out["matching"]["assignment"] == [0, 1, 1, 1]
        assert out["leximin"] == ["3", "4", "9", "16", "100", "100"]

    def test_verify_reports_blocking_pair(self, tmp_path, capsys, ref_instance):
        inst = _write(tmp_path, "inst.json", dump_instance(ref_instance))
        for assignment, student, displaced in (([0, 1, 0, 1], 1, 2), ([1, 0, 1, 1], 0, 1)):
            mu = _write(tmp_path, "mu.json", dump_matching(Matching(assignment)))
            assert main(["verify", "--instance", inst, "--matching", mu]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["stable"] is False
            assert out["blocking_pair"] == {
                "student": student,
                "college": 0,
                "displaced_student": displaced,
            }

    def test_verify_leaves_int_instances_without_fraction_rows(
        self, tmp_path, capsys, monkeypatch
    ):
        # is_stable and leximin_tuple read the integer kernel; building the
        # Fraction rows of a JSON-int instance would cost more than both
        texts = [
            dump_instance(generate(GenSpec(kind, n=7, m=m, seed=1)))
            for kind, m in (("ranked", 3), ("strict", 2), ("weak", 3))
        ]

        def refuse(scale, rows):
            raise AssertionError("Fraction rows built")

        monkeypatch.setattr(lexmatch.model, "_fraction_rows", refuse)
        stable = []
        for text in texts:
            inst = load_instance(text)
            path = _write(tmp_path, "inst.json", text)
            for assignment in ([0] * 7, [None, 1, 0, 1, None, 0, 1], [i % 2 for i in range(7)]):
                mu = Matching(assignment)
                stable.append(is_stable(inst, mu) is None)
                mu_path = _write(tmp_path, "mu.json", dump_matching(mu))
                assert main(["verify", "--instance", path, "--matching", mu_path]) == 0
                assert json.loads(capsys.readouterr().out)["stable"] is stable[-1]
            assert "student_values" not in vars(inst)
            assert "college_values" not in vars(inst)
        assert set(stable) == {True, False}

    def test_enumerate_complete(self, tmp_path, capsys, ref_instance):
        path = _write(tmp_path, "inst.json", dump_instance(ref_instance))
        assert main(["enumerate", "--instance", path, "--complete"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["count"] == 3

    @pytest.mark.parametrize(
        "flags",
        [[], ["--complete"], ["--respect-capacities"], ["--complete", "--respect-capacities"]],
    )
    @pytest.mark.parametrize("kind", ["weak", "ranked", "ranked_isometric"])
    def test_enumerate_general_matches_brute_force(self, tmp_path, capsys, flags, kind):
        # ranked input too: without --complete a stable matching may leave
        # students unmatched, which no composition describes
        inst = generate(
            GenSpec(kind=kind, n=5, m=3, seed=4, capacity_mode="uniform", capacity=2)
        )
        assert classify(inst).ranked == (kind != "weak")
        path = _write(tmp_path, "inst.json", dump_instance(inst))
        assert main(["enumerate", "--instance", path, *flags]) == 0
        out = json.loads(capsys.readouterr().out)
        expected = []
        for assignment in itertools.product([None, *range(inst.m)], repeat=inst.n):
            mu = Matching(assignment)
            if "--complete" in flags and not mu.is_complete(inst):
                continue
            sizes = [len(ms) for ms in mu.college_view(inst.m)]
            if "--respect-capacities" in flags and any(
                size > cap for size, cap in zip(sizes, inst.capacities)
            ):
                continue
            if is_stable(inst, mu) is None:
                expected.append(list(assignment))
        assert [d["assignment"] for d in out["stable_matchings"]] == expected
        assert out["count"] == len(expected)

    @pytest.mark.parametrize(
        "kind,flags,limit",
        [
            # the placements the pruned walk tries, cut ones included
            ("ranked", [], 60),
            ("ranked", ["--complete"], 3),  # compositions of 4 into 2 nonempty parts
            # capacities of 3 cut the placements that fill a college with a
            # fourth student, but those are tried too
            ("ranked", ["--respect-capacities"], 60),
            ("weak", [], 60),
            ("weak", ["--complete"], 20),
        ],
    )
    def test_enumerate_budget_boundary(self, tmp_path, capsys, kind, flags, limit):
        inst = generate(GenSpec(kind=kind, n=4, m=2, seed=0))
        path = _write(tmp_path, "inst.json", dump_instance(inst))
        args = ["enumerate", "--instance", path, *flags, "--budget"]
        assert main([*args, str(limit)]) == 0
        assert main([*args, str(limit - 1)]) == 5

    def test_fairness(self, tmp_path, capsys, ref_instance):
        inst = _write(tmp_path, "inst.json", dump_instance(ref_instance))
        mu = _write(tmp_path, "mu.json", dump_matching(Matching([0, 1, 1, 1])))
        assert main(["fairness", "--instance", inst, "--matching", mu]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["E_total"] == "160" and out["ef1_colleges"] is True

    def test_gen_round_trip(self, capsys):
        assert main(["gen", "--kind", "ranked", "--n", "5", "--m", "2", "--seed", "7"]) == 0
        printed = load_instance(capsys.readouterr().out)
        assert printed == generate(GenSpec(kind="ranked", n=5, m=2, seed=7))

    @pytest.mark.parametrize("words", _readme_cli_lines(), ids=" ".join)
    def test_every_readme_cli_line_parses(self, words):
        # parsing only: the file names in README are never opened
        prog = ["python", "-m", "lexmatch"] if words[0] == "python" else ["lexmatch"]
        assert words[: len(prog)] == prog
        assert build_parser().parse_args(words[len(prog):]).command == words[len(prog)]

    def test_reduce_subset_sum(self, tmp_path, capsys):
        path = _write(tmp_path, "in.json", json.dumps({"integers": [1, 2], "target": 3}))
        assert main(["reduce", "--from", "subset-sum", "--input", path]) == 0
        inst = load_instance(capsys.readouterr().out)
        assert (inst.n, inst.m) == (4, 3)

    def test_reduce_reads_replication_from_the_input(self, tmp_path, capsys):
        data = {"weights": ["1/2", "1/2"], "bins": 2, "replicate": 3}
        path = _write(tmp_path, "in.json", json.dumps(data))
        assert main(["reduce", "--from", "bin-packing", "--input", path]) == 0
        inst = load_instance(capsys.readouterr().out)
        # t copies of the 2 items and 2 bins, plus the dummy and the collector
        assert (inst.n, inst.m) == (7, 7)

    def test_reduce_has_no_replicate_option(self, tmp_path, capsys):
        path = _write(tmp_path, "in.json", json.dumps({"weights": ["1/2", "1/2"], "bins": 2}))
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "--from", "bin-packing", "--input", path, "--replicate", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --replicate 2" in captured.err

    def test_reduce_refuses_non_int_input(self, tmp_path, capsys):
        path = _write(tmp_path, "in.json", json.dumps({"integers": [2.7, 2.2, 3, 1]}))
        assert main(["reduce", "--from", "partition", "--input", path]) == 2
        assert "partition integers must be an int, got 2.7" in capsys.readouterr().err

    def test_reduce_refuses_a_partition_of_one_integer(self, tmp_path, capsys):
        path = _write(tmp_path, "in.json", json.dumps({"integers": [2]}))
        assert main(["reduce", "--from", "partition", "--input", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "partition needs at least two integers, got 1" in captured.err

    def test_reduce_refuses_a_json_array(self, tmp_path, capsys):
        path = _write(tmp_path, "in.json", json.dumps([1, 1]))
        assert main(["reduce", "--from", "partition", "--input", path]) == 2
        assert "reduction input must be a JSON object" in capsys.readouterr().err

    def test_a_key_error_is_a_bug_not_invalid_input(self, tmp_path, monkeypatch, ref_instance):
        # every payload path raises InvalidInputError, so main lets a
        # KeyError through rather than report it as exit 2
        def solve_dispatch(*args, **kwargs):
            raise KeyError("student_values")

        monkeypatch.setattr(lexmatch.cli, "solve_dispatch", solve_dispatch)
        path = _write(tmp_path, "inst.json", dump_instance(ref_instance))
        with pytest.raises(KeyError, match="student_values"):
            main(["solve", "--instance", path])

    def test_exit_code_np_hard(self, tmp_path, capsys):
        inst = generate(GenSpec(kind="weak", n=4, m=3, seed=0))
        path = _write(tmp_path, "inst.json", dump_instance(inst))
        assert main(["solve", "--instance", path]) == 3

    @pytest.mark.parametrize(
        "text",
        ['{"integers": [%s]}' % ("9" * 5000), "[" * 200_000, "{broken"],
        ids=["5000-digit-int", "deep-nesting", "malformed"],
    )
    @pytest.mark.parametrize("command", ["solve", "verify", "reduce"])
    def test_unparsable_json_is_invalid_input(
        self, tmp_path, capsys, ref_instance, command, text
    ):
        bad = _write(tmp_path, "bad.json", text)
        inst = _write(tmp_path, "inst.json", dump_instance(ref_instance))
        argv = {
            "solve": ["solve", "--instance", bad],
            "verify": ["verify", "--instance", inst, "--matching", bad],
            "reduce": ["reduce", "--from", "partition", "--input", bad],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid input: bad JSON") and "Traceback" not in err

    def test_values_past_the_int_str_digit_limit_are_written_exactly(self, tmp_path, capsys):
        # every value has 4,300 digits, so the loader takes it, but college
        # totals have more; the interpreter's limit is left as it is
        limit = sys.get_int_max_str_digits()
        sv = [[(99 - i) * 10**4298, (60 - i) * 10**4298] for i in range(20)]
        inst = Instance.build(sv, list(zip(*sv)))
        assert main(["solve", "--instance", _write(tmp_path, "big.json", dump_instance(inst))]) == 0
        out = json.loads(capsys.readouterr().out)
        want = lexmatch.model.scaled_leximin(inst, Matching(out["matching"]["assignment"]))
        assert list(map(Decimal, out["leximin"])) == list(map(Decimal, want.values))
        assert max(map(len, out["leximin"])) > limit == sys.get_int_max_str_digits()

    def test_a_nash_product_past_the_int_str_digit_limit_is_written_exactly(
        self, tmp_path, capsys
    ):
        gen = ["gen", "--kind", "ranked_isometric", "--n", "2000", "--m", "4", "--seed", "1"]
        assert main(gen) == 0
        inst = _write(tmp_path, "inst.json", capsys.readouterr().out)
        assert main(["solve", "--instance", inst]) == 0
        solved = json.loads(capsys.readouterr().out)
        mu = _write(tmp_path, "mu.json", json.dumps(solved["matching"]))
        assert main(["fairness", "--instance", inst, "--matching", mu]) == 0
        out = json.loads(capsys.readouterr().out)
        values = list(map(int, solved["leximin"]))
        # Decimal builds from an int or a digit string exactly, with no limit
        assert len(out["nash"]) > sys.get_int_max_str_digits()
        assert Decimal(out["nash"]) == Decimal(math.prod(values))
        assert out["egalitarian"] == solved["leximin"][0]
        assert out["utilitarian"] == str(sum(values))

    def test_exit_code_invalid(self, tmp_path):
        path = _write(tmp_path, "inst.json", "{broken")
        assert main(["solve", "--instance", path]) == 2
        assert main(["solve", "--instance", str(tmp_path / "missing.json")]) == 2

    def test_an_unreadable_input_file_is_invalid_input(self, tmp_path, capsys):
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(b'{"student_values": "\xe9"}')
        for path in (tmp_path / "missing.json", tmp_path, latin1):
            assert main(["solve", "--instance", str(path)]) == 2
            assert f"invalid input: cannot read {path}: " in capsys.readouterr().err

    def test_exit_code_infeasible(self, tmp_path):
        inst = Instance.build([[5, 4]], [[7], [6]], capacities=[1, 1])
        path = _write(tmp_path, "inst.json", dump_instance(inst))
        assert main(["solve", "--instance", path, "--algo", "oracle"]) == 4
        # one college that cannot take every student
        inst = Instance.build([[3], [2], [1]], [[3, 2, 1]], capacities=[2])
        path = _write(tmp_path, "inst.json", dump_instance(inst))
        assert main(["solve", "--instance", path]) == 4
        # fewer students than colleges
        inst = Instance.from_matrix([[3, 2, 1], [2, 1, 0]])
        path = _write(tmp_path, "inst.json", dump_instance(inst))
        assert main(["solve", "--instance", path]) == 4

    @pytest.mark.parametrize("capacities", [5, "12", {"0": 1, "1": 2}, [[1, 2]]])
    def test_capacities_not_a_list_of_ints_are_invalid_input(self, tmp_path, capsys, capacities):
        payload = {"student_values": [[2, 1], [4, 3], [6, 5]], "college_values": [[1, 2, 3], [4, 5, 6]]}
        path = _write(tmp_path, "inst.json", json.dumps(dict(payload, capacities=capacities)))
        assert main(["solve", "--instance", path]) == 2
        err = capsys.readouterr().err
        if isinstance(capacities, list):  # a list, but of a list
            assert "invalid input: capacity of college 0 must be an int in [1, n], got [1, 2]" in err
        else:
            assert "invalid input: capacities must be a list of ints, one per college" in err

    @pytest.mark.parametrize("command", ["verify", "fairness"])
    @pytest.mark.parametrize("assignment", [5, "0111", {"0": 1}])
    def test_non_list_assignment_is_invalid_input(
        self, tmp_path, capsys, ref_instance, command, assignment
    ):
        inst = _write(tmp_path, "inst.json", dump_instance(ref_instance))
        mu = _write(tmp_path, "mu.json", json.dumps({"assignment": assignment}))
        assert main([command, "--instance", inst, "--matching", mu]) == 2
        assert "invalid input: matching JSON needs an assignment list" in capsys.readouterr().err

    def test_exit_code_budget(self, tmp_path):
        inst = generate(GenSpec(kind="weak", n=8, m=3, seed=0))
        path = _write(tmp_path, "inst.json", dump_instance(inst))
        assert (
            main(["enumerate", "--instance", path, "--budget", "10"]) == 5
        )
