import hashlib
import itertools
import json
import random
from bisect import insort
from fractions import Fraction
from itertools import accumulate

import pytest

from lexmatch import (
    GenSpec,
    InfeasibleError,
    Instance,
    InvalidInputError,
    Matching,
    NotAdmissibleError,
    classify,
    college_value,
    dump_instance,
    fast_const,
    generate,
    is_stable,
    leximin_compare,
    leximin_tuple,
    load_instance,
    oracle_leximin,
)
from lexmatch import const2
from lexmatch.const2 import _require_m2_strict, _staircase, is_stable_m2
from lexmatch.generate import CAPACITY_MODES
from lexmatch.model import GREATER, ScaledLeximin, _capacity_binds, scaled_leximin
from lexmatch.report import SolverReport

from test_equivalence import SWEEP, _two_sided


def _strict_m2_instances(seed, count, n_max, n_min=2):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(n_min, n_max)
        yield generate(GenSpec(kind="strict", n=n, m=2, seed=rng.randrange(10**6)))


def _zero_valued_strict_m2(seed, count):
    """Strict two-college instances, n 2..5, with small values of which at
    least one is 0."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        n = rng.randint(2, 5)
        sv = [rng.sample(range(4), 2) for _ in range(n)]
        cv = [rng.sample(range(n + 2), n) for _ in range(2)]
        if any(0 in row for row in sv + cv):
            made += 1
            yield Instance.build(sv, cv)


def favorites(instance):
    """Each student's preferred college (0 or 1)."""
    u0, u1 = instance._kernel[1]
    return [0 if a > b else 1 for a, b in zip(u0, u1)]


def _toggles(instance):
    """fast_const's toggles, counted from the states its scan visits, so an
    infeasible input counts too: every state but (0, 0) moves a fan."""
    start = tuple(favorites(instance))
    seen = []
    try:
        report = fast_const(instance, on_state=seen.append)
    except InfeasibleError:
        report = None
    toggles = sum(mu.assignment != start for mu in seen)
    assert report is None or report.counters["toggles"] == toggles
    return toggles


def _complete_assignments(n):
    return itertools.product((0, 1), repeat=n)


def _scaled_by_35(instance):
    # x -> (7x + x mod 5)/35 is strictly increasing on ints, so it keeps
    # every preference while making denominators of 5, 7 and 35
    def f(x):
        return Fraction(7 * x + x % 5, 35)

    return Instance.build(
        [[f(x) for x in row] for row in instance.student_values],
        [[f(x) for x in row] for row in instance.college_values],
        instance.capacities,
    )


def _oracle_sweep_instances():
    for n in range(2, 9):
        for value_max in (None, 2 * n + 3):
            for seed in range(100, 120):
                inst = generate(GenSpec("strict", n, 2, seed=seed, value_max=value_max))
                yield inst
                yield _scaled_by_35(inst)


ORACLE_SWEEP = list(_oracle_sweep_instances())


def _crossed(n, seed):
    """Half the students prefer each college, each college values the other
    college's fans above its own, and every student value exceeds any
    college total.  Every (d0, d1) is then stable, so the stable set is the
    whole grid."""
    rng = random.Random(seed)
    fan = [0] * (n // 2) + [1] * (n - n // 2)
    cv = [[0] * n for _ in range(2)]
    for j in (0, 1):
        own = [i for i in range(n) if fan[i] == j]
        others = [i for i in range(n) if fan[i] != j]
        ranks = rng.sample(range(1, len(own) + 1), len(own)) + rng.sample(
            range(len(own) + 1, n + 1), len(others)
        )
        for i, v in zip(own + others, ranks):
            cv[j][i] = v
    base = n * (n + 1) // 2 + 1  # above any college total
    sv = []
    for i in range(n):
        hi, lo = sorted(rng.sample(range(base, base + n * n), 2), reverse=True)
        sv.append([hi, lo] if fan[i] == 0 else [lo, hi])
    return Instance.build(sv, cv)


def _toggle_family(n, seed):
    """Everyone prefers college 0, each college ranks the students in
    random order (so the instance is not ranked), and every student value
    exceeds any college total: the walk moves students one at a time until
    the two totals balance."""
    rng = random.Random(seed)
    cv = [rng.sample(range(1, 4 * n + 1), n) for _ in range(2)]
    floor = 4 * n * n + 1
    sv = [[floor + 2 * b + 1, floor + 2 * b] for b in rng.sample(range(4 * n), n)]
    return Instance.build(sv, cv)


def _walk_digest(instance):
    """sha256 of the on_state assignments in order, then of the report's
    canonical JSON."""
    h = hashlib.sha256()
    report = fast_const(instance, on_state=lambda mu: h.update(bytes(mu.assignment)))
    h.update(json.dumps(report.to_json_dict(), sort_keys=True, separators=(",", ":")).encode())
    return h.hexdigest()


def _grid_best(instance):
    """Exact strict m=2 optimum without brute force: try the
    (|A0|+1)(|A1|+1) matchings in which each college j hands the d_j fans
    it values least to the other, keep the complete ones within the
    capacities that the general is_stable accepts, and return the best
    leximin values."""
    alpha = favorites(instance)
    cv = instance.college_values
    fans = [
        sorted((i for i, a in enumerate(alpha) if a == j), key=cv[j].__getitem__)
        for j in (0, 1)
    ]
    best = None
    for d0 in range(len(fans[0]) + 1):
        for d1 in range(len(fans[1]) + 1):
            assignment = list(alpha)
            for i in fans[0][:d0]:
                assignment[i] = 1
            for i in fans[1][:d1]:
                assignment[i] = 0
            mu = Matching(assignment)
            sizes = (assignment.count(0), assignment.count(1))
            if (
                mu.is_complete(instance)
                and all(k <= b for k, b in zip(sizes, instance.capacities))
                and is_stable(instance, mu) is None
            ):
                t = scaled_leximin(instance, mu)
                if best is None or t.values > best.values:
                    best = t
    return best.view().values


def _reference_staircase(instance):
    """const2._staircase as it was before fast_const read its result off
    the walk: (fans, stable), favorites not handed back."""
    _, _, v = instance._kernel
    alpha = favorites(instance)
    fans = tuple(
        sorted((i for i, a in enumerate(alpha) if a == j), key=v[j].__getitem__)
        for j in (0, 1)
    )
    floor = tuple(
        list(accumulate((v[1 - j][i] for i in fans[j]), min)) for j in (0, 1)
    )

    def stable(d0, d1):
        return not (d0 and d1) or (
            v[0][fans[0][d0 - 1]] < floor[1][d1 - 1]
            and v[1][fans[1][d1 - 1]] < floor[0][d0 - 1]
        )

    return fans, stable


def _reference_fast_const(instance, on_state=None):
    """fast_const as it was before it read its result off the walk: every
    move goes through the since-best lists, and the report's tuple comes
    from scaled_leximin on the rebuilt best assignment."""
    _require_m2_strict(instance)
    if _capacity_binds(instance):
        raise NotAdmissibleError("solver assumes capacities of at least n-1")
    n = instance.n
    if n < 2:
        raise InfeasibleError(f"{n} student cannot cover 2 colleges")
    _, u, v = instance._kernel
    fans, stable = _reference_staircase(instance)
    assignment = favorites(instance)
    totals = [sum(map(v[j].__getitem__, fans[j])) for j in (0, 1)]
    gone, came = [], []
    toggles = 0
    d = [0, 0]
    best_d = (0, 0) if fans[0] and fans[1] else None
    a_max = -1

    if on_state is not None:
        on_state(Matching(assignment))
    while True:
        low, high = (0, 1) if totals[0] <= totals[1] else (1, 0)
        a_max = max(a_max, totals[low])
        if d[high] == len(fans[high]):
            break
        mover = fans[high][d[high]]
        if u[low][mover] < a_max:
            break
        d[high] += 1
        if not stable(*d):
            break
        assignment[mover] = low
        toggles += 1
        if on_state is not None:
            on_state(Matching(assignment))
        for old in (u[high][mover], totals[high], totals[low]):
            insort(gone, old)
        totals[high] -= v[high][mover]
        totals[low] += v[low][mover]
        for new in (u[low][mover], totals[high], totals[low]):
            insort(came, new)
        if (came > gone or best_d is None) and len(fans[high]) - d[high] + d[low]:
            best_d = tuple(d)
            gone.clear()
            came.clear()

    tuple_comparisons = toggles
    steps = toggles + tuple_comparisons * (n + 2)
    best = favorites(instance)
    for j, d_j in enumerate(best_d):
        for i in fans[j][:d_j]:
            best[i] = 1 - j
    matching = Matching(best)
    return SolverReport(
        algorithm="fast_const",
        matching=matching,
        leximin=scaled_leximin(instance, matching),
        steps=steps,
        counters={"toggles": toggles, "tuple_comparisons": tuple_comparisons},
    )


def _fits(instance, mu):
    return all(mu.assignment.count(j) <= b for j, b in enumerate(instance.capacities))


def _walk_within_capacities(instance):
    """The reference walk's report and trace with the states that overfill
    a college dropped: the scan never visits them, so each one the walk
    visits after its start is one toggle fewer."""
    trace = []
    report = _reference_fast_const(instance, on_state=trace.append)
    over = sum(not _fits(instance, mu) for mu in trace[1:])
    toggles = report.counters["toggles"] - over
    want = dict(
        report.to_json_dict(),
        steps=toggles + toggles * (instance.n + 2),
        counters={"toggles": toggles, "tuple_comparisons": toggles},
    )
    return want, [mu for mu in trace if _fits(instance, mu)], over


class TestReferenceWalk:
    """fast_const scans the (d0, d1) staircase with proved cuts; the walk it
    replaced moved the richer college's next fan, which is the path the
    scan's row cut and diagonal start take where nothing else fires.  On
    such inputs the scan's report and trace must be the walk's, less the
    states that overfill a college.  (Where the walk stopped because a mover
    fell below its best state's poorer total, its unproved rule A, the scan
    may go on; none of these inputs does.)"""

    def test_equal_reports_on_the_toggle_crossed_ranked_and_strict_inputs(self):
        cases = []
        for n in range(10, 161, 10):
            for seed in range(2):
                cases += [_toggle_family(n, seed), _crossed(n, seed)]
        for n in range(3, 41):
            for seed in range(3):
                for kind, value_max in (
                    ("ranked_isometric", None), ("ranked", None), ("ranked", n + 3)
                ):
                    cases.append(generate(GenSpec(kind, n, 2, seed=seed, value_max=value_max)))
        for n in range(2, 41):
            for value_max in (None, n + 1, 2 * n + 3):
                cases.append(generate(GenSpec("strict", n, 2, seed=n, value_max=value_max)))
        overfilled = set()
        for inst in cases:
            for case in (inst, _scaled_by_35(inst)):
                trace = []
                got = fast_const(case, on_state=trace.append)
                want, want_trace, over = _walk_within_capacities(case)
                assert got.to_json_dict() == want and trace == want_trace, case
                if over:
                    overfilled.add(case.n)
        # only walks at n <= 3 go on to overfill a college
        assert overfilled == {2, 3}

    def test_builds_its_tuple_without_walking_the_matching(self, monkeypatch):
        cases = [_toggle_family(40, 0), _crossed(20, 0), _scaled_by_35(_crossed(20, 1))]
        want = [_walk_within_capacities(inst)[0] for inst in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("fast_const walked its own matching")

        monkeypatch.setattr(Matching, "validate", refuse)
        monkeypatch.setattr(Matching, "college_view", refuse)
        got = [fast_const(inst).to_json_dict() for inst in cases]
        monkeypatch.undo()
        assert got == want


def _parent_fast_const(instance, on_state=None):
    """fast_const as it was before it took a ranked input's fans without a
    sort, read the fans' values only at the states it visits and built its
    report in one pass over college 1: full h/w lists of the fans' values,
    a compare that slices, appends and sorts two lists, and the report's
    values read off the rebuilt assignment."""
    _require_m2_strict(instance)
    n = instance.n
    scale, (u0, u1), (v0, v1) = instance._kernel
    fans, stable = _reference_staircase(instance)
    f0, f1 = fans
    n0, n1 = len(f0), len(f1)
    cap0, cap1 = instance.capacities
    h0, w0 = [*map(u0.__getitem__, f0)], [*map(u1.__getitem__, f0)]
    h1, w1 = [*map(u1.__getitem__, f1)], [*map(u0.__getitem__, f1)]
    d0 = max(0, n0 - cap0)
    r0 = sum(map(v0.__getitem__, f0[d0:]))
    r1 = sum(map(v1.__getitem__, f1)) + sum(map(v1.__getitem__, f0[:d0]))
    rs = start = toggles = 0
    b0 = None
    b1 = s0 = s1 = 0
    last = min(n0, cap1)

    def assignment_of(d0, d1):
        out = [0] * n
        for i in f0[:d0] + f1[d1:]:
            out[i] = 1
        return out

    while d0 <= last and start <= n1:
        if start < d0 + n1 - cap1:
            start = d0 + n1 - cap1
        if start > rs:
            for b in f1[rs:start]:
                r0 += v0[b]
                r1 -= v1[b]
        rs = d1 = start
        t0, t1 = r0, r1
        hi = min(cap0 - n0 + d0, n1)
        while d1 <= hi and (not (d0 and d1) or stable(d0, d1)):
            if d0 or d1:
                toggles += 1
            if on_state is not None:
                on_state(Matching(assignment_of(d0, d1)))
            if n0 - d0 + d1 and n1 - d1 + d0:
                if b0 is None:
                    b0, b1, s0, s1 = d0, d1, t0, t1
                else:
                    new, old = w0[b0:d0], h0[b0:d0]
                    if d1 > b1:
                        new += w1[b1:d1]
                        old += h1[b1:d1]
                    elif d1 < b1:
                        new += h1[d1:b1]
                        old += w1[d1:b1]
                    new.append(t0)
                    new.append(t1)
                    old.append(s0)
                    old.append(s1)
                    new.sort()
                    old.sort()
                    if new > old:
                        b0, b1, s0, s1 = d0, d1, t0, t1
                if d0 < n0:
                    if d1 == start and t0 <= t1 and v0[f0[d0]]:
                        start += 1
                    if not d1 and w0[d0] < t0 and w0[d0] < t1:
                        last = d0
                if d1 < n1 and (w1[d1] < t0 or (t1 < t0 and v1[f1[d1]])):
                    break
            if d1 == n1:
                break
            b = f1[d1]
            t0 += v0[b]
            t1 -= v1[b]
            d1 += 1
        else:
            if rs == d1 <= hi:
                break
        if d0 < n0:
            a = f0[d0]
            r0 -= v0[a]
            r1 += v1[a]
        d0 += 1

    if b0 is None:
        raise InfeasibleError("no stable matching fills both colleges within their capacities")
    steps = toggles + toggles * (n + 2)
    assignment = assignment_of(b0, b1)
    students = [u1[i] if j else u0[i] for i, j in enumerate(assignment)]
    return SolverReport(
        algorithm="fast_const",
        matching=Matching(assignment),
        leximin=ScaledLeximin(scale, n, students + [s0, s1]),
        steps=steps,
        counters={"toggles": toggles, "tuple_comparisons": toggles},
    )


def _outcome(solver, instance, trace=None):
    """The report's JSON, or the refusal's message when it is infeasible."""
    try:
        return solver(instance, on_state=trace).to_json_dict()
    except InfeasibleError as exc:
        return str(exc)


class TestAgainstTheParentScan:
    """fast_const takes the fans without a split when every student prefers
    college 0, reads the fans' values only at the states it visits and
    builds its report in one pass over college 1.  Its reports and traces
    must be those of the scan it replaced, kept above as
    _parent_fast_const."""

    @staticmethod
    def _cases():
        for n in (2, 3, 5, 8, 13, 40, 101, 200):
            for seed in range(2):
                yield from (_toggle_family(n, seed), _crossed(n, seed), _two_sided(n, seed))
        for n in range(2, 41):
            for seed in range(2):
                for value_max in (None, n + 3):
                    for mode in ("uniform", "random"):
                        yield generate(GenSpec(
                            "strict", n, 2, seed, mode, -(-n // 2) + seed, value_max
                        ))
                    for kind in ("ranked", "ranked_isometric"):
                        if kind == "ranked_isometric" and value_max:
                            continue  # it draws 2n distinct values
                        for mode in CAPACITY_MODES:
                            yield generate(GenSpec(kind, n, 2, seed, mode, -(-n // 2), value_max))
        # every pair of capacities on small inputs with zero values, some
        # of them infeasible
        for inst in _zero_valued_strict_m2(seed=7, count=60):
            for caps in itertools.product(range(1, inst.n + 1), repeat=2):
                yield Instance(inst.student_values, inst.college_values, caps)

    def test_equal_reports_and_traces(self):
        kinds = {"ranked": 0, "infeasible": 0, "compared": 0}
        for inst in self._cases():
            for case in (inst, _scaled_by_35(inst)) if inst.n <= 20 else (inst,):
                got_trace, want_trace = [], []
                got = _outcome(fast_const, case, got_trace.append)
                want = _outcome(_parent_fast_const, case, want_trace.append)
                assert got == want and got_trace == want_trace, case
                kinds["ranked"] += classify(case).ranked
                kinds["infeasible"] += isinstance(got, str)
                kinds["compared"] += len(got_trace) > 2
        assert min(kinds.values()) >= 50, kinds

    @pytest.mark.parametrize("kind", ["ranked", "ranked_isometric"])
    def test_equal_reports_on_large_ranked_inputs(self, kind):
        for n in (2000, 5000, 20000):
            for spec in (
                GenSpec(kind, n, 2, seed=n),
                GenSpec(kind, n, 2, seed=n, capacity_mode="random"),
            ):
                inst = generate(spec)
                assert _outcome(fast_const, inst) == _outcome(_parent_fast_const, inst), spec


class TestStaircase:
    """_staircase splits the students into fans by comparing their two values
    at C speed, without favorites; on strict input the fans and the stable
    test must be the reference's."""

    @staticmethod
    def _cases():
        for n in (2, 3, 5, 8, 20, 61):
            for seed in range(2):
                yield from (_toggle_family(n, seed), _crossed(n, seed), _two_sided(n, seed))
        for n in range(2, 31):
            for seed in range(2):
                for kind, value_max in (
                    ("strict", None), ("strict", n + 1), ("ranked", None), ("ranked", n + 3),
                    ("ranked_isometric", None),
                ):
                    yield generate(GenSpec(kind, n, 2, seed=seed, value_max=value_max))

    def test_fans_and_stable_pairs_are_the_reference_ones(self):
        grids = both_sides = 0
        for inst in self._cases():
            for case in (inst, _scaled_by_35(inst)):
                fans, stable = _staircase(case)
                want_fans, want_stable = _reference_staircase(case)
                assert sorted(fans[0] + fans[1]) == list(range(case.n)), case
                assert fans == want_fans, case
                both_sides += bool(fans[0] and fans[1])
                if case.n <= 8:
                    grids += 1
                    for d0 in range(len(fans[0]) + 1):
                        for d1 in range(len(fans[1]) + 1):
                            assert stable(d0, d1) == want_stable(d0, d1), (case, d0, d1)
        assert grids >= 100 and both_sides >= 100


class TestOneFavoriteFans:
    """When every student prefers college 0, as on all ranked input and the
    whole toggle family, _staircase sorts college 0's fans without
    splitting the students.  On ranked input college 0's values fall with
    the index, so its fans are every student in reverse."""

    @staticmethod
    def _refuse_split(monkeypatch):
        def refuse(*args):
            raise AssertionError("split the students")

        monkeypatch.setattr(const2, "compress", refuse)

    @pytest.mark.parametrize("kind", ["ranked", "ranked_isometric"])
    def test_no_split_on_ranked_input(self, kind, monkeypatch):
        inst = generate(GenSpec(kind, 20000, 2, seed=1))
        assert classify(inst).ranked
        self._refuse_split(monkeypatch)
        fans, _ = _staircase(inst)
        assert fans == ([*range(19999, -1, -1)], [])

    def test_no_split_when_every_student_prefers_college_0(self, monkeypatch):
        inst = _toggle_family(200, 0)
        assert not classify(inst).ranked
        self._refuse_split(monkeypatch)
        fans, _ = _staircase(inst)
        assert fans == _reference_staircase(inst)[0] and not fans[1]

    def test_an_input_with_both_favorites_is_split(self, monkeypatch):
        inst = generate(GenSpec("strict", 200, 2, seed=1))
        self._refuse_split(monkeypatch)
        with pytest.raises(AssertionError, match="split the students"):
            _staircase(inst)
        with pytest.raises(AssertionError, match="split the students"):
            fast_const(inst)


class TestIsStableM2:
    def test_reference_instance(self, ref_instance):
        assert is_stable_m2(ref_instance, Matching([0, 1, 1, 1]))
        assert not is_stable_m2(ref_instance, Matching([0, 1, 0, 1]))

    def test_requires_complete(self, ref_instance):
        with pytest.raises(InvalidInputError):
            is_stable_m2(ref_instance, Matching([0, None, 1, 1]))

    @staticmethod
    def _cases():
        yield from _strict_m2_instances(seed=61, count=15, n_max=6)
        # ranked inputs take their fans without a split
        for n in range(2, 7):
            for seed in range(3):
                for kind in ("ranked", "ranked_isometric"):
                    yield generate(GenSpec(kind, n, 2, seed=seed))

    def test_agrees_with_general_test(self):
        # the closed form must coincide with the blocking-pair scan on every
        # complete assignment
        for inst in self._cases():
            for assignment in _complete_assignments(inst.n):
                mu = Matching(assignment)
                assert is_stable_m2(inst, mu) == (is_stable(inst, mu) is None), (
                    inst,
                    assignment,
                )

    def test_reads_only_the_kernel(self):
        # an instance loaded from JSON ints holds only its kernel; the test
        # must not build the Fraction matrices
        inst = load_instance(dump_instance(generate(GenSpec("strict", 9, 2, seed=1))))
        assert is_stable_m2(inst, fast_const(inst).matching)
        assert "college_values" not in vars(inst)


class TestFastConst:
    def test_reference_instance(self, ref_instance):
        report = fast_const(ref_instance)
        assert report.algorithm == "fast_const"
        assert report.leximin.values == (3, 4, 9, 16, 100, 100)
        assert report.matching.assignment == (0, 1, 1, 1)

    def test_zero_toggle_walk(self):
        inst = Instance.build([[10, 1], [2, 9]], [[5, 4], [3, 6]])
        report = fast_const(inst)
        assert report.counters["toggles"] == 0
        assert report.matching.assignment == (0, 1)

    def test_rejects_wrong_college_count(self):
        inst = Instance.from_matrix([[3, 2, 1], [6, 5, 4]])
        with pytest.raises(NotAdmissibleError):
            fast_const(inst)

    def test_rejects_ties(self):
        inst = Instance.build([[3, 3], [2, 1]], [[2, 1], [2, 1]])
        with pytest.raises(NotAdmissibleError):
            fast_const(inst)

    def test_solves_binding_capacities(self):
        inst = generate(GenSpec(kind="strict", n=5, m=2, seed=1))
        for capacities in ((3, 2), (2, 3), (4, 1), (1, 4)):
            capped = Instance(inst.student_values, inst.college_values, capacities)
            report = fast_const(capped)
            report.matching.validate(capped, enforce_capacities=True)
            want = oracle_leximin(capped, require_complete=True, respect_capacities=True)
            assert report.leximin.values == want.leximin.values, capacities
        with pytest.raises(InfeasibleError):
            fast_const(Instance(inst.student_values, inst.college_values, (2, 2)))

    def test_oracle_equality_with_zeros_and_capacities(self):
        # small random strict inputs: 30% may hold zero values, half have
        # random capacities
        rng = random.Random(71)
        checked = infeasible = 0
        while checked < 5000:
            n = rng.randint(2, 7)
            low = 0 if rng.random() < 0.3 else 1
            sv = [rng.sample(range(low, 6), 2) for _ in range(n)]
            cv = [rng.sample(range(low, n + 4), n) for _ in range(2)]
            caps = [rng.randint(1, n) for _ in range(2)] if rng.random() < 0.5 else None
            inst = Instance.build(sv, cv, caps)
            try:
                want = oracle_leximin(inst, require_complete=True, respect_capacities=True)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    fast_const(inst)
                infeasible += 1
                continue
            assert fast_const(inst).leximin.values == want.leximin.values, inst
            checked += 1
        assert infeasible > 0

    @pytest.mark.parametrize("kind", ["strict", "ranked"])
    def test_oracle_equality_beyond_the_product_walk(self, kind):
        # the oracle's pruned walk (on strict input) reaches n = 40, where a
        # walk over all 2^n assignments cannot
        for n in range(20, 41):
            for capacity_mode in ("none", "random"):
                for value_max in (None, n + 3):
                    spec = GenSpec(kind, n, 2, seed=n, capacity_mode=capacity_mode,
                                   value_max=value_max)
                    inst = generate(spec)
                    got = fast_const(inst)
                    want = oracle_leximin(inst, require_complete=True, respect_capacities=True)
                    assert got.matching == want.matching, spec
                    assert got.leximin.values == want.leximin.values, spec

    def test_oracle_equality_random(self):
        for inst in _strict_m2_instances(seed=63, count=100, n_max=7):
            got = fast_const(inst).leximin.values
            want = oracle_leximin(inst, require_complete=True).leximin.values
            assert got == want, inst

    def test_optimum_beats_all_stable_brute_force(self):
        # independent 2^n check, not going through the oracle module
        for inst in _strict_m2_instances(seed=67, count=20, n_max=6):
            best = fast_const(inst).leximin
            for assignment in _complete_assignments(inst.n):
                mu = Matching(assignment)
                if is_stable(inst, mu) is None:
                    t = leximin_tuple(inst, mu)
                    assert leximin_compare(t, best) != GREATER

    def test_states_start_at_favorites_and_toggle_bound(self):
        started = 0
        for inst in _strict_m2_instances(seed=69, count=25, n_max=8):
            seen = []
            report = fast_const(inst, on_state=seen.append)
            # the scan starts at the favorites when they fit the capacities
            at_favorites = _fits(inst, Matching(favorites(inst)))
            assert (seen[0].assignment == tuple(favorites(inst))) == at_favorites
            started += at_favorites
            assert report.counters["toggles"] <= inst.n
            assert len(seen) == report.counters["toggles"] + at_favorites
            for mu in seen:
                # every student is matched in every state (a college may be
                # empty, e.g. when everyone shares a favorite)
                assert all(j is not None for j in mu.assignment)
                # and every state the scan visits fits and is stable
                assert _fits(inst, mu), (inst, mu)
                assert is_stable(inst, mu) is None, (inst, mu)
                assert is_stable_m2(inst, mu), (inst, mu)
        assert 0 < started < 25

    def test_oracle_sweep_default_and_tie_heavy_values(self):
        assert len(ORACLE_SWEEP) == 560
        assert any(inst._kernel[0] > 1 for inst in ORACLE_SWEEP)
        toggled = 0
        for inst in ORACLE_SWEEP:
            report = fast_const(inst)
            want = oracle_leximin(inst, require_complete=True).leximin.values
            assert report.leximin.values == want, inst
            assert _grid_best(inst) == want, inst
            assert is_stable(inst, report.matching) is None, inst
            toggled += report.counters["toggles"] > 0
        # the sweep must exercise the walk, not only its starting point
        assert toggled > 0

    def test_grid_reference_beyond_brute_force(self):
        for n in range(15, 61, 5):
            for value_max in (None, 2 * n + 3, n + 1):
                for seed in range(3):
                    for capacity_mode in ("none", "random", "uniform"):
                        spec = GenSpec(
                            "strict", n, 2, seed=seed, capacity_mode=capacity_mode,
                            capacity=(n + seed + 1) // 2 + 1, value_max=value_max,
                        )
                        inst = generate(spec)
                        assert fast_const(inst).leximin.values == _grid_best(inst), spec

    def test_crossed_family(self):
        for n in (8, 10):
            for seed in range(20):
                inst = _crossed(n, seed)
                report = fast_const(inst)
                want = oracle_leximin(inst, require_complete=True).leximin.values
                assert report.leximin.values == want, (n, seed)
                assert report.counters["toggles"] > 0
        for n in (20, 30, 40):
            for seed in range(5):
                inst = _crossed(n, seed)
                assert fast_const(inst).leximin.values == _grid_best(inst), (n, seed)

    def test_reports_the_first_best_state_of_its_walk(self):
        # whatever the scan compares internally, its answer is the state it
        # visited with the largest tuple, the earliest one on ties
        def cases():
            for n in range(2, 41):
                for value_max in (None, 2 * n + 3, n + 1):
                    # small n with many seeds reaches scans that go on for
                    # two states past their best one
                    for seed in range(25 if n <= 6 else 3):
                        yield generate(GenSpec("strict", n, 2, seed=seed, value_max=value_max))
            for n in (8, 9, 20, 41):
                for seed in range(3):
                    yield _crossed(n, seed)
            for n in (2, 3, 5, 12, 40, 151):
                for seed in range(3):
                    yield _toggle_family(n, seed)

        past_best = set()
        for inst in cases():
            seen = []
            report = fast_const(inst, on_state=seen.append)
            tuples = [scaled_leximin(inst, mu).values for mu in seen]
            first_best = tuples.index(max(tuples))
            assert report.matching == seen[first_best], inst
            assert report.leximin.values == scaled_leximin(inst, seen[first_best]).view().values
            past_best.add(len(seen) - 1 - first_best)
        # the scan must go on past its best state, by one state and by two
        assert {1, 2} <= past_best

    @pytest.mark.parametrize(
        "family, n, digest",
        [
            ("toggle", 1000, "7be7bcbebd7d8c46807cd67c0c3ee53ec6832287e0ab253970e7d3e0ca5b7abd"),
            ("toggle", 3000, "33a20a64550e9ff8a35628db01f9b3bf1785e40ea36feac610a59af9254e7fdc"),
            ("crossed", 400, "a32926ec8dd889712a165995fc1ce19fc8c8031905c263394b0e870d79ae1a6b"),
            ("crossed", 1000, "a6ce3fdcb303c6a622944cea05f77f9cdbd3086e49252408a35d8fc60b4ec5d6"),
        ],
    )
    def test_long_walks_keep_their_recorded_outputs(self, family, n, digest):
        # reports and traces far beyond the reference checks' sizes.  Each
        # report equals the walk's that the row scan replaced; the toggle
        # traces were pinned again then, as they no longer start at the
        # favorites, which overfill college 0
        make = {"toggle": _toggle_family, "crossed": _crossed}[family]
        assert _walk_digest(make(n, 0)) == digest

    # The scan's visit count: n states is a measured bound, not a proof
    # (see the const2 docstring)

    def test_visits_at_most_n_states_on_the_equivalence_sweep(self):
        strict_m2 = [
            inst for inst in SWEEP.values() if inst.m == 2 and classify(inst).strict
        ]
        assert len(strict_m2) > 30
        for inst in strict_m2:
            assert _toggles(inst) <= inst.n, inst

    def test_visits_at_most_n_states_on_generated_inputs(self):
        checked = 0
        for seed in range(12):
            for kind in ("strict", "ranked", "ranked_isometric"):
                for n in range(2, 41):
                    for mode in CAPACITY_MODES:
                        for value_max in (None, n + 3):
                            spec = GenSpec(kind, n, 2, seed, mode, -(-n // 2), value_max)
                            try:
                                inst = generate(spec)
                            except InvalidInputError:
                                # ranked_isometric draws 2n distinct values
                                assert kind == "ranked_isometric" and value_max
                                continue
                            assert _toggles(inst) <= n, spec
                            checked += 1
        assert checked == 7092

    # Hand-made scans.  All three students prefer college 0 and college 0
    # ranks them 0, 1, 2 from the bottom, so row d0 hands students 0..d0-1
    # to college 1; (0, 0) overfills college 0, so the scan starts at (1, 0).

    def test_stops_when_leaving_a_favorite_drops_below_the_poorer_college(self):
        # at (1, 0) college 1 is worth 4 and student 1 would fall to
        # u(1, 1) = 3 < min(50, 4): the row stop
        inst = Instance.build(
            [[9, 7], [8, 3], [6, 5]], [[10, 20, 30], [4, 5, 6]]
        )
        report = fast_const(inst)
        assert report.counters["toggles"] == 1
        assert report.matching.assignment == (1, 0, 0)

    def test_stops_before_a_student_returns_to_a_college_that_gave_it_away(self):
        # the scan visits (1, 0) and (2, 0); (3, 0), which the walk it
        # replaced visited before stopping, puts all three students in
        # college 1, over its capacity of 2
        inst = Instance.build(
            [[90, 70], [80, 60], [60, 50]], [[10, 20, 30], [4, 5, 6]]
        )
        report = fast_const(inst)
        assert report.counters["toggles"] == 2
        assert report.counters["tuple_comparisons"] == 2

    def test_refuses_a_single_student(self):
        # one student cannot fill two colleges; the walk this scan replaced
        # once stopped at once and returned college 1 empty
        inst = Instance.build([[5, 3]], [[0], [2]])
        with pytest.raises(InfeasibleError):
            fast_const(inst)

    def test_an_incomplete_state_is_never_the_best(self):
        # both prefer college 0; moving student 0 leaves the tuple worse
        # than the start, (0, 1, 3) against (0, 2, 4), but the start leaves
        # college 1 empty, and college 0 would hold 2 > capacity 1
        inst = Instance.build([[2, 1], [2, 1]], [[1, 3], [0, 1]])
        report = fast_const(inst)
        assert report.matching.assignment == (1, 0)
        assert report.leximin.values == (0, 1, 2, 3)

    def test_zero_values_give_complete_stable_matchings(self):
        # 159 of these came back incomplete while an incomplete state could
        # be the best; with positive values none ever did
        worse = 0
        for inst in _zero_valued_strict_m2(seed=5, count=1500):
            seen = []
            report = fast_const(inst, on_state=seen.append)
            mu = report.matching
            mu.validate(inst, enforce_capacities=True)
            assert mu.is_complete(inst) and is_stable(inst, mu) is None, inst
            want = oracle_leximin(inst, require_complete=True).leximin.values
            assert report.leximin.values <= want, inst
            worse += report.leximin.values < want
            # an empty college is the poorer one in every state visited
            for state in seen:
                totals = [college_value(inst, state, j) for j in (0, 1)]
                for j in (0, 1):
                    if not state.members(inst, j):
                        assert totals[j] < totals[1 - j], (inst, state)
        # the walk the scan replaced stopped short of the optimum on one of
        # these, like the input below
        assert worse == 0

    def test_exact_with_zero_values(self):
        # the walk this scan replaced returned (1, 1, 3, 3, 3) here: its
        # rule A stopped it at the favorites, before college 0 handed away
        # student 2, whom it values at 0
        inst = Instance.build([[0, 3], [3, 1], [3, 2]], [[3, 1, 0], [1, 4, 2]])
        report = fast_const(inst)
        assert report.leximin.values == (1, 2, 3, 3, 3)
        oracle = oracle_leximin(inst, require_complete=True)
        assert oracle.leximin.values == (1, 2, 3, 3, 3)
