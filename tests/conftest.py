import random

import pytest

from lexmatch import GenSpec, Instance, const2, generate


@pytest.fixture
def const2_triple_sorts(monkeypatch):
    """The key-less calls to sorted in lexmatch.const2: fast_const makes two
    for each compare that sorts triples, while the fans' sorts pass a key.
    Clear the list between solves."""
    calls = []

    def counting_sorted(values, **kwargs):
        if not kwargs:
            calls.append(values)
        return sorted(values, **kwargs)

    monkeypatch.setattr(const2, "sorted", counting_sorted, raising=False)
    return calls


@pytest.fixture
def ref_instance():
    """4x2 ranked-isometric reference instance used across the suite."""
    return Instance.from_matrix([[100, 10], [99, 9], [20, 4], [19, 3]])


def random_sizes(seed, count, n_max, m_max, n_min=1):
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, m_max)
        n = rng.randint(max(m, n_min), n_max)
        yield n, m, rng.randrange(10**6)


def random_instances(kind, seed, count, n_max, m_max, n_min=1, **kw):
    for n, m, s in random_sizes(seed, count, n_max, m_max, n_min=n_min):
        yield generate(GenSpec(kind=kind, n=n, m=m, seed=s, **kw))


def tableau(rng, n, m, hi):
    """The tableau family: a random strictly decreasing n x m grid that need
    not be row-separated (a student's worst value may fall below the next
    student's best).  n*m distinct values from [1, hi] are placed largest
    first, each into a uniformly random empty cell whose upper and left
    neighbours are filled; the grid is then both sides' values."""
    grid = [[] for _ in range(n)]
    for x in sorted(rng.sample(range(1, hi + 1), n * m), reverse=True):
        # row i's next empty cell is ready once the row above reaches past it
        ready = [
            i for i in range(n)
            if len(grid[i]) < m and (i == 0 or len(grid[i - 1]) > len(grid[i]))
        ]
        grid[rng.choice(ready)].append(x)
    return Instance.from_matrix(grid)
