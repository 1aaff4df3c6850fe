import random
import sys

import pytest

import ghct.cli  # noqa: F401  (loads every module of the package for the snapshot below)
from ghct.graph import Graph
from ghct.pipeline import perturb

# The ghct modules the test modules import, as they were when collected.
GHCT_MODULES = {name: module for name, module in sys.modules.items()
                if name == "ghct" or name.startswith("ghct.")}


@pytest.fixture(autouse=True)
def ghct_modules():
    """Put the collected ghct modules back into sys.modules before each test.

    The benchmark's tests re-import the package from its source tree.  A
    monkeypatch by dotted name, or a pickled function, looks its module up
    in sys.modules, and must find the module these tests hold.
    """
    sys.modules.update(GHCT_MODULES)


@pytest.fixture
def tri():
    """Triangle: w(1,2)=1, w(1,3)=2, w(2,3)=3."""
    return Graph([1, 2, 3], [(1, 2, 1), (1, 3, 2), (2, 3, 3)])


@pytest.fixture
def g2():
    """Single edge of weight 5."""
    return Graph([1, 2], [(1, 2, 5)])


@pytest.fixture
def p3():
    """Path 1-2-3 with weights 3, 2."""
    return Graph([1, 2, 3], [(1, 2, 3), (2, 3, 2)])


def random_graph(rng: random.Random, n: int, density: float = 0.6,
                 max_weight: int = 16) -> Graph:
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < density:
                edges.append((u, v, rng.randint(1, max_weight)))
    return Graph(range(1, n + 1), edges)


def connected_random_graph(rng: random.Random, n: int, density: float = 0.5,
                           max_weight: int = 16) -> Graph:
    """Random tree backbone plus density-sampled extras."""
    edges = []
    seen = set()
    for v in range(2, n + 1):
        u = rng.randint(1, v - 1)
        edges.append((u, v, rng.randint(1, max_weight)))
        seen.add((u, v))
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if (u, v) not in seen and rng.random() < density:
                edges.append((u, v, rng.randint(1, max_weight)))
    return Graph(range(1, n + 1), edges)


def scrambled(rng: random.Random, g: Graph) -> Graph:
    """g with its nodes in random construction order and, about half the
    time, tuple labels (some of them ("b", k)) instead of integers."""
    if rng.random() < 0.5:
        names = {v: v for v in g.labels}
    else:
        names = {v: (rng.choice("bv"), v) for v in g.labels}
    labels = [names[v] for v in g.labels]
    rng.shuffle(labels)
    return Graph(labels, [(names[u], names[v], w) for u, v, w in g.edge_labels()])


def perturbed(g: Graph, rng: random.Random) -> Graph:
    """g with the weights `pipeline.perturb` gives its adjacency, the
    offsets drawn in g's edge order."""
    h = perturb(g.adjacency, range(g.num_nodes), rng)
    labels = g.labels
    return Graph(labels, [(labels[x], labels[y], w) for x, row in h.items()
                          for y, w in row.items() if x < y])


def whole(g: Graph) -> tuple:
    """(h, nodes) that a strategy gets for g's one supernode before any
    split: g's adjacency over its node indices, in index order."""
    return g.adjacency, range(g.num_nodes)


def kept_cost(h: dict, side) -> int:
    """The cost of the cut `side` in the kept graph h."""
    return sum(w for x in side for y, w in h[x].items() if y not in side)
