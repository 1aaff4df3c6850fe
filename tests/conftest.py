import random

import pytest

from ghct.graph import Graph


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
