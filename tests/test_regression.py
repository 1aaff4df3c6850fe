"""Pinned outputs per (instance, method, seed).

Each case fixes the SHA-256 of the canonical tree file, the three
WorkCounter fields and the Las-Vegas attempt accounting.  A refactor that
keeps the algorithm, the order of random draws and the work accounting
leaves every row unchanged; anything else shows up here, even when two
runs of the same code still agree with each other.

To re-pin after an intended algorithm change, print `fingerprint(...)`
for every key of PINNED and paste the tuples back.
"""

import hashlib
import random

import pytest

from ghct.generators import cycle, erdos_renyi_m, grid
from ghct.ghtree import gomory_hu_classic
from ghct.graph import write_dimacs
from ghct.maxflow import WorkCounter
from ghct.pipeline import PipelineStats, gh_via_oc1, gh_via_weak_oc

INSTANCES = {
    "cycle12": lambda: cycle(12, random.Random(0)),
    "grid3x4": lambda: grid(3, 4, random.Random(0)),
    "er16": lambda: erdos_renyi_m(16, 40, random.Random(0)),
}


def fingerprint(instance: str, method: str, seed: int) -> tuple:
    """(tree sha256, calls, nodes_total, edges_total, invocations,
    attempts_total) for one run."""
    g = INSTANCES[instance]()
    counter = WorkCounter()
    stats = PipelineStats()
    rng = random.Random(seed)
    if method == "classic":
        tree = gomory_hu_classic(g, counter)
    elif method == "oc1":
        tree = gh_via_oc1(g, rng, counter, stats=stats)
    elif method == "weak-oc":
        tree = gh_via_weak_oc(g, rng, counter, stats=stats)
    elif method == "weak-oc-octree":
        tree = gh_via_weak_oc(g, rng, counter, stats=stats, certify="octree")
    else:
        raise ValueError(method)
    digest = hashlib.sha256(write_dimacs(tree.to_graph()).encode()).hexdigest()
    return (digest, counter.calls, counter.nodes_total, counter.edges_total,
            stats.invocations, stats.attempts_total)


PINNED = {
    ("cycle12", "classic", 0):
        ("5fbb8eefb0f573b68c27bfe55a7509505208487f1380226444492567792f6f21",
         11, 78, 78, 0, 0),
    ("cycle12", "classic", 1):
        ("5fbb8eefb0f573b68c27bfe55a7509505208487f1380226444492567792f6f21",
         11, 78, 78, 0, 0),
    ("cycle12", "oc1", 0):
        ("5fbb8eefb0f573b68c27bfe55a7509505208487f1380226444492567792f6f21",
         628, 4845, 4799, 7, 10),
    ("cycle12", "oc1", 1):
        ("5fbb8eefb0f573b68c27bfe55a7509505208487f1380226444492567792f6f21",
         465, 2766, 2700, 7, 11),
    ("cycle12", "weak-oc", 0):
        ("5fbb8eefb0f573b68c27bfe55a7509505208487f1380226444492567792f6f21",
         932, 5773, 5662, 9, 12),
    ("cycle12", "weak-oc", 1):
        ("5fbb8eefb0f573b68c27bfe55a7509505208487f1380226444492567792f6f21",
         6770, 38665, 37184, 9, 14),
    ("cycle12", "weak-oc-octree", 0):
        ("5fbb8eefb0f573b68c27bfe55a7509505208487f1380226444492567792f6f21",
         687, 3618, 3409, 7, 10),
    ("cycle12", "weak-oc-octree", 1):
        ("5fbb8eefb0f573b68c27bfe55a7509505208487f1380226444492567792f6f21",
         1828, 12273, 12110, 8, 10),
    ("grid3x4", "classic", 0):
        ("864b36b2f66861887daaec5ff000abe8a4e6f7ff13cb57070f2066a4af687fc7",
         11, 74, 105, 0, 0),
    ("grid3x4", "classic", 1):
        ("864b36b2f66861887daaec5ff000abe8a4e6f7ff13cb57070f2066a4af687fc7",
         11, 74, 105, 0, 0),
    ("grid3x4", "oc1", 0):
        ("864b36b2f66861887daaec5ff000abe8a4e6f7ff13cb57070f2066a4af687fc7",
         551, 3758, 5017, 6, 10),
    ("grid3x4", "oc1", 1):
        ("864b36b2f66861887daaec5ff000abe8a4e6f7ff13cb57070f2066a4af687fc7",
         277, 1771, 2341, 6, 12),
    ("grid3x4", "weak-oc", 0):
        ("864b36b2f66861887daaec5ff000abe8a4e6f7ff13cb57070f2066a4af687fc7",
         1072, 5112, 6916, 6, 9),
    ("grid3x4", "weak-oc", 1):
        ("864b36b2f66861887daaec5ff000abe8a4e6f7ff13cb57070f2066a4af687fc7",
         1254, 6327, 8331, 5, 8),
    ("grid3x4", "weak-oc-octree", 0):
        ("864b36b2f66861887daaec5ff000abe8a4e6f7ff13cb57070f2066a4af687fc7",
         1004, 4486, 5849, 5, 10),
    ("grid3x4", "weak-oc-octree", 1):
        ("864b36b2f66861887daaec5ff000abe8a4e6f7ff13cb57070f2066a4af687fc7",
         90, 744, 1007, 6, 6),
    ("er16", "classic", 0):
        ("96f7ae981770d20565cc9fca7ad87ce72c5be926c3fac2549abc337bfd5d7227",
         15, 185, 459, 0, 0),
    ("er16", "classic", 1):
        ("96f7ae981770d20565cc9fca7ad87ce72c5be926c3fac2549abc337bfd5d7227",
         15, 185, 459, 0, 0),
    ("er16", "oc1", 0):
        ("96f7ae981770d20565cc9fca7ad87ce72c5be926c3fac2549abc337bfd5d7227",
         1748, 13192, 27924, 5, 6),
    ("er16", "oc1", 1):
        ("96f7ae981770d20565cc9fca7ad87ce72c5be926c3fac2549abc337bfd5d7227",
         1342, 10303, 22032, 5, 5),
    ("er16", "weak-oc", 0):
        ("96f7ae981770d20565cc9fca7ad87ce72c5be926c3fac2549abc337bfd5d7227",
         1920, 15065, 32696, 7, 8),
    ("er16", "weak-oc", 1):
        ("96f7ae981770d20565cc9fca7ad87ce72c5be926c3fac2549abc337bfd5d7227",
         5016, 30512, 58703, 5, 7),
    ("er16", "weak-oc-octree", 0):
        ("96f7ae981770d20565cc9fca7ad87ce72c5be926c3fac2549abc337bfd5d7227",
         963, 8338, 18662, 7, 8),
    ("er16", "weak-oc-octree", 1):
        ("96f7ae981770d20565cc9fca7ad87ce72c5be926c3fac2549abc337bfd5d7227",
         2515, 17073, 34871, 5, 7),
}


@pytest.mark.parametrize("key", sorted(PINNED), ids=lambda k: "-".join(map(str, k)))
def test_output_and_work_are_pinned(key):
    assert fingerprint(*key) == PINNED[key]
