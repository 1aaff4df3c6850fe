"""Pinned outputs per (instance, method, seed) and per (instance, order).

Each GH case fixes the SHA-256 of the canonical tree file, the three
WorkCounter fields, the Las-Vegas attempt accounting and the auxiliary
graph sizes summed per refinement depth.  One GH instance, scrambled12,
is built in an order that is not its label order and has tuple labels,
so a change that orders draws or ties by node index instead of label
rank shows up there.  Each OC-tree
case fixes, for one seeded random full permutation, the ordered-cut tree
text, its depth-1 flattening, the keys of both certified-cut modes and
the work of `ordered_cuts`.  Each isolating case fixes, for a seeded
source and terminal set, every isolating cut, the work and the number of
bipartition levels.  A refactor that
keeps the algorithm, the order of random draws and the work accounting
leaves every row unchanged; anything else shows up here, even when two
runs of the same code still agree with each other.

To re-pin after an intended algorithm change, run

    PYTHONPATH=src python3 tests/test_regression.py

from the repository root.  It prints PINNED, PINNED_OC and
PINNED_ISOLATING as source, every key re-fingerprinted, in the layout
below; paste the three tables over the ones in this file.
"""

import hashlib
import random

import pytest

from ghct.generators import cycle, erdos_renyi_m, grid
from ghct.ghtree import gomory_hu_classic
from ghct.graph import label_key, write_dimacs
from ghct.isolating import isolating_cuts_with_depth
from ghct.maxflow import WorkCounter
from ghct.octree import flatten_to_star, format_oc_tree, ordered_cuts
from ghct.pipeline import PipelineStats, certified_ordered_cuts, gh_via_oc1, \
    gh_via_weak_oc

from conftest import connected_random_graph, scrambled

INSTANCES = {
    "cycle12": lambda: cycle(12, random.Random(0)),
    "grid3x4": lambda: grid(3, 4, random.Random(0)),
    "er16": lambda: erdos_renyi_m(16, 40, random.Random(0)),
    "scrambled12": lambda: scrambled(
        random.Random(0), connected_random_graph(random.Random(0), 12, density=0.5)),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def tree_text(tree) -> str:
    """The tree's canonical DIMACS text, or the repr of its edges when its
    labels are not the integers 1..n."""
    if set(tree.nodes) == set(range(1, len(tree.nodes) + 1)):
        return write_dimacs(tree.to_graph())
    return repr(tree.edges)


def fingerprint(instance: str, method: str, seed: int) -> tuple:
    """(tree sha256, calls, nodes_total, edges_total, invocations,
    attempts_total, sorted depth_stats items) for one run."""
    g = INSTANCES[instance]()
    counter = WorkCounter()
    stats = PipelineStats()
    rng = random.Random(seed)
    depth_stats = {}
    if method == "classic":
        tree = gomory_hu_classic(g, counter, depth_stats=depth_stats)
    elif method == "oc1":
        tree = gh_via_oc1(g, rng, counter, stats=stats, depth_stats=depth_stats)
    elif method == "weak-oc":
        tree = gh_via_weak_oc(g, rng, counter, stats=stats, depth_stats=depth_stats)
    elif method == "weak-oc-octree":
        tree = gh_via_weak_oc(g, rng, counter, stats=stats, certify="octree",
                              depth_stats=depth_stats)
    else:
        raise ValueError(method)
    return (sha256(tree_text(tree)), counter.calls, counter.nodes_total, counter.edges_total,
            stats.invocations, stats.attempts_total,
            tuple((depth, tuple(sizes)) for depth, sizes in sorted(depth_stats.items())))


PINNED = {
    ("cycle12", "classic", 0):
        ("5fbb8eefb0f573b68c27bfe55a7509505208487f1380226444492567792f6f21",
         11, 78, 78, 0, 0,
         ((0, (12, 12)), (1, (14, 14)), (2, (13, 13)), (3, (9, 9)), (4, (8, 8)),
          (5, (7, 7)), (6, (6, 6)), (7, (5, 5)), (8, (4, 4)))),
    ("cycle12", "classic", 1):
        ("5fbb8eefb0f573b68c27bfe55a7509505208487f1380226444492567792f6f21",
         11, 78, 78, 0, 0,
         ((0, (12, 12)), (1, (14, 14)), (2, (13, 13)), (3, (9, 9)), (4, (8, 8)),
          (5, (7, 7)), (6, (6, 6)), (7, (5, 5)), (8, (4, 4)))),
    ("cycle12", "oc1", 0):
        ("5fbb8eefb0f573b68c27bfe55a7509505208487f1380226444492567792f6f21",
         57, 392, 396, 7, 8,
         ((0, (12, 12)), (1, (13, 13)), (2, (15, 15)))),
    ("cycle12", "oc1", 1):
        ("5fbb8eefb0f573b68c27bfe55a7509505208487f1380226444492567792f6f21",
         63, 403, 403, 7, 9,
         ((0, (12, 12)), (1, (13, 13)), (2, (15, 15)))),
    ("cycle12", "weak-oc", 0):
        ("5fbb8eefb0f573b68c27bfe55a7509505208487f1380226444492567792f6f21",
         37, 234, 235, 8, 8,
         ((0, (12, 12)), (1, (13, 13)), (2, (16, 16)), (3, (4, 4)))),
    ("cycle12", "weak-oc", 1):
        ("5fbb8eefb0f573b68c27bfe55a7509505208487f1380226444492567792f6f21",
         219, 1636, 1657, 8, 10,
         ((0, (12, 12)), (1, (16, 16)), (2, (13, 13)), (3, (4, 4)))),
    ("cycle12", "weak-oc-octree", 0):
        ("5fbb8eefb0f573b68c27bfe55a7509505208487f1380226444492567792f6f21",
         19, 112, 112, 8, 8,
         ((0, (12, 12)), (1, (16, 16)), (2, (13, 13)), (3, (4, 4)))),
    ("cycle12", "weak-oc-octree", 1):
        ("5fbb8eefb0f573b68c27bfe55a7509505208487f1380226444492567792f6f21",
         114, 836, 841, 8, 11,
         ((0, (12, 12)), (1, (16, 16)), (2, (12, 12)), (3, (4, 4)))),
    ("grid3x4", "classic", 0):
        ("864b36b2f66861887daaec5ff000abe8a4e6f7ff13cb57070f2066a4af687fc7",
         11, 74, 105, 0, 0,
         ((0, (12, 17)), (1, (12, 17)), (2, (14, 20)), (3, (13, 19)), (4, (14, 20)),
          (5, (6, 9)), (6, (3, 3)))),
    ("grid3x4", "classic", 1):
        ("864b36b2f66861887daaec5ff000abe8a4e6f7ff13cb57070f2066a4af687fc7",
         11, 74, 105, 0, 0,
         ((0, (12, 17)), (1, (12, 17)), (2, (14, 20)), (3, (13, 19)), (4, (14, 20)),
          (5, (6, 9)), (6, (3, 3)))),
    ("grid3x4", "oc1", 0):
        ("864b36b2f66861887daaec5ff000abe8a4e6f7ff13cb57070f2066a4af687fc7",
         46, 361, 497, 6, 6,
         ((0, (12, 17)), (1, (13, 16)), (2, (7, 9)))),
    ("grid3x4", "oc1", 1):
        ("864b36b2f66861887daaec5ff000abe8a4e6f7ff13cb57070f2066a4af687fc7",
         43, 341, 474, 6, 6,
         ((0, (12, 17)), (1, (13, 16)), (2, (7, 9)))),
    ("grid3x4", "weak-oc", 0):
        ("864b36b2f66861887daaec5ff000abe8a4e6f7ff13cb57070f2066a4af687fc7",
         90, 585, 815, 5, 8,
         ((0, (12, 17)), (1, (13, 16)), (2, (7, 10)))),
    ("grid3x4", "weak-oc", 1):
        ("864b36b2f66861887daaec5ff000abe8a4e6f7ff13cb57070f2066a4af687fc7",
         121, 739, 1057, 7, 12,
         ((0, (12, 17)), (1, (14, 20)), (2, (13, 19)), (3, (9, 12)))),
    ("grid3x4", "weak-oc-octree", 0):
        ("864b36b2f66861887daaec5ff000abe8a4e6f7ff13cb57070f2066a4af687fc7",
         18, 109, 147, 5, 6,
         ((0, (12, 17)), (1, (14, 20)), (2, (10, 13)))),
    ("grid3x4", "weak-oc-octree", 1):
        ("864b36b2f66861887daaec5ff000abe8a4e6f7ff13cb57070f2066a4af687fc7",
         13, 77, 101, 6, 6,
         ((0, (12, 17)), (1, (14, 20)), (2, (10, 13)), (3, (6, 9)))),
    ("er16", "classic", 0):
        ("96f7ae981770d20565cc9fca7ad87ce72c5be926c3fac2549abc337bfd5d7227",
         15, 185, 459, 0, 0,
         ((0, (16, 40)), (1, (16, 40)), (2, (16, 40)), (3, (15, 38)), (4, (17, 38)),
          (5, (14, 35)), (6, (14, 35)), (7, (16, 36)), (8, (13, 33)), (9, (12, 31)),
          (10, (12, 31)), (11, (12, 31)), (12, (12, 31)))),
    ("er16", "classic", 1):
        ("96f7ae981770d20565cc9fca7ad87ce72c5be926c3fac2549abc337bfd5d7227",
         15, 185, 459, 0, 0,
         ((0, (16, 40)), (1, (16, 40)), (2, (16, 40)), (3, (15, 38)), (4, (17, 38)),
          (5, (14, 35)), (6, (14, 35)), (7, (16, 36)), (8, (13, 33)), (9, (12, 31)),
          (10, (12, 31)), (11, (12, 31)), (12, (12, 31)))),
    ("er16", "oc1", 0):
        ("96f7ae981770d20565cc9fca7ad87ce72c5be926c3fac2549abc337bfd5d7227",
         98, 1114, 2571, 5, 5,
         ((0, (16, 40)), (1, (12, 12)))),
    ("er16", "oc1", 1):
        ("96f7ae981770d20565cc9fca7ad87ce72c5be926c3fac2549abc337bfd5d7227",
         98, 1109, 2560, 5, 6,
         ((0, (16, 40)), (1, (12, 12)))),
    ("er16", "weak-oc", 0):
        ("96f7ae981770d20565cc9fca7ad87ce72c5be926c3fac2549abc337bfd5d7227",
         43, 448, 1022, 5, 5,
         ((0, (16, 40)), (1, (22, 42)))),
    ("er16", "weak-oc", 1):
        ("96f7ae981770d20565cc9fca7ad87ce72c5be926c3fac2549abc337bfd5d7227",
         272, 2984, 6856, 6, 9,
         ((0, (16, 40)), (1, (20, 42)), (2, (12, 31)), (3, (12, 31)))),
    ("er16", "weak-oc-octree", 0):
        ("96f7ae981770d20565cc9fca7ad87ce72c5be926c3fac2549abc337bfd5d7227",
         27, 292, 672, 5, 5,
         ((0, (16, 40)), (1, (22, 42)))),
    ("er16", "weak-oc-octree", 1):
        ("96f7ae981770d20565cc9fca7ad87ce72c5be926c3fac2549abc337bfd5d7227",
         138, 1502, 3445, 6, 9,
         ((0, (16, 40)), (1, (20, 42)), (2, (12, 31)), (3, (12, 31)))),
    ("scrambled12", "oc1", 0):
        ("80178cc4fbbe82112357dc21e2b6110999529caf113b8dea68dba30d9118e93c",
         43, 390, 847, 2, 2,
         ((0, (12, 30)), (1, (3, 3)))),
    ("scrambled12", "oc1", 1):
        ("80178cc4fbbe82112357dc21e2b6110999529caf113b8dea68dba30d9118e93c",
         77, 730, 1626, 2, 3,
         ((0, (12, 30)), (1, (3, 3)))),
    ("scrambled12", "weak-oc", 0):
        ("c46c72172eb180451d830061a8ff4b695e4c2c36128d339c91d2b8a24af50775",
         101, 895, 2008, 3, 5,
         ((0, (12, 30)), (1, (12, 30)), (2, (11, 28)))),
    ("scrambled12", "weak-oc", 1):
        ("074f46265d03ae0d75d781fae029655a9461e58f4d7e716c7bf15506385d4f9b",
         98, 911, 2073, 3, 5,
         ((0, (12, 30)), (1, (12, 30)), (2, (12, 30)))),
    ("scrambled12", "weak-oc-octree", 0):
        ("c46c72172eb180451d830061a8ff4b695e4c2c36128d339c91d2b8a24af50775",
         57, 492, 1085, 3, 5,
         ((0, (12, 30)), (1, (12, 30)), (2, (11, 28)))),
    ("scrambled12", "weak-oc-octree", 1):
        ("074f46265d03ae0d75d781fae029655a9461e58f4d7e716c7bf15506385d4f9b",
         64, 577, 1289, 3, 5,
         ((0, (12, 30)), (1, (12, 30)), (2, (12, 30)))),
}


@pytest.mark.parametrize("key", sorted(PINNED), ids=lambda k: "-".join(map(str, k)))
def test_output_and_work_are_pinned(key):
    assert fingerprint(*key) == PINNED[key]


def oc_fingerprint(instance: str, perm_seed: int) -> tuple:
    """(OC tree text sha256, star sha256, octree-certified keys,
    isolating-certified keys, calls, nodes_total, edges_total) for one
    seeded random full permutation."""
    g = INSTANCES[instance]()
    order = sorted(g.labels)
    random.Random(perm_seed).shuffle(order)
    counter = WorkCounter()
    tree = ordered_cuts(order, g, counter)
    star_text = "".join(
        f"{v} | {' '.join(str(x) for x in sorted(block, key=label_key))}\n"
        for v, block in flatten_to_star(tree).items())
    s, seq = order[0], order[1:]
    keys = tuple(tuple(certified_ordered_cuts(s, seq, g, WorkCounter(), certify)[1])
                 for certify in ("octree", "isolating"))
    return (sha256(format_oc_tree(tree)), sha256(star_text), *keys,
            counter.calls, counter.nodes_total, counter.edges_total)


PINNED_OC = {
    ("cycle12", 0):
        ("fff48f45ff618e64b5b5f25aad385bdabceab1f968f59bea5d8e5322a2e91abd",
         "820d146f9e4a03259eeff4f11d4aa906c37697e5c5512484f6f8fbfe5f085e6a",
         (10,), (), 5, 34, 34),
    ("cycle12", 1):
        ("3aa5de35b9c536aa72d1a73211bfbf559725965c900ba883231a3340fe5cd950",
         "67f87427a95b7de39ef5c70468d4d6ff6d807f5670d44443f06f7457a21a5a0c",
         (12,), (), 5, 33, 34),
    ("grid3x4", 0):
        ("0ac5f4eabdd5c7b6e96b63881fd57c5e544f8639e05d50d982dd3950e446e5dd",
         "aadf15419d7e857174d4a8898456c06c1e2565c8b989e500c32c90ca643e7b24",
         (10, 12), (10, 12), 7, 58, 83),
    ("grid3x4", 1):
        ("8eb7aedb2b2d668a0625dcb0281cdaa23f1fbc51d4de01507975463d2ac0b483",
         "58bd449da9cf02a86001bde69f56029a58dc7e845f0e48833ebf31c731ac005e",
         (12, 1), (12,), 7, 47, 64),
    ("er16", 0):
        ("8cf3ef3c240f1db172b42ab82dda823e59bc3aa9c104d3c4b15bc65cdacbec17",
         "070b0de26f96bdabcd8260f585d589c03045a0931999452ad52813f03da406bd",
         (15, 6, 1), (1, 6, 15), 13, 126, 286),
    ("er16", 1):
        ("90f10e54db4f2b1d54c4a310831cc7fbedbe678772b6051a4d7e56e244d4550a",
         "4050143bd3916bb8f46e54d3fe9a4fdb98d6714769f34cd14884001ceb11c693",
         (1, 6), (1, 11), 10, 87, 184),
}


@pytest.mark.parametrize("key", sorted(PINNED_OC), ids=lambda k: "-".join(map(str, k)))
def test_oc_tree_outputs_are_pinned(key):
    assert oc_fingerprint(*key) == PINNED_OC[key]


def isolating_fingerprint(instance: str, seed: int) -> tuple:
    """(sha256 of the sorted (terminal, members, cost) rows, calls,
    nodes_total, edges_total, depth) for one seeded random permutation:
    its first node is the source, every second node after it a terminal."""
    g = INSTANCES[instance]()
    order = sorted(g.labels)
    random.Random(seed).shuffle(order)
    counter = WorkCounter()
    cuts, depth = isolating_cuts_with_depth(order[0], order[1::2], g, counter)
    rows = "".join(
        f"{v} | {' '.join(str(x) for x in sorted(cut.members, key=label_key))} | {cut.cost}\n"
        for v, cut in sorted(cuts.items()))
    return (sha256(rows), counter.calls, counter.nodes_total, counter.edges_total, depth)


PINNED_ISOLATING = {
    ("cycle12", 0):
        ("0776ee7345cb941797d517a2eee93e1a9fea1b6354182ec3f31fbbef60f0ea36",
         5, 35, 36, 3),
    ("cycle12", 1):
        ("a47875eb06cfb6128a90b705892c9c90671553097df69f2d1073704acb5bb4dc",
         3, 26, 26, 3),
    ("grid3x4", 0):
        ("28663d933c5509ec99daab1aae47e48966cf3a1f45f114a18beb5cc4cdbbb825",
         6, 38, 49, 3),
    ("grid3x4", 1):
        ("539aa95d78f0d0334831c0bf6d837bf4c0775e8c0495a2dd12249b6c9e17cec6",
         3, 25, 36, 3),
    ("er16", 0):
        ("ce72c234eccd076c7c590315cd9c3ecd7732038e0cb05b284e690edd5ab60f16",
         4, 43, 91, 3),
    ("er16", 1):
        ("7ef42e9e3e38fdb2b790cb158f4f466a501670069ffc35be51419616a79116c3",
         7, 57, 119, 3),
}


@pytest.mark.parametrize("key", sorted(PINNED_ISOLATING),
                         ids=lambda k: "-".join(map(str, k)))
def test_isolating_cuts_are_pinned(key):
    assert isolating_fingerprint(*key) == PINNED_ISOLATING[key]


def _src(value) -> str:
    """repr with double-quoted strings, as the tables above are written."""
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, tuple):
        inner = ", ".join(map(_src, value))
        return f"({inner},)" if len(value) == 1 else f"({inner})"
    return repr(value)


def pin_source(name: str, table: dict, fingerprint_of, width: int = 88) -> str:
    """`name = {...}` with every key of `table` re-fingerprinted: hashes on
    their own lines, then the counts, then tuple rows packed to `width`."""
    lines = [f"{name} = {{"]
    for key in table:
        lines.append(f"    {_src(key)}:")
        groups = []  # (indent, items); each group starts a new line
        counts = None  # the open group of counts, if the last field was one
        for field in fingerprint_of(*key):
            if isinstance(field, tuple) and field and all(isinstance(x, tuple) for x in field):
                items = [_src(x) for x in field]
                items[0], items[-1] = "(" + items[0], items[-1] + ")"
                groups.append((10, items))
                counts = None
            elif isinstance(field, str):
                groups.append((9, [_src(field)]))
                counts = None
            elif counts is None:
                counts = [_src(field)]
                groups.append((9, counts))
            else:
                counts.append(_src(field))
        body = []
        for indent, items in groups:
            body.append(" " * 9 + items[0])
            for item in items[1:]:
                if len(body[-1]) + len(item) + 3 > width:
                    body[-1] += ","
                    body.append(" " * indent + item)
                else:
                    body[-1] += ", " + item
            body[-1] += ","
        body[0] = " " * 8 + "(" + body[0].lstrip()
        body[-1] = body[-1][:-1] + "),"
        lines.extend(body)
    lines.append("}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(pin_source("PINNED", PINNED, fingerprint), end="\n\n\n")
    print(pin_source("PINNED_OC", PINNED_OC, oc_fingerprint), end="\n\n\n")
    print(pin_source("PINNED_ISOLATING", PINNED_ISOLATING, isolating_fingerprint))
