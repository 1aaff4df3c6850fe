"""Print one JSON line per case, so two checkouts can be compared byte for byte.

A build case runs one method on one seeded graph: classic, oc1, weak-oc
and weak-oc with `certify="octree"`, each with seeds 0 and 1.  Its line
holds the SHA-256 of the canonical tree text, the work counter and
`depth_stats`, the attempt accounting and the SHA-256 of the random
generator's final state.  An engine case makes one `min_cut`,
`min_cut_minimal_sink` or `adj=` `min_cut` call on random sides of the
same graph and prints the cut and the work; the `adj=` call cuts a
random contraction of g kept as an adjacency over g's node indices,
takes and returns those indices, and prints its cut in the contraction's
labels (its line keeps the call name "min_cut groups").  An ordered-cuts
case solves one seeded random sequence of the graph's nodes with
`ordered_cuts` and prints the SHA-256 of the OC tree text
(`format_oc_tree`) and of its depth-1 flattening, and the work.

The 204 graphs are Erdos-Renyi by edge count and by probability, grids,
cycles, stars and trees plus noise, with at most 22 nodes and weights
from 0.  Pytest does not collect this file; `tests/test_identity.py`
runs its first graphs as a smoke test.  Run it from the root of each
checkout and compare:

    PYTHONPATH=src python3 tests/identity.py > a.jsonl   # one checkout
    PYTHONPATH=src python3 tests/identity.py > b.jsonl   # the other
    cmp a.jsonl b.jsonl

The README shows how to compare with the `work` key dropped, for a
change that moves the work on purpose.
"""

import hashlib
import json
import random

from ghct.generators import cycle, erdos_renyi, erdos_renyi_m, grid, random_tree_plus_noise, star
from ghct.ghtree import gomory_hu_classic
from ghct.graph import label_key, write_dimacs
from ghct.maxflow import WorkCounter, min_cut, min_cut_minimal_sink
from ghct.octree import flatten_to_star, format_oc_tree, ordered_cuts
from ghct.pipeline import PipelineStats, gh_via_oc1, gh_via_weak_oc

FAMILIES = (
    lambda rng, n, w: erdos_renyi_m(n, rng.randint(n - 1, 3 * n), rng, w),
    lambda rng, n, w: erdos_renyi(n, rng.uniform(0.1, 0.7), rng, w),
    lambda rng, n, w: grid(2 + n % 3, max(1, n // (2 + n % 3)), rng, w),
    lambda rng, n, w: cycle(n, rng, w),
    lambda rng, n, w: star(n, rng, w),
    lambda rng, n, w: random_tree_plus_noise(n, rng.randint(0, n), rng, w),
)
GRAPHS = 204
METHODS = ("classic", "oc1", "weak-oc", "weak-oc-octree")
SEEDS = (0, 1)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def members(side) -> list:
    return sorted(side, key=label_key)


def build(g, method: str, seed: int) -> dict:
    counter = WorkCounter()
    stats = PipelineStats()
    rng = random.Random(seed)
    depth_stats = {}
    if method == "classic":
        tree = gomory_hu_classic(g, counter, depth_stats=depth_stats)
    elif method == "oc1":
        tree = gh_via_oc1(g, rng, counter, stats=stats, depth_stats=depth_stats)
    else:
        certify = "octree" if method == "weak-oc-octree" else "isolating"
        tree = gh_via_weak_oc(g, rng, counter, stats=stats, certify=certify,
                              depth_stats=depth_stats)
    return {"method": method, "seed": seed,
            "tree": sha256(write_dimacs(tree.to_graph())),
            "work": counter.snapshot(),
            "depth_stats": sorted(depth_stats.items()),
            "invocations": stats.invocations,
            "attempts_total": stats.attempts_total,
            "attempts_max": stats.attempts_max,
            "rng": sha256(repr(rng.getstate()))}


def engine_cases(g, rng):
    """Plain calls on disjoint multi-node sides, and one call on a random
    contraction of g."""
    labels = list(g.labels)
    rng.shuffle(labels)
    k = rng.randint(1, len(labels) - 1)
    s_side, t_side = set(labels[:k]), set(labels[k:rng.randint(k + 1, len(labels))])
    for name, call in (("min_cut", min_cut), ("min_cut_minimal_sink", min_cut_minimal_sink)):
        counter = WorkCounter()
        cut = call(g, s_side, t_side, counter)
        yield {"call": name, "s": members(s_side), "t": members(t_side),
               "members": members(cut.members), "cost": cut.cost, "work": counter.snapshot()}
    rep_of = [lab if rng.random() < 0.5 else -rng.randint(1, 3) for lab in g.labels]
    h_labels = sorted(set(rep_of))
    if len(h_labels) > 1:
        s, t = rng.sample(h_labels, 2)
        # The contracted graph as a kept adjacency: each node of H is named
        # by the index of the first node of g in it.
        name = {}
        for i, lab in enumerate(rep_of):
            name.setdefault(lab, i)
        adj = {x: {} for x in name.values()}
        for iu, iv, w in g.edges:
            a, b = name[rep_of[iu]], name[rep_of[iv]]
            if a != b:
                adj[a][b] = adj[b][a] = adj[a].get(b, 0) + w
        counter = WorkCounter()
        cut = min_cut(g, {name[s]}, {name[t]}, counter, adj=adj)
        yield {"call": "min_cut groups", "s": [s], "t": [t],
               "members": members(rep_of[x] for x in cut.members),
               "cost": cut.cost, "work": counter.snapshot()}


def ordered_cuts_case(g, rng) -> dict:
    """One `ordered_cuts` call on a random sequence of at least two of
    g's nodes."""
    labels = members(g.labels)
    rng.shuffle(labels)
    sequence = labels[:rng.randint(2, len(labels))]
    counter = WorkCounter()
    tree = ordered_cuts(sequence, g, counter)
    star_text = "".join(f"{v} | {' '.join(str(x) for x in members(block))}\n"
                        for v, block in flatten_to_star(tree).items())
    return {"sequence": sequence, "oc_tree": sha256(format_oc_tree(tree)),
            "star": sha256(star_text), "work": counter.snapshot()}


def lines(graphs: int = GRAPHS):
    """The printed lines of the first `graphs` graphs, in order."""
    for i in range(graphs):
        rng = random.Random(i)
        n = rng.randint(2, 22)
        g = FAMILIES[i % len(FAMILIES)](rng, n, (0, rng.choice((1, 5, 16))))
        head = {"graph": i, "n": g.num_nodes, "m": g.num_edges}
        for case in engine_cases(g, rng):
            yield json.dumps({**head, **case}, sort_keys=True)
        yield json.dumps({**head, **ordered_cuts_case(g, rng)}, sort_keys=True)
        for method in METHODS:
            for seed in SEEDS:
                yield json.dumps({**head, **build(g, method, seed)}, sort_keys=True)


def main():
    for line in lines():
        print(line)


if __name__ == "__main__":
    main()
