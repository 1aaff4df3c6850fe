"""Smoke test for `tests/identity.py`, the parent-vs-change comparison
script that pytest does not collect: its first graphs (one of each
family) still print well-formed, reproducible lines."""

import json

import identity

# One graph of each family.
GRAPHS = 6

ENGINE_KEYS = {"graph", "n", "m", "call", "s", "t", "members", "cost", "work"}
BUILD_KEYS = {"graph", "n", "m", "method", "seed", "tree", "work", "depth_stats",
              "invocations", "attempts_total", "attempts_max", "rng"}
WORK_KEYS = {"maxflow_calls", "nodes_total", "edges_total"}


def test_lines_are_json_with_the_expected_keys():
    rows = [json.loads(line) for line in identity.lines(GRAPHS)]
    builds = [row for row in rows if "method" in row]
    engine = [row for row in rows if "call" in row]
    assert len(builds) + len(engine) == len(rows)
    assert len(builds) == GRAPHS * len(identity.METHODS) * len(identity.SEEDS)
    assert {row["graph"] for row in rows} == set(range(GRAPHS))
    for row in builds:
        assert row.keys() == BUILD_KEYS
        assert row["work"].keys() == WORK_KEYS
        assert len(row["tree"]) == len(row["rng"]) == 64
    for row in engine:
        assert row.keys() == ENGINE_KEYS
        assert row["work"].keys() == WORK_KEYS
    assert {row["call"] for row in engine} == {"min_cut", "min_cut_minimal_sink",
                                              "min_cut groups"}


def test_two_runs_print_the_same_lines():
    assert list(identity.lines(GRAPHS)) == list(identity.lines(GRAPHS))

