import concurrent.futures
import json
import math
import os
import pickle
import random

import pytest

from ghct import cli, oracle
from ghct.cli import MAX_SCALING_SIZE, main
from ghct.graph import MAX_DIMACS_NODES, Graph, parse_dimacs, write_dimacs
from ghct.maxflow import WorkCounter
from ghct.octree import OCTree
from ghct.generators import cycle, erdos_renyi, erdos_renyi_m, grid, random_tree_plus_noise, \
    star

from conftest import random_graph

TRI_TEXT = "p ghct 3 3\ne 1 2 1\ne 1 3 2\ne 2 3 3\n"


@pytest.fixture
def tri_file(tmp_path):
    path = tmp_path / "tri.dimacs"
    path.write_text(TRI_TEXT)
    return path


# --stats-out targets that cannot be written, relative to the directory
# holding tri.dimacs, with the reason each is refused.
UNWRITABLE_STATS = [("missing/s.json", "No such file or directory"),
                    ("tri.dimacs/s.json", "Not a directory"),
                    (".", "Is a directory")]


def _assert_unwritable_stats_writes_nothing(argv, tmp_path, capsys, target, reason,
                                            with_out):
    """`argv` with an unwritable --stats-out exits 1 before writing any tree."""
    out = tmp_path / "tree.txt"
    stats = tmp_path / target
    argv = argv + ["--stats-out", str(stats)] + (["--out", str(out)] if with_out else [])
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {stats}: {reason}\n")
    assert not out.exists()


class TestCompute:
    def test_classic_tree_file(self, tri_file, tmp_path):
        out = tmp_path / "tree.dimacs"
        stats = tmp_path / "stats.json"
        code = main(["compute", str(tri_file), "--method", "classic",
                     "--out", str(out), "--stats-out", str(stats)])
        assert code == 0
        assert out.read_text() == (
            "c method=classic seed=0\np ghct 3 2\ne 1 3 3\ne 2 3 4\n")
        payload = json.loads(stats.read_text())
        assert payload["maxflow_calls"] >= 2
        assert payload["seed"] == 0
        assert payload["attempts"] == 0
        assert payload["invocations"] == payload["attempts_total"] == 0

    def test_weak_oc_stats_count_invocations(self, tri_file, tmp_path):
        stats = tmp_path / "stats.json"
        assert main(["compute", str(tri_file), "--method", "weak-oc",
                     "--out", str(tmp_path / "tree.dimacs"),
                     "--stats-out", str(stats)]) == 0
        payload = json.loads(stats.read_text())
        # One source selection per split supernode, each at least one attempt.
        assert 1 <= payload["invocations"] <= payload["attempts_total"]
        assert payload["attempts"] <= payload["attempts_total"]

    @pytest.mark.parametrize("method", ["classic", "oc1", "weak-oc"])
    def test_same_seed_byte_identical(self, tri_file, tmp_path, method):
        outs, stats = [], []
        for tag in ("a", "b"):
            out = tmp_path / f"tree-{tag}.dimacs"
            st = tmp_path / f"stats-{tag}.json"
            assert main(["compute", str(tri_file), "--method", method,
                         "--seed", "7", "--out", str(out),
                         "--stats-out", str(st)]) == 0
            outs.append(out.read_bytes())
            payload = json.loads(st.read_text())
            payload.pop("wall_ms")
            stats.append(json.dumps(payload))
        assert outs[0] == outs[1]
        assert stats[0] == stats[1]
        depth_stats = json.loads(stats[0])["depth_stats"]
        assert list(depth_stats) == [str(d) for d in range(len(depth_stats))]
        assert depth_stats["0"] == [3, 3]

    def test_malformed_input_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.dimacs"
        bad.write_text("p ghct 2 1\ne 1 5 3\n")
        assert main(["compute", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_node_count_over_the_cap_exits_1(self, tmp_path, capsys):
        # Rejected at the header, before any per-node allocation.
        big = tmp_path / "big.dimacs"
        big.write_text(f"p ghct {MAX_DIMACS_NODES + 1} 0\n")
        assert main(["compute", str(big)]) == 1
        assert capsys.readouterr() == ("", f"error: {big}: line 1: node count must be"
                                           f" in 1..{MAX_DIMACS_NODES}\n")

    def test_unreadable_input_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "missing.dimacs"
        assert main(["compute", str(missing)]) == 1
        assert capsys.readouterr().err == (
            f"error: {missing}: No such file or directory\n")

    def test_tree_to_stdout_by_default(self, tri_file, capsys):
        assert main(["compute", str(tri_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("c method=classic seed=0\np ghct 3 2\n")

    def test_attempt_cap_exits_2(self, tri_file, tmp_path):
        out = tmp_path / "tree.dimacs"
        code = main(["compute", str(tri_file), "--method", "oc1",
                     "--max-attempts", "0", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_env_var_overrides_cap(self, tri_file, tmp_path, monkeypatch):
        monkeypatch.setenv("OC_MAX_ATTEMPTS", "0")
        out = tmp_path / "tree.dimacs"
        assert main(["compute", str(tri_file), "--method", "weak-oc",
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_non_integer_env_cap_exits_1(self, tri_file, tmp_path, monkeypatch,
                                         capsys):
        monkeypatch.setenv("OC_MAX_ATTEMPTS", "abc")
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "tri.dimacs").write_text(TRI_TEXT)
        for argv in (["compute", str(tri_file), "--method", "oc1"],
                     ["bench", str(corpus), "--methods", "oc1"]):
            assert main(argv) == 1
            assert capsys.readouterr().err == (
                "error: OC_MAX_ATTEMPTS must be a non-negative integer, got 'abc'\n")

    def test_negative_cap_flag_exits_1(self, tri_file, tmp_path, capsys):
        out = tmp_path / "tree.dimacs"
        assert main(["compute", str(tri_file), "--method", "oc1",
                     "--max-attempts", "-4", "--out", str(out)]) == 1
        assert "max_attempts" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_flag_value_exits_1(self, tri_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", str(tri_file), "--seed", "abc"])
        assert exc.value.code == 1
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        ("compute", "--out"), ("compute", "--stats-out"),
        ("ordered-cuts", "--out"), ("ordered-cuts", "--stats-out")])
    def test_unwritable_output_exits_1(self, tri_file, tmp_path, capsys, command, flag):
        target = tmp_path / "missing" / "out.txt"
        assert main([command, str(tri_file), flag, str(target)]) == 1
        assert capsys.readouterr().err == f"error: {target}: No such file or directory\n"

    @pytest.mark.parametrize("with_out", [True, False])
    @pytest.mark.parametrize("target, reason", UNWRITABLE_STATS)
    def test_unwritable_stats_writes_no_tree(self, tri_file, tmp_path, capsys, target,
                                             reason, with_out):
        _assert_unwritable_stats_writes_nothing(
            ["compute", str(tri_file), "--method", "oc1"], tmp_path, capsys, target,
            reason, with_out)

    def test_compute_then_verify_roundtrip(self, tmp_path):
        rng = random.Random(55)
        for trial in range(3):
            g = random_graph(rng, rng.randint(2, 10))
            src = tmp_path / f"g{trial}.dimacs"
            src.write_text(write_dimacs(g))
            for method in ("classic", "oc1", "weak-oc"):
                out = tmp_path / f"t{trial}-{method}.dimacs"
                assert main(["compute", str(src), "--method", method,
                             "--seed", str(trial), "--out", str(out)]) == 0
                assert main(["verify", str(src), str(out)]) == 0


class TestVerify:
    def test_good_tree_exits_0(self, tri_file, tmp_path):
        tree = tmp_path / "tree.dimacs"
        tree.write_text("p ghct 3 2\ne 1 3 3\ne 2 3 4\n")
        assert main(["verify", str(tri_file), str(tree)]) == 0

    def test_bad_tree_exits_3_with_report(self, tri_file, tmp_path, capsys):
        tree = tmp_path / "tree.dimacs"
        tree.write_text("p ghct 3 2\ne 1 2 3\ne 2 3 4\n")
        assert main(["verify", str(tri_file), str(tree)]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["violations"]

    def test_node_set_mismatch_exits_1(self, tri_file, tmp_path):
        tree = tmp_path / "tree.dimacs"
        for text in ("p ghct 2 1\ne 1 2 5\n", "p ghct 4 2\ne 1 2 5\ne 2 3 1\n"):
            tree.write_text(text)
            assert main(["verify", str(tri_file), str(tree)]) == 1

    def test_non_tree_edge_count_exits_1(self, tri_file, tmp_path):
        tree = tmp_path / "tree.dimacs"
        tree.write_text("p ghct 3 3\ne 1 2 1\ne 1 3 2\ne 2 3 3\n")
        assert main(["verify", str(tri_file), str(tree)]) == 1

    def test_cycle_with_n_minus_1_edges_exits_1(self, tmp_path, capsys):
        graph = tmp_path / "g.dimacs"
        graph.write_text("p ghct 4 4\ne 1 2 1\ne 2 3 1\ne 3 4 1\ne 1 4 1\n")
        tree = tmp_path / "tree.dimacs"
        tree.write_text("p ghct 4 3\ne 1 2 2\ne 2 3 2\ne 1 3 2\n")
        assert main(["verify", str(graph), str(tree)]) == 1
        assert capsys.readouterr() == ("", "error: tree is not connected\n")


class TestOrderedCutsCommand:
    def test_explicit_sequence(self, tri_file, tmp_path):
        out = tmp_path / "oc.txt"
        assert main(["ordered-cuts", str(tri_file), "--sequence", "1,2,3",
                     "--out", str(out), "--check"]) == 0
        assert out.read_text() == "1 - | 1\n2 1 | 2\n3 2 | 3\n"

    def test_random_permutation_deterministic(self, tri_file, tmp_path):
        texts = []
        for tag in ("a", "b"):
            out = tmp_path / f"oc-{tag}.txt"
            assert main(["ordered-cuts", str(tri_file), "--seed", "3",
                         "--out", str(out)]) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]

    def test_unknown_sequence_node(self, tri_file):
        assert main(["ordered-cuts", str(tri_file), "--sequence", "1,9"]) == 1

    def test_repeated_sequence_node(self, tri_file, capsys):
        assert main(["ordered-cuts", str(tri_file), "--sequence", "1,1"]) == 1
        assert capsys.readouterr().err == "error: --sequence nodes must be distinct\n"

    def test_empty_sequence_exits_1(self, tri_file, tmp_path, capsys):
        out = tmp_path / "oc.txt"
        assert main(["ordered-cuts", str(tri_file), "--sequence", "",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: --sequence must be comma-separated integers\n")
        assert not out.exists()

    def test_failed_check_exits_3(self, tri_file, tmp_path, capsys, monkeypatch):
        # Node 2's block {2} costs 4; the minimum 1-2 cut {2, 3} costs 3.
        wrong = OCTree((1, 2, 3), {2: 1, 3: 1}, {1: {1}, 2: {2}, 3: {3}}, {2: 4, 3: 5})
        monkeypatch.setattr("ghct.cli.ordered_cuts", lambda order, g, counter: wrong)
        out = tmp_path / "oc.txt"
        assert main(["ordered-cuts", str(tri_file), "--sequence", "1,2,3",
                     "--out", str(out), "--check"]) == 3
        assert capsys.readouterr().err.startswith(
            "error: produced tree failed validation:")
        assert not out.exists()

    def test_stats_out(self, tmp_path):
        # On a triangle every cut has at most one free node and is read off
        # without a flow, so the stats would count no engine call: cut a
        # 6-cycle with weights 1..6 instead.
        graph = tmp_path / "cycle6.dimacs"
        graph.write_text("p ghct 6 6\n" + "".join(f"e {i} {i % 6 + 1} {i}\n"
                                                  for i in range(1, 7)))
        out = tmp_path / "oc.txt"
        stats = tmp_path / "oc-stats.json"
        assert main(["ordered-cuts", str(graph), "--sequence", "1,2,3,4,5,6",
                     "--out", str(out), "--stats-out", str(stats)]) == 0
        payload = json.loads(stats.read_text())
        assert payload["maxflow_calls"] >= 2
        assert payload["nodes_total"] > 0

    @pytest.mark.parametrize("with_out", [True, False])
    @pytest.mark.parametrize("target, reason", UNWRITABLE_STATS)
    def test_unwritable_stats_writes_no_tree(self, tri_file, tmp_path, capsys, target,
                                             reason, with_out):
        _assert_unwritable_stats_writes_nothing(
            ["ordered-cuts", str(tri_file), "--sequence", "1,2,3"], tmp_path, capsys,
            target, reason, with_out)


class TestBench:
    def test_empty_corpus_exits_1(self, tmp_path, capsys):
        empty = tmp_path / "corpus"
        empty.mkdir()
        assert main(["bench", str(empty)]) == 1
        assert "no .dimacs" in capsys.readouterr().err

    def test_attempt_cap_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "tri.dimacs").write_text(TRI_TEXT)
        report = tmp_path / "rows.json"
        assert main(["bench", str(corpus), "--methods", "oc1", "--max-attempts", "0",
                     "--report", str(report)]) == 2
        assert capsys.readouterr().err.startswith("error: attempt cap reached:")
        assert not report.exists()

    def test_bad_seed_list_exits_1(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "tri.dimacs").write_text(TRI_TEXT)
        assert main(["bench", str(corpus), "--seeds", "0,abc"]) == 1
        assert capsys.readouterr().err == (
            "error: --seeds must be comma-separated integers\n")

    @pytest.mark.parametrize("size", ["0", "1", str(MAX_SCALING_SIZE + 1)])
    def test_scaling_size_below_2_exits_1(self, tmp_path, capsys, size):
        corpus = tmp_path / "corpus"
        with pytest.raises(SystemExit) as exc:
            main(["bench", str(corpus), "--generate", "--scaling-sizes", size])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--scaling-sizes: expected an integer of at least 2" in err
        assert not corpus.exists()

    @pytest.mark.parametrize("jobs", [0, (os.cpu_count() or 1) + 1])
    def test_jobs_out_of_range_exits_1(self, tmp_path, capsys, jobs):
        # Rejected while parsing, before any worker pool exists.
        with pytest.raises(SystemExit) as exc:
            main(["bench", str(tmp_path / "missing"), "--jobs", str(jobs)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--jobs: expected an integer of at least 1" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--seeds", "", "--seeds must be comma-separated integers"),
        ("--methods", ",", "--methods must name at least one of classic, oc1, weak-oc"),
        ("--seeds", "0,1,00", "--seeds repeats 0"),
        ("--methods", "classic, oc1,classic", "--methods repeats 'classic'")],
        ids=["seeds", "methods", "repeated-seed", "repeated-method"])
    def test_empty_list_exits_1(self, tmp_path, capsys, flag, value, message):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "tri.dimacs").write_text(TRI_TEXT)
        report = tmp_path / "rows.json"
        assert main(["bench", str(corpus), "--generate", flag, value,
                     "--report", str(report)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not report.exists()
        assert [path.name for path in corpus.iterdir()] == ["tri.dimacs"]  # nothing generated

    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    def test_unwritable_report_exits_1(self, tmp_path, capsys, suffix):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "tri.dimacs").write_text(TRI_TEXT)
        report = tmp_path / "missing" / f"rows{suffix}"
        assert main(["bench", str(corpus), "--methods", "classic", "--seeds", "0",
                     "--report", str(report)]) == 1
        out, err = capsys.readouterr()
        assert err == f"error: {report}: No such file or directory\n"
        assert "bench:" not in out

    def test_generate_into_a_file_exits_1(self, tri_file, capsys):
        assert main(["bench", str(tri_file), "--generate"]) == 1
        assert capsys.readouterr().err == f"error: {tri_file}: File exists\n"

    def test_verify_computes_each_reference_once(self, tmp_path, monkeypatch):
        # Sizes above the pairwise enumeration limit, so the reference
        # is n-1 flows on the oracle's counter.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        sizes = (13, 16)
        for n in sizes:
            g = erdos_renyi_m(n, 3 * n, random.Random(n))
            (corpus / f"er{n}.dimacs").write_text(write_dimacs(g))
        shared = WorkCounter()
        monkeypatch.setattr(oracle, "WorkCounter", lambda: shared)
        report = tmp_path / "rows.json"
        assert main(["bench", str(corpus), "--methods", "classic,oc1", "--seeds", "0,1",
                     "--verify", "--report", str(report)]) == 0
        rows = json.loads(report.read_text())["rows"]
        assert len(rows) == 2 * 2 * len(sizes)
        assert all(row["verified"] is True for row in rows)
        assert shared.calls == sum(n - 1 for n in sizes)

    def test_one_node_graph_skipped_in_scaling_fit(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "erdos-renyi_n1.dimacs").write_text("p ghct 1 0\n")
        (corpus / "erdos-renyi_n3.dimacs").write_text(TRI_TEXT)
        report = tmp_path / "report.json"
        assert main(["bench", str(corpus), "--methods", "classic", "--seeds", "0",
                     "--report", str(report)]) == 0
        scaling = json.loads(report.read_text())["oc_scaling"]
        assert scaling["nodes_total_by_n"].keys() == {"3"}

    def test_scaling_points_without_work_left_out_of_fit(self, tmp_path, capsys):
        # On 2 and 3 nodes every ordered cut is read off without a flow:
        # the points are reported with work 0, and the fit uses only the
        # weighted family, whose 16- and 32-node points have work.
        corpus = tmp_path / "corpus"
        report = tmp_path / "report.json"
        assert main(["bench", str(corpus), "--generate", "--scaling-sizes", "2", "3",
                     "--methods", "classic", "--seeds", "0",
                     "--report", str(report)]) == 0
        scaling = json.loads(report.read_text())["oc_scaling"]
        by_n = scaling["nodes_total_by_n"]
        assert by_n["2"] == by_n["3"] == {"erdos-renyi-unit": [0]}
        (w16,), (w32,) = by_n["16"]["erdos-renyi"], by_n["32"]["erdos-renyi"]
        assert scaling["fitted_exponent"] == pytest.approx(math.log(w32 / w16) / math.log(2))

    def test_generated_corpus_runs(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        report = tmp_path / "report.json"
        code = main(["bench", str(corpus), "--generate",
                     "--scaling-sizes", "32", "64",
                     "--methods", "classic,oc1", "--seeds", "0",
                     "--report", str(report)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "0.584" in captured
        payload = json.loads(report.read_text())
        families = {"erdos-renyi", "grid", "cycle", "star",
                    "random-tree-plus-noise"}
        names = {row["instance"].split("_")[0] for row in payload["rows"]}
        assert families <= names
        assert not any(isinstance(v, (dict, list))
                       for row in payload["rows"] for v in row.values())
        instances = len(list(corpus.glob("*.dimacs")))
        assert len(payload["rows"]) == instances * 2 * 1
        scaling = payload["oc_scaling"]
        assert scaling["gamma_reference"] == 0.584
        assert scaling["fitted_exponent"] is not None

    def test_scaling_sizes_keep_weighted_instances(self, tmp_path):
        # The unit-weight scaling graphs get their own names, so the
        # weighted erdos-renyi_n32 of the corpus is neither replaced nor
        # left without rows.
        corpus = tmp_path / "corpus"
        report = tmp_path / "report.json"
        assert main(["bench", str(corpus), "--generate", "--scaling-sizes", "32",
                     "--methods", "classic", "--seeds", "0",
                     "--report", str(report)]) == 0
        weighted = parse_dimacs((corpus / "erdos-renyi_n32.dimacs").read_text())
        assert any(w != 1 for _, _, w in weighted.edges)
        unit = parse_dimacs((corpus / "erdos-renyi-unit_n32.dimacs").read_text())
        assert {w for _, _, w in unit.edges} == {1}
        instances = [row["instance"] for row in json.loads(report.read_text())["rows"]]
        assert instances.count("erdos-renyi_n32") == 1
        assert instances.count("erdos-renyi-unit_n32") == 1

    def test_scaling_fit_keeps_families_apart(self, tmp_path):
        # The weighted corpus graphs and the unit-weight scaling graphs
        # overlap at n=32; each fitted point holds one family only.
        corpus = tmp_path / "corpus"
        report = tmp_path / "report.json"
        assert main(["bench", str(corpus), "--generate", "--scaling-sizes", "32", "64",
                     "--methods", "classic", "--seeds", "0",
                     "--report", str(report)]) == 0
        scaling = json.loads(report.read_text())["oc_scaling"]
        by_n = scaling["nodes_total_by_n"]
        assert {n: sorted(families) for n, families in by_n.items()} == {
            "16": ["erdos-renyi"], "32": ["erdos-renyi", "erdos-renyi-unit"],
            "64": ["erdos-renyi-unit"]}
        assert all(len(values) == 1 for families in by_n.values()
                   for values in families.values())
        # Both families span one doubling of n, so the slope with one
        # intercept per family is the mean of their two-point slopes.
        (w16,), (w32,) = by_n["16"]["erdos-renyi"], by_n["32"]["erdos-renyi"]
        (u32,), (u64,) = by_n["32"]["erdos-renyi-unit"], by_n["64"]["erdos-renyi-unit"]
        assert scaling["fitted_exponent"] == pytest.approx(
            (math.log(w32 / w16) + math.log(u64 / u32)) / (2 * math.log(2)))

    def test_jobs_send_each_graph_once(self, tmp_path, monkeypatch):
        # Workers receive the parsed corpus once, through the pool
        # initializer; the per-job arguments only name the instance.
        sent = {}

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                sent["initargs"] = kwargs.get("initargs")
                super().__init__(*args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                sent["jobs"] = [list(column) for column in iterables]
                return super().map(fn, *sent["jobs"], **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        rng = random.Random(5)
        for k in range(3):
            (corpus / f"inst{k}.dimacs").write_text(write_dimacs(erdos_renyi(9, 0.5, rng)))
        reports = []
        for jobs in (1, 2):
            path = tmp_path / f"jobs{jobs}.json"
            assert main(["bench", str(corpus), "--methods", "classic,weak-oc",
                         "--seeds", "0,1", "--jobs", str(jobs), "--verify",
                         "--report", str(path)]) == 0
            rows = json.loads(path.read_text())["rows"]
            for row in rows:
                row.pop("wall_ms")
            reports.append(rows)
        assert reports[0] == reports[1]
        (graphs,) = sent["initargs"]
        assert sorted(graphs) == ["inst0", "inst1", "inst2"]
        assert all(isinstance(g, Graph) for g in graphs.values())
        assert len(sent["jobs"][0]) == 3 * 2 * 2
        assert b"Graph" not in pickle.dumps(sent["jobs"])

    def test_csv_report(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        g = erdos_renyi(8, 0.5, random.Random(1))
        (corpus / "erdos-renyi_n8.dimacs").write_text(write_dimacs(g))
        report = tmp_path / "rows.csv"
        assert main(["bench", str(corpus), "--methods", "classic",
                     "--seeds", "0,1", "--report", str(report)]) == 0
        lines = report.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 1 instance x 1 method x 2 seeds
        assert "invocations" in lines[0].split(",")

    def test_verify_flag_marks_rows(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        g = erdos_renyi(8, 0.6, random.Random(4))
        (corpus / "erdos-renyi_n8.dimacs").write_text(write_dimacs(g))
        report = tmp_path / "rows.json"
        assert main(["bench", str(corpus), "--methods", "classic,weak-oc",
                     "--seeds", "0", "--verify", "--report", str(report)]) == 0
        rows = json.loads(report.read_text())["rows"]
        assert rows and all(row["verified"] for row in rows)
        for row in rows:
            if row["method"] == "classic":
                assert row["invocations"] == row["attempts_total"] == 0
            else:
                assert 1 <= row["invocations"] <= row["attempts_total"]

    def test_parallel_jobs_match_serial(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        rng = random.Random(2)
        for k in range(3):
            g = erdos_renyi(10, 0.5, rng)
            (corpus / f"inst{k}.dimacs").write_text(write_dimacs(g))
        reports = []
        for jobs, name in ((1, "serial.json"), (2, "parallel.json")):
            path = tmp_path / name
            assert main(["bench", str(corpus), "--methods", "classic,oc1",
                         "--seeds", "0", "--jobs", str(jobs),
                         "--report", str(path)]) == 0
            rows = json.loads(path.read_text())["rows"]
            for row in rows:
                row.pop("wall_ms")
            reports.append(sorted(rows, key=lambda r: (r["instance"], r["method"])))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_instance_parsed_once(self, tmp_path, monkeypatch, jobs):
        # The jobs, --verify and the scaling fit all read the graphs that
        # cmd_bench parsed: one parse per corpus file.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        rng = random.Random(3)
        for n in (6, 8):
            g = erdos_renyi(n, 0.5, rng)
            (corpus / f"erdos-renyi_n{n}.dimacs").write_text(write_dimacs(g))
        (corpus / "grid.dimacs").write_text(write_dimacs(grid(2, 3, rng)))
        parsed = []
        parse = cli.parse_dimacs
        monkeypatch.setattr(cli, "parse_dimacs", lambda text: parsed.append(text) or parse(text))
        report = tmp_path / "rows.json"
        assert main(["bench", str(corpus), "--methods", "classic,oc1", "--seeds", "0,1",
                     "--jobs", str(jobs), "--verify", "--report", str(report)]) == 0
        rows = json.loads(report.read_text())["rows"]
        assert len(rows) == 3 * 2 * 2 and all(row["verified"] for row in rows)
        assert len(parsed) == 3


class TestGenerators:
    def test_families_shape(self):
        rng = random.Random(0)
        assert cycle(6, rng).num_edges == 6
        assert star(6, rng).num_edges == 5
        assert grid(3, 4, rng).num_nodes == 12
        assert grid(3, 4, rng).num_edges == 2 * 12 - 3 - 4
        t = random_tree_plus_noise(10, 4, rng)
        assert t.num_nodes == 10
        assert t.num_edges == 13
        er = erdos_renyi(10, 1.0, rng)
        assert er.num_edges == 45
