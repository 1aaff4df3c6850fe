import json
import random

import pytest

from ghct.cli import main
from ghct.graph import write_dimacs
from ghct.generators import cycle, erdos_renyi, grid, random_tree_plus_noise, star

from conftest import random_graph

TRI_TEXT = "p ghct 3 3\ne 1 2 1\ne 1 3 2\ne 2 3 3\n"


@pytest.fixture
def tri_file(tmp_path):
    path = tmp_path / "tri.dimacs"
    path.write_text(TRI_TEXT)
    return path


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
            stats.append(payload)
        assert outs[0] == outs[1]
        assert stats[0] == stats[1]

    def test_malformed_input_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.dimacs"
        bad.write_text("p ghct 2 1\ne 1 5 3\n")
        assert main(["compute", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

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
        tree.write_text("p ghct 2 1\ne 1 2 5\n")
        assert main(["verify", str(tri_file), str(tree)]) == 1

    def test_non_tree_edge_count_exits_1(self, tri_file, tmp_path):
        tree = tmp_path / "tree.dimacs"
        tree.write_text("p ghct 3 3\ne 1 2 1\ne 1 3 2\ne 2 3 3\n")
        assert main(["verify", str(tri_file), str(tree)]) == 1


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

    def test_stats_out(self, tri_file, tmp_path):
        out = tmp_path / "oc.txt"
        stats = tmp_path / "oc-stats.json"
        assert main(["ordered-cuts", str(tri_file), "--sequence", "1,2,3",
                     "--out", str(out), "--stats-out", str(stats)]) == 0
        payload = json.loads(stats.read_text())
        assert payload["maxflow_calls"] >= 2
        assert payload["nodes_total"] > 0


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
        instances = len(list(corpus.glob("*.dimacs")))
        assert len(payload["rows"]) == instances * 2 * 1
        scaling = payload["oc_scaling"]
        assert scaling["gamma_reference"] == 0.584
        assert scaling["fitted_exponent"] is not None

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
