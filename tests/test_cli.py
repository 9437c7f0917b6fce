"""Tests for the spinstreams command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.topology.xmlio import parse_topology, write_topology
from tests.conftest import make_fig11, make_pipeline


@pytest.fixture
def fig11_xml(tmp_path):
    path = tmp_path / "fig11.xml"
    write_topology(make_fig11(), str(path))
    return str(path)


@pytest.fixture
def bottlenecked_xml(tmp_path):
    path = tmp_path / "pipeline.xml"
    write_topology(make_pipeline(1.0, 3.0), str(path))
    return str(path)


class TestLint:
    @pytest.mark.parametrize("rows, message", [
        ("k0,0.5\nk1,abc\n", "{csv}: row 2: bad probability 'abc' for key 'k1'"),
        (None, "cannot read key file '{csv}': No such file or directory"),
    ], ids=["bad-row", "missing-file"])
    def test_bad_key_file_is_a_one_line_error(self, rows, message, tmp_path,
                                              capsys):
        csv_path = tmp_path / "keys.csv"
        if rows is not None:
            csv_path.write_text(rows)
        xml_path = tmp_path / "topo.xml"
        xml_path.write_text(
            '<topology><operator name="a" service-time="1" '
            'type="partitioned"><keys file="keys.csv"/></operator>'
            "</topology>")
        assert main(["lint", str(xml_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message.format(csv=csv_path)}\n"


class TestAnalyze:
    def test_basic(self, fig11_xml, capsys):
        assert main(["analyze", fig11_xml]) == 0
        out = capsys.readouterr().out
        assert "predicted throughput: 1,000" in out

    def test_with_measurement(self, fig11_xml, capsys):
        assert main(["analyze", fig11_xml, "--measure",
                     "--items", "20000"]) == 0
        out = capsys.readouterr().out
        assert "measured throughput" in out
        assert "relative error" in out

    def test_source_rate_flag(self, fig11_xml, capsys):
        assert main(["analyze", fig11_xml, "--source-rate", "100"]) == 0
        assert "100 items/sec" in capsys.readouterr().out


class TestOptimize:
    def test_reports_replicas(self, bottlenecked_xml, capsys):
        assert main(["optimize", bottlenecked_xml]) == 0
        out = capsys.readouterr().out
        assert "additional replicas: 2" in out

    def test_writes_optimized_xml(self, bottlenecked_xml, tmp_path, capsys):
        output = str(tmp_path / "optimized.xml")
        assert main(["optimize", bottlenecked_xml, "-o", output]) == 0
        optimized = parse_topology(output)
        assert optimized.operator("op1").replication == 3

    def test_invalid_bound_reports_error(self, bottlenecked_xml, capsys):
        assert main(["optimize", bottlenecked_xml,
                     "--max-replicas", "1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCandidates:
    def test_lists_candidates(self, fig11_xml, capsys):
        assert main(["candidates", fig11_xml]) == 0
        out = capsys.readouterr().out
        assert "fusion candidates" in out
        assert "op3" in out


class TestFuse:
    def test_feasible_fusion(self, fig11_xml, capsys):
        assert main(["fuse", fig11_xml, "--ops", "op3,op4,op5",
                     "--name", "F"]) == 0
        out = capsys.readouterr().out
        assert "fusion is feasible" in out

    def test_writes_fused_xml(self, fig11_xml, tmp_path, capsys):
        output = str(tmp_path / "fused.xml")
        assert main(["fuse", fig11_xml, "--ops", "op3,op4,op5",
                     "--name", "F", "-o", output]) == 0
        fused = parse_topology(output)
        assert "F" in fused

    def test_invalid_subgraph_reports_error(self, fig11_xml, capsys):
        assert main(["fuse", fig11_xml, "--ops", "op2,op3"]) == 2
        assert "front-end" in capsys.readouterr().err


class TestSimulate:
    def test_reports_measured_and_error(self, fig11_xml, capsys):
        assert main(["simulate", fig11_xml, "--items", "20000"]) == 0
        out = capsys.readouterr().out
        assert "measured throughput" in out

    def test_per_operator_flag(self, fig11_xml, capsys):
        assert main(["simulate", fig11_xml, "--items", "20000",
                     "--per-operator"]) == 0
        out = capsys.readouterr().out
        assert "per-operator departure rates" in out
        assert "op5" in out


class TestGenerateAndRandom:
    def test_random_topology_to_file(self, tmp_path, capsys):
        output = str(tmp_path / "random.xml")
        assert main(["random", "--seed", "5", "-o", output]) == 0
        topology = parse_topology(output)
        assert len(topology) >= 2

    def test_random_reproducible(self, tmp_path):
        a, b = str(tmp_path / "a.xml"), str(tmp_path / "b.xml")
        main(["random", "--seed", "5", "-o", a])
        main(["random", "--seed", "5", "-o", b])
        assert open(a).read() == open(b).read()

    def test_generate_code_from_random(self, tmp_path, capsys):
        xml = str(tmp_path / "random.xml")
        main(["random", "--seed", "5", "-o", xml])
        script = str(tmp_path / "app.py")
        assert main(["generate", xml, "-o", script]) == 0
        compile(open(script).read(), script, "exec")


class TestRender:
    def test_dot_output(self, fig11_xml, capsys):
        assert main(["render", fig11_xml]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_dot_to_file(self, fig11_xml, tmp_path):
        output = str(tmp_path / "graph.dot")
        assert main(["render", fig11_xml, "-o", output]) == 0
        assert open(output).read().startswith("digraph")


class TestLatency:
    def test_reports_end_to_end(self, fig11_xml, capsys):
        assert main(["latency", fig11_xml, "--source-rate", "600"]) == 0
        out = capsys.readouterr().out
        assert "end-to-end latency" in out
        assert "op5" in out

    def test_assumption_flag(self, fig11_xml, capsys):
        assert main(["latency", fig11_xml, "--assumption",
                     "deterministic"]) == 0
        assert "deterministic" in capsys.readouterr().out


class TestAutofuse:
    def test_compacts_and_reports(self, fig11_xml, capsys):
        assert main(["autofuse", fig11_xml]) == 0
        out = capsys.readouterr().out
        assert "removed" in out
        assert "throughput preserved" in out

    def test_writes_fused_xml(self, fig11_xml, tmp_path):
        output = str(tmp_path / "auto.xml")
        assert main(["autofuse", fig11_xml, "-o", output]) == 0
        fused = parse_topology(output)
        assert len(fused) < 6


class TestDeploy:
    def test_json_plan(self, fig11_xml, capsys):
        assert main(["deploy", fig11_xml]) == 0
        import json
        plan = json.loads(capsys.readouterr().out)
        assert plan["topology"] == "fig11"

    def test_flink_sketch(self, fig11_xml, capsys):
        assert main(["deploy", fig11_xml, "--format", "flink"]) == 0
        assert "setParallelism" in capsys.readouterr().out

    def test_storm_sketch_to_file(self, fig11_xml, tmp_path):
        output = str(tmp_path / "topology.java")
        assert main(["deploy", fig11_xml, "--format", "storm",
                     "-o", output]) == 0
        assert "TopologyBuilder" in open(output).read()


class TestMemory:
    def test_reports_footprint(self, fig11_xml, capsys):
        assert main(["memory", fig11_xml]) == 0
        out = capsys.readouterr().out
        assert "total:" in out
        assert "MB" in out

    def test_bytes_per_item_flag(self, fig11_xml, capsys):
        assert main(["memory", fig11_xml, "--bytes-per-item", "1000"]) == 0
        assert "1000 bytes/item" in capsys.readouterr().out


class TestSubcommands:
    def test_bench_is_not_a_subcommand(self, capsys):
        """The repository's one benchmark is ``python3 -m bench``."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["bench"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["profile", "run"])
    def test_operator_without_class_is_refused(self, command, fig11_xml,
                                               capsys):
        assert main([command, fig11_xml]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: operator 'op1' has no class to run")


class TestConformance:
    def test_small_sweep_is_green(self, capsys):
        assert main(["conformance", "--seeds", "2",
                     "--runtime-seeds", "0"]) == 0
        out = capsys.readouterr().out
        assert "4 checks, 0 failed" in out

    def test_single_seed_replay(self, capsys):
        assert main(["conformance", "--seed", "100", "--runtime-seeds", "0",
                     "--no-optimizer"]) == 0
        out = capsys.readouterr().out
        assert "seed=100" in out
        assert "OK" in out


class TestChaosRecover:
    def test_recover_sweep_is_bit_equal(self, capsys):
        assert main(["chaos", "--recover", "--seed", "1",
                     "--recover-seeds", "2", "--recover-items", "200"]) == 0
        out = capsys.readouterr().out
        assert "recovery sweep: seeds 1..2" in out
        assert "2/2 seeds bit-equal after crash+recover" in out
        # The crash plans actually fire: rollbacks happened.
        assert "rollbacks: 0" not in out
