"""Guard the docs: the README quickstart must keep working, and every
repository path the docs cite must exist."""

import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

#: A backticked repository path: contains a ``/`` or starts ``BENCH``,
#: ends in a source/data suffix.
CITED_PATH = re.compile(
    r"`((?:[\w.\-]+/[\w./\-]*|BENCH[\w.\-]*)\.(?:py|json|xml|md|yml|toml))`")


def python_blocks(text):
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


class TestReadme:
    def test_quickstart_snippet_executes(self):
        blocks = python_blocks(README.read_text(encoding="utf-8"))
        assert blocks, "README lost its quickstart code block"
        namespace = {}
        exec(compile(blocks[0], str(README), "exec"), namespace)

    def test_quickstart_numbers_still_true(self):
        """The concrete numbers quoted in the README comments."""
        from repro import (
            Edge,
            OperatorSpec,
            Topology,
            analyze,
            apply_fusion,
            eliminate_bottlenecks,
        )
        topology = Topology(
            operators=[
                OperatorSpec("source", service_time=0.001),
                OperatorSpec("classify", service_time=0.004),
                OperatorSpec("store", service_time=0.0005),
            ],
            edges=[Edge("source", "classify"), Edge("classify", "store")],
        )
        result = analyze(topology)
        assert math.isclose(result.throughput, 250.0)
        assert result.bottlenecks == ["classify"]

        optimized = eliminate_bottlenecks(topology)
        assert optimized.replications["classify"] == 4
        assert math.isclose(optimized.throughput, 1000.0)

        fusion = apply_fusion(topology, ["classify", "store"])
        assert isinstance(fusion.impairs_performance, bool)

    def test_cli_commands_in_readme_exist(self):
        from repro.cli import build_parser
        parser = build_parser()
        subcommands = set()
        for action in parser._actions:
            if hasattr(action, "choices") and action.choices:
                subcommands.update(action.choices)
        text = README.read_text(encoding="utf-8")
        for command in re.findall(r"^spinstreams (\w+)", text, re.MULTILINE):
            assert command in subcommands, f"README references unknown " \
                                           f"subcommand {command!r}"

    @pytest.mark.parametrize(
        "doc", ["README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"])
    def test_cited_paths_exist(self, doc):
        """Deleting or renaming a file without its citations fails here."""
        text = (ROOT / doc).read_text(encoding="utf-8")
        cited = set(CITED_PATH.findall(text))
        assert cited, f"{doc} cites no repository path: the pattern rotted"
        missing = sorted(c for c in cited if not (ROOT / c).exists())
        assert not missing, f"{doc} cites files that do not exist: {missing}"

    def test_readme_names_the_benchmark(self):
        text = README.read_text(encoding="utf-8")
        assert "python3 -m bench" in text
        assert "BENCHMARK.json" in text
