"""Shared fixtures: canonical topologies used across the test suite."""

from __future__ import annotations

import faulthandler
import os

import pytest

from repro.core.graph import Edge, KeyDistribution, OperatorSpec, StateKind, Topology


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--conformance-seeds", type=int, default=6,
        help="seeds swept by the conformance tests (tier-1 default is a "
             "fast budget; nightly CI raises it)",
    )
    parser.addoption(
        "--process-seeds", type=int, default=2,
        help="seeds swept by the multi-process backend conformance tests "
             "(each forks shard workers and runs wall-clock seconds; "
             "tier-1 keeps a 2-seed smoke, nightly CI raises it)",
    )
    parser.addoption(
        "--adaptive-seeds", type=int, default=2,
        help="seeds swept by the online-adaptation conformance tests "
             "(each drives a live reconfiguration over wall-clock "
             "seconds; tier-1 keeps a 2-seed smoke, nightly CI runs "
             "the full 20-seed property suite)",
    )


#: Hard per-test deadline in seconds (ROADMAP 1c).  The slowest tier-1
#: test takes about 20 s on a 2-core host; a test still running after
#: this long is a BAS or flush deadlock, not a slow test.
TEST_DEADLINE_SECONDS = 300.0
_DEADLINE_STDERR = pytest.StashKey[int]()


def pytest_configure(config: pytest.Config) -> None:
    # Output capture is suspended while this hook runs, so this is the
    # terminal's stderr — a hung test's stacks must not die with a
    # capture file when the process exits.
    config.stash[_DEADLINE_STDERR] = os.dup(2)


@pytest.fixture(autouse=True)
def hard_deadline(request: pytest.FixtureRequest):
    """Fail a hung test in bounded time, with every thread's stack.

    A mistake in an actor's blocking loop is a hang, and a hang used to
    be a CI job timing out silently.  ``faulthandler`` arms a watchdog
    thread outside the interpreter loop: past the deadline it dumps all
    thread stacks and exits the process (exit status 1).
    """
    faulthandler.dump_traceback_later(
        TEST_DEADLINE_SECONDS, exit=True,
        file=request.config.stash[_DEADLINE_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def conformance_seeds(request: pytest.FixtureRequest) -> int:
    return request.config.getoption("--conformance-seeds")


@pytest.fixture(scope="session")
def process_seeds(request: pytest.FixtureRequest) -> int:
    return request.config.getoption("--process-seeds")


@pytest.fixture(scope="session")
def adaptive_seeds(request: pytest.FixtureRequest) -> int:
    return request.config.getoption("--adaptive-seeds")


def make_pipeline(*service_times_ms: float, name: str = "pipeline") -> Topology:
    """A linear chain src -> op1 -> ... with the given service times (ms)."""
    specs = [
        OperatorSpec(f"op{i}", ms * 1e-3)
        for i, ms in enumerate(service_times_ms)
    ]
    edges = [
        Edge(f"op{i}", f"op{i + 1}")
        for i in range(len(service_times_ms) - 1)
    ]
    return Topology(specs, edges, name=name)


def make_fig11(t3_ms: float = 0.7, t4_ms: float = 2.0,
               t5_ms: float = 1.5) -> Topology:
    """The paper's Figure 11 six-operator example (Tables 1 and 2).

    Service times of operators 1, 2 and 6 are fixed at 1.0, 1.2 and
    0.2 ms; the fused members 3, 4 and 5 are parameterized so the same
    builder produces both the feasible (Table 1) and the harmful
    (Table 2) variants.
    """
    operators = [
        OperatorSpec("op1", 1.0e-3),
        OperatorSpec("op2", 1.2e-3),
        OperatorSpec("op3", t3_ms * 1e-3),
        OperatorSpec("op4", t4_ms * 1e-3),
        OperatorSpec("op5", t5_ms * 1e-3),
        OperatorSpec("op6", 0.2e-3),
    ]
    edges = [
        Edge("op1", "op2", 0.7),
        Edge("op1", "op3", 0.3),
        Edge("op3", "op4", 0.35),
        Edge("op3", "op5", 0.65),
        Edge("op4", "op5", 0.5),
        Edge("op4", "op6", 0.5),
        Edge("op2", "op6", 1.0),
        Edge("op5", "op6", 1.0),
    ]
    return Topology(operators, edges, name="fig11")


def make_diamond(src_ms: float = 1.0, left_ms: float = 2.0,
                 right_ms: float = 3.0, sink_ms: float = 0.5,
                 p_left: float = 0.5) -> Topology:
    """A diamond: src fans out to two branches merging into one sink."""
    operators = [
        OperatorSpec("src", src_ms * 1e-3),
        OperatorSpec("left", left_ms * 1e-3),
        OperatorSpec("right", right_ms * 1e-3),
        OperatorSpec("sink", sink_ms * 1e-3),
    ]
    edges = [
        Edge("src", "left", p_left),
        Edge("src", "right", 1.0 - p_left),
        Edge("left", "sink"),
        Edge("right", "sink"),
    ]
    return Topology(operators, edges, name="diamond")


@pytest.fixture
def pipeline3() -> Topology:
    """src (1ms) -> mid (2ms) -> sink (0.5ms): mid is the bottleneck."""
    return make_pipeline(1.0, 2.0, 0.5, name="pipeline3")


@pytest.fixture
def fig11_table1() -> Topology:
    return make_fig11(0.7, 2.0, 1.5)


@pytest.fixture
def fig11_table2() -> Topology:
    return make_fig11(1.5, 2.7, 2.2)


@pytest.fixture
def diamond() -> Topology:
    return make_diamond()


@pytest.fixture
def partitioned_spec() -> OperatorSpec:
    return OperatorSpec(
        "keyed",
        2.0e-3,
        state=StateKind.PARTITIONED,
        keys=KeyDistribution.zipf(100, 1.0),
    )
