"""Tests for the profiler (service times, gains, edge frequencies)."""

import pytest

from repro.core.graph import Edge, OperatorSpec, Topology
from repro.operators.base import Record
from repro.operators.basic import Filter, Identity
from repro.operators.source_sink import CountingSink, GeneratorSource
from repro.profiling.profiler import ServiceTimer, profile_topology
from repro.runtime.synthetic import PaddedOperator
from repro.runtime.system import RuntimeConfig


def profiled_topology():
    # Declared service times deliberately wrong (10x off): the profiler
    # should correct them.
    return Topology(
        [
            OperatorSpec("src", 5e-3),
            OperatorSpec("work", 50e-3),       # actually ~5 ms
            OperatorSpec("flt", 10e-3),        # actually ~1 ms, drops 50%
            OperatorSpec("sink", 1e-3, output_selectivity=0.0),
        ],
        [Edge("src", "work"), Edge("work", "flt"), Edge("flt", "sink")],
        name="profiled",
    )


def factories():
    return {
        "src": lambda: GeneratorSource(seed=5),
        "work": lambda: PaddedOperator(Identity(), 5e-3),
        "flt": lambda: PaddedOperator(Filter(threshold=0.5), 1e-3),
        "sink": CountingSink,
    }


class TestProfileRun:
    @pytest.fixture(scope="class")
    def report(self):
        return profile_topology(
            profiled_topology(), factories(), duration=1.5,
            config=RuntimeConfig(source_rate=150.0),
        )

    def test_measures_service_times(self, report):
        work = report.profiles["work"]
        assert work.items_processed > 50
        assert work.mean_service_time == pytest.approx(5e-3, rel=0.2)

    def test_measures_gain_of_filter(self, report):
        flt = report.profiles["flt"]
        assert flt.gain == pytest.approx(0.5, abs=0.15)

    def test_edge_frequencies_sum_to_one(self, report):
        src = report.profiles["src"]
        assert sum(src.edge_frequencies.values()) == pytest.approx(1.0)

    def test_profiled_topology_updates_service_times(self, report):
        updated = report.profiled_topology()
        assert updated.operator("work").service_time == pytest.approx(
            5e-3, rel=0.25)
        # Structure preserved.
        assert updated.names == profiled_topology().names

    def test_profiled_topology_updates_selectivity(self, report):
        updated = report.profiled_topology()
        assert updated.operator("flt").output_selectivity == pytest.approx(
            0.5, abs=0.15)

    def test_under_sampled_operators_keep_declared_values(self, report):
        updated = report.profiled_topology(min_items=10 ** 9)
        assert updated.operator("work").service_time == pytest.approx(50e-3)

    def test_service_rate_property(self, report):
        work = report.profiles["work"]
        assert work.service_rate == pytest.approx(200.0, rel=0.25)


class TestExhaustionProfile:
    def test_same_items_and_seed_replay_the_profile(self):
        # The window boundary is the item count and the run ends by the
        # plan's order, so nothing here depends on the clock.
        def counts():
            report = profile_topology(
                profiled_topology(),
                {**factories(), "work": Identity,
                 "flt": lambda: Filter(threshold=0.5)},
                items=300, seed=11)
            return {name: (p.items_processed, p.gain,
                           dict(p.edge_frequencies))
                    for name, p in report.profiles.items()}

        first = counts()
        assert first == counts()
        assert first["src"][0] == first["work"][0] == first["flt"][0] == 300
        assert first["sink"][0] == round(300 * first["flt"][1])
        assert 0.3 < first["flt"][1] < 0.7
        assert first["work"][2] == {"flt": 1.0}

    def test_items_must_be_positive(self):
        from repro.core.graph import TopologyError
        with pytest.raises(TopologyError, match="items"):
            profile_topology(profiled_topology(), factories(), items=0)


class TestServiceTimer:
    def test_measures_mean_and_gain(self):
        timer = ServiceTimer(PaddedOperator(Identity(), 2e-3))
        for i in range(20):
            timer.measure(Record({"value": float(i)}))
        assert timer.mean_service_time == pytest.approx(2e-3, rel=0.5)
        assert timer.gain == 1.0

    def test_gain_of_filter(self):
        timer = ServiceTimer(Filter(threshold=0.5))
        for value in (0.1, 0.9, 0.2, 0.8):
            timer.measure(Record({"value": value}))
        assert timer.gain == 0.5

    def test_requires_samples(self):
        from repro.core.graph import TopologyError
        timer = ServiceTimer(Identity())
        with pytest.raises(TopologyError, match="no samples"):
            _ = timer.mean_service_time


class TestPercentiles:
    def test_percentiles_from_samples(self):
        from repro.profiling.profiler import OperatorProfile
        profile = OperatorProfile(
            name="x", items_processed=10, mean_service_time=1e-3,
            gain=1.0, edge_frequencies={},
            service_samples=tuple(i * 1e-3 for i in range(1, 11)),
        )
        assert profile.percentile(0.0) == pytest.approx(1e-3)
        assert profile.percentile(0.5) == pytest.approx(6e-3)
        assert profile.percentile(1.0) == pytest.approx(10e-3)

    def test_percentile_without_samples_is_none(self):
        from repro.profiling.profiler import OperatorProfile
        profile = OperatorProfile(
            name="x", items_processed=0, mean_service_time=None,
            gain=1.0, edge_frequencies={},
        )
        assert profile.percentile(0.9) is None

    def test_percentile_out_of_range_rejected(self):
        from repro.core.graph import TopologyError
        from repro.profiling.profiler import OperatorProfile
        profile = OperatorProfile(
            name="x", items_processed=0, mean_service_time=None,
            gain=1.0, edge_frequencies={},
        )
        with pytest.raises(TopologyError, match="percentile"):
            profile.percentile(1.5)

    def test_profiled_run_collects_samples(self, ):
        report = profile_topology(
            profiled_topology(), factories(), duration=1.0,
            config=RuntimeConfig(source_rate=100.0),
        )
        work = report.profiles["work"]
        assert len(work.service_samples) > 20
        # The padded operator's p90 sits close to its constant 5 ms.
        assert work.percentile(0.9) == pytest.approx(5e-3, rel=0.3)
