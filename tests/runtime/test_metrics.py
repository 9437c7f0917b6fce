"""Unit tests for runtime metrics: counters under concurrent updates,
snapshot arithmetic, and per-vertex aggregation."""

import threading
import time

import pytest

from repro.runtime.metrics import (
    ActorCounters,
    ActorRates,
    CounterSnapshot,
    RuntimeMeasurements,
    rates_between,
)


class TestConcurrentCounters:
    def test_concurrent_increments_are_not_lost(self):
        # The documented contract: single bytecode-level int increments
        # stay consistent under the GIL when one thread owns a counter.
        # Here every thread owns its own ActorCounters, as actors do.
        counters = [ActorCounters() for _ in range(4)]
        per_thread = 25_000

        def work(c: ActorCounters) -> None:
            for _ in range(per_thread):
                c.received += 1
                c.processed += 1
                c.emitted += 2
                c.busy_time += 1e-6

        threads = [threading.Thread(target=work, args=(c,)) for c in counters]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for c in counters:
            assert c.received == per_thread
            assert c.processed == per_thread
            assert c.emitted == 2 * per_thread
            assert c.busy_time == pytest.approx(per_thread * 1e-6, rel=1e-6)

    def test_snapshot_while_writer_runs(self):
        # A reader snapshotting mid-flight sees a consistent-enough view:
        # monotonically growing values, never negative rates.
        counters = ActorCounters()
        stop = threading.Event()

        def writer() -> None:
            while not stop.is_set():
                counters.received += 1
                counters.processed += 1
                counters.emitted += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            previous = counters.snapshot()
            for _ in range(200):
                current = counters.snapshot()
                assert current.received >= previous.received
                assert current.processed >= previous.processed
                assert current.emitted >= previous.emitted
                previous = current
        finally:
            stop.set()
            thread.join()

    def test_snapshot_is_immutable_copy(self):
        counters = ActorCounters()
        counters.processed = 7
        snap = counters.snapshot()
        counters.processed = 99
        assert snap.processed == 7
        with pytest.raises(AttributeError):
            snap.processed = 1


class TestThreadCpuTime:
    def test_cpu_time_reads_the_live_thread_then_keeps_its_final_value(self):
        counters = ActorCounters()
        spun, release, done = threading.Event(), threading.Event(), []

        def actor_thread():
            counters.thread_started()
            deadline = time.thread_time() + 0.05
            while time.thread_time() < deadline:
                pass  # burn 50 ms of this thread's CPU
            spun.set()
            release.wait(10.0)
            counters.thread_exiting()
            done.append(counters.cpu_time)

        thread = threading.Thread(target=actor_thread)
        thread.start()
        assert spun.wait(10.0)
        live = counters.snapshot().cpu_time
        # The spinning thread's clock, not this (idle) thread's.
        assert live >= 0.05
        release.set()
        thread.join(10.0)
        final = counters.snapshot().cpu_time
        assert final == done[0] >= live

    def test_never_started_counters_read_zero(self):
        assert ActorCounters().snapshot().cpu_time == 0.0


class TestMeanServiceTime:
    def test_none_without_items(self):
        assert ActorCounters().mean_service_time() is None

    def test_busy_time_over_processed(self):
        counters = ActorCounters()
        counters.processed = 10
        counters.busy_time = 0.02
        assert counters.mean_service_time() == pytest.approx(2e-3)


class TestRatesBetween:
    def test_rates_from_two_snapshots(self):
        before = CounterSnapshot(received=100, processed=90, emitted=80,
                                 busy_time=1.0, blocked_time=0.25)
        after = CounterSnapshot(received=300, processed=290, emitted=280,
                                busy_time=2.0, blocked_time=0.75,
                                latency_sum=4.0, latency_count=100)
        rates = rates_between("a0", "op", before, after, duration=2.0)
        assert rates.arrival_rate == pytest.approx(100.0)
        assert rates.processing_rate == pytest.approx(100.0)
        assert rates.departure_rate == pytest.approx(100.0)
        assert rates.utilization == pytest.approx(0.5)
        assert rates.blocked_fraction == pytest.approx(0.25)
        assert rates.mean_latency == pytest.approx(0.04)
        assert rates.latency_samples == 100

    def test_no_latency_samples_means_none(self):
        rates = rates_between("a0", "op", CounterSnapshot(),
                              CounterSnapshot(processed=5), duration=1.0)
        assert rates.mean_latency is None

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            rates_between("a0", "op", CounterSnapshot(), CounterSnapshot(),
                          duration=0.0)


class TestVertexAggregation:
    def test_replicas_sum_rates_and_max_utilization(self):
        actors = {
            "op.0": ActorRates(name="op.0", vertex="op", arrival_rate=100.0,
                               processing_rate=100.0, departure_rate=90.0,
                               utilization=0.8, blocked_fraction=0.1,
                               mean_latency=0.010, latency_samples=50),
            "op.1": ActorRates(name="op.1", vertex="op", arrival_rate=50.0,
                               processing_rate=50.0, departure_rate=45.0,
                               utilization=0.4, blocked_fraction=0.3,
                               mean_latency=0.020, latency_samples=150),
            "sink": ActorRates(name="sink", vertex="sink", arrival_rate=135.0,
                               processing_rate=135.0, departure_rate=0.0,
                               utilization=0.2, blocked_fraction=0.0),
        }
        vertices = RuntimeMeasurements(duration=2.0,
                                       actors=actors).vertex_rates()
        assert set(vertices) == {"op", "sink"}
        op = vertices["op"]
        assert op.arrival_rate == pytest.approx(150.0)
        assert op.departure_rate == pytest.approx(135.0)
        assert op.utilization == pytest.approx(0.8)  # binding replica
        assert op.blocked_fraction == pytest.approx(0.3)
        # Latency is the sample-weighted mean across replicas.
        assert op.mean_latency == pytest.approx(
            (0.010 * 50 + 0.020 * 150) / 200)
        assert op.latency_samples == 200

    def test_vertex_without_latency_samples(self):
        actors = {
            "a": ActorRates(name="a", vertex="v", arrival_rate=1.0,
                            processing_rate=1.0, departure_rate=1.0,
                            utilization=0.5, blocked_fraction=0.0),
        }
        vertex = RuntimeMeasurements(duration=1.0,
                                     actors=actors).vertex_rates()["v"]
        assert vertex.mean_latency is None
        assert vertex.latency_samples == 0
