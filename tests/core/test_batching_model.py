"""Analytical batching cost model (`predict_batching`) and its DES twin.

The model claims: packing ``b`` tuples per message amortizes the
per-message hop overhead to ``h/b`` per tuple (throughput up), while
each batched edge adds a mean fill wait of ``(b-1)/(2λ)`` capped by the
flush timeout and scaled by the sender's utilization — the runtime's
flush is work-conserving, so an idle sender holds nothing back (latency
up, but only under load).  These tests pin the monotonicity, the
degenerate cases and the agreement between the solver's derating and
the simulator's :meth:`SimulationConfig.effective_service_time`.
"""

import pytest

from repro.core.graph import BatchConfig, Edge, OperatorSpec, Topology, TopologyError
from repro.core.solver import predict_batching
from repro.sim.network import SimulationConfig

HOP = 0.0005  # 0.5 ms per message: hop-dominated relative to service


def _chain():
    # A fast source (5000/s) keeps the hop-laden operators the
    # bottleneck, so amortizing the hop is visible as throughput gain.
    return Topology(
        [OperatorSpec(name="source", service_time=0.0002),
         OperatorSpec(name="map", service_time=0.0004),
         OperatorSpec(name="sink", service_time=0.0004)],
        [Edge("source", "map"), Edge("map", "sink")],
    )


class TestPredictBatching:
    def test_batch_size_one_is_the_baseline(self):
        prediction = predict_batching(_chain(), batch_size=1, hop_overhead=HOP)
        assert prediction.throughput == pytest.approx(
            prediction.baseline_throughput)
        assert prediction.throughput_gain == pytest.approx(1.0)
        assert prediction.edge_latencies == ()

    def test_zero_hop_overhead_gains_nothing(self):
        prediction = predict_batching(_chain(), batch_size=8, hop_overhead=0.0)
        assert prediction.throughput_gain == pytest.approx(1.0)

    def test_gain_is_monotone_in_batch_size(self):
        gains = [predict_batching(_chain(), batch_size=b, hop_overhead=HOP)
                 .throughput_gain for b in (1, 2, 4, 8)]
        assert gains == sorted(gains)
        assert gains[-1] > 1.0

    def test_gain_bounded_by_hop_elimination(self):
        # Amortizing can at best remove the whole hop: gain <= (T+h)/T.
        prediction = predict_batching(_chain(), batch_size=64,
                                      hop_overhead=HOP)
        bound = (0.0004 + HOP) / 0.0004
        assert 1.0 < prediction.throughput_gain <= bound + 1e-9

    def test_added_latency_grows_with_batch_size(self):
        waits = [predict_batching(_chain(), batch_size=b, hop_overhead=HOP,
                                  flush_timeout=100.0).mean_added_latency
                 for b in (2, 4, 8)]
        assert waits == sorted(waits)
        assert waits[0] > 0.0

    def test_flush_timeout_caps_added_latency(self):
        capped = predict_batching(_chain(), batch_size=64, hop_overhead=HOP,
                                  flush_timeout=0.001)
        assert all(entry.added_latency <= 0.001
                   for entry in capped.edge_latencies)

    def test_fill_wait_matches_closed_form(self):
        prediction = predict_batching(_chain(), batch_size=4,
                                      hop_overhead=HOP, flush_timeout=100.0)
        rates = {(e.source, e.target): e for e in prediction.edge_latencies}
        entry = rates[("source", "map")]
        # (b - 1) / (2 λ); on a backpressured chain every edge carries
        # the steady-state throughput.
        assert entry.added_latency == pytest.approx(
            3.0 / (2.0 * prediction.throughput), rel=1e-6)

    def test_saturated_sender_pays_the_whole_fill_wait(self):
        # Closed loop: map and sink both run at utilization 1, so the
        # work-conserving scaling changes nothing on either edge.
        prediction = predict_batching(_chain(), batch_size=8,
                                      hop_overhead=HOP, flush_timeout=100.0)
        for entry in prediction.edge_latencies:
            assert entry.added_latency == pytest.approx(
                7.0 / (2.0 * prediction.throughput), rel=1e-6)

    def test_quiet_stream_waits_in_proportion_to_sender_utilization(self):
        rate = 100.0  # far below every capacity: nobody is ever busy long
        prediction = predict_batching(_chain(), batch_size=8,
                                      hop_overhead=HOP, flush_timeout=100.0,
                                      source_rate=rate)
        waits = {(e.source, e.target): e.added_latency
                 for e in prediction.edge_latencies}
        fill = 7.0 / (2.0 * rate)
        busy_map = rate * (0.0004 + HOP / 8)
        # source -> map is priced by the receiver (a source has no inbox
        # to run dry), map -> sink by the sender; both are map here.
        assert waits[("source", "map")] == pytest.approx(busy_map * fill)
        assert waits[("map", "sink")] == pytest.approx(busy_map * fill)
        assert max(waits.values()) < 0.05 * fill

    def test_uncapped_wait_is_the_senders_time_on_the_rest_of_the_batch(self):
        # rho * (b-1)/(2 lambda) = (b-1) * T_eff / 2 whatever the rate: a
        # tuple waits while its sender serves the tuples that join it.
        service = 0.0004 + HOP / 8
        for rate in (50.0, 500.0):
            prediction = predict_batching(
                _chain(), batch_size=8, hop_overhead=HOP,
                flush_timeout=100.0, source_rate=rate)
            for entry in prediction.edge_latencies:
                assert entry.added_latency == pytest.approx(7 * service / 2)

    def test_wait_vanishes_with_the_load(self):
        # Under the deadline cap the wait is rho * deadline: nothing on
        # a quiet stream.
        waits = [predict_batching(_chain(), batch_size=8, hop_overhead=HOP,
                                  source_rate=rate).mean_added_latency
                 for rate in (1000.0, 100.0, 10.0, 1.0)]
        assert waits == sorted(waits, reverse=True)
        assert waits[-1] < 1e-4

    def test_paced_wait_stays_monotone_in_batch_size_and_capped(self):
        deadline = 0.02
        waits = [predict_batching(_chain(), batch_size=b, hop_overhead=HOP,
                                  flush_timeout=deadline, source_rate=500.0)
                 for b in (2, 4, 8, 16, 64)]
        means = [p.mean_added_latency for p in waits]
        assert means == sorted(means)
        assert all(entry.added_latency <= deadline
                   for p in waits for entry in p.edge_latencies)

    def test_per_edge_override_beats_global_size(self):
        topology = _chain()
        override = Topology(
            list(topology.operators),
            [Edge("source", "map", batch=BatchConfig(size=16,
                                                     flush_timeout=0.5)),
             Edge("map", "sink")],
        )
        prediction = predict_batching(override, batch_size=2,
                                      hop_overhead=HOP, flush_timeout=100.0)
        sizes = {(e.source, e.target): e.batch_size
                 for e in prediction.edge_latencies}
        assert sizes == {("source", "map"): 16, ("map", "sink"): 2}

    def test_invalid_arguments_rejected(self):
        with pytest.raises(TopologyError):
            predict_batching(_chain(), batch_size=0, hop_overhead=HOP)
        with pytest.raises(TopologyError):
            predict_batching(_chain(), batch_size=2, hop_overhead=-1e-6)


class TestSimulatorDerating:
    def test_effective_service_time_matches_model(self):
        # The DES derates exactly like the analytical model: T + h/b on
        # every non-source vertex.
        topology = _chain()
        config = SimulationConfig(hop_overhead=HOP, batch_size=4)
        assert config.effective_service_time(topology, "map") == \
            pytest.approx(0.0004 + HOP / 4)
        assert config.effective_service_time(topology, "sink") == \
            pytest.approx(0.0004 + HOP / 4)

    def test_source_pays_no_hop(self):
        config = SimulationConfig(hop_overhead=HOP, batch_size=4)
        assert config.effective_service_time(_chain(), "source") == \
            pytest.approx(0.0002)

    def test_zero_hop_is_identity(self):
        config = SimulationConfig()
        assert config.effective_service_time(_chain(), "map") == \
            pytest.approx(0.0004)

    def test_edge_override_reaches_simulator(self):
        topology = _chain()
        override = Topology(
            list(topology.operators),
            [Edge("source", "map", batch=BatchConfig(size=8,
                                                     flush_timeout=0.5)),
             Edge("map", "sink")],
        )
        config = SimulationConfig(hop_overhead=HOP, batch_size=2)
        assert config.effective_service_time(override, "map") == \
            pytest.approx(0.0004 + HOP / 8)
        assert config.effective_service_time(override, "sink") == \
            pytest.approx(0.0004 + HOP / 2)
