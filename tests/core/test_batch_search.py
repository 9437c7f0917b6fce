"""The analytical batch-size grid search (``search_batch_sizes``).

Batching trades per-tuple hop overhead for queueing delay; the search
prices every grid size with ``predict_batching`` and keeps the smallest
one within tolerance of the best, then refines hot edges one at a
time.  These tests pin the decision logic — a costly hop earns a batch,
a free hop does not, a latency budget can veto, explicit ``Edge.batch``
overrides are never re-chosen — and the ``auto_fuse(batch_search=True)``
integration that rides the fused topology through the search.
"""

from __future__ import annotations

import pytest

from repro.core.autofusion import (
    DEFAULT_BATCH_GRID,
    BatchSizeChoice,
    auto_fuse,
    search_batch_sizes,
)
from repro.core.graph import (
    BatchConfig,
    Edge,
    OperatorSpec,
    Topology,
    TopologyError,
)


def hop_chain(stage_time: float = 2e-4, stages: int = 3) -> Topology:
    """Linear chain of cheap operators; the hop dominates the stage."""
    specs = [OperatorSpec(name="src", service_time=stage_time)]
    specs += [OperatorSpec(name=f"s{i}", service_time=stage_time)
              for i in range(stages)]
    specs += [OperatorSpec(name="sink", service_time=stage_time / 2)]
    names = [spec.name for spec in specs]
    edges = [Edge(a, b) for a, b in zip(names, names[1:])]
    return Topology(specs, edges, name="hop-chain")


class TestGridSweep:
    def test_costly_hop_earns_a_batch(self):
        choice = search_batch_sizes(hop_chain(), hop_overhead=2e-4)
        assert choice.global_size > 1
        assert choice.throughput_gain > 1.0
        # Every free edge got the choice materialized on the topology.
        for edge in choice.batched.edges:
            size = choice.per_edge[(edge.source, edge.target)]
            if size > 1:
                assert edge.batch is not None
                assert edge.batch.size == size

    def test_free_hop_stays_unbatched(self):
        choice = search_batch_sizes(hop_chain(), hop_overhead=0.0)
        # With a free hop batching only adds latency; the smallest-
        # within-tolerance rule must collapse to size 1.
        assert choice.global_size == 1
        for edge in choice.batched.edges:
            assert edge.batch is None

    def test_smallest_size_within_tolerance_wins(self):
        choice = search_batch_sizes(hop_chain(), hop_overhead=2e-4)
        # A tiny tolerance forces the literal argmax; the default 1%
        # tolerance must never pick a *larger* size than that.
        greedy = search_batch_sizes(hop_chain(), hop_overhead=2e-4,
                                    rel_improvement=0.0, refine_edges=False)
        assert choice.global_size <= greedy.global_size

    def test_latency_budget_caps_the_batch(self):
        unbounded = search_batch_sizes(hop_chain(), hop_overhead=5e-4,
                                       refine_edges=False)
        assert unbounded.global_size > 1
        budget = unbounded.prediction.mean_added_latency / 2
        bounded = search_batch_sizes(hop_chain(), hop_overhead=5e-4,
                                     refine_edges=False,
                                     latency_budget=budget)
        assert bounded.prediction.mean_added_latency <= budget
        assert bounded.global_size < unbounded.global_size

    def test_quiet_stream_admits_batches_a_busy_one_cannot_afford(self):
        # 16 tuples at 50/s never fill inside any sane budget, but a
        # work-conserving flush does not wait for them: at 1 % sender
        # utilization the batch is nearly free and the budget admits it.
        budget = 5e-3
        quiet = search_batch_sizes(hop_chain(), hop_overhead=5e-4,
                                   grid=(16,), source_rate=50.0,
                                   latency_budget=budget)
        assert quiet.global_size == 16
        assert quiet.prediction.mean_added_latency <= budget
        # Closed loop the senders are saturated and the same batch pays
        # its whole fill wait.
        with pytest.raises(TopologyError, match="latency budget"):
            search_batch_sizes(hop_chain(), hop_overhead=5e-4, grid=(16,),
                               latency_budget=budget / 10)

    def test_impossible_budget_rejected(self):
        with pytest.raises(TopologyError, match="latency budget"):
            search_batch_sizes(hop_chain(), hop_overhead=5e-4,
                               grid=(16, 32), latency_budget=1e-12)

    def test_explicit_edge_override_respected(self):
        topology = hop_chain()
        pinned = Topology(
            list(topology.operators),
            [Edge("src", "s0", batch=BatchConfig(size=7))]
            + [e for e in topology.edges if e.source != "src"],
            name=topology.name)
        choice = search_batch_sizes(pinned, hop_overhead=2e-4)
        assert ("src", "s0") not in choice.per_edge
        batched = {(e.source, e.target): e.batch for e in choice.batched.edges}
        assert batched[("src", "s0")].size == 7


class TestValidation:
    def test_empty_grid_rejected(self):
        with pytest.raises(TopologyError, match="grid"):
            search_batch_sizes(hop_chain(), hop_overhead=1e-4, grid=())

    def test_sub_one_size_rejected(self):
        with pytest.raises(TopologyError, match=">= 1"):
            search_batch_sizes(hop_chain(), hop_overhead=1e-4, grid=(0, 4))


class TestRefinement:
    def test_refinement_never_loses_throughput(self):
        base = search_batch_sizes(hop_chain(), hop_overhead=2e-4,
                                  refine_edges=False)
        refined = search_batch_sizes(hop_chain(), hop_overhead=2e-4,
                                     refine_edges=True)
        assert refined.throughput >= base.throughput
        if refined.refined:
            assert refined.per_edge != base.per_edge


class TestAutoFuseIntegration:
    def test_batch_search_rides_the_fused_topology(self):
        result = auto_fuse(hop_chain(stages=4), batch_search=True,
                           hop_overhead=2e-4)
        assert isinstance(result.batching, BatchSizeChoice)
        assert result.batching.grid == tuple(sorted(set(DEFAULT_BATCH_GRID)))
        # The search prices the *fused* topology, not the original.
        searched = {v for key in result.batching.per_edge for v in key}
        assert searched <= {spec.name for spec in result.batching.batched}

    def test_default_off(self):
        result = auto_fuse(hop_chain())
        assert result.batching is None
