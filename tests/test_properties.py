"""Property-based tests (hypothesis) for the core invariants.

Random topologies come from the Algorithm 5 generator driven by a
hypothesis-chosen seed: every property therefore holds over the same
population the paper's evaluation samples from.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fission import apply_replica_bound, eliminate_bottlenecks
from repro.core.fusion import FusionError, plan_fusion, validate_fusion
from repro.core.graph import KeyDistribution, StateKind
from repro.core.partitioning import (
    consistent_hash_partitioning,
    greedy_partitioning,
)
from repro.core.steady_state import RHO_TOLERANCE, analyze
from repro.operators.window import CountSlidingWindow
from repro.topology.random_gen import RandomTopologyGenerator, zipf_probabilities
from repro.topology.xmlio import parse_topology, topology_to_xml

from tests.core.test_partitioning import reference_lpt

SEEDS = st.integers(min_value=0, max_value=2_000)
RELAXED = settings(max_examples=40, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


def random_topology(seed):
    return RandomTopologyGenerator(seed=seed).generate(name=f"prop-{seed}")


key_distributions = st.dictionaries(
    st.text(alphabet="abcdefgh", min_size=1, max_size=4),
    st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    min_size=1, max_size=32,
).map(lambda freqs: KeyDistribution(
    {k: v / sum(freqs.values()) for k, v in freqs.items()}
))


class TestSteadyStateProperties:
    @given(seed=SEEDS)
    @RELAXED
    def test_all_utilizations_at_most_one(self, seed):
        topology = random_topology(seed)
        result = analyze(topology)
        for name in topology.names:
            assert result.utilization(name) <= 1.0 + 1e-6

    @given(seed=SEEDS)
    @RELAXED
    def test_flow_conservation_everywhere(self, seed):
        topology = random_topology(seed)
        result = analyze(topology)
        for name in topology.names:
            spec = topology.operator(name)
            rates = result.rates[name]
            expected = min(rates.arrival_rate, rates.capacity) * spec.gain
            assert math.isclose(rates.departure_rate, expected, rel_tol=1e-9)

    @given(seed=SEEDS)
    @RELAXED
    def test_throughput_never_exceeds_source_rate(self, seed):
        topology = random_topology(seed)
        source_rate = topology.operator(topology.source).service_rate
        result = analyze(topology)
        assert result.throughput <= source_rate * (1.0 + 1e-9)

    @given(seed=SEEDS)
    @RELAXED
    def test_corrections_strictly_decrease_source_rate(self, seed):
        topology = random_topology(seed)
        result = analyze(topology)
        rates = [c.source_rate_before for c in result.corrections]
        rates += [result.corrections[-1].source_rate_after] \
            if result.corrections else []
        assert all(a > b for a, b in zip(rates, rates[1:]))

    @given(seed=SEEDS, scale=st.floats(min_value=0.1, max_value=0.9))
    @RELAXED
    def test_throughput_monotone_in_source_rate(self, seed, scale):
        topology = random_topology(seed)
        full_rate = topology.operator(topology.source).service_rate
        slow = analyze(topology, source_rate=full_rate * scale)
        fast = analyze(topology, source_rate=full_rate)
        assert slow.throughput <= fast.throughput * (1.0 + 1e-9)

    @given(seed=SEEDS)
    @RELAXED
    def test_analysis_deterministic(self, seed):
        topology = random_topology(seed)
        a, b = analyze(topology), analyze(topology)
        for name in topology.names:
            assert a.departure_rate(name) == b.departure_rate(name)


class TestFissionProperties:
    @given(seed=SEEDS)
    @RELAXED
    def test_fission_never_decreases_throughput(self, seed):
        topology = random_topology(seed)
        before = analyze(topology)
        after = eliminate_bottlenecks(topology)
        assert after.throughput >= before.throughput * (1.0 - 1e-9)

    @given(seed=SEEDS)
    @RELAXED
    def test_stateful_operators_never_replicated(self, seed):
        topology = random_topology(seed)
        result = eliminate_bottlenecks(topology)
        for spec in result.optimized.operators:
            if spec.state is StateKind.STATEFUL:
                assert spec.replication == 1

    @given(seed=SEEDS)
    @RELAXED
    def test_optimized_topology_has_no_stateless_bottlenecks(self, seed):
        topology = random_topology(seed)
        result = eliminate_bottlenecks(topology)
        for name in result.residual_bottlenecks:
            assert result.optimized.operator(name).state is not \
                StateKind.STATELESS

    @given(seed=SEEDS, slack=st.integers(min_value=0, max_value=5))
    @RELAXED
    def test_replica_bound_respected(self, seed, slack):
        topology = random_topology(seed)
        bound = len(topology) + slack
        result = eliminate_bottlenecks(topology, max_replicas=bound)
        assert result.optimized.total_replicas() <= bound

    @given(seed=SEEDS)
    @RELAXED
    def test_apply_replica_bound_floor_of_one(self, seed):
        topology = random_topology(seed)
        optimized = eliminate_bottlenecks(topology).optimized
        bounded = apply_replica_bound(optimized, len(topology))
        assert all(spec.replication >= 1 for spec in bounded.operators)


class TestPartitioningProperties:
    @given(keys=key_distributions, replicas=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_greedy_plan_invariants(self, keys, replicas):
        plan = greedy_partitioning(keys, replicas)
        assert math.isclose(sum(plan.loads), 1.0, rel_tol=1e-6)
        assert set(plan.assignment) == set(keys.frequencies)
        assert plan.replicas <= replicas
        assert plan.p_max >= 1.0 / replicas - 1e-9
        assert plan.p_max >= keys.max_frequency() - 1e-9

    @given(keys=key_distributions, replicas=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_greedy_upper_bound(self, keys, replicas):
        # LPT guarantee: p_max <= 1/n + heaviest key frequency.
        plan = greedy_partitioning(keys, replicas)
        assert plan.p_max <= 1.0 / replicas + keys.max_frequency() + 1e-9

    @given(keys=key_distributions, replicas=st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_greedy_equals_reference_scan(self, keys, replicas):
        # Same choices, same float additions: equal to the last bit.
        plan = greedy_partitioning(keys, replicas)
        assignment, loads = reference_lpt(keys, replicas)
        assert plan.assignment == assignment
        assert plan.loads == loads

    @given(keys=key_distributions, replicas=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_consistent_hash_plan_invariants(self, keys, replicas):
        plan = consistent_hash_partitioning(keys, replicas)
        assert math.isclose(sum(plan.loads), 1.0, rel_tol=1e-6)
        assert set(plan.assignment) == set(keys.frequencies)


class TestGeneratorProperties:
    @given(count=st.integers(2, 10), alpha=st.floats(1.01, 3.0),
           seed=SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_zipf_probabilities_normalized(self, count, alpha, seed):
        import random as random_module
        probabilities = zipf_probabilities(
            count, alpha, random_module.Random(seed))
        assert math.isclose(sum(probabilities), 1.0, rel_tol=1e-9)
        assert all(p > 0 for p in probabilities)

    @given(seed=SEEDS)
    @RELAXED
    def test_xml_round_trip_preserves_analysis(self, seed):
        topology = random_topology(seed)
        parsed = parse_topology(topology_to_xml(topology))
        original = analyze(topology)
        restored = analyze(parsed)
        assert math.isclose(original.throughput, restored.throughput,
                            rel_tol=1e-9)


class TestFusionProperties:
    @given(seed=SEEDS)
    @RELAXED
    def test_validated_candidates_produce_consistent_plans(self, seed):
        topology = random_topology(seed)
        names = topology.names
        # Try consecutive pairs in topological order; fuse the valid ones.
        for a, b in zip(names[1:], names[2:]):
            try:
                front_end = validate_fusion(topology, [a, b])
            except FusionError:
                continue
            plan = plan_fusion(topology, [a, b])
            assert plan.front_end == front_end
            assert plan.service_time >= max(
                0.0, topology.operator(front_end).service_time - 1e-12
            )
            assert all(rate >= 0 for rate in plan.exit_rates.values())

    @given(seed=SEEDS)
    @RELAXED
    def test_fusion_never_improves_throughput(self, seed):
        from repro.core.fusion import apply_fusion
        topology = random_topology(seed)
        names = topology.names
        for a, b in zip(names[1:], names[2:]):
            try:
                result = apply_fusion(topology, [a, b])
            except FusionError:
                continue
            assert result.throughput_after <= \
                result.throughput_before * (1.0 + 1e-9)
            break  # one valid fusion per topology keeps the test fast


class TestWindowProperties:
    @given(length=st.integers(1, 50), slide=st.integers(1, 50),
           count=st.integers(0, 300))
    @settings(max_examples=80, deadline=None)
    def test_firing_count_and_content(self, length, slide, count):
        window = CountSlidingWindow(length=length, slide=slide)
        firings = 0
        for i in range(count):
            fired = window.push(i)
            if fired is not None:
                firings += 1
                assert len(fired) <= length
                # Content is exactly the most recent items.
                expected = list(range(max(0, i + 1 - length), i + 1))
                assert fired == expected
        assert firings == count // slide


class TestExtensionProperties:
    @given(seed=SEEDS)
    @RELAXED
    def test_cyclic_solver_matches_algorithm1_on_dags(self, seed):
        """On acyclic inputs the fixed-point solver IS Algorithm 1."""
        from repro.core.cycles import CyclicGraph, analyze_cyclic
        topology = random_topology(seed)
        graph = CyclicGraph(topology.operators, topology.edges)
        assert not graph.cycles_exist()
        cyclic = analyze_cyclic(graph)
        acyclic = analyze(topology)
        assert math.isclose(cyclic.throughput, acyclic.throughput,
                            rel_tol=1e-6)
        for name in topology.names:
            assert math.isclose(
                cyclic.departure_rate(name),
                acyclic.departure_rate(name),
                rel_tol=1e-6, abs_tol=1e-9,
            )

    @given(seed=SEEDS)
    @RELAXED
    def test_autofusion_preserves_throughput(self, seed):
        from repro.core.autofusion import auto_fuse
        topology = random_topology(seed)
        before = analyze(topology).throughput
        result = auto_fuse(topology)
        assert math.isclose(result.throughput, before, rel_tol=1e-9)
        assert len(result.fused) <= len(topology)

    @given(seed=SEEDS, scale=st.floats(min_value=0.2, max_value=0.95))
    @RELAXED
    def test_latency_monotone_in_load(self, seed, scale):
        from repro.core.latency import estimate_latency
        topology = random_topology(seed)
        full = topology.operator(topology.source).service_rate
        low = estimate_latency(topology, source_rate=full * scale * 0.5)
        high = estimate_latency(topology, source_rate=full * scale)
        assert high.end_to_end >= low.end_to_end - 1e-12

    @given(seed=SEEDS)
    @RELAXED
    def test_latency_at_least_service_floor(self, seed):
        """End-to-end latency can never undercut the cheapest path."""
        from repro.core.latency import estimate_latency
        topology = random_topology(seed)
        estimate = estimate_latency(topology, assumption="deterministic")
        cheapest = min(
            sum(topology.operator(v).service_time for v in path
                if v != topology.source)
            for sink in topology.sinks
            for path, _ in topology.paths_to(sink)
        )
        assert estimate.end_to_end >= cheapest - 1e-12

    @given(seed=SEEDS)
    @RELAXED
    def test_deployment_plan_is_json_serializable(self, seed):
        import json
        from repro.codegen.deployment import deployment_plan
        topology = random_topology(seed)
        plan = deployment_plan(topology)
        parsed = json.loads(json.dumps(plan))
        assert {e["name"] for e in parsed["operators"]} == set(topology.names)


class TestMemoryProperties:
    @given(seed=SEEDS)
    @RELAXED
    def test_queue_memory_bounded_by_buffers(self, seed):
        from repro.core.memory import estimate_memory
        topology = random_topology(seed)
        estimate = estimate_memory(topology, mailbox_capacity=64)
        for spec in topology.operators:
            op = estimate.operators[spec.name]
            assert op.queued_items >= 0.0
            assert op.queued_items <= 64 * spec.replication + 1e-9

    @given(seed=SEEDS)
    @RELAXED
    def test_state_memory_matches_window_arguments(self, seed):
        from repro.core.memory import estimate_memory
        from repro.core.graph import StateKind
        topology = random_topology(seed)
        estimate = estimate_memory(topology)
        for spec in topology.operators:
            op = estimate.operators[spec.name]
            length = (spec.operator_args or {}).get("length")
            if not isinstance(length, (int, float)) or length <= 0:
                assert op.state_items == 0.0
            elif spec.state is StateKind.PARTITIONED and spec.keys:
                assert op.state_items == length * len(spec.keys)
            else:
                assert op.state_items == length

    @given(seed=SEEDS)
    @RELAXED
    def test_memory_monotone_in_bytes_per_item(self, seed):
        from repro.core.memory import estimate_memory
        topology = random_topology(seed)
        small = estimate_memory(topology, bytes_per_item=64.0)
        large = estimate_memory(topology, bytes_per_item=256.0)
        assert large.total_bytes == small.total_bytes * 4.0
        assert large.total_items == small.total_items
