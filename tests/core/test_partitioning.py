"""Unit tests for the key-partitioning heuristics."""

import math
import pickle

import pytest

from repro.core.graph import KeyDistribution, TopologyError
from repro.core.partitioning import (
    PartitionPlan,
    consistent_hash_partitioning,
    greedy_partitioning,
    key_partitioning,
    partition_shares,
)


def reference_lpt(keys: KeyDistribution, replicas: int):
    """The LPT rule spelled as a scan: ``(assignment, loads)``.

    Heaviest key first (ties by key) onto the least-loaded replica
    (ties by index), one O(n) scan per key; empty replicas dropped.
    """
    loads = [0.0] * replicas
    assignment = {}
    for key, freq in sorted(keys.items(), key=lambda kv: (-kv[1], kv[0])):
        index = loads.index(min(loads))  # lowest index among the least
        assignment[key] = index
        loads[index] += freq
    used = sorted(set(assignment.values()))
    renumber = {old: new for new, old in enumerate(used)}
    return ({key: renumber[index] for key, index in assignment.items()},
            tuple(loads[old] for old in used))


def _two_heavy(num_keys: int) -> KeyDistribution:
    light = 0.2 / (num_keys - 2)
    frequencies = {"hot-a": 0.45, "hot-b": 0.35}
    frequencies.update({f"k{i}": light for i in range(num_keys - 2)})
    return KeyDistribution(frequencies)


DISTRIBUTIONS = {
    "uniform": KeyDistribution.uniform(24),
    "zipf-0.5": KeyDistribution.zipf(40, 0.5),
    "zipf-1.2": KeyDistribution.zipf(40, 1.2),
    "zipf-2.0": KeyDistribution.zipf(40, 2.0),
    # 0.125 is exact in binary: every partial sum ties exactly.
    "all-tied": KeyDistribution({f"t{i}": 0.125 for i in range(8)}),
    "two-heavy": _two_heavy(20),
}


class TestHeapMatchesReference:
    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    def test_bit_identical_for_every_degree(self, name):
        keys = DISTRIBUTIONS[name]
        for replicas in range(1, len(keys) + 4):
            plan = greedy_partitioning(keys, replicas)
            assignment, loads = reference_lpt(keys, replicas)
            assert plan.assignment == assignment, replicas
            assert plan.loads == loads, replicas  # ==, not approx
            assert plan.p_max >= keys.max_frequency()

    def test_more_replicas_than_keys_drops_empty_bins(self):
        keys = DISTRIBUTIONS["all-tied"]
        plan = greedy_partitioning(keys, len(keys) + 3)
        assert plan.replicas == len(keys)
        assert sorted(plan.assignment.values()) == list(range(len(keys)))

    def test_plans_do_not_depend_on_call_order(self):
        keys = KeyDistribution.zipf(60, 1.2)
        _, _, five_first = key_partitioning(keys, 5)
        key_partitioning(keys, 9)
        _, _, five_again = key_partitioning(keys, 5)
        assert five_again is five_first
        other = KeyDistribution.zipf(60, 1.2)
        key_partitioning(other, 9)
        _, _, five_after_nine = key_partitioning(other, 5)
        assert five_after_nine == five_first
        assert five_after_nine.loads == reference_lpt(keys, 5)[1]


class TestGreedy:
    def test_uniform_keys_balance_perfectly(self):
        plan = greedy_partitioning(KeyDistribution.uniform(100), 4)
        assert plan.replicas == 4
        assert math.isclose(plan.p_max, 0.25, rel_tol=1e-9)

    def test_loads_sum_to_one(self):
        plan = greedy_partitioning(KeyDistribution.zipf(50, 1.2), 5)
        assert math.isclose(sum(plan.loads), 1.0, rel_tol=1e-9)

    def test_every_key_assigned(self):
        keys = KeyDistribution.zipf(30, 1.0)
        plan = greedy_partitioning(keys, 3)
        assert set(plan.assignment) == {f"k{i}" for i in range(30)}

    def test_assignment_indices_within_range(self):
        plan = greedy_partitioning(KeyDistribution.uniform(20), 6)
        assert all(0 <= index < plan.replicas
                   for index in plan.assignment.values())

    def test_heavy_key_caps_balance(self):
        # One key with 60% of the traffic: p_max can never drop below it.
        keys = KeyDistribution({"hot": 0.6, "a": 0.2, "b": 0.2})
        plan = greedy_partitioning(keys, 3)
        assert math.isclose(plan.p_max, 0.6)

    def test_fewer_keys_than_replicas_drops_empty_bins(self):
        keys = KeyDistribution({"a": 0.5, "b": 0.5})
        plan = greedy_partitioning(keys, 5)
        assert plan.replicas == 2

    def test_single_replica_gets_everything(self):
        plan = greedy_partitioning(KeyDistribution.uniform(10), 1)
        assert plan.replicas == 1
        assert math.isclose(plan.p_max, 1.0)

    def test_deterministic(self):
        keys = KeyDistribution.zipf(40, 1.1)
        first = greedy_partitioning(keys, 4)
        second = greedy_partitioning(keys, 4)
        assert first.assignment == second.assignment

    def test_invalid_replicas_rejected(self):
        with pytest.raises(TopologyError, match="replicas"):
            greedy_partitioning(KeyDistribution.uniform(3), 0)

    def test_load_imbalance_at_least_one(self):
        plan = greedy_partitioning(KeyDistribution.zipf(64, 1.5), 8)
        assert plan.load_imbalance() >= 1.0


class TestConsistentHash:
    def test_loads_sum_to_one(self):
        plan = consistent_hash_partitioning(KeyDistribution.uniform(200), 4)
        assert math.isclose(sum(plan.loads), 1.0, rel_tol=1e-9)

    def test_deterministic_across_calls(self):
        keys = KeyDistribution.uniform(100)
        assert (consistent_hash_partitioning(keys, 4).assignment ==
                consistent_hash_partitioning(keys, 4).assignment)

    def test_reassignment_is_local_when_adding_replica(self):
        # Consistent hashing's selling point: adding one replica only
        # moves a fraction of the keys.
        keys = KeyDistribution.uniform(500)
        before = consistent_hash_partitioning(keys, 4).assignment
        after = consistent_hash_partitioning(keys, 5).assignment
        moved = sum(1 for key in before if before[key] != after[key])
        assert moved < len(before) * 0.6

    def test_worse_than_greedy_on_skew(self):
        keys = KeyDistribution.zipf(100, 1.4)
        greedy = greedy_partitioning(keys, 4)
        hashed = consistent_hash_partitioning(keys, 4)
        assert hashed.p_max >= greedy.p_max - 1e-12

    def test_more_virtual_nodes_smooths_uniform_keys(self):
        keys = KeyDistribution.uniform(2000)
        rough = consistent_hash_partitioning(keys, 4, virtual_nodes=2)
        smooth = consistent_hash_partitioning(keys, 4, virtual_nodes=256)
        assert smooth.p_max <= rough.p_max + 0.02

    def test_invalid_virtual_nodes_rejected(self):
        with pytest.raises(TopologyError, match="virtual_nodes"):
            consistent_hash_partitioning(KeyDistribution.uniform(5), 2,
                                         virtual_nodes=0)


class TestEntryPoint:
    def test_returns_replicas_pmax_and_plan(self):
        keys = KeyDistribution.uniform(100)
        replicas, p_max, plan = key_partitioning(keys, 4)
        assert replicas == 4
        assert math.isclose(p_max, plan.p_max)
        assert isinstance(plan, PartitionPlan)

    def test_never_exceeds_requested_replicas(self):
        keys = KeyDistribution({"a": 0.9, "b": 0.1})
        replicas, _, _ = key_partitioning(keys, 5)
        assert replicas <= 5

    def test_consistent_hash_heuristic_selectable(self):
        keys = KeyDistribution.uniform(64)
        _, _, plan = key_partitioning(keys, 4, heuristic="consistent-hash")
        assert math.isclose(sum(plan.loads), 1.0, rel_tol=1e-9)

    def test_unknown_heuristic_rejected(self):
        with pytest.raises(TopologyError, match="heuristic"):
            key_partitioning(KeyDistribution.uniform(4), 2, heuristic="magic")

    def test_partition_shares_shortcut(self):
        shares = partition_shares(KeyDistribution.uniform(100), 4)
        assert len(shares) == 4
        assert math.isclose(sum(shares), 1.0, rel_tol=1e-9)

    def test_p_max_lower_bound(self):
        # p_max >= 1/n always, and >= the heaviest key frequency.
        keys = KeyDistribution.zipf(30, 1.8)
        replicas, p_max, _ = key_partitioning(keys, 4)
        assert p_max >= 1.0 / 4 - 1e-12
        assert p_max >= keys.max_frequency() - 1e-12


class TestPlanMemo:
    """One plan per (distribution, heuristic, degree), kept on the
    distribution and invisible to ``==``, ``repr`` and pickles."""

    def test_equality_ignores_the_memo(self):
        fresh = KeyDistribution.zipf(50, 1.2)
        used = KeyDistribution.zipf(50, 1.2)
        key_partitioning(used, 4)
        partition_shares(used, 7, heuristic="consistent-hash")
        assert used == fresh and fresh == used
        assert repr(used) == repr(fresh)

    def test_pickle_leaves_the_memo_behind(self):
        fresh = KeyDistribution.zipf(200, 1.2)
        used = KeyDistribution.zipf(200, 1.2)
        for degree in (2, 4, 8):
            key_partitioning(used, degree)
        blob = pickle.dumps(used)
        assert len(blob) <= len(pickle.dumps(fresh))
        clone = pickle.loads(blob)
        assert clone == used
        assert vars(clone).keys() == {"frequencies"}
        assert key_partitioning(clone, 4)[2] == key_partitioning(used, 4)[2]

    def test_shared_plan_is_read_only(self):
        _, _, plan = key_partitioning(KeyDistribution.uniform(10), 3)
        with pytest.raises(TypeError):
            plan.assignment["k0"] = 2
        with pytest.raises(TypeError):
            del plan.assignment["k0"]
        assert dict(plan.assignment)["k0"] == plan.assignment["k0"]

    def test_same_plan_object_for_every_caller(self):
        keys = KeyDistribution.zipf(30, 1.0)
        _, _, plan = key_partitioning(keys, 4)
        assert key_partitioning(keys, 4)[2] is plan
        assert partition_shares(keys, 4) is plan.loads
        assert key_partitioning(keys, 4, heuristic="consistent-hash")[2] \
            is not plan

    def test_tool_pass_partitions_each_degree_once(self, monkeypatch):
        """parse → fission → auto-fuse → code → deployment plan over
        testbed topology 2 runs the LPT loop once per distinct
        (distribution, degree); the solver does what it did before."""
        from repro.codegen.deployment import deployment_json
        from repro.codegen.ss2py import generate_code
        from repro.core import partitioning
        from repro.core.autofusion import auto_fuse
        from repro.core.fission import eliminate_bottlenecks
        from repro.core.solver import clear_cache
        from repro.instrumentation import SOLVER
        from repro.topology import (generate_testbed, parse_topology,
                                    topology_to_xml)

        calls = []
        drop_empty = partitioning._drop_empty

        def counting(assignment, loads):
            calls.append((frozenset(assignment), len(loads)))
            return drop_empty(assignment, loads)

        monkeypatch.setattr(partitioning, "_drop_empty", counting)
        topology = parse_topology(
            topology_to_xml(generate_testbed(3, seed=42)[2]))
        clear_cache()
        before = SOLVER.snapshot()
        fission = eliminate_bottlenecks(topology)
        fused = auto_fuse(fission.optimized)
        generate_code(fission.optimized)
        deployment_json(fused.fused, fusion_plans=fused.plans)
        solver = SOLVER.since(before)

        assert calls, "topology 2 has partitioned-stateful operators"
        assert len(calls) == len(set(calls))
        # What the commit before the memo measured on this pass: 19 LPT
        # runs for these 9 distinct requests, and these solver counters.
        assert len(calls) == 9
        assert (solver.solve_requests, solver.full_solves,
                solver.incremental_solves, solver.cache_hits) == (7, 2, 1, 4)
