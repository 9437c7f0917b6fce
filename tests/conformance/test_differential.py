"""Differential bit-equality: batching and loop fusion are transparent.

Property tests over seeded random chain testbeds
(:mod:`repro.testing.differential`): for every seed, the loop-compiled
execution of a fused chain must produce byte-identical sink outputs to
the meta-actor execution, and batched mailboxes must produce
byte-identical outputs to unbatched ones — closed loop, where batches
leave full, and paced, where the work-conserving flush sends nearly
every one partial.  Twenty seeds gate tier-1 —
fourteen fault-free plus six under deterministic poison-fault chaos
plans (chaos targeting non-member vertices, where loop compilation
stays eligible).
"""

import pytest

from repro.codegen.fuseloop import loop_eligibility
from repro.core.fusion import plan_fusion
from repro.testing import (
    DifferentialConfig,
    canonical,
    chain_testbed,
    chaos_fault_plan,
    check_batching_seed,
    check_loop_chaos_seed,
    check_loop_seed,
)

FAST = DifferentialConfig(items=200)

PLAIN_SEEDS = list(range(1, 15))
CHAOS_SEEDS = list(range(15, 21))


class TestLoopDifferential:
    @pytest.mark.parametrize("seed", PLAIN_SEEDS)
    def test_loop_compiled_chain_bit_equal(self, seed):
        report = check_loop_seed(seed, FAST)
        assert report.ok, report.summary + f"; shrunk={report.shrunk_members}"

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_loop_compiled_chain_bit_equal_under_chaos(self, seed):
        report = check_loop_chaos_seed(seed, FAST)
        assert report.ok, report.summary + f"; shrunk={report.shrunk_members}"

    @pytest.mark.parametrize("seed", PLAIN_SEEDS[:5])
    def test_testbed_chains_are_loop_eligible(self, seed):
        # The differential only proves something if the loop side really
        # loop-compiles; the testbed catalog must pass the SS2xx gate.
        topology, members = chain_testbed(seed, FAST)
        plan = plan_fusion(topology, list(members))
        verdict = loop_eligibility(plan, topology)
        assert verdict.eligible, verdict.reasons
        assert verdict.chain is not None

    def test_chaos_plans_avoid_fused_members(self):
        for seed in CHAOS_SEEDS:
            topology, members = chain_testbed(seed, FAST)
            plan = chaos_fault_plan(topology, members, seed)
            assert not set(plan.vertices()) & set(members)


class TestBatchingDifferential:
    @pytest.mark.parametrize("seed", list(range(1, 9)))
    def test_batched_run_bit_equal(self, seed):
        report = check_batching_seed(seed, FAST)
        assert report.ok, report.summary

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_paced_batched_run_bit_equal(self, seed):
        # 200 items at 1000/s: every actor idles between arrivals, so
        # partial flushes dominate the batched side.
        report = check_batching_seed(seed, FAST, source_rate=1000.0)
        assert report.ok, report.summary

    def test_batch_size_one_is_unbatched(self):
        # Degenerate batching must be *exactly* the unbatched runtime.
        report = check_batching_seed(3, FAST, batch_size=1)
        assert report.ok, report.summary

    def test_loop_and_batching_compose(self):
        # Both optimizations at once still agree with the plain run.
        from repro.core.fusion import apply_fusion
        from repro.runtime.system import RuntimeConfig
        from repro.testing.differential import run_capture, topology_factories

        topology, members = chain_testbed(4, FAST)
        fused = apply_fusion(topology, list(members))
        factories = topology_factories(topology)

        def capture(**overrides):
            runtime = RuntimeConfig(
                mailbox_capacity=FAST.mailbox_capacity,
                max_items=FAST.items, seed=4, watchdog=False, **overrides)
            return run_capture(fused.fused, runtime,
                               fusion_plans=(fused.plan,),
                               factories=factories, config=FAST)

        plain = capture()
        both = capture(fusion_mode="loop", batch_size=8)
        assert plain == both
        assert plain  # at least one sink captured


class TestCanonical:
    def test_strips_born_stamp(self):
        assert canonical({"value": 1, "_born": 123.4}) == \
            canonical({"value": 1, "_born": 999.9})

    def test_orders_keys(self):
        assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})

    def test_distinguishes_values(self):
        assert canonical({"value": 1.0}) != canonical({"value": 1.0000001})
