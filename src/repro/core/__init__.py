"""Core SpinStreams algorithms: cost models and optimizations.

This package holds the paper's primary contribution:

* :mod:`repro.core.graph` — the abstract topology model;
* :mod:`repro.core.steady_state` — steady-state throughput analysis
  with backpressure (paper Algorithm 1 + Theorem 3.2);
* :mod:`repro.core.fission` — bottleneck elimination via operator
  replication (paper Algorithm 2) and the hold-off replica bound;
* :mod:`repro.core.partitioning` — key partitioning heuristics for
  partitioned-stateful operators;
* :mod:`repro.core.physical` — the physical plan (actor nodes, links,
  placement) every runtime backend wires from;
* :mod:`repro.core.fusion` — operator fusion (paper Algorithm 3);
* :mod:`repro.core.candidates` — ranked fusion-candidate enumeration;
* :mod:`repro.core.report` — Table 1/2-style textual reports.

Extensions beyond the paper (its §7 future work):

* :mod:`repro.core.latency` — static end-to-end latency estimation;
* :mod:`repro.core.multisource` — multiple sources via fictitious-source
  normalization;
* :mod:`repro.core.cycles` — cyclic topologies (fixed-point solver);
* :mod:`repro.core.autofusion` — automatic fusion selection;
* :mod:`repro.core.memory` — static memory-footprint estimation.
"""

from repro.core.autofusion import (
    AutoFusionResult,
    BatchSizeChoice,
    auto_fuse,
    search_batch_sizes,
)

from repro.core.candidates import FusionCandidate, enumerate_candidates
from repro.core.cycles import (
    CyclicGraph,
    CyclicRates,
    CyclicResult,
    analyze_cyclic,
)
from repro.core.fission import (
    FissionDecision,
    FissionResult,
    apply_replica_bound,
    eliminate_bottlenecks,
)
from repro.core.fusion import (
    FusionError,
    FusionPlan,
    FusionResult,
    apply_fusion,
    build_fused_topology,
    fusion_service_time,
    plan_fusion,
    validate_fusion,
)
from repro.core.graph import (
    CheckpointConfig,
    Edge,
    KeyDistribution,
    OperatorSpec,
    StateKind,
    Topology,
    TopologyError,
)
from repro.core.latency import (
    LatencyEstimate,
    OperatorLatency,
    estimate_latency,
    waiting_time,
)
from repro.core.memory import (
    MemoryEstimate,
    OperatorMemory,
    estimate_memory,
    memory_report,
)
from repro.core.multisource import (
    FICTITIOUS_SOURCE,
    MultiSourceTopology,
    merge_sources,
)
from repro.core.partitioning import (
    PartitionPlan,
    consistent_hash_partitioning,
    greedy_partitioning,
    key_partitioning,
    partition_shares,
    stable_key_hash,
)
from repro.core.report import analysis_report, fission_report, fusion_report
from repro.core.solver import (
    CheckpointPrediction,
    ShardingPrediction,
    SteadyStateSolver,
    analyze_cached,
    analyze_edit,
    clear_cache,
    predict_checkpoint,
    predict_sharding,
)
from repro.core.steady_state import (
    OperatorRates,
    SteadyStateResult,
    analyze,
    operator_capacity,
    predicted_throughput,
)

__all__ = [
    "AutoFusionResult",
    "BatchSizeChoice",
    "CheckpointConfig",
    "CheckpointPrediction",
    "CyclicGraph",
    "CyclicRates",
    "CyclicResult",
    "Edge",
    "FICTITIOUS_SOURCE",
    "LatencyEstimate",
    "MemoryEstimate",
    "MultiSourceTopology",
    "OperatorMemory",
    "OperatorLatency",
    "FissionDecision",
    "FissionResult",
    "FusionCandidate",
    "FusionError",
    "FusionPlan",
    "FusionResult",
    "KeyDistribution",
    "OperatorRates",
    "OperatorSpec",
    "PartitionPlan",
    "StateKind",
    "SteadyStateResult",
    "ShardingPrediction",
    "SteadyStateSolver",
    "Topology",
    "TopologyError",
    "analysis_report",
    "analyze",
    "analyze_cached",
    "analyze_cyclic",
    "analyze_edit",
    "auto_fuse",
    "search_batch_sizes",
    "clear_cache",
    "apply_fusion",
    "apply_replica_bound",
    "build_fused_topology",
    "consistent_hash_partitioning",
    "eliminate_bottlenecks",
    "enumerate_candidates",
    "estimate_latency",
    "estimate_memory",
    "fission_report",
    "fusion_report",
    "fusion_service_time",
    "greedy_partitioning",
    "key_partitioning",
    "memory_report",
    "merge_sources",
    "operator_capacity",
    "partition_shares",
    "stable_key_hash",
    "plan_fusion",
    "predict_checkpoint",
    "predict_sharding",
    "predicted_throughput",
    "validate_fusion",
    "waiting_time",
]
