"""Profiling: measure operator costs and routing frequencies from runs."""

from repro.profiling.online import (
    EstimatorConfig,
    OnlineEstimator,
    TickSample,
    VertexEstimate,
)
from repro.profiling.profiler import (
    OperatorProfile,
    ProfileReport,
    ServiceTimer,
    profile_topology,
)

__all__ = [
    "EstimatorConfig",
    "OnlineEstimator",
    "OperatorProfile",
    "ProfileReport",
    "ServiceTimer",
    "TickSample",
    "VertexEstimate",
    "profile_topology",
]
