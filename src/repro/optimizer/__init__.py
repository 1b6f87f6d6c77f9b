"""The Tukwila query optimizer: cost model, DP enumeration, saved state, rules."""

from repro.optimizer.cost_model import CardinalityEstimate, CostModel, CostParameters
from repro.optimizer.enumeration import DPEntry, JoinEnumerator, OptimizerState, UsagePointers
from repro.optimizer.memory_alloc import (
    MIN_JOIN_ALLOTMENT_BYTES,
    JoinMemoryRequest,
    allocate_memory,
)
from repro.optimizer.optimizer import (
    OptimizationResult,
    Optimizer,
    OptimizerConfig,
    PlanningStrategy,
    ReoptimizationMode,
)
from repro.optimizer.rulegen import (
    overflow_method_rule,
    replan_rule,
    rules_for_fragment,
    timeout_reschedule_rule,
)

__all__ = [
    "CardinalityEstimate",
    "CostModel",
    "CostParameters",
    "DPEntry",
    "JoinEnumerator",
    "JoinMemoryRequest",
    "MIN_JOIN_ALLOTMENT_BYTES",
    "OptimizationResult",
    "Optimizer",
    "OptimizerConfig",
    "OptimizerState",
    "PlanningStrategy",
    "ReoptimizationMode",
    "UsagePointers",
    "allocate_memory",
    "overflow_method_rule",
    "replan_rule",
    "rules_for_fragment",
    "timeout_reschedule_rule",
]
