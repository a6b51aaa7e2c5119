"""Synchronization plans: structure, P-validity, generation, morphing
for elastic reconfiguration, and the communication-minimizing
optimizer (paper §3.2-§3.3, Appendix B)."""

from .cost import CostEstimate, compare_plans, estimate_cost
from .generation import (
    SHAPES,
    assign_hosts_round_robin,
    chain_plan,
    forest_plan,
    map_hosts,
    random_valid_plan,
    root_and_leaves_plan,
    rooted_shards_plan,
    sequential_plan,
    sharded_groups,
)
from .morph import (
    max_width,
    plan_width,
    repartition_plan,
    synchronizing_itags,
)
from .optimizer import StreamInfo, optimize
from .plan import PlanNode, SyncPlan
from .validity import (
    ValidityViolation,
    assert_p_valid,
    assert_reconfig_compatible,
    is_p_valid,
    reconfig_violations,
    validity_violations,
)

__all__ = [
    "CostEstimate",
    "PlanNode",
    "SHAPES",
    "StreamInfo",
    "SyncPlan",
    "ValidityViolation",
    "assert_p_valid",
    "assert_reconfig_compatible",
    "assign_hosts_round_robin",
    "chain_plan",
    "compare_plans",
    "estimate_cost",
    "forest_plan",
    "is_p_valid",
    "map_hosts",
    "max_width",
    "optimize",
    "plan_width",
    "random_valid_plan",
    "reconfig_violations",
    "repartition_plan",
    "root_and_leaves_plan",
    "rooted_shards_plan",
    "sequential_plan",
    "sharded_groups",
    "synchronizing_itags",
    "validity_violations",
]
