"""Mini Flink-style sharded dataflow engine + the paper's applications
in automatic, sequential, and manual-synchronization variants (§4.2-4.3,
Appendix G)."""

from .apps import build_event_window_job, build_fraud_job, build_pageview_job
from .engine import (
    FlinkJob,
    JobGraph,
    OperatorInstance,
    Rec,
    TimestampMerger,
    Watermark,
)
from .splan import (
    ForkJoinService,
    build_fraud_splan_job,
    build_pageview_splan_job,
)

__all__ = [
    "FlinkJob",
    "ForkJoinService",
    "JobGraph",
    "OperatorInstance",
    "Rec",
    "TimestampMerger",
    "Watermark",
    "build_event_window_job",
    "build_fraud_job",
    "build_fraud_splan_job",
    "build_pageview_job",
    "build_pageview_splan_job",
]
