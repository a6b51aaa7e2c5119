"""Mini Timely-Dataflow-style epoch-batched engine + the paper's
applications, including the feedback-loop fraud detector and the manual
page-view partitioning (§4.2, Appendix F)."""

from .apps import build_event_window_job, build_fraud_job, build_pageview_job, strip_ts
from .engine import StageDef, TimelyJob, TimelyWorker

__all__ = [
    "StageDef",
    "TimelyJob",
    "TimelyWorker",
    "build_event_window_job",
    "build_fraud_job",
    "build_pageview_job",
    "strip_ts",
]
