"""ActiveDR core: activity model, activeness evaluation, classification,
and the retention policies (ActiveDR + the FLT baseline)."""

from .activeness import (
    ActivenessEvaluator,
    ActivenessParams,
    ActivenessTable,
    UserActiveness,
    RankAccumulator,
    evaluate_type_bulk,
    fold_type_ranks,
    safe_exp,
    type_log_rank,
)
from .activity import (
    DATA_TRANSFER,
    DATASET_GENERATED,
    FILE_ACCESS,
    JOB_COMPLETION,
    JOB_SUBMISSION,
    PUBLICATION,
    SHELL_LOGIN,
    Activity,
    ActivityCategory,
    ActivityLedger,
    ActivityType,
    activities_from_jobs,
    activities_from_publications,
)
from .classification import (
    GROUP_SCAN_ORDER,
    UserClass,
    classify,
    classify_all,
    group_counts,
    scan_ordered_uids,
)
from .config import FACILITY_PRESETS, RetentionConfig, facility_preset
from .exemption import ExemptionList
from .cache_policy import JobResidencyIndex, ScratchAsCachePolicy
from .flt import FixedLifetimePolicy
from .incremental import ColumnarActivityStore, build_activity_store
from .notify import (
    CollectingNotifier,
    FileNotifier,
    LoggingNotifier,
    Notification,
    Notifier,
    notification_from_report,
    render_notification,
)
from .policy import RetentionPolicy, purge_target_bytes
from .report import GroupTally, RetentionReport
from .retention import ActiveDRPolicy, adjusted_lifetime_seconds
from .value_based import CompositeValueFunction, ValueBasedPolicy

__all__ = [
    "ActivenessEvaluator",
    "ActivenessParams",
    "ActivenessTable",
    "UserActiveness",
    "RankAccumulator",
    "evaluate_type_bulk",
    "fold_type_ranks",
    "safe_exp",
    "type_log_rank",
    "Activity",
    "ActivityCategory",
    "ActivityLedger",
    "ActivityType",
    "activities_from_jobs",
    "activities_from_publications",
    "JOB_SUBMISSION",
    "PUBLICATION",
    "SHELL_LOGIN",
    "FILE_ACCESS",
    "DATA_TRANSFER",
    "JOB_COMPLETION",
    "DATASET_GENERATED",
    "GROUP_SCAN_ORDER",
    "UserClass",
    "classify",
    "classify_all",
    "group_counts",
    "scan_ordered_uids",
    "FACILITY_PRESETS",
    "RetentionConfig",
    "facility_preset",
    "ExemptionList",
    "FixedLifetimePolicy",
    "JobResidencyIndex",
    "ScratchAsCachePolicy",
    "CompositeValueFunction",
    "ValueBasedPolicy",
    "ColumnarActivityStore",
    "build_activity_store",
    "CollectingNotifier",
    "FileNotifier",
    "LoggingNotifier",
    "Notification",
    "Notifier",
    "notification_from_report",
    "render_notification",
    "RetentionPolicy",
    "purge_target_bytes",
    "GroupTally",
    "RetentionReport",
    "ActiveDRPolicy",
    "adjusted_lifetime_seconds",
]
