"""Trace-replay emulation: the day-granular replay loop, miss metrics,
the columnar fast-replay engine, and the multi-policy comparison runner
(FLT vs ActiveDR by default, full retention spectrum on request)."""

from .compiled import (
    CompiledTrace,
    DayPlan,
    FastEmulator,
    GroupLookup,
    ReplayIndex,
    TriggerEngine,
    compile_dataset,
    replay_bounds,
    replay_day_columns,
)
from .emulator import (
    EmulationResult,
    Emulator,
    EmulatorConfig,
    advance_filesystem,
    deterministic_file_size,
)
from .metrics import DailyMetrics
from .runner import (
    ACTIVEDR,
    FLT,
    SCRATCHCACHE,
    SPECTRUM,
    VALUEBASED,
    ComparisonResult,
    ComparisonRunner,
    normalize_policies,
    run_lifetime_sweep,
    single_snapshot_comparison,
)

__all__ = [
    "CompiledTrace",
    "DayPlan",
    "FastEmulator",
    "GroupLookup",
    "ReplayIndex",
    "TriggerEngine",
    "compile_dataset",
    "replay_bounds",
    "replay_day_columns",
    "EmulationResult",
    "Emulator",
    "EmulatorConfig",
    "advance_filesystem",
    "deterministic_file_size",
    "DailyMetrics",
    "ACTIVEDR",
    "FLT",
    "SCRATCHCACHE",
    "SPECTRUM",
    "VALUEBASED",
    "ComparisonResult",
    "ComparisonRunner",
    "normalize_policies",
    "run_lifetime_sweep",
    "single_snapshot_comparison",
]
