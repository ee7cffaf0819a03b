"""The trace-replay emulator (paper section 4.1.3).

The emulation loop, faithful to the paper:

1. initialize the virtual file system from the last weekly metadata
   snapshot of the base year (done by the caller -- the emulator receives
   the FS);
2. replay the application log day by day: each replayed path either
   refreshes the file's atime or, when the path is no longer indexed,
   counts as a **file miss**;
3. every ``purge_trigger_days`` (7 at OLCF), run the retention policy.
   For ActiveDR a *preparation procedure* first evaluates every user's
   activeness from the activity traces accumulated up to the trigger
   instant; FLT needs no preparation (the evaluation is still computed so
   that misses and report rows can be attributed to activeness groups
   identically for both policies).

Extensions beyond the paper (both off by default or trace-driven):

* ``apply_creates`` -- honor ``create`` records in the application log so
  the scratch space grows over the replay year;
* ``restore_on_miss`` -- model users re-transmitting a missed file (the
  paper counts the miss and moves on; the ablation bench flips this).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Sequence

from ..core.activeness import ActivenessParams
from ..core.classification import UserClass, classify_all, group_counts
from ..core.incremental import ColumnarActivityStore, build_activity_store
from ..core.policy import RetentionPolicy
from ..core.exemption import ExemptionList
from ..core.report import RetentionReport
from ..traces.schema import AppAccessRecord, JobRecord, PublicationRecord
from ..vfs.file_meta import DAY_SECONDS, FileMeta
from ..vfs.filesystem import VirtualFileSystem
from .metrics import DailyMetrics

__all__ = ["EmulatorConfig", "EmulationResult", "Emulator",
           "advance_filesystem", "deterministic_file_size"]


def deterministic_file_size(path: str) -> int:
    """A stable synthetic size for files materialized during the replay.

    Derived from the path alone so FLT and ActiveDR replays see identical
    bytes.  Log-uniform-ish between 8 KiB and 16 MiB -- run outputs, not
    the bulk datasets already sized in the snapshot; the yearly created
    volume stays a modest fraction of snapshot capacity, as on a real
    system whose snapshot already reflects steady-state turnover.
    """
    h = zlib.crc32(path.encode("utf-8"))
    exponent = 13 + (h % 11)        # 2^13 .. 2^23
    mantissa = 1.0 + ((h >> 8) % 1000) / 1000.0
    return int(mantissa * (1 << exponent))


def advance_filesystem(fs: VirtualFileSystem,
                       accesses: Sequence[AppAccessRecord],
                       until_ts: int, *, apply_creates: bool = True) -> int:
    """Apply the access trace to ``fs`` up to ``until_ts``, with no policy.

    Refreshes atimes and materializes creations, exactly like the replay
    loop but without any retention -- used to reconstruct the paper's
    mid-year "weekly metadata snapshot" state, which both policies then
    scan from identical footing (section 4.4).  Returns the number of
    records applied.
    """
    applied = 0
    for rec in accesses:
        if rec.ts >= until_ts:
            break
        applied += 1
        if rec.op == "create":
            if apply_creates and rec.path not in fs:
                fs.add_file(rec.path, FileMeta(
                    size=deterministic_file_size(rec.path),
                    atime=rec.ts, mtime=rec.ts, ctime=rec.ts, uid=rec.uid))
            else:
                fs.touch(rec.path, rec.ts)
        else:
            fs.touch(rec.path, rec.ts)
    return applied


@dataclass(frozen=True, slots=True)
class EmulatorConfig:
    """Replay behaviour switches."""

    apply_creates: bool = True
    restore_on_miss: bool = False


@dataclass(slots=True)
class EmulationResult:
    """Everything one policy's replay produced."""

    policy: str
    lifetime_days: float
    metrics: DailyMetrics
    reports: list[RetentionReport] = field(default_factory=list)
    #: Group populations at each trigger (Fig. 5-style series).
    group_count_history: list[dict[UserClass, int]] = field(default_factory=list)
    final_classes: dict[int, UserClass] = field(default_factory=dict)
    final_total_bytes: int = 0
    final_file_count: int = 0

    @property
    def final_report(self) -> RetentionReport | None:
        return self.reports[-1] if self.reports else None


class Emulator:
    """Replays an access trace against one retention policy."""

    def __init__(self, policy: RetentionPolicy,
                 activeness_params: ActivenessParams | None = None,
                 config: EmulatorConfig | None = None,
                 exemptions: ExemptionList | None = None) -> None:
        self.policy = policy
        self.params = activeness_params or policy.config.activeness
        self.config = config or EmulatorConfig()
        self.exemptions = exemptions

    def run(self, fs: VirtualFileSystem,
            accesses: Sequence[AppAccessRecord],
            jobs: Sequence[JobRecord],
            publications: Sequence[PublicationRecord],
            replay_start: int, replay_end: int,
            known_uids: Sequence[int] = (),
            activity_store: ColumnarActivityStore | None = None,
            ) -> EmulationResult:
        """Replay ``[replay_start, replay_end)``, mutating ``fs``.

        ``accesses`` must be time-sorted; ``jobs``/``publications`` may
        extend back before the replay (activity history).  The trigger-time
        preparation procedure evaluates against a consolidated
        :class:`ColumnarActivityStore` (each evaluation clips at the
        trigger instant); pass ``activity_store`` to share one pre-built
        store across replays, in which case ``jobs``/``publications`` are
        ignored.
        """
        if replay_end <= replay_start:
            raise ValueError("replay_end must exceed replay_start")
        n_days = -(-(replay_end - replay_start) // DAY_SECONDS)
        metrics = DailyMetrics(n_days)
        result = EmulationResult(policy=self.policy.name,
                                 lifetime_days=self.policy.config.lifetime_days,
                                 metrics=metrics)

        store = activity_store
        if store is None:
            store = build_activity_store(jobs, publications)
        params = self.params

        activeness = store.evaluate(replay_start, params, known_uids)
        classes = classify_all(activeness)
        result.group_count_history.append(group_counts(classes))

        trigger_interval = self.policy.config.purge_trigger_days
        access_cursor = 0
        n_accesses = len(accesses)

        for day in range(n_days):
            day_start = replay_start + day * DAY_SECONDS
            day_end = day_start + DAY_SECONDS

            if day > 0 and day % trigger_interval == 0:
                t_c = day_start
                activeness = store.evaluate(t_c, params, known_uids)
                classes = classify_all(activeness)
                result.group_count_history.append(group_counts(classes))
                report = self.policy.run(fs, t_c, activeness=activeness,
                                         exemptions=self.exemptions)
                result.reports.append(report)

            while (access_cursor < n_accesses
                   and accesses[access_cursor].ts < day_end):
                rec = accesses[access_cursor]
                access_cursor += 1
                if rec.ts < day_start:
                    continue  # out-of-window stragglers
                self._replay_one(fs, rec, day, metrics, classes)

        result.final_classes = classes
        result.final_total_bytes = fs.total_bytes
        result.final_file_count = fs.file_count
        return result

    # ------------------------------------------------------------------

    def _replay_one(self, fs: VirtualFileSystem, rec: AppAccessRecord,
                    day: int, metrics: DailyMetrics,
                    classes: dict[int, UserClass]) -> None:
        if rec.op == "create":
            if self.config.apply_creates and rec.path not in fs:
                fs.add_file(rec.path, FileMeta(
                    size=deterministic_file_size(rec.path),
                    atime=rec.ts, mtime=rec.ts, ctime=rec.ts, uid=rec.uid))
            elif rec.path in fs:
                fs.touch(rec.path, rec.ts)
            return
        if rec.op == "touch":
            # Sweep-style atime renewal: only visits surviving files, so a
            # missing path is silently skipped (never a miss, never an
            # access in the miss-ratio denominator).
            fs.touch(rec.path, rec.ts)
            return

        metrics.record_access(day)
        if fs.touch(rec.path, rec.ts):
            return
        group = classes.get(rec.uid, UserClass.BOTH_INACTIVE)
        metrics.record_miss(day, group)
        if self.config.restore_on_miss:
            fs.add_file(rec.path, FileMeta(
                size=deterministic_file_size(rec.path),
                atime=rec.ts, mtime=rec.ts, ctime=rec.ts, uid=rec.uid))
