"""Multi-policy comparison harness (FLT vs ActiveDR by default).

Runs the selected policies over *identical replicas* of the same snapshot
file system and the same traces, which is exactly how the paper derives
Figs. 6-11: each policy gets its own copy of the virtual file system, the
same 7-day purge trigger, the same purge target, and the same access log.
``policies=`` widens the comparison to the full retention spectrum --
the two related-work baselines ``ValueBased`` and ``ScratchAsCache``
ride along with FLT/ActiveDR when asked for (``policies="spectrum"``).

Two engines drive the replay:

* ``engine="reference"`` -- the per-record :class:`Emulator` (default);
* ``engine="fast"`` -- the columnar :class:`FastEmulator`, replaying a
  :class:`CompiledTrace` built once and shared by both policies (and, via
  the ``compiled=`` argument, by every lifetime of a sweep).  Results are
  bit-identical to the reference engine.

``run_lifetime_sweep`` and ``single_snapshot_comparison`` additionally
take ``n_ranks`` to farm lifetime configurations across worker processes
on the :func:`repro.parallel.comm.run_spmd` substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from ..core.cache_policy import JobResidencyIndex, ScratchAsCachePolicy
from ..core.classification import UserClass
from ..core.config import RetentionConfig
from ..core.exemption import ExemptionList
from ..core.flt import FixedLifetimePolicy
from ..core.incremental import build_activity_store
from ..core.policy import RetentionPolicy
from ..core.retention import ActiveDRPolicy
from ..core.value_based import ValueBasedPolicy
from ..parallel.comm import run_spmd
from ..synth.titan import TitanDataset
from .compiled import CompiledTrace, FastEmulator, compile_dataset, replay_bounds
from .emulator import Emulator, EmulatorConfig, EmulationResult

__all__ = ["ComparisonResult", "ComparisonRunner", "run_lifetime_sweep",
           "single_snapshot_comparison", "normalize_policies", "build_policy",
           "FLT", "ACTIVEDR", "VALUEBASED", "SCRATCHCACHE", "SPECTRUM"]

FLT = "FLT"
ACTIVEDR = "ActiveDR"
VALUEBASED = "ValueBased"
SCRATCHCACHE = "ScratchAsCache"

#: The full retention spectrum, conservative to aggressive.
SPECTRUM = (FLT, ACTIVEDR, VALUEBASED, SCRATCHCACHE)

_POLICY_ALIASES = {
    "flt": FLT, "fixedlifetime": FLT,
    "activedr": ACTIVEDR, "adr": ACTIVEDR,
    "value": VALUEBASED, "valuebased": VALUEBASED,
    "cache": SCRATCHCACHE, "scratch": SCRATCHCACHE,
    "scratchascache": SCRATCHCACHE,
}


def normalize_policies(policies: str | Iterable[str]) -> tuple[str, ...]:
    """Canonical policy-name tuple for a spectrum selector.

    Accepts canonical names, CLI-style aliases (``value``, ``cache``,
    ``adr``...), and the strings ``"spectrum"`` / ``"all"`` for the full
    four-policy spectrum.  Order is preserved, duplicates dropped.
    """
    if isinstance(policies, str):
        if policies.lower() in ("spectrum", "all"):
            return SPECTRUM
        policies = (policies,)
    out: list[str] = []
    for name in policies:
        canon = _POLICY_ALIASES.get(str(name).lower())
        if canon is None:
            raise ValueError(
                f"unknown policy {name!r}; expected one of "
                f"{sorted(_POLICY_ALIASES)} or 'spectrum'")
        if canon not in out:
            out.append(canon)
    if not out:
        raise ValueError("policy selection is empty")
    return tuple(out)


def build_policy(name: str, config: RetentionConfig, *,
                 enforce_target: bool = False,
                 residency: JobResidencyIndex | None = None,
                 ) -> RetentionPolicy:
    """The policy object for ``name`` (any one name
    :func:`normalize_policies` accepts) under ``config``.

    ``enforce_target`` makes FLT stop at the purge target, as the other
    policies always do; ``residency`` is required by ScratchAsCache and
    ignored by the rest.
    """
    (name,) = normalize_policies(name)
    if name == FLT:
        return FixedLifetimePolicy(config, enforce_target=enforce_target)
    if name == ACTIVEDR:
        return ActiveDRPolicy(config)
    if name == VALUEBASED:
        return ValueBasedPolicy(config)
    if residency is None:
        raise ValueError("the ScratchAsCache policy needs a job-residency "
                         "index")
    return ScratchAsCachePolicy(config, residency=residency)


@dataclass(slots=True)
class ComparisonResult:
    """Paired replay results keyed by policy name."""

    lifetime_days: float
    results: dict[str, EmulationResult] = field(default_factory=dict)

    def __getitem__(self, policy: str) -> EmulationResult:
        return self.results[policy]

    def total_misses(self, policy: str) -> int:
        return self.results[policy].metrics.total_misses

    def miss_reduction(self) -> float:
        """Overall fraction of FLT misses that ActiveDR avoided."""
        flt = self.total_misses(FLT)
        if flt == 0:
            return 0.0
        return 1.0 - self.total_misses(ACTIVEDR) / flt

    def group_miss_reduction(self, group: UserClass) -> float:
        """Per-group miss-reduction ratio (the Fig. 8 statistic)."""
        flt = self.results[FLT].metrics.total_group_misses(group)
        if flt == 0:
            return 0.0
        adr = self.results[ACTIVEDR].metrics.total_group_misses(group)
        return 1.0 - adr / flt

    def daily_group_reduction_ratios(self, group: UserClass) -> np.ndarray:
        """Per-day reduction ratios on days where FLT missed (Fig. 8 box)."""
        flt = self.results[FLT].metrics.group_misses[group].astype(np.float64)
        adr = self.results[ACTIVEDR].metrics.group_misses[group].astype(np.float64)
        mask = flt > 0
        if not mask.any():
            return np.empty(0, dtype=np.float64)
        return np.clip(1.0 - adr[mask] / flt[mask], -np.inf, 1.0)


class ComparisonRunner:
    """Drives the paired replay for one lifetime configuration."""

    def __init__(self, dataset: TitanDataset,
                 config: RetentionConfig | None = None,
                 emulator_config: EmulatorConfig | None = None,
                 exemptions: ExemptionList | None = None,
                 flt_enforce_target: bool = False,
                 engine: str = "reference",
                 compiled: CompiledTrace | None = None,
                 policies: str | Iterable[str] = (FLT, ACTIVEDR),
                 residency: JobResidencyIndex | None = None) -> None:
        # flt_enforce_target=False is the paper's setup: the FLT baseline
        # "purges the files as in the logs" with no preparation and no
        # target, while ActiveDR stops the moment the target is reached.
        if engine not in ("reference", "fast"):
            raise ValueError(f"unknown engine {engine!r}")
        self.dataset = dataset
        self.config = config or RetentionConfig()
        self.emulator_config = emulator_config or EmulatorConfig()
        self.exemptions = exemptions
        self.flt_enforce_target = flt_enforce_target
        self.engine = engine
        self.compiled = compiled
        self.policies = normalize_policies(policies)
        self.residency = residency

    def _make_policy(self, name: str) -> RetentionPolicy:
        # ScratchAsCache: the residency index is trace-derived, so one
        # instance serves every lifetime of a sweep.
        if name == SCRATCHCACHE and self.residency is None:
            self.residency = JobResidencyIndex(self.dataset.jobs)
        return build_policy(name, self.config,
                            enforce_target=self.flt_enforce_target,
                            residency=self.residency)

    def run(self) -> ComparisonResult:
        ds = self.dataset
        out = ComparisonResult(lifetime_days=self.config.lifetime_days)
        known_uids = [u.uid for u in ds.users]

        policies = [self._make_policy(name) for name in self.policies]
        if self.engine == "fast":
            if self.compiled is None:
                self.compiled = compile_dataset(ds)
            # All policies trigger at the same instants with the same
            # params, so each activeness evaluation is computed once.
            cache: dict = {}
            for policy in policies:
                emulator = FastEmulator(policy, self.config.activeness,
                                        self.emulator_config, self.exemptions)
                out.results[policy.name] = emulator.run(
                    self.compiled, known_uids=known_uids,
                    activeness_cache=cache)
            return out

        # Shared preprocessing: all replays evaluate activeness from one
        # consolidated store instead of re-sorting activities per policy.
        store = build_activity_store(ds.jobs, ds.publications)
        store.consolidate()
        start, end = replay_bounds(ds)
        for policy in policies:
            emulator = Emulator(policy, self.config.activeness,
                                self.emulator_config, self.exemptions)
            fs = ds.fresh_filesystem()
            result = emulator.run(fs, ds.accesses, ds.jobs, ds.publications,
                                  start, end, known_uids=known_uids,
                                  activity_store=store)
            out.results[policy.name] = result
        return out


def _lifetime_config(base: RetentionConfig, lifetime: float) -> RetentionConfig:
    """Derive the per-lifetime configuration used by sweeps and snapshots.

    Period length of the activeness evaluation follows the lifetime, as in
    the paper's "period length (days)" axis.  Everything else -- on both
    the retention config and its nested activeness params -- carries over
    from ``base`` verbatim (``dataclasses.replace`` rather than a
    field-by-field rebuild, which once silently dropped ``max_periods``).
    """
    return replace(base, lifetime_days=lifetime,
                   activeness=replace(base.activeness, period_days=lifetime))


def _sweep_worker(comm, payload):
    """SPMD body: each rank replays a round-robin share of lifetimes."""
    dataset, lifetimes, base, runner_kwargs = payload
    out = {}
    for lifetime in lifetimes[comm.rank::comm.size]:
        runner = ComparisonRunner(dataset, _lifetime_config(base, lifetime),
                                  **runner_kwargs)
        out[lifetime] = runner.run()
    return out


def run_lifetime_sweep(dataset: TitanDataset,
                       lifetimes: tuple[float, ...] = (7.0, 30.0, 60.0, 90.0),
                       base_config: RetentionConfig | None = None,
                       n_ranks: int = 1,
                       **runner_kwargs) -> dict[float, ComparisonResult]:
    """The Figs. 9-11 / Tables 4-6 sweep over file-lifetime settings.

    Each lifetime gets a full paired replay; the caller reads the final
    retention report of each run for retained/purged/affected-user rows.
    With ``n_ranks > 1`` the lifetime configurations are farmed across
    worker processes (fork-based SPMD); results are identical to the
    serial sweep.  With ``engine="fast"`` the trace is compiled once and
    shared by every lifetime and rank.  ``policies="spectrum"`` widens
    each paired replay to the full four-policy retention spectrum; the
    job-residency index the cache baseline needs is likewise built once
    and shared.
    """
    base = base_config or RetentionConfig()
    lifetimes = tuple(lifetimes)
    policies = normalize_policies(runner_kwargs.get("policies",
                                                    (FLT, ACTIVEDR)))
    runner_kwargs = {**runner_kwargs, "policies": policies}
    if (runner_kwargs.get("engine") == "fast"
            and runner_kwargs.get("compiled") is None):
        runner_kwargs["compiled"] = compile_dataset(dataset)
    if SCRATCHCACHE in policies and runner_kwargs.get("residency") is None:
        runner_kwargs["residency"] = JobResidencyIndex(dataset.jobs)
    payload = (dataset, lifetimes, base, runner_kwargs)
    if n_ranks <= 1:
        merged = _sweep_worker(_SerialRank(), payload)
    else:
        merged = {}
        for part in run_spmd(_sweep_worker, n_ranks, payload):
            merged.update(part)
    return {lifetime: merged[lifetime] for lifetime in lifetimes}


class _SerialRank:
    """Minimal rank identity for running the SPMD body inline."""

    rank = 0
    size = 1


def _snapshot_worker(comm, payload):
    """SPMD body for :func:`single_snapshot_comparison`."""
    (state, store, known, base, lifetimes, t_c, exemptions) = payload
    out = {}
    for lifetime in lifetimes[comm.rank::comm.size]:
        config = _lifetime_config(base, lifetime)
        activeness = store.evaluate(t_c, config.activeness, known)
        reports = {}
        for policy in (FixedLifetimePolicy(config, enforce_target=True),
                       ActiveDRPolicy(config)):
            fs = state.replicate()
            reports[policy.name] = policy.run(fs, t_c,
                                              activeness=activeness,
                                              exemptions=exemptions)
        out[lifetime] = reports
    return out


def single_snapshot_comparison(
        dataset: TitanDataset,
        lifetimes: tuple[float, ...] = (7.0, 30.0, 60.0, 90.0),
        base_config: RetentionConfig | None = None,
        snapshot_day: int = 235,
        exemptions: ExemptionList | None = None,
        n_ranks: int = 1):
    """One-shot retention on an identical mid-year snapshot (section 4.4).

    The paper's Figs. 9-11 / Tables 4-6 come from running both policies,
    with the same purge target, against the same weekly metadata snapshot
    (captured Aug 23, 2016 -- day ~235).  This harness reconstructs that
    state by advancing the snapshot FS through the access trace with no
    retention, then runs FLT (target-enforced) and ActiveDR once each on
    replicas, per lifetime setting.  ``n_ranks > 1`` shards the lifetime
    settings across worker processes.  Returns
    ``{lifetime: {policy_name: RetentionReport}}``.
    """
    from .emulator import advance_filesystem

    base = base_config or RetentionConfig()
    t_c = replay_bounds(dataset)[0] + snapshot_day * 86_400

    state = dataset.fresh_filesystem()
    advance_filesystem(state, dataset.accesses, t_c)

    store = build_activity_store(dataset.jobs, dataset.publications)
    store.consolidate()  # once, pre-fork, instead of once per worker
    known = [u.uid for u in dataset.users]

    lifetimes = tuple(lifetimes)
    payload = (state, store, known, base, lifetimes, t_c, exemptions)
    if n_ranks <= 1:
        merged = _snapshot_worker(_SerialRank(), payload)
    else:
        merged = {}
        for part in run_spmd(_snapshot_worker, n_ranks, payload):
            merged.update(part)
    return {lifetime: merged[lifetime] for lifetime in lifetimes}
