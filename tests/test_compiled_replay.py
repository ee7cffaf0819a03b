"""Equivalence suite: the columnar FastEmulator must reproduce the
reference Emulator bit for bit, and the parallel lifetime sweep must
match the serial one exactly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.activeness import ActivenessParams
from repro.core.cache_policy import JobResidencyIndex, ScratchAsCachePolicy
from repro.core.config import RetentionConfig
from repro.core.exemption import ExemptionList
from repro.core.flt import FixedLifetimePolicy
from repro.core.retention import ActiveDRPolicy
from repro.core.value_based import CompositeValueFunction, ValueBasedPolicy
from repro.emulation import (
    ComparisonRunner,
    CompiledTrace,
    DayPlan,
    Emulator,
    EmulatorConfig,
    FastEmulator,
    compile_dataset,
    normalize_policies,
    replay_bounds,
    run_lifetime_sweep,
)
from repro.emulation.compiled import PathCatalog
from repro.synth.titan import TitanConfig, generate_dataset


def assert_metrics_equal(fast, ref):
    assert np.array_equal(fast.accesses, ref.accesses)
    assert np.array_equal(fast.misses, ref.misses)
    for cls, series in ref.group_misses.items():
        assert np.array_equal(fast.group_misses[cls], series), cls


def assert_results_equal(fast, ref):
    assert fast.policy == ref.policy
    assert fast.lifetime_days == ref.lifetime_days
    assert_metrics_equal(fast.metrics, ref.metrics)
    assert len(fast.reports) == len(ref.reports)
    for fr, rr in zip(fast.reports, ref.reports):
        assert fr == rr
    assert fast.group_count_history == ref.group_count_history
    assert fast.final_classes == ref.final_classes
    assert fast.final_total_bytes == ref.final_total_bytes
    assert fast.final_file_count == ref.final_file_count


def run_both(dataset, policy_factory, emu_config, *,
             config=None, exemptions=None):
    config = config or RetentionConfig()
    known = [u.uid for u in dataset.users]
    start, end = replay_bounds(dataset)
    ref = Emulator(policy_factory(config, dataset), config.activeness,
                   emu_config, exemptions).run(
        dataset.fresh_filesystem(), dataset.accesses, dataset.jobs,
        dataset.publications, start, end, known_uids=known)
    compiled = compile_dataset(dataset)
    fast = FastEmulator(policy_factory(config, dataset), config.activeness,
                        emu_config, exemptions).run(compiled,
                                                    known_uids=known)
    return fast, ref


@pytest.fixture(scope="module")
def dataset(tiny_dataset):
    return tiny_dataset


POLICIES = [
    ("flt", lambda cfg, ds: FixedLifetimePolicy(cfg)),
    ("flt-target",
     lambda cfg, ds: FixedLifetimePolicy(cfg, enforce_target=True)),
    ("activedr", lambda cfg, ds: ActiveDRPolicy(cfg)),
    ("value", lambda cfg, ds: ValueBasedPolicy(cfg)),
    ("cache", lambda cfg, ds: ScratchAsCachePolicy(
        cfg, residency=JobResidencyIndex(ds.jobs))),
]


@pytest.mark.parametrize("apply_creates", [True, False])
@pytest.mark.parametrize("restore_on_miss", [True, False])
@pytest.mark.parametrize("policy_factory",
                         [p for _, p in POLICIES],
                         ids=[name for name, _ in POLICIES])
def test_fast_matches_reference(dataset, policy_factory, apply_creates,
                                restore_on_miss):
    emu_config = EmulatorConfig(apply_creates=apply_creates,
                                restore_on_miss=restore_on_miss)
    fast, ref = run_both(dataset, policy_factory, emu_config)
    assert_results_equal(fast, ref)


#: ActiveDR configurations beyond the defaults: finite ranks for the
#: relaxed empty-period rules (the rank keys, not staleness, order the
#: scan), a capped window, collapsed ranks kept at zero lifetime, and a
#: tight lifetime/target pair.  On these seeds "skip" runs every
#: retrospective pass and misses targets, and "tight" needs up to three
#: passes.
ACTIVEDR_CONFIGS = {
    "skip": RetentionConfig(activeness=ActivenessParams(empty_period="skip")),
    "epsilon": RetentionConfig(
        activeness=ActivenessParams(empty_period="epsilon")),
    "maxp3": RetentionConfig(activeness=ActivenessParams(max_periods=3)),
    "zero-rank": RetentionConfig(zero_rank_as_initial=False),
    "tight": RetentionConfig(lifetime_days=30.0,
                             purge_target_utilization=0.2),
}


#: ValueBased configurations beyond the defaults, each purging files in
#: threshold mode (triggers without a purge target) on these seeds: a
#: threshold some live files score below, a value without recency, and
#: a negative recency weight, which the value trigger must score in
#: full (its no-target shortcut holds for w_recency >= 0 only).
VALUE_POLICIES = {
    "threshold": lambda cfg, _: ValueBasedPolicy(cfg, value_threshold=0.45),
    "no-recency": lambda cfg, _: ValueBasedPolicy(
        cfg, value_function=CompositeValueFunction(w_recency=0.0),
        value_threshold=0.45),
    "negative-recency": lambda cfg, _: ValueBasedPolicy(
        cfg, value_function=CompositeValueFunction(w_recency=-0.5)),
}


@pytest.mark.parametrize("seed, n_users, config", [
    pytest.param(3, 25, None, id="3"),
    pytest.param(77, 25, None, id="77"),
    *(pytest.param(seed, 40, name, id=f"activedr-{name}-{seed}")
      for name in ACTIVEDR_CONFIGS for seed in (2021, 3)),
    *(pytest.param(seed, 40, name, id=f"value-{name}-{seed}")
      for name in VALUE_POLICIES for seed in (2021, 3)),
])
def test_fast_matches_reference_across_seeds(seed, n_users, config):
    ds = generate_dataset(TitanConfig(n_users=n_users, seed=seed))
    if config is None:
        for _, policy_factory in POLICIES:
            fast, ref = run_both(ds, policy_factory, EmulatorConfig())
            assert_results_equal(fast, ref)
        return
    if config in VALUE_POLICIES:
        fast, ref = run_both(ds, VALUE_POLICIES[config], EmulatorConfig())
        assert_results_equal(fast, ref)
        assert any(r.target_bytes == 0 and r.purged_bytes_total
                   for r in fast.reports)
        return
    retention = ACTIVEDR_CONFIGS[config]
    fast, ref = run_both(ds, lambda cfg, _: ActiveDRPolicy(cfg),
                         EmulatorConfig(), config=retention)
    assert_results_equal(fast, ref)
    if config == "skip":
        assert max(r.passes_used for r in fast.reports) == \
            retention.retrospective_passes + 1
        assert not all(r.target_met for r in fast.reports)


def test_fast_matches_reference_short_lifetime(dataset):
    # A short lifetime forces heavy purging, misses, and restores.
    config = RetentionConfig(lifetime_days=7.0)
    emu_config = EmulatorConfig(restore_on_miss=True)
    for _, policy_factory in POLICIES:
        fast, ref = run_both(dataset, policy_factory, emu_config,
                             config=config)
        assert_results_equal(fast, ref)


def test_fast_matches_reference_with_exemptions(dataset):
    paths = [p for p, _ in dataset.filesystem.iter_files()]
    exemptions = ExemptionList()
    for path in paths[::7]:
        exemptions.reserve_file(path)
    exemptions.reserve_directory(
        "/" + "/".join(paths[0].strip("/").split("/")[:2]))
    for _, policy_factory in POLICIES:
        fast, ref = run_both(dataset, policy_factory, EmulatorConfig(),
                             exemptions=exemptions)
        assert_results_equal(fast, ref)


def test_fast_emulator_rejects_unknown_policy(dataset):
    class OtherPolicy(FixedLifetimePolicy.__bases__[0]):  # RetentionPolicy
        name = "other"

        def run(self, fs, t_c, *, activeness=None, exemptions=None):
            raise NotImplementedError

    with pytest.raises(TypeError):
        FastEmulator(OtherPolicy())


def test_compiled_trace_is_reusable(dataset):
    compiled = compile_dataset(dataset)
    known = [u.uid for u in dataset.users]
    config = RetentionConfig()
    first = FastEmulator(ActiveDRPolicy(config), config.activeness).run(
        compiled, known_uids=known)
    second = FastEmulator(ActiveDRPolicy(config), config.activeness).run(
        compiled, known_uids=known)
    assert_results_equal(first, second)
    assert np.array_equal(compiled.snapshot.live,
                          np.array([m is not None for m in (
                              dataset.filesystem.stat(p)
                              for p in compiled.catalog.paths)]))


def test_compiled_catalog_is_frozen(dataset):
    # Build interns every path, computes both scan orders, and drops
    # what only interning needs; a late intern would hand out a second
    # pid for a known path, so it raises.
    catalog = compile_dataset(dataset).catalog
    fresh = PathCatalog()
    for path in catalog.paths:
        fresh.intern(path)
    assert np.array_equal(catalog.order_rank, fresh.order_rank)
    assert np.array_equal(catalog.scan_rank, fresh.scan_rank)
    assert catalog.det_size.size == catalog.n_paths
    with pytest.raises(RuntimeError):
        catalog.intern(catalog.paths[0])
    with pytest.raises(RuntimeError):
        catalog.intern("/not/in/the/trace")


def test_comparison_runner_engines_agree(dataset):
    ref = ComparisonRunner(dataset, engine="reference").run()
    fast = ComparisonRunner(dataset, engine="fast").run()
    assert set(ref.results) == set(fast.results)
    for name, result in ref.results.items():
        assert_results_equal(fast.results[name], result)


def test_comparison_runner_rejects_unknown_engine(dataset):
    with pytest.raises(ValueError):
        ComparisonRunner(dataset, engine="warp")


def test_comparison_runner_spectrum_engines_agree(dataset):
    ref = ComparisonRunner(dataset, policies="spectrum",
                           engine="reference").run()
    fast = ComparisonRunner(dataset, policies="spectrum",
                            engine="fast").run()
    assert set(ref.results) == {"FLT", "ActiveDR", "ValueBased",
                                "ScratchAsCache"}
    assert set(ref.results) == set(fast.results)
    for name, result in ref.results.items():
        assert_results_equal(fast.results[name], result)


def test_normalize_policies_aliases():
    assert normalize_policies("spectrum") == (
        "FLT", "ActiveDR", "ValueBased", "ScratchAsCache")
    assert normalize_policies("all") == normalize_policies("spectrum")
    assert normalize_policies(("value", "CACHE", "adr", "flt")) == (
        "ValueBased", "ScratchAsCache", "ActiveDR", "FLT")
    assert normalize_policies(("flt", "FixedLifetime")) == ("FLT",)
    with pytest.raises(ValueError):
        normalize_policies(("flt", "lru"))
    with pytest.raises(ValueError):
        normalize_policies(())


def test_fast_emulator_rejects_custom_value_function():
    def my_value(path, meta, now):
        return float(meta.size)

    with pytest.raises(TypeError):
        FastEmulator(ValueBasedPolicy(value_function=my_value))


def test_spectrum_sweep_matches_per_policy_runs(dataset):
    # A spectrum sweep shares one compiled trace and one residency index
    # across lifetimes; results must equal independent per-policy runs.
    lifetimes = (30.0, 90.0)
    sweep = run_lifetime_sweep(dataset, lifetimes, engine="fast",
                               policies="spectrum")
    for lifetime in lifetimes:
        assert set(sweep[lifetime].results) == {
            "FLT", "ActiveDR", "ValueBased", "ScratchAsCache"}
    solo = run_lifetime_sweep(dataset, lifetimes, engine="fast",
                              policies=("value", "cache"))
    for lifetime in lifetimes:
        for name in ("ValueBased", "ScratchAsCache"):
            assert_results_equal(solo[lifetime].results[name],
                                 sweep[lifetime].results[name])


def test_sweep_shares_the_day_plan_and_value_columns(dataset, monkeypatch):
    # Every replay of one compiled trace shares its day plan, built on
    # the first replay once per replay config (never at compile time),
    # and its catalog's value columns: one type weight per path for a
    # four-lifetime spectrum sweep, not one per ValueBased replay.
    weighed, built = [], []
    type_weight, build = CompositeValueFunction.type_weight, DayPlan.build

    def counting_type_weight(self, path):
        weighed.append(path)
        return type_weight(self, path)

    def counting_build(config, *args, **kwargs):
        built.append(config)
        return build(config, *args, **kwargs)

    monkeypatch.setattr(CompositeValueFunction, "type_weight",
                        counting_type_weight)
    monkeypatch.setattr(DayPlan, "build", staticmethod(counting_build))
    compiled = compile_dataset(dataset)
    assert built == [] and weighed == []
    lifetimes = (7.0, 30.0, 60.0, 90.0)
    run_lifetime_sweep(dataset, lifetimes, engine="fast",
                       policies="spectrum", compiled=compiled)
    assert len(weighed) == compiled.catalog.n_paths
    assert built == [EmulatorConfig()]
    restore = EmulatorConfig(restore_on_miss=True)
    run_lifetime_sweep(dataset, lifetimes, engine="fast",
                       policies="spectrum", compiled=compiled,
                       emulator_config=restore)
    assert built == [EmulatorConfig(), restore]
    assert len(weighed) == compiled.catalog.n_paths


def sweep_equal(a, b):
    assert set(a) == set(b)
    for lifetime in a:
        for name in a[lifetime].results:
            assert_results_equal(b[lifetime].results[name],
                                 a[lifetime].results[name])


def test_parallel_sweep_matches_serial(dataset):
    lifetimes = (30.0, 90.0)
    serial = run_lifetime_sweep(dataset, lifetimes, engine="fast")
    parallel = run_lifetime_sweep(dataset, lifetimes, engine="fast",
                                  n_ranks=2)
    sweep_equal(serial, parallel)


def test_parallel_sweep_matches_serial_reference_engine(dataset):
    lifetimes = (30.0, 60.0, 90.0)
    serial = run_lifetime_sweep(dataset, lifetimes)
    parallel = run_lifetime_sweep(dataset, lifetimes, n_ranks=2)
    sweep_equal(serial, parallel)
