"""Plain ``serve``'s engine: a one-tenant ``MultiTenantService``.

Streaming-equivalence suite: a fleet of one must reproduce the batch
FastEmulator bit for bit -- for every policy in the retention spectrum,
under every ``EmulatorConfig`` variant and with exemptions, and across a
checkpoint / kill / resume cycle -- and the activity store it feeds as
events arrive must match the batch engines' bulk-loaded one."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.activeness import ActivenessParams
from repro.core.config import RetentionConfig
from repro.core.exemption import ExemptionList
from repro.core.incremental import ColumnarActivityStore, build_activity_store
from repro.emulation import (
    CompiledTrace,
    EmulatorConfig,
    FastEmulator,
    compile_dataset,
)
from repro.server import MultiTenantService, TenantSpec
from repro.stream import (
    BatchBuilder,
    BatchRun,
    CheckpointManager,
    PathCatalog,
    StreamEvent,
    dataset_event_stream,
    skip_stream_items,
)
from repro.traces.schema import AppAccessRecord
from repro.vfs.path_trie import split_path

from conftest import as_runs
from test_compiled_replay import POLICIES, assert_results_equal
from test_incremental import PARAM_IDS, PARAM_VARIANTS
from test_server import build_policy, make_fleet


@pytest.fixture(scope="module")
def dataset(tiny_dataset):
    return tiny_dataset


@pytest.fixture(scope="module")
def compiled(dataset) -> CompiledTrace:
    return compile_dataset(dataset)


def fast_result(dataset, compiled, policy_factory, emu_config, *,
                exemptions=None):
    config = RetentionConfig()
    known = [u.uid for u in dataset.users]
    return FastEmulator(policy_factory(config, dataset), config.activeness,
                        emu_config, exemptions).run(compiled,
                                                    known_uids=known)


def make_service(dataset, policy_name, emu_config, **kwargs):
    """The one-tenant fleet plain ``serve --policy NAME`` builds."""
    return make_fleet(dataset, [TenantSpec(name=policy_name,
                                           policy=policy_name)],
                      config=emu_config, **kwargs)


@pytest.mark.parametrize("policy_name", [name for name, _ in POLICIES])
def test_stream_matches_batch(dataset, compiled, policy_name):
    emu_config = EmulatorConfig()
    service = make_service(dataset, policy_name, emu_config)
    streamed = service.run(as_runs(dataset_event_stream(dataset)))[policy_name]
    batch = fast_result(dataset, compiled, dict(POLICIES)[policy_name],
                        emu_config)
    assert_results_equal(streamed, batch)
    triggers = service.tenant(policy_name).stats["triggers"]
    assert triggers == len(streamed.reports)
    assert service.stats["activeness_evals"] == triggers + 1


@pytest.mark.parametrize("apply_creates", [True, False])
@pytest.mark.parametrize("restore_on_miss", [True, False])
def test_stream_matches_batch_config_variants(dataset, compiled,
                                              apply_creates,
                                              restore_on_miss):
    emu_config = EmulatorConfig(apply_creates=apply_creates,
                                restore_on_miss=restore_on_miss)
    streamed = make_service(dataset, "activedr", emu_config).run(
        as_runs(dataset_event_stream(dataset)))["activedr"]
    batch = fast_result(dataset, compiled, dict(POLICIES)["activedr"],
                        emu_config)
    assert_results_equal(streamed, batch)


def test_stream_matches_batch_with_exemptions(dataset, compiled):
    paths = [p for p, _ in dataset.filesystem.iter_files()]
    exemptions = ExemptionList()
    for path in paths[::7]:
        exemptions.reserve_file(path)
    exemptions.reserve_directory(
        "/" + "/".join(paths[0].strip("/").split("/")[:2]))
    for name, policy_factory in POLICIES[:3]:
        streamed = make_service(dataset, name, EmulatorConfig(),
                                exemptions=exemptions).run(
            as_runs(dataset_event_stream(dataset)))[name]
        batch = fast_result(dataset, compiled, policy_factory,
                            EmulatorConfig(), exemptions=exemptions)
        assert_results_equal(streamed, batch)


def test_refold_is_incremental(dataset):
    # The O(delta) claim: most users are quiescent at any trigger, so
    # only a minority of user-type histories are ever refolded.
    service = make_service(dataset, "activedr", EmulatorConfig())
    service.run(as_runs(dataset_event_stream(dataset)))
    assert service.tenant("activedr").stats["triggers"] > 10
    assert service.stats["eval_users"] > 0
    refolded = service.stats["eval_refolded"]
    assert 0 < refolded < 0.5 * service.stats["eval_users"]


@pytest.mark.parametrize("policy_name", ["activedr", "value"])
def test_checkpoint_kill_resume_is_bit_identical(dataset, compiled,
                                                 tmp_path, policy_name):
    emu_config = EmulatorConfig()
    ckdir = str(tmp_path / policy_name)
    events = list(dataset_event_stream(dataset))
    kill_at = len(events) // 2

    service = make_service(dataset, policy_name, emu_config,
                           checkpoint_dir=ckdir, checkpoint_every_days=7)
    assert service.run(as_runs(events), stop_after_events=kill_at) is None

    latest = CheckpointManager(ckdir).latest()
    assert latest is not None
    resumed = MultiTenantService.resume(
        latest, policy_factory=lambda spec: build_policy(spec, dataset),
        config=emu_config, checkpoint_dir=ckdir)
    assert 0 < resumed.cursor <= kill_at
    streamed = resumed.run(skip_stream_items(as_runs(events),
                                             resumed.cursor))[policy_name]

    batch = fast_result(dataset, compiled, dict(POLICIES)[policy_name],
                        emu_config)
    assert_results_equal(streamed, batch)
    # Counters continue across the kill: summed per-kind stats equal the
    # trace family sizes, with no double count of the redelivered event.
    assert resumed.cursor == len(events)
    assert resumed.stats["events_job"] == len(dataset.jobs)
    assert resumed.stats["events_publication"] == len(dataset.publications)
    assert resumed.stats["events_access"] == len(dataset.accesses)


def test_stop_inside_a_batch_run_is_exact(dataset, compiled):
    events = list(dataset_event_stream(dataset))
    builder = BatchBuilder()
    builder.extend(events)
    batch = builder.build()
    runs = [BatchRun(batch, lo, min(lo + 4096, batch.n))
            for lo in range(0, batch.n, 4096)]
    stop = 4096 + 1234
    service = make_service(dataset, "activedr", EmulatorConfig())
    assert service.run(iter(runs), stop_after_events=stop) is None
    assert service.cursor == stop
    # The rest of the stream, from the cursor on, completes the run.
    streamed = service.run(skip_stream_items(iter(runs), stop))["activedr"]
    assert_results_equal(streamed, fast_result(
        dataset, compiled, dict(POLICIES)["activedr"], EmulatorConfig()))
    assert service.stats["events_access"] == len(dataset.accesses)


def test_catalog_ranks_match_a_full_stable_sort():
    """The rank columns are kept sorted across interns; they must equal
    a fresh stable argsort however paths arrive, including paths with
    equal scan keys (``/a/b`` and ``/a//b``) and non-ASCII paths."""
    rng = random.Random(5)
    parts = ["a", "b", "é", "结果", "x y", "v1.2", "B"]
    catalog = PathCatalog()
    for _step in range(40):
        for _ in range(rng.choice([0, 1, 3, 50, 400])):
            path = "/" + "/".join(rng.choice(parts)
                                  for _ in range(rng.randint(1, 4)))
            if rng.random() < 0.3:
                path = path.replace("/", "//", rng.randint(1, 2))
            catalog.intern(path)
        n = catalog.n_paths
        order = np.argsort(np.asarray(catalog.paths), kind="stable")
        trie = np.argsort(np.asarray(["\x00".join(split_path(p))
                                      for p in catalog.paths]),
                          kind="stable")
        assert (catalog.order_rank[order] == np.arange(n)).all()
        assert (catalog.scan_rank[trie] == np.arange(n)).all()


def test_resume_rejects_fingerprint_mismatch(dataset, tmp_path):
    ckdir = str(tmp_path / "ck")
    service = make_service(dataset, "activedr", EmulatorConfig(),
                           checkpoint_dir=ckdir)
    service.run(as_runs(dataset_event_stream(dataset)))
    latest = CheckpointManager(ckdir).latest()

    def other(spec):
        return TenantSpec(name=spec.name, lifetime_days=7.0).build_policy()

    with pytest.raises(ValueError, match="fingerprint"):
        MultiTenantService.resume(latest, policy_factory=other)


def test_checkpoint_refuses_partial_day(dataset, tmp_path):
    ckdir = str(tmp_path / "ck")
    service = make_service(dataset, "activedr", EmulatorConfig(),
                           checkpoint_dir=ckdir)
    for run in as_runs(dataset_event_stream(dataset), size=1):
        service.ingest_run(run)
        if service._day_buf:
            break
    before = CheckpointManager(ckdir).latest()
    with pytest.raises(ValueError, match="partial day"):
        service.save_checkpoint()
    # The refusal writes nothing: the chain head is where it was.
    assert CheckpointManager(ckdir).latest() == before


def test_out_of_window_accesses_are_dropped(dataset):
    service = make_service(dataset, "flt", EmulatorConfig())
    early = AppAccessRecord(ts=service.replay_start - 10, uid=1,
                            path="/proj/a/x")
    late = AppAccessRecord(ts=service.window_end + 10, uid=1,
                           path="/proj/a/x")
    (run,) = as_runs([StreamEvent(early.ts, "access", early),
                      StreamEvent(late.ts, "access", late)])
    service.ingest_run(run)
    assert service.dropped_accesses == 2
    assert service.cursor == 2


def test_service_rejects_empty_window():
    spec = TenantSpec(name="activedr")
    with pytest.raises(ValueError, match="replay_end"):
        MultiTenantService([(spec, spec.build_policy())],
                           replay_start=100, replay_end=100)


def feed_like_the_engine(store, dataset, after, through):
    """Append the jobs and publications with ``after < ts <= through`` to
    ``store`` in time order, jobs as columnar runs, the way
    ``MultiTenantService.ingest_run`` feeds the store it holds."""
    jobs = sorted((j for j in dataset.jobs if after < j.submit_ts <= through),
                  key=lambda j: j.submit_ts)
    for run in np.array_split(np.arange(len(jobs)), 4):
        run_jobs = [jobs[i] for i in run]
        store.ingest_job_columns(
            np.asarray([j.uid for j in run_jobs], dtype=np.int64),
            np.asarray([j.submit_ts for j in run_jobs], dtype=np.int64),
            np.asarray([j.core_hours() for j in run_jobs]))
    store.ingest_publications(sorted(
        (p for p in dataset.publications if after < p.ts <= through),
        key=lambda p: p.ts))


@pytest.mark.parametrize("params", PARAM_VARIANTS, ids=PARAM_IDS)
def test_incremental_activeness_matches_store(dataset, params):
    """The engine's store, fed in time order as events arrive and
    evaluated between appends, equals the batch engines' store loaded
    with the whole trace up front."""
    known = [u.uid for u in dataset.users]
    store = build_activity_store(dataset.jobs, dataset.publications)
    t_end = max(max(j.submit_ts for j in dataset.jobs),
                max(p.ts for p in dataset.publications))
    t_mid = (min(j.submit_ts for j in dataset.jobs) + t_end) // 2

    # Mid-trace: the engine's store only ever holds ts <= t_c (the
    # service's boundary ordering guarantees this); the batch store
    # clips internally.  The rest of the history then lands after every
    # user's earlier rows.
    inc = ColumnarActivityStore()
    feed_like_the_engine(inc, dataset, -1, t_mid)
    assert inc.evaluate(t_mid, params, known) == store.evaluate(
        t_mid, params, known_uids=known)
    feed_like_the_engine(inc, dataset, t_mid, t_end)
    assert inc.evaluate(t_end, params, known) == store.evaluate(
        t_end, params, known_uids=known)


def test_incremental_activeness_snapshot_round_trip(dataset):
    known = [u.uid for u in dataset.users]
    params = ActivenessParams()
    inc = ColumnarActivityStore()
    t_c = max(j.submit_ts for j in dataset.jobs)
    t_mid = (min(j.submit_ts for j in dataset.jobs) + t_c) // 2
    feed_like_the_engine(inc, dataset, -1, t_mid)
    inc.evaluate(t_mid, params, known)
    feed_like_the_engine(inc, dataset, t_mid, t_c)
    expected = inc.evaluate(t_c, params, known)

    snap = inc.snapshot_state()
    for atype, (uids, ts, imp) in snap.items():
        assert uids.shape == ts.shape == imp.shape
        assert np.array_equal(np.lexsort((ts, uids)), np.arange(uids.size))

    restored = ColumnarActivityStore()
    restored.restore_state(snap)
    assert restored.evaluate(t_c, params, known) == expected

    # The snapshot is the uid-major, time-minor layout every server
    # checkpoint stores, whichever way the history was fed: the batch
    # engines' bulk-loaded store snapshots to the same arrays.
    bulk = build_activity_store(
        [j for j in dataset.jobs if j.submit_ts <= t_c],
        [p for p in dataset.publications if p.ts <= t_c])
    bulk_snap = bulk.snapshot_state()
    assert list(bulk_snap) == list(snap)
    for atype in snap:
        for mine, theirs in zip(snap[atype], bulk_snap[atype]):
            assert np.array_equal(mine, theirs)
