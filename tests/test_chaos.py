"""Chaos suite: the service under scripted faults, end to end.

Three escalating guarantees, all pinned bit-for-bit against the batch
``FastEmulator``:

1. the ISSUE acceptance scenario -- truncated head checkpoint, a stalled
   source, and 1% malformed events, for every policy in the retention
   spectrum, driven through the real ``serve --resume`` CLI;
2. ``kill -9`` delivered at five seeded-random write calls *during*
   checkpoint writes, each followed by a successful resume;
3. the checkpoint chain invariant: at most K=3 links on disk at every
   instant of a full run, and every retained link passes verification.
"""

from __future__ import annotations

import glob
import gzip
import json
import os
import random
import signal
import subprocess
import sys

import pytest

from repro.analysis import render_emulation_summary
from repro.core import (ActiveDRPolicy, FixedLifetimePolicy,
                        JobResidencyIndex, RetentionConfig,
                        ScratchAsCachePolicy, ValueBasedPolicy)
from repro.emulation import FastEmulator, compile_dataset
from repro.faults import FaultPlan, FaultyIO, corrupt_file
from repro.server import MultiTenantService, TenantSpec
from repro.stream import CheckpointManager
from repro.stream.checkpoint import load_checkpoint
from repro.stream.events import workspace_event_stream
from repro.cli.workspace import load_workspace, save_workspace
from repro.synth import TitanConfig, generate_dataset

from conftest import as_runs

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

N_USERS, SEED = 30, 7


@pytest.fixture(scope="module")
def chaos_workspace(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("chaos") / "ws")
    save_workspace(generate_dataset(TitanConfig(n_users=N_USERS, seed=SEED)),
                   directory, n_shards=1)
    return directory


def _policy(name, ws):
    config = RetentionConfig(lifetime_days=90.0,
                             purge_target_utilization=0.5)
    if name == "flt":
        return FixedLifetimePolicy(config), config
    if name == "activedr":
        return ActiveDRPolicy(config), config
    if name == "value":
        return ValueBasedPolicy(config), config
    return ScratchAsCachePolicy(
        config, residency=JobResidencyIndex(ws.jobs)), config


@pytest.fixture(scope="module")
def batch_summaries(chaos_workspace):
    """Fault-free batch FastEmulator summary text, per policy."""
    ws = load_workspace(chaos_workspace)
    compiled = compile_dataset(ws)
    known = [u.uid for u in ws.users]
    out = {}
    for name in ("flt", "activedr", "value", "cache"):
        policy, config = _policy(name, ws)
        result = FastEmulator(policy, config.activeness).run(
            compiled, known_uids=known)
        out[name] = render_emulation_summary(result)
    return out


def _serve(workspace, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(REPO_ROOT, "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--workspace", workspace,
         *extra],
        capture_output=True, text=True, env=env, timeout=300)


def _summary_of(stdout):
    """Drop serve's two status lines and the tenant header; the rest is
    the emulation summary."""
    return "\n".join(stdout.splitlines()[3:])


def _count_gz_lines(path):
    with gzip.open(path, "rt") as fh:
        return sum(1 for line in fh if line.strip())


def _head_checkpoint(ck_dir):
    return sorted(glob.glob(os.path.join(ck_dir, "checkpoint-*.npz")))[-1]


# ---------------------------------------------------------------------------
# 1. the acceptance scenario, across the whole policy spectrum


@pytest.mark.parametrize("policy", ["flt", "activedr", "value", "cache"])
def test_acceptance_faulty_resume_matches_batch(chaos_workspace,
                                                batch_summaries,
                                                tmp_path, policy):
    ck = str(tmp_path / "ck")
    first = _serve(chaos_workspace, "--policy", policy,
                   "--checkpoint-dir", ck, "--stop-after-events", "5500")
    assert first.returncode == 0, first.stderr

    # A torn write took the head checkpoint.
    corrupt_file(_head_checkpoint(ck), "truncate")

    # One stalled source + 1% malformed access events, seeded.
    n_accesses = _count_gz_lines(
        os.path.join(chaos_workspace, "app_log.txt.gz"))
    rng = random.Random(2021)
    malformed = rng.sample(range(n_accesses), n_accesses // 100)
    plan = {"seed": 7, "faults":
            [{"target": "jobs", "kind": "stall", "at": 50}]
            + [{"target": "accesses", "kind": "malformed", "at": at}
               for at in malformed]}
    plan_path = str(tmp_path / "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)

    resumed = _serve(chaos_workspace, "--policy", policy,
                     "--checkpoint-dir", ck, "--resume",
                     "--fault-plan", plan_path)
    assert resumed.returncode == 0, resumed.stderr
    assert "failed verification" in resumed.stderr
    assert "rolling back" in resumed.stderr
    assert f"quarantined={len(malformed)}" in resumed.stderr
    assert _summary_of(resumed.stdout) == batch_summaries[policy]


# ---------------------------------------------------------------------------
# 2. kill -9 during checkpoint writes


def _fresh_service(ws_dir, manager):
    """The serve CLI's fresh-start construction, in process."""
    from repro.traces import read_users
    from repro.vfs import load_filesystem

    with open(os.path.join(ws_dir, "meta.json")) as fh:
        meta = json.load(fh)
    fs = load_filesystem(os.path.join(ws_dir, "snapshot"),
                         size_seed=int(meta.get("size_seed", 2021)),
                         capacity_bytes=None)
    known = [u.uid for u in read_users(
        os.path.join(ws_dir, "users.txt.gz"))]
    spec = TenantSpec(name="activedr", policy="activedr",
                      lifetime_days=90.0, target=0.5)
    return MultiTenantService(
        [(spec, spec.build_policy())], snapshot_fs=fs,
        replay_start=int(meta["replay_start"]),
        replay_end=int(meta["replay_end"]),
        known_uids=known, checkpoint_manager=manager)


def _checkpoint_write_bounds(ws_dir, probe_dir):
    """(start, end) cumulative write-call index of every checkpoint save.

    Serve's write sequence is deterministic, so counting an instrumented
    in-process run tells us exactly which absolute write index lands
    inside which checkpoint write in the subprocess.
    """
    plan = FaultPlan([])
    bounds = []

    class Recorder(CheckpointManager):
        def save(self, manifest, arrays):
            start = plan.counter("checkpoint#w").n
            path = super().save(manifest, arrays)
            bounds.append((start, plan.counter("checkpoint#w").n))
            return path

    manager = Recorder(probe_dir, retain=3,
                       opener=lambda p: FaultyIO(open(p, "wb"), plan,
                                                 "checkpoint"))
    service = _fresh_service(ws_dir, manager)
    service.run(as_runs(workspace_event_stream(ws_dir)))
    return bounds


def test_kill9_during_checkpoint_write_resumes_bit_identical(
        chaos_workspace, batch_summaries, tmp_path):
    bounds = _checkpoint_write_bounds(chaos_workspace,
                                      str(tmp_path / "probe"))
    assert len(bounds) >= 6, "expected a long checkpoint chain"
    # Save 0 must complete or there is nothing to resume from; every
    # later save is fair game for the kill.
    candidates = [(s, e) for s, e in bounds[1:] if e - s >= 6]
    rng = random.Random(20210815)
    kill_points = [rng.randrange(s + 2, e - 2)
                   for s, e in rng.sample(candidates, 5)]

    for kill_at in kill_points:
        ck = str(tmp_path / f"ck-{kill_at}")
        plan_path = str(tmp_path / f"plan-{kill_at}.json")
        with open(plan_path, "w") as fh:
            json.dump({"faults": [{"target": "checkpoint", "kind": "kill",
                                   "at": kill_at}]}, fh)
        killed = _serve(chaos_workspace, "--checkpoint-dir", ck,
                        "--fault-plan", plan_path)
        assert killed.returncode == -signal.SIGKILL, (
            f"kill at write {kill_at} did not fire: "
            f"rc={killed.returncode} stderr={killed.stderr}")
        chain = glob.glob(os.path.join(ck, "checkpoint-*.npz"))
        assert chain, "the kill landed before any complete checkpoint"

        resumed = _serve(chaos_workspace, "--checkpoint-dir", ck,
                         "--resume")
        assert resumed.returncode == 0, resumed.stderr
        assert _summary_of(resumed.stdout) == batch_summaries["activedr"], (
            f"resume after kill at write {kill_at} diverged from batch")


# ---------------------------------------------------------------------------
# 3. chain invariant: bounded and verified at every instant


def test_gc_bound_holds_and_all_links_verify(chaos_workspace, tmp_path):
    violations = []

    class Auditor(CheckpointManager):
        def save(self, manifest, arrays):
            path = super().save(manifest, arrays)
            links = self.paths()
            if len(links) > self.retain:
                violations.append(f"{len(links)} links after {path}")
            for link in links:
                try:
                    load_checkpoint(link, verify=True)
                except ValueError as exc:
                    violations.append(f"{link}: {exc}")
            return path

    manager = Auditor(str(tmp_path / "ck"), retain=3)
    service = _fresh_service(chaos_workspace, manager)
    result = service.run(as_runs(workspace_event_stream(chaos_workspace)))
    assert result is not None
    assert service.stats["checkpoints_written"] >= 6
    assert violations == []
