"""Tests for the command-line interface and the workspace format."""

import json
import os

import numpy as np
import pytest

from repro.cli import load_workspace, main, save_workspace
from repro.stream import CheckpointManager
from repro.stream.checkpoint import CHECKPOINT_FORMAT
from repro.synth import TitanConfig, generate_dataset


@pytest.fixture(scope="module")
def ws_dir(tmp_path_factory):
    """A small generated workspace shared across CLI tests."""
    directory = str(tmp_path_factory.mktemp("ws"))
    assert main(["generate", "--out", directory, "--users", "50",
                 "--seed", "3"]) == 0
    return directory


# ---------------------------------------------------------------- workspace

def test_workspace_roundtrip(tmp_path):
    dataset = generate_dataset(TitanConfig(n_users=20, seed=9))
    directory = str(tmp_path / "ws")
    save_workspace(dataset, directory, n_shards=2)
    ws = load_workspace(directory)
    assert len(ws.users) == 20
    assert len(ws.jobs) == len(dataset.jobs)
    assert len(ws.accesses) == len(dataset.accesses)
    assert len(ws.publications) == len(dataset.publications)
    # Byte-exact file-system round trip (sizes stored in the snapshot).
    assert ws.filesystem.total_bytes == dataset.filesystem.total_bytes
    assert ws.filesystem.file_count == dataset.filesystem.file_count
    assert ws.filesystem.capacity_bytes == ws.filesystem.total_bytes
    assert ws.replay_start == dataset.config.replay_start
    assert ws.replay_end == dataset.config.replay_end


def test_load_workspace_missing_meta(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_workspace(str(tmp_path))


def test_load_workspace_bad_format(tmp_path):
    (tmp_path / "meta.json").write_text(json.dumps({"format": "other/9"}))
    with pytest.raises(ValueError):
        load_workspace(str(tmp_path))


# ---------------------------------------------------------------- commands

def test_generate_creates_layout(ws_dir):
    for name in ("meta.json", "users.txt.gz", "jobs.txt.gz",
                 "publications.txt.gz", "app_log.txt.gz", "snapshot"):
        assert os.path.exists(os.path.join(ws_dir, name)), name


def test_validate_clean(ws_dir, capsys):
    assert main(["validate", "--workspace", ws_dir]) == 0
    out = capsys.readouterr().out
    assert "all traces valid" in out


def test_evaluate(ws_dir, capsys):
    assert main(["evaluate", "--workspace", ws_dir, "--at-day", "180",
                 "--period-days", "30", "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "User activeness at day 180" in out
    assert "Both Inactive" in out
    assert "Top 3 users" in out


def test_retain_activedr(ws_dir, capsys, tmp_path):
    alert_log = str(tmp_path / "alerts.log")
    code = main(["retain", "--workspace", ws_dir, "--advance-days", "120",
                 "--target", "0.5", "--alert-log", alert_log])
    out = capsys.readouterr().out
    assert "policy: ActiveDR" in out
    assert "purge target" in out
    if code == 2:  # unmet target must have produced an alert line
        assert os.path.exists(alert_log)
    else:
        assert code == 0


def test_retain_flt(ws_dir, capsys):
    code = main(["retain", "--workspace", ws_dir, "--policy", "flt",
                 "--lifetime", "30"])
    out = capsys.readouterr().out
    assert "policy: FLT" in out
    assert code in (0, 2)


def test_retain_with_exemptions(ws_dir, capsys, tmp_path):
    ws = load_workspace(ws_dir)
    some_path = next(iter(ws.filesystem.iter_files()))[0]
    listing = tmp_path / "reserved.txt"
    listing.write_text(some_path + "\n")
    code = main(["retain", "--workspace", ws_dir, "--lifetime", "7",
                 "--target", "0.1", "--exempt", str(listing)])
    assert code in (0, 2)
    assert "policy: ActiveDR" in capsys.readouterr().out


def test_replay_single_policy(ws_dir, capsys):
    assert main(["replay", "--workspace", ws_dir, "--policy", "flt"]) == 0
    out = capsys.readouterr().out
    assert "policy: FLT" in out
    assert "file misses" in out


def test_replay_both(ws_dir, capsys):
    assert main(["replay", "--workspace", ws_dir]) == 0
    out = capsys.readouterr().out
    assert "policy: FLT" in out
    assert "policy: ActiveDR" in out
    assert "miss reduction vs FLT" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_calibrate(ws_dir, capsys):
    assert main(["calibrate", "--workspace", ws_dir]) == 0
    out = capsys.readouterr().out
    assert "capacity:" in out
    assert "created volume" in out
    assert "job counts" in out


def test_replay_fast_engine_matches_reference(ws_dir, capsys):
    assert main(["replay", "--workspace", ws_dir, "--engine", "fast"]) == 0
    fast_out = capsys.readouterr().out
    assert main(["replay", "--workspace", ws_dir,
                 "--engine", "reference"]) == 0
    assert capsys.readouterr().out == fast_out


def test_sweep(ws_dir, capsys):
    assert main(["sweep", "--workspace", ws_dir, "--lifetimes", "30,90",
                 "--ranks", "2"]) == 0
    out = capsys.readouterr().out
    assert "Lifetime sweep" in out
    assert "30" in out and "90" in out


def test_replay_value_policy_engines_agree(ws_dir, capsys):
    assert main(["replay", "--workspace", ws_dir, "--policy", "value",
                 "--engine", "fast"]) == 0
    fast_out = capsys.readouterr().out
    assert "policy: ValueBased" in fast_out
    assert main(["replay", "--workspace", ws_dir, "--policy", "value",
                 "--engine", "reference"]) == 0
    assert capsys.readouterr().out == fast_out


def test_replay_cache_policy_engines_agree(ws_dir, capsys):
    assert main(["replay", "--workspace", ws_dir, "--policy", "cache",
                 "--engine", "fast"]) == 0
    fast_out = capsys.readouterr().out
    assert "policy: ScratchAsCache" in fast_out
    assert main(["replay", "--workspace", ws_dir, "--policy", "cache",
                 "--engine", "reference"]) == 0
    assert capsys.readouterr().out == fast_out


def test_replay_both_matches_comparison_runner(ws_dir, capsys):
    """Regression: ``replay --policy both --engine fast`` used to drive
    two standalone FastEmulators that each re-evaluated trigger-time
    activeness; it now routes through the ComparisonRunner.  The printed
    output must equal rendering the runner's results directly."""
    from repro.analysis import percent, render_emulation_summary
    from repro.core import RetentionConfig
    from repro.emulation import ACTIVEDR, FLT, ComparisonRunner

    assert main(["replay", "--workspace", ws_dir, "--engine", "fast"]) == 0
    cli_out = capsys.readouterr().out

    ws = load_workspace(ws_dir)
    comparison = ComparisonRunner(
        ws, RetentionConfig(lifetime_days=90.0,
                            purge_target_utilization=0.5),
        engine="fast").run()
    expected = ""
    for result in comparison.results.values():
        expected += render_emulation_summary(result) + "\n\n"
    flt_m = comparison.total_misses(FLT)
    adr_m = comparison.total_misses(ACTIVEDR)
    expected += (f"ActiveDR miss reduction vs FLT: "
                 f"{percent(1.0 - adr_m / flt_m)}\n")
    assert cli_out == expected


def test_replay_spectrum(ws_dir, capsys):
    assert main(["replay", "--workspace", ws_dir, "--policy", "spectrum",
                 "--engine", "fast"]) == 0
    out = capsys.readouterr().out
    for name in ("FLT", "ActiveDR", "ValueBased", "ScratchAsCache"):
        assert f"policy: {name}" in out
    assert "miss reduction vs FLT" in out


def test_sweep_spectrum_columns(ws_dir, capsys):
    assert main(["sweep", "--workspace", ws_dir, "--lifetimes", "90",
                 "--spectrum"]) == 0
    out = capsys.readouterr().out
    assert "ValueBased misses" in out
    assert "Cache misses" in out


# ---------------------------------------------------------------- serve

def test_serve_writes_result_json_and_metrics_history(ws_dir, capsys,
                                                      tmp_path):
    # Plain serve is a one-tenant fleet, so the fleet's output flags work
    # without --listen or --tenant.
    result_json = tmp_path / "result.json"
    history = tmp_path / "history.jsonl"
    assert main(["serve", "--workspace", ws_dir, "--policy", "flt",
                 "--checkpoint-dir", str(tmp_path / "ck"),
                 "--result-json", str(result_json),
                 "--metrics-history", str(history)]) == 0
    tenants = json.loads(result_json.read_text())["tenants"]
    assert list(tenants) == ["flt"]
    n_days = tenants["flt"]["n_days"]
    samples = [json.loads(line) for line in history.read_text().splitlines()]
    # One sample per day boundary, 0 through n_days.
    assert [s["boundary"] for s in samples] == list(range(n_days + 1))
    assert "=== tenant flt [flt] ===" in capsys.readouterr().out


def test_serve_resume_refuses_a_stream_checkpoint_chain(ws_dir, capsys,
                                                        tmp_path):
    # The retired single-policy serve wrote repro-stream-checkpoint/*
    # links.  They still verify, so the refusal names the format (exit 3:
    # supervise does not retry it) instead of reporting corruption.
    ck = str(tmp_path / "ck")
    CheckpointManager(ck).save({"format": CHECKPOINT_FORMAT, "cursor": 0},
                               {"live": np.zeros(4, dtype=np.bool_)})
    assert main(["serve", "--workspace", ws_dir, "--checkpoint-dir", ck,
                 "--resume"]) == 3
    err = capsys.readouterr().err
    assert repr(CHECKPOINT_FORMAT) in err
    assert "failed verification" not in err


def test_serve_resume_keeps_the_checkpoint_tenants(ws_dir, capsys,
                                                   tmp_path):
    # On --resume the chain's tenant specs are authoritative (runtime
    # tenants-add must survive a supervised restart); a differing
    # --policy is named on stderr, then ignored.
    ck = str(tmp_path / "ck")
    assert main(["serve", "--workspace", ws_dir, "--policy", "activedr",
                 "--checkpoint-dir", ck, "--stop-after-events", "5000"]) == 0
    capsys.readouterr()
    assert main(["serve", "--workspace", ws_dir, "--policy", "flt",
                 "--checkpoint-dir", ck, "--resume"]) == 0
    resumed = capsys.readouterr()
    notice = [line for line in resumed.err.splitlines()
              if line.startswith("resuming the checkpoint's tenants")]
    assert len(notice) == 1
    assert '"policy": "activedr"' in notice[0]
    assert '"policy": "flt"' in notice[0]
    assert main(["replay", "--workspace", ws_dir, "--policy", "activedr",
                 "--engine", "fast"]) == 0
    replayed = capsys.readouterr().out
    assert resumed.out.split("=== tenant activedr [activedr] ===\n")[1] \
        == replayed


def test_serve_resume_reads_each_tried_link_once(ws_dir, capsys, tmp_path,
                                                monkeypatch):
    # The chain walk hands the verified link to the resume: a resume past
    # a corrupt head loads the head once and the link it resumes once.
    import repro.server.tenants as tenants
    import repro.stream.checkpoint as checkpoint
    from repro.faults import corrupt_file

    ck = str(tmp_path / "ck")
    assert main(["serve", "--workspace", ws_dir, "--policy", "activedr",
                 "--checkpoint-dir", ck, "--stop-after-events", "5000"]) == 0
    links = CheckpointManager(ck).paths()
    assert len(links) >= 2
    corrupt_file(links[-1], "truncate")
    loads = []
    load = checkpoint.load_checkpoint

    def counting_load(path, *args, **kwargs):
        loads.append(path)
        return load(path, *args, **kwargs)

    monkeypatch.setattr(checkpoint, "load_checkpoint", counting_load)
    monkeypatch.setattr(tenants, "load_checkpoint", counting_load)
    capsys.readouterr()
    assert main(["serve", "--workspace", ws_dir, "--policy", "activedr",
                 "--checkpoint-dir", ck, "--resume"]) == 0
    assert f"resumed from {links[-2]}" in capsys.readouterr().out
    assert loads == [links[-1], links[-2]]


def test_serve_quarantines_a_trace_line_that_is_not_utf8(ws_dir, capsys,
                                                         tmp_path):
    import gzip
    import shutil

    poisoned = str(tmp_path / "poisoned")
    shutil.copytree(ws_dir, poisoned)
    with gzip.open(os.path.join(poisoned, "app_log.txt.gz"), "ab") as fh:
        fh.write(b"1400000000|1|access|/proj/\xff\xfe/file\n")
    assert main(["serve", "--workspace", poisoned, "--policy",
                 "activedr"]) == 0
    served = capsys.readouterr()
    assert "quarantined=1" in served.err
    assert main(["replay", "--workspace", ws_dir, "--policy", "activedr",
                 "--engine", "fast"]) == 0
    replayed = capsys.readouterr().out
    assert served.out.split("=== tenant activedr [activedr] ===\n")[1] \
        == replayed
