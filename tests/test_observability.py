"""Observability plane suite: counters, history ring, exposition, dashboard.

The acceptance bar:

1. shared counters are exact under concurrent bumps (the old plain-int
   ``+=`` lost updates);
2. two concurrent ``admin metrics`` pollers during active ingest each
   observe consistent, positive ``events_per_second`` (the old shared
   rate window made interleaved pollers clobber each other);
3. a kill + resume run yields a metrics history whose post-resume
   samples continue from the restored cursor -- no duplicated samples,
   no negative rates, and the run itself stays bit-identical to batch;
4. the Prometheus exposition parses, carries the required series with
   non-negative values, and is scrapable over plain HTTP ``GET
   /metrics`` on the admin socket.
"""

from __future__ import annotations

import json
import os
import re
import socket
import threading
import time

import pytest

from repro.emulation import compile_dataset, replay_bounds
from repro.server import (AdminServer, Counter, MetricsHistory,
                          MultiTenantService, TenantSpec, admin_request,
                          load_history_data, render_html, render_terminal,
                          scrape_metrics, tail_stats)
from repro.server.admin import AdminSocket
from repro.server.metrics import render_prometheus
from repro.server.protocol import FrameReader, connect_socket, write_frame
from repro.stream import (CheckpointManager, dataset_event_stream,
                          skip_stream_items)

from conftest import as_runs
from test_server import HETERO, batch_result, build_policy, make_fleet
from test_compiled_replay import assert_results_equal


@pytest.fixture(scope="module")
def dataset(tiny_dataset):
    return tiny_dataset


@pytest.fixture(scope="module")
def compiled(dataset):
    return compile_dataset(dataset)


@pytest.fixture(scope="module")
def events(dataset):
    return list(dataset_event_stream(dataset))


def _sock(tmp_path, name):
    return f"unix:{tmp_path / name}"


# ---------------------------------------------------------------------------
# Counter


def test_counter_exact_under_concurrent_increments():
    counter = Counter()
    n_threads, n_each = 8, 10_000
    start = threading.Barrier(n_threads)

    def hammer():
        nonlocal counter
        start.wait()
        for _ in range(n_each):
            counter += 1

    threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert int(counter) == n_threads * n_each


def test_counter_behaves_like_its_int():
    c = Counter(3)
    c += 2
    assert c == 5 and c != 4 and c >= 5 and c > 4 and c < 6 and c <= 5
    assert int(c) == 5 and bool(c)
    assert not Counter()
    assert json.dumps(int(c)) == "5"
    other = Counter(5)
    assert c == other  # compares by value across counters
    assert repr(c) == "Counter(5)"


# ---------------------------------------------------------------------------
# tail stats


def test_tail_stats_empty_and_singleton_edges():
    assert tail_stats([]) == {"count": 0}
    one = tail_stats([0.25])
    assert one == {"count": 1, "p50": 0.25, "p95": 0.25, "p99": 0.25,
                   "max": 0.25}
    two = tail_stats([1.0, 3.0])
    assert two["count"] == 2 and two["p50"] == 2.0 and two["max"] == 3.0


# ---------------------------------------------------------------------------
# MetricsHistory


def test_history_rotation_and_seq_continuity(tmp_path):
    path = str(tmp_path / "hist.jsonl")
    with MetricsHistory(path, max_bytes=300, backups=2) as history:
        for i in range(30):
            history.append({"cursor": i, "boundary": i})
        assert history.seq == 30
        assert history.rotations > 0
        assert os.path.exists(f"{path}.1")
        ring = history.samples()
        assert [s["seq"] for s in ring] == list(range(1, 31))

    # Reopen: seq continues from the surviving files, and the previous
    # incarnation's samples never anchor a rate in the new process.
    with MetricsHistory(path, max_bytes=300, backups=2) as reopened:
        assert reopened.seq == max(s["seq"] for s in reopened.samples())
        assert reopened.rate_anchor(now=1e12) is None
        stamped = reopened.append({"cursor": 99, "boundary": 99})
        assert stamped["seq"] == reopened.seq
        assert reopened.rate_anchor(now=stamped["mono"] + 1.0) == (
            stamped["mono"], 99)


def test_history_load_skips_torn_tail(tmp_path):
    path = str(tmp_path / "torn.jsonl")
    with MetricsHistory(path) as history:
        history.append({"cursor": 1, "boundary": 0})
        history.append({"cursor": 2, "boundary": 1})
    with open(path, "a") as fh:
        fh.write('{"cursor": 3, "boun')  # torn by the crash
    with MetricsHistory(path) as history:
        assert [s["cursor"] for s in history.samples()] == [1, 2]
        assert history.seq == 2


def test_history_append_after_torn_tail_survives_reopen(tmp_path):
    path = str(tmp_path / "torn.jsonl")
    with MetricsHistory(path) as history:
        history.append({"cursor": 1, "boundary": 0})
        history.append({"cursor": 2, "boundary": 1})
    with open(path, "a") as fh:
        fh.write('{"cursor": 3, "boun')  # torn by the crash
    # a restart without --resume appends straight after the tear
    with MetricsHistory(path) as history:
        history.append({"cursor": 4, "boundary": 2})
        assert [s["cursor"] for s in history.samples()] == [1, 2, 4]
    with MetricsHistory(path) as history:
        assert [s["cursor"] for s in history.samples()] == [1, 2, 4]
        assert history.seq == 3


def test_history_rewind_keeps_checkpoint_prefix(tmp_path):
    history = MetricsHistory(str(tmp_path / "rw.jsonl"))
    # A cascade can fire several boundaries at one cursor; the rewind
    # keep-rule is (cursor < C) or (cursor == C and boundary < NB).
    for cursor, boundary in [(10, 0), (20, 1), (30, 2), (30, 3), (30, 4),
                             (40, 5)]:
        history.append({"cursor": cursor, "boundary": boundary})
    dropped = history.rewind(30, next_boundary=3)
    assert dropped == 3
    assert [(s["cursor"], s["boundary"]) for s in history.samples()] == [
        (10, 0), (20, 1), (30, 2)]
    # the live file was atomically rewritten to the same prefix
    with open(history.path) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    assert [(s["cursor"], s["boundary"]) for s in rows] == [
        (10, 0), (20, 1), (30, 2)]
    # rewound samples do not anchor rates (the engine will re-append)
    assert history.rate_anchor(now=1e12) is None
    history.close()


def _rotated_history(path):
    """Twelve samples over a live file and two backups; sample i has
    cursor 10*i and boundary i."""
    history = MetricsHistory(path, max_bytes=300, backups=2)
    for i in range(1, 13):
        history.append({"cursor": 10 * i, "boundary": i})
    assert os.path.exists(f"{path}.2")
    return history


@pytest.mark.parametrize("failing", ["unlink", "replace"])
def test_history_rewind_failure_never_brings_samples_back(
        tmp_path, monkeypatch, failing):
    """Regression: ``rewrite`` replaced the live file first and ignored a
    failed backup unlink, so a reopened history held the rewound samples
    again, out of order, one seq twice.  Whichever step fails, the files
    stay in seq order, and the next rewind drops what the failed one
    left."""
    path = str(tmp_path / "hist.jsonl")
    history = _rotated_history(path)

    def refuse(*_args, **_kwargs):
        raise PermissionError(f"injected {failing} failure")

    with monkeypatch.context() as patch:
        patch.setattr(os, failing, refuse)
        try:
            history.rewind(60, next_boundary=6)
        except OSError:
            pass
    history.close()

    with MetricsHistory(path, max_bytes=300, backups=2) as reopened:
        seqs = [s["seq"] for s in reopened.samples()]
        assert seqs == sorted(set(seqs))
        reopened.rewind(60, next_boundary=6)
        assert all(s["cursor"] < 60 for s in reopened.samples())
    with MetricsHistory(path, max_bytes=300, backups=2) as again:
        assert all(s["cursor"] < 60 for s in again.samples())


# ---------------------------------------------------------------------------
# history-derived admin rates: the concurrent-pollers regression


def test_two_interleaved_pollers_see_consistent_positive_rate(
        dataset, events, tmp_path):
    """Regression: the old per-server ``(then, before)`` window made two
    alternating pollers clobber each other and report zero/garbage."""
    clock = [100.0]
    history = MetricsHistory(str(tmp_path / "hist.jsonl"),
                             clock=lambda: clock[0])
    service = make_fleet(dataset, HETERO[:2], metrics_history=history)
    stop = len(events) // 2
    assert service.run(as_runs(events), stop_after_events=stop) is None
    newest = history.last()
    assert newest is not None and newest["cursor"] < service.cursor, \
        "precondition: events consumed past the last boundary sample"

    address = _sock(tmp_path, "admin.sock")
    with AdminServer(address, service, clock=lambda: clock[0]) as admin:
        clock[0] += 10.0  # a real window since the newest sample
        expected = (service.cursor - newest["cursor"]) / 10.0
        rates: list[list[float]] = [[], []]
        start = threading.Barrier(2)

        def poll(slot: int) -> None:
            start.wait()
            for _ in range(50):
                out = admin.handle({"cmd": "metrics"})
                assert out["ok"]
                rates[slot].append(out["events_per_second"])

        threads = [threading.Thread(target=poll, args=(slot,))
                   for slot in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Every poll of both pollers saw the same positive rate: the
        # anchor is immutable, so interleaving cannot perturb it.
        for observed in rates[0] + rates[1]:
            assert observed == pytest.approx(expected)
            assert observed > 0.0
    history.close()


def test_concurrent_socket_pollers_during_ingest(dataset, events, tmp_path):
    """The acceptance wording verbatim: two concurrent ``admin metrics``
    pollers over the socket, during active (parked mid-flight) ingest,
    each observe consistent positive ``events_per_second``."""
    history = MetricsHistory(str(tmp_path / "hist.jsonl"))
    service = make_fleet(dataset, HETERO[:2], metrics_history=history)
    hold_at = len(events) // 2
    holding = threading.Event()
    release = threading.Event()

    def gated():
        yield from as_runs(events[:hold_at])
        holding.set()
        assert release.wait(60)
        yield from as_runs(events[hold_at:])

    address = _sock(tmp_path, "admin2.sock")
    with AdminServer(address, service):
        engine = threading.Thread(target=service.run, args=(gated(),),
                                  daemon=True)
        engine.start()
        assert holding.wait(60)
        results: list[list[dict]] = [[], []]
        start = threading.Barrier(2)

        def poll(slot: int) -> None:
            start.wait()
            for _ in range(5):
                results[slot].append(
                    admin_request(address, {"cmd": "metrics"}))

        threads = [threading.Thread(target=poll, args=(slot,))
                   for slot in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        rates = [out["events_per_second"]
                 for outs in results for out in outs]
        assert len(rates) == 10
        for out in results[0] + results[1]:
            assert out["ok"] and out["cursor"] == hold_at
        for rate in rates:
            assert rate > 0.0
        release.set()
        engine.join(timeout=120)
        assert not engine.is_alive()
    history.close()


# ---------------------------------------------------------------------------
# kill + resume: history never forks from the checkpoint chain


def test_resume_continues_history_from_restored_cursor(
        dataset, compiled, events, tmp_path):
    ckdir = str(tmp_path / "ck")
    hist_path = str(tmp_path / "hist.jsonl")

    history = MetricsHistory(hist_path)
    service = make_fleet(dataset, HETERO, checkpoint_dir=ckdir,
                         checkpoint_every_days=7, metrics_history=history)
    stop = int(len(events) * 0.6)
    assert service.run(as_runs(events), stop_after_events=stop) is None
    pre_crash = history.samples()
    assert pre_crash, "boundaries fired before the crash"
    history.close()  # the process dies here; every sample already flushed

    newest, failures = CheckpointManager(ckdir).latest_verified()
    assert newest is not None and not failures

    history2 = MetricsHistory(hist_path)  # new incarnation, same file
    resumed = MultiTenantService.resume(
        newest, policy_factory=lambda spec: build_policy(spec, dataset),
        checkpoint_manager=CheckpointManager(ckdir),
        metrics_history=history2)
    # The rewind dropped exactly the samples ahead of the checkpoint.
    for sample in history2.samples():
        assert sample["cursor"] <= resumed.cursor
        assert (sample["cursor"] < resumed.cursor
                or sample["boundary"] < resumed.next_boundary)

    results = resumed.run(skip_stream_items(as_runs(events), resumed.cursor))
    for spec in HETERO:
        assert_results_equal(results[spec.name],
                             batch_result(dataset, compiled, spec))
    history2.close()

    # Read the whole persisted history back: one coherent timeline.
    with open(hist_path) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    assert rows
    boundaries = [r["boundary"] for r in rows]
    cursors = [r["cursor"] for r in rows]
    assert boundaries == sorted(boundaries)
    assert len(set(boundaries)) == len(boundaries), \
        "a resumed boundary was sampled twice"
    assert cursors == sorted(cursors), "cursor regressed across resume"
    # post-resume samples continue from the restored cursor
    post = [r for r in rows if r["boundary"] >= resumed.next_boundary - 1]
    assert post and all(r["cursor"] >= min(cursors) for r in post)
    # no negative rates between consecutive same-incarnation samples
    for prev, cur in zip(rows, rows[1:]):
        dc = cur["cursor"] - prev["cursor"]
        assert dc >= 0
        if cur["seq"] == prev["seq"] + 1 and cur["mono"] >= prev["mono"]:
            dt = cur["mono"] - prev["mono"]
            assert dt >= 0.0 and (dt == 0.0 or dc / dt >= 0.0)
    # the file's own final state equals the finished run's counters
    assert rows[-1]["cursor"] == len(events)


# ---------------------------------------------------------------------------
# checkpoint age: one clock source, clamped


def test_checkpoint_age_same_clock_never_negative(dataset, events, tmp_path):
    wall = [1000.0]
    service = make_fleet(dataset, HETERO[:1],
                         checkpoint_dir=str(tmp_path / "ck"),
                         wall=lambda: wall[0])
    service.run(as_runs(events))
    assert service.stats["checkpoints_written"] >= 1
    wall[0] += 12.5
    assert service.checkpoint_age() == pytest.approx(12.5)
    # An injected clock rewound *before* the write: clamped, not negative.
    wall[0] -= 500.0
    assert service.checkpoint_age() == 0.0
    # The mtime fallback (links inherited from a dead process) clamps too.
    service._last_checkpoint_path = None
    assert service.checkpoint_age() == 0.0


def test_next_boundary_is_public(dataset, events):
    service = make_fleet(dataset, HETERO[:1])
    assert service.next_boundary == 0
    service.run(as_runs(events), stop_after_events=len(events) // 2)
    assert service.next_boundary == service._next_boundary > 0


# ---------------------------------------------------------------------------
# Prometheus exposition


#: metric line: name{labels} value  (labels optional)
_SERIES_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+-]+|NaN)$")

REQUIRED_SERIES = (
    "repro_up",
    "repro_cursor_events",
    "repro_next_boundary_day",
    "repro_ingest_events_per_second",
    "repro_events_total",
    "repro_activeness_evals_total",
    "repro_refold_fraction",
    "repro_checkpoints_written_total",
    "repro_tenant_triggers_total",
    "repro_tenant_live_bytes",
    "repro_trigger_latency_seconds_count",
)


def _parse_exposition(text):
    """{series_name: [(labels, value)]} plus format assertions."""
    seen: dict[str, list] = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            assert re.match(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* ",
                            line), line
            continue
        m = _SERIES_RE.match(line)
        assert m, f"unparsable exposition line: {line!r}"
        name, labels, value = m.groups()
        seen.setdefault(name, []).append((labels or "", float(value)))
    return seen


def test_prometheus_exposition_parses_with_required_series(
        dataset, events, tmp_path):
    history = MetricsHistory(str(tmp_path / "hist.jsonl"))
    service = make_fleet(dataset, HETERO[:2],
                         checkpoint_dir=str(tmp_path / "ck"),
                         metrics_history=history)
    service.run(as_runs(events))
    text = render_prometheus(service, history=history, rate=123.0,
                             uptime=5.0)
    seen = _parse_exposition(text)
    for name in REQUIRED_SERIES:
        assert name in seen, f"required series {name} missing"
        for _labels, value in seen[name]:
            assert value >= 0.0, f"{name} went negative: {value}"
    assert seen["repro_up"][0][1] == 1.0
    assert seen["repro_cursor_events"][0][1] == len(events)
    kinds = {labels for labels, _v in seen["repro_events_total"]}
    assert kinds == {'{kind="job"}', '{kind="publication"}',
                     '{kind="access"}'}
    tenants = {labels for labels, _v in seen["repro_tenant_live_bytes"]}
    assert tenants == {'{tenant="a"}', '{tenant="b"}'}
    # one HELP/TYPE block per family, not per series
    assert text.count("# TYPE repro_events_total ") == 1
    assert "repro_metrics_history_samples_total" in seen
    history.close()


def test_prometheus_label_escaping():
    from repro.server.metrics import _label_escape

    assert _label_escape('a"b\\c\nd') == 'a\\"b\\\\c\\nd'


def test_http_scrape_on_admin_socket(dataset, events, tmp_path):
    history = MetricsHistory(str(tmp_path / "hist.jsonl"))
    service = make_fleet(dataset, HETERO[:2], metrics_history=history)
    service.run(as_runs(events), stop_after_events=len(events) // 2)
    address = _sock(tmp_path, "scrape.sock")
    with AdminServer(address, service) as admin:
        body = scrape_metrics(address)
        seen = _parse_exposition(body)
        for name in ("repro_up", "repro_cursor_events",
                     "repro_ingest_events_per_second",
                     "repro_admin_requests_total"):
            assert name in seen
        # frames still work on the same socket after HTTP traffic
        health = admin_request(address, {"cmd": "health"})
        assert health["ok"] and health["next_boundary"] >= 1

        # unknown path: a 404, not a hang or a frame error
        with pytest.raises(ConnectionError, match="404"):
            _http_get(address, "/nope")
        assert int(admin.http_requests) >= 2
    history.close()


class _HealthAdmin(AdminSocket):
    def _commands(self):
        return {"health": lambda _request: {"ok": True}}

    def render_metrics(self):
        return ""


def test_closed_admin_socket_answers_no_more_connections(tmp_path):
    """Regression: ``close()`` without ``shutdown()`` left the accept
    thread blocked in ``accept()``, holding the socket open, so the next
    connection was still answered."""
    address = _sock(tmp_path, "closed.sock")
    admin = _HealthAdmin(address)
    assert admin_request(address, {"cmd": "health"}) == {"ok": True}
    time.sleep(0.2)  # the accept thread is back in accept()
    admin.close()
    admin._accept_thread.join(timeout=10)
    assert not admin._accept_thread.is_alive()
    try:
        sock = connect_socket(address, timeout=5.0)
    except OSError:
        return  # refused: nothing listens any more
    try:
        write_frame(sock, {"cmd": "health"})
        answer = FrameReader(sock).read()
    except OSError:
        answer = None
    finally:
        sock.close()
    assert answer is None


def _http_get(address, path):
    sock = connect_socket(address, timeout=10.0)
    try:
        sock.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    finally:
        sock.close()
    status = data.split(b"\r\n", 1)[0].decode()
    if " 200 " not in f"{status} ":
        raise ConnectionError(f"GET {path} failed: {status}")
    return data


def test_admin_metrics_history_and_export(dataset, events, tmp_path):
    history = MetricsHistory(str(tmp_path / "hist.jsonl"))
    service = make_fleet(dataset, HETERO[:2], metrics_history=history)
    service.run(as_runs(events))
    address = _sock(tmp_path, "exp.sock")
    with AdminServer(address, service):
        out = admin_request(address, {"cmd": "metrics", "history": 3})
        assert out["ok"] and len(out["history"]) == 3
        assert out["history_samples"] == history.seq
        assert [s["seq"] for s in out["history"]] == sorted(
            s["seq"] for s in out["history"])
        exported = admin_request(address, {"cmd": "export",
                                           "format": "prom"})
        assert exported["ok"] and exported["format"] == "prom"
        assert "repro_up 1" in exported["text"]
        assert "version=0.0.4" in exported["content_type"]
        bad = admin_request(address, {"cmd": "export", "format": "xml"})
        assert not bad["ok"] and "unknown export format" in bad["error"]
        activity = admin_request(address, {"cmd": "activity"})
        assert activity["ok"] and activity["params"]
        for entry in activity["params"].values():
            assert entry["users"] >= entry["op_active"] >= 0
            assert "op_rank_percentiles" in entry
        assert set(activity["tenants"]) == {"a", "b"}
    history.close()


# ---------------------------------------------------------------------------
# dashboard


def test_dashboard_renders_live_and_offline(dataset, events, tmp_path):
    from repro.server import fetch_dashboard_data

    hist_path = str(tmp_path / "hist.jsonl")
    history = MetricsHistory(hist_path)
    service = make_fleet(dataset, HETERO[:2],
                         checkpoint_dir=str(tmp_path / "ck"),
                         metrics_history=history)
    service.run(as_runs(events))
    address = _sock(tmp_path, "dash.sock")
    with AdminServer(address, service):
        data = fetch_dashboard_data(address, samples=50)
    terminal = render_terminal(data)
    assert "repro retention dashboard" in terminal
    assert "tenants" in terminal and " a " in terminal
    html_page = render_html(data)
    assert html_page.startswith("<!DOCTYPE html>")
    assert "<svg" in html_page or "not enough samples" in html_page
    assert 'tenant' in html_page
    history.close()

    # offline: the same renderers work from the history file alone
    offline = load_history_data(hist_path, samples=50)
    assert offline["history"]
    assert "repro retention dashboard" in render_terminal(offline)
    assert render_html(offline).startswith("<!DOCTYPE html>")


def test_dashboard_offline_reads_rotated_torn_history(tmp_path):
    path = str(tmp_path / "hist.jsonl")
    with MetricsHistory(path, max_bytes=300, backups=2) as history:
        for i in range(30):
            history.append({"cursor": 10 * i, "boundary": i,
                            "tenants": {"a": {"triggers": i}}})
        assert history.rotations >= 2
    with open(path, "a") as fh:
        fh.write('{"cursor": 999, "boun')  # torn by the crash
    offline = load_history_data(path, samples=1000)
    tail = load_history_data(path, samples=5)
    with MetricsHistory(path, max_bytes=300, backups=2) as history:
        expected = history.samples()
    # the dropped backup took the oldest samples; the rest read in order
    assert expected[0]["seq"] > 1
    assert [s["seq"] for s in expected] == list(
        range(expected[0]["seq"], 31))
    assert offline["history"] == expected
    assert tail["history"] == expected[-5:]
    assert offline["status"]["cursor"] == 290
    assert "repro retention dashboard" in render_terminal(tail)
    assert render_html(offline).startswith("<!DOCTYPE html>")


def test_dashboard_cli_offline(dataset, events, tmp_path, capsys):
    from repro.cli.main import main

    hist_path = str(tmp_path / "hist.jsonl")
    history = MetricsHistory(hist_path)
    service = make_fleet(dataset, HETERO[:2], metrics_history=history)
    service.run(as_runs(events))
    history.close()

    assert main(["dashboard", "--history-file", hist_path]) == 0
    assert "repro retention dashboard" in capsys.readouterr().out

    out_html = str(tmp_path / "dash.html")
    assert main(["dashboard", "--history-file", hist_path,
                 "--out", out_html]) == 0
    with open(out_html) as fh:
        assert fh.read().startswith("<!DOCTYPE html>")
    # exactly one data source must be chosen
    assert main(["dashboard"]) == 1


# ---------------------------------------------------------------------------
# engine sampling details


def test_samples_carry_tenant_stats_and_stream_extra(dataset, events,
                                                     tmp_path):
    history = MetricsHistory(str(tmp_path / "hist.jsonl"))
    service = make_fleet(dataset, HETERO[:2], metrics_history=history)
    service.sample_extra = lambda: {"quarantined": 7}
    service.run(as_runs(events))
    newest = history.last()
    assert newest is not None
    assert newest["stream"] == {"quarantined": 7}
    assert set(newest["tenants"]) == {"a", "b"}
    for info in newest["tenants"].values():
        assert info["live_bytes"] >= 0 and info["triggers"] >= 1
        assert info["purged_bytes"] >= 0
        assert info["trigger_latency"]["count"] >= 1
    # purge totals in the sample match the engine's cumulative stats
    for tenant in service.tenants:
        info = newest["tenants"][tenant.name]
        assert info["purged_bytes"] == tenant.stats["purged_bytes"]
        assert info["target_misses"] == tenant.stats["target_misses"]
    history.close()


def test_sampled_trigger_tails_equal_the_log_at_each_boundary(
        dataset, events, tmp_path, monkeypatch):
    # A tenant's tails are recomputed when a trigger appends to its
    # latency window or a reset clears it, not at every boundary; every
    # sample, and the exposition, still reads tail_stats of the window
    # as it stood.
    history = MetricsHistory(str(tmp_path / "hist.jsonl"))
    service = make_fleet(dataset, HETERO, metrics_history=history)
    sampled, expected = [], []
    append = history.append

    def recording_append(sample):
        sampled.append({name: info["trigger_latency"]
                        for name, info in sample["tenants"].items()})
        expected.append({t.name: tail_stats(t.trigger_latency_log)
                         for t in service.tenants})
        return append(sample)

    monkeypatch.setattr(history, "append", recording_append)
    service.run(as_runs(events), stop_after_events=len(events) // 2)
    before_reset = len(sampled)
    assert max(tails["count"] for tails in sampled[-1].values()) >= 2
    service.reset_measurements()
    assert all(t.trigger_latency == {"count": 0} for t in service.tenants)
    service.run(skip_stream_items(as_runs(events), service.cursor))
    assert len(sampled) > before_reset + 10
    assert sampled == expected
    assert sampled[before_reset]["a"]["count"] <= 1
    seen = _parse_exposition(render_prometheus(service))
    for tenant in service.tenants:
        label = f'tenant="{tenant.name}"'
        tails = tail_stats(tenant.trigger_latency_log)
        assert (f"{{{label}}}", tails["count"]) in \
            seen["repro_trigger_latency_seconds_count"]
        assert (f'{{{label},quantile="0.99"}}', tails["p99"]) in \
            seen["repro_trigger_latency_seconds"]
    history.close()


def test_sampling_failure_never_stops_the_engine(dataset, events, tmp_path):
    history = MetricsHistory(str(tmp_path / "hist.jsonl"))
    service = make_fleet(dataset, HETERO[:1], metrics_history=history)
    history.close()  # simulate the history file going away mid-run
    results = service.run(as_runs(events))
    assert results is not None  # the engine finished regardless
    assert service.last_metrics_error is not None
