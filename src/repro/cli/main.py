"""The ``activedr`` command-line interface.

Subcommands::

    activedr generate  --out DIR [--users N] [--seed S] [--shards K]
                       [--chunk-users N]
    activedr validate  --workspace DIR
    activedr evaluate  --workspace DIR [--at-day D] [--period-days P] [--top K]
    activedr retain    --workspace DIR [--policy activedr|flt]
                       [--lifetime D] [--target U] [--advance-days N]
                       [--exempt FILE] [--alert-log FILE]
    activedr replay    --workspace DIR
                       [--policy both|spectrum|flt|activedr|value|cache]
                       [--lifetime D] [--target U] [--engine reference|fast]
    activedr sweep     --workspace DIR [--lifetimes D,D,...] [--target U]
                       [--ranks N] [--engine fast|reference] [--spectrum]
    activedr calibrate --workspace DIR [--lifetime D]
    activedr serve     --workspace DIR
                       [--policy flt|activedr|value|cache]
                       [--lifetime D] [--target U]
                       [--checkpoint-dir DIR] [--checkpoint-every DAYS]
                       [--checkpoint-retain K] [--resume]
                       [--stop-after-events N] [--dead-letter FILE]
                       [--fault-plan FILE]
                       [--listen ADDR] [--admin ADDR]
                       [--tls-cert PEM] [--tls-key PEM]
                       [--tenant SPEC ...] [--expect-producers N]
                       [--shards N] [--fleet-dir DIR]
    activedr publish   --workspace DIR --connect ADDR
                       [--sources jobs,publications,accesses]
                       [--producer NAME] [--retry-for S]
                       [--tls-ca PEM]
    activedr admin     --connect ADDR
                       {status|health|tenants|metrics|activity|export|
                        query|tenants-add|tenants-remove|shards|
                        shards-rebalance} [--uid N]
                       [--history N] [--prom]
                       [--spec SPEC] [--name NAME] [--clone-from NAME]
                       [--donor NAME]
    activedr dashboard [--connect ADDR | --history-file FILE]
                       [--out FILE.html] [--samples N]
    activedr supervise --checkpoint-dir DIR [--max-restarts N]
                       [--backoff-base S] [--healthy-seconds S]
                       -- serve --workspace DIR ...

``generate`` writes a synthetic Titan workspace to disk; the other
commands operate on any directory in that format (real traces can be
converted by writing the four trace files plus a snapshot -- see
``repro.cli.workspace``).

``replay`` covers the full retention spectrum: the two related-work
baselines ride along as ``--policy value`` (lowest-value-first) and
``--policy cache`` (scratch-as-a-cache), and ``--policy spectrum`` runs
all four policies over identical replicas.  Every selection goes
through :class:`ComparisonRunner`, so the policies of a multi-policy
replay (``both``/``spectrum``) share one compiled trace and one
activeness evaluation per trigger instead of redoing that work per
policy.  ``sweep --spectrum``
adds the two baselines' miss columns to the lifetime table.

``serve`` runs the retention server (``repro.server.MultiTenantService``,
the one streaming engine): the workspace's traces are merged into one
time-ordered event stream and consumed record by record, with
incremental activeness and crash-safe checkpoints
(``--checkpoint-dir``).  ``--policy``/``--lifetime``/``--target``
describe a fleet of one tenant named after its policy; any number of
``--tenant name=...,policy=...`` specs replace it, and all tenants share
one event feed and one activeness state (evaluated once per trigger,
not once per tenant).  Ingestion goes through the reliability layer
(``repro.stream.reliability``): failing sources are retried with
backoff, malformed or disordered events are quarantined to a
dead-letter file, and checkpoints form a self-verifying chain of the
last ``--checkpoint-retain`` links.  Kill it mid-run, then ``serve
--resume`` rolls back to the newest checkpoint that passes digest
verification (exit code 3 when none does, or when the chain is in a
format this engine does not write) and finishes with per-tenant results
bit-identical to ``replay --engine fast``; the checkpoint's tenant specs
win over the command line's.  ``--fault-plan`` injects scripted
ingest/checkpoint faults for chaos testing.

With ``--listen`` events arrive from concurrent ``publish`` producers
over a TCP or Unix socket instead of local files.  ``--admin`` opens a
query plane that ``admin`` interrogates
(``status``/``health``/``tenants``/``metrics``/``query``) while
ingestion is running.  The engine appends an observability sample
to a rotating metrics-history ring at every day boundary
(``--metrics-history``, defaulting into ``--checkpoint-dir``); ``admin
metrics --history N`` returns the newest samples, ``admin export
--prom`` (or a plain HTTP ``GET /metrics`` against the admin socket)
emits the Prometheus text exposition, and ``dashboard`` renders a
terminal or static-HTML view of activeness distributions and per-tenant
purge pressure from the live socket or an offline history file.
``--result-json`` writes the per-tenant results as JSON.  ``supervise``
wraps any serve command in a restart loop: crashes resume from the
newest verifying checkpoint under seeded exponential backoff, with a
bounded give-up.

``serve --shards N`` scales the networked server horizontally: a
consistent-hash shard router listens on ``--listen`` and forwards each
event to the worker process owning its user (publications fan out to
every co-author's shard), ``--admin`` becomes a scatter/gather plane
that merges ``status``/``health``/``metrics``/``activity`` across the
fleet while keeping per-shard trigger-latency and miss tails visible,
and ``admin shards-rebalance`` splits the busiest (or ``--donor``)
shard at the next day boundary by cloning its checkpoint into a new
worker and flipping the ring atomically.  The merged per-tenant
results are bit-identical to a single-process ``serve`` over the same
feed.  ``--tls-cert``/``--tls-key`` wrap the ingest socket (single or
sharded) in TLS; producers pin the CA with ``publish --tls-ca``.
``generate --chunk-users N`` streams workspace generation in N-user
chunks so 100k-1M user populations fit in laptop memory.

Also runnable as ``python -m repro ...``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from ..analysis import (
    format_bytes,
    format_table,
    percent,
    render_emulation_summary,
    render_retention_report,
)
from ..core import (
    ActiveDRPolicy,
    ActivenessParams,
    ColumnarActivityStore,
    ExemptionList,
    FileNotifier,
    FixedLifetimePolicy,
    JobResidencyIndex,
    RetentionConfig,
    UserClass,
    classify,
    classify_all,
    group_counts,
)
from ..emulation import (ACTIVEDR, FLT, SCRATCHCACHE, VALUEBASED,
                         ComparisonRunner, advance_filesystem,
                         run_lifetime_sweep)
from ..synth import (TitanConfig, generate_dataset,
                     generate_workspace_streamed)
from ..traces import validate_dataset
from ..vfs import DAY_SECONDS
from .workspace import Workspace, load_workspace, save_workspace

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="activedr",
        description="Activeness-based data retention for HPC scratch "
                    "storage (SC'21 reproduction).")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate",
                         help="generate a synthetic Titan workspace")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--users", type=int, default=400)
    gen.add_argument("--seed", type=int, default=2021)
    gen.add_argument("--shards", type=int, default=4,
                     help="snapshot shard count")
    gen.add_argument("--chunk-users", type=int, default=0, metavar="N",
                     help="generate in chunks of N users, streaming each "
                          "trace to disk (0 = auto: in-memory below 50k "
                          "users, 25k-user chunks at or above; required "
                          "head-room for 100k-1M user workspaces)")

    val = sub.add_parser("validate", help="validate a workspace's traces")
    val.add_argument("--workspace", required=True)

    ev = sub.add_parser("evaluate",
                        help="evaluate user activeness at an instant")
    ev.add_argument("--workspace", required=True)
    ev.add_argument("--at-day", type=int, default=0,
                    help="days into the replay year (default: its start)")
    ev.add_argument("--period-days", type=float, default=7.0)
    ev.add_argument("--top", type=int, default=10,
                    help="how many most-active users to list")

    ret = sub.add_parser("retain", help="run one retention pass")
    ret.add_argument("--workspace", required=True)
    ret.add_argument("--policy", choices=("activedr", "flt"),
                     default="activedr")
    ret.add_argument("--lifetime", type=float, default=90.0,
                     help="initial file lifetime in days")
    ret.add_argument("--target", type=float, default=0.5,
                     help="purge-target utilization in [0,1]")
    ret.add_argument("--advance-days", type=int, default=0,
                     help="apply the access trace (no purging) for this "
                          "many days before the retention pass")
    ret.add_argument("--exempt", default=None,
                     help="reservation-list file (one path per line; "
                          "trailing '/' reserves a directory)")
    ret.add_argument("--alert-log", default=None,
                     help="append unmet-target alerts to this file")

    rep = sub.add_parser("replay",
                         help="replay the full year under one or both "
                              "policies")
    rep.add_argument("--workspace", required=True)
    rep.add_argument("--policy",
                     choices=("both", "spectrum", "flt", "activedr",
                              "value", "cache"),
                     default="both",
                     help="'both' pairs FLT with ActiveDR; 'spectrum' adds "
                          "the value-based and scratch-as-a-cache baselines")
    rep.add_argument("--lifetime", type=float, default=90.0)
    rep.add_argument("--target", type=float, default=0.5)
    rep.add_argument("--engine", choices=("reference", "fast"),
                     default="reference",
                     help="replay engine: per-record reference emulator or "
                          "the columnar fast path (identical results)")

    swp = sub.add_parser("sweep",
                         help="paired replay over several file lifetimes, "
                              "optionally across worker processes")
    swp.add_argument("--workspace", required=True)
    swp.add_argument("--lifetimes", default="7,30,60,90",
                     help="comma-separated lifetimes in days")
    swp.add_argument("--target", type=float, default=0.5)
    swp.add_argument("--ranks", type=int, default=1,
                     help="worker processes for the sweep")
    swp.add_argument("--engine", choices=("reference", "fast"),
                     default="fast")
    swp.add_argument("--spectrum", action="store_true",
                     help="sweep all four policies (adds the value-based "
                          "and scratch-as-a-cache miss columns)")

    cal = sub.add_parser("calibrate",
                         help="report the workload statistics retention "
                              "dynamics depend on")
    cal.add_argument("--workspace", required=True)
    cal.add_argument("--lifetime", type=float, default=90.0)

    srv = sub.add_parser("serve",
                         help="run the online retention service over the "
                              "workspace's merged event stream")
    srv.add_argument("--workspace", required=True)
    srv.add_argument("--policy",
                     choices=("flt", "activedr", "value", "cache"),
                     default="activedr")
    srv.add_argument("--lifetime", type=float, default=90.0)
    srv.add_argument("--target", type=float, default=0.5)
    srv.add_argument("--checkpoint-dir", default=None,
                     help="directory for the rolling atomic checkpoint")
    srv.add_argument("--checkpoint-every", type=int, default=7,
                     help="days between checkpoints (trigger days only)")
    srv.add_argument("--checkpoint-retain", type=int, default=3,
                     help="verified checkpoints kept in the chain")
    srv.add_argument("--resume", action="store_true",
                     help="resume from the newest checkpoint in "
                          "--checkpoint-dir that passes digest "
                          "verification, rolling back past corrupt ones")
    srv.add_argument("--stop-after-events", type=int, default=None,
                     help="stop (without finalizing) after N merged "
                          "events -- simulates a crash for resume testing")
    srv.add_argument("--dead-letter", default=None,
                     help="JSONL file for quarantined events (default: "
                          "dead-letter.jsonl in --checkpoint-dir, if set)")
    srv.add_argument("--fault-plan", default=None,
                     help="JSON fault plan injected into the ingest and "
                          "checkpoint paths (chaos/dev testing)")
    srv.add_argument("--listen", default=None, metavar="ADDR",
                     help="ingest events from producers on this socket "
                          "(unix:/path or host:port) instead of the "
                          "workspace's trace files")
    srv.add_argument("--admin", default=None, metavar="ADDR",
                     help="answer admin/query requests on this socket")
    srv.add_argument("--tenant", action="append", default=None,
                     metavar="SPEC",
                     help="add a tenant: name=ID[,policy=K][,lifetime=D]"
                          "[,target=U][,trigger=D][,period=D]; repeatable. "
                          "Replaces the one tenant --policy/--lifetime/"
                          "--target describe")
    srv.add_argument("--expect-producers", default="1",
                     help="producers that must publish each source before "
                          "it is complete (--listen mode): a count "
                          "applied to every source, or per-source "
                          "'jobs=1,publications=1,accesses=2' for relay "
                          "topologies")
    srv.add_argument("--auth-token", default=None, metavar="SECRET",
                     help="require this shared secret in every producer "
                          "hello (mismatches are refused 'unauthorized')")
    srv.add_argument("--max-connections", type=int, default=None,
                     metavar="N",
                     help="ingest connection quota; excess producers get "
                          "a retryable 'busy' refusal")
    srv.add_argument("--write-deadline", type=float, default=30.0,
                     metavar="SECONDS",
                     help="evict a producer whose ack write blocks "
                          "longer than this (0 disables)")
    srv.add_argument("--metrics-history", default=None, metavar="FILE",
                     help="rotating JSONL ring of per-boundary "
                          "observability samples (default: "
                          "metrics-history.jsonl in --checkpoint-dir, "
                          "if set)")
    srv.add_argument("--tls-cert", default=None, metavar="PEM",
                     help="serve the ingest socket over TLS with this "
                          "certificate (PEM; may include the key)")
    srv.add_argument("--tls-key", default=None, metavar="PEM",
                     help="private key for --tls-cert (when separate)")
    srv.add_argument("--shards", type=int, default=None, metavar="N",
                     help="run a horizontally sharded fleet: N worker "
                          "processes each owning a consistent-hash slice "
                          "of the users, behind a shard router on "
                          "--listen and a scatter/gather admin plane on "
                          "--admin")
    srv.add_argument("--fleet-dir", default=None, metavar="DIR",
                     help="fleet working directory: worker sockets, "
                          "checkpoint chains, logs, results (default: "
                          "--checkpoint-dir, else WORKSPACE/fleet)")
    srv.add_argument("--shard-name", default=None, metavar="NAME",
                     help=argparse.SUPPRESS)  # internal: fleet worker id
    srv.add_argument("--shard-ring", default=None, metavar="FILE",
                     help=argparse.SUPPRESS)  # internal: ring JSON path
    srv.add_argument("--result-json", default=None, metavar="FILE",
                     help="write the per-tenant emulation results as "
                          "JSON (the sharded fleet merges these)")

    pub = sub.add_parser("publish",
                         help="publish a workspace's traces to a serve "
                              "--listen socket")
    pub.add_argument("--workspace", required=True)
    pub.add_argument("--connect", required=True, metavar="ADDR",
                     help="the server's ingest address "
                          "(unix:/path or host:port)")
    pub.add_argument("--sources", default="jobs,publications,accesses",
                     help="comma-separated trace families to publish")
    pub.add_argument("--producer", default="publish",
                     help="producer name reported in the handshake")
    pub.add_argument("--retry-for", type=float, default=0.0,
                     help="keep retrying the whole publish for this many "
                          "seconds when the server is down or restarting")
    pub.add_argument("--batch", type=int, default=None, metavar="N",
                     help="most rows per binary batch frame (0 forces "
                          "the v1 JSON-per-event path; default 8192)")
    pub.add_argument("--compress", action="store_true",
                     help="zlib-compress batch frames when the server "
                          "grants the capability")
    pub.add_argument("--auth-token", default=None, metavar="SECRET",
                     help="shared secret offered in the hello (must "
                          "match the server's --auth-token)")
    pub.add_argument("--retry-seed", type=int, default=None,
                     help="seed the jittered reconnect backoff (for "
                          "deterministic chaos runs)")
    pub.add_argument("--tls", action="store_true",
                     help="connect over TLS (without --tls-ca the "
                          "server certificate is not verified)")
    pub.add_argument("--tls-ca", default=None, metavar="PEM",
                     help="trust anchor for the server certificate "
                          "(implies --tls; typically the server's own "
                          "self-signed --tls-cert file)")

    chp = sub.add_parser("chaos-proxy",
                         help="run a FaultPlan-scripted chaos proxy "
                              "between publishers and a serve --listen "
                              "socket")
    chp.add_argument("--listen", required=True, metavar="ADDR",
                     help="address publishers connect to")
    chp.add_argument("--upstream", required=True, metavar="ADDR",
                     help="the real server's ingest address")
    chp.add_argument("--fault-plan", required=True,
                     help="JSON fault plan with net:<source> targets")
    chp.add_argument("--name", default="net",
                     help="fault target prefix (default 'net')")

    adm = sub.add_parser("admin",
                         help="query a running server's admin plane")
    adm.add_argument("--connect", required=True, metavar="ADDR")
    adm.add_argument("request",
                     choices=("status", "health", "tenants", "metrics",
                              "activity", "export", "query",
                              "tenants-add", "tenants-remove",
                              "shards", "shards-rebalance"))
    adm.add_argument("--uid", type=int, default=None,
                     help="user id for 'query'")
    adm.add_argument("--history", type=int, default=None, metavar="N",
                     help="with 'metrics': include the newest N "
                          "metrics-history samples")
    adm.add_argument("--prom", action="store_true",
                     help="with 'export': print the raw Prometheus text "
                          "exposition (this is also the default format)")
    adm.add_argument("--spec", default=None,
                     help="tenant spec for 'tenants-add'")
    adm.add_argument("--clone-from", default=None,
                     help="donor tenant whose replay state the new tenant "
                          "clones (default: the first tenant)")
    adm.add_argument("--name", default=None,
                     help="tenant name for 'tenants-remove', or the new "
                          "shard's name for 'shards-rebalance'")
    adm.add_argument("--donor", default=None,
                     help="with 'shards-rebalance': the shard to split "
                          "(default: the one routed the most rows)")

    dash = sub.add_parser("dashboard",
                          help="render a dashboard of a running (or "
                               "crashed) retention server")
    dash.add_argument("--connect", default=None, metavar="ADDR",
                      help="a running server's admin socket")
    dash.add_argument("--history-file", default=None, metavar="FILE",
                      help="render offline from this metrics-history "
                           "JSONL file instead of a live socket")
    dash.add_argument("--out", default=None, metavar="FILE",
                      help="write a static self-contained HTML page here "
                           "instead of printing the terminal view")
    dash.add_argument("--samples", type=int, default=120,
                      help="history samples to fetch/render (default 120)")

    sup = sub.add_parser("supervise",
                         help="run a serve command under supervised "
                              "restarts with checkpoint auto-resume")
    sup.add_argument("--checkpoint-dir", required=True,
                     help="checkpoint directory the child writes to; "
                          "--resume is appended once it holds a link")
    sup.add_argument("--max-restarts", type=int, default=5)
    sup.add_argument("--backoff-base", type=float, default=0.5)
    sup.add_argument("--backoff-max", type=float, default=30.0)
    sup.add_argument("--healthy-seconds", type=float, default=30.0)
    sup.add_argument("--seed", type=int, default=0,
                     help="seed for deterministic backoff jitter")
    sup.add_argument("child", nargs=argparse.REMAINDER,
                     help="the serve command to supervise (everything "
                          "after '--')")
    return parser


# ----------------------------------------------------------------------
# command implementations

def _cmd_generate(args: argparse.Namespace) -> int:
    chunk = args.chunk_users
    if chunk == 0 and args.users >= 50_000:
        chunk = 25_000
    if chunk:
        summary = generate_workspace_streamed(
            TitanConfig(n_users=args.users, seed=args.seed), args.out,
            chunk_users=chunk, n_shards=args.shards,
            log=lambda msg: print(f"generate: {msg}", file=sys.stderr))
    else:
        dataset = generate_dataset(TitanConfig(n_users=args.users,
                                               seed=args.seed))
        save_workspace(dataset, args.out, n_shards=args.shards)
        summary = dataset.summary()
    print(f"workspace written to {args.out}")
    print(f"  users={summary['users']}  jobs={summary['jobs']}  "
          f"pubs={summary['publications']}  accesses={summary['accesses']}")
    print(f"  snapshot: {summary['files']} files, "
          f"{format_bytes(summary['bytes'])}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    ws = load_workspace(args.workspace)
    issues = validate_dataset(ws.users, ws.jobs, ws.accesses,
                              ws.publications)
    if not issues:
        print(f"{args.workspace}: all traces valid "
              f"({len(ws.users)} users, {len(ws.jobs)} jobs, "
              f"{len(ws.accesses)} accesses, "
              f"{len(ws.publications)} publications)")
        return 0
    for issue in issues:
        print(issue)
    errors = sum(1 for i in issues if i.severity == "error")
    print(f"{len(issues)} issue(s), {errors} error(s)")
    return 1 if errors else 0


def _activeness_at(ws: Workspace, t_c: int, params: ActivenessParams):
    store = ColumnarActivityStore()
    store.ingest_jobs(ws.jobs)
    store.ingest_publications(ws.publications)
    return store.evaluate(t_c, params, known_uids=[u.uid for u in ws.users])


def _cmd_evaluate(args: argparse.Namespace) -> int:
    ws = load_workspace(args.workspace)
    t_c = ws.replay_start + args.at_day * DAY_SECONDS
    params = ActivenessParams(period_days=args.period_days)
    activeness = _activeness_at(ws, t_c, params)

    counts = group_counts(classify_all(activeness))
    total = sum(counts.values())
    print(format_table(
        ["group", "users", "share"],
        [[cls.label, counts[cls], percent(counts[cls] / total, 1)]
         for cls in UserClass],
        title=f"User activeness at day {args.at_day} "
              f"({args.period_days:g}-day periods)"))

    ranked = sorted(activeness.values(),
                    key=lambda ua: (ua.log_op if ua.has_op else -1e18,
                                    ua.log_oc if ua.has_oc else -1e18),
                    reverse=True)
    rows = [[ua.uid, f"{ua.op_rank:.4g}", f"{ua.oc_rank:.4g}",
             classify(ua).label] for ua in ranked[:args.top]]
    print()
    print(format_table(["uid", "Phi_op", "Phi_oc", "class"], rows,
                       title=f"Top {args.top} users by operation activeness"))
    return 0


def _cmd_retain(args: argparse.Namespace) -> int:
    ws = load_workspace(args.workspace)
    config = RetentionConfig(lifetime_days=args.lifetime,
                             purge_target_utilization=args.target)
    t_c = ws.replay_start + args.advance_days * DAY_SECONDS

    fs = ws.fresh_filesystem()
    if args.advance_days > 0:
        advance_filesystem(fs, ws.accesses, t_c)

    exemptions = (ExemptionList.from_file(args.exempt)
                  if args.exempt else None)
    activeness = _activeness_at(ws, t_c, config.activeness)

    if args.policy == "flt":
        policy = FixedLifetimePolicy(config, enforce_target=True)
    else:
        notifier = FileNotifier(args.alert_log) if args.alert_log else None
        policy = ActiveDRPolicy(config, notifier=notifier)
    report = policy.run(fs, t_c, activeness=activeness,
                        exemptions=exemptions)
    print(render_retention_report(report))
    return 0 if report.target_met else 2


def _cmd_replay(args: argparse.Namespace) -> int:
    ws = load_workspace(args.workspace)
    config = RetentionConfig(lifetime_days=args.lifetime,
                             purge_target_utilization=args.target)
    # Every replay goes through the ComparisonRunner, so the policies of
    # a multi-policy replay share one compiled trace and one activeness
    # evaluation per trigger.
    selection = (FLT, ACTIVEDR) if args.policy == "both" else args.policy
    comparison = ComparisonRunner(ws, config, engine=args.engine,
                                  policies=selection).run()
    if len(comparison.results) == 1:
        (result,) = comparison.results.values()
        print(render_emulation_summary(result))
        return 0
    for result in comparison.results.values():
        print(render_emulation_summary(result))
        print()
    flt_m = comparison.total_misses(FLT)
    adr_m = comparison.total_misses(ACTIVEDR)
    if flt_m:
        print(f"ActiveDR miss reduction vs FLT: "
              f"{percent(1.0 - adr_m / flt_m)}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    ws = load_workspace(args.workspace)
    try:
        lifetimes = tuple(float(x) for x in args.lifetimes.split(",") if x)
    except ValueError:
        print(f"invalid --lifetimes {args.lifetimes!r}: expected "
              "comma-separated days, e.g. 7,30,60,90", file=sys.stderr)
        return 1
    if not lifetimes:
        print("no lifetimes given", file=sys.stderr)
        return 1
    base = RetentionConfig(purge_target_utilization=args.target)
    policies = "spectrum" if args.spectrum else (FLT, ACTIVEDR)
    sweep = run_lifetime_sweep(ws, lifetimes, base_config=base,
                               n_ranks=max(1, args.ranks),
                               engine=args.engine, policies=policies)
    rows = []
    for lifetime in lifetimes:
        comparison = sweep[lifetime]
        final = comparison[ACTIVEDR].final_report
        row = [
            f"{lifetime:g}",
            comparison.total_misses(FLT),
            comparison.total_misses(ACTIVEDR),
            percent(comparison.miss_reduction()),
            format_bytes(final.purged_bytes_total if final else 0),
            "yes" if (final and final.target_met) else "no",
        ]
        if args.spectrum:
            row[4:4] = [comparison.total_misses(VALUEBASED),
                        comparison.total_misses(SCRATCHCACHE)]
        rows.append(row)
    headers = ["lifetime (d)", "FLT misses", "ActiveDR misses", "reduction",
               "ActiveDR purged (final)", "target met"]
    if args.spectrum:
        headers[4:4] = ["ValueBased misses", "Cache misses"]
    print(format_table(
        headers, rows,
        title=f"Lifetime sweep ({args.engine} engine, "
              f"{max(1, args.ranks)} rank(s))"))
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    # Calibration statistics need archetype labels, which only generated
    # datasets carry; for a loaded workspace we report the trace-level
    # subset (staleness, growth, job skew) by rebuilding a TitanDataset
    # would be wrong -- so measure directly from the workspace.
    ws = load_workspace(args.workspace)
    fs = ws.filesystem
    import numpy as np
    from ..emulation import deterministic_file_size
    cutoff = ws.replay_start - args.lifetime * DAY_SECONDS
    stale = sum(m.size for _p, m in fs.iter_files() if m.atime < cutoff)
    created = {r.path for r in ws.accesses if r.op == "create"}
    created_bytes = sum(deterministic_file_size(p) for p in created)
    jobs_per_user = {}
    for job in ws.jobs:
        jobs_per_user[job.uid] = jobs_per_user.get(job.uid, 0) + 1
    counts = np.asarray([jobs_per_user.get(u.uid, 0) for u in ws.users])
    q = np.percentile(counts, [0, 25, 50, 75, 100]) if counts.size else []
    print(f"users: {len(ws.users)}   files: {fs.file_count}   "
          f"capacity: {format_bytes(fs.capacity_bytes)}")
    print(f"bytes older than {args.lifetime:g} days at replay start: "
          f"{percent(stale / fs.total_bytes if fs.total_bytes else 0.0)}")
    print(f"replay-year created volume: {format_bytes(created_bytes)} = "
          f"{percent(created_bytes / fs.capacity_bytes if fs.capacity_bytes else 0.0)} of capacity")
    print("per-user job counts (min/q1/median/q3/max): "
          + "/".join(f"{x:g}" for x in q))
    return 0


#: ``serve`` exit code for checkpoint failures (2 is taken by ``retain``'s
#: unmet-target signal).
EXIT_CHECKPOINT_FAILURE = 3


def _serve_reliability_report(stream) -> None:
    """One stderr line per run: source health + quarantine summary.

    Written to stderr so the stdout contract (status lines, then one
    tenant header and emulation summary per tenant) stays
    byte-comparable against ``replay``.
    """
    import json

    report = stream.report()
    health = " ".join(f"{name}={info['health']}"
                      for name, info in report["sources"].items())
    quarantine = report["quarantine"]
    line = (f"reliability: {health}; "
            f"quarantined={quarantine['quarantined']}")
    if quarantine["quarantined"]:
        line += f" by_reason={json.dumps(quarantine['by_reason'])}"
        dead = quarantine.get("dead_letter")
        if dead:
            line += f" dead_letter={dead['path']}"
    if report["held_watermarks"]:
        line += f" held_watermarks={json.dumps(report['held_watermarks'])}"
    print(line, file=sys.stderr)


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.shards:
        return _cmd_serve_sharded(args)
    return _cmd_serve_fleet(args)


def _fleet_tenant_specs(args: argparse.Namespace):
    """The tenant fleet: explicit --tenant specs, or one from --policy."""
    from ..server import TenantSpec

    if args.tenant:
        return [TenantSpec.parse(text) for text in args.tenant]
    return [TenantSpec(name=args.policy, policy=args.policy,
                       lifetime_days=args.lifetime, target=args.target)]


def _fleet_policy_factory(workspace: str):
    """Build tenant policies, deriving cache residency from the workspace.

    The job trace is loaded at most once, and only if some tenant (now
    or added later through the admin plane) actually runs the
    scratch-as-a-cache policy.
    """
    import os

    from ..traces import read_jobs

    residency_box: list = []

    def factory(spec):
        if spec.policy != "cache":
            return spec.build_policy()
        if not residency_box:
            jobs = list(read_jobs(os.path.join(workspace, "jobs.txt.gz")))
            residency_box.append(JobResidencyIndex(jobs))
        return spec.build_policy(residency=residency_box[0])

    return factory


def _parse_expect_producers(value: str) -> dict[str, int]:
    """``"2"`` or ``"jobs=1,publications=1,accesses=2"`` to a mapping."""
    sources = ("jobs", "publications", "accesses")
    if "=" not in value:
        return {name: max(1, int(value)) for name in sources}
    expected = {name: 1 for name in sources}
    for part in value.split(","):
        name, _, count = part.partition("=")
        name = name.strip()
        if name not in expected:
            raise ValueError(f"unknown source {name!r} "
                             f"(known: {', '.join(sources)})")
        expected[name] = max(1, int(count))
    return expected


def _cmd_serve_fleet(args: argparse.Namespace) -> int:
    import json
    import os

    from ..faults import FaultPlan, FaultyIO
    from ..server import (AdminServer, MetricsHistory, MultiTenantService,
                          SocketListener)
    from ..server.ingest import NetworkEventStream
    from ..stream import (CheckpointCorruption, CheckpointManager,
                          DeadLetterLog, ReliableEventStream,
                          ingest_cursors)
    from ..stream.batch import skip_stream_items
    from ..traces import read_users
    from ..vfs import load_filesystem

    try:
        specs = _fleet_tenant_specs(args)
    except ValueError as exc:
        print(f"bad --tenant: {exc}", file=sys.stderr)
        return 1
    if len({s.name for s in specs}) != len(specs):
        print(f"duplicate tenant names in {[s.name for s in specs]}",
              file=sys.stderr)
        return 1
    factory = _fleet_policy_factory(args.workspace)

    plan = FaultPlan.from_json(args.fault_plan) if args.fault_plan else None
    opener = None
    if plan is not None and plan.has_target("checkpoint"):
        def opener(path: str):
            return FaultyIO(open(path, "wb"), plan, "checkpoint")

    dead_letter_path = args.dead_letter
    if dead_letter_path is None and args.checkpoint_dir:
        dead_letter_path = os.path.join(args.checkpoint_dir,
                                        "dead-letter.jsonl")
    dead_letter = (DeadLetterLog(dead_letter_path)
                   if dead_letter_path else None)

    manager = (CheckpointManager(args.checkpoint_dir,
                                 retain=max(1, args.checkpoint_retain),
                                 opener=opener)
               if args.checkpoint_dir else None)

    history_path = args.metrics_history
    if history_path is None and args.checkpoint_dir:
        history_path = os.path.join(args.checkpoint_dir,
                                    "metrics-history.jsonl")
    history = MetricsHistory(history_path) if history_path else None

    listener = None
    try:
        resumed = False
        if args.resume:
            if manager is None:
                print("--resume requires --checkpoint-dir", file=sys.stderr)
                return 1
            newest, loaded, failures = manager.load_newest()
            for failed_path, reason in failures:
                print(f"checkpoint {failed_path} failed verification: "
                      f"{reason}", file=sys.stderr)
            if newest is None:
                if not failures:
                    print(f"no checkpoint in {args.checkpoint_dir}",
                          file=sys.stderr)
                    return 1
                print(f"no checkpoint in {args.checkpoint_dir} verifies; "
                      f"cannot resume.  Restore a checkpoint from backup "
                      f"or start fresh without --resume.", file=sys.stderr)
                return EXIT_CHECKPOINT_FAILURE
            if failures:
                print(f"rolling back to {newest}", file=sys.stderr)
            try:
                service = MultiTenantService.resume(
                    newest, policy_factory=factory, loaded=loaded,
                    checkpoint_every_days=args.checkpoint_every,
                    checkpoint_manager=manager,
                    metrics_history=history)
                # A shard worker's slice comes from its link (the ring
                # file may predate a rebalance), which must be its own.
                held = service.shard[0] if service.shard else None
                if args.shard_name and held != args.shard_name:
                    raise ValueError(f"the link's shard is {held!r}, "
                                     f"not {args.shard_name!r}")
            except (CheckpointCorruption, ValueError) as exc:
                print(f"cannot resume from {newest}: {exc}",
                      file=sys.stderr)
                return EXIT_CHECKPOINT_FAILURE
            resumed = True
            print(f"resumed from {newest} at event {service.cursor}")
            stored = [tenant.spec for tenant in service.tenants]
            if stored != specs:
                # The chain's tenants win: runtime tenants-add (and any
                # --policy/--tenant drift) must survive a restart.
                print(f"resuming the checkpoint's tenants "
                      f"{json.dumps([s.to_jsonable() for s in stored])}, "
                      f"not the command line's "
                      f"{json.dumps([s.to_jsonable() for s in specs])}",
                      file=sys.stderr)
            for entry in service.op_log:  # a seeded rebalance clone
                if entry["op"] == "seed":
                    print(f"seeded shard {entry['shard']} from rebalance "
                          f"clone (shed {entry['dropped_users']} users, "
                          f"{entry['dropped_files']} files)", file=sys.stderr)
        else:
            # Shard-worker mode (spawned by `serve --shards N`): this
            # process owns one consistent-hash slice of the users.
            shard = None
            if args.shard_name:
                from ..server import HashRing
                if not args.shard_ring:
                    print("--shard-name requires --shard-ring",
                          file=sys.stderr)
                    return 1
                with open(args.shard_ring) as f:
                    ring = HashRing.from_jsonable(json.load(f))
                if args.shard_name not in ring.shards:
                    print(f"shard {args.shard_name!r} is not in the ring "
                          f"({ring.shards})", file=sys.stderr)
                    return 1
                shard = (args.shard_name, ring)
            with open(os.path.join(args.workspace, "meta.json")) as f:
                meta = json.load(f)
            fs = load_filesystem(
                os.path.join(args.workspace, "snapshot"),
                size_seed=int(meta.get("size_seed", 2021)),
                capacity_bytes=None,
                uid_filter=(None if shard is None else
                            lambda uid: ring.owner(uid) == args.shard_name))
            known = [u.uid for u in read_users(
                os.path.join(args.workspace, "users.txt.gz"))]
            service = MultiTenantService(
                [(spec, factory(spec)) for spec in specs],
                snapshot_fs=fs,
                replay_start=int(meta["replay_start"]),
                replay_end=int(meta["replay_end"]),
                known_uids=known,
                checkpoint_every_days=args.checkpoint_every,
                checkpoint_manager=manager,
                policy_factory=factory,
                metrics_history=history, shard=shard)

        # The event feed is built AFTER the service so a listening
        # server can seed its per-source edge cursors from the resumed
        # checkpoint's ingest section: reconnecting producers then learn
        # the durable cursor in their hello ack and resend only the
        # suffix the crash lost, with the edge discarding any overlap.
        if args.listen:
            try:
                expected = _parse_expect_producers(args.expect_producers)
            except ValueError as exc:
                print(f"bad --expect-producers: {exc}", file=sys.stderr)
                return 1
            ssl_context = None
            if args.tls_cert:
                from ..server.protocol import make_server_ssl_context
                ssl_context = make_server_ssl_context(args.tls_cert,
                                                      args.tls_key)
            listener = SocketListener(
                args.listen, expected=expected,
                initial_cursors=ingest_cursors(
                    {"ingest": service.resumed_ingest}),
                auth_token=args.auth_token,
                max_connections=args.max_connections,
                write_deadline=(args.write_deadline
                                if args.write_deadline > 0 else None),
                ssl_context=ssl_context)
            stream = NetworkEventStream(listener, dead_letter=dead_letter)
        else:
            stream = ReliableEventStream(args.workspace, plan=plan,
                                         dead_letter=dead_letter)
        events = iter(stream)
        if resumed and dead_letter is not None:
            # Continue the crashed daemon's quarantine totals instead of
            # restarting the forensic counters.
            stream.quarantine.resume_from(dead_letter)
        if listener is not None and (service.resumed_ingest is not None
                                     or not resumed):
            # Exactly-once resume: the edge discards replayed rows by
            # sequence number, so no global skip -- and the ledger must
            # count from the resumed cursor.
            stream.origin = service.cursor
            service.ingest_snapshot = stream.sequence_snapshot
        elif resumed:
            # A file feed, or a pre-sequencing link (producers must
            # republish from the start): skip the merge's consumed rows.
            events = skip_stream_items(events, service.cursor)

        service.sample_extra = stream.gauges
        admin = (AdminServer(args.admin, service, stream=stream)
                 if args.admin else None)
        try:
            results = service.run(events,
                                  stop_after_events=args.stop_after_events)
        finally:
            if admin is not None:
                admin.close()
    finally:
        if listener is not None:
            listener.close()
        if history is not None:
            history.close()

    stats = service.stats
    _serve_reliability_report(stream)
    if dead_letter is not None:
        dead_letter.close()
    if results is None:
        where = (f"; checkpoint: {service.checkpoints.latest()}"
                 if service.checkpoints else "")
        print(f"stopped after {service.cursor} events "
              f"({stats['activeness_evals']} evaluations so far){where}")
        return 0
    if args.result_json:
        from ..server.shard import result_to_jsonable
        payload = {"tenants": {
            t.name: result_to_jsonable(results[t.name])
            for t in service.tenants}}
        tmp = f"{args.result_json}.tmp"
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, args.result_json)
    print(f"ingested {service.cursor} events "
          f"(jobs={stats['events_job']} pubs={stats['events_publication']} "
          f"accesses={stats['events_access']}, "
          f"{service.dropped_accesses} out-of-window), "
          f"{len(service.tenants)} tenants, "
          f"{stats['activeness_evals']} activeness evaluations, "
          f"refolded {stats['eval_refolded']}/{stats['eval_users']} "
          f"user-type histories")
    for tenant in service.tenants:
        print(f"=== tenant {tenant.name} "
              f"[{tenant.spec.policy}] ===")
        print(render_emulation_summary(results[tenant.name]))
    return 0


def _cmd_serve_sharded(args: argparse.Namespace) -> int:
    """``serve --shards N``: the horizontally sharded fleet.

    This process runs the shard router (on ``--listen``) and the
    scatter/gather fleet admin plane (on ``--admin``); the N workers
    are child ``serve`` processes on private unix sockets, each under
    a supervised crash loop.  When ingestion completes everywhere the
    per-worker result JSONs are merged and printed in the same format
    as a single-process ``serve``.
    """
    import json
    import os

    from ..server import (FleetAdmin, HashRing, ShardFleet, ShardRouter,
                          WorkerSpec)

    if not args.listen:
        print("--shards requires --listen (the fleet's ingest front)",
              file=sys.stderr)
        return 1
    if args.shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return 1
    if args.resume:
        print("--shards does not support --resume at the fleet level "
              "(workers auto-resume their own checkpoints)",
              file=sys.stderr)
        return 1
    try:
        expected = _parse_expect_producers(args.expect_producers)
    except ValueError as exc:
        print(f"bad --expect-producers: {exc}", file=sys.stderr)
        return 1

    with open(os.path.join(args.workspace, "meta.json")) as f:
        meta = json.load(f)
    replay_start = int(meta["replay_start"])
    n_days = (int(meta["replay_end"]) - replay_start) // DAY_SECONDS

    fleet_dir = (args.fleet_dir or args.checkpoint_dir
                 or os.path.join(args.workspace, "fleet"))
    os.makedirs(fleet_dir, exist_ok=True)

    names = [f"s{i:02d}" for i in range(args.shards)]
    ring = HashRing(names)
    ring_path = os.path.join(fleet_dir, "ring.json")
    with open(ring_path, "w") as f:
        json.dump(ring.to_jsonable(), f)

    def make_spec(name: str) -> WorkerSpec:
        ck_dir = os.path.join(fleet_dir, f"{name}-ck")
        spec = WorkerSpec(
            name=name,
            ingest_address=f"unix:{os.path.join(fleet_dir, name)}.sock",
            admin_address=f"unix:{os.path.join(fleet_dir, name)}-admin.sock",
            checkpoint_dir=ck_dir,
            result_path=os.path.join(fleet_dir, f"{name}-result.json"),
            log_path=os.path.join(fleet_dir, f"{name}.log"))
        command = [sys.executable, "-m", "repro", "serve",
                   "--workspace", args.workspace,
                   "--listen", spec.ingest_address,
                   "--admin", spec.admin_address,
                   "--checkpoint-dir", ck_dir,
                   "--checkpoint-every", str(args.checkpoint_every),
                   "--checkpoint-retain", str(args.checkpoint_retain),
                   "--shard-name", name,
                   "--shard-ring", ring_path,
                   "--result-json", spec.result_path,
                   "--expect-producers", "1",
                   "--policy", args.policy,
                   "--lifetime", str(args.lifetime),
                   "--target", str(args.target)]
        for tenant in args.tenant or ():
            command += ["--tenant", tenant]
        spec.command = command
        return spec

    specs = [make_spec(name) for name in names]

    ssl_context = None
    if args.tls_cert:
        from ..server.protocol import make_server_ssl_context
        ssl_context = make_server_ssl_context(args.tls_cert, args.tls_key)

    router = ShardRouter(
        args.listen,
        workers={s.name: s.ingest_address for s in specs},
        ring=ring,
        expected=expected,
        auth_token=args.auth_token,
        ssl_context=ssl_context,
        max_connections=args.max_connections,
        write_deadline=(args.write_deadline
                        if args.write_deadline > 0 else None))
    fleet = ShardFleet(router, specs, directory=fleet_dir,
                       replay_start=replay_start, n_days=n_days,
                       worker_factory=make_spec, poll_interval=0.5,
                       log=lambda line: print(f"fleet: {line}",
                                              file=sys.stderr, flush=True))
    admin = FleetAdmin(args.admin, fleet) if args.admin else None
    print(f"fleet: {args.shards} shard(s) behind {router.address} "
          f"(dir {fleet_dir})", flush=True)
    try:
        fleet.start()
        completed = fleet.wait()
        if completed:
            router.join(timeout=60.0)
    finally:
        if admin is not None:
            admin.close()
        fleet.stop()

    failed = [name for name, report in fleet.reports.items()
              if getattr(report, "final_returncode", 1) != 0]
    if failed:
        print(f"fleet: worker(s) {', '.join(sorted(failed))} failed; "
              f"see logs in {fleet_dir}", file=sys.stderr)
        return 1
    try:
        merged = fleet.collect_results()
    except RuntimeError as exc:
        print(f"fleet: {exc}", file=sys.stderr)
        return 1
    restarts = sum(getattr(r, "restarts", 0)
                   for r in fleet.reports.values())
    print(f"fleet: ingested {sum(router.rows_routed.values())} routed "
          f"rows across {len(fleet.worker_names())} shard(s), "
          f"{restarts} worker restart(s), "
          f"{len(fleet.rebalance_log())} rebalance(s)", file=sys.stderr)
    # Header format matches the single-process multi-tenant serve
    # byte-for-byte, so identity checks can diff from the first
    # "=== tenant" line.
    tenant_specs = _fleet_tenant_specs(args)
    ordered = [s.name for s in tenant_specs if s.name in merged]
    ordered += [n for n in sorted(merged) if n not in ordered]
    spec_policies = {s.name: s.policy for s in tenant_specs}
    for name in ordered:
        result = merged[name]
        policy = spec_policies.get(name, result.policy)
        print(f"=== tenant {name} [{policy}] ===")
        print(render_emulation_summary(result))
    return 0


def _cmd_publish(args: argparse.Namespace) -> int:
    from ..server import publish_workspace
    from ..server.ingest import DEFAULT_BATCH_EVENTS

    sources = tuple(s for s in args.sources.split(",") if s)
    batch = DEFAULT_BATCH_EVENTS if args.batch is None else max(0, args.batch)
    ssl_context = None
    if args.tls or args.tls_ca:
        from ..server.protocol import make_client_ssl_context
        ssl_context = make_client_ssl_context(args.tls_ca)
    try:
        counts = publish_workspace(args.connect, args.workspace,
                                   sources=sources,
                                   producer=args.producer,
                                   retry_for=args.retry_for,
                                   retry_seed=args.retry_seed,
                                   batch_size=batch,
                                   compress=args.compress,
                                   auth_token=args.auth_token,
                                   ssl_context=ssl_context)
    except (OSError, ConnectionError) as exc:
        print(f"publish failed: {exc}", file=sys.stderr)
        return 1
    total = sum(counts.values())
    detail = " ".join(f"{name}={counts[name]}" for name in sources)
    print(f"published {total} events to {args.connect} ({detail})")
    return 0


def _cmd_admin(args: argparse.Namespace) -> int:
    import json

    from ..server import TenantSpec, admin_request

    request: dict = {"cmd": args.request}
    if args.request == "query":
        if args.uid is None:
            print("query needs --uid", file=sys.stderr)
            return 1
        request["uid"] = args.uid
    elif args.request == "metrics" and args.history:
        request["history"] = args.history
    elif args.request == "export":
        request["format"] = "prom"  # --prom is the (only) default format
    elif args.request == "tenants-add":
        if args.spec is None:
            print("tenants-add needs --spec", file=sys.stderr)
            return 1
        try:
            spec = TenantSpec.parse(args.spec)
        except ValueError as exc:
            print(f"bad --spec: {exc}", file=sys.stderr)
            return 1
        request = {"cmd": "tenants", "action": "add",
                   "spec": spec.to_jsonable()}
        if args.clone_from:
            request["clone_from"] = args.clone_from
    elif args.request == "tenants-remove":
        if args.name is None:
            print("tenants-remove needs --name", file=sys.stderr)
            return 1
        request = {"cmd": "tenants", "action": "remove", "name": args.name}
    elif args.request == "shards-rebalance":
        if args.donor:
            request["donor"] = args.donor
        if args.name:
            request["name"] = args.name

    try:
        response = admin_request(args.connect, request)
    except (OSError, ConnectionError) as exc:
        print(f"admin request failed: {exc}", file=sys.stderr)
        return 1
    if args.request == "export" and response.get("ok"):
        # The exposition is already a text document: print it raw so
        # the output pipes straight into promtool or a file.
        print(response.get("text", ""), end="")
        return 0
    print(json.dumps(response, indent=2, sort_keys=True, default=repr))
    return 0 if response.get("ok") else 1


def _cmd_dashboard(args: argparse.Namespace) -> int:
    from ..server import fetch_dashboard_data, load_history_data
    from ..server import render_html, render_terminal

    if bool(args.connect) == bool(args.history_file):
        print("dashboard needs exactly one of --connect or --history-file",
              file=sys.stderr)
        return 1
    samples = max(2, args.samples)
    try:
        if args.connect:
            data = fetch_dashboard_data(args.connect, samples=samples)
        else:
            data = load_history_data(args.history_file, samples=samples)
    except (OSError, ConnectionError) as exc:
        print(f"dashboard data fetch failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(render_html(data))
        print(f"dashboard written to {args.out}")
        return 0
    print(render_terminal(data), end="")
    return 0


def _cmd_supervise(args: argparse.Namespace) -> int:
    from ..server import BackoffPolicy, Supervisor
    from ..stream import CheckpointManager

    child = list(args.child)
    if child and child[0] == "--":
        child = child[1:]
    if not child:
        print("supervise needs a child command after '--', e.g. "
              "supervise --checkpoint-dir ck -- serve --workspace ws ...",
              file=sys.stderr)
        return 1
    if "--checkpoint-dir" not in child:
        child += ["--checkpoint-dir", args.checkpoint_dir]
    command = [sys.executable, "-m", "repro"] + child

    def should_resume() -> bool:
        return CheckpointManager.holds_link(args.checkpoint_dir)

    supervisor = Supervisor(
        command,
        backoff=BackoffPolicy(base=args.backoff_base,
                              max_delay=args.backoff_max,
                              seed=args.seed,
                              max_restarts=args.max_restarts,
                              healthy_seconds=args.healthy_seconds),
        should_resume=should_resume)
    rc = supervisor.run()
    report = supervisor.report
    print(f"supervisor: {len(report.attempts)} attempt(s), "
          f"{report.restarts} restart(s), final rc={rc}", file=sys.stderr)
    return rc


def _cmd_chaos_proxy(args: argparse.Namespace) -> int:
    import signal
    import threading

    from ..faults import ChaosProxy, FaultPlan

    plan = FaultPlan.from_json(args.fault_plan)
    proxy = ChaosProxy(args.listen, args.upstream, plan, name=args.name)
    print(f"chaos proxy on {proxy.address} -> {args.upstream} "
          f"({len(plan.specs)} fault spec(s), seed {plan.seed})",
          flush=True)
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    stop.wait()
    proxy.close()
    report = proxy.describe()
    print("chaos proxy: " + " ".join(
        f"{key}={report[key]}"
        for key in ("connections", "severed", "stalled", "corrupted",
                    "dropped_bytes", "splits", "forwarded_bytes")),
        flush=True)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "validate": _cmd_validate,
    "evaluate": _cmd_evaluate,
    "retain": _cmd_retain,
    "replay": _cmd_replay,
    "sweep": _cmd_sweep,
    "calibrate": _cmd_calibrate,
    "serve": _cmd_serve,
    "publish": _cmd_publish,
    "chaos-proxy": _cmd_chaos_proxy,
    "admin": _cmd_admin,
    "dashboard": _cmd_dashboard,
    "supervise": _cmd_supervise,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
