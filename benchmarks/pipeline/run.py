"""Pipeline benchmark: three outside-in workloads over one seeded workspace.

Run from the root of a checkout::

    python3 benchmarks/pipeline/run.py --workload serve_file --seed 7 \\
        --seconds 10 --trace 0

The seed makes the workspace (``prepare.py``, in a child process); the
workload then repeats set-up + run passes within ``--seconds``, checks
every pass against the reference digests, and prints each metric by name
with its unit.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` (input events) and the
``metrics`` -- the end-to-end metrics of BENCHMARK.json, or with
``--trace 1`` its per-layer metrics, taken from alternating traced and
untraced passes.  ``--smoke`` is a small fast run for the test;
``--repeat N`` runs N fresh processes per workload and prints each
metric's median and quartiles (``--record FILE`` appends them to FILE).
See README.md for the workloads, metrics and layers.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: Everything a run writes: per-run work directories and trace files.
BUILD = os.path.join(ROOT, ".bench_build", "pipeline")

WORKLOAD_NAMES = ("replay_sweep", "serve_file", "serve_socket4")
END_TO_END_UNITS = {"events_per_s": "events/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
USERS = 300
SMOKE_USERS = 120
SMOKE_SECONDS = 1.0
PREPARE_TIMEOUT_S = 150
RUN_TIMEOUT_S = 180
#: The probe kernel's time at the reference host speed, which the time
#: metrics are scaled to.  On the 2-vCPU Xeon VM the baseline comes from,
#: sharing its CPU with a pass, it takes about 0.5 ms while the host runs
#: fast and up to twice that while neighbours slow it.
PROBE_REFERENCE_S = 0.0005
#: How much of the kernel's slow-down the program feels: a pass's time
#: scales with the kernel's time to this power.  Fitted over ~500
#: passes of the three workloads on that VM (the value that makes runs of
#: one workload agree best; 0.8-0.9 for each, where 1 would over-correct).
SPEED_ELASTICITY = 0.8


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",),
                        help="'all' only with --repeat")
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="run passes while the next one is expected "
                             "to end within this time (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_USERS} users, one pass per mode, and "
                             f"a check against the reference Emulator")
    parser.add_argument("--repeat", type=int, default=0, metavar="N")
    parser.add_argument("--record", metavar="FILE")
    args = parser.parse_args(argv)
    if args.workload == "all" and not args.repeat:
        parser.error("--workload all needs --repeat")
    if args.record and not args.repeat:
        parser.error("--record needs --repeat")
    args.users = SMOKE_USERS if args.smoke else USERS
    if args.smoke:
        args.seconds = min(args.seconds, SMOKE_SECONDS)
    return args


def prepare(work: str, users: int, seed: int) -> dict:
    subprocess.run([sys.executable, os.path.join(HERE, "prepare.py"),
                    "--users", str(users), "--seed", str(seed),
                    "--out", work],
                   stdout=sys.stderr, check=True, timeout=PREPARE_TIMEOUT_S)
    with open(os.path.join(work, "info.json")) as fh:
        return json.load(fh)


def host_speed(probe, began: float, ended: float) -> float:
    """How fast the host ran the program over ``[began, ended]``
    (``time.monotonic``), relative to the reference speed: below 1 while
    neighbours slow it."""
    probe.send(f"speed {began!r} {ended!r}")
    kernel_s = float(probe.expect("done"))
    return (PROBE_REFERENCE_S / kernel_s) ** SPEED_ELASTICITY


def measure(ctx, workload, seconds: float, tracer, probe) -> list:
    """Passes while the next one is expected to end within ``seconds``;
    with a tracer, alternate untraced and traced passes (at least one of
    each)."""
    passes = []
    durations = []
    start = time.perf_counter()
    while True:
        # The previous pass's cyclic garbage must not be collected inside
        # this pass's timed window or add to its memory peak.
        gc.collect()
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            ctx.tracer = tracer
            tracer.install()
        began = time.monotonic()
        try:
            result = workload(ctx)
        finally:
            if traced:
                tracer.uninstall()
                ctx.tracer = None
        ended = time.monotonic()
        durations.append(ended - began)
        result.host_speed = host_speed(probe, began, ended)
        result.traced = traced
        result.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes.append(result)
        print(f"pass {len(passes)}{' traced' if traced else ''}: "
              f"set-up {result.setup_s:.4f} s, run {result.run_s:.4f} s, "
              f"{result.raw_events_per_s:.0f} events/s, host speed "
              f"{result.host_speed:.4f}"
              + "".join(f", {k} {v:.4g}" for k, v in result.extra.items()),
              flush=True)
        expected_end = (time.perf_counter() - start
                        + statistics.median(durations))
        if (expected_end > seconds
                and (tracer is None or len(passes) >= 2)):
            return passes


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile of ``values``, as the
    spread check across runs takes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def end_to_end_metrics(passes) -> dict[str, float]:
    # Memory is the first pass's peak -- what one serve or sweep in a
    # fresh process reaches.  Later passes can only raise it: every
    # closed SocketListener keeps its accept thread, and the listener
    # with it, alive.
    return {
        "events_per_s": statistics.median(p.events_per_s for p in passes),
        "setup_s": statistics.median(p.ref_setup_s for p in passes),
        "peak_rss_mb": passes[0].peak_rss_mb,
    }


def per_layer_metrics(passes, summary, tracer) -> dict[str, float]:
    import tracing

    traced = [p for p in passes if p.traced]
    metrics = tracing.layer_metrics(summary, tracer.counters, len(traced))
    metrics["stream.state.refold_frac"] = statistics.median(
        p.extra.get("refold_frac", 0) for p in traced)
    # Each traced pass against the untraced pass just before it, so a
    # slow stretch of the host falls on both sides of a ratio.
    metrics["trace.overhead_frac"] = statistics.median(
        1.0 - t.events_per_s / u.events_per_s
        for u, t in zip(passes[0::2], passes[1::2]))
    return metrics


def run_once(args) -> int:
    # The program runs on one CPU, and so does the host-speed sampler,
    # which inherits the pin; the publisher gets the others.  Set before
    # anything starts a thread, so every thread of the program inherits it.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    sys.path.insert(0, SRC)
    import tracing
    import workloads

    os.makedirs(BUILD, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    ctx = probe = None
    tracer = tracing.Tracer() if args.trace else None
    try:
        info = prepare(work, args.users, args.seed)
        print(f"workload {args.workload}: {info['users']} users, seed "
              f"{info['seed']}, {info['n_events']} merged events "
              f"({info['n_jobs']} jobs, {info['n_publications']} "
              f"publications, {info['n_accesses']} accesses), "
              f"{info['snapshot_files']} snapshot files; generated in "
              f"{info['generate_s']:.2f} s, written in "
              f"{info['write_s']:.2f} s", flush=True)
        ctx = workloads.Context(work, info)
        probe = workloads.Child("probe.py")
        if args.workload == "serve_socket4":
            ctx.publisher = workloads.Child(
                "publisher.py", os.path.join(work, "feed.frames"),
                cpus=cpus[1:] or cpus)
        passes = measure(ctx, workloads.WORKLOADS[args.workload],
                         args.seconds, tracer, probe)
        errors = [error for p in passes for error in p.errors]
        if args.smoke and args.workload == "replay_sweep":
            errors += workloads.check_reference_emulator(ctx)
    finally:
        for child in (probe, ctx and ctx.publisher):
            if child is not None:
                child.close()
        shutil.rmtree(work, ignore_errors=True)

    if tracer is None:
        values = end_to_end_metrics(passes)
        units = END_TO_END_UNITS
    else:
        summary = tracer.summary()
        values = per_layer_metrics(passes, summary, tracer)
        units = tracing.per_layer_metric_units()
        n_traced = sum(p.traced for p in passes)
        print(tracing.layer_table(summary, tracer.counters, n_traced,
                                  tracer.missing))
        trace_path = os.path.join(BUILD, f"trace-{args.workload}.json")
        tracer.dump(trace_path, {
            "workload": args.workload, "seed": args.seed,
            "users": args.users, "traced_passes": n_traced,
            "passes": [{"setup_s": p.setup_s, "run_s": p.run_s,
                        "events": p.events, "traced": p.traced, **p.extra}
                       for p in passes]})
        print(f"spans written to {os.path.relpath(trace_path)}")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    failed = sum(p.failed for p in passes)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(p.events for p in passes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if not errors and not failed else 1


def repeat(args) -> int:
    """``--repeat N``: N fresh runs per workload, medians and quartiles."""
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    command = [sys.executable, os.path.abspath(__file__),
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    summary: dict[str, dict] = {}
    for name in names:
        runs = []
        for i in range(args.repeat):
            with subprocess.Popen(command + ["--workload", name],
                                  stdout=subprocess.PIPE, text=True) as proc:
                try:
                    stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
                except BaseException:
                    # SIGTERM, not SIGKILL: the run stops its own children.
                    proc.terminate()
                    proc.communicate()
                    raise
            if proc.returncode:
                sys.stdout.write(stdout)
                print(f"{name} run {i + 1} exited {proc.returncode}",
                      file=sys.stderr)
                return proc.returncode
            runs.append(json.loads(stdout.strip().splitlines()[-1]))
            print(f"{name} run {i + 1}/{args.repeat} done", file=sys.stderr)
        metrics = {}
        for metric, first in runs[0]["metrics"].items():
            values = [run["metrics"][metric]["value"] for run in runs]
            q1, median, q3 = quartiles(values)
            metrics[metric] = {"unit": first["unit"], "median": median,
                               "q1": q1, "q3": q3, "values": values}
            spread = (q3 - q1) / median if median else 0.0
            print(f"{name:16} {metric:44} median {median:12.6g} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} {first['unit']:8} "
                  f"spread {100 * spread:5.1f}%")
        summary[name] = {"correct": all(r["correct"] for r in runs),
                         "failed": sum(r["failed"] for r in runs),
                         "metrics": metrics}
    if args.record:
        record(args, summary)
    return 0


def record(args, summary: dict) -> None:
    import numpy

    if os.path.exists(args.record):
        with open(args.record) as fh:
            doc = json.load(fh)
    else:
        doc = {"benchmark": "benchmarks/pipeline", "sets": []}
    doc["host"] = {"nproc": os.cpu_count(),
                   "python": platform.python_version(),
                   "numpy": numpy.__version__,
                   "machine": platform.machine()}
    doc["sets"].append({"trace": args.trace, "seed": args.seed,
                        "users": args.users, "seconds": args.seconds,
                        "runs": args.repeat, "workloads": summary})
    with open(f"{args.record}.tmp", "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    os.replace(f"{args.record}.tmp", args.record)


def main(argv=None) -> int:
    # A terminated run still stops its publisher and removes its work
    # directory: SystemExit unwinds through the ``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's source is missing ({SRC}); run from "
              f"the root of a full checkout", file=sys.stderr)
        return 2
    return repeat(args) if args.repeat else run_once(args)


if __name__ == "__main__":
    raise SystemExit(main())
