"""``repro dashboard``: render what a retention server is doing.

Two data paths feed one pair of renderers:

* **live** -- :func:`fetch_dashboard_data` asks a running server's admin
  socket for ``metrics`` (the engine's gauges, with the newest N
  history-ring samples) and ``activity``;
* **offline** -- :func:`load_history_data` reads a metrics-history JSONL
  file (plus its rotated backups): its newest sample has the shape of
  the ``metrics`` answer, so a dead server's last written samples
  render the same way.

:func:`render_terminal` prints an ASCII view (ingest sparkline, tenant
table, activeness-rank percentiles, class-distribution bars, capacity
forecasts); :func:`render_html` writes the same content as one static
self-contained HTML file (inline CSS, inline SVG sparkline -- no
external assets, safe to open from a scratch directory).  Everything is
stdlib + the data dict: the renderers never touch sockets or the engine,
which keeps them trivially testable.
"""

from __future__ import annotations

import html

from ..stream.reliability.jsonl import read_records

__all__ = ["fetch_dashboard_data", "load_history_data",
           "render_terminal", "render_html"]

#: History samples fetched/rendered by default.
DEFAULT_SAMPLES = 120

_BARS = "▁▂▃▄▅▆▇█"


def fetch_dashboard_data(address: str, *, samples: int = DEFAULT_SAMPLES,
                         timeout: float = 10.0) -> dict:
    """One dashboard snapshot from a live server's admin socket."""
    from .admin import admin_request

    metrics = admin_request(address, {"cmd": "metrics",
                                      "history": samples}, timeout=timeout)
    activity = admin_request(address, {"cmd": "activity"}, timeout=timeout)
    for part, name in ((metrics, "metrics"), (activity, "activity")):
        if not part.get("ok"):
            raise ConnectionError(f"admin {name} against {address} failed: "
                                  f"{part.get('error')}")
    return {
        "source": f"live admin socket {address}",
        "metrics": metrics,
        "activity": activity,
        "history": metrics.get("history") or [],
    }


def load_history_data(path: str, *, samples: int = DEFAULT_SAMPLES) -> dict:
    """The offline snapshot: newest ``samples`` of a history file.

    Reads the log the way :class:`~repro.server.metrics.MetricsHistory`
    does (:func:`~repro.stream.reliability.jsonl.read_records`): up to
    nine rotated backups, oldest first, then the live file, skipping torn
    lines, so the file of a crashed server still renders.  The newest
    sample stands in for the live ``metrics`` answer.
    """
    rows = list(read_records(path, 9))
    if not rows:
        raise FileNotFoundError(f"no metrics-history samples under {path}")
    rows = rows[-samples:]
    return {"source": f"history file {path}", "metrics": rows[-1],
            "activity": {"params": {}, "tenants": {}}, "history": rows}


# ---------------------------------------------------------------------------
# shared shaping


def _ingest_series(history: list[dict]) -> list[float]:
    """Per-sample events/s between consecutive samples (wall-clocked)."""
    rates: list[float] = []
    for prev, cur in zip(history, history[1:]):
        try:
            dc = int(cur["cursor"]) - int(prev["cursor"])
            dt = float(cur["mono"]) - float(prev["mono"])
        except (KeyError, TypeError, ValueError):
            continue
        if dt > 0 and dc >= 0:
            rates.append(dc / dt)
    return rates


def _sparkline(values: list[float], width: int = 48) -> str:
    if not values:
        return "(no samples)"
    if len(values) > width:
        # Downsample by striding from the end: the newest values matter.
        step = len(values) / width
        values = [values[min(len(values) - 1, int(i * step))]
                  for i in range(width)]
    top = max(values) or 1.0
    return "".join(_BARS[min(len(_BARS) - 1,
                             int(v / top * (len(_BARS) - 1)))]
                   for v in values)


def _fmt_bytes(n: float) -> str:
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB", "PiB"):
        if abs(n) < 1024 or unit == "PiB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{int(n)}B"
        n /= 1024
    return f"{n:.1f}PiB"


def _tenant_rows(data: dict) -> list[dict]:
    history = data["history"]
    # Forecasts live in the samples only (they compare two of them).
    sampled = (history[-1].get("tenants") or {}) if history else {}
    rows = []
    for name, info in sorted((data["metrics"].get("tenants") or {}).items()):
        info = info or {}
        rows.append({
            "name": name,
            "triggers": info.get("triggers", 0),
            "live_files": info.get("live_files", 0),
            "live_bytes": info.get("live_bytes", 0),
            "utilization": info.get("utilization"),
            "purged_bytes": info.get("purged_bytes", 0),
            "target_misses": info.get("target_misses", 0),
            "forecast": (sampled.get(name) or {}).get(
                "forecast_days_to_capacity"),
            "latency": (info.get("trigger_latency") or {}),
        })
    return rows


def _class_bars(activity: dict, width: int = 30) -> list[str]:
    lines = []
    for name, entry in sorted((activity.get("tenants") or {}).items()):
        classes = entry.get("classes") or {}
        total = sum(classes.values()) or 1
        parts = ", ".join(f"{label}:{n}" for label, n in classes.items())
        lines.append(f"  {name:<12} {parts}")
        for label, n in classes.items():
            bar = "#" * max(1, int(n / total * width)) if n else ""
            lines.append(f"    {label:<22} {bar} {n}")
    return lines


# ---------------------------------------------------------------------------
# renderers


def render_terminal(data: dict) -> str:
    """The dashboard as plain text for a terminal."""
    metrics = data["metrics"]
    history = data["history"]
    rates = _ingest_series(history)
    lines = [
        f"repro retention dashboard -- {data['source']}",
        "=" * 64,
        f"cursor {metrics.get('cursor', 0):,}   "
        f"next boundary day {metrics.get('next_boundary', 0)}   "
        f"samples {len(history)}",
        f"events: job {metrics.get('events_job', 0):,}  "
        f"pub {metrics.get('events_publication', 0):,}  "
        f"access {metrics.get('events_access', 0):,}",
        f"checkpoints {metrics.get('checkpoints_written', 0)} written / "
        f"{metrics.get('checkpoint_failures', 0)} failed   "
        f"refold fraction {metrics.get('refold_fraction', 0.0):.3f}",
        "",
        f"ingest rate (events/s, per boundary sample, "
        f"peak {max(rates):,.0f})" if rates else
        "ingest rate: not enough samples yet",
        f"  {_sparkline(rates)}",
        "",
        "tenants",
    ]
    for row in _tenant_rows(data):
        util = (f"{row['utilization'] * 100.0:5.1f}%"
                if isinstance(row["utilization"], (int, float)) else "   --")
        forecast = (f"{row['forecast']:.1f}d to full"
                    if isinstance(row["forecast"], (int, float))
                    else "no growth")
        p99 = row["latency"].get("p99")
        lat = f"p99 {p99 * 1000.0:.1f}ms" if p99 is not None else "p99 --"
        lines.append(
            f"  {row['name']:<12} triggers {row['triggers']:>4}  "
            f"live {row['live_files']:>8,} files "
            f"{_fmt_bytes(row['live_bytes']):>10}  util {util}  "
            f"purged {_fmt_bytes(row['purged_bytes']):>10}  "
            f"misses {row['target_misses']:>3}  {lat}  {forecast}")
    activity = data.get("activity") or {}
    params = activity.get("params") or {}
    if params:
        lines += ["", "activeness ranks (per parameter set)"]
        for key, entry in sorted(params.items()):
            lines.append(
                f"  {key:<12} users {entry.get('users', 0):>6,}  "
                f"op-active {entry.get('op_active', 0):>6,}  "
                f"oc-active {entry.get('oc_active', 0):>6,}")
            for which in ("op_rank_percentiles", "oc_rank_percentiles"):
                pct = entry.get(which)
                if pct:
                    body = "  ".join(f"{k}={v:.3g}"
                                     for k, v in pct.items())
                    lines.append(f"    {which.split('_')[0]}: {body}")
    bars = _class_bars(activity)
    if bars:
        lines += ["", "user classes (latest classification)", *bars]
    return "\n".join(lines) + "\n"


def render_html(data: dict) -> str:
    """The dashboard as one static self-contained HTML page."""
    metrics = data["metrics"]
    history = data["history"]
    rates = _ingest_series(history)
    esc = html.escape

    def svg_sparkline(values: list[float], w: int = 640,
                      h: int = 80) -> str:
        if len(values) < 2:
            return "<p>not enough samples for a rate series yet</p>"
        top = max(values) or 1.0
        pts = " ".join(
            f"{i * w / (len(values) - 1):.1f},"
            f"{h - (v / top) * (h - 4) - 2:.1f}"
            for i, v in enumerate(values))
        return (f'<svg viewBox="0 0 {w} {h}" class="spark">'
                f'<polyline points="{pts}" fill="none" '
                f'stroke="#2a7" stroke-width="2"/></svg>'
                f"<p class='dim'>peak {max(values):,.0f} events/s over "
                f"{len(values)} boundary samples</p>")

    tenant_rows = []
    for row in _tenant_rows(data):
        util = (f"{row['utilization'] * 100.0:.1f}%"
                if isinstance(row["utilization"], (int, float)) else "&ndash;")
        forecast = (f"{row['forecast']:.1f} d"
                    if isinstance(row["forecast"], (int, float))
                    else "no growth")
        p99 = row["latency"].get("p99")
        lat = f"{p99 * 1000.0:.1f} ms" if p99 is not None else "&ndash;"
        tenant_rows.append(
            f"<tr><td>{esc(str(row['name']))}</td>"
            f"<td>{row['triggers']}</td>"
            f"<td>{row['live_files']:,}</td>"
            f"<td>{esc(_fmt_bytes(row['live_bytes']))}</td>"
            f"<td>{util}</td>"
            f"<td>{esc(_fmt_bytes(row['purged_bytes']))}</td>"
            f"<td>{row['target_misses']}</td>"
            f"<td>{lat}</td><td>{forecast}</td></tr>")

    activity = data.get("activity") or {}
    rank_rows = []
    for key, entry in sorted((activity.get("params") or {}).items()):
        for which in ("op_rank_percentiles", "oc_rank_percentiles"):
            pct = entry.get(which) or {}
            if pct:
                cells = "".join(f"<td>{v:.3g}</td>" for v in pct.values())
                rank_rows.append(
                    f"<tr><td>{esc(key)}</td>"
                    f"<td>{esc(which.split('_')[0])}</td>{cells}</tr>")
    class_rows = []
    for name, entry in sorted((activity.get("tenants") or {}).items()):
        classes = entry.get("classes") or {}
        total = sum(classes.values()) or 1
        for label, n in classes.items():
            width = int(n / total * 240)
            class_rows.append(
                f"<tr><td>{esc(str(name))}</td><td>{esc(str(label))}</td>"
                f"<td><div class='bar' style='width:{width}px'></div>"
                f" {n}</td></tr>")

    return f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>repro retention dashboard</title>
<style>
 body {{ font: 14px/1.5 system-ui, sans-serif; margin: 2em auto;
        max-width: 60em; color: #223; }}
 h1 {{ font-size: 1.3em; }} h2 {{ font-size: 1.1em; margin-top: 1.6em; }}
 table {{ border-collapse: collapse; width: 100%; }}
 th, td {{ text-align: left; padding: .25em .6em;
          border-bottom: 1px solid #dde; }}
 .dim {{ color: #778; }} .spark {{ width: 100%; height: 80px; }}
 .bar {{ display: inline-block; height: .8em; background: #2a7;
        vertical-align: middle; }}
</style></head><body>
<h1>repro retention dashboard</h1>
<p class="dim">{esc(str(data['source']))} &middot;
cursor {metrics.get('cursor', 0):,} &middot;
next boundary day {metrics.get('next_boundary', 0)} &middot;
events: job {metrics.get('events_job', 0):,} /
pub {metrics.get('events_publication', 0):,} /
access {metrics.get('events_access', 0):,}</p>
<h2>Ingest rate</h2>
{svg_sparkline(rates)}
<h2>Tenants</h2>
<table><tr><th>tenant</th><th>triggers</th><th>live files</th>
<th>live bytes</th><th>util</th><th>purged</th><th>target misses</th>
<th>trigger p99</th><th>capacity forecast</th></tr>
{''.join(tenant_rows) or '<tr><td colspan="9">no tenants</td></tr>'}
</table>
<h2>Activeness rank percentiles</h2>
<table><tr><th>params</th><th>rank</th><th>p10</th><th>p25</th><th>p50</th>
<th>p75</th><th>p90</th><th>p99</th></tr>
{''.join(rank_rows) or '<tr><td colspan="8">no evaluation yet</td></tr>'}
</table>
<h2>User classes</h2>
<table><tr><th>tenant</th><th>class</th><th>users</th></tr>
{''.join(class_rows) or '<tr><td colspan="3">no classification yet</td></tr>'}
</table>
</body></html>
"""
