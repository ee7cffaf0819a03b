"""The networked multi-tenant retention server.

``repro.stream`` turned the batch replay into a single-policy daemon fed
from local trace files; this package turns that daemon into a *server*:

* :mod:`~repro.server.protocol` -- the length-prefixed newline-JSON wire
  protocol producers and admin clients speak, plus the negotiated v2
  binary columnar batch frames (CRC32-sealed, optionally zlib'd) that
  close the wire-speed gap against local file replay;
* :mod:`~repro.server.ingest` -- :class:`SocketListener` /
  :class:`SocketSource`, which accept any number of concurrent producers
  over TCP or Unix sockets and feed their events through the same
  quarantined merge the file sources use;
* :mod:`~repro.server.tenants` -- :class:`MultiTenantService`, N policy
  configurations sharing ONE event feed and ONE activity store, each
  bit-identical to an independent batch ``FastEmulator``; given
  ``shard=(name, ring)`` it is a shard worker owning one ring slice;
* :mod:`~repro.server.admin` -- the admin/query plane (``status``,
  ``health``, ``tenants``, ``metrics``, ``activity``, ``export``,
  ``query user``, and a shard worker's ``shard-split``), whose socket
  doubles as a Prometheus ``GET /metrics`` scrape target;
* :mod:`~repro.server.metrics` -- the observability substrate:
  thread-safe :class:`Counter`, the rotating crash-safe
  :class:`MetricsHistory` ring of per-boundary samples, and the
  Prometheus text exposition;
* :mod:`~repro.server.dashboard` -- ``repro dashboard``: terminal or
  static-HTML rendering of activeness distributions, purge pressure and
  capacity forecasts from a live server or an offline history file;
* :mod:`~repro.server.supervisor` -- a supervised restart loop with
  auto-resume from the newest verifying checkpoint and crash-loop
  exponential backoff;
* :mod:`~repro.server.ring` -- the consistent-hash :class:`HashRing`
  over users that partitions a fleet, read by the router, the worker's
  service and its admin plane alike;
* :mod:`~repro.server.shard` -- the horizontally sharded fleet: the
  :class:`ShardRouter` forwarding ingest to owning workers with
  exactly-once lanes, the scatter/gather :class:`FleetAdmin` plane,
  :class:`ShardFleet` orchestration including day-boundary rebalances,
  and the fleet's result JSON.
"""

from .admin import AdminServer, admin_request, scrape_metrics
from .dashboard import (fetch_dashboard_data, load_history_data,
                        render_html, render_terminal)
from .ingest import (DEFAULT_BATCH_EVENTS, NetworkEventStream,
                     PublishRefused, SequenceLedger, SocketListener,
                     SocketSource, publish_batches, publish_events,
                     publish_workspace)
from .protocol import (PROTOCOL_VERSION, SUPPORTED_PROTOCOLS,
                       BatchFormatError, FrameError, FrameReader,
                       connect_socket, create_listener, decode_batch,
                       decode_event, encode_batch, encode_batch_frame,
                       encode_event, format_address, parse_address,
                       write_frame)
from .metrics import (Counter, MetricsHistory, render_prometheus,
                      tail_stats)
from .ring import HashRing, splitmix64
from .shard import (FleetAdmin, ShardFleet, ShardLane, ShardRouter,
                    WorkerSpec, merge_tenant_results)
from .supervisor import (EXIT_GIVE_UP, BackoffPolicy, Supervisor,
                         SupervisorReport)
from .tenants import MultiTenantService, Tenant, TenantSpec

__all__ = [
    "AdminServer",
    "admin_request",
    "scrape_metrics",
    "Counter",
    "MetricsHistory",
    "render_prometheus",
    "tail_stats",
    "fetch_dashboard_data",
    "load_history_data",
    "render_html",
    "render_terminal",
    "NetworkEventStream",
    "PublishRefused",
    "SequenceLedger",
    "SocketListener",
    "SocketSource",
    "publish_batches",
    "publish_events",
    "publish_workspace",
    "DEFAULT_BATCH_EVENTS",
    "PROTOCOL_VERSION",
    "SUPPORTED_PROTOCOLS",
    "BatchFormatError",
    "FrameError",
    "FrameReader",
    "connect_socket",
    "create_listener",
    "decode_batch",
    "decode_event",
    "encode_batch",
    "encode_batch_frame",
    "encode_event",
    "format_address",
    "parse_address",
    "write_frame",
    "FleetAdmin",
    "HashRing",
    "ShardFleet",
    "ShardLane",
    "ShardRouter",
    "WorkerSpec",
    "merge_tenant_results",
    "splitmix64",
    "EXIT_GIVE_UP",
    "BackoffPolicy",
    "Supervisor",
    "SupervisorReport",
    "MultiTenantService",
    "Tenant",
    "TenantSpec",
]
