"""Long-running daemon: one Session behind an HTTP/JSON API.

``repro serve --daemon`` turns the per-invocation CLI into a persistent
service: a single :class:`~repro.api.session.Session` (one warm
in-memory store layer, one worker pool) answers wire-encoded requests
over plain HTTP — stdlib :mod:`http.server` only, no dependencies:

* ``POST /v1/run`` — any wire-encoded request (workload, sweep,
  scenario, service, fleet); answers the full ``Result`` envelope.
  ``?mode=async`` enqueues instead and answers a job id;
* ``GET /v1/jobs/<id>`` — an async submission's status and progress;
* ``GET /v1/health`` — cache hit rates, store entry counts, worker-pool
  state, and the recorded perf-gate status;
* ``GET /v1/registries`` — every registry the session exposes.

:class:`~repro.daemon.client.DaemonClient` is the matching thin urllib
client; the CLI's ``--remote <addr>`` flag routes any sweep/attack/
serve/fleet invocation through it.

The address defaults and :class:`DaemonError` live here, not in the
server and client modules, so the CLI can use them without importing
the HTTP stack.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.lazy import lazy_exports

if TYPE_CHECKING:
    from repro.daemon.client import DaemonClient
    from repro.daemon.jobs import JobRegistry
    from repro.daemon.server import DaemonState, ReproDaemonServer, serve_daemon

#: Default bind address: loopback only — the daemon speaks plain HTTP
#: with no authentication, so exposing it wider is an explicit choice.
DEFAULT_HOST = "127.0.0.1"
#: Default TCP port.
DEFAULT_PORT = 8642


class DaemonError(RuntimeError):
    """The daemon answered an error, or could not be reached at all."""


__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DaemonClient",
    "DaemonError",
    "DaemonState",
    "JobRegistry",
    "ReproDaemonServer",
    "serve_daemon",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.daemon.client": ("DaemonClient",),
        "repro.daemon.jobs": ("JobRegistry",),
        "repro.daemon.server": ("DaemonState", "ReproDaemonServer", "serve_daemon"),
    },
)
