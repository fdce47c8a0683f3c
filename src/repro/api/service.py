"""``repro serve``: a long-running JSON-over-HTTP query service.

The service exposes the :class:`~repro.api.session.Session` facade over
plain stdlib HTTP (no third-party dependencies), which is the first piece of
the serving story: one resident process keeps the per-scenario artefacts
warm, so the many small epistemic queries the paper's workloads consist of
are answered from the session cache instead of rebuilding state spaces per
request.

Endpoints (all JSON):

* ``POST /check`` — body ``{"scenario": {...}, "temporal": false}``; model
  checks the scenario (``temporal: true`` runs the temporal-only ablation).
* ``POST /synthesize`` — body ``{"scenario": {...}}``; synthesizes the
  knowledge-based program implementation.
* ``POST /batch`` — body ``{"requests": [{"op": "check"|"temporal"|
  "synthesize", "scenario": {...}}, ...]}``; runs the whole batch on the
  shared session and returns the results in order.
* ``GET /health`` — liveness probe (also reports the cache statistics).
* ``GET /stats`` — the session's cumulative cache statistics; on a front of
  several workers also every worker's labelled counters plus their
  aggregate.
* ``GET /metrics`` — Prometheus text exposition of the server's metrics
  (per-endpoint request counters and latency histograms, session cache
  tiers, store events); on a front of several workers any worker answers
  for the whole front with per-worker labelled series.

Every successful response carries ``{"ok": true, "result": <typed result
JSON>, "cache": <stats>}``; the result payloads are the versioned schema of
:mod:`repro.api.results` (``schema_version`` included), and errors come
back as ``{"ok": false, "error": ...}`` with a 4xx status.  Scenario
documents are validated by :meth:`Scenario.from_json`, so a typo'd field is
a 400, never a silently-defaulted query.

**Connection discipline.**  The handler speaks HTTP/1.1 keep-alive, which
makes request framing load-bearing: an error response may only reuse the
connection when the request body was consumed in full, so any response sent
with unread body bytes still on the socket carries ``Connection: close``
(the alternative — draining an arbitrarily large or lying ``Content-Length``
— is an invitation to hang).  A client that disconnects mid-response is
terminal for that connection: the broken pipe is swallowed, nothing further
is written, and no traceback is logged.

**Scaling out.**  A worker is a ``ThreadingHTTPServer`` over one shared
session with per-cache-key build locks: concurrent *different* requests
build their artefacts in parallel, while concurrent *identical* requests
coalesce onto a single build (the ``coalesced`` counter in ``/stats``).
Pure-Python builds are still GIL-bound inside one process, so ``repro
serve`` is a supervised pre-fork front: the parent binds one listening
socket and forks ``--workers N`` (default 1) workers that all ``accept()``
on it (kernel-level load balancing).  The parent only supervises — dead
workers are restarted with backoff, SIGINT/SIGTERM fan out to every
worker, and each worker drains its in-flight requests before it exits.
With ``--store DIR`` every worker opens the persistent
:class:`~repro.api.artefact_store.ArtefactStore` in that directory (the
parent opens it once before it binds, to fail fast), so one worker's cold
build warms its siblings (and any later process) through the store tier.

**Warm starts.**  ``--preload SPEC`` (e.g. ``table1:max-n=4``) builds the
space artefacts of a scenario frontier before serving: the parent builds
once before forking and every worker inherits the artefacts copy-on-write.
Until the build completes ``/health`` answers ``ready: false`` and every
other request gets a 503.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import socket
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.api.artefact_store import ArtefactStore
from repro.api.results import SCHEMA_VERSION
from repro.api.scenario import Scenario
from repro.api.session import QUERY_OPS, Session, SessionStats
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.preload import Preloader, parse_frontier
from repro.version import __version__

#: Service diagnostics logger (configured by :func:`repro.obs.log.setup`;
#: informational records go to stdout, warnings and errors to stderr,
#: byte-compatible with the ``print`` diagnostics this replaced).
_LOG = logging.getLogger("repro.serve")

#: Default bind address and port for ``repro serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765

#: Largest accepted request body, a guard against accidental floods.
MAX_BODY_BYTES = 1 << 20

#: Seconds a shutting-down worker waits for in-flight requests to finish.
DRAIN_SECONDS = 10.0

#: Seconds the supervising parent gives workers to exit after fan-out
#: before escalating to SIGKILL.
SHUTDOWN_GRACE_SECONDS = 10.0

#: Test seam: when this environment variable holds a positive float, the
#: ``--preload`` build additionally sleeps that many seconds, so tests and CI
#: can observe the not-yet-ready window (``/health`` with ``ready: false``)
#: deterministically.  Unset (the default) it changes nothing.
PRELOAD_DELAY_ENV = "REPRO_SERVE_PRELOAD_DELAY"

#: Supervisor restart backoff base, overridable for tests via
#: ``REPRO_SERVE_RESTART_BACKOFF`` (seconds; doubles per consecutive
#: restart of the same worker slot, capped at 30s).
RESTART_BACKOFF_ENV = "REPRO_SERVE_RESTART_BACKOFF"
DEFAULT_RESTART_BACKOFF = 1.0

#: Endpoints the per-endpoint HTTP metrics label by path; anything else is
#: folded into "other" so scanners cannot inflate the label cardinality.
_KNOWN_ENDPOINTS = frozenset(
    {"/check", "/synthesize", "/batch", "/health", "/healthz", "/stats",
     "/metrics"}
)


def _endpoint_label(path: str) -> str:
    return path if path in _KNOWN_ENDPOINTS else "other"


class ServiceError(ValueError):
    """A client error with the HTTP status it should map to."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def _parse_scenario(document: object) -> Scenario:
    if not isinstance(document, dict):
        raise ServiceError("request body must be a JSON object")
    scenario_doc = document.get("scenario")
    if not isinstance(scenario_doc, dict):
        raise ServiceError("request must carry a 'scenario' JSON object")
    try:
        return Scenario.from_json(scenario_doc)
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"invalid scenario: {exc}") from exc


def _health(ready: bool, started_at: float) -> Dict[str, object]:
    """The ``/health`` document.  ``ready`` is False only while the parent
    preloads; the uptime tells a freshly restarted worker from a long-lived
    one, and ``version`` a mixed-version front."""
    return {
        "status": "serving" if ready else "preloading",
        "ready": ready,
        "started_at": round(started_at, 3),
        "uptime_seconds": round(time.time() - started_at, 3),
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
    }


class ReproRequestHandler(BaseHTTPRequestHandler):
    """Request handler bound to the server's shared session."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------- plumbing

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not getattr(self.server, "verbose", False):
            return
        if obs_log.active_format() == "json":
            # Keep the JSON diagnostic stream pure: the stock access line
            # writes raw text straight to stderr, so reroute it through
            # the logger (which carries the active trace ID too).
            _LOG.info("%s - - %s", self.address_string(), format % args)
        else:
            super().log_message(format, *args)

    @property
    def session(self) -> Session:
        return self.server.session

    def _begin_request(self) -> None:
        self._body_consumed = False
        self._connection_dead = False
        self._status: Optional[int] = None
        self._accounted = False
        self._request_started = time.perf_counter()
        # Honour a well-formed incoming trace ID, mint one otherwise; the
        # effective ID is echoed back in the response headers and rides the
        # contextvar into every span this handler thread records.
        self._trace_token, self._trace_id = obs_trace.begin(
            self.headers.get(obs_trace.HEADER)
        )
        self.server.request_begun()

    def _account_request(self) -> None:
        """Count this request and publish the worker's record, once: after
        the response headers (so publishing does not delay them) and before
        the body, so every worker's views include the request."""
        if self._accounted:
            return
        self._accounted = True
        self.server.observe_request(
            _endpoint_label(self.path), self.command,
            self._status if self._status is not None else 0,
            time.perf_counter() - self._request_started,
        )
        self.server.publish_stats()

    def _end_request(self) -> None:
        self._account_request()
        obs_trace.end(self._trace_token)
        self.server.request_done()

    def _read_body(self) -> object:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError as exc:
            raise ServiceError("Content-Length header is not an integer") from exc
        if length < 0:
            # rfile.read(-N) would read to EOF and hang the keep-alive
            # connection; a negative length is a malformed request, full stop.
            raise ServiceError("Content-Length must be a non-negative integer")
        if length > MAX_BODY_BYTES:
            raise ServiceError("request body too large", status=413)
        raw = self.rfile.read(length) if length else b""
        self._body_consumed = True
        if not raw:
            raise ServiceError("request body must be JSON (got an empty body)")
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}") from exc

    def _body_left_on_socket(self) -> bool:
        """Whether unread (or unknowable) request-body bytes remain.

        True means the connection cannot be reused for another request:
        whatever follows on the socket is body, not a request line.
        """
        if getattr(self, "_body_consumed", False):
            return False
        raw = self.headers.get("Content-Length")
        if raw is None:
            return False  # no declared body (the usual GET / 404 case)
        try:
            return int(raw) != 0
        except ValueError:
            return True  # a lying header: nothing about the socket is known

    def _respond(self, status: int, payload: dict, close: bool = False) -> None:
        self._send_body(status, json.dumps(payload).encode(),
                        "application/json", close)

    def _send_body(self, status: int, body: bytes, content_type: str,
                   close: bool = False) -> None:
        self._status = status
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            if getattr(self, "_trace_id", None):
                self.send_header(obs_trace.HEADER, self._trace_id)
            if close:
                # send_header("Connection", "close") also flips
                # self.close_connection, ending the keep-alive loop.
                self.send_header("Connection", "close")
            self.end_headers()
            self._account_request()
            self.wfile.write(body)
        except (ConnectionError, socket.timeout) as exc:
            # The client went away mid-response.  That is terminal for the
            # connection: never write again (a "second response" would go
            # to a dead socket) and never log a traceback for it.
            self._connection_dead = True
            self.close_connection = True
            if getattr(self.server, "verbose", False):
                self.log_message("client disconnected mid-response: %r", exc)

    def _respond_ok(self, payload: dict) -> None:
        payload = dict(payload)
        payload["ok"] = True
        payload["cache"] = self.session.stats().to_json()
        if self.server.worker_label is not None:
            payload["worker"] = self.server.worker_label
        self._respond(200, payload)

    def _respond_error(self, status: int, message: str) -> None:
        if getattr(self, "_connection_dead", False):
            return
        self._respond(
            status, {"ok": False, "error": message},
            close=self._body_left_on_socket(),
        )

    # ------------------------------------------------------------- endpoints

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._begin_request()
        try:
            if self.path in ("/health", "/healthz"):
                # A server answers only once any --preload has landed (the
                # parent's gate answers before that), so it is always ready.
                self._respond_ok(_health(True, self.server.started_at))
            elif self.path == "/stats":
                self._respond_ok(self.server.stats_payload())
            elif self.path == "/metrics":
                self._send_body(200, self.server.metrics_exposition().encode(),
                                obs_metrics.CONTENT_TYPE)
            else:
                self._respond_error(404, f"unknown endpoint {self.path!r}")
        except ConnectionError:
            self.close_connection = True
        finally:
            self._end_request()

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        self._begin_request()
        try:
            with obs_trace.span(f"http.{_endpoint_label(self.path)}"):
                if self.path in ("/check", "/synthesize"):
                    self._handle_query()
                elif self.path == "/batch":
                    self._handle_batch()
                else:
                    self._respond_error(404, f"unknown endpoint {self.path!r}")
        except ServiceError as exc:
            self._respond_error(exc.status, str(exc))
        except ConnectionError:
            # Reading from (or responding to) a dead connection: terminal,
            # nothing further to say to anyone.
            self.close_connection = True
        except Exception as exc:  # pragma: no cover - defensive: report, don't die
            if not getattr(self, "_connection_dead", False):
                self._respond_error(500, f"internal error: {exc}")
        finally:
            self._end_request()

    def _handle_query(self) -> None:
        document = self._read_body()
        scenario = _parse_scenario(document)
        if self.path == "/synthesize":
            op = "synthesize"
        else:
            op = "temporal" if document.get("temporal", False) else "check"
        try:
            result = self.session.query(op, scenario)
        except ValueError as exc:
            raise ServiceError(str(exc)) from exc
        self._respond_ok({"result": result.to_json()})

    def _handle_batch(self) -> None:
        document = self._read_body()
        if not isinstance(document, dict) or not isinstance(
            document.get("requests"), list
        ):
            raise ServiceError("batch body must carry a 'requests' JSON array")
        requests = []
        for position, entry in enumerate(document["requests"]):
            if not isinstance(entry, dict):
                raise ServiceError(f"batch request {position} must be a JSON object")
            op = entry.get("op", "check")
            if op not in QUERY_OPS:
                raise ServiceError(
                    f"batch request {position}: unknown op {op!r} "
                    f"(expected one of {QUERY_OPS})"
                )
            requests.append((op, _parse_scenario(entry)))
        try:
            results = self.session.batch(requests)
        except ValueError as exc:
            raise ServiceError(str(exc)) from exc
        self._respond_ok({"results": [result.to_json() for result in results]})


class ReproServer(ThreadingHTTPServer):
    """A threading HTTP server with a shared :class:`Session`.

    It exists only once any ``--preload`` has landed, so it is always
    ready.  ``listening_socket`` adopts an already-bound socket instead of
    binding a new one — the pre-fork front binds once in the parent and
    every forked worker accepts on its inherited copy.  On a front of
    several workers ``worker_label``/``stats_dir`` wire each worker into
    the aggregated ``/stats`` and ``/metrics`` views: before each response
    body goes out the worker publishes its counter snapshot to the front's
    records directory ``stats_dir``, and any worker answering reads all of
    its siblings' snapshots back.  ``metrics`` is the server's own registry
    (HTTP series and cache gauges).
    """

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        session: Optional[Session] = None,
        verbose: bool = False,
        listening_socket: Optional[socket.socket] = None,
        worker_label: Optional[str] = None,
        stats_dir: Optional[str] = None,
    ) -> None:
        super().__init__(address, ReproRequestHandler, bind_and_activate=False)
        # A labelled worker on an adopted socket has siblings accepting on
        # the same socket; see get_request.
        self._has_siblings = (
            listening_socket is not None and worker_label is not None
        )
        if listening_socket is not None:
            self.socket.close()
            # A new connection wakes every worker selecting on this socket
            # and one wins accept(); non-blocking, the others get "no
            # request" instead of parking where shutdown() cannot reach.
            listening_socket.setblocking(False)
            self.socket = listening_socket
            host, port = listening_socket.getsockname()[:2]
            self.server_address = (host, port)
            self.server_name = socket.getfqdn(host)
            self.server_port = port
        else:
            self.server_bind()
            self.server_activate()
        self.session = session if session is not None else Session()
        self.verbose = verbose
        self.worker_label = worker_label
        self.stats_dir = stats_dir
        self.started_at = time.time()
        self.metrics = obs_metrics.MetricsRegistry()
        self._m_http = self.metrics.counter(
            "repro_http_requests_total",
            "HTTP requests by endpoint, method and status",
        )
        self._m_http_seconds = self.metrics.histogram(
            "repro_http_request_seconds",
            "HTTP request latency by endpoint",
        )
        self._m_start_time = self.metrics.gauge(
            "repro_process_start_time_seconds",
            "Unix time this serving process started",
        )
        self._m_start_time.set(round(self.started_at, 3))
        self._m_cache_entries = self.metrics.gauge(
            "repro_session_cache_entries",
            "Artefacts resident in the session cache",
        )
        self._m_cache_weight = self.metrics.gauge(
            "repro_session_cache_weight_bytes",
            "Estimated resident bytes of the session cache",
        )
        self._active_requests = 0  # guarded by: _active_lock
        self._active_connections = 0  # guarded by: _active_lock
        self._active_lock = threading.Lock()
        self._publish_lock = threading.Lock()

    def server_activate(self) -> None:
        # Adopted sockets are already listening; activating again is fine
        # for fresh binds and a no-op for inherited ones.
        self.socket.listen(self.request_queue_size)

    def get_request(self):
        # A new connection wakes every sibling's select(); one already
        # holding a connection waits a tick, so an idle sibling wins
        # accept() and two keep-alive clients land on different workers.
        # Nobody waits for a connection to close: an idle keep-alive client
        # must never keep the next one out.
        if self._has_siblings and self.active_connections:
            time.sleep(0.005)
        request, client_address = super().get_request()
        request.setblocking(True)  # BSDs pass the listener's O_NONBLOCK on
        with self._active_lock:
            self._active_connections += 1
        return request, client_address

    def shutdown_request(self, request):
        try:
            super().shutdown_request(request)
        finally:
            with self._active_lock:
                self._active_connections -= 1

    # ------------------------------------------------------------- draining

    def request_begun(self) -> None:
        with self._active_lock:
            self._active_requests += 1

    def request_done(self) -> None:
        with self._active_lock:
            self._active_requests -= 1

    @property
    def active_requests(self) -> int:
        with self._active_lock:
            return self._active_requests

    @property
    def active_connections(self) -> int:
        with self._active_lock:
            return self._active_connections

    # --------------------------------------------------------------- metrics

    def observe_request(self, endpoint: str, method: str, status: int,
                        seconds: float) -> None:
        """Record one finished HTTP request in the server's metrics."""
        self._m_http.inc(endpoint=endpoint, method=method, status=status)
        self._m_http_seconds.observe(seconds, endpoint=endpoint)

    def metrics_snapshot(self) -> Dict[str, dict]:
        """The union of the server's (gauges refreshed), the session's and
        the store's metrics; their metric names are disjoint."""
        stats = self.session.stats()
        self._m_cache_entries.set(stats.entries)
        self._m_cache_weight.set(stats.weight_bytes)
        snapshot = self.metrics.snapshot()
        snapshot.update(self.session.metrics.snapshot())
        if self.session.store is not None:
            snapshot.update(self.session.store.metrics.snapshot())
        return snapshot

    def metrics_exposition(self) -> str:
        """The Prometheus text body for ``GET /metrics``.

        A server without a records directory (a lone worker, an in-process
        server) exposes its own snapshot.  The workers of a larger front
        publish their snapshots into the front's records directory on every
        request, so any worker can render the whole front: each sibling's
        series carries a ``worker`` label (summing over it gives the
        front-wide aggregate, the way any Prometheus setup aggregates
        instances).
        """
        if self.stats_dir is None:
            return obs_metrics.render_exposition(
                [(None, self.metrics_snapshot())])
        self.publish_stats()  # this worker's own snapshot must be fresh
        snapshots = []
        for label, record in sorted(self._read_worker_records().items()):
            snapshot = record.get("metrics")
            if isinstance(snapshot, dict):
                snapshots.append((label, snapshot))
        return obs_metrics.render_exposition(snapshots)

    # ------------------------------------------------- per-worker statistics

    def publish_stats(self) -> None:
        """Write this worker's labelled counter snapshot for aggregation.

        Serialised per server, so concurrent handler threads never write the
        one temporary file at once, and the last record is the freshest.
        """
        if self.stats_dir is None or self.worker_label is None:
            return
        path = Path(self.stats_dir) / f"{self.worker_label}.json"
        tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
        with self._publish_lock:
            record = {
                "worker": self.worker_label,
                "pid": os.getpid(),
                "updated": time.time(),
                "cache": self.session.stats().to_json(),
                "metrics": self.metrics_snapshot(),
            }
            try:
                tmp.write_text(json.dumps(record, sort_keys=True))
                os.replace(str(tmp), str(path))
            except OSError:  # stats are best-effort; serving must not care
                try:
                    tmp.unlink()
                except OSError:
                    pass

    def _read_worker_records(self) -> Dict[str, Dict[str, object]]:
        """Every sibling worker's published snapshot, keyed by label."""
        workers: Dict[str, Dict[str, object]] = {}
        try:
            entries = sorted(Path(self.stats_dir).glob("worker-*.json"))
        except OSError:  # pragma: no cover - stats dir vanished
            entries = []
        for entry in entries:
            try:
                record = json.loads(entry.read_text())
            except (OSError, ValueError):  # torn or vanished: skip this one
                continue
            if isinstance(record, dict) and isinstance(record.get("cache"), dict):
                workers[str(record.get("worker", entry.stem))] = record
        return workers

    def stats_payload(self) -> Dict[str, object]:
        """The extra ``/stats`` payload: per-worker views plus aggregate."""
        if self.stats_dir is None:
            return {}
        self.publish_stats()  # this worker's own view must be fresh
        workers = self._read_worker_records()
        return {
            "workers": workers,
            "aggregate": SessionStats.aggregate_json(
                [record["cache"] for record in workers.values()]
            ),
        }


def make_server(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    session: Optional[Session] = None,
    verbose: bool = False,
    listening_socket: Optional[socket.socket] = None,
    worker_label: Optional[str] = None,
    stats_dir: Optional[str] = None,
) -> ReproServer:
    """Build (but do not start) a service instance; ``port=0`` picks a free port."""
    return ReproServer(
        (host, port), session=session, verbose=verbose,
        listening_socket=listening_socket, worker_label=worker_label,
        stats_dir=stats_dir,
    )


# ------------------------------------------------------------ the serve front


def _run_preload(preloader: Preloader, cells) -> Dict[str, int]:
    """Build the frontier's spaces into ``preloader`` (honouring the seam)."""
    try:
        delay = float(os.environ.get(PRELOAD_DELAY_ENV) or 0.0)
    except ValueError:
        delay = 0.0
    if delay > 0:
        time.sleep(delay)
    return preloader.preload_cells(cells)


def _answer_while_preloading(
    listening: socket.socket, stop: threading.Event, started_at: float
) -> threading.Thread:
    """Answer probes on the bound socket while the pre-fork parent preloads.

    The socket is bound and listening before the preload starts, so clients
    can connect immediately; this minimal responder tells them the truth —
    ``/health`` with ``ready: false``, 503 for anything else, every response
    ``Connection: close`` — until the workers fork and take over.  The
    listening socket is put in timeout mode for the accept loop; the caller
    takes it out again (``settimeout(None)``) once the responder stops.
    """

    def _respond(conn: socket.socket) -> None:
        try:
            conn.settimeout(1.0)
            raw = conn.recv(65536)
            request_line = raw.split(b"\r\n", 1)[0].split()
            path = request_line[1].decode("latin-1") if len(request_line) > 1 else ""
            if path in ("/health", "/healthz"):
                status = b"200 OK"
                body = json.dumps(
                    dict(_health(False, started_at), ok=True)).encode()
            else:
                status = b"503 Service Unavailable"
                body = json.dumps(
                    {"ok": False, "error": "service is preloading",
                     "ready": False}
                ).encode()
            conn.sendall(
                b"HTTP/1.0 " + status + b"\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                b"Connection: close\r\n\r\n" + body
            )
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _loop() -> None:
        while not stop.is_set():
            try:
                conn, _ = listening.accept()
            except socket.timeout:
                continue
            except OSError:  # pragma: no cover - socket torn down
                break
            _respond(conn)

    listening.settimeout(0.2)
    thread = threading.Thread(target=_loop, daemon=True, name="preload-gate")
    thread.start()
    return thread


def _run_worker(server: ReproServer) -> int:
    """One forked worker: serve on the inherited socket until signalled,
    then drain the in-flight requests."""

    def _shut_down(signum, frame):  # noqa: ARG001 - signal handler shape
        # shutdown() blocks until serve_forever() exits, and *this* thread
        # is inside serve_forever — hand the call to a helper thread.  The
        # Thread construction is allocator-heavy for a signal handler, but
        # it is the socketserver-documented shutdown-from-handler shape and
        # runs once, at process exit.
        threading.Thread(target=server.shutdown, daemon=True).start()  # lint: disable=FORK01

    signal.signal(signal.SIGTERM, _shut_down)
    signal.signal(signal.SIGINT, _shut_down)
    server.publish_stats()  # visible in /stats before the first request
    try:
        server.serve_forever(poll_interval=0.1)
        deadline = time.monotonic() + DRAIN_SECONDS
        while server.active_requests and time.monotonic() < deadline:
            time.sleep(0.05)
    finally:
        server.server_close()
    return 0


def _restart_backoff() -> float:
    try:
        value = float(
            os.environ.get(RESTART_BACKOFF_ENV) or DEFAULT_RESTART_BACKOFF
        )
    except ValueError:
        value = DEFAULT_RESTART_BACKOFF
    return max(value, 0.0)


def serve(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    cache_size: int = 64,
    verbose: bool = False,
    store_dir: Optional[str] = None,
    workers: int = 1,
    store_max_bytes: Optional[int] = None,
    store_max_entries: Optional[int] = None,
    preload: Optional[str] = None,
    log_format: str = "text",
    log_level: str = "info",
) -> int:
    """Run the JSON service until interrupted (the ``repro serve`` command).

    The front binds the socket once here, then forks ``workers`` worker
    processes that accept on it concurrently — the way to put every core
    behind one port, since a single CPython process is GIL-bound on cold
    builds no matter how its threads are arranged.  One worker is simply
    ``workers=1``.  This process only supervises: a worker that dies is
    restarted (with exponential backoff per worker slot, so a crash loop
    cannot spin), SIGINT/SIGTERM fan out to every worker, each worker
    drains its in-flight requests, and workers that ignore the fan-out are
    SIGKILLed after a grace period.  The workers of a front of several
    publish their counters into a records directory of this front's own,
    removed when it exits; a lone worker publishes nothing.

    ``store_dir`` adds the persistent artefact-store tier: results built by
    any worker are published there, and repeated queries — including ones
    first answered by *another* process sharing the directory — are served
    from it without rebuilding.  The store is opened here, before binding,
    so a bad directory fails once instead of crash-looping every worker.
    ``store_max_bytes``/``store_max_entries`` bound the store: each worker
    opens its own bounded store, which compacts it (oldest entries first,
    by mtime) when it opens and as the worker writes, and counts only its
    own compactions.

    ``preload`` names a scenario frontier (e.g. ``table1`` or
    ``table1:max-n=4``, see :func:`repro.runtime.preload.parse_frontier`):
    the spaces those cells read are built once before forking, so every
    worker shares the build copy-on-write.  Meanwhile a minimal responder
    on the bound socket answers ``/health`` with ``ready: false`` and every
    other request with a 503.  A failed preload downgrades to cold serving
    rather than refusing to start.  Raises ``ValueError`` for a malformed
    spec before binding the socket.

    ``log_format``/``log_level`` configure the diagnostics stream (see
    :func:`repro.obs.log.setup`): ``text`` (the default) is byte-compatible
    with the historical ``print`` output, ``json`` emits one structured
    record per line; ``--log-level debug`` additionally surfaces the
    per-request trace spans.
    """
    obs_log.setup(log_format, log_level)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    preload_cells = parse_frontier(preload) if preload else None
    for bound in (store_max_bytes, store_max_entries):
        if bound is not None and bound < 1:
            raise ValueError(f"store bounds must be >= 1, got {bound}")
    if store_dir is not None:
        # Unbounded, so this runs no compaction pass for the workers to
        # inherit: each one's bounded store runs and counts its own.
        ArtefactStore(store_dir)
    started_at = time.time()
    listening = socket.create_server((host, port), backlog=128)
    # Until the fan-out handlers replace it, SIGTERM stops the front the
    # way SIGINT does: by KeyboardInterrupt.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    bound_host, bound_port = listening.getsockname()[:2]
    preloader: Optional[Preloader] = None
    records: Optional[tempfile.TemporaryDirectory] = None
    stats_dir: Optional[str] = None  # the records directory of a larger front
    children: Dict[int, int] = {}  # pid -> worker slot index
    restarts: Dict[int, int] = {}  # worker slot index -> consecutive restarts
    stopping = False

    def spawn(index: int) -> int:
        pid = os.fork()
        if pid == 0:
            # Forked worker: shed the parent's supervisor state before
            # anything can go wrong, then serve.
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            signal.signal(signal.SIGINT, signal.SIG_DFL)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            code = 1
            try:
                store = None
                if store_dir is not None:
                    store = ArtefactStore(store_dir, max_bytes=store_max_bytes,
                                          max_entries=store_max_entries)
                code = _run_worker(make_server(
                    session=Session(max_entries=cache_size, store=store,
                                    preloaded=preloader),
                    verbose=verbose,
                    listening_socket=listening,
                    worker_label=f"worker-{index}" if stats_dir else None,
                    stats_dir=stats_dir,
                ))
            except KeyboardInterrupt:  # pragma: no cover - pre-handler race
                code = 0
            finally:
                os._exit(code)
        return pid

    def _fan_out(signum, frame):  # noqa: ARG001 - signal handler shape
        nonlocal stopping
        stopping = True
        for pid in list(children):
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        # If a worker ignores the fan-out, escalate via SIGALRM.
        signal.alarm(int(SHUTDOWN_GRACE_SECONDS))

    def _escalate(signum, frame):  # noqa: ARG001 - signal handler shape
        for pid in list(children):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    try:
        if preload_cells:
            _LOG.info(
                "repro serve: preloading %d frontier cells on http://%s:%s "
                "(health reports ready: false until done)",
                len(preload_cells), bound_host, bound_port,
            )
            preloader = Preloader()
            gate_stop = threading.Event()
            gate = _answer_while_preloading(listening, gate_stop, started_at)
            try:
                summary = _run_preload(preloader, preload_cells)
                _LOG.info(
                    "repro serve: preloaded %d spaces (%d states) for %d "
                    "frontier cells",
                    summary["spaces"], summary["states"], len(preload_cells),
                )
            except KeyboardInterrupt:  # interrupted before any worker forked
                return 0
            except Exception as exc:
                _LOG.warning("repro serve: preload failed (%s); serving cold", exc)
                preloader = None
            finally:
                gate_stop.set()
                gate.join()
                listening.settimeout(None)  # the gate's accept timeout ends here

        signal.signal(signal.SIGTERM, _fan_out)
        signal.signal(signal.SIGINT, _fan_out)
        signal.signal(signal.SIGALRM, _escalate)
        if workers > 1:
            # This front's own, so no other front (and no earlier one on the
            # same store) can show up in its /stats.
            records = tempfile.TemporaryDirectory(prefix="repro-serve-stats-")
            stats_dir = records.name
        # Logged before the workers fork, so their own lines (a bounded
        # store's startup compaction) come after it.
        store_note = f"; store {store_dir}" if store_dir is not None else ""
        _LOG.info(
            "repro serve: listening on http://%s:%s (%d worker%s, cache %d "
            "entries per worker%s; endpoints: /check /synthesize /batch "
            "/health /stats /metrics)",
            bound_host, bound_port, workers, "s" if workers > 1 else "",
            cache_size, store_note,
        )
        for index in range(workers):
            if stopping:
                break
            children[spawn(index)] = index

        backoff_base = _restart_backoff()
        while children:
            try:
                pid, status = os.waitpid(-1, 0)
            except ChildProcessError:  # pragma: no cover - all children reaped
                break
            except InterruptedError:  # pragma: no cover - pre-3.5 semantics
                continue
            index = children.pop(pid, None)
            if index is None or stopping:
                continue
            exit_code = os.waitstatus_to_exitcode(status)
            restarts[index] = restarts.get(index, 0) + 1
            delay = min(backoff_base * (2 ** (restarts[index] - 1)), 30.0)
            _LOG.warning(
                "repro serve: worker-%d (pid %d) exited unexpectedly (%s); "
                "restarting in %.1fs", index, pid, exit_code, delay,
            )
            if delay:
                time.sleep(delay)
            if stopping:  # the fan-out signal may land during the backoff sleep
                continue
            children[spawn(index)] = index
    finally:
        signal.alarm(0)
        listening.close()
        if records is not None:
            records.cleanup()
        _LOG.info("repro serve: shut down")
    return 0
