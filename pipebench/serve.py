"""The serve-mix workload: a pre-fork ``repro serve`` under a closed-loop mix.

Untraced, the server is the real command, ``repro serve --workers 2
--store <fresh dir> --port 0``, in a child process.  The client has two
threads, each with one keep-alive connection and one request in flight:

* cold phase: connection 0 sends every distinct query once (seeded order),
  with the server and the client pinned to one vCPU and a
  ``speed.Sampler`` there sampling the host's speed;
* warm phase: each connection makes one untimed pass over the queries, then
  both send their seeded mix of repeats, ``/batch`` calls and a few
  ``/stats`` and ``/metrics`` scrapes until the measuring time is used up.

Traced, the same request sequences (with a fixed warm count) run twice:
once against the real command, for the ``/metrics`` deltas and the
untraced baseline, and once against two in-process ``make_server`` workers
sharing one store and stats directory, with spans on both sides of the
socket (see ``tracing.py``).
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import plan
import speed
import tracing

HOST = "127.0.0.1"
READY_TIMEOUT = 60.0
REQUEST_TIMEOUT = 30.0
SHUTDOWN_TIMEOUT = 30.0
COLD_ROUNDS = 3
SHUTDOWN_SETTLE = 0.5
MIN_WARM_SAMPLES = 200
TRACED_WARM_PER_CONNECTION = 100
LISTENING = re.compile(r"listening on http://[^:\s]+:(\d+)")
SERIES = re.compile(r'^(\w+)\{(.*)\} (\S+)$')
LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')
ENDPOINTS = ("/check", "/synthesize", "/batch", "/stats", "/metrics")


def query_body(query: Dict[str, object]) -> bytes:
    document: Dict[str, object] = {"scenario": query["scenario"]}
    if query["op"] == "temporal":
        document["temporal"] = True
    return json.dumps(document).encode()


class Client:
    """One keep-alive connection; every request is checked against its answer."""

    def __init__(self, port: int, expected: Dict[str, dict], samples: list,
                 tracer: Optional[tracing.Tracer] = None) -> None:
        from repro.api.results import result_from_json

        self._to_result = result_from_json
        self.port = port
        self.expected = expected
        self.samples = samples
        self.tracer = tracer
        self.failures: List[str] = []
        self.attempted = 0
        self.warm_sent = 0
        self.body_bytes: Dict[str, List[int]] = {}
        self._connection = http.client.HTTPConnection(HOST, port, timeout=REQUEST_TIMEOUT)

    def close(self) -> None:
        self._connection.close()

    def _exchange(self, method: str, path: str, body: Optional[bytes],
                  headers: Dict[str, str]):
        self._connection.request(method, path, body=body, headers=headers)
        response = self._connection.getresponse()
        return response.status, response.read()

    def send(self, phase: str, kind: str, queries: List[dict]) -> None:
        """One request, timed and checked; a failure is recorded, not raised."""
        if kind == "query":
            query = queries[0]
            method, label = "POST", query["op"]
            path = "/synthesize" if label == "synthesize" else "/check"
            body: Optional[bytes] = query_body(query)
        elif kind == "batch":
            method, path, label = "POST", "/batch", "batch"
            body = json.dumps({"requests": [
                {"op": q["op"], "scenario": q["scenario"]} for q in queries]}).encode()
        else:
            method, path, label, body = "GET", f"/{kind}", kind, None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.attempted += 1
        root = None
        try:
            if self.tracer is None:
                start = time.perf_counter()
                status, payload = self._exchange(method, path, body, headers)
                latency = time.perf_counter() - start
            else:
                root = f"r{id(self)}-{self.attempted}"
                headers["X-Repro-Trace-Id"] = root
                start = time.perf_counter()
                with self.tracer.span("request", "transport", root=root,
                                      cls=f"{phase} {label}"):
                    status, payload = self._exchange(method, path, body, headers)
                latency = time.perf_counter() - start
                self.tracer.note_wall(root, latency)
        except (OSError, http.client.HTTPException) as exc:
            self.failures.append(f"{phase} {path}: {exc!r}")
            self._connection.close()
            self._connection = http.client.HTTPConnection(
                HOST, self.port, timeout=REQUEST_TIMEOUT)
            return
        problem = self._check(status, payload, kind, queries)
        if problem is not None:
            self.failures.append(f"{phase} {path}: {problem}")
            return
        self.body_bytes.setdefault(label, []).append(len(payload))
        self.samples.append((phase, label, latency, root))

    def _check(self, status: int, payload: bytes, kind: str, queries: List[dict]):
        if status != 200:
            return f"status {status}: {payload[:200]!r}"
        if kind == "metrics":
            return None if b"repro_http_requests_total" in payload else "no request counter"
        try:
            document = json.loads(payload)
        except ValueError:
            return "response is not JSON"
        if not document.get("ok"):
            return f"not ok: {document.get('error')}"
        if kind == "stats":
            return None if "aggregate" in document else "no aggregate view"
        results = document["results"] if kind == "batch" else [document["result"]]
        if len(results) != len(queries):
            return "wrong number of results"
        for query, wire in zip(queries, results):
            verdict = self._to_result(wire).to_dict()
            if verdict != self.expected[query["id"]]["verdict"]:
                return f"wrong answer for {query['id']}: {verdict}"
        return None

    def scrape(self) -> Optional[str]:
        """A ``/metrics`` body outside the measured samples."""
        try:
            status, payload = self._exchange("GET", "/metrics", None, {})
        except (OSError, http.client.HTTPException) as exc:
            self.failures.append(f"scrape: {exc!r}")
            return None
        return payload.decode() if status == 200 else None


def parse_metrics(text: Optional[str]) -> Dict[tuple, float]:
    """``{(name, frozenset(labels)): value}`` from a Prometheus text body."""
    series: Dict[tuple, float] = {}
    for line in (text or "").splitlines():
        match = SERIES.match(line)
        if match:
            labels = frozenset(LABEL.findall(match.group(2)))
            series[(match.group(1), labels)] = float(match.group(3))
    return series


def series_sum(series: Dict[tuple, float], name: str, **want: str) -> float:
    return sum(value for (metric, labels), value in series.items()
               if metric == name and all((k, v) in labels for k, v in want.items()))


def metric_deltas(before: Dict[tuple, float], after: Dict[tuple, float]) -> Dict[str, float]:
    """Per-endpoint mean server latency over the window, and requests per worker."""
    out: Dict[str, float] = {}
    for endpoint in ENDPOINTS:
        count = (series_sum(after, "repro_http_request_seconds_count", endpoint=endpoint)
                 - series_sum(before, "repro_http_request_seconds_count", endpoint=endpoint))
        total = (series_sum(after, "repro_http_request_seconds_sum", endpoint=endpoint)
                 - series_sum(before, "repro_http_request_seconds_sum", endpoint=endpoint))
        out[f"service.server_ms.{endpoint.strip('/')}"] = 1000 * total / count if count else 0.0
    for worker in ("worker-0", "worker-1"):
        out[f"service.requests.{worker}"] = series_sum(
            after, "repro_http_requests_total", worker=worker)
    return out


def drive(port_of, expected: Dict[str, dict], seed: int, cold_round: int,
          deadline: Optional[float], warm_per_connection: Optional[int],
          tracer: Optional[tracing.Tracer] = None, warm: bool = True,
          cold_pids: Optional[List[int]] = None) -> Dict[str, object]:
    """Cold phase, then (with ``warm``) the untimed pass and the warm mix.

    ``port_of(k)`` is the port connection ``k`` talks to.  The warm mix runs
    until ``deadline`` (and at least :data:`MIN_WARM_SAMPLES` requests), or
    for ``warm_per_connection`` requests on each connection.

    With ``cold_pids`` (the server's processes), the cold phase runs with
    them and this thread on one vCPU, and the host's speed is sampled
    there during each cold request (see :func:`cold_phase`).
    """
    samples: list = []
    clients = [Client(port_of(k), expected, samples, tracer) for k in ((0, 1) if warm else (0,))]
    before: Dict[tuple, float] = {}
    after: Dict[tuple, float] = {}
    warm_wall = 0.0
    try:
        cold = cold_phase(clients[0], plan.cold_order(seed, cold_round), cold_pids)
        if warm:
            warm_pass(clients, plan.SERVE_QUERIES)
            before = parse_metrics(clients[0].scrape())
            warm_wall = warm_phase(
                clients,
                [plan.warm_stream(plan.SERVE_QUERIES, f"serve:{seed}", k, mix=True)
                 for k in (0, 1)],
                deadline, warm_per_connection)
            time.sleep(0.05)  # let the last worker publish its snapshot
            after = parse_metrics(clients[0].scrape())
    finally:
        for client in clients:
            client.close()
    return {
        **cold, "samples": samples, "warm_wall": warm_wall,
        "attempted": sum(c.attempted for c in clients),
        "failures": [f for c in clients for f in c.failures],
        "deltas": metric_deltas(before, after),
        "body_bytes": {label: sizes for c in clients for label, sizes in c.body_bytes.items()},
    }


def cold_phase(client: Client, queries: List[dict],
               pids: Optional[List[int]]) -> Dict[str, object]:
    """Every query once on one connection: summed latencies by kind.

    With ``pids`` (the server's processes) the requests run with the server
    on one vCPU (see :func:`one_vcpu`) and a ``speed.Sampler`` pinned there
    samples its speed; each latency, less the sampler's chunks within it,
    is then reported at the reference speed of ``speed.py`` (the ``*_s``
    keys; ``wall`` holds the raw sums).  One request is in flight at a
    time, so pinning moves no work.
    """
    timed: List[tuple] = []
    with contextlib.ExitStack() as stack:
        sampler = None
        if pids:
            sampler = stack.enter_context(speed.Sampler(stack.enter_context(one_vcpu(pids))))
        for query in queries:
            start = time.perf_counter()
            client.send("cold", "query", [query])
            timed.append((query["op"], start, time.perf_counter()))
    scaled = {"check_s": 0.0, "synth_s": 0.0}
    wall = {"check_s": 0.0, "synth_s": 0.0}
    for op, start, end in timed:
        key = "synth_s" if op == "synthesize" else "check_s"
        wall[key] += end - start
        chunks = sampler.during(start, end) if sampler else []
        if not chunks:
            # Shorter than a sampling period: the chunks either side.
            chunks = sampler.during(start - speed.SAMPLER_PERIOD_S,
                                    end + speed.SAMPLER_PERIOD_S) if sampler else []
            scaled[key] += (end - start) * (speed.factor(chunks) if chunks else 1.0)
        else:
            scaled[key] += (end - start - sum(chunks)) * speed.factor(chunks)
    for totals in (scaled, wall):
        totals["cold_s"] = totals["check_s"] + totals["synth_s"]
    return {**scaled, "wall": wall, "speed_chunks": sampler.chunks if sampler else []}


@contextlib.contextmanager
def one_vcpu(pids: List[int]) -> Iterator[int]:
    """Every thread of ``pids``, and the calling thread, on one vCPU meanwhile.

    Yields the vCPU.  Threads the processes start meanwhile inherit the pin,
    so on exit every thread of each process gets back the mask its main
    thread had.
    """
    own = os.sched_getaffinity(0)
    cpu = min(own)
    masks = {}
    for pid in pids:
        try:
            masks[pid] = os.sched_getaffinity(pid)
        except OSError:
            continue
        _set_affinity(pid, {cpu})
    os.sched_setaffinity(0, {cpu})
    try:
        yield cpu
    finally:
        os.sched_setaffinity(0, own)
        for pid, mask in masks.items():
            _set_affinity(pid, mask)


def _set_affinity(pid: int, mask: set) -> None:
    try:
        tids = [int(tid) for tid in os.listdir(f"/proc/{pid}/task")]
    except OSError:
        return
    for tid in tids:
        try:
            os.sched_setaffinity(tid, mask)
        except OSError:
            pass


def warm_pass(clients: List[Client], queries: List[dict]) -> None:
    """Each connection asks every query once, untimed."""
    def one_pass(client: Client) -> None:
        for query in queries:
            client.send("pass", "query", [query])

    _in_threads(clients, one_pass)


def warm_phase(clients: List[Client], streams: List[list], deadline: Optional[float],
               per_connection: Optional[int]) -> float:
    """The timed closed-loop mix, one stream per connection; returns its wall time.

    The mix runs until ``deadline`` and at least :data:`MIN_WARM_SAMPLES`
    requests, or for ``per_connection`` requests on each connection.
    """
    def mix(client: Client, stream: list) -> None:
        while True:
            if per_connection is not None:
                if client.warm_sent >= per_connection:
                    return
            elif (time.perf_counter() >= deadline and
                  sum(c.warm_sent for c in clients) >= MIN_WARM_SAMPLES):
                return
            item = stream[client.warm_sent % len(stream)]
            client.send("warm", item["kind"], item["queries"])
            client.warm_sent += 1

    start = time.perf_counter()
    _in_threads(clients, mix, streams)
    return time.perf_counter() - start


def _in_threads(clients: List[Client], target, streams=None) -> None:
    threads = [
        threading.Thread(target=target, args=(client,) if streams is None
                         else (client, streams[k]), daemon=True)
        for k, client in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        if thread.is_alive():
            raise RuntimeError("a client thread did not finish")


# ------------------------------------------------------------ server process


def _children(pid: int) -> List[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def _peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


class ServerProcess:
    """``repro serve --workers 2`` on a fresh store, from spawn to checked exit."""

    def __init__(self, root: Path, work_dir: Path, env: Dict[str, str]) -> None:
        self.store = tempfile.mkdtemp(prefix="store-", dir=str(work_dir))
        self._port: Optional[int] = None
        self._port_seen = threading.Event()
        self.log_tail: List[str] = []
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "2",
             "--store", self.store, "--port", "0"],
            cwd=str(root), env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        self._drains = [
            threading.Thread(target=self._drain, args=(self.proc.stdout,), daemon=True),
            threading.Thread(target=self._drain, args=(self.proc.stderr,), daemon=True),
        ]
        for thread in self._drains:
            thread.start()
        self.workers: List[int] = []
        self.shutdown_s: Optional[float] = None
        self._waiter: Optional[threading.Thread] = None

    def _drain(self, stream) -> None:
        for line in stream:
            if self._port is None:
                match = LISTENING.search(line)
                if match:
                    self._port = int(match.group(1))
                    self._port_seen.set()
            self.log_tail = (self.log_tail + [line.rstrip()])[-20:]

    def wait_ready(self) -> float:
        """Seconds from spawn until ``/health`` answers ready."""
        if not self._port_seen.wait(READY_TIMEOUT):
            raise RuntimeError(f"no listen line from repro serve: {self.log_tail}")
        deadline = self.started + READY_TIMEOUT
        while time.perf_counter() < deadline:
            connection = http.client.HTTPConnection(HOST, self._port, timeout=5)
            try:
                connection.request("GET", "/health")
                response = connection.getresponse()
                document = json.loads(response.read())
                if response.status == 200 and document.get("ready"):
                    ready = time.perf_counter() - self.started
                    self.workers = _children(self.proc.pid)
                    return ready
            except (OSError, ValueError, http.client.HTTPException):
                pass
            finally:
                connection.close()
            time.sleep(0.005)
        raise RuntimeError(f"repro serve never became ready: {self.log_tail}")

    @property
    def port(self) -> int:
        assert self._port is not None
        return self._port

    def peak_rss_mb(self) -> float:
        return max(_peak_rss_mb(pid) for pid in [self.proc.pid] + self.workers)

    def begin_shutdown(self) -> None:
        """SIGINT; a waiter thread notes when the server has exited."""
        self._signalled = time.perf_counter()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        self._waiter = threading.Thread(target=self._wait_exit, daemon=True)
        self._waiter.start()

    def _wait_exit(self) -> None:
        try:
            self.proc.wait(SHUTDOWN_TIMEOUT)
            self.shutdown_s = time.perf_counter() - self._signalled
        except subprocess.TimeoutExpired:
            pass

    def settle(self, timeout: float) -> None:
        """Give a signalled server a moment to exit before the next round."""
        assert self._waiter is not None
        self._waiter.join(timeout)

    def finish_shutdown(self) -> Optional[str]:
        """Check exit status 0 and that no worker outlived the server."""
        if self._waiter is None:
            self.begin_shutdown()
        self._waiter.join(SHUTDOWN_TIMEOUT + 5)
        problem = None
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
            problem = "repro serve ignored SIGINT"
        elif self.proc.returncode != 0:
            problem = f"repro serve exited with {self.proc.returncode}"
        orphans = [pid for pid in self.workers if _alive(pid)]
        for pid in orphans:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if orphans:
            problem = f"orphaned workers {orphans}"
        for thread in self._drains:
            thread.join(timeout=5)
        shutil.rmtree(self.store, ignore_errors=True)
        return problem


# -------------------------------------------------------------- the workload


def run(root: Path, env: Dict[str, str], work_dir: Path, expected: Dict[str, dict],
        seed: int, seconds: float, trace: bool, trace_out: Path) -> Dict[str, object]:
    """Cold rounds on fresh servers, the warm mix on the last one.

    Untraced, each of :data:`COLD_ROUNDS` servers is spawned on a fresh
    store (``setup_s``) and answers one cold phase; the last one goes on to
    the warm phase.  Servers are signalled as soon as their round is over
    and their exits are checked at the end, so a slow stop does not stretch
    the measurement.  Traced, one round with a counted warm phase is the
    baseline for the in-process traced run.
    """
    failures: List[str] = []
    setup: List[float] = []
    rounds: List[Dict[str, object]] = []
    servers: List[ServerProcess] = []
    peaks: List[float] = []
    total_rounds = 1 if trace else COLD_ROUNDS
    deadline = time.perf_counter() + seconds
    try:
        for index in range(total_rounds):
            server = ServerProcess(root, work_dir, env)
            servers.append(server)
            setup.append(server.wait_ready())
            last = index == total_rounds - 1
            rounds.append(drive(
                lambda k: server.port, expected, seed, index, deadline,
                TRACED_WARM_PER_CONNECTION if trace else None, warm=last,
                cold_pids=None if trace else [server.proc.pid] + server.workers))
            peaks.append(server.peak_rss_mb())
            server.begin_shutdown()
            server.settle(SHUTDOWN_SETTLE)
        if trace:
            # A first, discarded round grows the process's memory, so the
            # untraced baseline and the traced round start from the same state.
            warmup = _in_process(work_dir, expected, seed, None)
            baseline = _in_process(work_dir, expected, seed, None)
            traced = _in_process(work_dir, expected, seed, tracing.Tracer())
    finally:
        for server in servers:
            problem = server.finish_shutdown()
            if problem:
                failures.append(problem)
    attempted = len(servers) + sum(r["attempted"] for r in rounds)
    for result in rounds:
        failures.extend(result["failures"])
    shutdowns = [s.shutdown_s for s in servers if s.shutdown_s is not None]
    last = rounds[-1]
    warm = [s[2] for s in last["samples"] if s[0] == "warm"]
    # Cold times at the reference speed (see cold_phase); set-up at the
    # mean speed of the whole run.
    chunks = [chunk for r in rounds for chunk in r["speed_chunks"]]
    scale = speed.factor(chunks) if chunks else 1.0
    metrics: Dict[str, float] = {
        "setup_s": scale * statistics.median(setup),
        "cold_s": statistics.median(r["cold_s"] for r in rounds),
        "check_s": statistics.median(r["check_s"] for r in rounds),
        "synth_s": statistics.median(r["synth_s"] for r in rounds),
        "peak_rss_mb": statistics.median(peaks),
    }
    summary = {"cold_rounds": len(rounds),
               "setup_samples": len(setup),
               "shutdown_s": [round(value, 3) for value in shutdowns],
               "speed_chunks": len(chunks), "speed_factor": round(scale, 4),
               "wall": {"setup_s": round(statistics.median(setup), 4),
                        **{name: round(statistics.median(r["wall"][name] for r in rounds), 4)
                           for name in ("check_s", "synth_s", "cold_s")}}}
    if trace:
        for part in (warmup, baseline, traced):
            attempted += part["attempted"]
            failures.extend(part["failures"])
        metrics = traced_metrics(traced)
        metrics.update(last["deltas"])
        metrics["service.shutdown_s"] = statistics.median(shutdowns) if shutdowns else 0.0
        metrics["trace.overhead"] = traced["total_latency"] / baseline["total_latency"]
        summary["report"] = traced["report"]
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        with open(trace_out, "w") as handle:
            json.dump({"report": traced["report"], **traced["tracer"].dump()}, handle)
    return {"metrics": metrics, "attempted": attempted, "failures": failures,
            "summary": summary, "warm": warm, "warm_wall": last["warm_wall"]}


def _in_process(work_dir: Path, expected: Dict[str, dict], seed: int,
                tracer: Optional[tracing.Tracer]) -> Dict[str, object]:
    """One round against two in-process workers sharing a store, as the front does."""
    from repro.api import Session
    from repro.api.artefact_store import ArtefactStore
    from repro.api.service import make_server

    store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=str(work_dir)))
    stats_dir = store_dir / "stats"
    stats_dir.mkdir()
    patches = tracing.install(tracer) if tracer is not None else None
    stores = [ArtefactStore(str(store_dir)) for _ in (0, 1)]
    sessions = [Session(store=store) for store in stores]
    servers = [make_server(HOST, 0, session=session, worker_label=f"worker-{k}",
                           stats_dir=str(stats_dir))
               for k, session in enumerate(sessions)]
    threads = [threading.Thread(target=s.serve_forever, kwargs={"poll_interval": 0.1},
                                daemon=True) for s in servers]
    for thread in threads:
        thread.start()
    try:
        result = drive(lambda k: servers[k].server_address[1], expected, seed, 0, None,
                       TRACED_WARM_PER_CONNECTION, tracer)
    finally:
        for server, thread in zip(servers, threads):
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        if patches is not None:
            patches.undo()
        shutil.rmtree(store_dir, ignore_errors=True)
    result.update(tracer=tracer, sessions=sessions, stores=stores,
                  total_latency=sum(s[2] for s in result["samples"]))
    if tracer is not None:
        result["report"] = tracer.report()
    return result


def traced_metrics(result: Dict[str, object]) -> Dict[str, float]:
    """Per-layer numbers of the traced in-process round."""
    tracer: tracing.Tracer = result["tracer"]
    metrics = tracing.layer_metrics(tracer, result["report"])
    sessions, stores = result["sessions"], result["stores"]
    for kind in ("model", "space", "checker", "spec", "synthesis", "result"):
        metrics[f"session.build_s.{kind}"] = sum(s.build_seconds((kind,)) for s in sessions)
    stats = [s.stats() for s in sessions]
    metrics["session.lookups.hit"] = sum(s.hits for s in stats)
    metrics["session.lookups.miss"] = sum(s.misses for s in stats)
    metrics["session.lookups.coalesced"] = sum(s.coalesced for s in stats)
    store_stats = [store.stats() for store in stores]
    metrics["session.lookups.store"] = sum(s.get("hits", 0) for s in store_stats)
    for event in ("writes", "hits", "misses"):
        metrics[f"store.events.{event}"] = sum(s.get(event, 0) for s in store_stats)
    for op in ("check", "temporal", "synthesize"):
        durations = tracer.durations(f"session.{op}")
        metrics[f"session.query_ms.{op}"] = (
            1000 * statistics.median(durations) if durations else 0.0)
    http_spans = {record[tracing.ROOT]: record[tracing.END] - record[tracing.START]
                  for record in tracer.spans if record[tracing.NAME] == "http"}
    transport = [latency - http_spans[root] for phase, _, latency, root in result["samples"]
                 if phase == "warm" and root in http_spans]
    metrics["service.transport_ms"] = 1000 * statistics.median(transport) if transport else 0.0
    sizes = result["body_bytes"]
    answers = [n for label in ("check", "temporal", "synthesize", "batch")
               for n in sizes.get(label, [])]
    metrics["results.response_bytes"] = statistics.fmean(answers) if answers else 0.0
    metrics["obs.metrics_bytes"] = (
        statistics.fmean(sizes["metrics"]) if sizes.get("metrics") else 0.0)
    return metrics
