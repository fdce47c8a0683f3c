"""End-to-end test of the pre-fork front: ``repro serve --workers N``.

The front runs as a real subprocess (the exact shape the CI service-smoke
job drives): the parent binds the socket and forks two workers that share
one ``--store`` directory.  One test walks the whole lifecycle — serve
from both workers, aggregate their ``/stats``, survive a SIGKILLed worker
through supervised restart, and shut down cleanly on SIGINT — because the
subprocess start-up (fork + cold builds) is the expensive part and every
stage builds on the previous one's state.
"""

import http.client
import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request

import repro
from repro.api.service import make_server

#: src/ directory for subprocess PYTHONPATH (tests may run from anywhere).
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SCENARIOS = [
    {"exchange": "floodset", "num_agents": agents, "max_faulty": 1}
    for agents in (2, 3, 4)
]

_BANNER = re.compile(r"http://[\d.]+:(\d+)")


def _env():
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + existing if existing else "")
    env["REPRO_SERVE_RESTART_BACKOFF"] = "0.1"  # fast restarts for the test
    return env


def _post(url, payload, timeout=120):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _get(url, timeout=30):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _barrage(url, rounds=2):
    """Concurrent requests on fresh connections, so both workers accept."""
    responses = []
    errors = []

    def worker(scenario):
        try:
            responses.append(_post(url + "/check", {"scenario": scenario}))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    for _ in range(rounds):
        threads = [threading.Thread(target=worker, args=(scenario,))
                   for scenario in SCENARIOS for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    assert not errors, errors
    return responses


def test_prefork_lifecycle(tmp_path):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--store", str(tmp_path / "store"), "--quiet"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_env(),
    )
    try:
        banner = process.stdout.readline()
        match = _BANNER.search(banner)
        assert match, f"no serve banner (got {banner!r})"
        assert "2 workers" in banner
        url = f"http://127.0.0.1:{match.group(1)}"

        # --- both workers serve, and every answer is labelled -------------
        responses = _barrage(url)
        assert all(status == 200 for status, _ in responses)
        labels = {body["worker"] for _, body in responses}
        assert labels <= {"worker-0", "worker-1"}

        # --- /stats aggregates both workers' counters ---------------------
        _, stats = _get(url + "/stats")
        workers = stats["workers"]
        assert set(workers) == {"worker-0", "worker-1"}
        pids = {label: record["pid"] for label, record in workers.items()}
        assert pids["worker-0"] != pids["worker-1"]
        aggregate = stats["aggregate"]
        assert aggregate["workers"] == 2
        per_worker = [record["cache"] for record in workers.values()]
        assert aggregate["hits"] == sum(view["hits"] for view in per_worker)
        assert aggregate["misses"] == sum(view["misses"] for view in per_worker)

        # --- /metrics aggregates every worker's series --------------------
        # Any worker answers for the whole front: each publishes its
        # registry snapshot next to its stats record before a response
        # goes out, and the scraped worker renders all of them under
        # per-worker labels.
        check_series = re.compile(
            r'repro_http_requests_total\{endpoint="/check",method="POST",'
            r'status="200",worker="(worker-\d+)"\} (\d+)')
        sent = len(responses)
        with urllib.request.urlopen(url + "/metrics", timeout=30) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode()
        counted = {worker: int(count)
                   for worker, count in check_series.findall(text)}
        # Both forked workers publish: their labels appear even if the
        # barrage landed unevenly across the shared accept socket.
        worker_labels = set(re.findall(r'worker="(worker-\d+)"', text))
        assert worker_labels == {"worker-0", "worker-1"}, text[:2000]
        # Aggregate across the worker label == requests this test sent.
        assert sum(counted.values()) == sent, counted

        # --- a killed worker is restarted under a new pid -----------------
        os.kill(pids["worker-0"], signal.SIGKILL)
        deadline = time.time() + 60
        new_pid = None
        while time.time() < deadline:
            _, stats = _get(url + "/stats")
            record = stats["workers"].get("worker-0")
            if record and record["pid"] != pids["worker-0"]:
                new_pid = record["pid"]
                break
            time.sleep(0.2)
        assert new_pid is not None, "worker-0 was not restarted"

        # --- the restarted front still answers ----------------------------
        status, body = _post(url + "/check", {"scenario": SCENARIOS[0]})
        assert status == 200 and body["ok"] is True

        # --- SIGINT drains and exits cleanly, and promptly ----------------
        # Each fresh connection wakes both workers and only one accepts it;
        # a worker left parked in accept() would ignore the shutdown until
        # the supervisor's SIGKILL, SHUTDOWN_GRACE_SECONDS (10 s) later.
        for _ in range(50):
            assert _get(url + "/health")[0] == 200
        signalled = time.monotonic()
        process.send_signal(signal.SIGINT)
        stdout, stderr = process.communicate(timeout=60)
        assert process.returncode == 0
        assert time.monotonic() - signalled < 5.0
        assert "shut down" in stdout
        assert "worker-0" in stderr and "restarting" in stderr
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate(timeout=30)


def test_worker_that_loses_the_accept_race_returns_to_its_loop():
    # Two servers adopt one listening socket, as the forked workers do.
    # After one accepts the only pending connection, the other's accept
    # must come back empty instead of blocking where shutdown cannot reach.
    listening = socket.create_server(("127.0.0.1", 0))
    servers = [make_server(listening_socket=listening.dup()) for _ in range(2)]
    client = socket.create_connection(listening.getsockname()[:2])
    outcome = []

    def accept_on_the_loser():
        try:
            servers[1].get_request()
            outcome.append("accepted")
        except OSError:
            outcome.append("no request")

    loser = threading.Thread(target=accept_on_the_loser, daemon=True)
    try:
        assert select.select([listening], [], [], 5)[0], "no pending connection"
        request, _ = servers[0].get_request()
        request.close()
        loser.start()
        loser.join(timeout=5)
        assert outcome == ["no request"]
    finally:
        if loser.is_alive():  # parked in accept(): hand it a connection
            socket.create_connection(listening.getsockname()[:2]).close()
            loser.join(timeout=5)
        client.close()
        for server in servers:
            server.server_close()
        listening.close()


def test_an_idle_worker_takes_the_next_connection():
    # Two servers adopt one listening socket with the pre-fork accept
    # backpressure: while one holds a keep-alive connection, the next goes
    # to the idle one, so two keep-alive clients land on different workers.
    listening = socket.create_server(("127.0.0.1", 0))
    servers = [make_server(listening_socket=listening.dup(),
                           worker_label=f"worker-{k}", max_inflight=2)
               for k in (0, 1)]
    threads = [threading.Thread(target=server.serve_forever,
                                kwargs={"poll_interval": 0.05}, daemon=True)
               for server in servers]
    for thread in threads:
        thread.start()
    port = listening.getsockname()[1]
    try:
        for _ in range(10):  # which worker wakes first varies per round
            connections = [http.client.HTTPConnection("127.0.0.1", port, timeout=30)
                           for _ in range(2)]
            labels = []
            for connection in connections:
                connection.request("GET", "/health")
                labels.append(json.loads(connection.getresponse().read())["worker"])
            for connection in connections:
                connection.close()
            assert labels[0] != labels[1]
            deadline = time.time() + 5  # both idle again before the next
            while (any(server.active_connections for server in servers)
                   and time.time() < deadline):
                time.sleep(0.01)
    finally:
        for server, thread in zip(servers, threads):
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        listening.close()


def test_prefork_preload_gates_health_until_ready(tmp_path):
    env = _env()
    env["REPRO_SERVE_PRELOAD_DELAY"] = "2.0"  # hold the gate open for polling
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--preload", "table1:max-n=3",
         "--store", str(tmp_path / "store"), "--quiet"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        banner = process.stdout.readline()
        match = _BANNER.search(banner)
        assert match, f"no preload banner (got {banner!r})"
        assert "preloading" in banner
        url = f"http://127.0.0.1:{match.group(1)}"

        # --- while preloading, /health answers but reports not ready ------
        status, body = _get(url + "/health")
        assert status == 200
        assert body["ok"] is True
        assert body["ready"] is False
        assert body["status"] == "preloading"

        # --- readiness flips once the preload completes -------------------
        deadline = time.time() + 120
        body = None
        while time.time() < deadline:
            try:
                _, body = _get(url + "/health", timeout=10)
            except Exception:
                body = None
            if body and body.get("ready"):
                break
            time.sleep(0.2)
        assert body and body["ready"] is True, body
        assert body["status"] == "serving"

        # --- the first query is warm: served from preloaded artefacts -----
        status, answer = _post(
            url + "/check",
            {"scenario": {"exchange": "floodset", "num_agents": 3,
                          "max_faulty": 1}})
        assert status == 200 and answer["ok"] is True
        assert answer["cache"]["preloaded"] >= 2
        _, stats = _get(url + "/stats")
        assert stats["aggregate"]["preloaded"] >= 2
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate(timeout=30)
