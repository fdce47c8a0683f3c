"""End-to-end tests of the pre-fork front: ``repro serve --workers N``.

The front runs as a real subprocess (the exact shape the CI service-smoke
job drives): the parent binds the socket and forks the workers, which share
one ``--store`` directory.  One test walks the whole lifecycle — serve
from both workers, aggregate their ``/stats``, survive a SIGKILLed worker
through supervised restart, and shut down cleanly on SIGINT — because the
subprocess start-up (fork + cold builds) is the expensive part and every
stage builds on the previous one's state.  The rest pin one property of
the front each, on one worker (the default) or several.
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
import urllib.error
import urllib.request

import pytest

import repro
from repro.api.artefact_store import ArtefactStore
from repro.api.scenario import Scenario
from repro.api.service import make_server
from repro.api.session import Session

#: src/ directory for subprocess PYTHONPATH (tests may run from anywhere).
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SCENARIOS = [
    {"exchange": "floodset", "num_agents": agents, "max_faulty": 1}
    for agents in (2, 3, 4)
]

_BANNER = re.compile(r"http://[\d.]+:(\d+)")

#: ``python -c`` bootstrap that makes every cold result build take one
#: second longer, then runs the ``repro`` command line given after it.
_SLOW_RESULT_BUILDS = """
import sys, time
from repro.api.session import Session
from repro.cli import main

invoke_build = Session._invoke_build

def _invoke_build(self, key, build):
    if key[0] == "result":
        time.sleep(1.0)
    return invoke_build(self, key, build)

Session._invoke_build = _invoke_build
sys.exit(main(sys.argv[1:]))
"""


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


def _start_front(*args, env=None, bootstrap=None):
    """A ``repro serve --port 0 --quiet`` subprocess and its base URL;
    ``bootstrap`` runs the command line through that ``python -c`` program."""
    launcher = ([sys.executable, "-c", bootstrap] if bootstrap
                else [sys.executable, "-m", "repro"])
    process = subprocess.Popen(
        launcher + ["serve", "--port", "0", "--quiet", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env or _env(),
    )
    banner = process.stdout.readline()
    match = _BANNER.search(banner)
    if not match:
        _stop(process)
        raise AssertionError(f"no serve banner (got {banner!r})")
    return process, f"http://127.0.0.1:{match.group(1)}"


def _stop(process):
    """SIGINT the front and wait for it to exit (killing it after 30 s)."""
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
    try:
        process.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate(timeout=30)


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
    # Two labelled servers adopt one listening socket, as the forked workers
    # do: while one holds a keep-alive connection it waits a tick before
    # accept(), so the next connection goes to the idle one and two
    # keep-alive clients land on different workers.
    listening = socket.create_server(("127.0.0.1", 0))
    servers = [make_server(listening_socket=listening.dup(),
                           worker_label=f"worker-{k}")
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


@pytest.mark.parametrize("workers", [1, 2])
def test_prefork_preload_gates_health_until_ready(tmp_path, workers):
    env = _env()
    env["REPRO_SERVE_PRELOAD_DELAY"] = "2.0"  # hold the gate open for polling
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", str(workers), "--preload", "table1:max-n=3",
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

        # --- ... and queries wait for the workers: a 503 from the gate ----
        with pytest.raises(urllib.error.HTTPError) as refused:
            _post(url + "/check", {"scenario": SCENARIOS[0]})
        assert refused.value.code == 503

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
        if workers > 1:
            _, stats = _get(url + "/stats")
            assert stats["aggregate"]["preloaded"] >= 2
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate(timeout=30)


def test_idle_keep_alive_clients_never_keep_the_next_one_out():
    process, url = _start_front("--workers", "2")
    port = int(url.rsplit(":", 1)[1])
    connections = []
    try:
        # Each connection stays open and idle while the next one is made.
        for _ in range(5):
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            connections.append(connection)
            connection.request("GET", "/health")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["ready"] is True
    finally:
        for connection in connections:
            connection.close()
        _stop(process)


def test_a_front_lists_only_its_own_workers(tmp_path):
    store = str(tmp_path / "store")
    for workers in (3, 2):
        process, url = _start_front("--workers", str(workers), "--store", store)
        try:
            # Every worker publishes its record once it is up.
            expected = {f"worker-{index}" for index in range(workers)}
            deadline = time.time() + 30
            while time.time() < deadline:
                _, stats = _get(url + "/stats")
                if expected <= set(stats["workers"]):
                    break
                time.sleep(0.1)
        finally:
            _stop(process)
    # The second front on the same store sees none of the first's records.
    assert set(stats["workers"]) == {"worker-0", "worker-1"}
    assert stats["aggregate"]["workers"] == 2


def test_sigint_drains_the_request_in_flight_on_the_default_front():
    process, url = _start_front(bootstrap=_SLOW_RESULT_BUILDS)
    answers, errors = [], []

    def client():
        try:
            answers.append(_post(url + "/check", {"scenario": SCENARIOS[0]}))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    request = threading.Thread(target=client)
    request.start()
    time.sleep(0.3)  # the one worker is inside the cold build
    _stop(process)
    request.join(timeout=30)
    assert not errors, errors
    assert answers and answers[0][0] == 200 and answers[0][1]["ok"] is True
    assert process.returncode == 0


def test_a_front_removes_its_records_directory_on_exit(tmp_path):
    env = _env()
    env["TMPDIR"] = str(tmp_path)
    process, url = _start_front("--workers", "2", env=env)
    try:
        assert _get(url + "/health")[0] == 200
        assert list(tmp_path.glob("repro-serve-stats-*"))
    finally:
        _stop(process)
    assert process.returncode == 0
    assert not list(tmp_path.glob("repro-serve-stats-*"))


@pytest.mark.parametrize("workers", [1, 2])
def test_a_store_that_cannot_be_opened_stops_the_front(tmp_path, workers):
    # Opened once by the parent: the front exits instead of restarting
    # workers that could never open it.
    (tmp_path / "a-file").write_text("")
    result = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--quiet",
         "--workers", str(workers), "--store",
         str(tmp_path / "a-file" / "store")],
        capture_output=True, text=True, env=_env(), timeout=10,
    )
    assert result.returncode != 0


def test_serve_rejects_a_store_bound_below_one_before_it_binds(tmp_path):
    # The workers open the bounded store; the bound is still checked in
    # the parent, so a library caller gets the error instead of a front
    # whose workers keep failing to start.
    program = ("from repro.api.service import serve; "
               f"serve(port=0, store_dir={str(tmp_path)!r}, store_max_entries=0)")
    result = subprocess.run([sys.executable, "-c", program], capture_output=True,
                            text=True, env=_env(), timeout=10)
    assert result.returncode != 0
    assert "ValueError" in result.stderr
    assert "listening" not in result.stdout


def test_sigterm_during_the_preload_shuts_the_front_down_cleanly():
    env = _env()
    env["REPRO_SERVE_PRELOAD_DELAY"] = "3.0"  # signal inside the preload
    process, _ = _start_front("--preload", "table1:max-n=3", env=env)
    try:
        time.sleep(0.5)
        signalled = time.monotonic()
        process.send_signal(signal.SIGTERM)
        stdout, _ = process.communicate(timeout=30)
        assert time.monotonic() - signalled < 5.0
    finally:
        _stop(process)
    assert process.returncode == 0
    assert "repro serve: shut down" in stdout


def test_each_worker_counts_only_its_own_startup_compaction(tmp_path):
    store = tmp_path / "store"
    session = Session(store=ArtefactStore(store))
    for agents in (2, 3):
        for op in ("check", "synthesize"):
            session.query(op, Scenario(exchange="floodset",
                                       num_agents=agents, max_faulty=1))
    assert len(list((store / "results").iterdir())) == 4

    process, url = _start_front("--workers", "2", "--store", str(store),
                                "--store-max-entries", "1")
    try:
        deadline = time.time() + 30
        while time.time() < deadline:
            _, stats = _get(url + "/stats")
            if set(stats["workers"]) == {"worker-0", "worker-1"}:
                break
            time.sleep(0.1)
    finally:
        _stop(process)
    views = [record["cache"]["store"] for record in stats["workers"].values()]
    assert len(views) == 2
    assert sum(view["compacted"] for view in views) == 3
    assert [view["compactions"] for view in views] == [1, 1]
    assert stats["aggregate"]["store"]["compacted"] == 3
    assert len(list((store / "results").iterdir())) == 1
