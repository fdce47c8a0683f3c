"""End-to-end tests of the ``repro serve`` JSON-over-HTTP service.

The server runs in-process on an ephemeral port; requests go through
``urllib`` exactly as the CI service-smoke job issues them.
"""

import contextlib
import json
import socket
import struct
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import SCHEMA_VERSION, result_from_json
from repro.api.service import MAX_BODY_BYTES, make_server

SCENARIO = {"exchange": "floodset", "num_agents": 3, "max_faulty": 1}


@pytest.fixture(scope="module")
def server_url():
    server = make_server(port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@contextlib.contextmanager
def _in_process_workers(stats_dir, slow_publish=0.0):
    """Two serving workers in this process sharing one stats directory;
    worker-0 sleeps ``slow_publish`` seconds before each publish."""
    import time

    servers = [make_server(port=0, worker_label=f"worker-{k}",
                           stats_dir=str(stats_dir)) for k in (0, 1)]
    publish = servers[0].publish_stats

    def delayed_publish():
        time.sleep(slow_publish)
        publish()

    servers[0].publish_stats = delayed_publish
    threads = [threading.Thread(target=server.serve_forever, daemon=True)
               for server in servers]
    for thread in threads:
        thread.start()
    try:
        yield [f"http://127.0.0.1:{server.server_address[1]}"
               for server in servers]
    finally:
        for server, thread in zip(servers, threads):
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read())


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestEndpoints:
    def test_health_reports_serving(self, server_url):
        status, body = _get(server_url + "/health")
        assert status == 200
        assert body["ok"] is True
        assert body["status"] == "serving"
        assert "cache" in body

    def test_check_returns_a_versioned_result(self, server_url):
        status, body = _post(server_url + "/check", {"scenario": SCENARIO})
        assert status == 200 and body["ok"] is True
        result = body["result"]
        assert result["schema_version"] == SCHEMA_VERSION
        assert result["type"] == "check"
        typed = result_from_json(result)
        assert typed.task == "sba-model-check"
        assert typed.spec_ok
        assert typed.sound is True and typed.implementation_ok is not None

    def test_temporal_check_flag(self, server_url):
        status, body = _post(server_url + "/check",
                             {"scenario": SCENARIO, "temporal": True})
        assert status == 200
        assert body["result"]["task"] == "sba-temporal-only"

    def test_synthesize_returns_a_versioned_result(self, server_url):
        status, body = _post(server_url + "/synthesize", {"scenario": SCENARIO})
        assert status == 200
        typed = result_from_json(body["result"])
        assert typed.task == "sba-synthesis"
        assert typed.earliest_condition_time == 2

    def test_batch_mixes_ops_and_preserves_order(self, server_url):
        status, body = _post(server_url + "/batch", {"requests": [
            {"op": "check", "scenario": SCENARIO},
            {"op": "synthesize",
             "scenario": {"exchange": "emin", "num_agents": 2, "max_faulty": 1}},
            {"op": "temporal", "scenario": SCENARIO},
        ]})
        assert status == 200
        tasks = [result_from_json(result).task for result in body["results"]]
        assert tasks == ["sba-model-check", "eba-synthesis", "sba-temporal-only"]

    def test_repeated_queries_hit_the_session_cache(self, server_url):
        _, first = _post(server_url + "/check", {"scenario": SCENARIO})
        _, second = _post(server_url + "/check", {"scenario": SCENARIO})
        # The repeat builds nothing: no new misses, one more result-cache hit.
        assert second["cache"]["misses"] == first["cache"]["misses"]
        assert second["cache"]["hits"] > first["cache"]["hits"]

    def test_stats_endpoint(self, server_url):
        status, body = _get(server_url + "/stats")
        assert status == 200
        assert set(body["cache"]) >= {"hits", "misses", "entries", "max_entries"}


class TestObservability:
    def test_health_reports_uptime_and_versions(self, server_url):
        from repro.version import __version__

        status, body = _get(server_url + "/health")
        assert status == 200
        assert body["version"] == __version__
        assert body["schema_version"] == SCHEMA_VERSION
        assert body["started_at"] > 0
        assert body["uptime_seconds"] >= 0

    def test_metrics_exposition_covers_http_and_session(self, server_url):
        # Drive one request of each kind so every series has a sample.
        _post(server_url + "/check", {"scenario": SCENARIO})
        _get(server_url + "/stats")
        # A request is counted before its response goes out, so the first
        # scrape already sees the /check above.
        wanted = 'repro_http_requests_total{endpoint="/check",method="POST",status="200"}'
        with urllib.request.urlopen(server_url + "/metrics", timeout=30) as response:
            assert response.status == 200
            content_type = response.headers["Content-Type"]
            assert wanted in response.read().decode()
        # A scrape only counts itself on the *next* scrape (the counter is
        # bumped after the exposition is rendered); fetch once more so the
        # /metrics endpoint's own series is visible too.
        with urllib.request.urlopen(server_url + "/metrics", timeout=30) as response:
            text = response.read().decode()
        assert content_type.startswith("text/plain")
        assert "# TYPE repro_http_requests_total counter" in text
        assert 'repro_http_requests_total{endpoint="/check",method="POST",status="200"}' in text
        assert 'repro_http_requests_total{endpoint="/metrics",method="GET",status="200"}' in text
        assert "# TYPE repro_http_request_seconds histogram" in text
        assert 'repro_http_request_seconds_bucket' in text
        # Session cache tiers: the repeat /check above hits, the first missed.
        assert 'repro_session_lookups_total{kind="result",outcome="hit"}' in text
        assert 'repro_session_lookups_total{kind="result",outcome="miss"}' in text
        assert "repro_session_build_seconds_count" in text
        assert "repro_process_start_time_seconds" in text
        assert "repro_session_cache_entries" in text

    def test_unknown_paths_fold_into_one_endpoint_label(self, server_url):
        _post(server_url + "/minimise", {"scenario": SCENARIO})
        with urllib.request.urlopen(server_url + "/metrics", timeout=30) as response:
            text = response.read().decode()
        assert 'endpoint="other"' in text
        assert "/minimise" not in text

    def test_trace_id_is_echoed_when_sent(self, server_url):
        request = urllib.request.Request(
            server_url + "/check",
            data=json.dumps({"scenario": SCENARIO}).encode(),
            headers={"Content-Type": "application/json",
                     "X-Repro-Trace-Id": "trace-me-42"},
        )
        with urllib.request.urlopen(request, timeout=120) as response:
            assert response.headers["X-Repro-Trace-Id"] == "trace-me-42"

    def test_trace_id_is_generated_when_absent_or_malformed(self, server_url):
        request = urllib.request.Request(
            server_url + "/health",
            headers={"X-Repro-Trace-Id": "not valid !!"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            echoed = response.headers["X-Repro-Trace-Id"]
        assert echoed and echoed != "not valid !!"

    def test_in_process_workers_publish_only_their_own_requests(self, tmp_path):
        # Two workers in one process share a stats directory; each counts
        # in its own registry, so a worker's published request total is
        # its own traffic, not the whole process's.
        def published_requests(label):
            record = json.loads((tmp_path / f"{label}.json").read_text())
            return sum(series["value"] for series in
                       record["metrics"]["repro_http_requests_total"]["series"])

        with _in_process_workers(tmp_path) as urls:
            for _ in range(5):
                assert _get(urls[0] + "/health")[0] == 200
            assert published_requests("worker-0") == 5
            assert _get(urls[1] + "/health")[0] == 200
            assert published_requests("worker-1") == 1

    def test_a_response_is_published_before_it_is_sent(self, tmp_path):
        # A client holding worker-0's response must find that request in
        # worker-1's /stats and /metrics at once.  Slowing worker-0's
        # publishing down makes the order observable: published after the
        # response, its record would still be missing when worker-1 reads.
        with _in_process_workers(tmp_path, slow_publish=0.5) as urls:
            status, answer = _post(urls[0] + "/check", {"scenario": SCENARIO})
            assert status == 200 and answer["cache"]["misses"] > 0
            _, stats = _get(urls[1] + "/stats")
            assert stats["workers"]["worker-0"]["cache"] == answer["cache"]
            with urllib.request.urlopen(urls[1] + "/metrics", timeout=30) as response:
                text = response.read().decode()
            assert ('repro_http_requests_total{endpoint="/check",method="POST",'
                    'status="200",worker="worker-0"} 1') in text

    def test_concurrent_publishes_never_tear_the_worker_record(self, tmp_path):
        # Handler threads responding together publish together; a reader
        # (a sibling answering /stats or /metrics) must always find a whole
        # record, or that worker drops out of the aggregate views.
        import time

        server = make_server(port=0, worker_label="worker-0",
                             stats_dir=str(tmp_path))
        stop = threading.Event()

        def publisher():
            while not stop.is_set():
                server.publish_stats()

        # The first record must exist before reads count: a read that finds
        # no file yet is not a torn record.
        server.publish_stats()
        publishers = [threading.Thread(target=publisher) for _ in range(3)]
        for thread in publishers:
            thread.start()
        unreadable = 0
        try:
            deadline = time.time() + 1.0
            while time.time() < deadline:
                try:
                    json.loads((tmp_path / "worker-0.json").read_text())
                except (OSError, ValueError):
                    unreadable += 1
        finally:
            stop.set()
            for thread in publishers:
                thread.join(timeout=10)
            server.server_close()
        assert not any(thread.is_alive() for thread in publishers)
        assert unreadable == 0


class TestErrors:
    @pytest.mark.parametrize("engine", ["cudd", "symbolic", "set"])
    def test_invalid_scenario_is_a_400(self, server_url, engine):
        status, body = _post(server_url + "/check",
                             {"scenario": dict(SCENARIO, engine=engine)})
        assert status == 400
        assert body["ok"] is False
        assert f"'{engine}' is not a satisfaction engine" in body["error"]

    def test_unknown_scenario_field_is_a_400(self, server_url):
        status, body = _post(server_url + "/check",
                             {"scenario": dict(SCENARIO, bogus=1)})
        assert status == 400
        assert "unknown scenario fields" in body["error"]

    def test_missing_scenario_is_a_400(self, server_url):
        status, body = _post(server_url + "/check", {"nope": 1})
        assert status == 400

    def test_non_json_body_is_a_400(self, server_url):
        request = urllib.request.Request(
            server_url + "/check", data=b"not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_malformed_content_length_is_a_400(self, server_url):
        request = urllib.request.Request(
            server_url + "/check", data=b'{"scenario": {}}',
            headers={"Content-Type": "application/json"})
        request.add_unredirected_header("Content-Length", "abc")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_unknown_endpoint_is_a_404(self, server_url):
        status, body = _post(server_url + "/minimise", {"scenario": SCENARIO})
        assert status == 404

    def test_temporal_on_eba_is_a_400(self, server_url):
        status, body = _post(server_url + "/check", {
            "scenario": {"exchange": "emin", "num_agents": 2, "max_faulty": 1},
            "temporal": True,
        })
        assert status == 400
        assert "SBA exchanges only" in body["error"]

    def test_bad_batch_op_is_a_400(self, server_url):
        status, body = _post(server_url + "/batch", {"requests": [
            {"op": "explode", "scenario": SCENARIO}]})
        assert status == 400
        assert "unknown op" in body["error"]


class _RawConnection:
    """A hand-rolled HTTP/1.1 client for framing-level assertions.

    ``urllib`` cannot express the malformed requests these tests need
    (negative ``Content-Length``, pipelining, a declared body that never
    arrives), so this speaks bytes on the socket and parses one response
    at a time out of a reusable buffer.
    """

    def __init__(self, server_url, timeout=120):
        host, _, port = server_url[len("http://"):].partition(":")
        self.sock = socket.create_connection((host, int(port)), timeout=timeout)
        self.buffer = b""

    def request(self, path, body=b"", content_length=None, method="POST"):
        length = len(body) if content_length is None else content_length
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: repro\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {length}\r\n\r\n")
        self.sock.sendall(head.encode() + body)

    def read_response(self):
        while b"\r\n\r\n" not in self.buffer:
            chunk = self.sock.recv(65536)
            assert chunk, f"connection closed mid-headers: {self.buffer!r}"
            self.buffer += chunk
        head, _, self.buffer = self.buffer.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        while len(self.buffer) < length:
            chunk = self.sock.recv(65536)
            assert chunk, "connection closed mid-body"
            self.buffer += chunk
        body, self.buffer = self.buffer[:length], self.buffer[length:]
        return status, headers, json.loads(body) if body else None

    def assert_closed(self):
        """The server must hang up: the next read sees EOF (or a reset)."""
        assert not self.buffer, f"unexpected pipelined bytes: {self.buffer!r}"
        self.sock.settimeout(10)
        try:
            leftover = self.sock.recv(1)
        except ConnectionError:
            return
        assert leftover == b"", f"server kept talking: {leftover!r}"

    def reset(self):
        """Close with an immediate RST instead of an orderly FIN."""
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                             struct.pack("ii", 1, 0))
        self.sock.close()

    def close(self):
        self.sock.close()


class TestConnectionFraming:
    """Keep-alive framing discipline, asserted at the raw-socket level.

    Each test here is a regression guard: a negative ``Content-Length``
    used to turn into ``rfile.read(-N)`` (read-to-EOF, hanging the
    connection); error responses used to leave the unread body on the
    socket where the next request parse would choke on it; and a client
    vanishing mid-response used to provoke a traceback plus a second
    response written to the dead socket.
    """

    def test_pipelined_requests_share_one_connection(self, server_url):
        conn = _RawConnection(server_url)
        try:
            body = json.dumps({"scenario": SCENARIO}).encode()
            conn.request("/check", body)
            conn.request("/check", body)  # pipelined: sent before reading
            first = conn.read_response()
            second = conn.read_response()
            assert first[0] == 200 and second[0] == 200
            assert first[1].get("connection") != "close"
            assert first[2]["ok"] is True and second[2]["ok"] is True
        finally:
            conn.close()

    def test_negative_content_length_is_a_400_not_a_hang(self, server_url):
        conn = _RawConnection(server_url, timeout=30)
        try:
            conn.request("/check", content_length=-5)
            status, headers, body = conn.read_response()
            assert status == 400
            assert body["ok"] is False
            assert "Content-Length" in body["error"]
            # Nothing about the socket is trustworthy after a malformed
            # length: the server must hang up rather than try to parse
            # whatever follows as a request line.
            assert headers.get("connection") == "close"
            conn.assert_closed()
        finally:
            conn.close()

    def test_oversized_request_closes_then_a_fresh_connection_works(self, server_url):
        conn = _RawConnection(server_url, timeout=30)
        try:
            # Declare a huge body but never send it: the server must answer
            # without reading it, and must not reuse the connection (the
            # unsent body would arrive where the next request belongs).
            conn.request("/check", content_length=MAX_BODY_BYTES + 1)
            status, headers, body = conn.read_response()
            assert status == 413
            assert body["ok"] is False
            assert headers.get("connection") == "close"
            conn.assert_closed()
        finally:
            conn.close()
        fresh = _RawConnection(server_url)
        try:
            fresh.request("/check", json.dumps({"scenario": SCENARIO}).encode())
            status, _, body = fresh.read_response()
            assert status == 200 and body["ok"] is True
        finally:
            fresh.close()

    def test_error_with_consumed_body_keeps_the_connection(self, server_url):
        # A handler-level 400 read the body in full, so the connection
        # stays clean and the next request on it is served normally.
        conn = _RawConnection(server_url)
        try:
            conn.request("/check",
                         json.dumps({"scenario": dict(SCENARIO, bogus=1)}).encode())
            status, headers, body = conn.read_response()
            assert status == 400
            assert "unknown scenario fields" in body["error"]
            assert headers.get("connection") != "close"
            conn.request("/check", json.dumps({"scenario": SCENARIO}).encode())
            status, _, body = conn.read_response()
            assert status == 200 and body["ok"] is True
        finally:
            conn.close()

    def test_mid_response_disconnect_is_silent_and_terminal(self):
        # A client that resets the connection while its response is being
        # built must not provoke a traceback (handle_error), must not be
        # sent a second response, and must not affect later requests.
        import time

        from repro.api import Session

        class SlowSession(Session):
            def _invoke_build(self, key, build):
                if key[0] == "result":
                    time.sleep(0.5)  # long enough for the client to vanish
                return super()._invoke_build(key, build)

        server = make_server(port=0, session=SlowSession())
        tracebacks = []
        server.handle_error = (
            lambda request, client_address: tracebacks.append(client_address))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            conn = _RawConnection(url)
            conn.request("/check", json.dumps({"scenario": SCENARIO}).encode())
            time.sleep(0.1)  # the handler is mid-build
            conn.reset()
            time.sleep(1.0)  # let the build finish and the write fail
            assert tracebacks == []
            status, body = _post(url + "/check", {"scenario": SCENARIO})
            assert status == 200 and body["ok"] is True
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestConcurrency:
    def test_concurrent_duplicate_cold_requests_build_once(self):
        # A slow cold build plus a duplicate request arriving mid-build: the
        # duplicate must coalesce onto the in-flight build — exactly one
        # build, observable through the /stats coalesce counter.
        import time

        from repro.api import Session

        class SlowSession(Session):
            build_count = 0

            def _invoke_build(self, key, build):
                if key[0] == "result":
                    type(self).build_count += 1
                    time.sleep(0.3)  # long enough for the duplicate to arrive
                return super()._invoke_build(key, build)

        server = make_server(port=0, session=SlowSession())
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            responses = []
            workers = [
                threading.Thread(target=lambda: responses.append(
                    _post(url + "/check", {"scenario": SCENARIO})))
                for _ in range(2)
            ]
            workers[0].start()
            time.sleep(0.1)  # the first request is mid-build when this lands
            workers[1].start()
            for worker in workers:
                worker.join(timeout=120)
            assert len(responses) == 2
            assert all(status == 200 for status, _ in responses)
            assert SlowSession.build_count == 1
            _, stats = _get(url + "/stats")
            assert stats["cache"]["coalesced"] == 1
            assert stats["cache"]["misses"] >= 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_concurrent_repeated_queries_all_answer_from_one_session(self, server_url):
        results = []
        errors = []

        def worker():
            try:
                results.append(_post(server_url + "/check", {"scenario": SCENARIO}))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert len(results) == 8
        payloads = [body["result"] for _, body in results]
        assert all(payload == payloads[0] for payload in payloads)
        # The shared session answered at least the repeats from cache.
        final_stats = results[-1][1]["cache"]
        assert final_stats["hits"] >= 7


class TestReadinessGating:
    def test_health_without_gating_is_ready_immediately(self):
        server = make_server(port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            status, body = _get(url + "/health")
            assert body["ready"] is True
            assert body["status"] == "serving"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
