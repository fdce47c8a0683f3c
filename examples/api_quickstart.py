"""Quickstart for the ``repro.api`` facade: scenarios, sessions, serving.

The public API revolves around three objects:

1. a frozen, validated :class:`~repro.api.Scenario` (the model
   configuration: exchange, n, t, failure model, ...),
2. a :class:`~repro.api.Session` that memoises every per-scenario artefact
   (model, state space, checker, spec formulas, synthesis fixpoints) behind
   one bounded cache, and
3. versioned typed results (``CheckResult``/``SynthesisResult``) with
   ``to_json``/``from_json`` round-trips.

This example checks and synthesizes a couple of configurations through one
session (watch the cache statistics: repeats cost nothing), then serves the
same session over JSON HTTP for a single request — the ``repro serve``
workflow, in-process.

Run with::

    python examples/api_quickstart.py
"""

import json
import threading
import urllib.request

from repro.api import Scenario, Session, result_from_json
from repro.api.service import make_server


def main() -> None:
    session = Session()
    floodset = Scenario(exchange="floodset", num_agents=3, max_faulty=1)
    emin = Scenario(exchange="emin", num_agents=2, max_faulty=1)

    # --- typed queries ----------------------------------------------------
    verdict = session.check(floodset)
    print(f"check {floodset.exchange} n={floodset.num_agents} "
          f"t={floodset.max_faulty}: spec_ok={verdict.spec_ok}, "
          f"optimal={verdict.optimal}, states={verdict.states}")

    synthesis = session.synthesize(floodset)   # warm: shares the cached model
    print(f"synthesize: earliest condition time "
          f"{synthesis.earliest_condition_time}")

    # --- batches amortise across scenarios ------------------------------
    results = session.batch([
        ("check", floodset),
        ("check", floodset),               # a pure result-cache hit
        ("synthesize", emin),
    ])
    print(f"batch of {len(results)} answered; cache: "
          f"{session.stats().to_json()}")

    # --- the result schema round-trips through JSON -----------------------
    wire = json.dumps(verdict.to_json())
    assert result_from_json(json.loads(wire)) == verdict
    print(f"result schema version {verdict.to_json()['schema_version']} "
          "round-trips")

    # --- the same facade over HTTP (what `repro serve` runs) --------------
    server = make_server(port=0, session=session)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/check",
        data=json.dumps({"scenario": floodset.to_json()}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        body = json.loads(response.read())
    server.shutdown()
    server.server_close()
    print(f"served /check: ok={body['ok']}, "
          f"hits so far {body['cache']['hits']} "
          f"(the query itself was a cache hit — the session is shared)")


if __name__ == "__main__":
    main()
