"""The cells workloads' worker: cold paper cells, one fresh ``Session`` each.

``run.py`` starts this file in a child interpreter (``PYTHONPATH`` pointing
at the checkout's ``src``) and writes one JSON request to its stdin: the
cells in the order the seed picked, the measuring time, the trace flag, a
working directory and the tag that seeds the warm stream.  The child prints
one JSON line with what it measured.

* ``--import-only`` times the program's import and exits (``setup_s``).
* Untraced, cells run cold one after another, in passes over the order,
  until the next cell would overrun the measuring time less the warm tail
  (the first pass always completes).  The import and each cold cell carry
  a ``speed.Probe``, which samples the host's speed inside them and whose
  own time is left out of theirs.  After each cold cell its query is
  repeated in process on the now warm session, and its answer is published
  to an artefact store; the warm tail then asks the cells again over HTTP
  from a server backed by that store (``warm_*``).
* Traced, every cell runs once untraced (the baseline for the tracing
  overhead and the ``session.*`` numbers) and once re-driven stage by stage
  through the public calls ``Session`` makes, with spans around each layer
  (see ``tracing.py``).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional

import speed  # noqa: E402  (this file's directory is sys.path[0])

# The program's import, with the host's speed sampled every 10 ms of it.
_IMPORT_PROBE = speed.Probe(interval=0.01)
_IMPORT_START = time.perf_counter()
with _IMPORT_PROBE:
    from repro.api import Scenario, Session  # noqa: E402
    from repro.api import build as api_build  # noqa: E402
    from repro.api.artefact_store import ArtefactStore  # noqa: E402
    from repro.api.results import CheckResult, SynthesisResult  # noqa: E402
    from repro.api.service import make_server  # noqa: E402
    from repro.core import synthesis  # noqa: E402
    from repro import engines  # noqa: E402
    from repro.kbp import implementation as kbp  # noqa: E402
    from repro.spec import eba as spec_eba  # noqa: E402
    from repro.spec import sba as spec_sba  # noqa: E402
    from repro.systems import space as systems_space  # noqa: E402

IMPORT = {"import_s": time.perf_counter() - _IMPORT_START - _IMPORT_PROBE.overhead_s,
          "speed_chunks": _IMPORT_PROBE.chunks}

import plan  # noqa: E402
import serve  # noqa: E402
import tracing  # noqa: E402

BUILD_KINDS = ("model", "space", "checker", "spec", "synthesis", "result")
WARM_REPEATS = 100
#: Seconds kept back from the cold passes for the warm tail (about 200
#: requests at roughly 44 ms over two connections).
WARM_TAIL_SECONDS = 5.0


def answer(result, text=None) -> dict:
    """The verdict payload, plus the sha256 of the rendered conditions."""
    data = {"verdict": result.to_dict()}
    if text is not None:
        data["describe_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    return data


def publish(store: ArtefactStore, op: str, scenario: Scenario, result) -> None:
    """Write a result where a store-backed ``Session`` looks it up.

    Temporal and synthesis results are keyed without the optimal-protocol
    flag, as ``Session`` keys them.
    """
    if op != "check":
        scenario = replace(scenario, optimal_protocol=False)
    store.put_result(op, scenario.canonical_json(), result.to_json())


def run_cell(cell: dict, query_seconds: Optional[dict] = None,
             store: Optional[ArtefactStore] = None, probe: bool = False) -> dict:
    """One cold cell on a fresh session, then its warm repeats in process.

    With ``probe``, the host's speed is sampled during the cold cell (see
    ``speed.py``) and the probe's time is left out of the cell's.  With a
    ``store``, the answer is published there after the timing, for the warm
    tail to serve.
    """
    op = cell["op"]
    scenario = Scenario.from_json(cell["scenario"])
    gc.collect()
    session = Session()
    query = {"check": session.check, "temporal": session.check_temporal,
             "synthesize": session.synthesize}[op]
    sampler = speed.Probe() if probe else None
    start = time.perf_counter()
    with sampler or contextlib.nullcontext():
        text = None
        if op == "synthesize":
            # What ``repro synthesize`` prints, plus the verdict payload.
            text = session.synthesis_artifact(scenario).conditions.describe()
        result = query(scenario)
        json.dumps(result.to_json())
    seconds = time.perf_counter() - start - (sampler.overhead_s if sampler else 0.0)
    warm, warm_errors = [], []
    for _ in range(WARM_REPEATS):
        begin = time.perf_counter()
        again = query(scenario)
        warm.append(time.perf_counter() - begin)
        if again != result:
            warm_errors.append(f"warm answer differs: {again}")
    if query_seconds is not None:
        query_seconds.setdefault(op, []).extend(warm)
    if store is not None:
        publish(store, op, scenario, result)
    stats = session.stats()
    return {
        "id": cell["id"], "op": op, "seconds": seconds,
        "speed_chunks": sampler.chunks if sampler else [],
        "warm": warm, "warm_errors": warm_errors, "answer": answer(result, text),
        "build": {kind: session.build_seconds((kind,)) for kind in BUILD_KINDS},
        "lookups": {"hit": stats.hits, "miss": stats.misses,
                    "coalesced": stats.coalesced},
    }


def run_passes(cells: list, seconds: float, store: ArtefactStore) -> list:
    """Cold cells in passes over the plan until the time is used up."""
    deadline = time.perf_counter() + seconds
    first_pass = {}
    samples = []
    position = 0
    while True:
        cell = cells[position % len(cells)]
        if position >= len(cells):
            expected = first_pass[cell["id"]]
            if time.perf_counter() + expected > deadline:
                break
        sample = run_cell(cell, store=store, probe=True)
        samples.append(sample)
        first_pass.setdefault(cell["id"], sample["seconds"])
        position += 1
    return samples


def warm_tail(cells: list, store: ArtefactStore, tag: str, deadline: float) -> dict:
    """The cells asked again over HTTP, from a server backed by their store.

    Two keep-alive connections, as in the serve-mix warm phase: one untimed
    pass each, then seeded repeats until ``deadline`` (and at least
    ``serve.MIN_WARM_SAMPLES`` requests).  Answers are checked against
    ``expected.json``.
    """
    server = make_server(serve.HOST, 0, session=Session(store=store))
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.1}, daemon=True)
    thread.start()
    samples: list = []
    expected = plan.load_expected()["cells"]
    clients = [serve.Client(server.server_address[1], expected, samples) for _ in (0, 1)]
    try:
        serve.warm_pass(clients, cells)
        wall = serve.warm_phase(
            clients, [plan.warm_stream(cells, tag, k, mix=False) for k in (0, 1)],
            deadline, None)
    finally:
        for client in clients:
            client.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    return {"warm": [sample[2] for sample in samples if sample[0] == "warm"],
            "warm_wall": wall, "attempted": sum(c.attempted for c in clients),
            "failures": [f for c in clients for f in c.failures]}


# --------------------------------------------------------------- traced pass


def redrive_check(scenario: Scenario, op: str) -> CheckResult:
    """``Session.check``/``check_temporal`` unrolled into its layer calls."""
    model = api_build.build_model(scenario)
    protocol = api_build.literature_protocol(scenario)
    horizon = scenario.rounds if scenario.rounds is not None else model.default_horizon()
    space = systems_space.LevelledSpace.initial(
        model, horizon=horizon, max_states=scenario.max_states)
    for level in range(space.horizon + 1):
        space.set_actions(
            level, systems_space.joint_actions_for_level(space, level, protocol))
        if level < space.horizon:
            space.extend()
    checker = engines.checker_for(space, scenario.engine)
    if scenario.family == "sba":
        formulas = spec_sba.sba_spec_formulas(model, horizon)
    else:
        formulas = spec_eba.eba_spec_formulas(model, horizon)
    spec = {name: checker.holds_initially(formula) for name, formula in formulas.items()}
    task = "sba-temporal-only" if op == "temporal" else scenario.check_task()
    result = CheckResult(
        task=task, engine=scenario.engine, exchange=scenario.exchange,
        failures=scenario.failures, num_agents=scenario.num_agents,
        max_faulty=scenario.max_faulty, states=space.num_states(), spec=spec,
        rounds=horizon, protocol=protocol.name,
    )
    if task != "sba-model-check":
        return result
    report = kbp.verify_sba_implementation(
        model, protocol, space=space, engine=scenario.engine, checker=checker)
    return replace(
        result, implementation_ok=report.ok, optimal=report.is_optimal,
        sound=report.is_sound, late_points=len(report.late_mismatches()),
    )


def redrive_synthesis(scenario: Scenario, tracer: tracing.Tracer):
    """``synthesis_artifact`` + ``describe`` + ``Session.synthesize``'s summary."""
    model = api_build.build_model(scenario)
    synthesize = (synthesis.synthesize_sba if scenario.family == "sba"
                  else synthesis.synthesize_eba)
    artifact = synthesize(model, horizon=scenario.rounds,
                          max_states=scenario.max_states, engine=scenario.engine)
    text = artifact.conditions.describe()
    with tracer.span("summarise", "session"):
        base = dict(
            task=scenario.synthesis_task(), engine=scenario.engine,
            exchange=scenario.exchange, failures=scenario.failures,
            num_agents=scenario.num_agents, max_faulty=scenario.max_faulty,
            states=artifact.space.num_states(),
        )
        if scenario.family == "sba":
            earliest = next(
                (level for level in range(artifact.space.horizon + 1)
                 if any(not artifact.conditions.get(agent, level, value).always_false()
                        for agent in model.agents() for value in model.values())),
                None,
            )
            result = SynthesisResult(**base, earliest_condition_time=earliest)
        else:
            tracer.count("synthesis.eba_passes", artifact.iterations)
            result = SynthesisResult(**base, iterations=artifact.iterations,
                                     converged=artifact.converged)
    return result, text


def trace_cell(cell: dict, index: int, tracer: tracing.Tracer) -> dict:
    op = cell["op"]
    scenario = Scenario.from_json(cell["scenario"])
    gc.collect()
    root = f"cell-{index}"
    start = time.perf_counter()
    with tracer.span(cell["id"], "bench", root=root, cls=f"cell {op}"):
        text = None
        if op == "synthesize":
            result, text = redrive_synthesis(scenario, tracer)
        else:
            result = redrive_check(scenario, op)
        with tracer.span("serialise", "results"):
            wire = json.dumps(result.to_json())
    seconds = time.perf_counter() - start
    tracer.note_wall(root, seconds)
    tracer.count("results.response_bytes", len(wire))
    tracer.count("results.responses")
    return {"id": cell["id"], "op": op, "seconds": seconds,
            "answer": answer(result, text)}


def session_metrics(samples: list, query_seconds: dict) -> dict:
    metrics = {}
    for kind in BUILD_KINDS:
        metrics[f"session.build_s.{kind}"] = sum(s["build"][kind] for s in samples)
    for outcome in ("hit", "miss", "coalesced"):
        metrics[f"session.lookups.{outcome}"] = sum(s["lookups"][outcome] for s in samples)
    for op, values in query_seconds.items():
        metrics[f"session.query_ms.{op}"] = 1000 * statistics.median(values)
    return metrics


def traced_run(cells: list, trace_out: str) -> dict:
    """Each cell untraced and traced, alternating which goes first.

    The second run of a cell finds the process's memory already grown, so
    the order alternates from cell to cell to keep that out of the overhead.
    """
    query_seconds: dict = {}
    tracer = tracing.Tracer()
    baseline, traced = [], []

    def traced_cell(cell: dict, index: int) -> dict:
        patches = tracing.install(tracer)
        try:
            return trace_cell(cell, index, tracer)
        finally:
            patches.undo()

    for index, cell in enumerate(cells):
        if index % 2:
            traced.append(traced_cell(cell, index))
            baseline.append(run_cell(cell, query_seconds))
        else:
            baseline.append(run_cell(cell, query_seconds))
            traced.append(traced_cell(cell, index))
    report = tracer.report()
    metrics = tracing.layer_metrics(tracer, report)
    metrics.update(session_metrics(baseline, query_seconds))
    responses = tracer.counts.get("results.responses", 0)
    metrics["results.response_bytes"] = (
        tracer.counts.get("results.response_bytes", 0) / responses if responses else 0.0)
    metrics["trace.overhead"] = (
        sum(s["seconds"] for s in traced) / sum(s["seconds"] for s in baseline))
    Path(trace_out).parent.mkdir(parents=True, exist_ok=True)
    with open(trace_out, "w") as handle:
        json.dump({"report": report, **tracer.dump()}, handle)
    return {"samples": baseline + traced, "metrics": metrics, "report": report}


def main() -> int:
    if "--import-only" in sys.argv[1:]:
        print(json.dumps({"import": IMPORT}))
        return 0
    request = json.load(sys.stdin)
    if request["trace"]:
        out = traced_run(request["cells"], request["trace_out"])
    else:
        start = time.perf_counter()
        store_dir = tempfile.mkdtemp(prefix="store-", dir=request["work_dir"])
        try:
            store = ArtefactStore(store_dir)
            out = {"samples": run_passes(request["cells"],
                                         request["seconds"] - WARM_TAIL_SECONDS, store)}
            out["tail"] = warm_tail(request["cells"], store, request["warm_tag"],
                                    start + request["seconds"])
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
    out["import"] = IMPORT
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
