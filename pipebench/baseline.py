"""Measure the benchmark's own steadiness and record a baseline.

Run from the root of a checkout, twice, the second time against the first::

    python3 pipebench/baseline.py --seeds 10 --out pipebench/out/first.json
    python3 pipebench/baseline.py --seeds 10 --first pipebench/out/first.json \
        --out pipebench/baseline.json

For every workload this runs ``run.py`` once per seed with tracing off and
once with tracing on, then writes, per workload, the median and the spread
(interquartile range over median, as ``statistics.quantiles(values, n=4)``
gives the quartiles) of every end-to-end metric, the sample counts, the
traced per-layer shares, and the observations that motivated each workload,
re-measured.  It also records the host's CPU count and its own noise: a
fixed pure-Python loop timed six times.  With ``--first``, the earlier
set's medians and spreads go under ``first_set``, and ``agreement`` says
for every end-to-end metric how far this set's median lies from the
first's, against the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(ROOT), timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    prefix = f"{workload} seed={seed} trace={trace} "
    result["summary"] = next(json.loads(line[len(prefix):]) for line in lines
                             if line.startswith(prefix))
    return result


def spread(values: List[float]) -> Dict[str, float]:
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": quartiles[0], "q3": quartiles[2],
            "spread": (quartiles[2] - quartiles[0]) / median if median else 0.0,
            "min": min(values), "max": max(values)}


def cpu_model() -> str:
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def host_noise() -> Dict[str, object]:
    """A fixed pure-Python loop, timed six times in a fresh interpreter."""
    code = ("import time\nfor _ in range(6):\n    t = time.perf_counter(); s = 0\n"
            "    for i in range(20_000_000): s += i * i % 7\n"
            "    print(time.perf_counter() - t)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    times = [float(line) for line in out.stdout.split()]
    return {"loop": "sum of i*i % 7 over 20M integers", "seconds": times,
            "range_over_min": (max(times) - min(times)) / min(times)}


def trace_observations() -> Dict[str, object]:
    """The per-cell breakdowns quoted for the cells workloads, from the traces."""
    sys.path.insert(0, str(HERE))
    import tracing

    observed: Dict[str, object] = {}
    for workload in plan.CELL_WORKLOADS:
        with open(OUT / f"trace-{workload}.json") as handle:
            data = json.load(handle)
        tracer = tracing.Tracer()
        tracer.spans = data["spans"]
        selfs = tracer.self_times()
        cells: Dict[str, Dict[str, float]] = {}
        names = {}
        for record in tracer.spans:
            if record[tracing.PARENT] is None:
                names[record[tracing.ROOT]] = record[tracing.NAME]
        for record in tracer.spans:
            if record[tracing.ID] not in selfs:
                continue
            cell = cells.setdefault(names[record[tracing.ROOT]], {})
            for key in (record[tracing.LAYER], f"span:{record[tracing.NAME]}"):
                cell[key] = cell.get(key, 0.0) + selfs[record[tracing.ID]]
        for root, seconds in data["walls"].items():
            cells[names[root]]["wall_s"] = seconds
        observed[workload] = {
            cell: {key: round(value, 4) for key, value in sorted(parts.items())}
            for cell, parts in sorted(cells.items())
        }
    return observed


def combine_calls() -> int:
    """QM ``_combine`` calls while rendering ebasic n=3 t=1 (sending omissions)."""
    code = (
        "from repro.api import Scenario, Session\n"
        "from repro.core import minimize\n"
        "calls = [0]\noriginal = minimize._combine\n"
        "def counted(left, right):\n    calls[0] += 1\n    return original(left, right)\n"
        "minimize._combine = counted\n"
        "s = Scenario('ebasic', 3, 1, failures='sending')\n"
        "Session().synthesis_artifact(s).conditions.describe()\nprint(calls[0])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, cwd=str(ROOT))
    return int(out.stdout.split()[-1])


def connection_latencies() -> Dict[str, float]:
    """A warm /check on a keep-alive connection against a fresh connection."""
    import serve

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    server = serve.ServerProcess(ROOT, OUT, env)
    try:
        server.wait_ready()
        body = serve.query_body(plan.SERVE_QUERIES[0])
        headers = {"Content-Type": "application/json"}

        def timed(connection: http.client.HTTPConnection) -> float:
            start = time.perf_counter()
            connection.request("POST", "/check", body=body, headers=headers)
            connection.getresponse().read()
            return time.perf_counter() - start

        keep = http.client.HTTPConnection(serve.HOST, server.port, timeout=60)
        timed(keep)
        keep_alive = [timed(keep) for _ in range(50)]
        keep.close()
        fresh = []
        for _ in range(50):
            connection = http.client.HTTPConnection(serve.HOST, server.port, timeout=60)
            fresh.append(timed(connection))
            connection.close()
        scrape = http.client.HTTPConnection(serve.HOST, server.port, timeout=60)
        scrape.request("GET", "/metrics")
        series = serve.parse_metrics(scrape.getresponse().read().decode())
        scrape.close()
    finally:
        server.finish_shutdown()
    count = serve.series_sum(series, "repro_http_request_seconds_count", endpoint="/check")
    total = serve.series_sum(series, "repro_http_request_seconds_sum", endpoint="/check")
    return {"keep_alive_check_p50_ms": 1000 * statistics.median(keep_alive),
            "fresh_connection_check_p50_ms": 1000 * statistics.median(fresh),
            "server_check_mean_ms": 1000 * total / count}


def agreement(first: dict, second: dict, catalogue: List[dict]) -> Dict[str, object]:
    """Per workload and metric: the two sets' medians and spreads against the bound.

    ``within_bound`` holds when the second median is not worse than the
    first by more than the bound and, except for ``setup_s``, both spreads
    are within it.
    """
    out: Dict[str, object] = {}
    for workload, entry in second["workloads"].items():
        if workload not in first["workloads"]:
            continue
        rows = {}
        for metric in catalogue:
            name, bound = metric["name"], metric["bound"]
            before = first["workloads"][workload]["metrics"][name]
            after = entry["metrics"][name]
            change = (after["median"] - before["median"]) / before["median"]
            worse = change if metric["better"] == "lower" else -change
            steady = name == "setup_s" or max(before["spread"], after["spread"]) <= bound
            rows[name] = {"bound": bound, "first_median": before["median"],
                          "first_spread": before["spread"], "second_median": after["median"],
                          "second_spread": after["spread"], "second_worse_by": worse,
                          "within_bound": worse <= bound and steady}
        out[workload] = rows
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(plan.WORKLOADS))
    parser.add_argument("--out", default=str(OUT / "baseline.json"))
    parser.add_argument("--first", help="an earlier record of the same code to compare with")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json") as handle:
        catalogue = json.load(handle)
    seconds = catalogue["run_seconds"]
    record: Dict[str, object] = {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "run_seconds": seconds,
        "host_noise": host_noise(),
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.seeds + 1):
            runs.append(run(workload, seed, seconds, 0))
            print(workload, seed, {k: round(v["value"], 4)
                                   for k, v in runs[-1]["metrics"].items()}, flush=True)
        traced = run(workload, 1, seconds, 1)
        entry = {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "samples_per_run": [r["summary"] for r in runs],
            "metrics": {name: spread([r["metrics"][name]["value"] for r in runs])
                        for name in runs[0]["metrics"]},
            "traced": {name: value["value"] for name, value in traced["metrics"].items()},
        }
        record["workloads"][workload] = entry
        for name, stats in entry["metrics"].items():
            print(f"  {workload} {name}: median {stats['median']:.6g} "
                  f"spread {stats['spread']:.3f}", flush=True)
    if set(plan.CELL_WORKLOADS) <= set(args.workloads.split(",")):
        record["observations"] = {"cells": trace_observations(),
                                  "qm_combine_calls_ebasic_3_1": combine_calls()}
    if "serve-mix" in args.workloads.split(","):
        record.setdefault("observations", {})["serving"] = connection_latencies()
    if args.first:
        with open(args.first) as handle:
            first = json.load(handle)
        record["first_set"] = {
            "host_noise": first["host_noise"],
            "workloads": {name: {key: entry[key] for key in ("attempted", "failed", "metrics")}
                          for name, entry in first["workloads"].items()},
        }
        record["agreement"] = agreement(first, record, catalogue["end_to_end"])
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
