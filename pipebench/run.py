"""One pipeline benchmark: cold paper cells and a pre-fork serving mix.

Run from the root of a checkout::

    python3 pipebench/run.py --workload sba-cells --seed 1 --seconds 35 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``sba-cells``  Table 1/2 and temporal-ablation cells under crash failures;
* ``eba-cells``  Table 3 and failure-model-ablation cells, conditions rendered;
* ``serve-mix``  ``repro serve --workers 2`` under a two-connection closed loop.

The seed picks the cell order and the serving request stream; the program
only ever sees the generated inputs.  Every answer is checked against
``expected.json``.  Compute-bound times are reported at a reference host
speed, from a probe that samples the host's speed during the work (see
``speed.py``).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate traced run.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import plan  # this file's directory is sys.path[0]
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Seams that replace real compute or add profiling; numbers taken with any
#: of them set would not measure the program.
FORBIDDEN_ENV = ("REPRO_SERVE_BUILD_DELAY", "REPRO_SERVE_PRELOAD_DELAY", "REPRO_PROFILE")
IMPORT_PROBES = 5
WORKER_TIMEOUT = 170.0
MAX_TRACE_ERROR = 0.05


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _worker(args: List[str], stdin: str = "") -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "cells.py"), *args], input=stdin,
        capture_output=True, text=True, env=child_env(), cwd=str(ROOT),
        timeout=WORKER_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cells worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cells_workload(workload: str, seed: int, seconds: float, trace: bool,
                   expected: dict) -> dict:
    """Import probes for ``setup_s``, then the worker that runs the cells."""
    imports = [_worker(["--import-only"])["import"] for _ in range(IMPORT_PROBES)]
    run = _worker([], json.dumps({
        "cells": plan.cell_order(workload, seed), "seconds": seconds, "trace": trace,
        "trace_out": str(OUT / f"trace-{workload}.json"), "work_dir": str(OUT),
        "warm_tag": f"{workload}:{seed}",
    }))
    imports.append(run["import"])
    tail = run.get("tail", {"attempted": 0, "failures": []})
    failures = list(tail["failures"])
    attempted = tail["attempted"]
    for sample in run["samples"]:
        attempted += 1 + len(sample.get("warm", ()))
        failures.extend(f"warm {sample['id']}: {w}" for w in sample.get("warm_errors", ()))
        if sample["answer"] != expected["cells"][sample["id"]]:
            failures.append(f"wrong answer for {sample['id']}: {sample['answer']}")
    summary: dict = {"cold_samples": len(run["samples"])}
    if trace:
        summary["report"] = run["report"]
        return {"metrics": run["metrics"], "attempted": attempted, "failures": failures,
                "summary": summary}
    # Each cold sample at the reference speed, from the probe's chunks
    # inside it (see speed.py); the raw wall times are printed alongside.
    by_cell: Dict[str, List[float]] = {}
    raw: Dict[str, List[float]] = {}
    ops = {}
    for sample in run["samples"]:
        scale = speed.factor(sample["speed_chunks"])
        by_cell.setdefault(sample["id"], []).append(scale * sample["seconds"])
        raw.setdefault(sample["id"], []).append(sample["seconds"])
        ops[sample["id"]] = sample["op"]

    def total(times: Dict[str, List[float]], synthesis: bool) -> float:
        return sum(statistics.median(values) for cell, values in times.items()
                   if (ops[cell] == "synthesize") == synthesis)

    check_s, synth_s = total(by_cell, False), total(by_cell, True)
    chunks = [chunk for sample in run["samples"] for chunk in sample["speed_chunks"]]
    setup_s = statistics.median(i["import_s"] * speed.factor(i["speed_chunks"])
                                for i in imports)
    summary.update(setup_samples=len(imports), passes=min(len(v) for v in by_cell.values()),
                   speed_chunks=len(chunks), speed_factor=round(speed.factor(chunks), 4),
                   wall={"setup_s": round(statistics.median(i["import_s"] for i in imports), 4),
                         "check_s": round(total(raw, False), 4),
                         "synth_s": round(total(raw, True), 4)})
    return {
        "metrics": {"setup_s": setup_s, "check_s": check_s,
                    "synth_s": synth_s, "cold_s": check_s + synth_s,
                    "peak_rss_mb": run["peak_rss_mb"]},
        "attempted": attempted, "failures": failures, "summary": summary,
        "warm": tail["warm"], "warm_wall": tail["warm_wall"],
    }


def select(catalogue: List[dict], measured: Dict[str, float], end_to_end: bool) -> dict:
    """Every catalogued metric by name with its unit.

    A per-layer metric the workload never reaches reads 0; an end-to-end
    metric must have been measured.
    """
    out = {}
    for entry in catalogue:
        name = entry["name"]
        if name not in measured and end_to_end:
            raise RuntimeError(f"end-to-end metric {name} was not measured")
        out[name] = {"value": float(measured.get(name, 0.0)), "unit": entry["unit"]}
    return out


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if args.workload not in plan.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {plan.WORKLOADS}",
              file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    forbidden = [name for name in FORBIDDEN_ENV if os.environ.get(name)]
    if forbidden:
        print(f"refusing to measure with {forbidden} set", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        catalogue = json.load(handle)
    expected = plan.load_expected()
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    trace = bool(args.trace)
    if args.workload in plan.CELL_WORKLOADS:
        outcome = cells_workload(args.workload, args.seed, args.seconds, trace, expected)
    else:
        import serve

        outcome = serve.run(ROOT, child_env(), OUT, expected["serve"], args.seed,
                            args.seconds, trace, OUT / f"trace-{args.workload}.json")

    if not trace:
        # One closed-loop client per connection: throughput is requests over
        # the wall time the warm phase took.
        warm = outcome["warm"]
        outcome["metrics"].update(
            warm_qps=len(warm) / outcome["warm_wall"],
            warm_p50_ms=1000 * statistics.median(warm),
            warm_p95_ms=1000 * percentile(warm, 95),
        )
        outcome["summary"]["warm_samples"] = len(warm)
    failures = list(outcome["failures"])
    report = outcome["summary"].pop("report", None)
    if report is not None:
        for cls, entry in report["classes"].items():
            if entry["error"] > MAX_TRACE_ERROR:
                failures.append(f"self times of {cls!r} sum to {entry['self_sum_s']:.4f} s, "
                                f"wall {entry['wall_s']:.4f} s")
    metrics = select(catalogue["per_layer" if trace else "end_to_end"],
                     outcome["metrics"], end_to_end=not trace)
    attempted = max(outcome["attempted"], 1)
    for failure in failures[:20]:
        print(f"FAILED: {failure}")
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"{json.dumps(outcome['summary'])}")
    print(f"error_rate {len(failures) / attempted:.6f} ({len(failures)}/{attempted})")
    if report is not None:
        print(f"traced wall {report['wall_s']:.3f} s over {report['spans']} spans; "
              f"overhead {outcome['metrics'].get('trace.overhead', 0):.3f}x untraced")
        for layer, entry in report["layers"].items():
            print(f"  {layer:<10} self {entry['self_s']:9.4f} s  {100 * entry['share']:6.2f}%")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
