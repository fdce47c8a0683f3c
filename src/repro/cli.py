"""Command-line interface for the reproduction experiments.

Examples::

    python -m repro table1 --max-n 4 --timeout 60 --workers 4
    python -m repro table3 --max-n 3 --timeout 120 --output table3.jsonl
    python -m repro table3 --max-n 3 --output table3.jsonl --resume
    python -m repro report table3.jsonl --format csv
    python -m repro synthesize --exchange floodset --agents 3 --faulty 1
    python -m repro check --exchange floodset --agents 3 --faulty 2
    python -m repro table2 --max-n 3 --no-share-spaces   # cell times include the build
    python -m repro serve --port 8765
    python -m repro serve --workers 4 --preload table1:max-n=4
    python -m repro serve --workers 4 --store /var/cache/repro --store-max-bytes 268435456
    python -m repro store stats /var/cache/repro
    python -m repro store compact /var/cache/repro --max-entries 1000
    python -m repro lint
    python -m repro lint --rule DET01 --format json
    python -m repro lint --baseline lint-baseline.json --fail-on finding

Every command goes through the :mod:`repro.api` facade: ``check`` and
``synthesize`` construct a validated :class:`~repro.api.Scenario`, the table
commands resolve their grids through scenarios (so journal keys are
canonical), and ``serve`` runs the long-lived JSON-over-HTTP service on one
shared :class:`~repro.api.Session` whose cache answers repeated queries
without rebuilding state spaces.

The table commands print the same row/column structure as the paper's
Tables 1–3, with ``TO`` entries for cases exceeding the time budget.  With
``--workers N`` cells run on a pool of N concurrent forked children; with
``--output FILE`` every completed cell is journalled so ``--resume`` can
pick an interrupted sweep back up and ``report`` can re-render the results
(text, JSON or CSV) without re-running anything.  Every formula is
evaluated by the packed-bitset engine; a journal whose cells or spec record
name another engine (``symbolic`` or ``set``, removed backends) is refused
with exit status 2 by ``report`` and ``--resume``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.api import Scenario, Session
from repro.api.service import DEFAULT_HOST, DEFAULT_PORT, serve
from repro.devtools.rules import RULE_CODES
from repro.failures import FAILURE_MODELS
from repro.harness.runner import run_case, validate_timeout
from repro.harness.store import ResultStore
from repro.harness.tables import (
    TableResult,
    ablation_failure_models,
    ablation_temporal_only,
    render_csv,
    render_json,
    render_table,
    render_timings,
    run_table,
    table1_spec,
    table2_spec,
    table3_spec,
)
from repro.obs import profile as obs_profile

RENDERERS = {"text": render_table, "json": render_json, "csv": render_csv}


def default_workers() -> int:
    """The default worker-pool size: one worker per available CPU."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    """The validated scenario for a one-shot ``check``/``synthesize`` command.

    ``--failures`` left unset means the paper's default for the exchange's
    family (crash for SBA, sending omissions for EBA), which is exactly
    ``Scenario``'s own normalisation.
    """
    return Scenario(
        exchange=args.exchange,
        num_agents=args.agents,
        max_faulty=args.faulty,
        num_values=getattr(args, "values", 2),
        failures=args.failures,
        optimal_protocol=getattr(args, "optimal", False),
    )


def _add_budget_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--timeout", type=float, default=60.0,
        help="wall-clock budget per table cell in seconds (default 60)",
    )
    parser.add_argument(
        "--max-states", type=int, default=2_000_000,
        help="state budget per table cell (default 2,000,000)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="do not print per-cell progress"
    )


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=default_workers(),
        help="concurrent table cells (default: one per available CPU, "
             f"here {default_workers()})",
    )
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="journal every completed cell to this JSON-lines results file",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip cells already completed in the --output results file",
    )
    parser.add_argument(
        "--format", choices=sorted(RENDERERS), default="text",
        help="final rendering of the table (default: text)",
    )
    parser.add_argument(
        "--share-spaces", action=argparse.BooleanOptionalAction, default=True,
        help="build each distinct state space once in the scheduler and fork "
             "the cells that read it from the prebuilt copy (default on). A "
             "shared cell's time then excludes its space build, which the "
             "[preload] progress line reports; --no-share-spaces rebuilds "
             "the space in every cell, so each cell's time includes it, as "
             "in the paper. Results are identical either way",
    )


def _render_result(result: TableResult, fmt: str) -> str:
    return RENDERERS[fmt](result)


def _table_command(args: argparse.Namespace) -> int:
    if args.command == "table1":
        spec = table1_spec(max_n=args.max_n)
    elif args.command == "table2":
        spec = table2_spec(max_n=args.max_n)
    elif args.command == "table3":
        spec = table3_spec(max_n=args.max_n)
    elif args.command == "ablation-temporal":
        spec = ablation_temporal_only(max_n=args.max_n)
    elif args.command == "ablation-failures":
        spec = ablation_failure_models(max_n=args.max_n)
    else:  # pragma: no cover - argparse restricts the choices
        raise ValueError(args.command)
    if args.workers < 1:
        print("--workers must be at least 1", file=sys.stderr)
        return 2
    if args.resume and args.output is None:
        print("--resume requires --output (the results file to resume from)",
              file=sys.stderr)
        return 2
    try:
        validate_timeout(args.timeout)
        store = ResultStore(args.output) if args.output is not None else None
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    result = run_table(
        spec,
        timeout=args.timeout,
        max_states=args.max_states,
        verbose=not args.quiet,
        workers=args.workers,
        store=store,
        resume=args.resume,
        share_spaces=args.share_spaces,
    )
    print(_render_result(result, args.format))
    if store is not None and not args.quiet:
        print(f"results journalled to {store.path}", file=sys.stderr)
    return 0


def _report_command(args: argparse.Namespace) -> int:
    if not os.path.exists(args.results):
        print(f"no results file at {args.results}", file=sys.stderr)
        return 2
    try:
        result = ResultStore(args.results).load_result()
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.timings:
        print(render_timings(result))
        return 0
    print(_render_result(result, args.format))
    return 0


def _synthesize_command(args: argparse.Namespace) -> int:
    try:
        scenario = _scenario_from_args(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    session = Session()
    result = session.synthesis_artifact(scenario)
    if scenario.family == "sba":
        print(f"Synthesized SBA conditions for {scenario.exchange} "
              f"(n={scenario.num_agents}, t={scenario.max_faulty}, "
              f"{scenario.failures} failures, {scenario.engine} engine):")
    else:
        print(f"Synthesized EBA conditions for {scenario.exchange} "
              f"(n={scenario.num_agents}, t={scenario.max_faulty}, "
              f"{scenario.failures} failures, {scenario.engine} engine, "
              f"{result.iterations} iterations, "
              f"converged={result.converged}):")
    print(result.conditions.describe())
    return 0


def _check_command(args: argparse.Namespace) -> int:
    try:
        scenario = _scenario_from_args(args)
        task = scenario.check_task()
        params = scenario.to_params(task)
        validate_timeout(args.timeout)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.profile:
        # The check runs in a forked child, which re-reads this variable on
        # start-up, so setting it after import still takes effect.
        os.environ[obs_profile.ENV_VAR] = "1"
    # The forked runner keeps the paper's per-run wall-clock budget
    # enforceable; the cell parameters are the scenario's canonical form.
    outcome = run_case(task, params, timeout=args.timeout)
    print(f"result: {outcome.cell()}")
    if outcome.result is not None:
        for key, value in outcome.result.items():
            print(f"  {key}: {value}")
    if outcome.profile and outcome.profile.get("kernels"):
        print(obs_profile.render_table(outcome.profile))
    if outcome.error:
        print(outcome.error, file=sys.stderr)
        return 1
    return 0


def _serve_command(args: argparse.Namespace) -> int:
    if args.cache_size < 1:
        print("--cache-size must be at least 1", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("--workers must be at least 1", file=sys.stderr)
        return 2
    for flag, value in (("--store-max-bytes", args.store_max_bytes),
                        ("--store-max-entries", args.store_max_entries)):
        if value is not None:
            if args.store is None:
                print(f"{flag} requires --store", file=sys.stderr)
                return 2
            if value < 1:
                print(f"{flag} must be at least 1", file=sys.stderr)
                return 2
    if args.preload is not None:
        # Validate the frontier spec before binding a socket: a typo'd
        # --preload should exit 2 immediately, not serve cold.
        from repro.runtime.preload import parse_frontier

        try:
            parse_frontier(args.preload)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    return serve(
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
        verbose=not args.quiet,
        store_dir=args.store,
        workers=args.workers,
        store_max_bytes=args.store_max_bytes,
        store_max_entries=args.store_max_entries,
        preload=args.preload,
        log_format=args.log_format,
        log_level=args.log_level,
    )


def _store_command(args: argparse.Namespace) -> int:
    import json

    from repro.api.artefact_store import ArtefactStore

    if not os.path.isdir(args.dir):
        print(f"no store directory at {args.dir}", file=sys.stderr)
        return 2
    store = ArtefactStore(args.dir)
    if args.store_command == "stats":
        print(json.dumps(store.disk_stats(), indent=2, sort_keys=True))
        return 0
    # compact
    if args.max_bytes is None and args.max_entries is None:
        print("store compact needs --max-bytes and/or --max-entries",
              file=sys.stderr)
        return 2
    for flag, value in (("--max-bytes", args.max_bytes),
                        ("--max-entries", args.max_entries)):
        if value is not None and value < 1:
            print(f"{flag} must be at least 1", file=sys.stderr)
            return 2
    summary = store.compact(
        max_bytes=args.max_bytes, max_entries=args.max_entries
    )
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _lint_command(args: argparse.Namespace) -> int:
    from pathlib import Path

    import repro
    from repro.devtools import (
        Baseline,
        LintEngine,
        render_json as render_lint_json,
        render_text as render_lint_text,
        rules_for,
    )

    if args.paths:
        paths = [Path(p) for p in args.paths]
        missing = [p for p in paths if not p.exists()]
        if missing:
            print(f"no such path: {missing[0]}", file=sys.stderr)
            return 2
        rel_to: Optional[Path] = Path.cwd()
    else:
        # Default target: the installed repro package itself, reported
        # relative to its parent so findings read "repro/api/service.py".
        package_root = Path(repro.__file__).resolve().parent
        paths = [package_root]
        rel_to = package_root.parent

    baseline = None
    if args.baseline is not None:
        baseline_path = Path(args.baseline)
        if not baseline_path.is_file():
            print(f"no baseline file at {baseline_path}", file=sys.stderr)
            return 2
        try:
            baseline = Baseline.load(baseline_path)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    engine = LintEngine(rules_for(args.rules or None), baseline=baseline)
    report = engine.run(paths, rel_to=rel_to)
    renderer = render_lint_json if args.format == "json" else render_lint_text
    print(renderer(report))

    if args.fail_on == "never":
        return 0
    if report.findings and args.fail_on == "finding":
        return 2
    if report.errors:
        return 2
    return 0


def _add_failures_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--failures", choices=FAILURE_MODELS, default=None,
        help="failure model (default: sending omissions for EBA exchanges, "
             "crash for SBA exchanges, as in the paper)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Epistemic model checking and synthesis for consensus protocols",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    for table in ("table1", "table2", "table3", "ablation-temporal", "ablation-failures"):
        sub = subparsers.add_parser(table, help=f"run the {table} experiment grid")
        sub.add_argument("--max-n", type=int, default=4, help="largest number of agents")
        _add_budget_arguments(sub)
        _add_grid_arguments(sub)
        sub.set_defaults(func=_table_command)

    report = subparsers.add_parser(
        "report", help="re-render a stored results file without re-running"
    )
    report.add_argument("results", help="a results file written with --output")
    report.add_argument(
        "--format", choices=sorted(RENDERERS), default="text",
        help="rendering of the stored table (default: text)",
    )
    report.add_argument(
        "--timings", action="store_true",
        help="render per-column build/check latency percentiles (p50/p95) "
             "from the journalled timing splits instead of the result grid",
    )
    report.set_defaults(func=_report_command)

    synth = subparsers.add_parser("synthesize", help="synthesize one configuration")
    synth.add_argument("--exchange", required=True)
    synth.add_argument("--agents", type=int, required=True)
    synth.add_argument("--faulty", type=int, required=True)
    synth.add_argument("--values", type=int, default=2)
    _add_failures_argument(synth)
    synth.set_defaults(func=_synthesize_command)

    check = subparsers.add_parser("check", help="model check one configuration")
    check.add_argument("--exchange", required=True)
    check.add_argument("--agents", type=int, required=True)
    check.add_argument("--faulty", type=int, required=True)
    check.add_argument("--values", type=int, default=2)
    _add_failures_argument(check)
    check.add_argument("--optimal", action="store_true",
                       help="check the optimal (revised) literature protocol")
    check.add_argument("--timeout", type=float, default=600.0)
    check.add_argument(
        "--profile", action="store_true",
        help="time the hot kernels (bitset intersections, predecessor "
             "images) and print a per-kernel summary table; equivalent to "
             "REPRO_PROFILE=1",
    )
    check.set_defaults(func=_check_command)

    srv = subparsers.add_parser(
        "serve", help="run the JSON-over-HTTP query service on a shared session"
    )
    srv.add_argument("--host", default=DEFAULT_HOST,
                     help=f"bind address (default {DEFAULT_HOST})")
    srv.add_argument("--port", type=int, default=DEFAULT_PORT,
                     help=f"bind port (default {DEFAULT_PORT}; 0 picks a free port)")
    srv.add_argument("--cache-size", type=int, default=64,
                     help="bound on the shared session's artefact cache "
                          "(default 64 entries)")
    srv.add_argument("--store", metavar="DIR", default=None,
                     help="persistent artefact store directory: results are "
                          "published here and repeated queries (from this or "
                          "any other process sharing the directory) are "
                          "answered without rebuilding")
    srv.add_argument("--workers", type=int, default=1,
                     help="serve from this many forked worker processes "
                          "accepting on one shared socket (default 1; use "
                          "one per core to put the whole machine behind "
                          "one port — a single process is GIL-bound on "
                          "cold builds)")
    srv.add_argument("--store-max-bytes", type=int, default=None,
                     metavar="N",
                     help="bound the --store directory to ~N bytes of live "
                          "entries; least recently used entries are "
                          "compacted away as the service writes")
    srv.add_argument("--store-max-entries", type=int, default=None,
                     metavar="N",
                     help="bound the --store directory to N live entries "
                          "(compacted like --store-max-bytes)")
    srv.add_argument("--preload", metavar="SPEC", default=None,
                     help="build the state spaces of a scenario frontier "
                          "once, before the workers fork, e.g. 'table1' or "
                          "'table1:max-n=4'; every worker shares the build "
                          "copy-on-write, and until it completes /health "
                          "reports ready: false and queries get a 503")
    srv.add_argument("--log-format", choices=("text", "json"), default="text",
                     help="diagnostic log rendering: plain text (the "
                          "default, byte-compatible with earlier releases) "
                          "or one JSON object per line")
    srv.add_argument("--log-level", default="info",
                     choices=("debug", "info", "warning", "error"),
                     help="minimum diagnostic log level (default info; "
                          "debug also emits per-span trace records)")
    srv.add_argument("--quiet", action="store_true",
                     help="do not log individual requests")
    srv.set_defaults(func=_serve_command)

    store = subparsers.add_parser(
        "store", help="inspect or compact a persistent artefact store"
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)
    store_stats = store_commands.add_parser(
        "stats", help="print entry counts and byte totals per subdirectory"
    )
    store_stats.add_argument("dir", help="the artefact store directory")
    store_stats.set_defaults(func=_store_command)
    store_compact = store_commands.add_parser(
        "compact",
        help="drop least-recently-used entries until the store fits "
             "the given bounds",
    )
    store_compact.add_argument("dir", help="the artefact store directory")
    store_compact.add_argument("--max-bytes", type=int, default=None,
                               metavar="N", help="byte bound to compact to")
    store_compact.add_argument("--max-entries", type=int, default=None,
                               metavar="N", help="entry bound to compact to")
    store_compact.set_defaults(func=_store_command)

    lint = subparsers.add_parser(
        "lint",
        help="run the project-native static analysis rules "
             "(determinism, locking, fork/signal, fd lifecycle, imports)",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the installed "
             "repro package source)",
    )
    lint.add_argument(
        "--rule", action="append", dest="rules", choices=RULE_CODES,
        metavar="CODE",
        help="run only this rule (repeatable; default: all of "
             f"{', '.join(RULE_CODES)})",
    )
    lint.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="JSON baseline of grandfathered findings; matching findings "
             "are suppressed (every entry needs a justification)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report rendering (json output carries a schema_version "
             "field like the results schema)",
    )
    lint.add_argument(
        "--fail-on", choices=("finding", "error", "never"),
        default="finding",
        help="exit 2 on findings (default), only on engine errors, or "
             "never",
    )
    lint.set_defaults(func=_lint_command)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
