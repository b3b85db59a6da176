"""Command-line interface.

::

    python -m repro run                    # pipeline + headline summary
    python -m repro experiment T2 F2       # print specific artifacts
    python -m repro compare                # paper-vs-measured table
    python -m repro export out/            # full artifact bundle
    python -m repro universe               # §6: 56-conference expansion

Common options: ``--seed`` (default 7), ``--scale`` (default 1.0).
Resilience options: ``--fault-rate``/``--fault-seed`` run the pipeline
under the deterministic fault model (degraded coverage is reported, the
run never aborts); ``--workers`` parallelizes the ingest stage
deterministically.
Contract options: ``--validate={strict,repair,audit,off}`` (default
``repair``) runs every stage hand-off under the data contracts —
``strict`` exits non-zero at the first violating record or failing
integrity-audit check, ``repair`` quarantines/repairs, ``audit`` only
records, ``off`` disables contracts entirely.
Observability options: ``--trace`` writes a Chrome trace-event
``trace.json``, ``--metrics`` writes the deterministic ``metrics.json``
(both under ``--obs-dir``, default ``out/obs/``), ``--profile`` prints a
per-stage cProfile top-N after the run, ``--ledger`` appends the run's
:class:`~repro.obs.ledger.RunRecord` (config fingerprint, stage facts,
cache counters, scientific-output digests) plus its full event stream
to the append-only ledger under ``--obs-dir/ledger/``.
Engine options: every run executes on the stage-DAG engine.
``--cache-dir`` gives it a content-addressed artifact cache (a warm run
re-executes zero stage bodies; rerunning an interrupted run resumes
from every node and shard it finished); ``--engine-workers`` runs
independent stages concurrently; ``--refresh-cache`` recomputes and
overwrites cached artifacts.

Cache maintenance: ``repro cache stats`` / ``verify`` / ``gc`` /
``quarantine`` (with ``--cache-dir``) inspect and repair the artifact
cache — ``verify`` re-checks every entry's payload digest and moves
corrupt ones to ``quarantine/`` (exit 1 if any were found), ``gc``
evicts oldest-first to a ``--max-bytes``/``--max-entries`` budget.

Ledger subcommands: ``repro runs list`` / ``show`` / ``diff`` /
``regress`` / ``report`` read the ledger back — ``regress`` compares
the latest run against its recorded history (median-of-history timing
noise band, cell-level scientific drift) and exits non-zero on a
finding; ``report`` renders a self-contained HTML dashboard.

Serving: ``repro serve`` runs the analyses as a fault-tolerant HTTP
service over the engine cache (``GET /v1/far|blind|sensitivity``,
``/v1/runs``, ``/healthz``, ``/readyz``) with bounded admission + load
shedding, per-request deadlines, request coalescing, per-config
circuit breakers, content-addressed ETags, and graceful SIGTERM drain
— see :mod:`repro.serve` and METHODOLOGY §14.

Every option may be given either before the subcommand or after it
(``repro --seed 9 run`` and ``repro run --seed 9`` are equivalent):
the option set is declared once in :data:`OPTION_GROUPS` and wired to
the root parser and every subcommand from that single table.
"""

from __future__ import annotations

import argparse
import sys

from repro.contracts import ContractViolationError
from repro.pipeline import RunConfig, run_pipeline

__all__ = [
    "main",
    "build_parser",
    "OPTION_GROUPS",
    "EXIT_CONTRACT_VIOLATION",
    "EXIT_REGRESSION",
]

EXIT_CONTRACT_VIOLATION = 3
EXIT_REGRESSION = 4


# ---------------------------------------------------------------- options
#
# The single source of truth for common options: (group title, group
# description, [(flag, kwargs), ...]).  ``build_parser`` wires this
# table to the root parser (with real defaults) and to every subcommand
# (with SUPPRESS defaults, so a subcommand-position option overrides
# the root value and an omitted one never clobbers it).

OPTION_GROUPS: tuple[tuple[str, str, tuple[tuple[str, dict], ...]], ...] = (
    (
        "world",
        "synthetic-world construction",
        (
            ("--seed", dict(type=int, default=7, help="world seed (default 7)")),
            (
                "--scale",
                dict(type=float, default=1.0, help="population scale (default 1.0)"),
            ),
            (
                "--workers",
                dict(
                    type=int,
                    default=None,
                    help="worker processes for the ingest stage (default: serial)",
                ),
            ),
            (
                "--shards",
                dict(
                    type=int,
                    default=None,
                    help="venue count of a sharded synthetic universe; selects "
                    "the sharded streaming pipeline (one engine DAG node "
                    "per conference×edition, merged deterministically)",
                ),
            ),
        ),
    ),
    (
        "resilience",
        "fault injection",
        (
            (
                "--fault-rate",
                dict(
                    type=float,
                    default=0.0,
                    help="probability that any one simulated service call "
                    "fails (default 0)",
                ),
            ),
            (
                "--fault-seed",
                dict(
                    type=int,
                    default=None,
                    help="seed of the deterministic fault plan (default: the "
                    "world seed)",
                ),
            ),
        ),
    ),
    (
        "contracts",
        "data-contract validation",
        (
            (
                "--validate",
                dict(
                    choices=["strict", "repair", "audit", "off"],
                    default="repair",
                    help="data-contract mode at every stage hand-off: strict "
                    "fails fast (non-zero exit), repair quarantines and "
                    "repairs (default), audit only records, off disables "
                    "contracts",
                ),
            ),
        ),
    ),
    (
        "observability",
        "tracing, metrics, profiling",
        (
            (
                "--trace",
                dict(
                    action="store_true",
                    default=False,
                    help="record trace spans and write Chrome trace-event "
                    "trace.json under --obs-dir",
                ),
            ),
            (
                "--metrics",
                dict(
                    action="store_true",
                    default=False,
                    help="record the metrics registry and write metrics.json "
                    "under --obs-dir (deterministic for a given seed, "
                    "timings excluded)",
                ),
            ),
            (
                "--profile",
                dict(
                    action="store_true",
                    default=False,
                    help="capture a per-stage cProfile and print top "
                    "cumulative functions after the run",
                ),
            ),
            (
                "--ledger",
                dict(
                    action="store_true",
                    default=False,
                    help="append this run's record (config fingerprint, stage "
                    "facts, cache counters, scientific digests) and event "
                    "stream to the run ledger under --obs-dir/ledger/",
                ),
            ),
            (
                "--obs-dir",
                dict(
                    default="out/obs",
                    help="directory for observability artifacts — trace.json, "
                    "metrics.json, ledger/ (default: out/obs/, never the "
                    "repo root)",
                ),
            ),
        ),
    ),
    (
        "engine",
        "stage-DAG execution and artifact caching",
        (
            (
                "--cache-dir",
                dict(
                    default=None,
                    help="content-addressed artifact cache directory — a warm "
                    "run re-executes zero stage bodies, an interrupted run "
                    "rerun against it resumes per node and per shard",
                ),
            ),
            (
                "--engine-workers",
                dict(
                    type=int,
                    default=None,
                    help="worker processes for independent stages of one "
                    "DAG generation (default: serial)",
                ),
            ),
            (
                "--refresh-cache",
                dict(
                    action="store_true",
                    default=False,
                    help="recompute every stage and overwrite cache entries",
                ),
            ),
            (
                "--shard-workers",
                dict(
                    type=int,
                    default=None,
                    help="worker processes executing shard nodes concurrently "
                    "(--shards runs; results are byte-identical for any "
                    "worker count)",
                ),
            ),
        ),
    ),
)


def _wire_options(parser: argparse.ArgumentParser, suppress_defaults: bool) -> None:
    """Attach the shared option table to one parser.

    With ``suppress_defaults`` the options default to
    ``argparse.SUPPRESS`` so a subcommand parser only contributes values
    the user actually typed — otherwise its defaults would clobber
    options parsed before the subcommand name.
    """
    for title, description, options in OPTION_GROUPS:
        group = parser.add_argument_group(f"{title} options", description)
        for flag, kwargs in options:
            kw = dict(kwargs)
            if suppress_defaults:
                kw["default"] = argparse.SUPPRESS
            group.add_argument(flag, **kw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Representation of Women in HPC Conferences' (SC '21)",
    )
    _wire_options(parser, suppress_defaults=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        _wire_options(p, suppress_defaults=True)
        return p

    subcommand("run", help="run the pipeline and print the headline summary")

    p_exp = subcommand("experiment", help="print specific tables/figures")
    p_exp.add_argument("ids", nargs="+", help="experiment ids (T1..T3, F1..F8, S3.1, ...)")

    subcommand("compare", help="print the paper-vs-measured comparison")

    p_export = subcommand("export", help="write the full artifact bundle")
    p_export.add_argument("out_dir", help="output directory")

    subcommand("universe", help="run the 56-conference systems expansion (§6)")

    p_report = subcommand("report", help="render the full markdown run report")
    p_report.add_argument(
        "--output", default=None, help="write to a file instead of stdout"
    )

    p_cache = subcommand(
        "cache", help="maintain the artifact cache (stats/verify/gc/quarantine)"
    )
    p_cache.add_argument(
        "action",
        choices=["stats", "verify", "gc", "quarantine"],
        help="stats: entry/byte/quarantine counts; verify: check every "
        "entry's digest and quarantine corrupt ones (non-zero exit if "
        "any found); gc: evict oldest entries to fit --max-bytes/"
        "--max-entries; quarantine: list quarantined files (--purge "
        "deletes them)",
    )
    p_cache.add_argument(
        "--max-bytes", type=int, default=None, help="gc: byte budget to fit"
    )
    p_cache.add_argument(
        "--max-entries", type=int, default=None, help="gc: entry budget to fit"
    )
    p_cache.add_argument(
        "--purge",
        action="store_true",
        default=False,
        help="quarantine: delete the quarantined files",
    )

    p_runs = subcommand(
        "runs", help="inspect the run ledger (list/show/diff/regress/report)"
    )
    p_runs.add_argument(
        "action",
        choices=["list", "show", "diff", "regress", "report"],
        help="list runs; show one record; diff two runs cell-by-cell; "
        "regress the latest run against its history; render the HTML "
        "dashboard",
    )
    p_runs.add_argument(
        "targets",
        nargs="*",
        default=[],
        help="run ids (or unambiguous prefixes): show takes one "
        "(default latest), diff takes two (default: previous vs latest)",
    )
    p_runs.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="relative timing-regression threshold for regress "
        "(default 0.25 = +25%% over the historical median)",
    )
    p_runs.add_argument(
        "--output",
        default=None,
        help="for 'report': output HTML path "
        "(default <obs-dir>/ledger/dashboard.html)",
    )

    p_serve = subcommand(
        "serve", help="serve analysis queries over HTTP (/v1/far, /v1/blind, ...)"
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port",
        type=int,
        default=8177,
        help="bind port (0 binds an ephemeral port and announces it)",
    )
    p_serve.add_argument(
        "--max-concurrency",
        type=int,
        default=4,
        help="requests allowed to execute analysis work at once (default 4)",
    )
    p_serve.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="requests allowed to wait for a slot; beyond this the "
        "request is shed with 429 + Retry-After (default 16)",
    )
    p_serve.add_argument(
        "--deadline",
        type=float,
        default=15.0,
        help="per-request budget in seconds; a cold run past it answers "
        "504 with partial-result metadata (default 15)",
    )
    p_serve.add_argument(
        "--retry-after",
        type=float,
        default=1.0,
        help="Retry-After hint on 429/503/504 responses (default 1s)",
    )
    p_serve.add_argument(
        "--chaos-rate",
        type=float,
        default=0.0,
        help="deterministic per-request fault-injection rate (default 0)",
    )
    p_serve.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        help="seed of the serve chaos plan (default: the world seed)",
    )
    return parser


def _result(args):
    rc = RunConfig.from_cli(args)
    if rc.shards is not None:
        from repro.pipeline.sharded import run_sharded

        mode = rc.validation_mode()
        if mode is not None and mode.value == "strict":
            raise SystemExit("--validate strict is not supported with --shards")
        result = run_sharded(rc)
    else:
        result = run_pipeline(rc)
    # stashed for the post-command observability hooks (ledger append)
    args._last_result = result
    args._last_config = rc
    return result


def _cmd_run(args) -> int:
    from repro.analysis import far_report, pc_report

    result = _result(args)
    far = far_report(result.dataset)
    pc = pc_report(result.dataset)
    cov = result.coverage
    print(result.timer.report())
    print()
    print(f"researchers: {result.dataset.researchers.num_rows}  "
          f"papers: {result.dataset.papers.num_rows}")
    if getattr(result, "plan", None) is not None:
        print(f"shards: {len(result.plan)}  "
              f"(cache hits {result.shard_cache_hits}, "
              f"executed {result.executed_shards})")
    print(f"FAR: {far.overall}  (paper: 9.9%)")
    print(f"PC:  {pc.memberships}  (paper: 18.46%)")
    print(f"coverage: manual {100*cov['manual']:.2f}% / genderize "
          f"{100*cov['genderize']:.2f}% / none {100*cov['none']:.2f}%")
    if result.degraded is not None:
        print(f"degraded: {result.degraded.summary()}")
    if result.contracts is not None:
        print(result.contracts.summary())
    return 0


def _cmd_experiment(args) -> int:
    from repro.report import EXPERIMENTS, run_experiment

    unknown = [i for i in args.ids if i not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment id(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2
    result = _result(args)
    for exp_id in args.ids:
        _, text = run_experiment(exp_id, result)
        print(f"===== {exp_id} =====")
        print(text)
        print()
    return 0


def _cmd_compare(args) -> int:
    from repro.report import compare_headlines
    from repro.report.compare import render_comparison

    result = _result(args)
    rows = compare_headlines(result)
    print(render_comparison(rows))
    close = sum(1 for r in rows if r.rel_error < 0.25)
    print(f"\n{close}/{len(rows)} statistics within 25% of the paper")
    return 0


def _cmd_export(args) -> int:
    from repro.report.export import export_artifact

    result = _result(args)
    out = export_artifact(result, args.out_dir)
    print(f"artifact written to {out}")
    return 0


def _cmd_universe(args) -> int:
    from repro.pipeline import run_pipeline as _rp
    from repro.synth import WorldConfig, build_world
    from repro.universe import systems_universe, universe_report

    targets = systems_universe(56)
    world = build_world(
        WorldConfig(seed=args.seed, scale=args.scale, include_timeline=False),
        targets=targets,
    )
    # the universe run ignores the resilience/contract options (as ever)
    # but honors the engine: a custom-target world fingerprints by its
    # edition roster, so repeat universe invocations are cache reads
    rc = RunConfig(engine=RunConfig.from_cli(args).engine, obs=getattr(args, "_obs", None))
    result = _rp(rc, world=world)
    args._last_result = result
    args._last_config = rc
    rep = universe_report(result.dataset, targets)
    print(f"{'subfield':<14s} {'confs':>5s}  women among authors")
    for r in rep.rows:
        print(f"{r.field:<14s} {r.conferences:>5d}  {r.authors}")
    print(f"\noverall: {rep.overall}")
    print(
        f"subfield heterogeneity: chi2={rep.heterogeneity.statistic:.1f} "
        f"(df={rep.heterogeneity.df}) p={rep.heterogeneity.p_value:.2g}"
    )
    return 0


def _cmd_report(args) -> int:
    from pathlib import Path

    from repro.report.textreport import full_report

    result = _result(args)
    text = full_report(result)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_serve(args) -> int:
    from repro.serve import ServeConfig, serve_forever

    return serve_forever(ServeConfig.from_cli(args))


def _cmd_cache(args) -> int:
    from repro.engine.cache import ArtifactCache, CacheMismatch

    if args.cache_dir is None:
        print("repro cache requires --cache-dir", file=sys.stderr)
        return 2
    if args.action == "gc" and args.max_bytes is None and args.max_entries is None:
        print("gc requires --max-bytes and/or --max-entries", file=sys.stderr)
        return 2
    try:
        cache = ArtifactCache.if_exists(args.cache_dir)
    except CacheMismatch as exc:
        print(f"not an engine cache: {exc}", file=sys.stderr)
        return 2
    if cache is None:
        # a cache that was never written is an empty cache, not an
        # error — and inspecting it must not conjure the directory
        if args.action == "stats":
            for line in (
                "entries:          0",
                "size:             0 bytes",
                "quarantined:      0",
                "quarantine size:  0 bytes",
            ):
                print(line)
        elif args.action == "verify":
            print("checked 0 entries: 0 ok")
        elif args.action == "gc":
            print("evicted 0 entries")
        elif args.purge:
            print("purged 0 quarantined files")
        else:
            print("quarantine is empty")
        return 0

    if args.action == "stats":
        s = cache.stats()
        print(f"entries:          {s['entries']}")
        print(f"size:             {s['size_bytes']} bytes")
        print(f"quarantined:      {s['quarantined']}")
        print(f"quarantine size:  {s['quarantine_bytes']} bytes")
        return 0

    if args.action == "verify":
        report = cache.verify()
        print(f"checked {report['checked']} entries: {report['ok']} ok")
        for entry, reason in report["quarantined"]:
            print(f"  quarantined {entry} ({reason})")
        return 1 if report["quarantined"] else 0

    if args.action == "gc":
        evicted = cache.gc(max_bytes=args.max_bytes, max_entries=args.max_entries)
        print(f"evicted {len(evicted)} entries")
        for name in evicted:
            print(f"  {name}")
        return 0

    # action == "quarantine": list (or purge) the quarantined files
    names = cache.quarantined()
    if args.purge:
        removed = cache.purge_quarantine()
        print(f"purged {removed} quarantined files")
        return 0
    if not names:
        print("quarantine is empty")
        return 0
    for name in names:
        print(name)
    return 0


def _cmd_runs(args) -> int:
    from pathlib import Path

    from repro.obs.dashboard import write_dashboard
    from repro.obs.ledger import RunLedger
    from repro.obs.sentinel import (
        DEFAULT_MIN_SECONDS,
        DEFAULT_THRESHOLD,
        diff_runs,
        regress,
    )

    ledger = RunLedger(Path(args.obs_dir) / "ledger")
    records = ledger.records()
    action = args.action

    if action in ("show", "diff", "regress") and not records:
        print(f"no runs recorded in {ledger.path}", file=sys.stderr)
        return 2

    if action == "list":
        if not records:
            print(f"no runs recorded in {ledger.path}")
            return 0
        print(
            f"{'run id':<22s} {'command':<10s} {'seed':>5s} {'scale':>6s} "
            f"{'total':>8s} {'cache':>7s}  scientific digest"
        )
        for rec in records:
            meta = rec.meta
            total = rec.timing.get("total")
            cache = rec.body.get("cache", {})
            total_s = f"{total:.2f}s" if isinstance(total, (int, float)) else "?"
            cache_s = f"{cache.get('hits', 0)}h/{cache.get('misses', 0)}m"
            digest = rec.body.get("digests", {}).get("scientific", "")[:16]
            print(
                f"{rec.run_id:<22s} {str(meta.get('command', '?')):<10s} "
                f"{str(meta.get('seed', '?')):>5s} "
                f"{str(meta.get('scale', '?')):>6s} "
                f"{total_s:>8s} {cache_s:>7s}  {digest}"
            )
        return 0

    if action == "show":
        if len(args.targets) > 1:
            print("runs show takes at most one run id", file=sys.stderr)
            return 2
        try:
            rec = ledger.get(args.targets[0]) if args.targets else records[-1]
        except KeyError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        import json

        print(json.dumps(rec.to_dict(), indent=2, sort_keys=True))
        return 0

    if action == "diff":
        if args.targets and len(args.targets) != 2:
            print(
                "runs diff takes exactly two run ids (or none for "
                "previous-vs-latest)",
                file=sys.stderr,
            )
            return 2
        if args.targets:
            try:
                baseline, candidate = (ledger.get(t) for t in args.targets)
            except KeyError as exc:
                print(str(exc), file=sys.stderr)
                return 2
        else:
            if len(records) < 2:
                print("need at least two runs to diff", file=sys.stderr)
                return 2
            baseline, candidate = records[-2], records[-1]
        diff = diff_runs(baseline, candidate)
        print(diff.render())
        return 0

    if action == "regress":
        candidate = None
        if args.targets:
            if len(args.targets) > 1:
                print("runs regress takes at most one run id", file=sys.stderr)
                return 2
            try:
                candidate = ledger.get(args.targets[0])
            except KeyError as exc:
                print(str(exc), file=sys.stderr)
                return 2
        report = regress(
            records,
            candidate=candidate,
            threshold=(
                args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
            ),
            min_seconds=DEFAULT_MIN_SECONDS,
        )
        print(report.render())
        return 0 if report.ok else EXIT_REGRESSION

    # action == "report": the HTML dashboard
    regression = regress(records) if len(records) >= 2 else None
    out = Path(args.output) if args.output else ledger.root / "dashboard.html"
    path = write_dashboard(records, out, regression=regression)
    print(f"dashboard written to {path}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "experiment": _cmd_experiment,
    "compare": _cmd_compare,
    "export": _cmd_export,
    "universe": _cmd_universe,
    "report": _cmd_report,
    "cache": _cmd_cache,
    "runs": _cmd_runs,
    "serve": _cmd_serve,
}


def _finish_obs(args, obs) -> None:
    """Write the requested observability artifacts after a command."""
    from pathlib import Path

    from repro.obs import write_metrics, write_trace
    from repro.version import __version__

    out = Path(args.obs_dir)
    if args.trace:
        p = write_trace(obs.tracer, out / "trace.json")
        print(f"trace written to {p}")
    if args.metrics:
        p = write_metrics(
            obs.metrics,
            out / "metrics.json",
            meta={"version": __version__, "seed": args.seed},
        )
        print(f"metrics written to {p}")
    if args.ledger:
        result = getattr(args, "_last_result", None)
        if result is None:
            print("ledger: command produced no pipeline run to record")
        else:
            from repro.obs.ledger import RunLedger, build_run_record

            record = build_run_record(
                result,
                config=getattr(args, "_last_config", None),
                command=args.command,
            )
            ledger = RunLedger(out / "ledger")
            identified = ledger.append(record, events=obs.events)
            print(
                f"ledger: recorded {identified.run_id} "
                f"(scientific digest "
                f"{identified.body['digests']['scientific'][:16]}) "
                f"in {ledger.path}"
            )
    if args.profile and obs.profiler is not None:
        print(obs.profiler.render())


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    obs = None
    # 'runs'/'cache' only read artifacts back; 'serve' owns its whole
    # observability lifecycle (session record, event stream, drain flush)
    if args.command not in ("runs", "cache", "serve") and (
        args.trace or args.metrics or args.profile or args.ledger
    ):
        from repro.obs import ObsContext
        from repro.obs.context import use as obs_use

        obs = ObsContext(seed=args.seed, profile=args.profile)
        args._obs = obs
    try:
        if obs is not None:
            # the whole command runs under the context, so report/analysis
            # work after the pipeline (tabular kernels included) is counted
            with obs_use(obs):
                code = _COMMANDS[args.command](args)
            _finish_obs(args, obs)
            return code
        return _COMMANDS[args.command](args)
    except ContractViolationError as exc:
        # strict mode: surface the machine-readable violations and fail
        print(f"contract violation: {exc}", file=sys.stderr)
        for v in exc.violations[:10]:
            print(f"  - {v.code}: {v.message}", file=sys.stderr)
        if len(exc.violations) > 10:
            print(f"  ... and {len(exc.violations) - 10} more", file=sys.stderr)
        return EXIT_CONTRACT_VIOLATION


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
