"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
experiment <id>     Run a paper experiment (fig2, fig6, ..., table4).
                    ``--jobs N`` fans simulation jobs out over N worker
                    processes; ``--no-cache`` bypasses the on-disk
                    result cache (see docs/ENGINE.md);
                    ``--extra-workloads`` adds stress-family panels to
                    the drivers that support them (fig9, fig11).
list                List available experiments.
safety <scheme>     Replay an attack against a scheme and report.
configure           Print safe Mithril configurations for a FlipTH.
schemes             List registered protection schemes.
cache               Show (or clear / --gc / --migrate) the simulation
                    result cache; ``--stats`` for per-generation
                    size/age, ``--query`` against the sharded index.
campaign <cmd>      Declarative multi-experiment campaigns: list,
                    plan, run (resumable + fault-tolerant: retries,
                    per-job timeouts, quarantine, graceful drain;
                    ``--hosts N`` distributes over a coordinator +
                    host agents with leases and partition tolerance),
                    agent (one host agent, SSH-launchable), status,
                    verify (exactly-once store audit; exits 0 clean /
                    1 findings / 2 unreadable), report
                    (docs/CAMPAIGNS.md, docs/FAULTS.md).
profile             cProfile one workload x scheme simulation
                    (``--backend {scalar,turbo}`` to compare the
                    per-phase split across backends).
traces <cmd>        Trace foundry: ingest external traces, synthesize
                    stress families, characterize ACT streams
                    (docs/WORKLOADS.md).
trace <cmd>         Telemetry consumers: export a run's merged event
                    timeline (``--format perfetto`` loads in the
                    Perfetto UI / chrome://tracing; ``--probes-dir``
                    adds probe counter tracks), or summarize it —
                    ``summary --top N`` lists the slowest spans
                    (docs/OBSERVABILITY.md).
probe report        Per-scheme panels (p50/p95/p99 time-series
                    summaries) from the probe streams a run recorded
                    under REPRO_PROBES / --probes
                    (docs/OBSERVABILITY.md).

``--log-level {debug,info,warning,error}`` (or ``REPRO_LOG``) turns on
stdlib logging; ``campaign status --follow`` tails live progress.
"""

from __future__ import annotations

import argparse
import importlib
import json
import logging
import os
import sys
from pathlib import Path

from repro.core.config import configuration_curve
from repro.experiments.runner import EXPERIMENTS
from repro.protection import build_scheme, scheme_names
from repro.verify.adversary import (
    double_sided_stream,
    many_sided_stream,
    round_robin_stream,
)
from repro.verify.safety import run_safety_trace


#: Environment fallback for ``--log-level``.
LOG_ENV = "REPRO_LOG"

_LOG_LEVELS = ("debug", "info", "warning", "error")


def _configure_logging(level: str) -> None:
    """Wire stdlib logging for the ``repro`` tree.

    ``--log-level`` wins; falls back to ``REPRO_LOG``; default is
    logging off (a bare WARNING handler would still print supervisor
    worker-kill warnings mid-campaign, which existing CLI output
    already covers).
    """
    chosen = level or os.environ.get(LOG_ENV, "")
    chosen = chosen.strip().lower()
    if chosen not in _LOG_LEVELS:
        return
    logging.basicConfig(
        level=getattr(logging, chosen.upper()),
        format="%(asctime)s %(levelname)-7s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def _cmd_list(_args) -> int:
    for name, (_module, description) in EXPERIMENTS.items():
        print(f"{name:<16} {description}")
    return 0


def _cmd_schemes(_args) -> int:
    for name in scheme_names():
        print(name)
    return 0


def _apply_probes_flag(args) -> None:
    """``--probes DIR`` enables the probe layer for this process tree."""
    directory = getattr(args, "probes", None)
    if directory:
        from repro.sim.probes import PROBES_ENV

        os.environ[PROBES_ENV] = directory


def _cmd_experiment(args) -> int:
    import inspect

    _apply_probes_flag(args)
    module = importlib.import_module(EXPERIMENTS[args.id][0])
    kwargs = {
        "scale": args.scale,
        "n_jobs": args.jobs,
        "use_cache": not args.no_cache,
    }
    if args.extra_workloads:
        if "extra_workloads" not in inspect.signature(
            module.run
        ).parameters:
            print(
                f"experiment {args.id!r} does not support "
                "--extra-workloads (fig9 and fig11 do)"
            )
            return 1
        kwargs["extra_workloads"] = tuple(args.extra_workloads)
    result = module.run(**kwargs)
    if args.json:
        print(json.dumps(result, indent=2, default=str))
    elif args.markdown:
        from repro.analysis.report import format_experiment

        print(format_experiment(args.id, result))
    else:
        module.print_rows(result)
    return 0


def _cmd_fuzz(args) -> int:
    from repro.core.config import paper_default_config
    from repro.core.mithril import MithrilScheme
    from repro.verify.fuzzer import fuzz_scheme

    config = paper_default_config(args.flip_th, adaptive_th=200)
    results = fuzz_scheme(
        lambda: MithrilScheme(
            n_entries=config.n_entries,
            rfm_th=config.rfm_th,
            adaptive_th=config.adaptive_th,
        ),
        flip_th=args.flip_th,
        rfm_th=config.rfm_th,
        iterations=args.iterations,
        acts_per_pattern=args.acts,
        seed=args.seed,
    )
    print(f"{'pattern':<32} {'max disturbance':>16} {'flips':>6}")
    for result in results[:10]:
        print(
            f"{result.pattern.name:<32} "
            f"{result.report.max_disturbance:>16.0f} "
            f"{len(result.report.flips):>6}"
        )
    worst = results[0]
    print()
    print(
        f"worst pattern reached {worst.disturbance_ratio:.1%} of "
        f"FlipTH={args.flip_th}"
    )
    return 0 if all(r.report.safe for r in results) else 1


def _cmd_configure(args) -> int:
    configs = configuration_curve(args.flip_th, adaptive_th=args.adaptive_th)
    if not configs:
        print(f"no feasible configuration for FlipTH={args.flip_th}")
        return 1
    print(f"{'RFM_TH':>7} {'Nentry':>8} {'bound M':>10} {'table KB':>9}")
    for config in configs:
        print(
            f"{config.rfm_th:>7} {config.n_entries:>8} "
            f"{config.bound:>10.1f} {config.table_kilobytes():>9.3f}"
        )
    return 0


def _format_bytes(size: int) -> str:
    value = float(size)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return (
                f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
            )
        value /= 1024
    return f"{value:.1f} GiB"


def _format_mtime(mtime) -> str:
    import time

    if mtime is None:
        return "-"
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(mtime))


def _cmd_cache_stats(cache, live: str) -> int:
    stats = cache.stats()
    if not stats:
        print("cache is empty")
        return 0
    print(f"{'generation':<18} {'entries':>8} {'bytes':>10} "
          f"{'oldest':>20} {'newest':>20}")
    for version, gen in stats.items():
        marker = " (live)" if version == live else ""
        print(
            f"{version:<18} {gen.entries:>8} "
            f"{_format_bytes(gen.total_bytes):>10} "
            f"{_format_mtime(gen.oldest_mtime):>20} "
            f"{_format_mtime(gen.newest_mtime):>20}{marker}"
        )
    return 0


def _cmd_cache_query(cache, live: str, query: str) -> int:
    criteria = {}
    for clause in query.split(","):
        if "=" not in clause:
            print(f"bad query clause {clause!r}; use key=value "
                  "(keys: scheme, workload, experiment, flip_th)")
            return 1
        key, value = clause.split("=", 1)
        key = key.strip()
        if key not in ("scheme", "workload", "experiment", "flip_th"):
            print(f"unknown query key {key!r}; "
                  "use scheme, workload, experiment, or flip_th")
            return 1
        if key == "flip_th":
            try:
                criteria[key] = int(value)
            except ValueError:
                print(f"flip_th must be an integer, got {value!r}")
                return 1
        else:
            criteria[key] = value.strip()
    records = cache.index(live).query(**criteria)
    total = sum(int(r.get("bytes") or 0) for r in records)
    print(f"{len(records)} entr{'y' if len(records) == 1 else 'ies'} "
          f"({_format_bytes(total)}) in generation {live} matching "
          + ",".join(f"{k}={v}" for k, v in criteria.items()))
    by_scheme = {}
    for record in records:
        key = (record.get("scheme"), record.get("workload"))
        by_scheme[key] = by_scheme.get(key, 0) + 1
    for (scheme, workload), count in sorted(
        by_scheme.items(), key=lambda item: str(item[0])
    ):
        print(f"  {scheme or '?':<14} {workload or '?':<26} {count:>6}")
    return 0


def _cmd_cache(args) -> int:
    from repro.engine import ResultCache, code_version

    cache = ResultCache()
    if args.clear:
        removed = cache.clear()
        print(f"removed {removed} cached result(s)")
        return 0
    if args.stats:
        return _cmd_cache_stats(cache, code_version())
    if args.query:
        return _cmd_cache_query(cache, code_version(), args.query)
    if args.migrate:
        moved = cache.migrate()
        print(f"moved {moved} flat entr{'y' if moved == 1 else 'ies'} "
              "into shards (index rebuilt)" if moved else
              "nothing to migrate (no flat entries in the live "
              "generation)")
        return 0
    if args.gc:
        if args.gc == "stale":
            removed = cache.gc_stale()
        else:
            try:
                removed = cache.gc(args.gc)
            except ValueError as error:
                print(error)
                return 1
        print(f"removed {removed} cached result(s)")
        return 0
    live = code_version()
    print(f"cache directory:  {cache.directory}")
    print(f"code version:     {live}")
    print(f"cached results:   {cache.entry_count()} (current version)")
    versions = cache.versions()
    dead = {v: n for v, n in versions.items() if v != live}
    if dead:
        print("dead generations (reclaim with --gc <version> or "
              "--gc stale):")
        for version, count in dead.items():
            print(f"  {version}  {count} entr{'y' if count == 1 else 'ies'}")
    return 0


# ----------------------------------------------------------------------
# campaign — declarative multi-experiment campaigns (docs/CAMPAIGNS.md)
# ----------------------------------------------------------------------


def _cmd_campaign_list(_args) -> int:
    from repro.campaigns import builtin_campaigns

    for name, spec in sorted(builtin_campaigns().items()):
        print(f"{name:<14} {spec.description}")
        for experiment in spec.experiments:
            print(f"  {experiment.name:<18} ({experiment.kind})")
    return 0


def _print_plan_summary(summary) -> None:
    print(f"campaign: {summary['campaign']}")
    print(f"{'experiment':<20} {'driver':<8} {'points':>7}")
    for experiment in summary["experiments"]:
        print(f"{experiment['name']:<20} {experiment['kind']:<8} "
              f"{experiment['points']:>7}")
    print(f"{'TOTAL (requested)':<29} {summary['requested_points']:>7}")
    print(f"{'TOTAL (deduplicated)':<29} {summary['total_points']:>7}")
    print(f"{'shared across experiments':<29} "
          f"{summary['shared_points']:>7}")


def _cmd_campaign_plan(args) -> int:
    from repro.campaigns import CampaignError, get_campaign, plan_campaign

    try:
        spec = get_campaign(args.name)
        plan = plan_campaign(spec, scale=args.scale)
    except CampaignError as error:
        print(error)
        return 1
    if args.json:
        print(json.dumps(plan.summary(), indent=2))
        return 0
    _print_plan_summary(plan.summary())
    return 0


def _cmd_campaign_run(args) -> int:
    from repro.campaigns import (
        CampaignError,
        CampaignManifest,
        build_report,
        format_report,
        get_campaign,
        manifest_path,
        plan_campaign,
        run_campaign,
    )

    _apply_probes_flag(args)
    try:
        spec = get_campaign(args.name)
    except CampaignError as error:
        print(error)
        return 1
    if args.dry_run:
        try:
            plan = plan_campaign(spec, scale=args.scale)
        except CampaignError as error:
            print(error)
            return 1
        _print_plan_summary(plan.summary())
        # the same reconciliation a real run applies (for_plan drops
        # completion written by other code versions or stale plans),
        # so the predicted pending count matches what run would do —
        # without writing anything back.
        manifest = CampaignManifest.for_plan(
            manifest_path(spec.name, args.dir), plan
        )
        done = len(manifest.completed)
        print(f"dry run: would submit {plan.total_points - done} "
              f"point(s) ({done} already complete)")
        return 0
    try:
        result = run_campaign(
            spec,
            directory=args.dir,
            scale=args.scale,
            n_jobs=args.jobs,
            use_cache=not args.no_cache,
            batch_size=args.batch_size,
            progress=print,
            max_retries=args.max_retries,
            job_timeout=args.job_timeout,
            retry_quarantined=args.retry_quarantined,
            hosts=args.hosts,
            lease_timeout=args.lease_timeout,
            heartbeat_s=args.heartbeat,
        )
    except CampaignError as error:
        print(error)
        return 1
    stats = result.stats
    print(
        f"campaign {spec.name!r}: {stats.submitted} submitted "
        f"({stats.previously_complete} already complete), "
        f"{stats.simulated} simulated, {stats.cache_hits} cache hits"
    )
    if getattr(stats, "hosts", 0):
        print(
            f"cluster: {stats.hosts} host(s), {stats.chunks} chunk(s), "
            f"{stats.reassigned} reassigned, "
            f"{stats.duplicate_results} duplicate result(s) discarded, "
            f"{stats.hosts_lost} host(s) lost, "
            f"{stats.hosts_restarted} restarted"
        )
    print(f"manifest: {result.manifest_path}")
    if result.quarantined:
        print(f"quarantined ({len(result.quarantined)} point(s) — "
              "`campaign status` for diagnostics, rerun with "
              "--retry-quarantined to retry):")
        for job_hash, record in sorted(result.quarantined.items()):
            print(f"  {job_hash[:12]} {record.get('scheme')}/"
                  f"{record.get('workload')}: {record.get('reason')} "
                  f"after {record.get('attempts')} attempt(s)")
    if result.drained:
        print("drained: stopped on signal after checkpointing the "
              "in-flight batch; rerun the same command to resume")
    if result.complete and not args.no_report:
        report = build_report(
            spec, directory=args.dir, n_jobs=args.jobs,
            use_cache=not args.no_cache,
        )
        report_dir = result.manifest_path.parent
        (report_dir / "report.json").write_text(
            json.dumps(report, indent=2, default=str) + "\n"
        )
        (report_dir / "report.md").write_text(format_report(report))
        print(f"report: {report_dir / 'report.md'}")
    if result.drained:
        return 3
    if result.quarantined:
        return 2
    return 0


def _telemetry_dir_arg(args):
    """The telemetry dir to read: ``--telemetry-dir`` else the env."""
    from repro.telemetry import TELEMETRY_ENV

    explicit = getattr(args, "telemetry_dir", None)
    if explicit:
        return explicit
    return os.environ.get(TELEMETRY_ENV) or None


def _cmd_trace_export(args) -> int:
    from repro.telemetry import (
        event_files,
        merge_events,
        validate_perfetto,
        write_perfetto,
    )
    from repro.telemetry.perfetto import export_perfetto

    directory = _telemetry_dir_arg(args)
    if not directory:
        print("no telemetry directory: pass --telemetry-dir or set "
              "REPRO_TELEMETRY")
        return 1
    if not event_files(directory):
        print(f"no event streams under {directory}")
        return 1
    if args.format == "merged":
        lines = [
            json.dumps(record, sort_keys=True)
            for record in merge_events(directory)
        ]
        if args.output:
            Path(args.output).write_text("\n".join(lines) + "\n")
            print(f"wrote {len(lines)} merged event(s) to {args.output}")
        else:
            for line in lines:
                print(line)
        return 0
    probes_dir = _probes_dir_arg(args)
    if args.output:
        count = write_perfetto(directory, args.output,
                               probes_dir=probes_dir)
        problems = validate_perfetto(
            json.loads(Path(args.output).read_text())
        )
        if problems:
            print(f"export failed validation ({len(problems)} problem(s)):")
            for problem in problems[:10]:
                print(f"  {problem}")
            return 1
        print(f"wrote {count} trace event(s) to {args.output}")
        print("open in https://ui.perfetto.dev or chrome://tracing")
        return 0
    payload = export_perfetto(directory, probes_dir=probes_dir)
    print(json.dumps(payload, indent=1, sort_keys=True))
    return 0


def _cmd_trace_summary(args) -> int:
    from repro.telemetry import merge_events, summarize_events
    from repro.telemetry.events import slowest_spans

    directory = _telemetry_dir_arg(args)
    if not directory:
        print("no telemetry directory: pass --telemetry-dir or set "
              "REPRO_TELEMETRY")
        return 1
    events = merge_events(directory)
    summary = summarize_events(events)
    top = slowest_spans(events, limit=args.top)
    if args.json:
        payload = dict(summary)
        payload["slowest_spans"] = top
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"events:     {summary['total']}")
    print(f"processes:  {len(summary['processes'])}")
    for kind, count in sorted(summary["kinds"].items()):
        print(f"  {kind:<24} {count}")
    if summary["span_seconds"]:
        print("span seconds:")
        for name, seconds in sorted(
            summary["span_seconds"].items(), key=lambda kv: -kv[1]
        ):
            print(f"  {name:<24} {seconds:.3f}")
    if top:
        print(f"slowest spans (top {len(top)}):")
        for span in top:
            print(f"  {span['name']:<24} {span['dur']:.3f}s "
                  f"@+{span['start']:.3f}s pid={span['pid']}")
    return 0


def _probes_dir_arg(args):
    """The probe dir to read: ``--probes-dir`` else ``REPRO_PROBES``."""
    from repro.sim.probes import PROBES_ENV

    explicit = getattr(args, "probes_dir", None)
    if explicit:
        return explicit
    return os.environ.get(PROBES_ENV) or None


def _cmd_probe_report(args) -> int:
    from repro.analysis.probe_report import (
        build_probe_report,
        format_probe_report,
    )

    directory = _probes_dir_arg(args)
    if not directory:
        print("no probe directory: pass --probes-dir or set "
              "REPRO_PROBES")
        return 1
    report = build_probe_report(directory)
    if not report["streams"]:
        print(f"no probe streams under {directory}")
        return 1
    rendered = (
        json.dumps(report, indent=2, sort_keys=True)
        if args.json else format_probe_report(report)
    )
    if args.output:
        Path(args.output).write_text(rendered + (
            "" if rendered.endswith("\n") else "\n"
        ))
        print(f"wrote {args.output}")
        return 0
    print(rendered)
    return 0


def _cmd_campaign_status(args) -> int:
    from repro.campaigns import (
        CampaignError,
        CampaignManifest,
        get_campaign,
        manifest_path,
    )

    try:
        spec = get_campaign(args.name)
    except CampaignError as error:
        print(error)
        return 1
    if getattr(args, "follow", False):
        from repro.telemetry.progress import follow_campaign

        snap = follow_campaign(
            spec.name,
            directory=args.dir,
            telemetry_dir=_telemetry_dir_arg(args),
            interval=args.interval,
            ticks=args.ticks,
        )
        return 0 if snap and snap.get("remaining") == 0 else 1
    manifest = CampaignManifest.load(manifest_path(spec.name, args.dir))
    if manifest is None:
        print(f"campaign {spec.name!r} has never run "
              "(no manifest on disk)")
        return 1
    if args.json:
        payload = {
            "campaign": manifest.data.get("campaign"),
            "status": manifest.status,
            "total_points": manifest.data.get("total_points"),
            "completed_points": len(manifest.completed),
            "quarantined_points": len(manifest.quarantined),
            "quarantined": manifest.quarantined,
            "code_version": manifest.data.get("code_version"),
            "experiments": manifest.experiment_progress(),
            "runs": manifest.data.get("runs") or [],
            "notes": manifest.data.get("notes") or [],
        }
        print(json.dumps(payload, indent=2))
        return 0
    total = manifest.data.get("total_points") or 0
    done = len(manifest.completed)
    print(f"campaign:   {manifest.data.get('campaign')}")
    print(f"status:     {manifest.status} ({done}/{total} points)")
    print(f"code ver:   {manifest.data.get('code_version')}")
    for experiment in manifest.experiment_progress():
        line = (f"  {experiment['name']:<20} ({experiment['kind']}) "
                f"{experiment['completed']}/{experiment['points']}")
        if experiment.get("quarantined"):
            line += f" [{experiment['quarantined']} quarantined]"
        print(line)
    quarantined = manifest.quarantined
    if quarantined:
        print(f"quarantine: {len(quarantined)} point(s)")
        for job_hash, record in sorted(quarantined.items()):
            print(f"  {job_hash[:12]} {record.get('scheme')}/"
                  f"{record.get('workload')}: {record.get('reason')} "
                  f"after {record.get('attempts')} attempt(s) — "
                  f"{record.get('message')}")
    runs = manifest.data.get("runs") or []
    if runs:
        last = runs[-1]
        print(f"last run:   {last.get('finished')} — "
              f"{last.get('simulated', 0)} simulated, "
              f"{last.get('cache_hits', 0)} cache hits")
    for note in manifest.data.get("notes") or []:
        print(f"note:       {note}")
    return 0


def _cmd_campaign_verify(args) -> int:
    """Exit-code contract (docs/CAMPAIGNS.md):

    0 — clean: every planned point accounted for (``--strict`` also
        requires an empty quarantine);
    1 — findings: missing/corrupt/unaccounted/duplicate entries (or
        quarantined points under ``--strict``);
    2 — unreadable state: the campaign spec cannot be resolved or the
        store/campaign state cannot be read at all.
    """
    from repro.campaigns import CampaignError, get_campaign, verify_campaign

    try:
        spec = get_campaign(args.name)
        audit = verify_campaign(spec, directory=args.dir, scale=args.scale)
    except CampaignError as error:
        if args.json:
            print(json.dumps({"error": str(error), "exit_code": 2},
                             indent=2))
        else:
            print(error)
        return 2
    except OSError as error:
        if args.json:
            print(json.dumps({"error": str(error), "exit_code": 2},
                             indent=2))
        else:
            print(f"unreadable campaign state: {error}")
        return 2
    strict_ok = audit["ok"] and not audit["quarantined"]
    exit_code = 0 if (strict_ok if args.strict else audit["ok"]) else 1
    if args.json:
        payload = dict(audit)
        payload["strict_ok"] = strict_ok
        payload["exit_code"] = exit_code
        print(json.dumps(payload, indent=2))
    else:
        print(f"campaign:    {audit['campaign']}")
        print(f"planned:     {audit['planned']} point(s)")
        print(f"verified:    {audit['verified']} "
              "(present, seal-checked, exactly once)")
        for key in ("missing", "corrupt", "unaccounted", "duplicates"):
            values = audit[key]
            print(f"{key + ':':<13}{len(values)}"
                  + (f"  {' '.join(h[:12] for h in values[:8])}"
                     if values else ""))
        print(f"quarantined: {len(audit['quarantined'])}")
        for job_hash, record in sorted(audit["quarantined"].items()):
            print(f"  {job_hash[:12]} {record.get('scheme')}/"
                  f"{record.get('workload')}: {record.get('reason')}")
        if audit["store_quarantine_log"]:
            print(f"store quarantine log: "
                  f"{len(audit['store_quarantine_log'])} record(s)")
        print("verdict:     "
              + ("OK" if exit_code == 0 else "FAIL"))
    return exit_code


def _cmd_campaign_agent(args) -> int:
    """Run one host agent (normally exec'd by the coordinator).

    This is the process an SSH launcher would start on a remote host:
    it needs only the cluster spool directory (plus the shared result
    store via ``REPRO_CACHE_DIR``/``--cache-dir``) — assignments and
    results flow over the transport.
    """
    from repro.cluster import agent_main

    return agent_main(
        args.host_id,
        Path(args.cluster_dir),
        n_jobs=args.jobs,
        max_retries=args.max_retries,
        job_timeout=args.job_timeout,
        cache_dir=args.cache_dir,
        heartbeat_s=args.heartbeat,
        parent_pid=args.parent_pid,
    )


def _cmd_campaign_report(args) -> int:
    from repro.campaigns import (
        CampaignError,
        build_report,
        format_report,
        get_campaign,
    )

    try:
        spec = get_campaign(args.name)
        report = build_report(
            spec, directory=args.dir, n_jobs=args.jobs,
            probes_dir=_probes_dir_arg(args),
        )
    except CampaignError as error:
        print(error)
        return 1
    rendered = (
        json.dumps(report, indent=2, default=str)
        if args.json else format_report(report)
    )
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(rendered + (
            "" if rendered.endswith("\n") else "\n"
        ))
        print(f"wrote {args.output}")
        return 0
    print(rendered)
    return 0


def _cmd_profile(args) -> int:
    import cProfile
    import pstats

    from repro.engine.executor import materialize_job
    from repro.engine.job import SimJob, WorkloadSpec
    from repro.sim.system import simulate

    spec = WorkloadSpec.make(args.workload, scale=args.scale)
    job = SimJob(workload=spec, scheme=args.scheme, flip_th=args.flip_th,
                 scale=args.scale)
    traces, factory, config, rfm_th = materialize_job(job)
    from repro.sim.backend import resolve_backend

    print(f"backend: {resolve_backend(args.backend)}")
    profiler = cProfile.Profile()
    profiler.enable()
    simulate(traces, scheme_factory=factory, config=config, rfm_th=rfm_th,
             flip_th=job.flip_th, mlp=job.mlp,
             track_hammer=job.track_hammer, max_cycles=job.max_cycles,
             backend=args.backend)
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.top)
    return 0


# ----------------------------------------------------------------------
# traces — the trace-foundry command group (docs/WORKLOADS.md)
# ----------------------------------------------------------------------


def _print_characterization(char, heading=None) -> None:
    if heading:
        print(heading)
    summary = char.summary()
    cdf = summary.pop("row_locality_cdf")
    for key, value in summary.items():
        print(f"  {key:<22} {value}")
    points = "  ".join(f"<={k}:{v:.2f}" for k, v in sorted(cdf.items()))
    print(f"  {'row_locality_cdf':<22} {points}")


def _cmd_traces_list(_args) -> int:
    from repro.engine import TRACE_KIND_PREFIX, workload_kinds
    from repro.traces import mapping_names, reader_names

    print("workload kinds:")
    for kind in workload_kinds():
        print(f"  {kind}")
    print(f"  {TRACE_KIND_PREFIX}<path>  (an ingested TraceSet directory "
          "or trace file)")
    print("trace readers:")
    for name in reader_names():
        print(f"  {name}")
    print("mapping policies:")
    for name in mapping_names():
        print(f"  {name}")
    return 0


def _cmd_traces_synth(args) -> int:
    from repro.engine import build_workload
    from repro.engine.job import WorkloadSpec
    from repro.traces import DESIGN_TARGETS, TraceSet, design_violations

    params = dict(scale=args.scale, num_cores=args.cores,
                  num_banks=args.banks)
    if args.seed is not None:
        params["seed"] = args.seed
    spec = WorkloadSpec.make(args.kind, **params)
    try:
        traces = build_workload(spec)
    except (KeyError, TypeError, ValueError) as error:
        # unknown kind, or a kind whose builder needs parameters synth
        # does not expose (e.g. attack's `pattern`)
        print(f"cannot synthesize {args.kind!r}: {error}")
        return 1
    if args.check:
        if args.kind not in DESIGN_TARGETS:
            print(f"no design targets documented for {args.kind!r}")
        else:
            violations = design_violations(args.kind, traces)
            if violations:
                print(f"{args.kind} misses its design targets:")
                for violation in violations:
                    print(f"  {violation}")
                return 1
            print(f"{args.kind}: design targets met")
    traceset = TraceSet(
        name=args.name or args.kind,
        traces=traces,
        provenance={"kind": "generated", "generator": args.kind,
                    "params": dict(spec.params)},
    )
    manifest = traceset.save(args.output, format=args.format,
                             compress=args.gzip)
    requests = sum(len(t) for t in traces)
    print(f"wrote {len(traces)} core trace(s), {requests} requests "
          f"-> {manifest.parent}")
    return 0


def _cmd_traces_ingest(args) -> int:
    from repro.traces import ingest_files

    try:
        traceset = ingest_files(
            args.inputs,
            name=args.name,
            format=None if args.format == "auto" else args.format,
            mapping=args.mapping,
            mode="strict" if args.strict else "clamp",
        )
    except (OSError, KeyError, ValueError) as error:
        # missing/unreadable input, unknown format or mapping, parse or
        # geometry errors (TraceGeometryError is a ValueError)
        print(f"ingest failed: {error}")
        return 1
    manifest = traceset.save(args.output, format=args.write_format,
                             compress=args.gzip)
    requests = sum(len(t) for t in traceset.traces)
    print(f"ingested {len(traceset.traces)} trace(s), {requests} requests "
          f"-> {manifest.parent}")
    return 0


def _cmd_traces_characterize(args) -> int:
    from pathlib import Path

    from repro.traces import (
        TraceSet,
        characterize_traceset,
        read_trace,
    )

    path = Path(args.path)
    try:
        if path.is_dir():
            traceset = TraceSet.load(path)
        else:
            trace = read_trace(path)
            traceset = TraceSet(name=trace.name, traces=[trace])
        aggregate, per_core = characterize_traceset(traceset)
    except (OSError, KeyError, ValueError) as error:
        print(f"cannot characterize {args.path}: {error}")
        return 1
    if args.json:
        payload = {"aggregate": aggregate.summary()}
        if args.per_core:
            payload["cores"] = [c.summary() for c in per_core]
        print(json.dumps(payload, indent=2))
        return 0
    _print_characterization(
        aggregate,
        heading=f"{aggregate.name} ({len(per_core)} core(s), merged):",
    )
    if args.per_core:
        for core in per_core:
            _print_characterization(core, heading=f"{core.name}:")
    return 0


def _cmd_traces_smoke(args) -> int:
    """Build one tiny instance of every registered kind (CI smoke)."""
    from repro.engine import build_workload, smoke_workload_specs
    from repro.traces import characterize_workload

    for kind, spec in smoke_workload_specs(args.scale).items():
        traces = build_workload(spec)
        char = characterize_workload(traces, name=kind)
        print(
            f"{kind:<26} cores={len(traces)} requests={char.requests} "
            f"act/acc={char.act_per_access:.2f} "
            f"imbalance={char.bank_imbalance:.2f}"
        )
    return 0


_ATTACKS = {
    "double-sided": lambda acts: double_sided_stream(1000, acts),
    "many-sided": lambda acts: many_sided_stream(33, acts),
    "round-robin": lambda acts: round_robin_stream(1024, acts),
}


def _cmd_safety(args) -> int:
    kwargs = {}
    if args.scheme in ("mithril", "mithril+"):
        from repro.core.config import paper_default_config

        config = paper_default_config(args.flip_th, adaptive_th=200)
        kwargs = dict(
            n_entries=config.n_entries,
            rfm_th=config.rfm_th,
            adaptive_th=config.adaptive_th,
        )
        rfm_th = config.rfm_th
    else:
        rfm_th = args.rfm_th
        for key in ("graphene", "twice", "cbt", "blockhammer", "para"):
            if args.scheme == key:
                kwargs = dict(flip_th=args.flip_th)
    scheme = build_scheme(args.scheme, **kwargs)
    report = run_safety_trace(
        scheme,
        _ATTACKS[args.attack](args.acts),
        flip_th=args.flip_th,
        rfm_th=rfm_th,
    )
    print(f"scheme:            {report.scheme_name}")
    print(f"attack:            {args.attack} ({report.acts_replayed} ACTs)")
    print(f"flips:             {len(report.flips)}")
    print(f"max disturbance:   {report.max_disturbance:.0f} "
          f"(FlipTH {report.flip_th})")
    print(f"headroom:          {report.headroom:.1%}")
    print(f"preventive rows:   {report.preventive_refresh_rows}")
    print(f"rfm commands:      {report.rfm_commands}")
    return 0 if report.safe else 1


def main(argv=None) -> int:
    from repro.campaigns import executor as campaign_executor

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mithril (HPCA 2022) reproduction toolkit",
    )
    parser.add_argument(
        "--log-level", choices=_LOG_LEVELS, default=None,
        help="enable stdlib logging at this level "
             f"(or set {LOG_ENV}; default: off)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments").set_defaults(
        func=_cmd_list
    )
    sub.add_parser("schemes", help="list schemes").set_defaults(
        func=_cmd_schemes
    )

    p_exp = sub.add_parser("experiment", help="run a paper experiment")
    p_exp.add_argument("id", choices=sorted(EXPERIMENTS))
    p_exp.add_argument("--scale", type=float, default=1.0,
                       help="trace-length multiplier (default 1.0)")
    p_exp.add_argument("--jobs", type=int, default=1,
                       help="worker processes for simulation jobs "
                            "(default 1 = serial; results are identical "
                            "at any setting)")
    p_exp.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk simulation result cache")
    p_exp.add_argument("--extra-workloads", nargs="+", metavar="KIND",
                       help="extra workload kinds evaluated as "
                            "per-kind panels (fig9/fig11; e.g. the "
                            "stress families)")
    p_exp.add_argument("--json", action="store_true",
                       help="emit raw JSON rows")
    p_exp.add_argument("--markdown", action="store_true",
                       help="emit a markdown table")
    p_exp.add_argument("--probes", metavar="DIR", default=None,
                       help="record scheme-internals probe streams "
                            "under DIR (sets REPRO_PROBES; render with "
                            "`repro probe report`)")
    p_exp.set_defaults(func=_cmd_experiment)

    p_fuzz = sub.add_parser(
        "fuzz", help="randomized adversary search against Mithril"
    )
    p_fuzz.add_argument("--flip-th", type=int, default=3_125)
    p_fuzz.add_argument("--iterations", type=int, default=20)
    p_fuzz.add_argument("--acts", type=int, default=60_000)
    p_fuzz.add_argument("--seed", type=int, default=1337)
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_cfg = sub.add_parser("configure", help="search Mithril configs")
    p_cfg.add_argument("flip_th", type=int)
    p_cfg.add_argument("--adaptive-th", type=int, default=0)
    p_cfg.set_defaults(func=_cmd_configure)

    p_cache = sub.add_parser(
        "cache", help="show or clear the simulation result cache"
    )
    p_cache.add_argument("--clear", action="store_true",
                         help="delete every cached result")
    p_cache.add_argument("--gc", metavar="VERSION",
                         help="delete one dead code-version generation "
                              "('stale' = every non-live generation)")
    p_cache.add_argument("--stats", action="store_true",
                         help="per-generation entry count, bytes, and "
                              "oldest/newest entry times")
    p_cache.add_argument("--query", metavar="KEY=VALUE[,KEY=VALUE]",
                         help="count entries in the live generation by "
                              "scheme/workload/experiment/flip_th "
                              "(served from the sharded index)")
    p_cache.add_argument("--migrate", action="store_true",
                         help="move flat legacy entries of the live "
                              "generation into sharded directories")
    p_cache.set_defaults(func=_cmd_cache)

    p_campaign = sub.add_parser(
        "campaign",
        help="declarative multi-experiment campaigns (docs/CAMPAIGNS.md)",
    )
    csub = p_campaign.add_subparsers(dest="campaign_command", required=True)

    c_list = csub.add_parser("list", help="list built-in campaigns")
    c_list.set_defaults(func=_cmd_campaign_list)

    def _campaign_common(parser, with_scale=False):
        parser.add_argument("name",
                            help="built-in campaign name or spec .json")
        parser.add_argument("--dir", default=None,
                            help="campaign state directory (default "
                                 "REPRO_CAMPAIGN_DIR or "
                                 "~/.cache/repro/campaigns)")
        if with_scale:
            parser.add_argument("--scale", type=float, default=None,
                                help="override every experiment's "
                                     "trace-length scale")

    c_plan = csub.add_parser(
        "plan", help="expand a campaign into its deduplicated job pool"
    )
    _campaign_common(c_plan, with_scale=True)
    c_plan.add_argument("--json", action="store_true")
    c_plan.set_defaults(func=_cmd_campaign_plan)

    c_run = csub.add_parser(
        "run", help="run (or resume) a campaign; checkpoints per batch"
    )
    _campaign_common(c_run, with_scale=True)
    c_run.add_argument("--jobs", type=int, default=1,
                       help="worker processes per batch")
    c_run.add_argument("--no-cache", action="store_true",
                       help="bypass the result cache (resume still "
                            "skips manifest-completed points)")
    c_run.add_argument("--batch-size", type=int, default=16,
                       help="points per manifest checkpoint "
                            "(default 16)")
    c_run.add_argument("--dry-run", action="store_true",
                       help="print the plan and pending-point count "
                            "without simulating")
    c_run.add_argument("--no-report", action="store_true",
                       help="skip writing report.md/report.json on "
                            "completion")
    c_run.add_argument("--max-retries", type=int, default=2,
                       help="retry budget per job before quarantine "
                            "(crash, exception, or timeout; default 2)")
    c_run.add_argument("--job-timeout", type=float, default=None,
                       help="per-job lease in seconds; a job past its "
                            "lease gets its worker killed and retries")
    c_run.add_argument("--retry-quarantined", action="store_true",
                       help="clear the manifest quarantine and retry "
                            "those points this run")
    c_run.add_argument("--probes", metavar="DIR", default=None,
                       help="record scheme-internals probe streams "
                            "under DIR (sets REPRO_PROBES; render with "
                            "`repro probe report`)")
    c_run.add_argument("--hosts", type=int, default=0,
                       help="distribute over N host agents (separate "
                            "processes; 0 = single-host in-process "
                            "executor).  --jobs becomes the per-host "
                            "worker count, --batch-size the assignment "
                            "chunk size")
    c_run.add_argument("--lease-timeout", type=float,
                       default=campaign_executor.DEFAULT_LEASE_TIMEOUT_S,
                       help="seconds without a heartbeat before a "
                            "host's lease expires and its outstanding "
                            "jobs reassign (default %(default)s)")
    c_run.add_argument("--heartbeat", type=float,
                       default=campaign_executor.DEFAULT_HEARTBEAT_S,
                       help="host agent heartbeat interval in seconds "
                            "(default %(default)s)")
    c_run.set_defaults(func=_cmd_campaign_run)

    c_agent = csub.add_parser(
        "agent",
        help="run one host agent (normally spawned by `campaign run "
             "--hosts`; same entry point an SSH launcher would exec)",
    )
    c_agent.add_argument("--host-id", required=True,
                         help="logical host id (mailbox host-<id>)")
    c_agent.add_argument("--cluster-dir", required=True,
                         help="cluster spool directory "
                              "(<campaign dir>/<name>/cluster)")
    c_agent.add_argument("--jobs", type=int, default=1,
                         help="worker processes on this host")
    c_agent.add_argument("--max-retries", type=int, default=2)
    c_agent.add_argument("--job-timeout", type=float, default=None)
    c_agent.add_argument("--heartbeat", type=float,
                         default=campaign_executor.DEFAULT_HEARTBEAT_S,
                         help="heartbeat interval in seconds "
                              "(default %(default)s)")
    c_agent.add_argument("--parent-pid", type=int, default=None,
                         help="exit when this pid disappears "
                              "(orphan cleanup for local launches)")
    c_agent.add_argument("--cache-dir", default=None,
                         help="result store override (defaults to "
                              "REPRO_CACHE_DIR)")
    c_agent.set_defaults(func=_cmd_campaign_agent)

    c_status = csub.add_parser(
        "status", help="progress of a campaign from its manifest"
    )
    _campaign_common(c_status)
    c_status.add_argument("--json", action="store_true")
    c_status.add_argument(
        "--follow", action="store_true",
        help="poll progress live (done/inflight/retried/quarantined, "
             "EMA throughput, ETA) until the campaign settles",
    )
    c_status.add_argument(
        "--interval", type=float, default=2.0,
        help="--follow poll interval in seconds (default 2)",
    )
    c_status.add_argument(
        "--ticks", type=int, default=None,
        help="stop --follow after N polls (default: until settled)",
    )
    c_status.add_argument(
        "--telemetry-dir", default=None,
        help="telemetry dir for inflight/retried counts "
             "(default: REPRO_TELEMETRY)",
    )
    c_status.set_defaults(func=_cmd_campaign_status)

    c_verify = csub.add_parser(
        "verify",
        help="audit exactly-once result integrity against the store",
    )
    _campaign_common(c_verify, with_scale=True)
    c_verify.add_argument("--json", action="store_true")
    c_verify.add_argument("--strict", action="store_true",
                          help="also fail on quarantined points "
                               "(the chaos CI gate)")
    c_verify.set_defaults(func=_cmd_campaign_verify)

    c_report = csub.add_parser(
        "report", help="render the campaign report (markdown or JSON)"
    )
    _campaign_common(c_report)
    c_report.add_argument("--jobs", type=int, default=1)
    c_report.add_argument("--json", action="store_true")
    c_report.add_argument("--output", default=None,
                          help="write to a file instead of stdout")
    c_report.add_argument("--probes-dir", default=None,
                          help="summarize probe streams under this "
                               "directory (default: REPRO_PROBES)")
    c_report.set_defaults(func=_cmd_campaign_report)

    p_prof = sub.add_parser(
        "profile", help="cProfile one workload x scheme simulation"
    )
    p_prof.add_argument("--workload", default="mix-high")
    p_prof.add_argument("--scheme", default="mithril")
    p_prof.add_argument("--scale", type=float, default=1.0)
    p_prof.add_argument("--flip-th", type=int, default=6_250)
    p_prof.add_argument("--backend", choices=["scalar", "turbo"],
                        default=None,
                        help="simulation backend to profile (default: "
                             "REPRO_SIM_BACKEND or turbo), so the "
                             "per-phase split can be compared across "
                             "backends")
    p_prof.add_argument("--sort", default="cumulative",
                        help="pstats sort key (cumulative/tottime/...)")
    p_prof.add_argument("--top", type=int, default=25,
                        help="number of rows to print")
    p_prof.set_defaults(func=_cmd_profile)

    p_traces = sub.add_parser(
        "traces", help="trace foundry: ingest, characterize, synth"
    )
    tsub = p_traces.add_subparsers(dest="traces_command", required=True)

    t_list = tsub.add_parser(
        "list", help="list workload kinds, readers, mapping policies"
    )
    t_list.set_defaults(func=_cmd_traces_list)

    t_synth = tsub.add_parser(
        "synth", help="generate a workload kind into a TraceSet"
    )
    t_synth.add_argument("kind", help="registered workload kind")
    t_synth.add_argument("-o", "--output", required=True,
                         help="TraceSet directory to write")
    t_synth.add_argument("--name", default=None,
                         help="TraceSet name (default: the kind)")
    t_synth.add_argument("--scale", type=float, default=1.0)
    t_synth.add_argument("--cores", type=int, default=4)
    t_synth.add_argument("--banks", type=int, default=16)
    t_synth.add_argument("--seed", type=int, default=None,
                         help="builder seed (default: the kind's)")
    t_synth.add_argument("--format", choices=("jsonl", "binary"),
                         default="jsonl")
    t_synth.add_argument("--gzip", action="store_true",
                         help="gzip the per-core trace files")
    t_synth.add_argument("--check", action="store_true",
                         help="assert the family's design targets")
    t_synth.set_defaults(func=_cmd_traces_synth)

    t_ingest = tsub.add_parser(
        "ingest", help="read external traces into a TraceSet"
    )
    t_ingest.add_argument("inputs", nargs="+",
                          help="one trace file per core")
    t_ingest.add_argument("-o", "--output", required=True,
                          help="TraceSet directory to write")
    t_ingest.add_argument("--name", default="ingested")
    t_ingest.add_argument("--format",
                          choices=("auto", "jsonl", "binary",
                                   "dramsim3-csv"),
                          default="auto",
                          help="input format (default: sniff per file)")
    t_ingest.add_argument("--mapping", default="row-bank-col",
                          help="address mapping policy for byte-addressed "
                               "formats (see `traces list`)")
    t_ingest.add_argument("--strict", action="store_true",
                          help="error on out-of-geometry entries instead "
                               "of clamping")
    t_ingest.add_argument("--write-format", choices=("jsonl", "binary"),
                          default="jsonl",
                          help="serialization for the written TraceSet")
    t_ingest.add_argument("--gzip", action="store_true",
                          help="gzip the written trace files")
    t_ingest.set_defaults(func=_cmd_traces_ingest)

    t_char = tsub.add_parser(
        "characterize", help="ACT-stream statistics of a TraceSet/file"
    )
    t_char.add_argument("path",
                        help="TraceSet directory or single trace file")
    t_char.add_argument("--json", action="store_true")
    t_char.add_argument("--per-core", action="store_true",
                        help="also characterize each core in isolation")
    t_char.set_defaults(func=_cmd_traces_characterize)

    t_smoke = tsub.add_parser(
        "smoke", help="build one tiny instance of every workload kind"
    )
    t_smoke.add_argument("--scale", type=float, default=0.1)
    t_smoke.set_defaults(func=_cmd_traces_smoke)

    p_trace = sub.add_parser(
        "trace",
        help="telemetry consumers: export / summarize a run timeline",
    )
    trsub = p_trace.add_subparsers(dest="trace_command", required=True)

    tr_export = trsub.add_parser(
        "export",
        help="merge event streams and export the run timeline",
    )
    tr_export.add_argument(
        "--format", choices=("perfetto", "merged"), default="perfetto",
        help="perfetto: Chrome trace-event JSON (Perfetto UI / "
             "chrome://tracing); merged: ordered newline-JSON",
    )
    tr_export.add_argument(
        "--telemetry-dir", default=None,
        help="telemetry dir to read (default: REPRO_TELEMETRY)",
    )
    tr_export.add_argument(
        "--output", default=None,
        help="write to this file instead of stdout",
    )
    tr_export.add_argument(
        "--probes-dir", default=None,
        help="also render probe streams under this directory as "
             "counter tracks (default: REPRO_PROBES)",
    )
    tr_export.set_defaults(func=_cmd_trace_export)

    tr_summary = trsub.add_parser(
        "summary", help="per-kind counts and span totals of a run"
    )
    tr_summary.add_argument("--telemetry-dir", default=None,
                            help="default: REPRO_TELEMETRY")
    tr_summary.add_argument("--json", action="store_true")
    tr_summary.add_argument("--top", type=int, default=10,
                            help="slowest individual spans to list "
                                 "(default 10)")
    tr_summary.set_defaults(func=_cmd_trace_summary)

    p_probe = sub.add_parser(
        "probe",
        help="scheme-internals probe streams (docs/OBSERVABILITY.md)",
    )
    psub = p_probe.add_subparsers(dest="probe_command", required=True)

    pr_report = psub.add_parser(
        "report",
        help="per-scheme p50/p95/p99 panels from recorded probe "
             "streams",
    )
    pr_report.add_argument("--probes-dir", default=None,
                           help="probe directory to read "
                                "(default: REPRO_PROBES)")
    pr_report.add_argument("--json", action="store_true")
    pr_report.add_argument("--output", default=None,
                           help="write to a file instead of stdout")
    pr_report.set_defaults(func=_cmd_probe_report)

    p_safe = sub.add_parser("safety", help="replay an attack")
    p_safe.add_argument("scheme", choices=scheme_names())
    p_safe.add_argument("--attack", choices=sorted(_ATTACKS),
                        default="double-sided")
    p_safe.add_argument("--flip-th", type=int, default=3_125)
    p_safe.add_argument("--rfm-th", type=int, default=64)
    p_safe.add_argument("--acts", type=int, default=200_000)
    p_safe.set_defaults(func=_cmd_safety)

    args = parser.parse_args(argv)
    _configure_logging(args.log_level)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
