"""Campaign reports: per-experiment rows, slowdown panels, cache stats.

A report is assembled *from the drivers*, not from raw cache entries:
each experiment is re-run through
:func:`~repro.experiments.runner.run_experiment` with the campaign's
exact parameters (its driver's ``build_plan`` runs and ``rows`` reduces
the results), which on a completed campaign is a pure warm-cache replay
(``simulated == 0``) — the report generator proves its own freshness
by recording the executor stats of every replay.

The JSON form is the full structure; the markdown form renders each
experiment's main rows, one table per stress-family panel (rows tagged
``"panel"``), and a worst-case slowdown summary per experiment
(relative performance < 100 means the scheme slowed the workload
down).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.analysis.report import markdown_table, split_panels
from repro.campaigns.executor import CampaignManifest, manifest_path
from repro.campaigns.spec import CampaignError, CampaignSpec
from repro.engine.executor import run_jobs


def _rel_perf_keys(row: Dict[str, Any]) -> List[str]:
    return [
        key for key, value in row.items()
        if key.endswith("rel_perf_pct") and isinstance(value, (int, float))
    ]


def _slowdown_summary(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Worst relative performance per metric across ``rows``."""
    worst: Dict[str, float] = {}
    for row in rows:
        for key in _rel_perf_keys(row):
            value = float(row[key])
            if key not in worst or value < worst[key]:
                worst[key] = value
    return {
        key: {
            "worst_rel_perf_pct": round(value, 3),
            "max_slowdown_pct": round(100.0 - value, 3),
        }
        for key, value in sorted(worst.items())
    }


def _probe_stream_rows(paths) -> List[Dict[str, Any]]:
    """Compact per-stream summaries (file, scheme, samples, sealed)."""
    from repro.sim.probes import read_probe_stream

    rows = []
    for path in paths:
        records, sealed = read_probe_stream(path)
        header = next(
            (r for r in records if r.get("k") == "header"), {}
        )
        rows.append({
            "file": path.name,
            "scheme": header.get("scheme", "?"),
            "samples": sum(
                1 for r in records if r.get("k") == "sample"
            ),
            "sealed": sealed,
        })
    return rows


def build_report(
    spec: CampaignSpec,
    directory=None,
    n_jobs: int = 1,
    use_cache: bool = True,
    probes_dir=None,
) -> Dict[str, Any]:
    """Assemble the report dict for a campaign.

    Requires the campaign's manifest to exist (``campaign run`` first;
    an incomplete campaign reports, but the replay simulates whatever
    is missing).

    With ``probes_dir`` the report also summarizes the probe streams
    (:mod:`repro.sim.probes`) under that directory: streams recorded
    *during* an experiment's replay (a warm-cache replay simulates
    nothing and records nothing) are attributed to that experiment,
    and every stream appears in the top-level ``probes`` panel.
    """
    manifest = CampaignManifest.load(manifest_path(spec.name, directory))
    if manifest is None:
        raise CampaignError(
            f"campaign {spec.name!r} has no manifest yet — "
            "run `repro campaign run` (or `plan`) first"
        )
    from repro.experiments.runner import run_experiment

    if probes_dir is not None:
        from repro.sim.probes import probe_files

    experiments = []
    for experiment in manifest.data.get("experiments") or []:
        kind = experiment["kind"]
        seen_streams = (
            {p.name for p in probe_files(probes_dir)}
            if probes_dir is not None else set()
        )
        rows = run_experiment(
            kind, n_jobs=n_jobs, use_cache=use_cache,
            **(experiment.get("params") or {}),
        )
        replay_stats = run_jobs.last_stats
        main_rows, panels = split_panels(rows)
        experiments.append(
            {
                "name": experiment["name"],
                "kind": kind,
                "params": experiment.get("params") or {},
                "rows": main_rows,
                "panels": panels,
                "slowdowns": _slowdown_summary(main_rows),
                "panel_slowdowns": {
                    family: _slowdown_summary(panel_rows)
                    for family, panel_rows in panels.items()
                },
                "replay": {
                    "simulated": replay_stats.simulated,
                    "cache_hits": replay_stats.cache_hits,
                    "unique_points": replay_stats.unique,
                },
            }
        )
        if probes_dir is not None:
            experiments[-1]["probes"] = _probe_stream_rows([
                p for p in probe_files(probes_dir)
                if p.name not in seen_streams
            ])
    report_probes = None
    if probes_dir is not None:
        report_probes = {
            "directory": str(probes_dir),
            "streams": _probe_stream_rows(probe_files(probes_dir)),
        }
    return {
        "campaign": spec.name,
        "description": manifest.data.get("description", spec.description),
        "status": manifest.status,
        "code_version": manifest.data.get("code_version"),
        "total_points": manifest.data.get("total_points"),
        "completed_points": len(manifest.completed),
        "quarantined_points": len(manifest.quarantined),
        "quarantined": manifest.quarantined,
        "runs": manifest.data.get("runs") or [],
        "experiments": experiments,
        "probes": report_probes,
    }


def format_report(report: Dict[str, Any]) -> str:
    """Render a report dict as markdown."""
    lines = [
        f"# Campaign report: {report['campaign']}",
        "",
        report.get("description") or "",
        "",
        f"- status: **{report['status']}** "
        f"({report['completed_points']}/{report['total_points']} points)",
        f"- code version: `{report.get('code_version')}`",
    ]
    runs = report.get("runs") or []
    if runs:
        total_sim = sum(r.get("simulated", 0) for r in runs)
        total_hits = sum(r.get("cache_hits", 0) for r in runs)
        lines.append(
            f"- executor history: {len(runs)} run(s), "
            f"{total_sim} point(s) simulated, "
            f"{total_hits} served from cache"
        )
    quarantined = report.get("quarantined") or {}
    if quarantined:
        lines += [
            "",
            f"## Quarantined points ({len(quarantined)})",
            "",
            "These points exhausted their retry budget and were "
            "skipped; rerun with `--retry-quarantined` once the cause "
            "is fixed.",
            "",
        ]
        for job_hash, record in sorted(quarantined.items()):
            lines.append(
                f"- `{job_hash[:12]}` {record.get('scheme')}/"
                f"{record.get('workload')}: {record.get('reason')} "
                f"after {record.get('attempts')} attempt(s) — "
                f"{record.get('message')}"
            )
    probes = report.get("probes")
    if probes:
        streams = probes.get("streams") or []
        sealed = sum(1 for s in streams if s.get("sealed"))
        lines += [
            "",
            f"## Probe streams ({probes.get('directory')})",
            "",
            f"{len(streams)} stream(s), {sealed} sealed — render with "
            "`repro probe report --probes-dir "
            f"{probes.get('directory')}`",
        ]
        if streams:
            lines += ["", markdown_table(streams)]
    for experiment in report.get("experiments") or []:
        replay = experiment.get("replay") or {}
        lines += [
            "",
            f"## {experiment['name']} ({experiment['kind']})",
            "",
            f"report replay: {replay.get('simulated', '?')} simulated, "
            f"{replay.get('cache_hits', '?')} cache hits over "
            f"{replay.get('unique_points', '?')} unique points",
            "",
            markdown_table(experiment.get("rows") or []),
        ]
        experiment_probes = experiment.get("probes")
        if experiment_probes:
            sealed = sum(
                1 for s in experiment_probes if s.get("sealed")
            )
            lines.append(
                f"- probe streams recorded during replay: "
                f"{len(experiment_probes)} ({sealed} sealed)"
            )
        for metric, summary in (experiment.get("slowdowns") or {}).items():
            lines.append(
                f"- worst `{metric}`: {summary['worst_rel_perf_pct']} "
                f"(slowdown {summary['max_slowdown_pct']}%)"
            )
        for family, rows in (experiment.get("panels") or {}).items():
            lines += [
                "",
                f"### panel: {family}",
                "",
                markdown_table(rows),
            ]
            family_summary = (
                experiment.get("panel_slowdowns") or {}
            ).get(family) or {}
            for metric, summary in family_summary.items():
                lines.append(
                    f"- worst `{metric}`: "
                    f"{summary['worst_rel_perf_pct']} "
                    f"(slowdown {summary['max_slowdown_pct']}%)"
                )
    return "\n".join(lines) + "\n"
