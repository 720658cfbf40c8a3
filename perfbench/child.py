"""One benchmark run, in a fresh process started by ``run.py``.

    python3 perfbench/child.py --workload W --seed N --size full \
        --mode rep --trace 0 --out result.json [--template DIR]

The child imports ``repro`` (``PYTHONPATH`` points at ``src/``), sets
up the workload's inputs from the seed, records the monotonic instant
of its first timed call, runs the timed region through the public
entry points (``run_campaign``, ``run_jobs``, ``verify_campaign``,
``build_report``) with their defaults, then checks the outputs and
writes one JSON result to ``--out``.  ``run.py`` owns the
environment: fresh ``REPRO_CACHE_DIR``/``REPRO_CAMPAIGN_DIR``/``HOME``
and no other ``REPRO_*`` variable.

Modes: ``setup`` stops at the first timed call (a set-up sample),
``rep`` is a measured run, ``warmup`` is a discarded run that also
fills the store template ``store-warm`` copies in its set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

WORKLOADS = ("campaign-cold", "drain-long", "store-warm", "campaign-pool")

#: Input seeds step by this much per ``--seed``; seed 0 is the
#: built-in set (paper-scale's first attack seed, the medium preset's
#: workload seeds) and seeds 0..4 walk paper-scale's attack battery.
SEED_STRIDE = 10

#: Per-size knobs.  ``tiny`` exists for the benchmark's own tests.
SIZES = {
    "full": {
        "campaign_scale": 0.05,
        "flip_thresholds": [12_500, 6_250, 3_125, 1_500],
        "drain_scale": 1.5,
        "warm_passes": 16,
    },
    "tiny": {
        "campaign_scale": 0.02,
        "flip_thresholds": [6_250],
        "drain_scale": 0.1,
        "warm_passes": 2,
    },
}

#: drain-long's warm-up only has to load the same code.
WARMUP_DRAIN_SCALE = 0.05

#: Results the gate recomputes with ``execute_job``: a few of a
#: campaign's cheap points, one of drain-long's long pairs.
CAMPAIGN_SAMPLE = 4
DRAIN_SAMPLE = 1

#: Lease for ``campaign-pool`` jobs; far above any point's run time,
#: so it only forces the supervised one-worker pool.
POOL_JOB_TIMEOUT_S = 120.0

#: The exact simulated counts every run reports and the gate compares.
SIM_COUNTS = (
    "events", "cycles", "acts", "rfm_commands", "arr_requests",
    "throttle_events",
)


def campaign_spec(seed: int, size: str):
    """paper-scale's fig10 experiment with one seed-derived attack seed.

    fig10 is Mithril and Mithril+ against the RFM strawman (PARFM) and
    BlockHammer over the full FlipTH grid: 185 points over 17 distinct
    workload specs (~11 points per spec, as in the full campaign).
    """
    from repro.campaigns import CampaignSpec, ExperimentSpec, get_campaign
    from repro.campaigns.spec import PAPER_SCALE_ATTACK_SEEDS

    knobs = SIZES[size]
    paper = {e.name: e for e in get_campaign("paper-scale").experiments}
    base = paper["fig10-paper"]
    params = dict(base.params)
    params["scale"] = knobs["campaign_scale"]
    params["attack_seeds"] = [
        PAPER_SCALE_ATTACK_SEEDS[0] + SEED_STRIDE * seed
    ]
    if knobs["flip_thresholds"] is not None:
        params["flip_thresholds"] = list(knobs["flip_thresholds"])
    return CampaignSpec(
        name="perfbench-fig10",
        description="paper-scale fig10 subset (benchmark input)",
        experiments=[ExperimentSpec(base.name, base.kind, params)],
    )


def drain_jobs(seed: int, scale: float):
    """The medium speed preset's 10 pairs at ``scale``, seed-shifted."""
    from repro.engine import SimJob, WorkloadSpec
    from repro.speed import _PAIRS, BENCH_FLIP_TH

    jobs = []
    for kind, params, scheme in _PAIRS["medium"]:
        shifted = dict(params, seed=params["seed"] + SEED_STRIDE * seed)
        spec = WorkloadSpec.make(kind, scale=scale, **shifted)
        jobs.append(SimJob(
            workload=spec, scheme=scheme, flip_th=BENCH_FLIP_TH, scale=scale
        ))
    return jobs


def sim_counts(results) -> dict:
    """Exact simulated counts summed over results (served requests =
    trace events: every trace entry is served exactly once)."""
    counts = dict.fromkeys(SIM_COUNTS, 0)
    for result in results:
        counts["events"] += result.row_hits + result.row_misses
        counts["cycles"] += result.total_cycles
        counts["acts"] += result.acts
        counts["rfm_commands"] += result.rfm_commands
        counts["arr_requests"] += result.arr_requests
        counts["throttle_events"] += result.throttle_events
    return counts


def recompute_mismatches(jobs, results, size: int = CAMPAIGN_SAMPLE) -> int:
    """How many of a fixed sample (spread over the job hashes) differ
    from a direct execute_job recomputation."""
    from repro.engine import execute_job, result_to_dict

    order = sorted(range(len(jobs)), key=lambda i: jobs[i].job_hash())
    sample = order[::max(1, len(order) // size)][:size]
    return sum(
        1 for i in sample
        if results[i] is None
        or result_to_dict(execute_job(jobs[i])) != result_to_dict(results[i])
    )


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


class CampaignCold:
    """A cold serial run_campaign with a fresh store and manifest."""

    job_timeout = None

    def __init__(self, args):
        self.args = args

    def setup(self) -> None:
        from repro.campaigns import plan_campaign

        # The discarded warm-up only has to load the same code.
        size = "tiny" if self.args.mode == "warmup" else self.args.size
        self.spec = campaign_spec(self.args.seed, size)
        self.plan = plan_campaign(self.spec)
        self.points = self.plan.total_points

    def run(self) -> None:
        from repro.campaigns import run_campaign

        self.outcome = run_campaign(self.spec, job_timeout=self.job_timeout)

    def check(self) -> dict:
        from repro.campaigns import verify_campaign
        from repro.engine import ResultCache

        verdict = verify_campaign(self.spec)
        bad = set(self.outcome.quarantined)
        for key in ("missing", "corrupt", "unaccounted", "duplicates"):
            bad.update(verdict[key])
        if not self.outcome.complete:
            bad.update(self.plan.jobs)
        jobs = list(self.plan.jobs.values())
        cache = ResultCache()
        results = [cache.get(job) for job in jobs]
        failed = len(bad) + recompute_mismatches(jobs, results)
        return {
            "attempted": self.points,
            "failed": min(failed, self.points),
            "sim": sim_counts(r for r in results if r is not None),
        }


class CampaignPool(CampaignCold):
    """campaign-cold's inputs through SupervisedPool with one worker
    (a ``job_timeout`` makes run_jobs use the pool at ``n_jobs=1``)."""

    job_timeout = POOL_JOB_TIMEOUT_S


class StoreWarm:
    """Repeated warm passes over a filled store: run_campaign with a
    fresh manifest (all cache hits), verify_campaign, build_report."""

    def __init__(self, args):
        self.args = args

    def setup(self) -> None:
        from repro.campaigns import plan_campaign

        self.spec = campaign_spec(self.args.seed, self.args.size)
        self.plan = plan_campaign(self.spec)
        cache_dir = Path(os.environ["REPRO_CACHE_DIR"])
        if self.args.mode == "warmup":
            from repro.campaigns import run_campaign

            run_campaign(self.spec)
            shutil.copytree(cache_dir, self.args.template)
        else:
            shutil.copytree(self.args.template, cache_dir)
            if self.args.corrupt_entry:
                _corrupt_one_entry(cache_dir)
        self.passes = (
            1 if self.args.mode == "warmup"
            else SIZES[self.args.size]["warm_passes"]
        )
        self.points = self.plan.total_points * self.passes
        self.bad = 0

    def run(self) -> None:
        from repro.campaigns import build_report, run_campaign, verify_campaign

        root = Path(os.environ["REPRO_CAMPAIGN_DIR"])
        for index in range(self.passes):
            directory = root / f"pass-{index}"
            outcome = run_campaign(self.spec, directory=directory)
            verdict = verify_campaign(self.spec, directory=directory)
            report = build_report(self.spec, directory=directory)
            served = outcome.stats.cache_hits
            replayed = sum(
                e["replay"]["cache_hits"] for e in report["experiments"]
            )
            missed = self.plan.total_points - min(served, replayed)
            if not (verdict["ok"] and outcome.complete):
                missed = self.plan.total_points
            self.bad += missed

    def check(self) -> dict:
        from repro.engine import ResultCache

        jobs = list(self.plan.jobs.values())
        cache = ResultCache()
        results = [cache.get(job) for job in jobs]
        failed = self.bad + recompute_mismatches(jobs, results)
        counts = sim_counts(r for r in results if r is not None)
        return {
            "attempted": self.points,
            "failed": min(failed, self.points),
            "sim": counts,
            "events": counts["events"] * self.passes,
        }


class DrainLong:
    """The medium pairs at long trace length through run_jobs,
    serially, with the store off: the event drain is the work."""

    def __init__(self, args):
        self.args = args

    def setup(self) -> None:
        scale = (
            WARMUP_DRAIN_SCALE if self.args.mode == "warmup"
            else SIZES[self.args.size]["drain_scale"]
        )
        self.jobs = drain_jobs(self.args.seed, scale)
        self.points = len(self.jobs)

    def run(self) -> None:
        from repro.engine import run_jobs

        self.results = run_jobs(self.jobs, use_cache=False)

    def check(self) -> dict:
        failed = sum(1 for r in self.results if r is None)
        failed += recompute_mismatches(self.jobs, self.results, DRAIN_SAMPLE)
        return {
            "attempted": self.points,
            "failed": min(failed, self.points),
            "sim": sim_counts(r for r in self.results if r is not None),
        }


CLASSES = {
    "campaign-cold": CampaignCold,
    "drain-long": DrainLong,
    "store-warm": StoreWarm,
    "campaign-pool": CampaignPool,
}


def _corrupt_one_entry(cache_dir: Path) -> None:
    """Truncate one stored result (the gate's self-test)."""
    from repro.engine.store import is_shard_dir

    entries = sorted(
        p for p in cache_dir.rglob("*.json") if is_shard_dir(p.parent)
    )
    target = entries[len(entries) // 2]
    target.write_text(target.read_text()[:40])


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    )


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _percentile_ms(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank] * 1000.0


def layer_metrics(tracer, import_s: float) -> dict:
    """Per-layer numbers from one traced run (seconds are self time)."""
    self_s, calls = tracer.self_s, tracer.calls
    build_calls = calls.get("workloads.build", 0)
    get_calls = calls.get("store.get", 0)
    points = tracer.durations("point")
    pool = tracer.pool
    slot = pool.get("worker_slot_s", 0.0)
    return {
        "cli.import_s": import_s,
        "campaigns.plan_s": self_s.get("campaigns.plan", 0.0),
        "campaigns.run_s": self_s.get("campaigns.run", 0.0),
        "workloads.build_s": self_s.get("workloads.build", 0.0),
        "workloads.build_calls": build_calls,
        "workloads.distinct_specs": len(tracer.specs),
        "workloads.reuse_ratio": (
            len(tracer.specs) / build_calls if build_calls else 0.0
        ),
        "engine.factory_s": self_s.get("engine.factory", 0.0),
        "sim.build_s": self_s.get("sim.build", 0.0),
        "sim.drain_self_s": self_s.get("sim.drain", 0.0),
        "mc.serve_s": self_s.get("mc.serve", 0.0),
        "mc.refresh_s": self_s.get("mc.refresh", 0.0),
        "mc.sched_s": self_s.get("mc.sched", 0.0),
        "tracker.activate_s": self_s.get("tracker.activate", 0.0),
        "tracker.rfm_s": self_s.get("tracker.rfm", 0.0),
        "tracker.throttle_s": self_s.get("tracker.throttle", 0.0),
        "store.get_s": self_s.get("store.get", 0.0),
        "store.get_calls": get_calls,
        "store.hit_ratio": (
            tracer.store_hits / get_calls if get_calls else 0.0
        ),
        "store.verify_s": self_s.get("store.verify", 0.0),
        "store.put_s": self_s.get("store.put", 0.0),
        "store.put_calls": calls.get("store.put", 0),
        "durable.write_s": self_s.get("durable.write", 0.0),
        "durable.writes": calls.get("durable.write", 0),
        "campaigns.manifest_save_s": self_s.get(
            "campaigns.manifest_save", 0.0
        ),
        "campaigns.manifest_saves": calls.get("campaigns.manifest_save", 0),
        "campaigns.verify_s": self_s.get("campaigns.verify", 0.0),
        "campaigns.report_s": self_s.get("campaigns.report", 0.0),
        "pool.run_s": self_s.get("pool.run", 0.0),
        "pool.queue_wait_s": pool.get("queue_wait_s", 0.0),
        "pool.worker_cpu_s": pool.get("worker_cpu_s", 0.0),
        "pool.retried": int(pool.get("retried", 0)),
        "pool.idle_frac": (
            1.0 - pool.get("worker_cpu_s", 0.0) / slot if slot else 0.0
        ),
        "point.p50_ms": _percentile_ms(points, 0.50),
        "point.p98_ms": _percentile_ms(points, 0.98),
        "point.count": len(points),
        "other.self_s": self_s.get("run", 0.0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--mode", choices=("warmup", "setup", "rep"),
                        default="rep")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--template", type=Path)
    parser.add_argument("--corrupt-entry", type=int, choices=(0, 1),
                        default=0)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import repro  # noqa: F401
    import repro.campaigns  # noqa: F401
    import repro.engine  # noqa: F401
    import_s = time.perf_counter() - start

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(run_id=f"{args.workload}-{os.getpid()}")
        tracing.install(tracer)

    workload = CLASSES[args.workload](args)
    workload.setup()
    setup_end = time.monotonic()
    if args.mode == "setup":
        args.out.write_text(json.dumps({"setup_end": setup_end}))
        return 0

    cpu_before = _cpu_s()
    wall_start = time.perf_counter()
    if tracer is not None:
        tracer.run_root("run", workload.run)
    else:
        workload.run()
    wall_s = time.perf_counter() - wall_start
    cpu_s = _cpu_s() - cpu_before
    peak_rss_mb = _peak_rss_mb()
    layers = None
    if tracer is not None:
        # Snapshot before the gate, whose calls are traced too.
        layers = layer_metrics(tracer, import_s)
        drain_s = tracer.total_s.get("sim.drain", 0.0)
        if args.spans is not None:
            tracer.dump(args.spans)

    verdict = workload.check()
    if layers is not None:
        events = verdict["sim"]["events"]
        layers["sim.host_ns_per_event"] = (
            drain_s / events * 1e9 if events else 0.0
        )
    args.out.write_text(json.dumps({
        "setup_end": setup_end,
        "import_s": import_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "points": workload.points,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "sim": verdict["sim"],
        "events": verdict.get("events", verdict["sim"]["events"]),
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
