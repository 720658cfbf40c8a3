"""Campaign benchmark: end-to-end and per-layer cost of the reproduction.

    python3 perfbench/run.py --workload campaign-cold --seed 0 \
        --seconds 10 --trace 0

Run from the repository root.  Every measured run is a fresh child
process (``child.py``) with its own ``REPRO_CACHE_DIR``,
``REPRO_CAMPAIGN_DIR`` and ``HOME`` and no other ``REPRO_*``
variable.  One discarded warm-up child comes first, so bytecode
compilation stays out of ``setup_s``.  Measured children run until
their timed regions add up to ``--seconds`` (at least
``MIN_REPS``); extra set-up-only children bring the set-up samples to
``SETUP_SAMPLES``.  Every figure reported is the median over the
children.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced children and prints the per-layer metrics.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it are
the same numbers as a table.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import SIM_COUNTS, SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent

#: End-to-end metrics (``--trace 0``), host time, name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "points_per_s": "1/s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

#: Per-layer metrics (``--trace 1``), name -> unit.  Seconds are self
#: time in the traced child; ``sim.*`` counts are simulated, exact.
PER_LAYER = {
    "cli.import_s": "s",
    "campaigns.plan_s": "s",
    "campaigns.run_s": "s",
    "workloads.build_s": "s",
    "workloads.build_calls": "count",
    "workloads.distinct_specs": "count",
    "workloads.reuse_ratio": "ratio",
    "engine.factory_s": "s",
    "sim.build_s": "s",
    "sim.drain_self_s": "s",
    "mc.serve_s": "s",
    "mc.refresh_s": "s",
    "mc.sched_s": "s",
    "tracker.activate_s": "s",
    "tracker.rfm_s": "s",
    "tracker.throttle_s": "s",
    "sim.events": "count",
    "sim.cycles": "cycles",
    "sim.acts": "count",
    "sim.rfm_commands": "count",
    "sim.arr_requests": "count",
    "sim.throttle_events": "count",
    "sim.host_ns_per_event": "ns",
    "store.get_s": "s",
    "store.get_calls": "count",
    "store.hit_ratio": "ratio",
    "store.verify_s": "s",
    "store.put_s": "s",
    "store.put_calls": "count",
    "durable.write_s": "s",
    "durable.writes": "count",
    "campaigns.manifest_save_s": "s",
    "campaigns.manifest_saves": "count",
    "campaigns.verify_s": "s",
    "campaigns.report_s": "s",
    "pool.run_s": "s",
    "pool.queue_wait_s": "s",
    "pool.worker_cpu_s": "s",
    "pool.retried": "count",
    "pool.idle_frac": "frac",
    "point.p50_ms": "ms",
    "point.p98_ms": "ms",
    "point.count": "count",
    "other.self_s": "s",
    "host.calib_s": "s",
    "trace.overhead_frac": "frac",
    "failed_frac": "frac",
}

#: Measured children per run, at least (timed regions permitting more).
MIN_REPS = 3
#: Ceiling on measured children per run.
MAX_REPS = 12
#: Set-up samples per ``--trace 0`` run (measured children included).
SETUP_SAMPLES = 9
#: A run gives up (exit 1, no result) after this many seconds.
DEADLINE_S = 170.0
#: Iterations of the host calibration loop (no repository code).
CALIB_ITERS = 1_000_000


class BenchError(RuntimeError):
    """A run that cannot produce a trustworthy result."""


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (median of three)."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(CALIB_ITERS):
            total += i * i % 7
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def child_env(base: dict, src: Path, run_dir: Path) -> dict:
    env = {
        key: value for key, value in base.items()
        if not key.startswith("REPRO_")
        and key not in ("PYTHONPATH", "PYTHONHOME", "PYTHONDONTWRITEBYTECODE")
    }
    env.update(
        PYTHONPATH=str(src),
        PYTHONHASHSEED="0",
        HOME=str(run_dir / "home"),
        TMPDIR=str(run_dir / "tmp"),
        REPRO_CACHE_DIR=str(run_dir / "cache"),
        REPRO_CAMPAIGN_DIR=str(run_dir / "campaigns"),
    )
    return env


class Bench:
    """One benchmark run: spawns the children and aggregates them."""

    def __init__(self, args, root: Path, work: Path):
        self.args = args
        self.root = root
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.spawned = 0
        self.spans_dir = root / ".bench_work" / "spans"

    def spawn(self, mode: str, trace: int = 0) -> dict:
        self.spawned += 1
        run_dir = self.work / f"{self.spawned:03d}-{mode}"
        for name in ("home", "tmp"):
            (run_dir / name).mkdir(parents=True)
        out = run_dir / "result.json"
        command = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--size", self.args.size,
            "--mode", mode,
            "--trace", str(trace),
            "--template", str(self.work / "store-template"),
            "--corrupt-entry", str(self.args.inject_corruption),
            "--out", str(out),
        ]
        if trace:
            self.spans_dir.mkdir(parents=True, exist_ok=True)
            command += ["--spans", str(
                self.spans_dir
                / f"{self.args.workload}-seed{self.args.seed}.json"
            )]
        log_path = run_dir / "child.log"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"time budget of {DEADLINE_S:.0f} s exhausted")
        started = time.monotonic()
        with open(log_path, "w") as log:
            proc = subprocess.Popen(
                command, cwd=self.root, stdout=log, stderr=subprocess.STDOUT,
                env=child_env(os.environ, self.root / "src", run_dir),
            )
            try:
                code = proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError(f"{mode} child exceeded the time budget")
        if code != 0:
            tail = log_path.read_text()[-3000:]
            raise BenchError(f"{mode} child exited with {code}:\n{tail}")
        data = json.loads(out.read_text())
        data["setup_s"] = data["setup_end"] - started
        shutil.rmtree(run_dir)
        return data

    def measure(self) -> dict:
        args = self.args
        calib_s = calibrate()
        self.spawn("warmup")
        untraced, traced, setups = [], [], []
        while True:
            rep = self.spawn("rep")
            untraced.append(rep)
            setups.append(rep["setup_s"])
            if args.trace:
                traced.append(self.spawn("rep", trace=1))
            elif len(setups) < SETUP_SAMPLES:
                setups.append(self.spawn("setup")["setup_s"])
            timed = sum(r["wall_s"] for r in untraced + traced)
            enough = args.trace or len(untraced) >= MIN_REPS
            if (enough and timed >= args.seconds) or len(untraced) >= MAX_REPS:
                break
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(self.spawn("setup")["setup_s"])
        return {
            "calib_s": calib_s,
            "untraced": untraced,
            "traced": traced,
            "setups": setups,
        }


def gate(children) -> tuple:
    """(attempted, failed, consistent): every child must report the
    same exact simulated counts; a child that does not fails whole."""
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    reference = children[0]["sim"]
    consistent = True
    for child in children[1:]:
        if child["sim"] != reference:
            consistent = False
            failed += child["attempted"] - child["failed"]
    return attempted, min(failed, attempted), consistent


def median_of(children, key) -> float:
    return statistics.median(key(c) for c in children)


def end_to_end(measured: dict, attempted: int, failed: int) -> dict:
    reps = measured["untraced"]
    return {
        "setup_s": statistics.median(measured["setups"]),
        "wall_s": median_of(reps, lambda c: c["wall_s"]),
        "cpu_s": median_of(reps, lambda c: c["cpu_s"]),
        "points_per_s": median_of(reps, lambda c: c["points"] / c["wall_s"]),
        "events_per_s": median_of(
            reps, lambda c: c["events"] / c["wall_s"]
        ),
        "peak_rss_mb": median_of(reps, lambda c: c["peak_rss_mb"]),
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(measured: dict, attempted: int, failed: int) -> dict:
    traced = measured["traced"]
    values = {
        name: median_of(traced, lambda c, n=name: c["layers"][n])
        for name in traced[0]["layers"]
    }
    for name in SIM_COUNTS:
        values[f"sim.{name}"] = traced[0]["sim"][name]
    values["host.calib_s"] = measured["calib_s"]
    values["trace.overhead_frac"] = (
        median_of(traced, lambda c: c["wall_s"])
        / median_of(measured["untraced"], lambda c: c["wall_s"]) - 1.0
    )
    values["failed_frac"] = failed / attempted
    return values


def table(title: str, metrics: dict) -> str:
    lines = [title]
    for name, entry in metrics.items():
        lines.append(f"  {name:<28} {entry['value']:>16.6g} {entry['unit']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input size; 'tiny' is for the self-tests")
    parser.add_argument("--inject-corruption", type=int, choices=(0, 1),
                        default=0, help="self-test: corrupt one stored "
                        "result before store-warm's timed region")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {root}; run from the "
              "repository root", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        measured = Bench(args, root, work).measure()
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    children = measured["untraced"] + measured["traced"]
    attempted, failed, consistent = gate(children)
    if args.trace:
        values, units = per_layer(measured, attempted, failed), PER_LAYER
    else:
        values, units = end_to_end(measured, attempted, failed), END_TO_END
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
    }
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(measured['untraced'])} untraced, "
          f"{len(measured['traced'])} traced children; "
          f"host.calib_s {measured['calib_s']:.4f} s")
    for index, child in enumerate(children):
        kind = "traced" if child["layers"] else "untraced"
        print(f"  child {index} ({kind}): wall {child['wall_s']:.4f} s, "
              f"cpu {child['cpu_s']:.4f} s, setup {child['setup_s']:.4f} s, "
              f"points {child['points']}, events {child['events']}")
    print(table("metrics:", metrics))
    print(json.dumps({
        "correct": consistent and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
