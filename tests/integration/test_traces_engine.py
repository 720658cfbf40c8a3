"""Integration: TraceSets and stress families through the engine.

Pins the ISSUE's acceptance criteria: a ``trace:<path>`` job and a
generated ``capacity-pressure`` job both run end-to-end through
``run_jobs()`` with caching (warm cache => zero simulate calls), and
the shipped example TraceSet stays loadable, digest-stable and
characterizable.
"""

import json
from pathlib import Path

import pytest

from repro.engine import (
    SimJob,
    WorkloadSpec,
    build_workload,
    run_jobs,
    traceset_spec,
)
from repro.traces import (
    TraceSet,
    capacity_pressure,
    characterize_traceset,
    characterize_workload,
    ingest_files,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLE_SET = REPO_ROOT / "examples" / "traces" / "example-set"


def _tiny_traceset(tmp_path, compress=False) -> Path:
    directory = tmp_path / "set"
    TraceSet(
        name="tiny",
        traces=capacity_pressure(num_cores=2, num_requests=80,
                                 num_banks=8, seed=5),
        provenance={"kind": "generated", "generator": "test"},
    ).save(directory, format="binary", compress=compress)
    return directory


class TestTraceSetRoundTrip:
    def test_save_load_preserves_traces_and_provenance(self, tmp_path):
        directory = _tiny_traceset(tmp_path, compress=True)
        loaded = TraceSet.load(directory)
        assert loaded.name == "tiny"
        assert loaded.provenance["generator"] == "test"
        assert len(loaded.traces) == 2
        rebuilt = capacity_pressure(num_cores=2, num_requests=80,
                                    num_banks=8, seed=5)
        assert [list(t) for t in loaded.traces] == [
            list(t) for t in rebuilt
        ]

    def test_digest_is_format_independent(self, tmp_path):
        traces = capacity_pressure(num_cores=1, num_requests=40, seed=6)
        a = TraceSet(name="x", traces=traces)
        binary_dir, jsonl_dir = tmp_path / "b", tmp_path / "j"
        a.save(binary_dir, format="binary", compress=True)
        a.save(jsonl_dir, format="jsonl")
        assert (TraceSet.load(binary_dir).digest()
                == TraceSet.load(jsonl_dir).digest() == a.digest())

    def test_corrupt_core_file_is_detected(self, tmp_path):
        directory = _tiny_traceset(tmp_path)
        manifest = json.loads((directory / "manifest.json").read_text())
        victim = directory / manifest["cores"][0]["file"]
        victim.write_bytes(victim.read_bytes()[:-1])
        with pytest.raises(ValueError, match="sha256 mismatch"):
            TraceSet.load(directory)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            TraceSet.load(tmp_path)

    def test_resave_removes_orphaned_core_files(self, tmp_path):
        directory = tmp_path / "set"
        three = TraceSet(
            name="shrinking",
            traces=capacity_pressure(num_cores=3, num_requests=20,
                                     seed=4),
        )
        three.save(directory, format="jsonl")
        assert len(list(directory.glob("core*"))) == 3
        TraceSet(
            name="shrinking", traces=three.traces[:1]
        ).save(directory, format="binary")
        loaded = TraceSet.load(directory)
        assert len(loaded.traces) == 1
        # the two dropped cores' files are gone, not silently orphaned
        assert len(list(directory.glob("core*"))) == 1

    def test_gzip_digest_covers_decompressed_content(self, tmp_path):
        """Manifests stay valid across zlib implementations."""
        import json as json_mod

        directory = _tiny_traceset(tmp_path, compress=True)
        manifest = json_mod.loads(
            (directory / "manifest.json").read_text()
        )
        core = manifest["cores"][0]
        import gzip
        import hashlib

        raw = gzip.decompress(
            (directory / core["file"]).read_bytes()
        )
        assert core["sha256"] == hashlib.sha256(raw).hexdigest()


class TestTraceJobsThroughEngine:
    """The acceptance-criteria checks."""

    def test_trace_job_end_to_end_with_warm_cache(self, tmp_path):
        directory = _tiny_traceset(tmp_path)
        spec = traceset_spec(directory, max_requests=60)
        jobs = [
            SimJob(workload=spec),
            SimJob(workload=spec, scheme="mithril", flip_th=6_250),
        ]
        cold = run_jobs(jobs, cache_dir=tmp_path / "cache")
        assert run_jobs.last_stats.simulated == 2
        assert cold[0].total_cycles > 0
        assert cold[1].scheme_name == "MithrilScheme"
        warm = run_jobs(jobs, cache_dir=tmp_path / "cache")
        assert run_jobs.last_stats.simulated == 0
        assert run_jobs.last_stats.cache_hits == 2
        assert warm == cold

    def test_capacity_pressure_job_end_to_end_with_warm_cache(
        self, tmp_path
    ):
        job = SimJob(
            workload=WorkloadSpec.make("capacity-pressure", scale=0.1,
                                       num_cores=2),
            scheme="graphene",
            flip_th=6_250,
        )
        cold = run_jobs([job], cache_dir=tmp_path / "cache")
        assert run_jobs.last_stats.simulated == 1
        warm = run_jobs([job], cache_dir=tmp_path / "cache")
        assert run_jobs.last_stats.simulated == 0
        assert warm == cold

    def test_rewritten_traceset_misses_the_stale_cache(self, tmp_path):
        directory = _tiny_traceset(tmp_path)
        before = traceset_spec(directory)
        TraceSet(
            name="tiny",
            traces=capacity_pressure(num_cores=2, num_requests=80,
                                     num_banks=8, seed=99),
        ).save(directory, format="binary")
        after = traceset_spec(directory)
        assert before.params != after.params  # digest param moved
        assert (SimJob(workload=before).job_hash()
                != SimJob(workload=after).job_hash())

    def test_trace_kind_builder_truncates_and_folds(self, tmp_path):
        directory = _tiny_traceset(tmp_path)
        spec = traceset_spec(directory, max_requests=10, num_banks=2)
        traces = build_workload(spec)
        assert all(len(t) == 10 for t in traces)
        assert all(e.bank_index < 2 for t in traces for e in t)

    def test_single_file_trace_job(self, tmp_path):
        path = tmp_path / "solo.jsonl"
        capacity_pressure(num_cores=1, num_requests=50, seed=8)[0].save(
            path
        )
        result = run_jobs(
            [SimJob(workload=traceset_spec(path))],
            cache_dir=tmp_path / "cache",
        )[0]
        assert result.total_cycles > 0


class TestShippedExampleSet:
    def test_loads_and_matches_committed_digest(self):
        traceset = TraceSet.load(EXAMPLE_SET)
        manifest = json.loads(
            (EXAMPLE_SET / "manifest.json").read_text()
        )
        assert traceset.digest() == manifest["digest"]
        assert {core["format"] for core in manifest["cores"]} == {
            "jsonl", "binary",
        }

    def test_characterizes(self):
        aggregate, per_core = characterize_traceset(
            TraceSet.load(EXAMPLE_SET)
        )
        assert aggregate.requests == 320
        assert len(per_core) == 2

    def test_runs_through_the_engine(self, tmp_path):
        job = SimJob(workload=traceset_spec(EXAMPLE_SET))
        result = run_jobs([job], cache_dir=tmp_path / "cache")[0]
        assert result.total_cycles > 0
        assert len(result.per_core_instructions) == 2


class TestIngestedWorkload:
    def test_csv_ingest_to_engine(self, tmp_path):
        source = tmp_path / "log.csv"
        lines = ["addr,cycle,op"]
        for i in range(60):
            lines.append(f"{64 * (17 * i % 4096)},{10 * i},"
                         f"{'WRITE' if i % 3 == 0 else 'READ'}")
        source.write_text("\n".join(lines) + "\n")
        traceset = ingest_files([source], name="csv-import",
                                mapping="row-bank-col")
        directory = tmp_path / "imported"
        traceset.save(directory)
        char = characterize_workload(TraceSet.load(directory).traces)
        assert char.requests == 60
        result = run_jobs(
            [SimJob(workload=traceset_spec(directory))],
            cache_dir=tmp_path / "cache",
        )[0]
        assert result.total_cycles > 0
