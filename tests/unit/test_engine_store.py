"""Unit tests for the sharded result store."""

import hashlib
import json
import time
from pathlib import Path

from repro.engine import (
    ResultCache,
    SimJob,
    WorkloadSpec,
    code_version,
)
from repro.engine.cache import result_to_dict
from repro.engine.durable import seal
from repro.engine.store import (
    count_entries,
    generation_stats,
    is_shard_dir,
    iter_entry_paths,
    shard_name,
)
from repro.sim.metrics import SimulationResult
from repro.types import EnergyCounts


def _job(**knobs):
    return SimJob(
        workload=WorkloadSpec.make("fft", seed=21, scale=0.1), **knobs
    )


def _result():
    return SimulationResult(
        scheme_name="none",
        total_cycles=1234,
        per_core_instructions=[10, 20],
        per_core_finish_cycles=[1000, 1234],
        energy=EnergyCounts(acts=5, reads=7),
        acts=5,
        row_hits=3,
        row_misses=2,
    )


class TestShardedLayout:
    def test_writes_land_in_shard_directories(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        cache.put(job, _result())
        path = cache.path_for(job)
        assert path.exists()
        assert path.parent.name == shard_name(job.job_hash())
        assert is_shard_dir(path.parent)
        assert cache.get(job) == _result()

    def test_unsealed_entry_is_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        cache.put(job, _result())
        path = cache.path_for(job)
        record = json.loads(path.read_text())
        del record["sha256"]
        path.write_text(json.dumps(record))
        assert cache.get(job) is None
        assert not path.exists()
        quarantined = cache.quarantine_records()
        assert [r["file"] for r in quarantined] == [path.name]
        assert "no sha256 seal" in quarantined[0]["reason"]
        path.write_text(json.dumps(record))
        assert cache.verify(job) == "corrupt"

    def test_put_writes_the_canonical_sealed_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        cache.put(job, _result())
        record = {"job": job.canonical(), "result": result_to_dict(_result())}
        assert cache.path_for(job).read_text() == json.dumps(
            seal(record), sort_keys=True, separators=(",", ":")
        ) + "\n"

    def test_one_character_change_in_result_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        cache.put(job, _result())
        path = cache.path_for(job)
        text = path.read_text()
        edited = text.replace('"total_cycles":1234', '"total_cycles":1235')
        assert edited != text and json.loads(edited)["result"]
        path.write_text(edited)
        assert cache.verify(job) == "corrupt"
        assert cache.get(job) is None
        [record] = cache.quarantine_records()
        assert "seal mismatch" in record["reason"]

    def test_mixed_layout_counts_and_iterates(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_job(), _result())                      # sharded
        flat_job = _job(flip_th=7_777)
        flat = cache.version_dir() / f"{flat_job.job_hash()}.json"
        flat.write_text("{}")                  # a pre-sharding generation
        version_dir = cache.version_dir()
        assert count_entries(version_dir) == 2
        names = {p.name for p in iter_entry_paths(version_dir)}
        assert names == {
            f"{_job().job_hash()}.json", f"{flat_job.job_hash()}.json"
        }

    def test_gc_and_clear_handle_shards(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_job(), _result())
        dead = tmp_path / "00000000deadbeef"
        (dead / "ab").mkdir(parents=True)
        (dead / "ab" / "abcd.json").write_text("{}")
        (dead / "flat.json").write_text("{}")
        assert cache.versions()["00000000deadbeef"] == 2
        assert cache.gc("00000000deadbeef") == 2
        assert not dead.exists()
        assert cache.clear() == 1
        assert cache.entry_count() == 0

    def test_clear_does_not_count_quarantined_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        good, bad = _job(), _job(flip_th=7_777)
        cache.put(good, _result())
        cache.put(bad, _result())
        cache.path_for(bad).write_text("{not json")
        assert cache.get(bad) is None          # quarantined
        assert cache.quarantine_records()
        assert cache.clear() == 1
        assert not cache.version_dir().exists()


    def test_put_writes_exactly_one_file(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        cache.put(job, _result())
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [
            cache.path_for(job)
        ]

    def test_gc_and_clear_remove_a_leftover_index_file(self, tmp_path):
        """Generations written by older store layouts still hold an
        ``index.jsonl`` beside the entries; the whole directory goes."""
        cache = ResultCache(tmp_path)
        cache.put(_job(), _result())
        dead = tmp_path / "00000000deadbeef"
        (dead / "ab").mkdir(parents=True)
        (dead / "ab" / "abcd.json").write_text("{}")
        (dead / "index.jsonl").write_text('{"hash": "abcd"}\n')
        (cache.version_dir() / "index.jsonl").write_text("{}\n")
        assert cache.gc("00000000deadbeef") == 1
        assert not dead.exists()
        assert cache.clear() == 1
        assert list(tmp_path.iterdir()) == []


class TestCacheQuery:
    def test_query_filters_on_every_criterion(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_job(), _result())
        cache.put(_job(scheme="mithril", flip_th=6_250), _result())
        assert len(cache.query()) == 2
        hits = cache.query(scheme="mithril")
        assert len(hits) == 1
        assert hits[0]["workload"] == "fft"
        assert hits[0]["flip_th"] == 6_250
        assert cache.query(workload="fft", flip_th=6_250) == hits
        assert cache.query(scheme="graphene") == []

    def test_hashes_restrict_the_query(self, tmp_path):
        cache = ResultCache(tmp_path)
        job, other = _job(), _job(scheme="mithril")
        cache.put(job, _result())
        cache.put(other, _result())
        [record] = cache.query(hashes=[job.job_hash(), "f" * 24])
        assert record["hash"] == job.job_hash()
        assert cache.query(scheme="mithril", hashes=[job.job_hash()]) == []
        assert cache.query(hashes=[]) == []

    def test_deleted_entries_leave_the_query(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        cache.put(job, _result())
        cache.put(_job(scheme="mithril"), _result())
        cache.path_for(job).unlink()
        assert [r["scheme"] for r in cache.query()] == ["mithril"]
        assert cache.stats()[code_version()].entries == 1

    def test_foreign_json_still_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        version_dir = cache.version_dir()
        version_dir.mkdir(parents=True)
        (version_dir / "hand-made.json").write_text("{not json")
        [record] = cache.query()
        assert record["scheme"] is None
        assert record["bytes"] == len("{not json")
        stats = cache.stats()[code_version()]
        assert (stats.entries, stats.total_bytes) == (1, len("{not json"))

    def test_stats_aggregates(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_job(), _result())
        cache.put(_job(scheme="mithril"), _result())
        stats = cache.stats()[code_version()]
        assert stats.entries == 2
        assert stats.total_bytes == sum(
            r["bytes"] for r in cache.query()
        )
        assert stats.oldest_mtime is not None
        assert stats.newest_mtime >= stats.oldest_mtime

    def test_stats_never_open_an_entry(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        cache.put(_job(), _result())

        def no_open(*_args, **_kwargs):
            raise AssertionError("stats opened an entry")

        monkeypatch.setattr(Path, "open", no_open)
        monkeypatch.setattr(Path, "read_text", no_open)
        assert generation_stats(cache.version_dir()).entries == 1


class TestScaleAcceptance:
    """10^4 entries (12x the 810-point paper-scale generation):
    a query and the stats scan stay under 2 s."""

    N = 10_000

    def _synthesize(self, version_dir):
        # Sharded entries with minimal but realistic payloads, written
        # directly: put() would seal the full result payload, which
        # only slows the setup.
        version_dir.mkdir(parents=True)
        schemes = ("none", "mithril", "mithril+", "blockhammer")
        made_dirs = set()
        for i in range(self.N):
            job_hash = hashlib.sha256(str(i).encode()).hexdigest()[:24]
            shard = version_dir / job_hash[:2]
            if job_hash[:2] not in made_dirs:
                shard.mkdir(exist_ok=True)
                made_dirs.add(job_hash[:2])
            payload = {
                "job": {
                    "scheme": schemes[i % 4],
                    "workload": {"kind": "fft", "params": []},
                    "flip_th": 6_250,
                    "scale": 1.0,
                },
                "result": {"total_cycles": i},
            }
            (shard / f"{job_hash}.json").write_text(json.dumps(payload))

    def test_ten_thousand_entries_under_two_seconds(self, tmp_path):
        cache = ResultCache(tmp_path)
        version_dir = cache.version_dir("feedfacefeedface")
        self._synthesize(version_dir)

        start = time.perf_counter()
        mithril = cache.query("feedfacefeedface", scheme="mithril")
        stats = cache.stats()["feedfacefeedface"]
        elapsed = time.perf_counter() - start

        assert len(mithril) == self.N // 4
        assert stats.entries == self.N
        assert stats.total_bytes > 0
        assert elapsed < 2.0, f"scanning 10^4 entries took {elapsed:.2f}s"
