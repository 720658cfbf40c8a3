"""Unit tests for the sharded, indexed result store."""

import hashlib
import json
import time

from repro.engine import (
    CacheIndex,
    ResultCache,
    SimJob,
    WorkloadSpec,
    code_version,
)
from repro.engine.cache import result_to_dict
from repro.engine.durable import seal
from repro.engine.store import (
    count_entries,
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


class TestCacheIndex:
    def test_put_appends_queryable_records(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_job(), _result())
        cache.put(_job(scheme="mithril", flip_th=6_250), _result())
        index = cache.index()
        assert len(index.records()) == 2
        hits = index.query(scheme="mithril")
        assert len(hits) == 1
        assert hits[0]["workload"] == "fft"
        assert hits[0]["flip_th"] == 6_250
        assert index.query(workload="fft", flip_th=6_250)
        assert index.query(scheme="graphene") == []

    def test_stale_index_rebuilds_from_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_job(), _result())
        cache.put(_job(scheme="mithril"), _result())
        # lose the index entirely — e.g. deleted by hand
        cache.index_for_version().path.unlink()
        index = cache.index()
        assert len(index.records()) == 2
        assert len(index.query(scheme="mithril")) == 1

    def test_deleted_entries_detected_as_stale(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        cache.put(job, _result())
        cache.put(_job(scheme="mithril"), _result())
        cache.path_for(job).unlink()
        assert len(cache.index().records()) == 1

    def test_annotations_merge_and_survive_requery(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        cache.put(job, _result())
        cache.annotate([job.job_hash()], "fig11-stress")
        cache.annotate([job.job_hash()], "fig9-stress")
        hits = cache.index().query(experiment="fig11-stress")
        assert len(hits) == 1
        assert sorted(hits[0]["experiments"]) == [
            "fig11-stress", "fig9-stress"
        ]
        assert cache.index().query(experiment="nope") == []

    def test_foreign_json_still_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        version_dir = cache.version_dir()
        version_dir.mkdir(parents=True)
        (version_dir / "hand-made.json").write_text("{not json")
        index = cache.index()
        assert len(index.records()) == 1
        assert index.records()[0]["scheme"] is None

    def test_stats_aggregates(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_job(), _result())
        cache.put(_job(scheme="mithril"), _result())
        stats = cache.stats()[code_version()]
        assert stats.entries == 2
        assert stats.total_bytes > 0
        assert stats.oldest_mtime is not None
        assert stats.newest_mtime >= stats.oldest_mtime


class TestScaleAcceptance:
    """ISSUE acceptance: 10^4 entries index, query, and stat in < 2s."""

    N = 10_000

    def _synthesize(self, version_dir):
        # Sharded entries with minimal but realistic payloads, written
        # directly (synthesizing via put() would pre-build the index
        # and defeat the point: the timed region includes the rebuild).
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
        index = cache.index("feedfacefeedface")   # includes the rebuild
        mithril = index.query(scheme="mithril")
        stats = index.stats()
        elapsed = time.perf_counter() - start

        assert len(index.records()) == self.N
        assert len(mithril) == self.N // 4
        assert stats.entries == self.N
        assert stats.total_bytes > 0
        assert elapsed < 2.0, f"indexing 10^4 entries took {elapsed:.2f}s"

        # warm path: index already fresh — no rescan, near-instant
        start = time.perf_counter()
        again = cache.index("feedfacefeedface").query(scheme="none")
        warm = time.perf_counter() - start
        assert len(again) == self.N // 4
        assert warm < 1.0

    def test_index_file_is_not_an_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_job(), _result())
        assert cache.entry_count() == 1
        index_path = cache.index_for_version().path
        assert index_path.exists()
        assert index_path.suffix == ".jsonl"


class TestIndexRobustness:
    def test_unwritable_index_degrades_to_noop(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        index = CacheIndex(blocker / "gen")
        index.append({"hash": "abc"})          # must not raise
        assert index.records() == []

    def test_blank_and_corrupt_lines_skipped(self, tmp_path):
        index = CacheIndex(tmp_path)
        index.path.write_text(
            '{"hash": "aa", "scheme": "none"}\n'
            "\n"
            "{broken\n"
            '{"no_hash": true}\n'
            '{"hash": "aa", "flip_th": 6250}\n'
        )
        records = index.records()
        assert len(records) == 1
        assert records[0]["scheme"] == "none"
        assert records[0]["flip_th"] == 6250
