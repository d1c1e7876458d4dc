"""Backend equivalence: serial == process == manifest, spec-only shipping."""

import json

import pytest

from repro.adversaries import SafetyAdversary, two_process_oblivious_family
from repro.backends import (
    ManifestBackend,
    ProcessBackend,
    SerialBackend,
    SweepBackend,
    jobs_for,
    load_manifest,
    run_manifest,
    write_manifest,
)
from repro.consensus.census import two_process_census
from repro.consensus.solvability import CheckOptions
from repro.core.digraph import arrow
from repro.errors import AdversaryError, AnalysisError
from repro.records import read_jsonl
from repro.specs import AdversarySpec, random_rooted_specs
from repro.sweep import run_sweep


def _fingerprint(records):
    return [
        (r.index, r.adversary, r.status, r.certificate, r.certified_depth, r.shard)
        for r in records
    ]


def _two_process_specs():
    return [AdversarySpec("two-process", {"index": i}) for i in range(15)]


class TestBackendEquivalence:
    def test_all_three_backends_agree(self, tmp_path):
        jobs = jobs_for(_two_process_specs(), max_depth=4)
        serial = SerialBackend().run(jobs)
        process = ProcessBackend(2).run(jobs)
        manifest = ManifestBackend(tmp_path / "shards", shards=2).run(jobs)
        assert _fingerprint(serial)[:3] != []  # sanity: records exist
        # Order-normalized record sets are identical, except the shard
        # column the serial backend flattens to 0.
        def no_shard(fingerprints):
            return [fp[:-1] for fp in fingerprints]

        assert no_shard(_fingerprint(serial)) == no_shard(_fingerprint(process))
        assert _fingerprint(process) == _fingerprint(manifest)

    def test_backends_satisfy_the_protocol(self, tmp_path):
        assert isinstance(SerialBackend(), SweepBackend)
        assert isinstance(ProcessBackend(2), SweepBackend)
        assert isinstance(ManifestBackend(tmp_path), SweepBackend)

    def test_run_sweep_accepts_explicit_backend(self, tmp_path):
        jobs = jobs_for(_two_process_specs()[:5], max_depth=4)
        records = run_sweep(jobs, backend=ManifestBackend(tmp_path, shards=2))
        assert _fingerprint(records) == _fingerprint(
            run_sweep(jobs, workers=2)
        )


class TestManifestRoundTrip:
    def test_end_to_end_without_pickled_adversaries(self, tmp_path):
        """Specs -> shard manifests on disk -> subprocesses -> merged JSONL."""
        workdir = tmp_path / "shards"
        jobs = jobs_for(_two_process_specs(), max_depth=4)
        backend = ManifestBackend(workdir, shards=2)
        records = backend.run(jobs)

        # The on-disk interface a distributed runner would consume:
        for k in range(2):
            manifest_path, out_path = backend.shard_paths(k)
            assert manifest_path.exists() and out_path.exists()
            payload = json.loads(manifest_path.read_text())
            assert payload["schema"] == "repro.sweep-manifest/1"
            assert payload["shard"] == k
            # Jobs are pure JSON specs — nothing pickled, nothing live.
            for job in payload["jobs"]:
                assert set(job) == {"index", "max_depth", "tags", "spec"}
                assert job["spec"]["family"] == "two-process"
            shard_records = list(read_jsonl(out_path))
            assert [r.shard for r in shard_records] == [k] * len(payload["jobs"])

        # Merged records match a ProcessBackend run of the same specs.
        assert _fingerprint(records) == _fingerprint(
            ProcessBackend(2).run(jobs)
        )

    def test_live_oblivious_jobs_derive_specs(self, tmp_path):
        family = two_process_oblivious_family()[:4]
        records = ManifestBackend(tmp_path, shards=2).run(jobs_for(family, max_depth=4))
        assert [r.adversary for r in records] == [a.name for a in family]
        assert all(r.spec["family"] == "oblivious" for r in records)

    def test_underivable_jobs_fail_loudly(self, tmp_path):
        table = {"a": {arrow("->"): ["a"]}}
        jobs = jobs_for([SafetyAdversary(2, ["a"], table)], max_depth=3)
        with pytest.raises(AdversaryError, match="cannot derive"):
            ManifestBackend(tmp_path).run(jobs)

    def test_run_manifest_inline(self, tmp_path):
        manifest_path = tmp_path / "shard_0.json"
        write_manifest(
            jobs_for(_two_process_specs()[:3], max_depth=4),
            manifest_path,
            shard=5,
            options=CheckOptions(max_depth=4),
        )
        loaded = load_manifest(manifest_path)
        assert loaded["shard"] == 5
        assert loaded["options"].max_depth == 4
        records = run_manifest(manifest_path)
        assert [r.shard for r in records] == [5, 5, 5]
        assert (tmp_path / "shard_0.jsonl").exists()

    def test_manifest_with_legacy_extension_workers_loads_and_runs(self, tmp_path):
        # Manifests written while the in-check sharding knob existed carry
        # it in their options; the key is dropped on load.
        manifest_path = tmp_path / "shard_0.json"
        jobs = jobs_for(_two_process_specs()[:3], max_depth=4)
        write_manifest(jobs, manifest_path, options=CheckOptions(max_depth=4))
        payload = json.loads(manifest_path.read_text())
        payload["options"]["extension_workers"] = 4
        manifest_path.write_text(json.dumps(payload))
        loaded = load_manifest(manifest_path)
        assert loaded["options"] == CheckOptions(max_depth=4)
        records = run_manifest(manifest_path)
        assert _fingerprint(records) == _fingerprint(
            SerialBackend().run(jobs, CheckOptions(max_depth=4))
        )

    def test_load_manifest_rejects_other_files(self, tmp_path):
        path = tmp_path / "not_manifest.json"
        path.write_text(json.dumps({"schema": "something-else", "jobs": []}))
        with pytest.raises(AnalysisError, match="not a sweep manifest"):
            load_manifest(path)

    def test_failed_shard_surfaces_stderr(self, tmp_path):
        # A family registered only in THIS process: the shard subprocess
        # cannot rebuild its specs, so the shard run must fail — and the
        # backend must surface that, not swallow it.
        from repro.specs import register_family

        try:
            register_family(
                "test-parent-process-only",
                lambda params, rng: two_process_oblivious_family()[0],
            )
        except AdversaryError:
            pass  # already registered by an earlier test run
        spec = AdversarySpec("test-parent-process-only", {})
        jobs = jobs_for([spec], max_depth=3)
        with pytest.raises(AnalysisError, match="shard run\\(s\\) failed"):
            ManifestBackend(tmp_path, shards=1).run(jobs)


class TestSeededByteIdenticalRuns:
    def test_manifest_and_process_jsonl_are_byte_identical(self, tmp_path):
        specs = random_rooted_specs(seed=3, n=3, samples=6)
        jobs = jobs_for(specs, max_depth=3, tags={"family": "rooted", "seed": 3})

        process_out = tmp_path / "process.jsonl"
        manifest_out = tmp_path / "manifest.jsonl"
        run_sweep(
            jobs,
            backend=ProcessBackend(2, record_timing=False),
            jsonl_path=process_out,
        )
        run_sweep(
            jobs,
            backend=ManifestBackend(
                tmp_path / "shards", shards=2, record_timing=False
            ),
            jsonl_path=manifest_out,
        )
        assert process_out.read_bytes() == manifest_out.read_bytes()
        # And the records really came from per-spec seeds, not a shared
        # rng stream: every record carries its own sub-seed.
        seeds = [r.seed for r in read_jsonl(process_out)]
        assert len(set(seeds)) == len(seeds)
        assert [r.seed for r in read_jsonl(process_out)] == [s.seed for s in specs]

    def test_serial_matches_too_when_sharding_is_trivial(self, tmp_path):
        specs = random_rooted_specs(seed=8, n=3, samples=4)
        jobs = jobs_for(specs, max_depth=3)
        serial_out = tmp_path / "serial.jsonl"
        manifest_out = tmp_path / "manifest.jsonl"
        run_sweep(
            jobs, backend=SerialBackend(record_timing=False), jsonl_path=serial_out
        )
        run_sweep(
            jobs,
            backend=ManifestBackend(
                tmp_path / "shards", shards=1, record_timing=False
            ),
            jsonl_path=manifest_out,
        )
        assert serial_out.read_bytes() == manifest_out.read_bytes()


class TestCensusOnBackends:
    def test_census_backend_param_matches_serial(self, tmp_path):
        serial = two_process_census(max_depth=5)
        manifest = two_process_census(
            max_depth=5, backend=ManifestBackend(tmp_path, shards=2)
        )
        assert [
            (r.adversary.name, r.status, r.certificate, r.oracle, r.cgp)
            for r in serial
        ] == [
            (r.adversary.name, r.status, r.certificate, r.oracle, r.cgp)
            for r in manifest
        ]

    def test_from_record_does_not_mutate_callers_record(self):
        from repro.consensus.census import CensusRow

        family = two_process_oblivious_family()[:2]
        records = ProcessBackend(1).run(jobs_for(family, max_depth=4))
        original = records[0]
        row = CensusRow.from_record(family[0], original, oracle=True, cgp=True)
        assert original.oracle is None and original.cgp is None
        assert row.record is not original
        assert row.oracle is True and row.cgp is True

    def test_census_jsonl_records_carry_cross_verdicts(self, tmp_path):
        path = tmp_path / "census.jsonl"
        rows = two_process_census(max_depth=5, jsonl_path=path)
        records = list(read_jsonl(path))
        assert len(records) == len(rows) == 15
        assert all(r.oracle is not None and r.cgp is not None for r in records)
        assert [r.status for r in records] == [row.status.value for row in rows]
