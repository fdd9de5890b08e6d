"""Run manifests: lifecycle, fingerprints, journal replay, corruption."""

import base64
import hashlib
import json
import multiprocessing
import os

import numpy as np
import pytest

import repro.run.manifest as manifest_module

from repro.run.manifest import (
    JOURNAL_NAME,
    MANIFEST_NAME,
    RunManifest,
    RunManifestError,
    config_fingerprint,
    rng_fingerprint,
)
from repro.testing import faults
from tests.run.conftest import edit_task_record, flip_checksum


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.deactivate()
    yield
    faults.deactivate()


class TestFingerprints:
    def test_config_fingerprint_stable_and_distinct(self):
        a = config_fingerprint({"n": 1}, "seed:0", ("regression",))
        assert a == config_fingerprint({"n": 1}, "seed:0", ("regression",))
        assert a != config_fingerprint({"n": 2}, "seed:0", ("regression",))

    def test_rng_fingerprint_kinds(self):
        assert rng_fingerprint(42) == "seed:42"
        seq = np.random.SeedSequence(7)
        assert rng_fingerprint(seq) == rng_fingerprint(np.random.SeedSequence(7))
        gen = np.random.default_rng(3)
        assert rng_fingerprint(gen) == rng_fingerprint(np.random.default_rng(3))
        assert rng_fingerprint(gen) != rng_fingerprint(np.random.default_rng(4))

    def test_rng_fingerprint_rejects_entropy_seeding(self):
        with pytest.raises(RunManifestError, match="cannot be resumed"):
            rng_fingerprint(None)

    def test_rng_fingerprint_rejects_unknown_types(self):
        with pytest.raises(RunManifestError, match="cannot fingerprint"):
            rng_fingerprint("a string")

    @staticmethod
    def _repr_fingerprint(*parts) -> str:
        """A repr-join hash: the collision-prone scheme the canonical
        fingerprint replaced."""
        payload = "\x1f".join(repr(part) for part in parts)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def test_large_arrays_differing_past_repr_ellipsis(self):
        """Regression for the repr-truncation bug: numpy elides the middle of
        large arrays under its print options, so a repr-based fingerprint
        COLLIDES for two parameter-value sets that differ only in the elided
        region. The canonical fingerprint hashes the full buffer and must
        tell them apart."""
        a = np.arange(2000, dtype=float)
        b = a.copy()
        b[1000] += 1.0  # invisible in repr(a) vs repr(b)
        assert repr(a) == repr(b), "precondition: the difference is elided"
        assert self._repr_fingerprint(a) == self._repr_fingerprint(b)
        assert config_fingerprint(a) != config_fingerprint(b)

    def test_large_arrays_inside_containers(self):
        """The same elision hides inside dicts/tuples of value sets -- the
        canonical hash must recurse into containers, not repr them."""
        a = {"values": (np.arange(1500),), "n": 1}
        b = {"values": (np.arange(1500),), "n": 1}
        b["values"][0][700] += 1
        assert self._repr_fingerprint(a) == self._repr_fingerprint(b)
        assert config_fingerprint(a) != config_fingerprint(b)

    def test_canonical_fingerprint_separates_types(self):
        """repr-alike values must not collide under the canonical hash."""
        assert config_fingerprint(1) != config_fingerprint("1")
        assert config_fingerprint(True) != config_fingerprint(1)
        assert config_fingerprint((1, 2)) != config_fingerprint([1, 2])
        assert config_fingerprint(np.array([1.0])) != config_fingerprint([1.0])

    def test_canonical_fingerprint_ignores_dict_insertion_order(self):
        assert config_fingerprint({"a": 1, "b": 2}) == config_fingerprint(
            {"b": 2, "a": 1}
        )


class TestLifecycle:
    def test_create_writes_manifest(self, tmp_path):
        manifest = RunManifest.create(tmp_path / "run", "abc123")
        assert (tmp_path / "run" / MANIFEST_NAME).exists()
        assert manifest.config_hash == "abc123"
        assert manifest.run_id

    def test_create_refuses_existing_run(self, tmp_path):
        RunManifest.create(tmp_path / "run", "abc123")
        with pytest.raises(RunManifestError, match="already holds a run manifest"):
            RunManifest.create(tmp_path / "run", "abc123")

    def test_open_resume_verifies_fingerprint(self, tmp_path):
        RunManifest.open(tmp_path / "run", "abc123", meta={"kind": "test"})
        resumed = RunManifest.open(tmp_path / "run", "abc123", resume=True)
        assert resumed.meta == {"kind": "test"}
        with pytest.raises(RunManifestError, match="refusing to mix"):
            RunManifest.open(tmp_path / "run", "different", resume=True)

    def test_resume_missing_directory(self, tmp_path):
        with pytest.raises(RunManifestError, match="no run manifest"):
            RunManifest.open(tmp_path / "nope", "abc123", resume=True)


class TestJournal:
    def test_record_and_replay_tasks(self, tmp_path):
        manifest = RunManifest.create(tmp_path / "run", "h")
        manifest.record_task(0, {"distances": np.array([1.0, 2.0])})
        manifest.record_task(3, ("tuple", 7))
        replayed = manifest.completed_tasks()
        assert set(replayed) == {0, 3}
        np.testing.assert_array_equal(replayed[0]["distances"], [1.0, 2.0])
        assert replayed[3] == ("tuple", 7)
        assert manifest.task_count() == 2

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        manifest = RunManifest.create(tmp_path / "run", "h")
        manifest.record_task(0, "first")
        manifest.record_task(1, "second")
        journal = tmp_path / "run" / JOURNAL_NAME
        with open(journal, "a") as handle:
            handle.write('{"payload": "gASV')  # torn mid-append
        assert set(manifest.completed_tasks()) == {0, 1}

    def test_task_record_carries_its_payload_inline(self, tmp_path):
        manifest = RunManifest.create(tmp_path / "run", "h")
        manifest.record_task(5, ("inline", 1))
        (record,) = manifest.journal_records()
        blob = base64.b64decode(record["payload"])
        assert record == {
            "type": "task",
            "task": 5,
            "sha256": hashlib.sha256(blob).hexdigest(),
            "payload": record["payload"],
        }
        assert sorted(p.name for p in manifest.directory.iterdir()) == [
            JOURNAL_NAME,
            MANIFEST_NAME,
        ]

    def test_corrupt_payload_treated_as_never_completed(self, tmp_path):
        """A flipped checksum and a payload that is not base64 both replay
        as never completed; nothing is unpickled from either."""
        manifest = RunManifest.create(tmp_path / "run", "h")
        manifest.record_task(0, "keep")
        manifest.record_task(1, "flip my checksum")
        manifest.record_task(2, "break my base64")

        def break_base64(record):
            record["payload"] = "not*base64!"

        edit_task_record(manifest.journal_path, 1, flip_checksum)
        edit_task_record(manifest.journal_path, 2, break_base64)
        assert set(manifest.completed_tasks()) == {0}

    def test_missing_payload_treated_as_never_completed(self, tmp_path):
        manifest = RunManifest.create(tmp_path / "run", "h")
        manifest.record_task(0, "keep")
        manifest.record_task(1, "delete me")
        edit_task_record(manifest.journal_path, 1, lambda record: record.pop("payload"))
        assert set(manifest.completed_tasks()) == {0}

    def test_last_record_wins_and_only_it_is_validated(self, tmp_path):
        """A re-run task is journaled twice; replay returns the last payload
        and never validates the superseded one."""

        def check(index, payload):
            if payload == "bad first attempt":
                raise ValueError("superseded payload was validated")

        manifest = RunManifest.create(tmp_path / "run", "h", payload_validator=check)
        manifest.record_task(0, "bad first attempt")
        manifest.record_task(0, "second attempt")
        assert manifest.completed_tasks() == {0: "second attempt"}

    def test_torn_journal_append_loses_only_that_task(self, tmp_path):
        manifest = RunManifest.create(tmp_path / "run", "h")
        manifest.record_task(0, "before the crash")
        faults.activate("journal.append:tear@1")
        with pytest.raises(faults.InjectedFault):
            manifest.record_task(1, "torn mid-append")
        faults.deactivate()
        # The torn line is skipped on replay.
        assert set(manifest.completed_tasks()) == {0}
        # The journal keeps accepting appends afterwards.
        manifest.record_task(2, "after recovery")
        assert set(manifest.completed_tasks()) == {0, 2}


class TestPayloadValidator:
    def test_valid_payloads_pass_through(self, tmp_path):
        def check(index, payload):
            if not isinstance(payload, tuple):
                raise ValueError("payload must be a tuple")

        manifest = RunManifest.create(tmp_path / "run", "h", payload_validator=check)
        manifest.record_task(0, ("ok", 1))
        assert manifest.completed_tasks() == {0: ("ok", 1)}

    def test_rejected_payload_names_the_task(self, tmp_path):
        """Unlike a torn pickle (silently re-run), a payload that deserialises
        fine but fails validation is a correctness hazard: replay must refuse
        loudly rather than fold corrupt data into the merged result."""

        def check(index, payload):
            if payload.get("fit", 0.0) < 0.0:
                raise ValueError("negative stage time")

        manifest = RunManifest.create(tmp_path / "run", "h", payload_validator=check)
        manifest.record_task(0, {"fit": 1.0})
        manifest.record_task(4, {"fit": -2.0})
        with pytest.raises(RunManifestError, match=r"task 4.*negative stage time"):
            manifest.completed_tasks()

    def test_validator_applies_on_resume(self, tmp_path):
        manifest = RunManifest.create(tmp_path / "run", "h")
        manifest.record_task(0, {"fit": -1.0})

        def check(index, payload):
            raise ValueError("always bad")

        resumed = RunManifest.open(
            tmp_path / "run", "h", resume=True, payload_validator=check
        )
        with pytest.raises(RunManifestError, match="task 0"):
            resumed.completed_tasks()


class TestArtifacts:
    def test_record_and_lookup(self, tmp_path):
        manifest = RunManifest.create(tmp_path / "run", "h")
        manifest.record_artifact("trace", "trace.jsonl", "a" * 64)
        artifacts = manifest.artifacts()
        assert artifacts["trace"]["file"] == "trace.jsonl"
        assert artifacts["trace"]["sha256"] == "a" * 64
        # Artifact records do not pollute the task replay.
        assert manifest.completed_tasks() == {}

    def test_last_record_wins(self, tmp_path):
        manifest = RunManifest.create(tmp_path / "run", "h")
        manifest.record_artifact("trace", "trace.jsonl", "a" * 64)
        manifest.record_artifact("trace", "trace.jsonl", "b" * 64)
        assert manifest.artifacts()["trace"]["sha256"] == "b" * 64

    def test_artifacts_survive_resume(self, tmp_path):
        manifest = RunManifest.open(tmp_path / "run", "h")
        manifest.record_artifact("trace", "trace.jsonl", "c" * 64)
        resumed = RunManifest.open(tmp_path / "run", "h", resume=True)
        assert resumed.artifacts()["trace"]["sha256"] == "c" * 64


class TestQuarantine:
    def test_record_and_list(self, tmp_path):
        manifest = RunManifest.create(tmp_path / "run", "h")
        manifest.record_quarantine("kern_a", "non-finite value nan", "exp.txt:12")
        manifest.record_quarantine("kern_b", "negative runtime -1.0")
        records = manifest.quarantined()
        assert [r["kernel"] for r in records] == ["kern_a", "kern_b"]
        assert records[0]["location"] == "exp.txt:12"
        # Quarantine records do not pollute the task replay.
        assert manifest.completed_tasks() == {}


class TestSubManifests:
    def _parent(self, tmp_path):
        return RunManifest.open(tmp_path / "run", config_fingerprint("svc"))

    def test_create_and_reenter_same_journal(self, tmp_path):
        parent = self._parent(tmp_path)
        child = parent.sub_manifest("team-a")
        child.record_task(0, {"id": "a-1"})
        again = parent.sub_manifest("team-a")
        assert again.run_id == child.run_id
        assert again.completed_tasks() == {0: {"id": "a-1"}}
        again.record_task(1, {"id": "a-2"})
        assert sorted(child.completed_tasks()) == [0, 1]

    def test_child_records_parent_identity(self, tmp_path):
        parent = self._parent(tmp_path)
        child = parent.sub_manifest("team-a", meta={"kind": "service-tenant"})
        assert child.meta["parent_run_id"] == parent.run_id
        assert child.meta["tenant"] == "team-a"
        assert child.meta["kind"] == "service-tenant"
        assert child.config_hash == parent.config_hash
        assert child.directory == parent.directory / "tenants" / "team-a"

    def test_refuses_stale_child_from_another_run(self, tmp_path):
        first = self._parent(tmp_path)
        first.sub_manifest("team-a")
        # A new parent run in a *different* directory whose tenants/ dir is
        # transplanted from the first run (e.g. a copied run dir).
        second = RunManifest.open(tmp_path / "other", config_fingerprint("svc"))
        import shutil

        shutil.copytree(
            first.directory / "tenants", second.directory / "tenants"
        )
        with pytest.raises(RunManifestError, match="refusing to mix journals"):
            second.sub_manifest("team-a")

    def test_hostile_names_are_sanitized_without_traversal(self, tmp_path):
        parent = self._parent(tmp_path)
        child = parent.sub_manifest("../../evil")
        resolved = child.directory.resolve()
        tenants = (parent.directory / "tenants").resolve()
        assert tenants in resolved.parents, "traversal must stay inside tenants/"
        assert resolved.parent == tenants  # exactly one component deep
        assert "/" not in child.directory.name and child.directory.name != ".."

    def test_distinct_hostile_names_do_not_collide(self, tmp_path):
        parent = self._parent(tmp_path)
        a = parent.sub_manifest("a/b")
        b = parent.sub_manifest("a.b")
        c = parent.sub_manifest("a:b")
        assert len({a.directory, b.directory, c.directory}) == 3

    def test_sub_manifests_listing_keyed_by_tenant(self, tmp_path):
        parent = self._parent(tmp_path)
        parent.sub_manifest("team-a")
        parent.sub_manifest("team/b")  # sanitized on disk, original in meta
        reloaded = RunManifest.load(parent.directory)
        children = reloaded.sub_manifests()
        assert sorted(children) == ["team-a", "team/b"]
        assert children["team-a"].meta["parent_run_id"] == parent.run_id

    def test_no_tenants_dir_lists_empty(self, tmp_path):
        parent = self._parent(tmp_path)
        assert parent.sub_manifests() == {}


class TestJournalFormatVersion:
    @pytest.mark.parametrize("version", [1, 2])
    def test_older_version_run_dir_refused_not_replayed(self, tmp_path, version):
        """A run dir written in an older journal format -- version 1
        (variable-arity payloads) or version 2 (payload files under
        ``tasks/``) -- is refused by resume, by merge-run, and by the
        service, each naming the found and supported versions, and nothing
        in it is replayed or rewritten."""
        from repro.run.merge import merge_runs
        from repro.service.core import ModelingService, ServiceConfig

        run = tmp_path / "run"
        manifest = RunManifest.create(run, "h")
        manifest.record_task(0, ("outcomes", {"fit": 1.0}))
        data = json.loads((run / MANIFEST_NAME).read_text())
        data["version"] = version
        (run / MANIFEST_NAME).write_text(json.dumps(data))
        before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}

        refusal = rf"found {version}, supported 3.*start a fresh run dir"
        with pytest.raises(RunManifestError, match=refusal):
            RunManifest.open(run, "h", resume=True)
        with pytest.raises(RunManifestError, match=refusal):
            merge_runs(tmp_path / "merged", [run])
        service = ModelingService(ServiceConfig(run_dir=str(run), processes=1))
        try:
            with pytest.raises(RunManifestError, match=refusal):
                service.start()
        finally:
            service.close()
        assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before
        assert not (tmp_path / "merged").exists()


class TestShardMeta:
    def test_create_records_shard_in_meta(self, tmp_path):
        manifest = RunManifest.create(tmp_path / "run", "h", shard=(1, 4))
        assert manifest.shard == (1, 4)
        assert RunManifest.load(tmp_path / "run").meta["shard"] == {
            "index": 1,
            "count": 4,
        }

    def test_shard_is_meta_not_configuration(self, tmp_path):
        """Every shard of one sweep shares one config_hash -- that is what
        lets the merge tool verify membership."""
        s0 = RunManifest.create(tmp_path / "s0", "same-hash", shard=(0, 2))
        s1 = RunManifest.create(tmp_path / "s1", "same-hash", shard=(1, 2))
        assert s0.config_hash == s1.config_hash

    def test_unsharded_run_has_no_shard(self, tmp_path):
        assert RunManifest.create(tmp_path / "run", "h").shard is None

    @pytest.mark.parametrize("shard", [(2, 2), (-1, 2), (0, 0)])
    def test_invalid_shard_is_refused(self, tmp_path, shard):
        with pytest.raises(RunManifestError, match="invalid shard"):
            RunManifest.create(tmp_path / "run", "h", shard=shard)

    def test_resume_verifies_the_shard_slice(self, tmp_path):
        RunManifest.open(tmp_path / "run", "h", shard=(0, 2))
        resumed = RunManifest.open(tmp_path / "run", "h", resume=True, shard=(0, 2))
        assert resumed.shard == (0, 2)
        with pytest.raises(RunManifestError, match="refusing to mix shard slices"):
            RunManifest.open(tmp_path / "run", "h", resume=True, shard=(1, 2))
        with pytest.raises(RunManifestError, match="refusing to mix shard slices"):
            RunManifest.open(tmp_path / "run", "h", resume=True)


class TestSharedJournal:
    def test_open_shared_creates_then_attaches(self, tmp_path):
        first = RunManifest.open_shared(tmp_path / "run", "h")
        second = RunManifest.open_shared(tmp_path / "run", "h")
        assert first.run_id == second.run_id
        assert first.shared_journal and second.shared_journal

    def test_open_shared_verifies_fingerprint(self, tmp_path):
        RunManifest.open_shared(tmp_path / "run", "h")
        with pytest.raises(RunManifestError, match="refusing to mix"):
            RunManifest.open_shared(tmp_path / "run", "other")

    def test_interleaved_appends_from_two_handles_replay_fully(self, tmp_path):
        a = RunManifest.open_shared(tmp_path / "run", "h")
        b = RunManifest.open_shared(tmp_path / "run", "h")
        a.record_task(0, "from-a")
        b.record_task(1, "from-b")
        a.record_task(2, "from-a-again")
        assert a.completed_tasks() == {0: "from-a", 1: "from-b", 2: "from-a-again"}
        # The newline framing leaves blank lines; replay must skip them.
        assert "\n\n" in (tmp_path / "run" / JOURNAL_NAME).read_text()

    def test_shared_torn_append_loses_only_that_record(self, tmp_path):
        manifest = RunManifest.open_shared(tmp_path / "run", "h")
        manifest.record_task(0, "before")
        faults.activate("journal.append:tear@1")
        with pytest.raises(faults.InjectedFault):
            manifest.record_task(1, "torn")
        faults.deactivate()
        manifest.record_task(2, "after")
        # No tail healing in shared mode: the torn fragment stays in the file
        # but the leading-newline framing isolates it on its own line.
        assert set(manifest.completed_tasks()) == {0, 2}

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "single"])
    def test_short_write_raises_and_replay_skips_the_record(
        self, tmp_path, monkeypatch, shared
    ):
        """A short ``os.write`` tears the record: the call must raise, not
        report the task as recorded, and replay must skip the fragment."""
        manifest = RunManifest.create(tmp_path / "run", "h")
        manifest.shared_journal = shared
        manifest.record_task(0, "before")
        real_write = os.write
        with monkeypatch.context() as patch:
            patch.setattr(os, "write", lambda fd, data: real_write(fd, data[: len(data) // 2]))
            with pytest.raises(RunManifestError, match="short journal write"):
                manifest.record_task(1, "x" * 10_000)
        manifest.record_task(2, "after")
        assert manifest.completed_tasks() == {0: "before", 2: "after"}

    def test_two_processes_race_payload_sized_records(self, tmp_path):
        """Two forked processes append 100 records each to one shared
        journal at once. Every record (a 64 KiB payload, far beyond
        ``PIPE_BUF``) must land whole: replay returns all 200 exactly."""
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        workers = [
            context.Process(target=_race_appender, args=(tmp_path / "run", base, barrier))
            for base in (0, 100)
        ]
        for worker in workers:
            worker.start()
        try:
            for worker in workers:
                worker.join(timeout=120)
            assert [worker.exitcode for worker in workers] == [0, 0]
        finally:
            for worker in workers:
                if worker.is_alive():
                    worker.kill()
        replayed = RunManifest.load(tmp_path / "run").completed_tasks()
        assert replayed == {index: _race_payload(index) for index in range(200)}


def _race_payload(index: int) -> bytes:
    return hashlib.sha256(str(index).encode()).digest() * 2048  # 64 KiB


def _race_appender(directory, base: int, barrier) -> None:
    manifest = RunManifest.open_shared(directory, "h")
    barrier.wait(timeout=60)
    for index in range(base, base + 100):
        manifest.record_task(index, _race_payload(index))


class TestDurableAppend:
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "single"])
    def test_only_the_creating_append_fsyncs_the_directory(
        self, tmp_path, monkeypatch, shared
    ):
        calls = []
        monkeypatch.setattr(manifest_module, "fsync_directory", calls.append)
        manifest = RunManifest.create(tmp_path / "run", "h")
        manifest.shared_journal = shared
        manifest.record_task(0, "creates the journal")
        assert calls == [manifest.directory]
        manifest.record_task(1, "appends")
        manifest.record_quarantine("kern", "nan runtime")
        assert calls == [manifest.directory]

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "single"])
    def test_one_fsync_per_task_on_an_existing_journal(
        self, tmp_path, monkeypatch, shared
    ):
        manifest = RunManifest.create(tmp_path / "run", "h")
        manifest.shared_journal = shared
        manifest.record_task(0, "creates the journal")
        real_fsync = os.fsync
        calls = []

        def counting_fsync(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        for index in range(1, 4):
            manifest.record_task(index, {"payload": index})
            assert len(calls) == index
        assert not (manifest.directory / "tasks").exists()


class TestHealDurability:
    def _torn_journal(self, tmp_path):
        manifest = RunManifest.create(tmp_path / "run", "h")
        manifest.record_task(0, "intact")
        with open(manifest.journal_path, "a") as handle:
            handle.write('{"type": "task", "task": 1, "fi')  # torn, no newline
        return manifest

    def test_heal_truncates_the_torn_fragment(self, tmp_path):
        manifest = self._torn_journal(tmp_path)
        manifest.record_task(2, "post-crash")
        text = manifest.journal_path.read_text()
        assert '"task": 1' not in text, "the torn fragment must be removed, not fused"
        assert set(manifest.completed_tasks()) == {0, 2}

    def test_crash_between_truncate_and_fsync(self, tmp_path):
        """The journal.heal fault point fires after the truncate, before the
        fsync -- the window where a crash could resurrect the torn bytes on a
        non-durable filesystem. The append must not have happened yet (the
        new record would fuse with a resurrected fragment), and a retry after
        the crash must heal again and land the append cleanly."""
        manifest = self._torn_journal(tmp_path)
        faults.activate("journal.heal:raise@1")
        with pytest.raises(faults.InjectedFault):
            manifest.record_task(2, "must not land yet")
        faults.deactivate()
        text = manifest.journal_path.read_text()
        assert '"task": 2' not in text, "append before heal durability is unsafe"
        manifest.record_task(2, "retry lands")
        assert manifest.completed_tasks() == {0: "intact", 2: "retry lands"}
