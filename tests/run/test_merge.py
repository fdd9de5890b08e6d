"""Journal merge: shard reassembly must be bit-identical and paranoid.

Property under test: ``merge_runs`` over N shard directories rebuilds the
journal the unsharded run would have written, byte for byte, regardless of
the order the shard directories are given in -- and refuses anything that
is not provably N disjoint slices of one configuration.
"""

import base64
import json
import pickle

import pytest

from repro.run.manifest import MANIFEST_NAME, RunManifest
from repro.run.merge import MergeError, merge_runs
from tests.run.conftest import edit_task_record, flip_checksum

CONFIG = "merge-test-hash"


def _make_shard(directory, index, count, task_indices, payload=lambda i: i * i):
    """One shard run dir journaling ``payload(i)`` for each index."""
    shard = RunManifest.create(
        directory, CONFIG, meta={"kind": "unit"}, shard=(index, count)
    )
    for i in task_indices:
        shard.record_task(i, payload(i))
    return shard


def _make_unsharded(directory, task_indices, payload=lambda i: i * i):
    run = RunManifest.create(directory, CONFIG, meta={"kind": "unit"})
    for i in sorted(task_indices):
        run.record_task(i, payload(i))
    return run


class TestBitIdenticalReassembly:
    def test_merged_journal_matches_unsharded_byte_for_byte(self, tmp_path):
        _make_shard(tmp_path / "s0", 0, 2, [0, 2, 4])
        _make_shard(tmp_path / "s1", 1, 2, [1, 3])
        reference = _make_unsharded(tmp_path / "ref", range(5))
        merged = merge_runs(tmp_path / "merged", [tmp_path / "s0", tmp_path / "s1"])
        assert (
            merged.journal_path.read_bytes() == reference.journal_path.read_bytes()
        )
        # The payloads travel inline: each merged task record decodes to the
        # unsharded run's pickle, and no run dir holds payload files.
        for index, record in merged.task_records().items():
            assert pickle.loads(base64.b64decode(record["payload"])) == index * index
        for run in ("s0", "s1", "ref", "merged"):
            assert not (tmp_path / run / "tasks").exists()

    def test_merge_is_shard_order_independent(self, tmp_path):
        _make_shard(tmp_path / "s0", 0, 3, [0, 3])
        _make_shard(tmp_path / "s1", 1, 3, [1, 4])
        _make_shard(tmp_path / "s2", 2, 3, [2, 5])
        dirs = [tmp_path / "s0", tmp_path / "s1", tmp_path / "s2"]
        forward = merge_runs(tmp_path / "fwd", dirs)
        backward = merge_runs(tmp_path / "bwd", list(reversed(dirs)))
        assert forward.journal_path.read_bytes() == backward.journal_path.read_bytes()

    def test_merged_run_replays_every_task(self, tmp_path):
        _make_shard(tmp_path / "s0", 0, 2, [0, 2])
        _make_shard(tmp_path / "s1", 1, 2, [1])
        merged = merge_runs(tmp_path / "merged", [tmp_path / "s0", tmp_path / "s1"])
        assert merged.completed_tasks() == {0: 0, 1: 1, 2: 4}

    def test_merged_meta_records_every_source_shard(self, tmp_path):
        s0 = _make_shard(tmp_path / "s0", 0, 2, [0])
        s1 = _make_shard(tmp_path / "s1", 1, 2, [1])
        merged = merge_runs(tmp_path / "merged", [tmp_path / "s0", tmp_path / "s1"])
        sources = merged.meta["merged_from"]
        assert [s["run_id"] for s in sources] == [s0.run_id, s1.run_id]
        assert [s["shard"] for s in sources] == [[0, 2], [1, 2]]
        assert merged.meta["kind"] == "unit"
        assert "shard" not in merged.meta  # the merged run is not a slice

    def test_quarantines_carry_over_in_canonical_order(self, tmp_path):
        s0 = _make_shard(tmp_path / "s0", 0, 2, [0])
        s0.record_quarantine("kern-z", "nan runtime")
        s1 = _make_shard(tmp_path / "s1", 1, 2, [1])
        s1.record_quarantine("kern-a", "negative runtime")
        forward = merge_runs(tmp_path / "fwd", [tmp_path / "s0", tmp_path / "s1"])
        backward = merge_runs(tmp_path / "bwd", [tmp_path / "s1", tmp_path / "s0"])
        assert [q["kernel"] for q in forward.quarantined()] == ["kern-a", "kern-z"]
        assert forward.journal_path.read_bytes() == backward.journal_path.read_bytes()

    def test_tenant_sub_manifests_are_reparented(self, tmp_path):
        s0 = _make_shard(tmp_path / "s0", 0, 2, [0])
        child = s0.sub_manifest("tenant-a", meta={"note": "kept"})
        child.record_task(0, "tenant-payload")
        _make_shard(tmp_path / "s1", 1, 2, [1])
        merged = merge_runs(tmp_path / "merged", [tmp_path / "s0", tmp_path / "s1"])
        tenants = merged.sub_manifests()
        assert set(tenants) == {"tenant-a"}
        carried = tenants["tenant-a"]
        assert carried.meta["parent_run_id"] == merged.run_id
        assert carried.meta["note"] == "kept"
        assert carried.completed_tasks() == {0: "tenant-payload"}


class TestRefusals:
    def test_refuses_mismatched_config_hash(self, tmp_path):
        _make_shard(tmp_path / "s0", 0, 2, [0])
        other = RunManifest.create(tmp_path / "s1", "other-hash", shard=(1, 2))
        other.record_task(1, 1)
        with pytest.raises(MergeError, match="different configurations"):
            merge_runs(tmp_path / "merged", [tmp_path / "s0", tmp_path / "s1"])

    def test_refuses_overlapping_task_indices(self, tmp_path):
        _make_shard(tmp_path / "s0", 0, 2, [0, 1])  # journaled outside its slice
        _make_shard(tmp_path / "s1", 1, 2, [1])
        with pytest.raises(MergeError, match="disjoint"):
            merge_runs(tmp_path / "merged", [tmp_path / "s0", tmp_path / "s1"])

    def test_refuses_disagreeing_shard_counts(self, tmp_path):
        _make_shard(tmp_path / "s0", 0, 2, [0])
        _make_shard(tmp_path / "s1", 1, 3, [1])
        with pytest.raises(MergeError, match="shard count"):
            merge_runs(tmp_path / "merged", [tmp_path / "s0", tmp_path / "s1"])

    def test_refuses_corrupt_payload(self, tmp_path):
        shard = _make_shard(tmp_path / "s0", 0, 2, [0])

        edit_task_record(shard.journal_path, 0, flip_checksum)
        _make_shard(tmp_path / "s1", 1, 2, [1])
        with pytest.raises(MergeError, match="task 0 payload fails its checksum"):
            merge_runs(tmp_path / "merged", [tmp_path / "s0", tmp_path / "s1"])

    def test_refuses_undecodable_payload(self, tmp_path):
        shard = _make_shard(tmp_path / "s0", 0, 1, [0])
        edit_task_record(
            shard.journal_path, 0, lambda record: record.update(payload="not*base64!")
        )
        with pytest.raises(MergeError, match="task 0 payload is not valid base64"):
            merge_runs(tmp_path / "merged", [tmp_path / "s0"])

    def test_refuses_missing_payload(self, tmp_path):
        shard = _make_shard(tmp_path / "s0", 0, 2, [0])
        edit_task_record(shard.journal_path, 0, lambda record: record.pop("payload"))
        with pytest.raises(MergeError, match="task 0 has no inline payload"):
            merge_runs(tmp_path / "merged", [tmp_path / "s0"])

    def test_refuses_corrupt_tenant_payload(self, tmp_path):
        """A corrupt tenant task is refused like a top-level one, naming the
        tenant and the task, before any merged run dir is written."""
        s0 = _make_shard(tmp_path / "s0", 0, 2, [0])
        child = s0.sub_manifest("tenant-a")
        child.record_task(0, "intact")
        child.record_task(1, "corrupt me")

        edit_task_record(child.journal_path, 1, flip_checksum)
        _make_shard(tmp_path / "s1", 1, 2, [1])
        with pytest.raises(
            MergeError, match="tenant 'tenant-a': journaled task 1 payload fails its checksum"
        ):
            merge_runs(tmp_path / "merged", [tmp_path / "s0", tmp_path / "s1"])
        assert not (tmp_path / "merged" / MANIFEST_NAME).exists()

    def test_refuses_existing_output_directory(self, tmp_path):
        _make_shard(tmp_path / "s0", 0, 1, [0])
        RunManifest.create(tmp_path / "occupied", CONFIG)
        with pytest.raises(MergeError, match="already holds"):
            merge_runs(tmp_path / "occupied", [tmp_path / "s0"])

    def test_refuses_empty_shard_list(self, tmp_path):
        with pytest.raises(MergeError, match="no shard directories"):
            merge_runs(tmp_path / "merged", [])

    def test_refuses_duplicate_tenant_names(self, tmp_path):
        s0 = _make_shard(tmp_path / "s0", 0, 2, [0])
        s0.sub_manifest("tenant-a")
        s1 = _make_shard(tmp_path / "s1", 1, 2, [1])
        s1.sub_manifest("tenant-a")
        with pytest.raises(MergeError, match="audit trails"):
            merge_runs(tmp_path / "merged", [tmp_path / "s0", tmp_path / "s1"])

    def test_refusal_leaves_no_output_manifest(self, tmp_path):
        """A refused merge must not leave a half-built run dir behind that a
        later --resume could mistake for real work."""
        _make_shard(tmp_path / "s0", 0, 2, [0, 1])
        _make_shard(tmp_path / "s1", 1, 2, [1])
        with pytest.raises(MergeError):
            merge_runs(tmp_path / "merged", [tmp_path / "s0", tmp_path / "s1"])
        assert not (tmp_path / "merged" / "manifest.json").exists()


class TestLastRecordWins:
    def test_rerun_task_merges_its_final_payload(self, tmp_path):
        shard = _make_shard(tmp_path / "s0", 0, 1, [0])
        shard.record_task(0, "second-attempt")  # journal contract: last wins
        merged = merge_runs(tmp_path / "merged", [tmp_path / "s0"])
        assert merged.completed_tasks() == {0: "second-attempt"}
        task_lines = [
            json.loads(line)
            for line in merged.journal_path.read_text().splitlines()
            if json.loads(line).get("type") == "task"
        ]
        assert len(task_lines) == 1  # duplicates collapse on merge


class TestMergeRunCLI:
    ARGS = [
        "evaluate", "--params", "1", "--noise", "5", "--functions", "4",
        "--batch", "2", "--seed", "1",
    ]

    def test_logically_corrupt_shard_refused(self, tmp_path, capsys):
        """merge-run validates every shard payload's envelope: a valid
        pickle carrying a negative stage time is refused (exit 2) naming the
        shard and the task, and no merged run is written."""
        from repro.cli import main

        for index in range(2):
            shard_args = ["--run-dir", str(tmp_path / f"s{index}"), "--shard", f"{index}/2"]
            assert main(self.ARGS + shard_args) == 0
        shard = RunManifest.load(tmp_path / "s1")
        outcomes, _, telemetry = shard.completed_tasks()[1]
        shard.record_task(1, (outcomes, {"fit": -1.0}, telemetry))
        capsys.readouterr()
        merged = tmp_path / "merged"
        assert main(["merge-run", str(merged), str(tmp_path / "s0"), str(tmp_path / "s1")]) == 2
        err = capsys.readouterr().err
        assert f"shard {tmp_path / 's1'}" in err
        assert "task 1" in err and "logically corrupt" in err
        assert not (merged / MANIFEST_NAME).exists()
