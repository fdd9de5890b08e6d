"""Reassemble one run directory from N sharded run directories.

The merge inverts ``--shard i/n``: each shard journaled a disjoint slice of
one sweep's task index space, and :func:`merge_runs` rebuilds the single
run directory the unsharded command would have produced. The invariants it
enforces:

Same configuration
    Every shard must carry the same ``config_hash`` -- shards of one sweep
    share the fingerprint by construction (the shard slice lives in meta,
    not in the hashed configuration). A shard from a different config, or
    with a different shard ``count``, is refused.

Disjoint, checksum-verified work
    Each shard's ``journal.jsonl`` is replayed record by record; every
    surviving task record's inline payload is decoded and its SHA-256
    re-verified, and so is every task record of every tenant journal (a
    shard carrying a corrupt payload is refused -- merging is the wrong
    place to silently drop work). Two shards claiming the same task index
    are refused.

Bit-identical reassembly
    Task records are copied verbatim and the merged journal lists them in
    ascending index order -- the order an unsharded serial run journals
    them -- with the same ``json.dumps(sort_keys=True)`` framing, so the
    merged journal matches the unsharded run's byte for byte. Quarantine
    records are carried over in a canonical sort
    (shard completion order is not meaningful after the split), tenant
    sub-manifests are re-created under the merged run's identity, and
    shard telemetry traces are merged into one re-parented trace via
    :func:`repro.obs.sink.merge_trace_records`.

The merged directory is a first-class run dir: ``--resume`` under the
plain (unsharded) command line replays it, which is how the CLI renders
the merged tables without recomputing anything.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

from repro.run.manifest import (
    MANIFEST_NAME,
    RunManifest,
    RunManifestError,
    decode_task_payload,
)
from repro.util.artifacts import atomic_write_text

__all__ = ["MergeError", "merge_runs"]


class MergeError(RunManifestError):
    """The shard set cannot be merged into one consistent run."""


def _verified_payload(source: str, index: int, record: dict) -> bytes:
    """Decode and checksum one task record, refusing the merge when it fails."""
    try:
        return decode_task_payload(record)
    except ValueError as err:
        raise MergeError(
            f"{source}: journaled task {index} {err}; refusing to merge corrupt work"
        ) from err


def _verified_tasks(shard: RunManifest) -> "dict[int, dict]":
    """One shard's surviving task records, each payload re-verified.

    Later records win per index (a shard that re-ran a task journals it
    twice; the journal contract is last-record-wins). Unlike resume --
    where a bad checksum just means "re-run the task" -- merge has no way
    to recompute, so corruption is an error here.
    """
    records = shard.task_records()
    for index, record in records.items():
        blob = _verified_payload(f"shard {shard.directory}", index, record)
        if shard.payload_validator is not None:
            try:
                shard.payload_validator(index, pickle.loads(blob))
            except ValueError as err:
                raise MergeError(
                    f"shard {shard.directory}: journaled task {index} payload is "
                    f"logically corrupt: {err}"
                ) from err
    return records


def _consensus_meta(shards: "list[RunManifest]") -> dict:
    """Meta keys every shard agrees on, minus the per-shard slice."""
    merged: dict = {}
    for key, value in shards[0].meta.items():
        if key == "shard":
            continue
        if all(shard.meta.get(key) == value for shard in shards[1:]):
            merged[key] = value
    return merged


def _merge_traces(shards: "list[RunManifest]", output: RunManifest) -> "str | None":
    """Merge shard telemetry traces (when present) into the output run."""
    from repro.obs.sink import TRACE_FILENAME, merge_trace_records, read_trace, write_trace

    shard_records = []
    for shard in shards:
        trace = shard.artifacts().get("trace")
        if trace is None:
            continue
        path = shard.directory / trace["file"]
        try:
            shard_records.append(read_trace(path))
        except (OSError, ValueError) as err:
            raise MergeError(
                f"shard {shard.directory}: trace artifact {trace['file']!r} is "
                f"unreadable: {err}"
            ) from err
    if not shard_records:
        return None
    records = merge_trace_records(
        shard_records,
        meta={"kind": "merge", "run_id": output.run_id, "shards": len(shard_records)},
    )
    trace_path = output.directory / TRACE_FILENAME
    digest = write_trace(trace_path, records)
    output.record_artifact("trace", TRACE_FILENAME, digest)
    return str(trace_path)


def _verified_tenants(shards: "list[RunManifest]") -> "list[tuple[str, dict, list[str]]]":
    """Every shard's tenant sub-journals as ``(name, meta, journal lines)``.

    Each journal record is carried over verbatim -- task records only once
    their payload passes the same checksum check as the shard's own. The
    meta drops the parent identity: the child manifests are re-created
    under the merged run, not the dead shard. The same tenant name on two
    shards is refused: tenant journals are audit trails, and interleaving
    two of them would fabricate an order that never happened.
    """
    seen: dict[str, Path] = {}
    tenants = []
    for shard in shards:
        for name, child in shard.sub_manifests().items():
            if name in seen:
                raise MergeError(
                    f"tenant {name!r} appears in both {seen[name]} and "
                    f"{shard.directory}: refusing to interleave two audit trails"
                )
            seen[name] = shard.directory
            lines = []
            for record in child.journal_records():
                if record.get("type") == "task":
                    _verified_payload(
                        f"shard {shard.directory}, tenant {name!r}",
                        record.get("task"),
                        record,
                    )
                lines.append(json.dumps(record, sort_keys=True))
            child_meta = {
                key: value
                for key, value in child.meta.items()
                if key not in ("parent_run_id", "tenant")
            }
            tenants.append((name, child_meta, lines))
    return tenants


def _write_journal(manifest: RunManifest, lines: "list[str]") -> None:
    if lines:
        atomic_write_text(manifest.journal_path, "\n".join(lines) + "\n")


def merge_runs(
    output_dir: "str | Path",
    shard_dirs: "list[str | Path]",
    payload_validator=None,
) -> RunManifest:
    """Merge sharded run directories into one; returns the merged manifest.

    ``output_dir`` must not already hold a run manifest. The shard at each
    path is loaded, fingerprint-verified against the others, replayed with
    checksums, and reassembled per the module invariants. The merged meta
    records every source shard under ``merged_from``.
    """
    if not shard_dirs:
        raise MergeError("no shard directories given")
    output_dir = Path(output_dir)
    if (output_dir / MANIFEST_NAME).exists():
        raise MergeError(
            f"{output_dir} already holds a run manifest; merge into a fresh "
            "directory"
        )
    shards = [
        RunManifest.load(path, payload_validator=payload_validator)
        for path in shard_dirs
    ]
    reference = shards[0]
    for shard in shards[1:]:
        if shard.config_hash != reference.config_hash:
            raise MergeError(
                f"shard {shard.directory} has configuration hash "
                f"{shard.config_hash}, but {reference.directory} has "
                f"{reference.config_hash}: refusing to merge results from "
                "different configurations"
            )
    counts = {shard.shard[1] for shard in shards if shard.shard is not None}
    if len(counts) > 1:
        raise MergeError(
            f"shards disagree on the shard count ({sorted(counts)}): they "
            "cannot be slices of one run"
        )
    tasks: dict[int, dict] = {}
    owners: dict[int, Path] = {}
    quarantines: list[dict] = []
    for shard in shards:
        for index, record in _verified_tasks(shard).items():
            if index in owners:
                raise MergeError(
                    f"task index {index} was journaled by both {owners[index]} "
                    f"and {shard.directory}: shard slices must be disjoint"
                )
            owners[index] = shard.directory
            tasks[index] = record
        quarantines.extend(shard.quarantined())
    tenants = _verified_tenants(shards)

    meta = _consensus_meta(shards)
    meta["merged_from"] = [
        {
            "run_id": shard.run_id,
            "shard": list(shard.shard) if shard.shard is not None else None,
            "directory": str(shard.directory),
        }
        for shard in shards
    ]
    output = RunManifest.create(
        output_dir, reference.config_hash, meta, payload_validator
    )
    lines = [json.dumps(tasks[index], sort_keys=True) for index in sorted(tasks)]
    # Quarantine order across shards is arbitrary after the split; a
    # canonical sort keeps the merge independent of shard argument order.
    for record in sorted(quarantines, key=lambda r: json.dumps(r, sort_keys=True)):
        lines.append(json.dumps(record, sort_keys=True))
    _write_journal(output, lines)
    _merge_traces(shards, output)
    for name, child_meta, child_lines in tenants:
        _write_journal(output.sub_manifest(name, meta=child_meta), child_lines)
    return output
