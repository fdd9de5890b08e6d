"""Run manifests: the persistent identity and completion journal of a run.

A *run directory* makes a long-lived job (a synthetic sweep over thousands
of modeling tasks, a case-study campaign) restartable after a crash without
losing any completed work and without perturbing the results:

``manifest.json``
    Written once at run creation (atomically): a random run id, creation
    timestamp, the **configuration fingerprint** (a hash over everything
    that determines the task stream -- config dataclass, RNG seed state,
    modeler names), and free-form metadata. On resume the fingerprint is
    re-derived and must match; mixing results from different configurations
    is refused loudly rather than producing silently wrong science.

``journal.jsonl``
    Append-only, one JSON record per line, fsynced after every append.
    ``task`` records carry a completed engine task's pickled payload inline
    (base64) with the SHA-256 of the pickle, so one append and one fsync
    make a task durable. Payloads are whatever the engine task returned --
    they already crossed a process boundary via pickle in pool mode, so
    picklability is guaranteed by construction. ``quarantine`` records name
    input kernels rejected by the validation pass. A crash can tear at most
    the trailing record, which replay skips; a record whose payload cannot
    be decoded or no longer matches its checksum is treated as
    never-completed and simply re-run.

``tenants/<name>/``
    Optional per-tenant sub-journals (see :meth:`RunManifest.sub_manifest`):
    full child run directories sharing the parent's run identity, used by
    the modeling service to give every tenant its own audit trail under one
    service run dir.

Determinism contract: tasks carry pre-spawned per-index RNG streams (see
:mod:`repro.util.seeding`), so a resumed run replays journaled results
verbatim and recomputes exactly the missing indices with exactly the
streams the uninterrupted run would have used -- the final result is
bit-identical either way.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import os
import pickle
import uuid
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.testing import faults
from repro.util.artifacts import atomic_create_json, fsync_directory, sha256_bytes

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"
TENANTS_DIR = "tenants"
#: Journal-format version. Version 3 journals carry each task's fixed
#: ``(result, stage_seconds, telemetry | None)`` envelope (see
#: :mod:`repro.run.lifecycle`) inline in its ``task`` record. Version-2 run
#: directories keep payloads in ``tasks/*.pkl`` files and version-1 ones
#: hold variable-arity payloads; both are refused on load, never partly
#: replayed.
_MANIFEST_VERSION = 3


class RunManifestError(RuntimeError):
    """A run directory cannot be created, loaded, or safely resumed."""


def _last_newline_end(fd: int, size: int) -> int:
    """Offset just past the last ``\\n`` in file ``fd`` (0 when none exists).

    Scans backwards in chunks so a journal with a huge torn tail does not
    have to be read in full.
    """
    chunk_size = 4096
    end = size
    while end > 0:
        start = max(0, end - chunk_size)
        os.lseek(fd, start, os.SEEK_SET)
        chunk = os.read(fd, end - start)
        position = chunk.rfind(b"\n")
        if position != -1:
            return start + position + 1
        end = start
    return 0


def decode_task_payload(record: dict) -> bytes:
    """The checksum-verified pickle bytes a ``task`` record carries inline.

    Raises :class:`ValueError` naming the defect -- no payload, a payload
    that is not base64, or bytes that fail the record's SHA-256 -- before
    anything is unpickled.
    """
    payload = record.get("payload")
    if not isinstance(payload, str):
        raise ValueError("has no inline payload")
    try:
        blob = base64.b64decode(payload, validate=True)
    except ValueError as err:
        raise ValueError(f"payload is not valid base64: {err}") from None
    if sha256_bytes(blob) != record.get("sha256"):
        raise ValueError("payload fails its checksum")
    return blob


def _safe_component(name: str) -> str:
    """Sanitize an externally-supplied name into a filesystem path component.

    Tenant names arrive over the wire; ``../`` traversal, separators, and
    other shell-hostile characters are replaced. When anything had to be
    replaced the result is suffixed with a short hash of the original so
    distinct hostile names cannot collide onto one directory.
    """
    text = str(name)
    safe = "".join(c if c.isalnum() or c in "-._" else "_" for c in text) or "_"
    if safe.startswith("."):
        safe = "_" + safe[1:]
    if safe != text:
        safe = f"{safe}-{hashlib.sha256(text.encode()).hexdigest()[:8]}"
    return safe


def _feed(digest, part) -> None:
    """Feed one fingerprint part into ``digest`` as a canonical byte stream.

    Every value is serialized with a one-byte type tag and full content --
    numpy arrays contribute dtype, shape, and ``tobytes()`` rather than
    their (elided) ``repr``; dataclasses recurse field by field; containers
    recurse element by element with their lengths, so concatenation
    ambiguity cannot make two different part lists collide.
    """
    if part is None:
        digest.update(b"N")
    elif isinstance(part, (bool, np.bool_)):
        digest.update(b"B1" if part else b"B0")
    elif isinstance(part, (int, np.integer)):
        text = str(int(part)).encode()
        digest.update(b"I" + str(len(text)).encode() + b":" + text)
    elif isinstance(part, (float, np.floating)):
        digest.update(b"F" + float(part).hex().encode())
    elif isinstance(part, str):
        data = part.encode()
        digest.update(b"S" + str(len(data)).encode() + b":" + data)
    elif isinstance(part, bytes):
        digest.update(b"Y" + str(len(part)).encode() + b":" + part)
    elif isinstance(part, np.ndarray):
        array = np.ascontiguousarray(part)
        digest.update(
            b"A" + array.dtype.str.encode() + b":" + repr(array.shape).encode() + b":"
        )
        digest.update(array.tobytes())
    elif dataclasses.is_dataclass(part) and not isinstance(part, type):
        digest.update(b"D" + type(part).__qualname__.encode() + b":")
        for field in dataclasses.fields(part):
            _feed(digest, field.name)
            _feed(digest, getattr(part, field.name))
    elif isinstance(part, dict):
        digest.update(b"M" + str(len(part)).encode() + b":")
        for key in sorted(part, key=repr):
            _feed(digest, key)
            _feed(digest, part[key])
    elif isinstance(part, (list, tuple)):
        digest.update((b"L" if isinstance(part, list) else b"T") + str(len(part)).encode() + b":")
        for item in part:
            _feed(digest, item)
    elif isinstance(part, (set, frozenset)):
        digests = []
        for item in part:
            inner = hashlib.sha256()
            _feed(inner, item)
            digests.append(inner.digest())
        digest.update(b"E" + str(len(part)).encode() + b":")
        for item_digest in sorted(digests):
            digest.update(item_digest)
    else:
        text = repr(part).encode()
        digest.update(b"R" + str(len(text)).encode() + b":" + text)


def config_fingerprint(*parts) -> str:
    """Stable hash over the run-defining parts (configs, seeds, names).

    Hashes canonical *full* content: dataclasses and containers are walked
    recursively and numpy arrays contribute dtype/shape/``tobytes()``. A
    ``repr``-based hash would elide large arrays under ``np.printoptions``,
    so two configs differing only past the repr ellipsis would fingerprint
    identically and a resume could silently mix their results.
    """
    digest = hashlib.sha256()
    for part in parts:
        _feed(digest, part)
        digest.update(b"\x1f")
    return digest.hexdigest()[:16]


def rng_fingerprint(rng) -> str:
    """Canonical fingerprint of an ``rng`` argument for the run manifest.

    Journaled runs must be re-enterable: the caller has to be able to hand
    the *same* random state to the resumed run, so nondeterministic
    (``None``) seeding is rejected here rather than producing a run that can
    never be resumed bit-identically.
    """
    if isinstance(rng, (int, np.integer)):
        return f"seed:{int(rng)}"
    if isinstance(rng, np.random.SeedSequence):
        return f"seedseq:{rng.entropy!r}:{rng.spawn_key!r}"
    if isinstance(rng, np.random.Generator):
        state = json.dumps(rng.bit_generator.state, sort_keys=True, default=str)
        return "state:" + hashlib.sha256(state.encode()).hexdigest()[:16]
    if rng is None:
        raise RunManifestError(
            "journaled runs require a deterministic seed (int, SeedSequence, or "
            "Generator), not None: a run seeded from OS entropy cannot be resumed "
            "bit-identically"
        )
    raise RunManifestError(f"cannot fingerprint {type(rng).__name__} as an rng argument")


class RunManifest:
    """Handle on one run directory; also the engine's task journal.

    ``payload_validator`` is an optional ``(index, payload) -> None``
    callable applied to every journaled task payload on replay. The
    checksum catches *torn* payloads; the validator catches *logically*
    corrupt ones (a valid pickle carrying garbage values, e.g. negative
    per-stage seconds) -- its :class:`ValueError` is re-raised as a
    :class:`RunManifestError` naming the task, instead of the bad payload
    silently poisoning a resumed run.
    """

    def __init__(self, directory: "str | Path", data: dict, payload_validator=None):
        self.directory = Path(directory)
        self._data = data
        self.payload_validator = payload_validator
        #: When True, journal appends go through a single ``O_APPEND``
        #: ``os.write`` with newline framing so multiple processes can share
        #: one journal (work-stealing mode). Set by :meth:`open_shared`.
        self.shared_journal = False

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def create(
        cls,
        directory: "str | Path",
        config_hash: str,
        meta: "dict | None" = None,
        payload_validator=None,
        shard: "tuple[int, int] | None" = None,
    ) -> "RunManifest":
        """Start a fresh run; refuses to overwrite an existing one.

        ``shard=(i, n)`` records this run as shard ``i`` of ``n`` in the
        manifest meta. The shard slice is *meta*, not configuration: every
        shard of one sweep (and the unsharded equivalent) shares one
        ``config_hash``, which is exactly what lets the merge tool verify
        the shards belong together and lets a merged run directory resume
        under the plain (unsharded) command line.
        """
        directory = Path(directory)
        path = directory / MANIFEST_NAME
        directory.mkdir(parents=True, exist_ok=True)
        data = {
            "version": _MANIFEST_VERSION,
            "run_id": uuid.uuid4().hex[:12],
            "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "config_hash": config_hash,
            "meta": dict(meta or {}),
        }
        if shard is not None:
            index, count = int(shard[0]), int(shard[1])
            if count < 1 or not 0 <= index < count:
                raise RunManifestError(
                    f"invalid shard {shard!r}: expected (index, count) with "
                    "0 <= index < count"
                )
            data["meta"]["shard"] = {"index": index, "count": count}
        try:
            atomic_create_json(path, data)
        except FileExistsError:
            raise RunManifestError(
                f"{directory} already holds a run manifest; resume it (--resume) "
                "or point the run at a fresh directory"
            ) from None
        return cls(directory, data, payload_validator)

    @classmethod
    def load(cls, directory: "str | Path", payload_validator=None) -> "RunManifest":
        directory = Path(directory)
        path = directory / MANIFEST_NAME
        if not path.exists():
            raise RunManifestError(f"no run manifest at {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            raise RunManifestError(f"corrupt run manifest at {path}: {err}") from err
        version = data.get("version")
        if version != _MANIFEST_VERSION:
            raise RunManifestError(
                f"{path}: unsupported manifest version: found {version!r}, "
                f"supported {_MANIFEST_VERSION}; the run directory was written "
                "in another journal format -- start a fresh run dir"
            )
        return cls(directory, data, payload_validator)

    @classmethod
    def open(
        cls,
        directory: "str | Path",
        config_hash: str,
        resume: bool = False,
        meta: "dict | None" = None,
        payload_validator=None,
        shard: "tuple[int, int] | None" = None,
    ) -> "RunManifest":
        """Create a fresh run, or -- with ``resume`` -- re-enter a prior one.

        Resume verifies the configuration fingerprint so journaled results
        can never silently leak into a run with different parameters. A
        resumed sharded run must present the same ``shard`` it was created
        with.
        """
        if not resume:
            return cls.create(directory, config_hash, meta, payload_validator, shard=shard)
        manifest = cls.load(directory, payload_validator)
        manifest._verify_config_hash(config_hash)
        recorded = manifest.shard
        requested = None if shard is None else (int(shard[0]), int(shard[1]))
        if recorded != requested:
            raise RunManifestError(
                f"run {manifest.run_id} at {manifest.directory} was started as "
                f"shard {recorded!r}, but the resuming call requests shard "
                f"{requested!r}: refusing to mix shard slices in one journal"
            )
        return manifest

    @classmethod
    def open_shared(
        cls,
        directory: "str | Path",
        config_hash: str,
        meta: "dict | None" = None,
        payload_validator=None,
    ) -> "RunManifest":
        """Join (or race to create) a *shared* run directory.

        Work-stealing mode: N processes point at one run directory; exactly
        one wins the exclusive manifest create (``O_EXCL`` semantics via
        :func:`repro.util.artifacts.atomic_create_json`) and the rest
        verify the fingerprint and attach. The returned manifest appends
        with ``O_APPEND`` newline framing so concurrent journal writes from
        different processes interleave at record granularity, never within
        a record.
        """
        try:
            manifest = cls.create(directory, config_hash, meta, payload_validator)
        except RunManifestError as err:
            if "already holds a run manifest" not in str(err):
                raise
            manifest = cls.load(directory, payload_validator)
            manifest._verify_config_hash(config_hash)
        manifest.shared_journal = True
        return manifest

    def _verify_config_hash(self, config_hash: str) -> None:
        if self.config_hash != config_hash:
            raise RunManifestError(
                f"run {self.run_id} at {self.directory} was started with "
                f"configuration hash {self.config_hash}, but the resuming call "
                f"hashes to {config_hash}: refusing to mix results from different "
                "configurations"
            )

    # ------------------------------------------------------------ properties
    @property
    def run_id(self) -> str:
        return self._data["run_id"]

    @property
    def config_hash(self) -> str:
        return self._data["config_hash"]

    @property
    def meta(self) -> dict:
        return dict(self._data.get("meta", {}))

    @property
    def shard(self) -> "tuple[int, int] | None":
        """``(index, count)`` when this run is one shard of a sweep."""
        shard = self._data.get("meta", {}).get("shard")
        if not shard:
            return None
        return int(shard["index"]), int(shard["count"])

    @property
    def journal_path(self) -> Path:
        return self.directory / JOURNAL_NAME

    # --------------------------------------------------------------- journal
    def _append(self, record: dict) -> None:
        """Durably append one journal record: one ``os.write``, one fsync.

        A single writer heals a torn tail through the same descriptor first
        and writes the bare line. A journal shared by concurrent processes
        (work-stealing mode) instead frames the record with a *leading* and
        a trailing newline and skips the heal: a single ``os.write`` on an
        ``O_APPEND`` descriptor lands at record granularity with respect to
        other appenders, but a heal seeks to a position measured before the
        write, which under concurrency could land inside another process's
        fresh record. The extra blank lines are skipped by replay.

        The append that creates the journal also fsyncs the run directory,
        so the new directory entry -- and every record after it -- survives
        a power cut. A short write raises: the record is torn (replay skips
        it, and the framing or the next heal isolates the fragment), so the
        caller must not acknowledge it as recorded.

        The ``journal.append`` fault point models the two crash shapes an
        append can see: a crash *before* the write (``raise``/``kill``) and
        a torn record flushed halfway (``tear``).
        """
        line = json.dumps(record, sort_keys=True)
        spec = faults.check("journal.append")
        if spec is not None and spec.action != "tear":
            faults.execute(spec)
        framing = "\n" if self.shared_journal else ""
        data = (framing + line + "\n").encode("utf-8")
        if spec is not None:  # tear: land half the record, then die
            data = data[: len(data) // 2]
        path = self.journal_path
        created = False
        try:
            fd = os.open(path, os.O_RDWR | os.O_APPEND)
        except FileNotFoundError:
            fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
            created = True
        try:
            if not self.shared_journal:
                self._heal_torn_tail(fd)
            written = os.write(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
        if created:
            fsync_directory(self.directory)
        if spec is not None:
            raise faults.InjectedFault(
                f"injected 'tear' fault at 'journal.append' (call #{spec.nth})"
            )
        if written != len(data):
            raise RunManifestError(
                f"short journal write to {path}: {written} of {len(data)} bytes; "
                "the record is torn and will not replay"
            )

    def _heal_torn_tail(self, fd: int) -> None:
        """Truncate a torn trailing line so the next append stays on its own
        line. Without this, a record appended after a crash would fuse with
        the torn fragment and both would be lost to the malformed-line skip.

        The torn fragment is *removed* (truncate back to the last newline,
        or to empty when no newline survives) and the truncation is made
        durable -- fsync the file and its directory -- before any new
        append lands. Skipping the fsync would let a crash here resurrect
        the torn bytes on the next open and fuse them with a later record.
        The ``journal.heal`` fault point models a crash between the
        truncate and the fsync.
        """
        size = os.lseek(fd, 0, os.SEEK_END)
        if size == 0:
            return
        os.lseek(fd, -1, os.SEEK_END)
        if os.read(fd, 1) == b"\n":
            return
        os.ftruncate(fd, _last_newline_end(fd, size))
        faults.fault_point("journal.heal", path=str(self.journal_path))
        os.fsync(fd)
        fsync_directory(self.directory)

    def _records(self) -> "list[dict]":
        """Replay the journal, skipping torn or malformed lines."""
        path = self.journal_path
        if not path.exists():
            return []
        records = []
        for line in path.read_text(encoding="utf-8", errors="replace").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn append -- the write never completed
            if isinstance(record, dict):
                records.append(record)
        return records

    def journal_records(self) -> "list[dict]":
        """All well-formed journal records, in append order.

        Public face of the replay loop for tooling (the merge tool walks
        shard journals record by record to reassemble a combined run).
        """
        return self._records()

    # ---------------------------------------------------------------- tasks
    def record_task(self, index: int, payload) -> None:
        """Journal one completed engine task as one self-checking record.

        The pickled payload travels inline (base64) beside the SHA-256 of
        the pickle, so a single append and fsync make the task durable. A
        torn record, or one whose payload no longer decodes to its
        checksum, replays as never completed and the task re-runs.
        """
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self._append(
            {
                "type": "task",
                "task": int(index),
                "sha256": sha256_bytes(blob),
                "payload": base64.b64encode(blob).decode("ascii"),
            }
        )

    def task_records(self) -> "dict[int, dict]":
        """The surviving ``task`` record per index: the last one journaled.

        A re-run task is journaled again; the journal contract is
        last-record-wins, so earlier records for the index are superseded.
        """
        latest: dict[int, dict] = {}
        for record in self._records():
            if record.get("type") == "task":
                latest[int(record["task"])] = record
        return latest

    def completed_tasks(self) -> "dict[int, object]":
        """Replay completed task payloads, dropping any that fail their checksum."""
        out: dict[int, object] = {}
        for index, record in self.task_records().items():
            try:
                blob = decode_task_payload(record)
            except ValueError:
                continue  # corrupt payload: treat the task as never completed
            payload = pickle.loads(blob)
            if self.payload_validator is not None:
                try:
                    self.payload_validator(index, payload)
                except ValueError as err:
                    raise RunManifestError(
                        f"journaled task {index} in {self.directory} replayed a "
                        f"corrupt payload: {err}"
                    ) from err
            out[index] = payload
        return out

    def task_count(self) -> int:
        return len(self.completed_tasks())

    # ------------------------------------------------------------- artifacts
    def record_artifact(self, name: str, relative_path: str, sha256: str) -> None:
        """Journal one named run artifact (e.g. the telemetry trace).

        The artifact file is written (atomically) first and the journal
        pointer second, so a crash between the two leaves an orphan file
        rather than a dangling reference.
        """
        self._append(
            {"type": "artifact", "name": name, "file": relative_path, "sha256": sha256}
        )

    def artifacts(self) -> "dict[str, dict]":
        """Registered artifacts by name (last registration wins)."""
        return {
            record["name"]: record
            for record in self._records()
            if record.get("type") == "artifact"
        }

    # --------------------------------------------------------- sub-manifests
    def sub_manifest(
        self, name: str, meta: "dict | None" = None, payload_validator=None
    ) -> "RunManifest":
        """Open (or create) a named sub-journal under this run directory.

        Sub-manifests give one long-lived service run a per-tenant audit
        trail: each lives in ``tenants/<name>/`` with its own manifest and
        journal, but shares the parent's run identity --
        the parent ``run_id`` and the tenant name are recorded in the
        child's meta, and re-opening verifies them so a stale directory
        from a different run is refused rather than silently appended to.

        ``name`` is sanitized into a safe path component (collision-proofed
        with a short hash when characters had to be replaced); two calls
        with the same name re-enter the same journal.
        """
        safe = _safe_component(name)
        directory = self.directory / TENANTS_DIR / safe
        if (directory / MANIFEST_NAME).exists():
            child = RunManifest.load(directory, payload_validator)
            if child.meta.get("parent_run_id") != self.run_id:
                raise RunManifestError(
                    f"sub-manifest {directory} belongs to run "
                    f"{child.meta.get('parent_run_id')!r}, not {self.run_id!r}: "
                    "refusing to mix journals across runs"
                )
            return child
        child_meta = {"parent_run_id": self.run_id, "tenant": str(name)}
        child_meta.update(meta or {})
        return RunManifest.create(
            directory, self.config_hash, child_meta, payload_validator
        )

    def sub_manifests(self) -> "dict[str, RunManifest]":
        """All existing sub-manifests, keyed by their recorded tenant name."""
        root = self.directory / TENANTS_DIR
        if not root.is_dir():
            return {}
        out: dict[str, RunManifest] = {}
        for child_dir in sorted(root.iterdir()):
            if not (child_dir / MANIFEST_NAME).exists():
                continue
            child = RunManifest.load(child_dir)
            out[child.meta.get("tenant", child_dir.name)] = child
        return out

    # ------------------------------------------------------------ quarantine
    def record_quarantine(
        self, kernel: str, reason: str, location: "str | None" = None
    ) -> None:
        """Journal one quarantined input kernel (bad measurement data)."""
        self._append(
            {"type": "quarantine", "kernel": kernel, "reason": reason, "location": location}
        )

    def quarantined(self) -> "list[dict]":
        return [r for r in self._records() if r.get("type") == "quarantine"]

    def __repr__(self) -> str:
        return (
            f"RunManifest(run_id={self.run_id!r}, directory={str(self.directory)!r}, "
            f"config_hash={self.config_hash!r})"
        )
