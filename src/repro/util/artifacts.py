"""Atomic artifact I/O: write-rename with fsync and content checksums.

Every artifact the library produces -- network checkpoints, sweep journals,
benchmark JSON, markdown reports, experiment files -- goes through this
module. The contract is all-or-nothing: a reader either sees the complete
previous version of a file or the complete new one, never a torn
intermediate, no matter where a crash lands. The recipe is the classic one:

1. write the full payload to a temporary file *in the target directory*
   (same filesystem, so the rename below is atomic),
2. flush and ``fsync`` the temporary file (data durable before it becomes
   visible),
3. ``os.replace`` onto the target (atomic on POSIX and Windows),
4. ``fsync`` the directory so the rename itself survives a power cut.

Writers return the payload's SHA-256 so callers (the run manifest's
artifact records) can detect corruption on read-back. The ``artifacts.replace``
fault point sits between steps 2 and 3, which is what the torn-write tests
hook to prove the target is never exposed to a partial write.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from repro.testing import faults

__all__ = [
    "sha256_bytes",
    "sha256_file",
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
    "atomic_create_json",
    "fsync_directory",
]


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: "str | Path", chunk_size: int = 1 << 20) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(chunk_size)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def fsync_directory(directory: "str | Path") -> None:
    """Persist a rename/truncate by fsyncing its directory (best effort: not
    every platform/filesystem allows opening a directory for fsync)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: "str | Path", data: bytes) -> str:
    """Atomically replace ``path`` with ``data``; returns the SHA-256.

    The parent directory is created if missing. On any failure the target
    is untouched and the temporary file is removed (a SIGKILL mid-write can
    leave a stray ``.<name>.*.tmp`` behind; stray temporaries are never
    read by anything and are safe to delete).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        faults.fault_point("artifacts.replace", path=tmp_name)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    fsync_directory(path.parent)
    return sha256_bytes(data)


def atomic_write_text(path: "str | Path", text: str, encoding: str = "utf-8") -> str:
    """Atomically replace ``path`` with ``text``; returns the SHA-256."""
    return atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(path: "str | Path", payload, indent: int = 2) -> str:
    """Atomically replace ``path`` with ``payload`` as indented JSON."""
    return atomic_write_text(path, json.dumps(payload, indent=indent, sort_keys=True) + "\n")


def atomic_create_json(path: "str | Path", payload, indent: int = 2) -> str:
    """Atomically create ``path`` with ``payload`` as JSON -- exclusively.

    Like :func:`atomic_write_json` but *refuses to replace* an existing
    file: publication goes through ``os.link`` (hard-link the fsynced
    temporary onto the target), which fails with ``FileExistsError`` when
    the target already exists. Exactly one of N concurrent creators wins,
    which is what lets work-stealing shards race to create one shared run
    manifest without a lock file.
    """
    path = Path(path)
    data = (json.dumps(payload, indent=indent, sort_keys=True) + "\n").encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        faults.fault_point("artifacts.replace", path=tmp_name)
        os.link(tmp_name, path)
    finally:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
    fsync_directory(path.parent)
    return sha256_bytes(data)
