"""Shared helpers for the run-directory tests."""

import json


def edit_task_record(journal_path, index, mutate):
    """Rewrite the journal in place, applying ``mutate`` to the ``task``
    record for ``index`` -- how a test corrupts one inline payload."""
    lines = []
    for line in journal_path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if record.get("type") == "task" and record["task"] == index:
                mutate(record)
                line = json.dumps(record, sort_keys=True)
        lines.append(line)
    journal_path.write_text("\n".join(lines) + "\n")


def flip_checksum(record):
    record["sha256"] = record["sha256"][::-1]
