"""Crash-safe run lifecycle: manifests, completion journals, resume,
sharding (claim files) and multi-host merge."""

from repro.run.claims import Claim, ClaimStore
from repro.run.manifest import (
    RunManifest,
    RunManifestError,
    config_fingerprint,
    rng_fingerprint,
)
from repro.run.merge import MergeError, merge_runs

__all__ = [
    "Claim",
    "ClaimStore",
    "MergeError",
    "RunManifest",
    "RunManifestError",
    "config_fingerprint",
    "merge_runs",
    "rng_fingerprint",
]
