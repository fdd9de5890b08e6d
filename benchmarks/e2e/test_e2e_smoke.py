"""Smoke test of the end-to-end benchmark on tiny inputs::

    PYTHONPATH=src python -m pytest benchmarks/e2e

It checks that every metric ``BENCHMARK.json`` names is emitted with its
unit, that every wrapper target resolves and is removed afterwards, that
each workload's expected layers record calls, that two repeats give equal
digests, and that the command fails without a result where the sources
are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import layers
import run
import workloads
from repro.casestudies import relearn
from repro.evaluation.sweep import SweepConfig

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7

#: A layer each workload must exercise, seen from its traced run.
EXPECTED_CALLS = {
    "sweep_m1": "regression.score.calls",
    "sweep_m3": "regression.score.calls",
    "casestudy_adapt": "nn.fit.calls",
    "service_journaled": "run.record_task.calls",
}


def tiny(name: str, traced: bool):
    """The workload's code path on an input a few tasks large."""
    if name == "sweep_m1":
        config = SweepConfig(n_params=1, noise_levels=(0.05, 0.5), n_functions=2, batch_size=2)
        processes = 1 if traced else min(2, os.cpu_count() or 1)
        return workloads.SweepWorkload(
            name, config, SEED, processes=processes, min_units=1, reference_functions=1
        )
    if name == "sweep_m3":
        config = SweepConfig(n_params=3, noise_levels=(0.2,), n_functions=1)
        return workloads.SweepWorkload(name, config, SEED, min_units=1, reference_functions=1)
    if name == "casestudy_adapt":
        return workloads.CaseStudyWorkload(
            SEED,
            applications=[relearn],
            modelers={
                "regression": "regression",
                "adaptive": "adaptive(adaptation_samples_per_class=5)",
            },
        )
    return workloads.ServiceWorkload(
        SEED, pool=8, block=2, digest_requests=4, quality_requests=4, reference_every=4,
        rss_requests=4,
    )


def measured(name: str, traced: bool) -> dict:
    workload = tiny(name, traced)
    workload.setup()
    try:
        return workloads.measure(workload, 0.0, traced)
    finally:
        workload.close()


@pytest.fixture(autouse=True)
def scratch_tempdir(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))


def test_every_wrapper_target_resolves():
    for target in layers.TARGETS:
        owner, name, original = layers.resolve(target)
        assert callable(original), target


@pytest.mark.parametrize("traced", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(name, traced):
    originals = [layers.resolve(t)[2] for t in layers.TARGETS]
    result = measured(name, traced)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if traced else BENCHMARK["end_to_end"]
    # setup_s is timed by run.py in fresh processes, not by the workload.
    expected = {m["name"]: m["unit"] for m in declared if m["name"] != "setup_s"}
    assert {key: m["unit"] for key, m in result["metrics"].items()} == expected
    assert all(
        layers.resolve(t)[2] is original for t, original in zip(layers.TARGETS, originals)
    ), "a wrapper was left installed"
    if traced:
        assert result["metrics"][EXPECTED_CALLS[name]]["value"] > 0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_two_repeats_give_equal_digests(name):
    assert measured(name, False)["digest"] == measured(name, False)["digest"]


def test_command_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/e2e/run.py"), "--workload", "sweep_m3",
         "--seed", str(SEED), "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert {key: m["unit"] for key, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }


def test_command_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", "sweep_m1", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
