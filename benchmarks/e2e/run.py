"""One-command end-to-end benchmark of the modeling stack.

One run of one workload (the form the regression gate uses)::

    python3 benchmarks/e2e/run.py --workload sweep_m1 --seed 1 --seconds 20 --trace 0

prints, as its last line, ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer table with
``--trace 1``. Without ``--workload`` (or with several, ``--repeats`` or
``--out``) it runs a report instead::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N] [--repeats N] [--out PATH]

Each workload's repeats run round-robin across workloads, so drift on a
shared machine hits all of them alike; every end-to-end metric is printed
as median, quartiles, a 95 % bootstrap CI and n. One traced run per
workload then gives the per-layer table. The JSON record (header, raw
per-repeat values, summaries, per-layer table) goes to ``--out``.

Every phase runs in a fresh child process (``workloads.py``) with the
``REPRO_*`` environment scrubbed, except ``REPRO_CACHE_DIR``, and one
BLAS thread per process. The workloads in ``ONE_CPU`` run on one CPU, so
a neighbour taking the other CPUs of a shared host does not change them.
This file uses only the standard library until a report needs bootstrap
intervals.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".bench_work" / "e2e"
WORKLOADS = ("sweep_m1", "sweep_m3", "casestudy_adapt", "service_journaled")
#: Workloads whose processes all run on one CPU; sweep_m1's two workers get two.
ONE_CPU = ("sweep_m3", "casestudy_adapt", "service_journaled")
DEFAULT_SEED = 20210517
#: Set-up is timed in this many fresh processes; setup_s is their median.
SETUP_SAMPLES = 5
#: The first set-up in a checkout pretrains the generic network.
WARM_TIMEOUT_S = 900
SETUP_TIMEOUT_S = 60
MEASURE_TIMEOUT_S = 150
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(RuntimeError):
    """A phase crashed, timed out or printed no result."""


def child_env() -> dict:
    """The environment of every phase: no ``REPRO_*`` knob leaks in, and
    one BLAS thread per process, so no workload runs more threads than
    CPUs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = os.environ.get("REPRO_CACHE_DIR") or str(WORK / "cache")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = str(WORK / "tmp")
    env.update(dict.fromkeys(BLAS_VARIABLES, "1"))
    return env


def start_phase(phase: str, workload: str, seed: int, *extra: str, stdout) -> subprocess.Popen:
    """A phase in its own process group, so that stopping it stops what it
    started. Its output pipe is unbuffered, so :func:`read_line` can wait
    for one line at a time."""
    command = [
        sys.executable, str(HERE / "workloads.py"), phase,
        "--workload", workload, "--seed", str(seed), *extra,
    ]
    one_cpu = {max(os.sched_getaffinity(0))} if workload in ONE_CPU else None
    return subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=stdout, bufsize=0,
        start_new_session=True,
        preexec_fn=(lambda: os.sched_setaffinity(0, one_cpu)) if one_cpu else None,
    )


def read_line(proc: subprocess.Popen, timeout: float) -> str:
    """The phase's next output line; empty at its end or after ``timeout``."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    return proc.stdout.readline().decode() if ready else ""


def finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for a phase and return the rest of its output; on timeout kill
    its whole group and raise."""
    try:
        out, _ = proc.communicate(timeout=timeout)
        return (out or b"").decode()
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def warm(workload: str, seed: int) -> None:
    """One untimed set-up: fills the network cache and the OS file cache."""
    proc = start_phase("setup", workload, seed, stdout=subprocess.DEVNULL)
    try:
        finish(proc, WARM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload}: set-up took over {WARM_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload}: set-up failed with exit code {proc.returncode}")


def time_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process until its set-up reports ready,
    scaled by the host speed the process probes right after."""
    start = time.perf_counter()
    proc = start_phase("setup", workload, seed, stdout=subprocess.PIPE)
    try:
        line = read_line(proc, SETUP_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        probe = read_line(proc, SETUP_TIMEOUT_S)
        finish(proc, SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload}: set-up did not exit within {SETUP_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not line.strip() or not probe.strip():
        raise BenchmarkError(f"{workload}: set-up failed (exit code {proc.returncode})")
    return elapsed * json.loads(probe)["wall_scale"]


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = start_phase(
        "measure", workload, seed, "--seconds", str(seconds), "--trace", str(trace),
        stdout=subprocess.PIPE,
    )
    try:
        out = finish(proc, MEASURE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload}: measurement took over {MEASURE_TIMEOUT_S} s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload}: measurement failed (exit code {proc.returncode})")
    return json.loads(lines[-1])


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: warm-up, timed set-ups (untraced only), measurement."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    warm(workload, seed)
    setups = [] if trace else [time_setup(workload, seed) for _ in range(SETUP_SAMPLES)]
    outcome = measure(workload, seed, seconds, trace)
    if setups:
        outcome["metrics"] = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            **outcome["metrics"],
        }
        outcome["setup_samples"] = setups
    return outcome


def contract_line(outcome: dict) -> dict:
    return {key: outcome[key] for key in ("correct", "attempted", "failed", "metrics")}


# ----------------------------------------------------------------- report
def git_state() -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return {"rev": "unknown", "dirty": None}
    if rev.returncode != 0:
        return {"rev": "unknown", "dirty": None}
    return {"rev": rev.stdout.strip(), "dirty": bool(status.stdout.strip())}


def header(args, workloads, hosts: dict) -> dict:
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    first = next(iter(hosts.values()), {})
    return {
        "git": git_state(),
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "python": first.get("python"),
        "numpy": first.get("numpy"),
        "scipy": first.get("scipy"),
        "blas": first.get("blas"),
        "blas_threads": {name: child_env()[name] for name in BLAS_VARIABLES},
        "one_cpu": [w for w in workloads if w in ONE_CPU],
        "execution_profile": {w: hosts[w].get("execution_profile") for w in workloads},
        "repeats": args.repeats,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def summarize(values: "list[float]", median_ci, seed: int) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "ci95": [values[0], values[0]], "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    low, high = median_ci(values, confidence=0.95, rng=seed)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "ci95": [low, high], "n": len(values)}


def report(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.evaluation.statistics import median_ci

    workloads = args.workload or list(WORKLOADS)
    raw: "dict[str, list[dict]]" = {w: [] for w in workloads}
    traced: "dict[str, dict]" = {}
    failures = []
    for _ in range(args.repeats):
        for workload in workloads:
            try:
                raw[workload].append(run_once(workload, args.seed, args.seconds, 0))
            except BenchmarkError as err:
                failures.append(str(err))
    for workload in workloads:
        try:
            traced[workload] = run_once(workload, args.seed, args.seconds, 1)
        except BenchmarkError as err:
            failures.append(str(err))
    record = {"format": 1, "workloads": {}}
    for workload in workloads:
        runs = raw[workload] + ([traced[workload]] if workload in traced else [])
        digests = sorted({run["digest"] for run in runs})
        if len(digests) > 1:
            failures.append(f"{workload}: repeats disagree on the output digest")
        failures += [problem for run in runs for problem in run["problems"]]
        failures += [f"{workload}: {run['failed']} task(s) failed" for run in runs if run["failed"]]
        runs = raw[workload]
        values = [{**run["metrics"], **run["info"]} for run in runs]
        summary = {
            name: {"unit": metric["unit"],
                   **summarize([v[name]["value"] for v in values], median_ci, args.seed)}
            for name, metric in (values[0].items() if values else ())
        }
        print(f"\n{workload} ({len(runs)} runs, seed {args.seed})")
        print(f"  {'metric':<22} {'unit':<8} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'95% CI':>25} n")
        for name, s in summary.items():
            ci = f"[{s['ci95'][0]:.5g}, {s['ci95'][1]:.5g}]"
            print(f"  {name:<22} {s['unit']:<8} {s['median']:>11.5g} {s['q1']:>11.5g} "
                  f"{s['q3']:>11.5g} {ci:>25} {s['n']}")
        per_layer = traced.get(workload, {}).get("metrics", {})
        if per_layer:
            print("  per-layer, one traced run (self_frac: share of traced wall time)")
            for name, metric in per_layer.items():
                print(f"    {name:<38} {metric['value']:>11.5g} {metric['unit']}")
        record["workloads"][workload] = {
            "digests": digests,
            "runs": [{**contract_line(run), "info": run["info"],
                      "setup_samples": run["setup_samples"]} for run in runs],
            "summary": summary,
            "per_layer": per_layer,
        }
    hosts = {w: (raw[w] or [traced.get(w, {})])[0].get("host", {}) for w in workloads}
    record["header"] = header(args, workloads, hosts)
    record["failures"] = failures
    out = Path(args.out) if args.out else WORK / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    print(f"\nrecord written to {out}")
    return 1 if failures else 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    single = args.workload and len(args.workload) == 1 and args.repeats is None and not args.out
    if not single:
        args.repeats = args.repeats or 5
        return report(args)
    try:
        outcome = run_once(args.workload[0], args.seed, args.seconds, args.trace)
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for problem in outcome["problems"]:
        print(f"error: {problem}", file=sys.stderr)
    print(json.dumps(contract_line(outcome)), flush=True)
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
