"""Lint timing bench: the whole-program pass must stay a cheap CI gate.

The program pass parses nothing extra -- it reuses the per-file ASTs --
so its marginal cost over the per-file pass is graph construction plus
the three program rules. This bench times a full-repository lint with
every configured rule and with the per-file rules only (selecting no
program rule builds no graph; same entry point CI uses), asserts the pass
stays within budget, and prints the numbers. Lint is not an end-to-end benchmark workload, so this
budget is its only timing gate.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.lint import ProgramRule, available_rules, lint_paths, load_config

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The marginal whole-program cost may not exceed this multiple of the
#: per-file pass (generous: CI containers are slow and shared).
MAX_PROGRAM_OVERHEAD = 3.0


def _timed_lint(program: bool):
    config = load_config(REPO_ROOT)
    if not program:
        rules = available_rules()
        config = config.with_overrides(
            select=[r for r in config.select if not isinstance(rules[r], ProgramRule)]
        )
    targets = [REPO_ROOT / p for p in ("src", "tests", "examples", "benchmarks")]
    start = time.perf_counter()
    result = lint_paths([p for p in targets if p.exists()], config)
    return result, time.perf_counter() - start


def test_program_pass_overhead_within_budget():
    per_file, t_file = _timed_lint(program=False)
    both, t_both = _timed_lint(program=True)
    assert per_file.clean and both.clean
    assert both.files_checked == per_file.files_checked > 100

    marginal = max(0.0, t_both - t_file)
    assert t_both <= t_file * (1.0 + MAX_PROGRAM_OVERHEAD), (
        f"program pass costs {t_both:.2f}s vs {t_file:.2f}s per-file only"
    )

    print(
        f"\nlint: {both.files_checked} files, per-file {t_file:.2f}s, "
        f"+program {t_both:.2f}s (marginal {marginal:.2f}s)"
    )
