"""The two fitting engines shared by every PMNF modeler.

Two hypothesis-evaluation engines exist: the ``reference``
per-hypothesis loop (:func:`repro.regression.selection.evaluate_hypotheses`
+ :func:`repro.regression.selection.select_best`) and the batched ``fast``
paths (:mod:`repro.regression.fast_single` for single-parameter searches,
:mod:`repro.regression.fast_multi` for the additive/multiplicative
combination hypotheses). Both compute every fit and score with one
least-squares kernel (:func:`repro.regression.fast_multi._batched_scores`,
on a stack of one in the reference loop) and prune with one rule, so on
every kernel they give bitwise-equal coefficients and CV-SMAPE scores and
print the same model (``tests/regression/test_fast_multi.py``,
``tests/regression/test_fast_single.py``). ``fast`` is the default; the
reference loop is the oracle those suites (and the end-to-end benchmark's
correctness check) compare against, selected per modeler with
``engine="reference"`` or the spec argument ``regression(engine=reference)``.
"""

from __future__ import annotations

#: Accepted engine names, fastest first.
FIT_ENGINES: tuple[str, ...] = ("fast", "reference")


def resolve_fit_engine(engine: str = "fast") -> str:
    """Validate a fitting-engine name (``'fast'`` or ``'reference'``).

    Anything else raises a :class:`ValueError` naming the offending value
    and the accepted names.
    """
    if engine not in FIT_ENGINES:
        raise ValueError(
            f"unknown fit engine {engine!r}: expected one of {', '.join(FIT_ENGINES)}"
        )
    return engine
