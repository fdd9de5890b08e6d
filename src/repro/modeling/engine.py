"""The two fitting engines shared by every PMNF modeler.

Two hypothesis-evaluation engines exist: the ``reference``
per-hypothesis loop (:func:`repro.regression.selection.evaluate_hypotheses`
+ :func:`repro.regression.selection.select_best`) and the batched ``fast``
paths (:mod:`repro.regression.fast_single` for single-parameter searches,
:mod:`repro.regression.fast_multi` for the additive/multiplicative
combination hypotheses). Over the same hypothesis list they select
bit-identical models (``tests/regression/test_fast_multi.py``). The fast
line search is not bitwise: on a near-constant line an exact tie can pick
another winner, and the kernel model built from it then keeps the
reference's structure but not its coefficients, so the printed models can
differ (``tests/regression/test_fast_single.py``). ``fast`` is the
default; the reference loop is the oracle those suites (and the
end-to-end benchmark's correctness check) compare against, selected per
modeler with ``engine="reference"`` or the spec argument
``regression(engine=reference)``.
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
