"""PMNF hypotheses and their fitted models.

A :class:`Hypothesis` is a function *structure*: an intercept plus a list of
term groups, each group a product of per-parameter compound terms. Fitting
determines the intercept and one coefficient per group by linear least
squares on the (median) measurement values -- the PMNF is linear in its
coefficients, which is what makes Extra-P's search cheap. The least-squares
arithmetic itself is :func:`repro.regression.fast_multi._batched_scores`,
the one kernel both fit engines use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.pmnf.function import MultiTerm, PerformanceFunction
from repro.pmnf.terms import CompoundTerm

#: One term group: parameter index -> compound term (factors are multiplied).
TermGroup = Mapping[int, CompoundTerm]


class Hypothesis:
    """An unfitted PMNF structure: intercept + coefficient-per-group.

    Immutable after construction: the ordering keys are computed here, not
    on first use, so one hypothesis can be shared by concurrent searches.
    """

    __slots__ = ("groups", "n_params", "group_keys", "_structure_key", "_complexity_key")

    def __init__(self, groups: Sequence[TermGroup], n_params: int):
        self.groups: tuple[dict[int, CompoundTerm], ...] = tuple(
            {l: t for l, t in sorted(g.items()) if not t.is_constant} for g in groups
        )
        # Drop groups that became empty (all-constant factors).
        self.groups = tuple(g for g in self.groups if g)
        self.n_params = int(n_params)
        #: Per group, its ``(parameter, exponent pair)`` factors in order.
        self.group_keys: tuple[tuple, ...] = tuple(
            tuple((l, t.exponents) for l, t in g.items()) for g in self.groups
        )
        self._structure_key = tuple(sorted(self.group_keys))
        # (t.power, t.j) is ExponentPair.growth_key() without re-converting i.
        growth = sorted(((t.power, t.j) for g in self.groups for t in g.values()), reverse=True)
        self._complexity_key = (len(self.groups), tuple(growth))

    @classmethod
    def constant(cls, n_params: int) -> "Hypothesis":
        return cls((), n_params)

    @property
    def n_coefficients(self) -> int:
        """Intercept plus one coefficient per group."""
        return 1 + len(self.groups)

    def design_matrix(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the basis functions at ``points`` of shape ``(n, m)``."""
        n = points.shape[0]
        columns = [np.ones(n)]
        for group in self.groups:
            col = np.ones(n)
            for l, term in group.items():
                col = col * term.evaluate(points[:, l])
            columns.append(col)
        return np.stack(columns, axis=1)

    def structure_key(self) -> tuple:
        return self._structure_key

    def complexity_key(self) -> tuple:
        """Tie-breaking key preferring simpler, slower-growing structures."""
        return self._complexity_key

    def __repr__(self) -> str:
        return f"Hypothesis(groups={self.groups!r}, n_params={self.n_params})"


@dataclass(frozen=True)
class FittedModel:
    """A hypothesis with its fitted coefficients, negligible terms pruned."""

    function: PerformanceFunction
    hypothesis: Hypothesis

    @classmethod
    def from_row(
        cls, hypothesis: Hypothesis, beta: np.ndarray, surviving: np.ndarray
    ) -> "FittedModel":
        """``hypothesis`` fitted as one row of a stacked pass
        (:func:`repro.regression.fast_multi._batched_scores`): ``beta`` holds
        the intercept and one coefficient per group, ``surviving`` marks the
        groups whose contribution is not negligible."""
        coefficients = beta.tolist()
        terms = [
            MultiTerm(c, group)
            for c, group, keep in zip(coefficients[1:], hypothesis.groups, surviving[1:].tolist())
            if keep
        ]
        return cls(PerformanceFunction(coefficients[0], terms, hypothesis.n_params), hypothesis)


def _checked_design(
    hypothesis: Hypothesis, points: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a fit's inputs; return the design matrix and the values."""
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    if points.ndim != 2 or points.shape[1] != hypothesis.n_params:
        raise ValueError(f"points must have shape (n, {hypothesis.n_params})")
    if points.shape[0] != values.shape[0]:
        raise ValueError("points and values length mismatch")
    if points.shape[0] < hypothesis.n_coefficients:
        raise ValueError(
            f"need at least {hypothesis.n_coefficients} measurements to fit "
            f"{hypothesis.n_coefficients} coefficients, got {points.shape[0]}"
        )
    return hypothesis.design_matrix(points), values


def fit_hypothesis(
    hypothesis: Hypothesis, points: np.ndarray, values: np.ndarray
) -> FittedModel:
    """Fit the hypothesis coefficients to ``values`` at ``points``.

    Requires at least as many measurements as coefficients. The design is
    scored by the stacked kernel on a stack of one, so the fit is bitwise
    the one either engine gives this hypothesis.
    """
    # fast_multi imports this module: the kernel is bound at call time.
    from repro.regression.fast_multi import _batched_scores

    design, values = _checked_design(hypothesis, points, values)
    _, beta, surviving = _batched_scores(design[None], values[None], overwrite=True)
    return FittedModel.from_row(hypothesis, beta[0], surviving[0])
