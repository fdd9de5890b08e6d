"""PMNF hypotheses and least-squares coefficient fitting.

A :class:`Hypothesis` is a function *structure*: an intercept plus a list of
term groups, each group a product of per-parameter compound terms. Fitting
determines the intercept and one coefficient per group by linear least
squares on the (median) measurement values -- the PMNF is linear in its
coefficients, which is what makes Extra-P's search cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.pmnf.function import MultiTerm, PerformanceFunction
from repro.pmnf.terms import CompoundTerm
from repro.regression.smape import smape

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
    """A hypothesis with fitted coefficients and its in-sample fit quality."""

    function: PerformanceFunction
    hypothesis: Hypothesis
    smape: float
    rss: float


def _solve_scaled_lstsq(design: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Least squares with column scaling for conditioning.

    PMNF basis columns span many orders of magnitude (e.g. ``x^3`` at
    ``x = 32768``); scaling each column to unit max-abs keeps the SVD-based
    solve well conditioned, and the scaling is undone on the coefficients.
    """
    scales = np.max(np.abs(design), axis=0)
    scales[scales == 0] = 1.0
    coef, *_ = np.linalg.lstsq(design / scales, values, rcond=None)
    return coef / scales


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


def _fit_design(hypothesis: Hypothesis, design: np.ndarray, values: np.ndarray) -> FittedModel:
    """Least-squares fit of ``hypothesis`` on its evaluated design matrix."""
    coef = _solve_scaled_lstsq(design, values)
    predicted = design @ coef
    # Prune terms whose contribution over the measured range is numerically
    # negligible: least squares on an (effectively) constant kernel otherwise
    # leaves an epsilon-coefficient term behind, and the model would report a
    # phantom lead exponent.
    scale = float(np.max(np.abs(predicted))) or 1.0
    terms = [
        MultiTerm(c, group)
        for c, group, column in zip(coef[1:], hypothesis.groups, design.T[1:])
        if np.max(np.abs(c * column)) > 1e-9 * scale
    ]
    function = PerformanceFunction(coef[0], terms, hypothesis.n_params)
    residual = values - predicted
    # A degenerate fit (overflowing basis columns) yields non-finite
    # predictions; smape() refuses those, so record the fit as maximally bad
    # instead -- selection's finite-LOO check discards it downstream.
    in_sample = (
        smape(values, predicted) if np.all(np.isfinite(predicted)) else float("inf")
    )
    return FittedModel(
        function=function,
        hypothesis=hypothesis,
        smape=in_sample,
        rss=float(residual @ residual),
    )


def fit_hypothesis(
    hypothesis: Hypothesis, points: np.ndarray, values: np.ndarray
) -> FittedModel:
    """Fit the hypothesis coefficients to ``values`` at ``points``.

    Requires at least as many measurements as coefficients. Returns the
    fitted function together with its in-sample SMAPE and residual sum of
    squares.
    """
    return _fit_design(hypothesis, *_checked_design(hypothesis, points, values))
