"""Vectorized evaluation of multi-parameter combination hypotheses.

The reference implementation (:mod:`repro.regression.selection`) loops over
the additive/multiplicative combination hypotheses one at a time, each
paying a small SVD plus Python dispatch. For the DNN modeler that loop is
the multi-parameter hot path: with top-k candidates per parameter the
product of per-parameter choices yields up to ``k^m * Bell(m)`` hypotheses
per kernel (~136 for k = 3, m = 3). This module evaluates all hypotheses
with the same coefficient count at once: one stacked ``(h, n, c)`` design
tensor, one batched SVD, vectorized leave-one-out predictions and SMAPE
scores. Design columns are built once per kernel: each parameter column's
term values come from one exponent basis (:func:`_exponent_basis`), and each
term group's product is formed once, so hypotheses sharing a partition
block (most of them) never recompute it.

The winner is then refit -- and its LOO score recomputed -- through the
reference path, so the returned :class:`ScoredModel` is bit-identical to
what the per-hypothesis loop produces; the equivalence is pinned across
random multi-parameter tasks by ``tests/regression/test_fast_multi.py``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.pmnf.terms import ExponentPair, require_positive
from repro.regression.hypothesis import Hypothesis
from repro.regression.selection import ScoredModel, _fit_and_loo
from repro.regression.smape import smape

#: One scored candidate: (implausible, cv_smape, complexity, order, hypothesis).
#: ``min`` over the first four fields replicates the reference selection.
Candidate = "tuple[bool, float, tuple, int, Hypothesis]"


def _exponent_basis(
    x: np.ndarray, pairs: Iterable[ExponentPair]
) -> dict[ExponentPair, np.ndarray]:
    """The term column ``x^i * log2(x)^j`` of every pair in ``pairs``.

    Shared work is done once per column: one ``np.power`` per distinct
    polynomial exponent, one ``np.log2``, one ``np.power`` per distinct log
    exponent, then one multiply per term. These are the elementwise
    operations :meth:`CompoundTerm.evaluate` runs, on the same array, so each
    column is bitwise the term's own evaluation. The exponent is always
    passed as a Python scalar: broadcasting an array of exponents takes a
    different SIMD path and changes the last bit for some of them.
    """
    require_positive(x)
    log2x = np.log2(x)
    # Keyed by (numerator, denominator): hashing a Fraction is slow.
    powers: dict[tuple[int, int], np.ndarray] = {}
    logs: dict[int, np.ndarray] = {}
    columns: dict[ExponentPair, np.ndarray] = {}
    for pair in pairs:
        i = pair.i
        key = (i.numerator, i.denominator)
        if key[0] == 0:
            column = np.ones_like(x)
        else:
            column = powers.get(key)
            if column is None:
                column = powers[key] = np.power(x, float(i))
        if pair.j != 0:
            log = logs.get(pair.j)
            if log is None:
                log = logs[pair.j] = np.power(log2x, pair.j)
            column = column * log
        columns[pair] = column
    return columns


def _batched_scores(
    designs: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CV-SMAPE, coefficients, and predictions for stacked designs.

    ``designs`` has shape ``(h, n, c)``; returns ``(cv, beta, pred)`` of
    shapes ``(h,)``, ``(h, c)``, ``(h, n)``. Replicates the reference
    :func:`repro.regression.selection.loo_predictions` column scaling, SVD
    rank truncation, and hat-matrix leverage handling, batched over ``h``.
    """
    h, n, c = designs.shape
    scales = np.max(np.abs(designs), axis=1)  # (h, c)
    scales[scales == 0] = 1.0
    scaled = designs / scales[:, None, :]

    u, s, vt = np.linalg.svd(scaled, full_matrices=False)  # (h,n,k),(h,k),(h,k,c)
    cutoff = s[:, :1] * max(n, c) * np.finfo(float).eps
    rank_mask = s > cutoff  # (h, k)
    inv_s = np.where(rank_mask, 1.0 / np.where(s > 0, s, 1.0), 0.0)

    uty = np.einsum("hnk,n->hk", u, values)
    beta_scaled = np.einsum("hkj,hk->hj", vt, uty * inv_s)
    beta = beta_scaled / scales  # undo column scaling

    pred = np.einsum("hnk,hk->hn", scaled, beta_scaled)
    leverage = np.einsum("hnk,hk->hn", u * u, rank_mask.astype(float))
    resid = values[None, :] - pred
    loo = values[None, :] - resid / np.clip(1.0 - leverage, 1e-12, None)

    finite = np.all(np.isfinite(loo), axis=1)
    denom = np.abs(values)[None, :] + np.abs(loo)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(denom > 0, 2.0 * np.abs(values[None, :] - loo) / denom, 0.0)
    cv = np.where(finite, np.mean(ratio, axis=1) * 100.0, np.inf)
    return cv, beta, pred


class FastMultiParameterSearch:
    """Batched evaluation and selection over explicit hypothesis lists.

    Stateless -- one instance can be shared by every modeler.
    :meth:`select` replicates the reference ordering exactly:
    hypotheses with more coefficients than ``n - 1`` points are skipped,
    non-finite LOO scores are skipped, physically plausible fits (all
    surviving term coefficients non-negative, after the reference's
    negligible-term pruning) are preferred as a class, and ties break by the
    structural complexity key, then by hypothesis order.
    """

    def score(
        self,
        hypotheses: Sequence[Hypothesis],
        points: np.ndarray,
        values: np.ndarray,
    ) -> "list[Candidate]":
        """Batch-fit and LOO-score every applicable hypothesis.

        The fit stage of the pipeline. Mirrors the reference
        ``evaluate_hypotheses``: hypotheses with more coefficients than
        ``n - 1`` points or with non-finite LOO predictions are skipped
        (possibly leaving an empty list).
        """
        points = np.asarray(points, dtype=float)
        values = np.asarray(values, dtype=float)
        if points.ndim != 2 or values.ndim != 1 or points.shape[0] != values.shape[0]:
            raise ValueError("points must be (n, m) with one value per row")
        n = values.shape[0]
        # Stack hypotheses by coefficient count, skipping those with more
        # coefficients than n - 1 points. Every distinct term group
        # (partition block) gets its column once, from the per-parameter
        # exponent bases.
        by_count: dict[int, list[tuple[int, Hypothesis]]] = {}
        for idx, hyp in enumerate(hypotheses):
            c = hyp.n_coefficients
            if c <= n - 1:
                by_count.setdefault(c, []).append((idx, hyp))
        if not by_count:
            return []
        blocks = dict.fromkeys(
            key for bucket in by_count.values() for _, hyp in bucket for key in hyp.group_keys
        )
        needed: dict[int, dict[ExponentPair, None]] = {}
        for key in blocks:
            for l, pair in key:
                needed.setdefault(l, {})[pair] = None
        basis = {l: _exponent_basis(points[:, l], pairs) for l, pairs in needed.items()}
        for key in blocks:
            (l, pair), *rest = key
            col = basis[l][pair]
            for l, pair in rest:
                col = col * basis[l][pair]
            blocks[key] = col

        # Candidate tuples: (implausible, cv, complexity, order) per the
        # reference select_best ordering; min() over them replicates the
        # plausible-pool preference exactly.
        candidates: "list[Candidate]" = []
        for c, bucket in by_count.items():
            designs = np.empty((len(bucket), n, c))
            designs[:, :, 0] = 1.0
            if c > 1:
                columns = [blocks[key] for _, hyp in bucket for key in hyp.group_keys]
                designs[:, :, 1:] = np.reshape(columns, (len(bucket), c - 1, n)).transpose(0, 2, 1)
            cv, beta, pred = _batched_scores(designs, values)
            # Reference pruning: a term whose contribution is numerically
            # negligible is dropped before the plausibility check, so an
            # epsilon-negative coefficient still counts as plausible.
            col_max = np.max(np.abs(designs), axis=1)  # (h, c)
            scale = np.max(np.abs(pred), axis=1)  # (h,)
            scale[scale == 0] = 1.0
            surviving = np.abs(beta) * col_max > 1e-9 * scale[:, None]
            surviving[:, 0] = False  # the intercept is never a term
            plausible = np.all((beta >= 0.0) | ~surviving, axis=1)
            for (idx, hyp), finite, implausible, score in zip(
                bucket, np.isfinite(cv).tolist(), (~plausible).tolist(), cv.tolist()
            ):
                if finite:
                    candidates.append((implausible, score, hyp.complexity_key(), idx, hyp))
        return candidates

    def choose(
        self,
        candidates: "Sequence[Candidate]",
        points: np.ndarray,
        values: np.ndarray,
    ) -> ScoredModel:
        """Pick the winner among scored candidates and refit it exactly.

        The select stage of the pipeline. The winner is refit -- and its LOO
        score recomputed -- through the reference solver, so the returned
        model is bit-identical to the per-hypothesis loop's output.
        """
        if not candidates:
            raise ValueError("no valid hypotheses to select from")
        points = np.asarray(points, dtype=float)
        values = np.asarray(values, dtype=float)
        _, _, _, _, winner = min(candidates, key=lambda cand: cand[:4])
        fitted, loo = _fit_and_loo(winner, points, values)
        return ScoredModel(fitted=fitted, cv_smape=smape(values, loo))

    def select(
        self,
        hypotheses: Sequence[Hypothesis],
        points: np.ndarray,
        values: np.ndarray,
    ) -> ScoredModel:
        """Fit, score, and select the CV/SMAPE winner over ``hypotheses``."""
        return self.choose(self.score(hypotheses, points, values), points, values)
