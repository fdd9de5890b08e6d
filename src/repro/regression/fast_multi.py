"""Vectorized evaluation of multi-parameter combination hypotheses.

The reference implementation (:mod:`repro.regression.selection`) loops over
the additive/multiplicative combination hypotheses one at a time, each
paying a small SVD plus Python dispatch. For the DNN modeler that loop is
the multi-parameter hot path: with top-k candidates per parameter the
product of per-parameter choices yields up to ``k^m * Bell(m)`` hypotheses
per kernel (~136 for k = 3, m = 3). This module scores designs in stacks:
one ``(h, n, c)`` design tensor per design shape, one batched SVD,
vectorized leave-one-out predictions and SMAPE scores. Design columns are
built once per kernel: each parameter column's term values come from one
exponent basis (:func:`_exponent_basis`), and each term group's product is
formed once, so hypotheses sharing a partition block (most of them) never
recompute it.

**Stacking across kernels.** :func:`score_stacked` scores many
:class:`DesignGroup` s -- one kernel's hypotheses, or one measurement
line's term pairs -- in one pass: one :func:`_batched_scores` call per
``(n, c)`` design shape and per chunk of at most :data:`STACK_CHUNK`
designs, each row with its own value vector. Every row's ``cv``, ``beta``
and ``pred`` are bitwise what scoring that design alone gives (the SVD
runs per matrix, and every reduction runs along one row), which
``tests/regression/test_fast_multi.py`` pins across chunk boundaries.
:meth:`FastMultiParameterSearch.prescored` stacks a whole batch's kernels
this way and returns a search whose :meth:`~FastMultiParameterSearch.score`
serves them; a kernel it cannot serve (one that failed to prepare, or sat
in a chunk that raised) is scored alone on the same path, so it raises
exactly what it raises on its own.

The winner is then refit -- and its LOO score recomputed -- through the
reference path, so the returned :class:`ScoredModel` is bit-identical to
what the per-hypothesis loop produces; the equivalence is pinned across
random multi-parameter tasks by ``tests/regression/test_fast_multi.py``.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from repro.modeling.batch import attempt, failed
from repro.obs import get_telemetry
from repro.obs.trace import NULL_SPAN
from repro.pmnf.terms import ExponentPair, require_positive
from repro.regression.hypothesis import Hypothesis
from repro.regression.selection import ScoredModel, _fit_and_loo
from repro.regression.smape import smape

#: One scored candidate: (implausible, cv_smape, complexity, order, hypothesis).
#: ``min`` over the first four fields replicates the reference selection.
Candidate = "tuple[bool, float, tuple, int, Hypothesis]"

#: Most designs one :func:`_batched_scores` call stacks. The cap bounds
#: memory, not speed: a sweep batch's ``(125, 3)`` bucket holds ~1,150
#: designs, 4.4 MB of input plus ~15 MB of SVD/LOO transients in one call,
#: enough to push a serial ``m = 3`` sweep's peak RSS past its budget. At
#: 256 designs the transients stay under 4 MB, and the per-call overhead
#: is already amortized.
STACK_CHUNK = 256

#: Plain ufunc calls (``np.maximum.reduce``, ``np.add.reduce``) stand in for
#: their ``np.max``/``np.mean`` wrappers below: bitwise the same results
#: without the wrappers' Python dispatch, which dominates on small designs.
_EPS = float(np.finfo(float).eps)


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
    designs: np.ndarray, values: np.ndarray, overwrite: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CV-SMAPE, coefficients, and predictions for stacked designs.

    ``designs`` has shape ``(h, n, c)`` and ``values`` ``(h, n)``, one value
    vector per design; returns ``(cv, beta, pred)`` of shapes ``(h,)``,
    ``(h, c)``, ``(h, n)``. Replicates the reference
    :func:`repro.regression.selection.loo_predictions` column scaling, SVD
    rank truncation, and hat-matrix leverage handling, batched over ``h``.
    Each row's outputs depend on that row alone, bit for bit. With
    ``overwrite`` the columns are scaled in place, sparing one tensor.
    """
    h, n, c = designs.shape
    scales = np.maximum.reduce(np.abs(designs), axis=1)  # (h, c)
    scales[scales == 0] = 1.0
    scaled = np.divide(designs, scales[:, None, :], out=designs if overwrite else None)

    u, s, vt = np.linalg.svd(scaled, full_matrices=False)  # (h,n,k),(h,k),(h,k,c)
    cutoff = s[:, :1] * max(n, c) * _EPS
    rank_mask = s > cutoff  # (h, k)
    inv_s = np.where(rank_mask, 1.0 / np.where(s > 0, s, 1.0), 0.0)

    uty = np.einsum("hnk,hn->hk", u, values)
    beta_scaled = np.einsum("hkj,hk->hj", vt, uty * inv_s)
    beta = beta_scaled / scales  # undo column scaling

    pred = np.einsum("hnk,hk->hn", scaled, beta_scaled)
    # u is squared in place and dropped: a chunk's (h, n, c) tensors
    # dominate its memory.
    leverage = np.einsum("hnk,hk->hn", np.multiply(u, u, out=u), rank_mask.astype(float))
    del scaled, u
    resid = values - pred
    loo = values - resid / np.maximum(1.0 - leverage, 1e-12)

    finite = np.logical_and.reduce(np.isfinite(loo), axis=1)
    denom = np.abs(values) + np.abs(loo)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(denom > 0, 2.0 * np.abs(values - loo) / denom, 0.0)
    cv = np.where(finite, np.add.reduce(ratio, axis=1) / n * 100.0, np.inf)
    return cv, beta, pred


class DesignGroup:
    """Designs that share one value vector, keyed by coefficient count.

    ``buckets[c]`` is ``(count, columns)``: the number of designs with ``c``
    coefficients and their term columns, ``c - 1`` per design in design
    order (the intercept column is implied). A design's term is *plausible*
    when its coefficient is non-negative or its contribution is negligible
    against ``scale``: a fixed value (the line search's ``max |values|``),
    or with ``None`` the multi-parameter rule, the design's largest
    absolute prediction. :func:`score_stacked` fills ``scores[c]`` with
    ``(cv, plausible)`` arrays in design order, or leaves ``scores``
    ``None`` when a chunk holding one of its designs raised.
    """

    __slots__ = ("values", "buckets", "scale", "scores")

    def __init__(
        self,
        values: np.ndarray,
        buckets: "dict[int, tuple[int, list[np.ndarray]]]",
        scale: "float | None" = None,
    ):
        self.values = values
        self.buckets = buckets
        self.scale = scale
        self.scores: "dict[int, tuple[np.ndarray, np.ndarray]] | None" = None

    @property
    def designs(self) -> int:
        return sum(count for count, _ in self.buckets.values())


def _score_chunk(
    columns: "list[np.ndarray]", held: "list[tuple[DesignGroup, int]]", n: int, c: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(cv, plausible)`` of one chunk: ``held`` lists each group with rows
    in it and how many, and ``columns`` their term columns (``c - 1`` per
    design, in row order). The design tensor is written straight from them."""
    k = sum(count for _, count in held)
    designs = np.empty((k, n, c))
    designs[:, :, 0] = 1.0
    if c > 1:
        designs[:, :, 1:] = np.reshape(columns, (k, c - 1, n)).transpose(0, 2, 1)
    values = np.empty((k, n))
    row = 0
    for group, count in held:
        values[row : row + count] = group.values
        row += count
    col_max = np.maximum.reduce(np.abs(designs), axis=1)  # (k, c)
    cv, beta, pred = _batched_scores(designs, values, overwrite=True)
    # Reference pruning: a term whose contribution is numerically
    # negligible is dropped before the plausibility check, so an
    # epsilon-negative coefficient still counts as plausible.
    scale = np.maximum.reduce(np.abs(pred), axis=1)  # (k,)
    scale[scale == 0] = 1.0
    if any(group.scale is not None for group, _ in held):
        fixed = np.repeat(
            [np.nan if group.scale is None else group.scale for group, _ in held],
            [count for _, count in held],
        )
        scale = np.where(np.isnan(fixed), scale, fixed)
    surviving = np.abs(beta) * col_max > 1e-9 * scale[:, None]
    surviving[:, 0] = False  # the intercept is never a term
    plausible = np.logical_and.reduce((beta >= 0.0) | ~surviving, axis=1)
    return cv, plausible


def score_stacked(groups: "Sequence[DesignGroup]", isolate: bool = False) -> int:
    """Score every design of ``groups``; returns the number of
    :func:`_batched_scores` calls made.

    Rows are stacked per ``(n, c)`` shape across groups, in group order,
    and scored in chunks of at most :data:`STACK_CHUNK`. A chunk that
    raises propagates, unless ``isolate``: then the groups it held keep
    ``scores`` ``None`` and the other chunks still run.
    """
    plan: "dict[tuple[int, int], list[DesignGroup]]" = {}
    for group in groups:
        group.scores = {}
        for c in group.buckets:
            plan.setdefault((group.values.shape[0], c), []).append(group)
    failed: "set[int]" = set()
    calls = 0
    for (n, c), members in plan.items():
        sizes = [group.buckets[c][0] for group in members]
        ends = list(accumulate(sizes))
        if len(members) == 1:
            columns = members[0].buckets[c][1]
        else:
            columns = [col for group in members for col in group.buckets[c][1]]
        chunks = []
        for start in range(0, ends[-1], STACK_CHUNK):
            stop = min(start + STACK_CHUNK, ends[-1])
            held = [
                (group, min(end, stop) - max(end - size, start))
                for group, size, end in zip(members, sizes, ends)
                if end > start and end - size < stop
            ]
            calls += 1
            try:
                chunks.append(
                    _score_chunk(columns[start * (c - 1) : stop * (c - 1)], held, n, c)
                )
            # repro-lint: disable-next-line=EXC001 -- not swallowed: the
            # chunk's groups stay unscored, and each is scored alone by the
            # caller, which raises this error for the group that caused it.
            except Exception:
                if not isolate:
                    raise
                failed.update(id(group) for group, _ in held)
                chunks.append((np.full(stop - start, np.inf), np.zeros(stop - start, bool)))
        if len(chunks) == 1:
            cv, plausible = chunks[0]
        else:
            cv, plausible = (np.concatenate(part) for part in zip(*chunks))
        for group, size, end in zip(members, sizes, ends):
            group.scores[c] = (cv[end - size : end], plausible[end - size : end])
    for group in groups:
        if id(group) in failed:
            group.scores = None
    return calls


def prescore_batch(span_name: str, groups: "Sequence[DesignGroup]", kernels: int) -> None:
    """Score a batch's groups in one isolating pass, under one span.

    The span carries the batch's ``kernels``, ``designs`` and
    ``_batched_scores`` ``calls``. A one-kernel batch stacks nothing across
    kernels and opens no span: the service scores one kernel per call and
    keeps its spans for its lifetime.
    """
    span = NULL_SPAN
    if kernels > 1:
        span = get_telemetry().tracer.span(
            span_name, kernels=kernels, designs=sum(group.designs for group in groups)
        )
    with span:
        span.set(calls=score_stacked(groups, isolate=True))


class _KernelDesigns:
    """One kernel's applicable hypotheses as a :class:`DesignGroup`."""

    __slots__ = ("hypotheses", "points", "values", "kept", "group")

    def __init__(self, hypotheses: Sequence[Hypothesis], points, values):
        self.hypotheses, self.points, self.values = hypotheses, points, values
        points = np.asarray(points, dtype=float)
        values = np.asarray(values, dtype=float)
        if points.ndim != 2 or values.ndim != 1 or points.shape[0] != values.shape[0]:
            raise ValueError("points must be (n, m) with one value per row")
        n = values.shape[0]
        # Bucket hypotheses by coefficient count, skipping those with more
        # coefficients than n - 1 points. Every distinct term group
        # (partition block) gets its column once, from the per-parameter
        # exponent bases.
        by_count: dict[int, list[tuple[int, Hypothesis]]] = {}
        for idx, hyp in enumerate(hypotheses):
            c = hyp.n_coefficients
            if c <= n - 1:
                by_count.setdefault(c, []).append((idx, hyp))
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
        self.kept = by_count
        self.group = DesignGroup(
            values,
            {
                c: (len(bucket), [blocks[key] for _, hyp in bucket for key in hyp.group_keys])
                for c, bucket in by_count.items()
            },
        )

    def serves(self, hypotheses, points, values) -> bool:
        return self.hypotheses is hypotheses and self.points is points and self.values is values

    def candidates(self) -> "list[Candidate]":
        """Candidate tuples: (implausible, cv, complexity, order) per the
        reference select_best ordering; min() over them replicates the
        plausible-pool preference exactly."""
        candidates: "list[Candidate]" = []
        for c, bucket in self.kept.items():
            cv, plausible = self.group.scores[c]
            for (idx, hyp), finite, implausible, score in zip(
                bucket, np.isfinite(cv).tolist(), (~plausible).tolist(), cv.tolist()
            ):
                if finite:
                    candidates.append((implausible, score, hyp.complexity_key(), idx, hyp))
        return candidates


class FastMultiParameterSearch:
    """Batched evaluation and selection over explicit hypothesis lists.

    Stateless apart from what :meth:`prescored` stacks for one batch --
    one instance can be shared by every modeler.
    :meth:`select` replicates the reference ordering exactly:
    hypotheses with more coefficients than ``n - 1`` points are skipped,
    non-finite LOO scores are skipped, physically plausible fits (all
    surviving term coefficients non-negative, after the reference's
    negligible-term pruning) are preferred as a class, and ties break by the
    structural complexity key, then by hypothesis order.
    """

    def __init__(self):
        #: ``(id(hypotheses), id(values))`` -> a kernel scored by
        #: :meth:`prescored`; empty on a search that stacked nothing.
        self._scored: "dict[tuple[int, int], _KernelDesigns]" = {}

    def prescored(
        self, jobs: "Sequence[tuple[Sequence[Hypothesis], np.ndarray, np.ndarray]]"
    ) -> "FastMultiParameterSearch":
        """A search whose :meth:`score` serves ``jobs`` from one stacked pass.

        ``jobs`` are ``(hypotheses, points, values)`` triples, one per
        kernel; :meth:`score` finds a job by the identity of those three
        objects. A job that fails to prepare, or whose chunk raises, is left
        out: :meth:`score` then scores it alone and raises its error there.
        The returned search lives as long as the batch that holds it.
        """
        kernels = [attempt(_KernelDesigns, *job) for job in jobs]
        prepared = [kernel for kernel in kernels if not failed(kernel)]
        prescore_batch(
            "regression.stack_scores", [kernel.group for kernel in prepared], len(prepared)
        )
        search = FastMultiParameterSearch()
        search._scored = {
            (id(kernel.hypotheses), id(kernel.values)): kernel
            for kernel in prepared
            if kernel.group.scores is not None
        }
        return search

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
        (possibly leaving an empty list). A kernel :meth:`prescored` stacked
        is served from that pass; any other is stacked alone.
        """
        kernel = self._scored.get((id(hypotheses), id(values)))
        if kernel is None or not kernel.serves(hypotheses, points, values):
            kernel = _KernelDesigns(hypotheses, points, values)
            score_stacked([kernel.group])
        return kernel.candidates()

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
