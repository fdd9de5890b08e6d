"""The least-squares kernel, and vectorized evaluation of multi-parameter
combination hypotheses.

:func:`_batched_scores` is the package's one least-squares and
leave-one-out arithmetic: column scaling, one batched SVD with rank
truncation, coefficients, hat-matrix LOO predictions, their SMAPE, and the
pruning of negligible terms. Both fit engines run it. The reference loop
(:func:`repro.regression.selection.evaluate_hypotheses`) scores one design
at a time on a stack of one; this module scores designs in stacks, one
``(h, n, c)`` design tensor per design shape. For the DNN modeler that is
the multi-parameter hot path: with top-k candidates per parameter the
product of per-parameter choices yields up to ``k^m * Bell(m)`` hypotheses
per kernel (136 for k = 3, m = 3). A row's outputs depend on that row
alone, bit for bit, so both engines give every design the same score and
the same fit, and select the same model on every kernel.

**Designs by index.** A kernel's candidates are a
:class:`~repro.regression.multi_parameter.Combinations`: a combination
template, cached by its pattern (per parameter, each slot's canonical term
id, or -1 if constant; at most
:data:`~repro.regression.multi_parameter.TEMPLATE_CACHE_SIZE` kept), plus
the terms filling its slots. A hand-written hypothesis list is turned into
one by :func:`~repro.regression.multi_parameter.indexed`, uncached.
:func:`_design_plan` says which slot columns (from one
:func:`_exponent_basis` per parameter, or per column length for a whole
batch: :func:`stacked_bases`) and block products a kernel needs, and which
fill each coefficient-count bucket. A scored design is a row of its
bucket's score arrays, not a :class:`Hypothesis`.
:meth:`~FastMultiParameterSearch.choose` takes the smallest
``(implausible, cv)`` straight from those arrays and breaks an exact tie by
complexity key, then by index, building only the tied hypotheses (almost
always one, the winner). The index is the last tie-break, which is why a
template keeps the historical expansion order (see
:func:`~repro.regression.multi_parameter.combination_template`).

**Stacking across kernels.** :func:`score_stacked` scores many
:class:`DesignGroup` s -- one kernel's hypotheses, or one measurement
line's constant and term pairs -- in one pass: one :func:`_batched_scores`
call per ``(n, c)`` design shape and per chunk of at most
:data:`STACK_CHUNK` designs, each row with its own value vector. Every
row's ``cv``, ``beta`` and ``surviving`` are bitwise what scoring that
design alone gives (the SVD runs per matrix, and every reduction runs along
one row), which ``tests/regression/test_fast_multi.py`` pins across chunk
boundaries. :meth:`FastMultiParameterSearch.prescored` stacks a whole
batch's kernels this way and returns a search whose
:meth:`~FastMultiParameterSearch.score` serves them; a kernel it cannot
serve (one that failed to prepare, or sat in a chunk that raised) is scored
alone on the same path, so it raises exactly what it raises on its own.

Each scored design keeps its coefficient row and its surviving-term mask,
so the winner's :class:`ScoredModel` is built from them, with no refit;
``tests/regression/test_fast_multi.py`` pins it bitwise against the
per-hypothesis loop across random multi-parameter tasks.
"""

from __future__ import annotations

from itertools import accumulate, groupby
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from repro.modeling.batch import attempt, failed
from repro.obs import get_telemetry
from repro.obs.trace import NULL_SPAN
from repro.pmnf.terms import ExponentPair, require_positive
from repro.regression.hypothesis import FittedModel, Hypothesis
from repro.regression.multi_parameter import CombinationTemplate, indexed
from repro.regression.selection import ScoredModel

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


def stacked_bases(
    columns: "Sequence[np.ndarray]", pairs: "Sequence[Sequence[ExponentPair]]"
) -> "list[np.ndarray | None]":
    """Each column's :func:`_exponent_basis`, from one basis per column length.

    ``columns[k]`` is a 1-d parameter column and ``pairs[k]`` the exponent
    pairs it needs. Columns of one length are stacked into a ``(K, n)``
    array, and one basis over the union of their pairs is built on it: one
    ``np.power`` per distinct exponent and one ``np.log2`` for the whole
    stack. ``_exponent_basis`` is elementwise, so every stacked row is
    bitwise that column's own basis (``tests/regression/test_stacked_basis.py``
    pins it). Returns, per column, its term columns as the rows of one
    ``(len(pairs[k]), n)`` array, in the order of ``pairs[k]`` -- or
    ``None`` for a column that is not a 1-d float array, holds a value
    ``x <= 0`` or needs no pair: its owner builds its own basis, which
    raises its own error.
    """
    blocks: "list[np.ndarray | None]" = [None] * len(columns)
    by_length: "dict[int, list[int]]" = {}
    for k, x in enumerate(columns):
        if isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype == float and pairs[k]:
            by_length.setdefault(x.shape[0], []).append(k)
    for members in by_length.values():
        stack = np.stack([columns[k] for k in members])
        positive = np.logical_and.reduce(stack > 0, axis=1)
        if not positive.all():
            members = [k for k, ok in zip(members, positive.tolist()) if ok]
            stack = stack[positive]
        owners: "dict[tuple[ExponentPair, ...], list[tuple[int, int]]]" = {}
        # One pair list shared by many columns is hashed once.
        shared: "dict[int, list[tuple[int, int]]]" = {}
        for r, k in enumerate(members):
            rows = shared.get(id(pairs[k]))
            if rows is None:
                rows = shared[id(pairs[k])] = owners.setdefault(tuple(pairs[k]), [])
            rows.append((r, k))
        if not owners:
            continue
        basis = _exponent_basis(stack, dict.fromkeys(p for key in owners for p in key))
        for key, rows in owners.items():
            # Only the owners' rows: a view of a shared block would keep
            # every other column's rows alive for the whole batch.
            taken = [r for r, _ in rows] if len(owners) > 1 else slice(None)
            block = np.stack([basis[pair][taken] for pair in key], axis=1)
            for i, (_, k) in enumerate(rows):
                blocks[k] = block[i]
    return blocks


def _batched_scores(
    designs: np.ndarray, values: np.ndarray, overwrite: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CV-SMAPE, coefficients, and surviving-term masks for stacked designs.

    ``designs`` has shape ``(h, n, c)``, intercept column first, and
    ``values`` ``(h, n)``, one value vector per design; returns
    ``(cv, beta, surviving)`` of shapes ``(h,)``, ``(h, c)``, ``(h, c)``.
    Columns are scaled to unit max-abs for conditioning (PMNF columns span
    many orders of magnitude), the SVD is truncated at rank, and the exact
    LOO predictions come from the hat-matrix identity
    ``y_i - ŷ_i^{(-i)} = e_i / (1 - h_ii)``; a design whose LOO predictions
    are not all finite scores ``inf``. Each row's outputs depend on that row
    alone, bit for bit. With ``overwrite`` the columns are scaled in place,
    sparing one tensor.
    """
    h, n, c = designs.shape
    col_max = np.maximum.reduce(np.abs(designs), axis=1)  # (h, c)
    scales = np.where(col_max == 0, 1.0, col_max)
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

    # A term whose contribution over the measured points is negligible
    # against the design's largest prediction is pruned: least squares on an
    # (effectively) constant kernel otherwise leaves an epsilon-coefficient
    # term behind, a phantom lead exponent. The intercept is never a term.
    size = np.maximum.reduce(np.abs(pred), axis=1)  # (h,)
    size[size == 0] = 1.0
    surviving = np.abs(beta) * col_max > 1e-9 * size[:, None]
    surviving[:, 0] = False
    return cv, beta, surviving


class DesignGroup:
    """Designs that share one value vector, keyed by coefficient count.

    ``buckets[c]`` is ``(count, columns)``: the number of designs with ``c``
    coefficients and their term columns, ``c - 1`` per design in design
    order (the intercept column is implied). :func:`score_stacked` fills
    ``scores[c]`` with ``(cv, plausible, beta, surviving)`` arrays in design
    order, or leaves ``scores`` ``None`` when a chunk holding one of its
    designs raised. A design is *plausible* when every surviving term's
    coefficient is non-negative, so an epsilon-negative coefficient of a
    pruned term still counts as plausible.
    """

    __slots__ = ("values", "buckets", "scores")

    def __init__(self, values: np.ndarray, buckets: "dict[int, tuple[int, list[np.ndarray]]]"):
        self.values = values
        self.buckets = buckets
        self.scores: "dict[int, tuple[np.ndarray, ...]] | None" = None

    @property
    def designs(self) -> int:
        return sum(count for count, _ in self.buckets.values())

    def scored(self, hypothesis: Hypothesis, c: int, row: int) -> ScoredModel:
        """``hypothesis`` as design ``row`` of bucket ``c`` scored it."""
        cv, _, beta, surviving = self.scores[c]
        fitted = FittedModel.from_row(hypothesis, beta[row], surviving[row])
        return ScoredModel(fitted=fitted, cv_smape=float(cv[row]))


def _score_chunk(
    columns: "list[np.ndarray]", held: "list[tuple[DesignGroup, int]]", n: int, c: int
) -> "tuple[np.ndarray, ...]":
    """``(cv, plausible, beta, surviving)`` of one chunk: ``held`` lists each
    group with rows in it and how many, and ``columns`` their term columns
    (``c - 1`` per design, in row order). The design tensor is written
    straight from them."""
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
    cv, beta, surviving = _batched_scores(designs, values, overwrite=True)
    plausible = np.logical_and.reduce((beta >= 0.0) | ~surviving, axis=1)
    return cv, plausible, beta, surviving


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
                blank = np.zeros((stop - start, c))
                mask = blank.astype(bool)
                chunks.append((blank[:, 0], mask[:, 0], blank, mask))
        if len(chunks) == 1:
            parts = chunks[0]
        else:
            parts = [np.concatenate(part) for part in zip(*chunks)]
        for group, size, end in zip(members, sizes, ends):
            group.scores[c] = tuple(part[end - size : end] for part in parts)
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


def _design_plan(template: CombinationTemplate, most: int) -> tuple:
    """A kernel's plan ``(slots, products, buckets)`` for designs of at most
    ``most`` coefficients (``n - 1``), memoized on the template.

    A kernel's columns are the term columns of ``slots`` (per parameter, in
    order), then one product per block of several factors (``products``
    holds, per block size, one row array per factor). ``buckets[c]`` holds
    the ids of the hypotheses with ``c`` coefficients and their blocks'
    columns.
    """
    plan = template.designs.get(most)
    if plan is None:
        kept = [(i, hyp) for i, hyp in enumerate(template.hypotheses) if len(hyp) < most]
        needed = {template.blocks[b] for _, hyp in kept for b in hyp}
        needed = sorted(needed, key=lambda block: (len(block), block))
        members = sorted({member for block in needed for member in block})
        column = {(member,): r for r, member in enumerate(members)}
        products = []
        for _, blocks in groupby((b for b in needed if len(b) > 1), key=len):
            blocks = list(blocks)
            products.append([np.array([column[(m,)] for m in factor]) for factor in zip(*blocks)])
            column.update((block, len(column)) for block in blocks)
        buckets: "dict[int, tuple[list[int], list[int]]]" = {}
        for i, hyp in kept:
            ids, columns = buckets.setdefault(len(hyp) + 1, ([], []))
            ids.append(i)
            columns.extend(column[template.blocks[b]] for b in hyp)
        slots = [(l, [s for _, s in row]) for l, row in groupby(members, key=itemgetter(0))]
        plan = template.designs[most] = (slots, products, buckets)
    return plan


class _KernelDesigns:
    """One kernel's applicable hypotheses as a :class:`DesignGroup`.

    Built in two steps, so a batch can share its exponent bases: the
    constructor plans the kernel's designs (``slots`` lists, per parameter,
    the exponent pairs of its needed slot columns), and :meth:`build` fills
    the group from each slot row's term columns (a :func:`stacked_bases`
    block), built here where none is given.
    """

    __slots__ = (
        "hypotheses", "points", "values", "columns", "combinations", "slots", "products",
        "buckets", "group",
    )

    def __init__(self, hypotheses: Sequence[Hypothesis], points, values):
        self.hypotheses, self.points, self.values = hypotheses, points, values
        points = np.asarray(points, dtype=float)
        values = np.asarray(values, dtype=float)
        if points.ndim != 2 or values.ndim != 1 or points.shape[0] != values.shape[0]:
            raise ValueError("points must be (n, m) with one value per row")
        self.columns, self.group = points.T, None
        self.combinations = combinations = indexed(hypotheses)
        terms = combinations.terms
        slots, self.products, self.buckets = _design_plan(
            combinations.template, values.shape[0] - 1
        )
        self.slots = [(l, [terms[l][slot].exponents for slot in row]) for l, row in slots]

    def build(self, bases: "Sequence[np.ndarray | None] | None" = None) -> "_KernelDesigns":
        """Fill :attr:`group`; ``bases[s]`` holds the term columns of
        ``slots[s]`` (a :func:`stacked_bases` block), or ``None`` to build
        them here."""
        # One column per needed slot, from its parameter's exponent basis,
        # then one per needed block of several factors: a block size at a
        # time, multiplied elementwise in parameter order, so every column
        # is bitwise its term group's evaluation.
        columns = []
        for s, (l, pairs) in enumerate(self.slots):
            block = bases[s] if bases is not None else None
            if block is None:
                basis = _exponent_basis(self.columns[l], pairs)
                block = [basis[pair] for pair in pairs]
            columns.extend(block)
        if self.products:
            factors = np.array(columns)
            for first, *rest in self.products:
                block = factors[first]
                for more in rest:
                    block *= factors[more]
                columns.extend(block)
        self.group = DesignGroup(
            np.asarray(self.values, dtype=float),
            {
                c: (len(ids), [columns[j] for j in blocks])
                for c, (ids, blocks) in self.buckets.items()
            },
        )
        return self

    def serves(self, hypotheses, points, values) -> bool:
        return self.hypotheses is hypotheses and self.points is points and self.values is values


class FastMultiParameterSearch:
    """Batched evaluation and selection over candidate sequences: a
    :class:`~repro.regression.multi_parameter.Combinations` or any list of
    hypotheses.

    Stateless apart from what :meth:`prescored` stacks for one batch --
    one instance can be shared by every modeler.
    :meth:`select` replicates the reference ordering exactly:
    hypotheses with more coefficients than ``n - 1`` points are skipped,
    non-finite LOO scores are skipped, physically plausible fits (all
    surviving term coefficients non-negative, after the kernel's
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
        planned = [attempt(_KernelDesigns, *job) for job in jobs]
        planned = [kernel for kernel in planned if not failed(kernel)]
        needs = [(kernel.columns[l], pairs) for kernel in planned for l, pairs in kernel.slots]
        rows = iter(stacked_bases(*zip(*needs)) if needs else ())
        built = [attempt(kernel.build, [next(rows) for _ in kernel.slots]) for kernel in planned]
        prepared = [kernel for kernel in built if not failed(kernel)]
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
    ) -> _KernelDesigns:
        """Batch-fit and LOO-score every applicable hypothesis.

        The fit stage of the pipeline; returns the kernel's scored designs.
        Mirrors the reference ``evaluate_hypotheses``: hypotheses with more
        coefficients than ``n - 1`` points have no design, and a design with
        non-finite LOO predictions scores ``inf`` (:meth:`choose` skips it).
        A kernel :meth:`prescored` stacked is served from that pass; any
        other is stacked alone.
        """
        kernel = self._scored.get((id(hypotheses), id(values)))
        if kernel is None or not kernel.serves(hypotheses, points, values):
            kernel = _KernelDesigns(hypotheses, points, values).build()
            score_stacked([kernel.group])
        return kernel

    def choose(self, kernel: _KernelDesigns) -> ScoredModel:
        """Pick the winner among a kernel's scored designs.

        The select stage of the pipeline, read from the bucket arrays: the
        plausible designs with a finite score if there are any, else all
        with a finite score; the lowest score among them; an exact tie
        broken by complexity key, then by hypothesis index, so only the tied
        hypotheses are built. The winner's model is built from the
        coefficients and surviving terms its stacked pass left, so it is
        bit-identical to the per-hypothesis loop's output.
        """
        buckets = [(c, ids) for c, (ids, _) in kernel.buckets.items()]
        scores = [kernel.group.scores[c] for c, _ in buckets]
        cv = np.concatenate([score[0] for score in scores] or [np.empty(0)])
        plausible = np.concatenate([score[1] for score in scores] or [np.empty(0, dtype=bool)])
        finite = np.isfinite(cv)
        # The plausible finite scores if any, else all finite ones; every
        # other design scores inf here, so a finite minimum is a candidate's.
        for pool in (finite & plausible, finite):
            pool = np.where(pool, cv, np.inf)
            best = np.minimum.reduce(pool, initial=np.inf)
            if best < np.inf:
                break
        else:
            raise ValueError("no valid hypotheses to select from")
        tied = []  # (c, row, hypothesis index) of each design at the minimum
        for flat in (pool == best).nonzero()[0].tolist():
            for c, ids in buckets:
                if flat < len(ids):
                    tied.append((c, flat, ids[flat]))
                    break
                flat -= len(ids)
        if len(tied) == 1:
            c, row, idx = tied[0]
            return kernel.group.scored(kernel.hypotheses[idx], c, row)
        ranked = [(kernel.hypotheses[idx], c, row, idx) for c, row, idx in tied]
        winner, c, row, _ = min(ranked, key=lambda t: (t[0].complexity_key(), t[3]))
        return kernel.group.scored(winner, c, row)

    def select(
        self,
        hypotheses: Sequence[Hypothesis],
        points: np.ndarray,
        values: np.ndarray,
    ) -> ScoredModel:
        """Fit, score, and select the CV/SMAPE winner over ``hypotheses``."""
        return self.choose(self.score(hypotheses, points, values))
