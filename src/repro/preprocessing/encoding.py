"""The 11-slot input encoding of measurement lines."""

from __future__ import annotations

import numpy as np

from repro.experiment.lines import ParameterLine

#: Fixed normalized sampling positions; one network input neuron each.
#: Chosen so that power-of-two parameter sequences (the common case in HPC
#: scaling studies) land exactly on slots.
SAMPLE_POSITIONS: np.ndarray = np.asarray(
    [1 / 64, 1 / 32, 1 / 16, 1 / 8, 2 / 8, 3 / 8, 4 / 8, 5 / 8, 6 / 8, 7 / 8, 1.0]
)

#: Extra-P requires at least five values per parameter ...
MIN_POINTS: int = 5
#: ... and the paper caps the network input at eleven.
MAX_POINTS: int = 11

#: Width of the network input layer.
INPUT_SIZE: int = len(SAMPLE_POSITIONS)


def normalize_positions(xs: np.ndarray) -> np.ndarray:
    """Normalize parameter values to ``(0, 1]`` by dividing by the maximum.

    This makes the position information independent of the range and scale
    of the measurement sequence (Sec. IV-C).
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        raise ValueError("empty position array")
    if np.any(xs <= 0):
        raise ValueError("parameter values must be positive")
    return xs / np.max(xs)


def assign_slots(positions: np.ndarray) -> np.ndarray:
    """Match normalized positions to sampling slots, one measurement per slot.

    A greedy nearest-neighbour matching: all (measurement, slot) pairs are
    considered in order of increasing distance; a pair is accepted when both
    its measurement and its slot are still free. Because there are at least
    as many slots as measurements, every measurement receives a slot.

    Returns an integer array mapping measurement index -> slot index.
    """
    positions = np.asarray(positions, dtype=float)
    n = positions.size
    if n > INPUT_SIZE:
        raise ValueError(f"at most {INPUT_SIZE} measurements can be encoded, got {n}")
    dist = np.abs(positions[:, None] - SAMPLE_POSITIONS[None, :])
    slot_of = [-1] * n
    slot_used = [False] * INPUT_SIZE
    assigned = 0
    for flat in np.argsort(dist, axis=None).tolist():
        meas, slot = divmod(flat, INPUT_SIZE)
        if slot_of[meas] == -1 and not slot_used[slot]:
            slot_of[meas] = slot
            slot_used[slot] = True
            assigned += 1
            if assigned == n:
                break
    return np.array(slot_of, dtype=int)


def stacked_slots(positions: np.ndarray) -> np.ndarray:
    """:func:`assign_slots` of every row of ``positions`` (``(L, n)``).

    A row in which every measurement has one nearest slot, and no two
    measurements the same one, gets those nearest slots: the greedy
    matching takes each measurement's nearest pair before any other pair
    of that measurement, and no other measurement can have taken that slot
    before it, whatever order the sort puts equal distances in. Every other
    row is matched by :func:`assign_slots` itself, so its ties break
    exactly as they do there.
    """
    dist = np.abs(positions[:, :, None] - SAMPLE_POSITIONS)
    nearest = np.argmin(dist, axis=2)
    unique = np.add.reduce(dist == np.minimum.reduce(dist, axis=2)[:, :, None], axis=2) == 1
    distinct = np.diff(np.sort(nearest, axis=1), axis=1) != 0
    simple = np.logical_and.reduce(unique, axis=1) & np.logical_and.reduce(distinct, axis=1)
    for row in np.flatnonzero(~simple).tolist():
        nearest[row] = assign_slots(positions[row])
    return nearest


def _thin_to_max(xs: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce oversized lines to MAX_POINTS, keeping endpoints, evenly spaced.

    Points are thinned along the last axis of both arrays.
    """
    size = xs.shape[-1]
    if size <= MAX_POINTS:
        return xs, values
    keep = np.unique(np.round(np.linspace(0, size - 1, MAX_POINTS)).astype(int))
    return xs[..., keep], values[..., keep]


def _scaled(rows: np.ndarray) -> np.ndarray:
    """``rows`` scaled to unit max-abs, each on its own."""
    scale = np.max(np.abs(rows), axis=1, keepdims=True)
    # Division by 1.0 is exact: rows whose scale is not positive stay as they are.
    return rows / np.where(scale > 0, scale, 1.0)


def encode_lines(xs: np.ndarray, values: np.ndarray, enrich: bool = True) -> np.ndarray:
    """Encode several measurement lines that share one point layout ``xs``.

    ``values`` holds one row of (median) measurements per line, one column
    per entry of ``xs``; the result holds one :data:`INPUT_SIZE` row per
    line. Validation, sorting and slot assignment depend only on ``xs`` and
    run once per call; the arithmetic on each row is exactly
    :func:`encode_line`'s, so row ``k`` is bit-identical to
    ``encode_line(xs, values[k])``.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    if xs.ndim != 1 or values.ndim != 2 or values.shape[1] != xs.size:
        raise ValueError("xs must be 1-d and values 2-d with one column per entry of xs")
    if xs.size < MIN_POINTS:
        raise ValueError(f"at least {MIN_POINTS} measurement points are required, got {xs.size}")
    order = np.argsort(xs)
    xs, values = xs[order], values[:, order]
    if np.any(np.diff(xs) == 0):
        raise ValueError("duplicate parameter values in measurement line")
    xs, values = _thin_to_max(xs, values)
    slots = assign_slots(normalize_positions(xs))
    vectors = np.zeros((values.shape[0], INPUT_SIZE), dtype=float)
    vectors[:, slots] = _scaled(values / xs if enrich else values)
    return vectors


def encode_stacked(xs: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode enriched measurement lines of one length, one per row of ``xs`` and ``values``.

    Returns ``(vectors, encoded)``: one :data:`INPUT_SIZE` row per line, and
    whether the line was encoded. A line :func:`encode_line` would refuse
    (fewer than :data:`MIN_POINTS` points, a duplicate or non-positive
    parameter value), or whose parameter values are not all finite, is not
    encoded here: its row stays zero, and its owner encodes it alone, which
    raises the error. The sort, the checks, enrichment, scaling and position
    normalisation run across rows, each elementwise or along one row, and
    :func:`stacked_slots` assigns the slots, so every encoded row is bitwise
    ``encode_line(xs[k], values[k])``.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    if xs.ndim != 2 or xs.shape != values.shape:
        raise ValueError("xs and values must be 2-d arrays of equal shape")
    vectors = np.zeros((xs.shape[0], INPUT_SIZE), dtype=float)
    if xs.shape[1] < MIN_POINTS:
        return vectors, np.zeros(xs.shape[0], dtype=bool)
    # Distinct values sort into one order, however the sort breaks ties.
    order = np.argsort(xs, axis=1)
    xs = np.take_along_axis(xs, order, axis=1)
    values = np.take_along_axis(values, order, axis=1)
    encoded = (
        np.logical_and.reduce(np.isfinite(xs), axis=1)
        & np.logical_and.reduce(np.diff(xs, axis=1) != 0, axis=1)
        & (xs[:, 0] > 0)
    )
    if not encoded.all():
        if not encoded.any():
            return vectors, encoded
        xs, values = xs[encoded], values[encoded]
    xs, values = _thin_to_max(xs, values)
    slots = stacked_slots(xs / np.max(xs, axis=1, keepdims=True))
    vectors[np.flatnonzero(encoded)[:, None], slots] = _scaled(values / xs)
    return vectors, encoded


def encode_line(xs: np.ndarray, values: np.ndarray, enrich: bool = True) -> np.ndarray:
    """Encode one measurement line into the 11-slot network input vector.

    ``xs`` are the varying parameter's values, ``values`` the (median)
    measurements. Steps: optional enrichment ``v / x`` (implicit position
    information), position normalization, nearest-neighbour slot assignment,
    zero masking of free slots, and max-abs value scaling so the network sees
    the *shape* of the measurements rather than their magnitude (coefficients
    span six decades in the search space). This is the one-row case of
    :func:`encode_lines`.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    if xs.shape != values.shape or xs.ndim != 1:
        raise ValueError("xs and values must be 1-d arrays of equal length")
    return encode_lines(xs, values[None, :], enrich=enrich)[0]


def encode_parameter_line(
    line: ParameterLine, enrich: bool = True, aggregation: str = "median"
) -> np.ndarray:
    """Encode a :class:`~repro.experiment.lines.ParameterLine`.

    ``aggregation`` picks the representative value of the repetitions; the
    paper encodes the median.
    """
    return encode_line(line.xs, line.values(aggregation), enrich=enrich)
