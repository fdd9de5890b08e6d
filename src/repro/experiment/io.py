"""On-disk formats for experiments.

Three formats are supported:

* **JSON** -- a straightforward structured dump, lossless and versioned.
* **CSV** -- one row per repetition (``kernel, metric, <parameters...>,
  value``), the shape measurement databases and spreadsheets exchange.
* **text** -- an Extra-P style line format that is convenient to write by
  hand and close to what the original tool consumes::

      PARAMETER p
      PARAMETER n
      POINTS (8 1000) (16 1000) (32 1000) (64 1000) (128 1000)
      METRIC time
      REGION sweep
      DATA 10.1 9.9 10.3
      DATA 20.6 19.8 20.1
      ...

  Each ``DATA`` line carries the repetitions of one point, in ``POINTS``
  order; ``REGION`` starts a new kernel.

Every format is read through one seam. A reader per format checks the
input's structure where it reads it -- field types, numbers, point arity
against the parameters, positive finite coordinates -- and emits each
kernel's flat rows ``(location, point, repetitions)`` in input order,
merging nothing. :func:`_assemble` hands a kernel's rows to
:meth:`Kernel.add_rows`, one block per run of rows with equal repetition
counts, and :meth:`MeasurementTable.build` merges repeated coordinates,
repetitions in input order. Every structural defect raises
:class:`ExperimentFormatError` naming the source and, where there is one,
the line or the kernel and measurement.

Two layers of strictness:

* The per-format loaders (:func:`load_json`, :func:`load_csv`,
  :func:`load_text`) accept anything structurally valid with finite
  values -- including negative runtimes and ragged repetition counts --
  because synthetic and handwritten inputs legitimately use both.
* :func:`parse_experiment` (and :func:`load_experiment`, its thin
  path-suffix wrapper used by the CLI) additionally refuses NaN/Inf,
  negative runtimes and ragged repetition counts, checked over each
  kernel's row arrays and built table, with errors that name the
  offending input location. With ``keep_going=True`` a bad kernel is
  quarantined (dropped and reported, optionally journaled into a run
  manifest) instead of failing the load. :func:`parse_experiment` works on
  in-memory payloads (decoded JSON dicts, ``bytes``, or text in any of the
  three formats), which is what the modeling service feeds it -- no
  temp-file round-trips.

All savers write atomically (temp file + rename), so a crash mid-save never
leaves a truncated experiment file behind.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.experiment.experiment import Experiment
from repro.util.artifacts import atomic_write_text

_JSON_VERSION = 1


class ExperimentFormatError(ValueError):
    """An input file that cannot be parsed or fails validation.

    Messages name the file (and, where possible, the line) so the offending
    input can be found without re-running under a debugger.
    """


@dataclass(frozen=True)
class QuarantineRecord:
    """One kernel dropped by :func:`load_experiment` under ``keep_going``."""

    kernel: str
    reason: str
    location: "str | None" = None


@dataclass
class _Rows:
    """One kernel as a reader emits it: flat rows in input order, unmerged."""

    name: str
    metric: str
    locations: "list[str]" = field(default_factory=list)
    points: "list[tuple[float, ...]]" = field(default_factory=list)
    values: "list[tuple[float, ...]]" = field(default_factory=list)

    def add(self, location: str, point: "tuple[float, ...]", values: "tuple[float, ...]") -> None:
        self.locations.append(location)
        self.points.append(point)
        self.values.append(values)


def _parameters(names) -> "list[str]":
    """``names`` checked as parameter names: a non-empty list of distinct strings."""
    if not isinstance(names, list) or not names or not all(isinstance(n, str) and n for n in names):
        raise ValueError(f"parameters must be a non-empty list of names, got {names!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"parameter names must be unique, got {names!r}")
    return names


def _point(raw, arity: int) -> "tuple[float, ...]":
    """``raw`` as a point of ``arity`` positive, finite parameter values."""
    point = tuple(float(v) for v in raw)
    if len(point) != arity:
        raise ValueError(f"point {point} has arity {len(point)}, expected {arity}")
    if not all(0.0 < v < math.inf for v in point):
        raise ValueError(f"parameter values must be positive and finite, got {point}")
    return point


# --------------------------------------------------------------------- JSON
def to_json_dict(experiment: Experiment) -> dict:
    """Serialize an experiment into a JSON-compatible dictionary."""
    return {
        "version": _JSON_VERSION,
        "parameters": list(experiment.parameters),
        "kernels": [
            {
                "name": kern.name,
                "metric": kern.metric,
                "measurements": [
                    {
                        "point": list(meas.coordinate.as_tuple()),
                        "values": meas.values.tolist(),
                    }
                    for meas in kern.measurements
                ],
            }
            for kern in experiment.kernels
        ],
    }


def from_json_dict(data: dict, path: "str | Path | None" = None) -> Experiment:
    """Inverse of :func:`to_json_dict`.

    ``path`` (optional) is only used to prefix error messages with the
    originating file.
    """
    return _assemble(*_read_json(data, None if path is None else str(path)))[0]


def save_json(experiment: Experiment, path: "str | Path") -> None:
    atomic_write_text(path, json.dumps(to_json_dict(experiment), indent=2))


def load_json(path: "str | Path") -> Experiment:
    return _load(path, "json")


def _read_json_text(text: str, source: str) -> "tuple[list[str], list[_Rows]]":
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ExperimentFormatError(f"{source}:{err.lineno}: invalid JSON: {err.msg}") from None
    except RecursionError:
        raise ExperimentFormatError(f"{source}: invalid JSON: nested too deeply") from None
    return _read_json(data, source)


def _read_json(data, source: "str | None") -> "tuple[list[str], list[_Rows]]":
    prefix = "" if source is None else f"{source}: "
    if not isinstance(data, dict):
        raise ExperimentFormatError(
            f"{prefix}expected a JSON object at the top level, got {type(data).__name__}"
        )
    if data.get("version") != _JSON_VERSION:
        raise ExperimentFormatError(
            f"{prefix}unsupported experiment format version: "
            f"found {data.get('version')!r}, supported {_JSON_VERSION}"
        )
    for name in ("parameters", "kernels"):
        if name not in data:
            raise ExperimentFormatError(f"{prefix}missing {name!r} field")
    try:
        parameters = _parameters(data["parameters"])
    except ValueError as err:
        raise ExperimentFormatError(f"{prefix}{err}") from None
    if not isinstance(data["kernels"], list):
        raise ExperimentFormatError(f"{prefix}'kernels' must be a list")
    kernels: "dict[str, _Rows]" = {}
    for k, kern_data in enumerate(data["kernels"]):
        if not isinstance(kern_data, dict):
            raise ExperimentFormatError(
                f"{prefix}kernel {k}: expected an object, got {type(kern_data).__name__}"
            )
        name = kern_data.get("name")
        if not isinstance(name, str):
            raise ExperimentFormatError(
                f"{prefix}kernel {k}: expected a string 'name', got {name!r}"
            )
        if name in kernels:
            raise ExperimentFormatError(f"{prefix}kernel {k}: duplicate kernel name {name!r}")
        where = f"{prefix}kernel {name!r}"
        metric, measurements = kern_data.get("metric", "time"), kern_data.get("measurements")
        if not isinstance(metric, str) or not isinstance(measurements, list):
            raise ExperimentFormatError(
                f"{where}: expected a string 'metric' and a 'measurements' list"
            )
        rows = kernels[name] = _Rows(name, metric)
        for i, meas in enumerate(measurements):
            location = f"{where}, measurement {i}"
            meas = meas if isinstance(meas, dict) else {}
            point, values = meas.get("point"), meas.get("values")
            if not isinstance(point, list) or not isinstance(values, list) or not values:
                raise ExperimentFormatError(
                    f"{location}: expected an object with a 'point' list and a non-empty "
                    "'values' list"
                )
            try:
                rows.add(location, _point(point, len(parameters)), tuple(float(v) for v in values))
            except (TypeError, ValueError, OverflowError) as err:
                raise ExperimentFormatError(f"{location}: {err}") from None
    return parameters, list(kernels.values())


# ---------------------------------------------------------------------- CSV
def save_csv(experiment: Experiment, path: "str | Path") -> None:
    """Write one row per repetition: ``kernel,metric,<params...>,value``."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(["kernel", "metric", *experiment.parameters, "value"])
    for kern in experiment.kernels:
        for meas in kern.measurements:
            for value in meas.values:
                writer.writerow(
                    [kern.name, kern.metric, *[f"{v:g}" for v in meas.coordinate], f"{value:.10g}"]
                )
    atomic_write_text(path, buffer.getvalue())


def _read_csv(text: str, source: str) -> "tuple[list[str], list[_Rows]]":
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        raise ExperimentFormatError(f"{source}: empty CSV file")
    if len(header) < 4 or header[0] != "kernel" or header[1] != "metric" or header[-1] != "value":
        raise ExperimentFormatError(
            f"{source}: expected header 'kernel,metric,<parameters...>,value', got {header!r}"
        )
    try:
        parameters = _parameters(header[2:-1])
    except ValueError as err:
        raise ExperimentFormatError(f"{source}:1: {err}") from None
    kernels: "dict[str, _Rows]" = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        location = f"{source}:{lineno}"
        if len(row) != len(header):
            raise ExperimentFormatError(
                f"{location}: expected {len(header)} columns, got {len(row)}"
            )
        name, metric, *rest = row
        if name not in kernels:
            kernels[name] = _Rows(name, metric)
        rows = kernels[name]
        if metric != rows.metric:
            raise ExperimentFormatError(
                f"{location}: kernel {name!r} has metric {rows.metric!r} "
                f"(from {rows.locations[0]}), not {metric!r}"
            )
        try:
            rows.add(location, _point(rest[:-1], len(parameters)), (float(rest[-1]),))
        except ValueError as err:
            raise ExperimentFormatError(f"{location}: {err}") from None
    return parameters, list(kernels.values())


def load_csv(path: "str | Path") -> Experiment:
    """Parse the CSV layout written by :func:`save_csv`.

    Repetitions of the same (kernel, coordinate) accumulate automatically;
    rows may appear in any order. Parameter names are taken from the header
    (every column between ``metric`` and ``value``).
    """
    return _load(path, "csv")


# --------------------------------------------------------------------- text
def save_text(experiment: Experiment, path: "str | Path") -> None:
    """Write the Extra-P style text format."""
    lines = [f"PARAMETER {p}" for p in experiment.parameters]
    coords = experiment.coordinates()
    points = " ".join("(" + " ".join(f"{v:g}" for v in c) + ")" for c in coords)
    lines.append(f"POINTS {points}")
    for kern in experiment.kernels:
        lines.append(f"METRIC {kern.metric}")
        lines.append(f"REGION {kern.name}")
        at = {meas.coordinate: meas for meas in kern.measurements}
        for coord in coords:
            if coord in at:
                lines.append("DATA " + " ".join(f"{v:.10g}" for v in at[coord].values))
            else:
                lines.append("DATA")
    atomic_write_text(path, "\n".join(lines) + "\n")


def _parse_points(spec: str, arity: int) -> "list[tuple[float, ...]]":
    points = []
    depth, token = 0, []
    for ch in spec:
        if ch == "(":
            if depth:
                raise ValueError("nested parenthesis in POINTS line")
            depth, token = 1, []
        elif ch == ")":
            if not depth:
                raise ValueError("unbalanced parenthesis in POINTS line")
            points.append(_point("".join(token).split(), arity))
            depth = 0
        elif depth:
            token.append(ch)
        elif not ch.isspace():
            raise ValueError(f"unexpected character {ch!r} in POINTS line")
    if depth:
        raise ValueError("unbalanced parenthesis in POINTS line")
    if not points:
        raise ValueError("POINTS line contains no points")
    return points


def _read_text(text: str, source: str) -> "tuple[list[str], list[_Rows]]":
    parameters: list[str] = []
    points: "list[tuple[float, ...]] | None" = None
    metric = "time"
    kernels: list[_Rows] = []
    data_index = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword, _, rest = line.partition(" ")
        keyword = keyword.upper()
        location = f"{source}:{lineno}"
        try:
            if keyword == "PARAMETER":
                if points is not None:
                    raise ValueError("PARAMETER must precede POINTS")
                parameters.append(rest.strip())
            elif keyword == "POINTS":
                if not parameters:
                    raise ValueError("POINTS before PARAMETER")
                points = _parse_points(rest, len(_parameters(parameters)))
            elif keyword == "METRIC":
                metric = rest.strip()
            elif keyword == "REGION":
                if points is None:
                    raise ValueError("REGION before POINTS")
                name = rest.strip()
                if any(k.name == name for k in kernels):
                    raise ValueError(f"kernel {name!r} already exists")
                kernels.append(_Rows(name, metric))
                data_index = 0
            elif keyword == "DATA":
                if not kernels:
                    raise ValueError("DATA before REGION")
                if data_index >= len(points):
                    raise ValueError("more DATA lines than POINTS")
                values = tuple(float(v) for v in rest.split())
                if values:
                    kernels[-1].add(location, points[data_index], values)
                data_index += 1
            else:
                raise ValueError(f"unknown keyword {keyword!r}")
        except ValueError as err:
            raise ExperimentFormatError(f"{location}: {err}") from None
    if not kernels:
        raise ExperimentFormatError(f"{source}: file defines no REGION")
    return parameters, kernels


def load_text(path: "str | Path") -> Experiment:
    """Parse the Extra-P style text format."""
    return _load(path, "text")


_READERS = {"json": _read_json_text, "csv": _read_csv, "text": _read_text}


def _load(path: "str | Path", format: str) -> Experiment:
    """The lenient loader of ``format``: structure checked, values only for finiteness."""
    return _assemble(*_READERS[format](Path(path).read_text(), str(path)))[0]


# ------------------------------------------------- validation and quarantine
def _assemble(
    parameters: "list[str]", kernels: "list[_Rows]", strict: bool = False
) -> "tuple[Experiment, list[QuarantineRecord]]":
    """Build an :class:`Experiment` from the readers' rows.

    Each kernel's rows go to one :meth:`Kernel.add_rows` in input order, one
    block per run of rows with equal repetition counts, so the kernel's
    :class:`MeasurementTable` merges repeated coordinates. A non-finite
    value is refused naming its row. With ``strict``, a kernel with a
    non-finite or negative value, or with ragged repetition counts, is left
    out instead and returned as a :class:`QuarantineRecord`, in input order.
    """
    experiment = Experiment(parameters)
    defects: list[QuarantineRecord] = []
    for rows in kernels:
        flat = np.concatenate(rows.values) if rows.values else np.empty(0)
        bad = ~np.isfinite(flat)
        if strict:
            bad |= flat < 0
        if bad.any():
            # The first offending repetition, mapped back to the row holding it.
            first = int(np.argmax(bad))
            ends = np.cumsum([len(values) for values in rows.values])
            location = rows.locations[int(np.searchsorted(ends, first, side="right"))]
            value = float(flat[first])
            if not strict:
                raise ExperimentFormatError(f"{location}: measurement values must be finite")
            kind = "negative runtime" if math.isfinite(value) else "non-finite value"
            defects.append(QuarantineRecord(rows.name, f"{kind} {value!r}", location))
            continue
        kernel = experiment.create_kernel(rows.name, rows.metric)
        if rows.values:
            kernel.add_rows(rows.points, rows.values)
        if strict and len(kernel.table.groups) > 1:
            groups = kernel.table.groups
            counts = [values.shape[1] for _, values in groups]
            fewest = groups[counts.index(min(counts))][0]
            short = set(map(tuple, kernel.table.points[fewest].tolist()))
            location = next(at for at, p in zip(rows.locations, rows.points) if p in short)
            reason = f"ragged repetition rows: {min(counts)}..{max(counts)} repetitions per point"
            defects.append(QuarantineRecord(rows.name, reason, location))
            experiment.remove_kernel(rows.name)
    return experiment, defects


def parse_experiment(
    payload,
    format: str = "json",
    source: "str | None" = None,
    keep_going: bool = False,
    manifest=None,
) -> "tuple[Experiment, list[QuarantineRecord]]":
    """Parse *and validate* an in-memory experiment payload.

    ``payload`` may be an already-decoded JSON dictionary (the
    :func:`to_json_dict` layout), UTF-8 ``bytes``, or a ``str`` holding any
    of the three supported formats -- ``format`` selects ``"json"``,
    ``"csv"``, or ``"text"`` for textual payloads. ``source`` labels error
    messages and quarantine locations (defaults to ``"<payload>"``).

    Validation and quarantine semantics are exactly those of
    :func:`load_experiment` (which is a thin path-suffix wrapper over this
    function): every kernel's raw values must be finite, non-negative, and
    have the same number of repetitions at every point. A violation raises
    :class:`ExperimentFormatError` naming the input location -- unless
    ``keep_going`` is set, in which case the offending kernel is dropped and
    reported in the returned quarantine list (and recorded into ``manifest``
    via :meth:`RunManifest.record_quarantine` when one is given).
    """
    label = "<payload>" if source is None else source
    if isinstance(payload, (bytes, bytearray)):
        try:
            payload = bytes(payload).decode("utf-8")
        except UnicodeDecodeError as err:
            raise ExperimentFormatError(f"{label}: payload is not valid UTF-8: {err}") from None
    if isinstance(payload, dict):
        parameters, kernels = _read_json(payload, label)
    elif isinstance(payload, str):
        if format not in _READERS:
            raise ValueError(
                f"unknown experiment format {format!r}: expected 'json', 'csv', or 'text'"
            )
        parameters, kernels = _READERS[format](payload, label)
    else:
        raise TypeError(
            f"experiment payload must be a dict, str, or bytes, got {type(payload).__name__}"
        )
    experiment, quarantined = _assemble(parameters, kernels, strict=True)
    if quarantined and not keep_going:
        record = quarantined[0]
        raise ExperimentFormatError(
            f"{record.location}: kernel {record.kernel!r}: {record.reason} "
            f"(use --keep-going to quarantine bad kernels and continue)"
        )
    if manifest is not None:
        for record in quarantined:
            manifest.record_quarantine(record.kernel, record.reason, record.location)
    if quarantined and len(quarantined) == len(kernels):
        reasons = "; ".join(f"{r.kernel}: {r.reason}" for r in quarantined)
        raise ExperimentFormatError(
            f"{label}: every kernel was quarantined, nothing left to model ({reasons})"
        )
    return experiment, quarantined


def load_experiment(
    path: "str | Path",
    keep_going: bool = False,
    manifest=None,
) -> "tuple[Experiment, list[QuarantineRecord]]":
    """Load *and validate* an experiment file (format chosen by suffix).

    A thin wrapper over :func:`parse_experiment`: reads the file, picks the
    format from the suffix (``.json``/``.csv``, anything else is the text
    format), and parses with error messages naming the file location.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    format = {"json": "json", "csv": "csv"}.get(suffix.lstrip("."), "text")
    return parse_experiment(
        path.read_bytes(),
        format=format,
        source=str(path),
        keep_going=keep_going,
        manifest=manifest,
    )
