"""On-disk formats for experiments.

Two formats are supported:

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

Two layers of strictness:

* The per-format loaders (:func:`load_json`, :func:`load_csv`,
  :func:`load_text`) accept anything structurally valid -- including
  negative runtimes and ragged repetition counts -- because synthetic and
  handwritten inputs legitimately use both.
* :func:`parse_experiment` (and :func:`load_experiment`, its thin
  path-suffix wrapper used by the CLI) additionally validates every
  kernel's raw values -- NaN/Inf, negative runtimes, ragged repetition
  rows -- with errors that name the offending input location. With
  ``keep_going=True`` a bad kernel is quarantined (dropped and reported,
  optionally journaled into a run manifest) instead of failing the load.
  :func:`parse_experiment` works on in-memory payloads (decoded JSON
  dicts, ``bytes``, or text in any of the three formats), which is what
  the modeling service feeds it -- no temp-file round-trips.

All savers write atomically (temp file + rename), so a crash mid-save never
leaves a truncated experiment file behind.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from pathlib import Path

from repro.experiment.experiment import Experiment
from repro.experiment.measurement import Coordinate, Measurement
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


@dataclass(frozen=True)
class _RawKernel:
    """Parsed-but-unvalidated kernel: raw floats, no ``Measurement`` yet."""

    name: str
    metric: str
    location: str  # where the kernel starts, e.g. "file.txt:5"
    #: ``(location, coordinate, values)`` with repetitions at one coordinate
    #: already merged (matching :meth:`Kernel.add` semantics).
    points: "tuple[tuple[str, Coordinate, tuple[float, ...]], ...]"


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


def _check_json_version(data: dict, path: "str | Path | None") -> None:
    if data.get("version") != _JSON_VERSION:
        prefix = f"{path}: " if path is not None else ""
        raise ExperimentFormatError(
            f"{prefix}unsupported experiment format version: "
            f"found {data.get('version')!r}, supported {_JSON_VERSION}"
        )


def from_json_dict(data: dict, path: "str | Path | None" = None) -> Experiment:
    """Inverse of :func:`to_json_dict`.

    ``path`` (optional) is only used to prefix error messages with the
    originating file.
    """
    _check_json_version(data, path)
    prefix = f"{path}: " if path is not None else ""
    exp = Experiment(data["parameters"])
    for kern_data in data["kernels"]:
        kern = exp.create_kernel(kern_data["name"], kern_data.get("metric", "time"))
        for i, meas in enumerate(kern_data["measurements"]):
            try:
                kern.add(Measurement(Coordinate(*meas["point"]), meas["values"]))
            except ValueError as err:
                raise ExperimentFormatError(
                    f"{prefix}kernel {kern.name!r}, measurement {i}: {err}"
                ) from None
    exp.validate()
    return exp


def save_json(experiment: Experiment, path: "str | Path") -> None:
    atomic_write_text(path, json.dumps(to_json_dict(experiment), indent=2))


def load_json(path: "str | Path") -> Experiment:
    return from_json_dict(json.loads(Path(path).read_text()), path=path)


def _raw_json_from_text(text: str, source: str) -> "tuple[list[str], list[_RawKernel]]":
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ExperimentFormatError(f"{source}:{err.lineno}: invalid JSON: {err.msg}") from None
    return _raw_json_from_data(data, source)


def _raw_json_from_data(data, source: str) -> "tuple[list[str], list[_RawKernel]]":
    if not isinstance(data, dict):
        raise ExperimentFormatError(
            f"{source}: expected a JSON object at the top level, got {type(data).__name__}"
        )
    _check_json_version(data, source)
    for field in ("parameters", "kernels"):
        if field not in data:
            raise ExperimentFormatError(f"{source}: missing {field!r} field")
    kernels = []
    for kern_data in data["kernels"]:
        name = kern_data["name"]
        merged: dict[Coordinate, list[float]] = {}
        locations: dict[Coordinate, str] = {}
        for i, meas in enumerate(kern_data["measurements"]):
            location = f"{source}: kernel {name!r}, measurement {i}"
            try:
                coord = Coordinate(*meas["point"])
            except ValueError as err:
                raise ExperimentFormatError(f"{location}: {err}") from None
            locations.setdefault(coord, location)
            merged.setdefault(coord, []).extend(float(v) for v in meas["values"])
        kernels.append(
            _RawKernel(
                name=name,
                metric=kern_data.get("metric", "time"),
                location=f"{source}: kernel {name!r}",
                points=tuple(
                    (locations[c], c, tuple(vals)) for c, vals in merged.items()
                ),
            )
        )
    return list(data["parameters"]), kernels


# ---------------------------------------------------------------------- CSV
def save_csv(experiment: Experiment, path: "str | Path") -> None:
    """Write one row per repetition: ``kernel,metric,<params...>,value``."""
    import csv

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


def _raw_csv_from_text(text: str, source: str) -> "tuple[list[str], list[_RawKernel]]":
    import csv

    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ExperimentFormatError(f"{source}: empty CSV file") from None
    if len(header) < 4 or header[0] != "kernel" or header[1] != "metric" or header[-1] != "value":
        raise ExperimentFormatError(
            f"{source}: expected header 'kernel,metric,<parameters...>,value', got {header!r}"
        )
    parameters = header[2:-1]
    order: list[str] = []
    metrics: dict[str, str] = {}
    first_seen: dict[str, str] = {}
    merged: dict[str, dict[Coordinate, list[float]]] = {}
    locations: dict[str, dict[Coordinate, str]] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        location = f"{source}:{lineno}"
        if len(row) != len(header):
            raise ExperimentFormatError(
                f"{location}: expected {len(header)} columns, got {len(row)}"
            )
        name, metric, *rest = row
        try:
            coordinate = Coordinate(*[float(v) for v in rest[:-1]])
            value = float(rest[-1])
        except ValueError as err:
            raise ExperimentFormatError(f"{location}: {err}") from None
        if name not in metrics:
            order.append(name)
            metrics[name] = metric
            first_seen[name] = location
            merged[name] = {}
            locations[name] = {}
        locations[name].setdefault(coordinate, location)
        merged[name].setdefault(coordinate, []).append(value)
    kernels = [
        _RawKernel(
            name=name,
            metric=metrics[name],
            location=first_seen[name],
            points=tuple(
                (locations[name][c], c, tuple(vals)) for c, vals in merged[name].items()
            ),
        )
        for name in order
    ]
    return parameters, kernels


def load_csv(path: "str | Path") -> Experiment:
    """Parse the CSV layout written by :func:`save_csv`.

    Repetitions of the same (kernel, coordinate) accumulate automatically;
    rows may appear in any order. Parameter names are taken from the header
    (every column between ``metric`` and ``value``).
    """
    parameters, kernels = _raw_csv_from_text(Path(path).read_text(), str(path))
    return _assemble(parameters, kernels, path)


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


def _parse_points(spec: str) -> list[Coordinate]:
    spec = spec.strip()
    coords = []
    depth, token = 0, []
    for ch in spec:
        if ch == "(":
            if depth:
                raise ValueError("nested parenthesis in POINTS line")
            depth, token = 1, []
        elif ch == ")":
            if not depth:
                raise ValueError("unbalanced parenthesis in POINTS line")
            coords.append(Coordinate(*[float(v) for v in "".join(token).split()]))
            depth = 0
        elif depth:
            token.append(ch)
        elif not ch.isspace():
            raise ValueError(f"unexpected character {ch!r} in POINTS line")
    if depth:
        raise ValueError("unbalanced parenthesis in POINTS line")
    if not coords:
        raise ValueError("POINTS line contains no points")
    return coords


def _raw_text_from_text(text: str, source: str) -> "tuple[list[str], list[_RawKernel]]":
    parameters: list[str] = []
    points: "list[Coordinate] | None" = None
    metric = "time"
    kernels: list[_RawKernel] = []
    current: "list[tuple[str, Coordinate, tuple[float, ...]]] | None" = None
    data_index = 0

    def flush() -> None:
        nonlocal current
        if current is None:
            return
        # Merge repeated DATA coordinates like Kernel.add would.
        merged: dict[Coordinate, list[float]] = {}
        locations: dict[Coordinate, str] = {}
        for location, coord, values in current:
            locations.setdefault(coord, location)
            merged.setdefault(coord, []).extend(values)
        kernels[-1] = _RawKernel(
            name=kernels[-1].name,
            metric=kernels[-1].metric,
            location=kernels[-1].location,
            points=tuple((locations[c], c, tuple(vals)) for c, vals in merged.items()),
        )
        current = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword, _, rest = line.partition(" ")
        keyword = keyword.upper()
        try:
            if keyword == "PARAMETER":
                if kernels:
                    raise ValueError("PARAMETER must precede REGION")
                parameters.append(rest.strip())
            elif keyword == "POINTS":
                points = _parse_points(rest)
            elif keyword == "METRIC":
                metric = rest.strip()
            elif keyword == "REGION":
                if points is None:
                    raise ValueError("REGION before POINTS")
                flush()
                name = rest.strip()
                if any(k.name == name for k in kernels):
                    raise ValueError(f"kernel {name!r} already exists")
                kernels.append(
                    _RawKernel(name=name, metric=metric, location=f"{source}:{lineno}", points=())
                )
                current = []
                data_index = 0
            elif keyword == "DATA":
                if current is None or points is None:
                    raise ValueError("DATA before REGION")
                if data_index >= len(points):
                    raise ValueError("more DATA lines than POINTS")
                values = tuple(float(v) for v in rest.split())
                if values:
                    current.append((f"{source}:{lineno}", points[data_index], values))
                data_index += 1
            else:
                raise ValueError(f"unknown keyword {keyword!r}")
        except ValueError as err:
            raise ExperimentFormatError(f"{source}:{lineno}: {err}") from None
    flush()
    if not kernels:
        raise ExperimentFormatError(f"{source}: file defines no REGION")
    return parameters, kernels


def load_text(path: "str | Path") -> Experiment:
    """Parse the Extra-P style text format."""
    parameters, kernels = _raw_text_from_text(Path(path).read_text(), str(path))
    return _assemble(parameters, kernels, path)


# ------------------------------------------------- validation and quarantine
def _assemble(
    parameters: "list[str]",
    raw_kernels: "list[_RawKernel]",
    path: "str | Path",
    skip: "set[str] | None" = None,
) -> Experiment:
    """Build an :class:`Experiment` from raw kernels, skipping quarantined ones."""
    experiment = Experiment(parameters)
    for raw in raw_kernels:
        if skip and raw.name in skip:
            continue
        kernel = experiment.create_kernel(raw.name, raw.metric)
        try:
            kernel.add_rows(
                [coord.as_tuple() for _, coord, _ in raw.points],
                [values for _, _, values in raw.points],
            )
        except ValueError:
            # Ragged repetition counts or a bad value: add point by point,
            # which names the location of a bad one.
            for location, coord, values in raw.points:
                try:
                    kernel.add(Measurement(coord, values))
                except ValueError as err:
                    raise ExperimentFormatError(f"{location}: {err}") from None
    experiment.validate()
    return experiment


def _validate_raw_kernel(raw: _RawKernel) -> "QuarantineRecord | None":
    """First NaN/Inf/negative-value/ragged-repetitions defect, or ``None``."""
    import math

    for location, _coord, values in raw.points:
        for value in values:
            if math.isnan(value) or math.isinf(value):
                return QuarantineRecord(raw.name, f"non-finite value {value!r}", location)
            if value < 0:
                return QuarantineRecord(raw.name, f"negative runtime {value!r}", location)
    counts = {len(values) for _loc, _coord, values in raw.points}
    if len(counts) > 1:
        worst = min(raw.points, key=lambda p: len(p[2]))
        return QuarantineRecord(
            raw.name,
            f"ragged repetition rows: {min(counts)}..{max(counts)} repetitions per point",
            worst[0],
        )
    return None


def _validate_and_assemble(
    parameters: "list[str]",
    raw_kernels: "list[_RawKernel]",
    source: str,
    keep_going: bool,
    manifest,
) -> "tuple[Experiment, list[QuarantineRecord]]":
    """Shared validation/quarantine core of ``parse``/``load_experiment``."""
    quarantined: list[QuarantineRecord] = []
    for raw in raw_kernels:
        record = _validate_raw_kernel(raw)
        if record is None:
            continue
        if not keep_going:
            raise ExperimentFormatError(
                f"{record.location}: kernel {record.kernel!r}: {record.reason} "
                f"(use --keep-going to quarantine bad kernels and continue)"
            )
        quarantined.append(record)
        if manifest is not None:
            manifest.record_quarantine(record.kernel, record.reason, record.location)
    skip = {r.kernel for r in quarantined}
    if skip and len(skip) == len(raw_kernels):
        reasons = "; ".join(f"{r.kernel}: {r.reason}" for r in quarantined)
        raise ExperimentFormatError(
            f"{source}: every kernel was quarantined, nothing left to model ({reasons})"
        )
    return _assemble(parameters, raw_kernels, source, skip=skip), quarantined


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
        parameters, raw_kernels = _raw_json_from_data(payload, label)
    elif isinstance(payload, str):
        if format == "json":
            parameters, raw_kernels = _raw_json_from_text(payload, label)
        elif format == "csv":
            parameters, raw_kernels = _raw_csv_from_text(payload, label)
        elif format == "text":
            parameters, raw_kernels = _raw_text_from_text(payload, label)
        else:
            raise ValueError(
                f"unknown experiment format {format!r}: expected 'json', 'csv', or 'text'"
            )
    else:
        raise TypeError(
            f"experiment payload must be a dict, str, or bytes, got {type(payload).__name__}"
        )
    return _validate_and_assemble(parameters, raw_kernels, label, keep_going, manifest)


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
        path.read_text(),
        format=format,
        source=str(path),
        keep_going=keep_going,
        manifest=manifest,
    )
