"""``parse_experiment``: the in-memory core behind ``load_experiment``.

The extraction contract: parsing a payload directly is bit-identical to
writing it to a file and loading it -- same experiments, same quarantine
records, same error messages up to the source label.
"""

import json

import numpy as np
import pytest

from repro.experiment.io import (
    ExperimentFormatError,
    load_experiment,
    parse_experiment,
    save_csv,
    save_json,
    save_text,
    to_json_dict,
)


def _assert_same_experiment(a, b):
    assert list(a.parameters) == list(b.parameters)
    assert [k.name for k in a.kernels] == [k.name for k in b.kernels]
    for ka, kb in zip(a.kernels, b.kernels):
        for ma, mb in zip(ka.measurements, kb.measurements):
            np.testing.assert_array_equal(ma.values, mb.values)


class TestPayloadKinds:
    def test_dict_payload_matches_file_load(self, tmp_path, clean_experiment_1p):
        path = tmp_path / "exp.json"
        save_json(clean_experiment_1p, path)
        from_file, _ = load_experiment(path)
        from_dict, _ = parse_experiment(to_json_dict(clean_experiment_1p))
        _assert_same_experiment(from_file, from_dict)

    def test_json_text_payload(self, clean_experiment_1p):
        text = json.dumps(to_json_dict(clean_experiment_1p))
        parsed, quarantined = parse_experiment(text, format="json")
        _assert_same_experiment(parsed, clean_experiment_1p)
        assert quarantined == []

    def test_bytes_payload(self, clean_experiment_1p):
        blob = json.dumps(to_json_dict(clean_experiment_1p)).encode("utf-8")
        parsed, _ = parse_experiment(blob)
        _assert_same_experiment(parsed, clean_experiment_1p)

    def test_csv_text_payload_matches_file_load(self, tmp_path, clean_experiment_1p):
        path = tmp_path / "exp.csv"
        save_csv(clean_experiment_1p, path)
        from_file, _ = load_experiment(path)
        parsed, _ = parse_experiment(path.read_text(), format="csv")
        _assert_same_experiment(from_file, parsed)

    def test_text_format_payload_matches_file_load(self, tmp_path, clean_experiment_1p):
        path = tmp_path / "exp.txt"
        save_text(clean_experiment_1p, path)
        from_file, _ = load_experiment(path)
        parsed, _ = parse_experiment(path.read_text(), format="text")
        _assert_same_experiment(from_file, parsed)

    def test_invalid_utf8_bytes(self):
        with pytest.raises(ExperimentFormatError, match="not valid UTF-8"):
            parse_experiment(b"\xff\xfe nope")

    def test_unknown_format_and_bad_type(self):
        with pytest.raises(ValueError, match="unknown experiment format"):
            parse_experiment("whatever", format="yaml")
        with pytest.raises(TypeError, match="must be a dict, str, or bytes"):
            parse_experiment(42)


class TestErrorParity:
    def test_error_message_matches_file_load_up_to_source(
        self, tmp_path, clean_experiment_1p
    ):
        """The quarantine/validation errors are bit-identical between the
        path and payload entries, differing only in the source label."""
        broken = to_json_dict(clean_experiment_1p)
        broken["kernels"][0]["measurements"][0]["values"] = [1.0, float("nan"), 2.0]
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(broken))

        with pytest.raises(ExperimentFormatError) as from_file:
            load_experiment(path)
        with pytest.raises(ExperimentFormatError) as from_payload:
            parse_experiment(broken, source=str(path))
        assert str(from_file.value) == str(from_payload.value)

    def test_default_source_label(self, clean_experiment_1p):
        broken = to_json_dict(clean_experiment_1p)
        del broken["parameters"]
        with pytest.raises(ExperimentFormatError, match="<payload>"):
            parse_experiment(broken)

    def test_custom_source_label_in_errors(self):
        with pytest.raises(ExperimentFormatError, match="request req-1"):
            parse_experiment("{broken", source="request req-1")


class TestQuarantineParity:
    def _tainted(self, exp):
        data = to_json_dict(exp)
        good = json.loads(json.dumps(data["kernels"][0]))
        good["name"] = "good"
        data["kernels"][0]["measurements"][0]["values"] = [-1.0, 2.0, 3.0]
        data["kernels"].append(good)
        return data

    def test_keep_going_quarantines_like_load(self, tmp_path, clean_experiment_1p):
        data = self._tainted(clean_experiment_1p)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(data))
        file_exp, file_q = load_experiment(path, keep_going=True)
        payload_exp, payload_q = parse_experiment(
            data, source=str(path), keep_going=True
        )
        _assert_same_experiment(file_exp, payload_exp)
        assert [(r.kernel, r.reason, r.location) for r in file_q] == [
            (r.kernel, r.reason, r.location) for r in payload_q
        ]

    def test_quarantine_records_into_manifest(self, tmp_path, clean_experiment_1p):
        from repro.run.manifest import RunManifest, config_fingerprint

        manifest = RunManifest.open(tmp_path / "run", config_fingerprint("parse"))
        data = self._tainted(clean_experiment_1p)
        _, quarantined = parse_experiment(data, keep_going=True, manifest=manifest)
        assert len(quarantined) == 1
        assert len(manifest.quarantined()) == 1


def _json_payload(kernels, parameters=None):
    return {"version": 1, "parameters": parameters or ["p"], "kernels": kernels}


_POINTS = [{"point": [4.0], "values": [1.0, 1.1]}, {"point": [8.0], "values": [2.0, 2.1]}]


class TestMalformedStructure:
    """Every structural defect is an ExperimentFormatError naming where it is,
    so the service answers 400 instead of failing on a raw KeyError/TypeError."""

    @pytest.mark.parametrize(
        "payload, format, message",
        [
            pytest.param(
                _json_payload([{"measurements": _POINTS}]),
                "json",
                "req-1: kernel 0: expected a string 'name', got None",
                id="kernel-without-name",
            ),
            pytest.param(
                _json_payload(["k"]),
                "json",
                "req-1: kernel 0: expected an object, got str",
                id="kernel-not-an-object",
            ),
            pytest.param(
                _json_payload([{"name": "k", "measurements": [{"point": [4.0]}]}]),
                "json",
                "req-1: kernel 'k', measurement 0: expected an object with a 'point' list",
                id="measurement-without-values",
            ),
            pytest.param(
                _json_payload([{"name": "k", "measurements": [{"point": None, "values": [1.0]}]}]),
                "json",
                "req-1: kernel 'k', measurement 0: expected an object with a 'point' list",
                id="null-point",
            ),
            pytest.param(
                _json_payload(
                    [{"name": "k", "measurements": [_POINTS[0], {"point": [8.0], "values": ["x"]}]}]
                ),
                "json",
                "req-1: kernel 'k', measurement 1: could not convert string to float: 'x'",
                id="non-numeric-values",
            ),
            pytest.param(
                _json_payload(
                    [{"name": "k", "measurements": _POINTS}, {"name": "k", "measurements": _POINTS}]
                ),
                "json",
                "req-1: kernel 1: duplicate kernel name 'k'",
                id="duplicate-kernel-names",
            ),
            pytest.param(
                _json_payload([{"name": "k", "measurements": _POINTS}], ["p", "n"]),
                "json",
                "req-1: kernel 'k', measurement 0: point (4.0,) has arity 1, expected 2",
                id="point-arity-vs-parameters",
            ),
            pytest.param(
                _json_payload([{"name": "k", "measurements": _POINTS}], "pn"),
                "json",
                "req-1: parameters must be a non-empty list of names, got 'pn'",
                id="parameters-as-a-string",
            ),
            pytest.param(
                "[" * 100_000 + "]" * 100_000,
                "json",
                "req-1: invalid JSON: nested too deeply",
                id="json-nested-too-deeply",
            ),
            pytest.param(
                "POINTS (4) (8)\nREGION k\nDATA 1.0\nDATA 2.0\n",
                "text",
                "req-1:1: POINTS before PARAMETER",
                id="text-without-parameter",
            ),
            pytest.param(
                "PARAMETER p\nPARAMETER n\nPOINTS (4 1) (8)\nREGION k\nDATA 1.0\nDATA 2.0\n",
                "text",
                "req-1:3: point (8.0,) has arity 1, expected 2",
                id="text-points-arity",
            ),
        ],
    )
    def test_refused_by_name(self, payload, format, message):
        from repro.service.schema import RequestError, parse_request

        with pytest.raises(ExperimentFormatError) as parsed:
            parse_experiment(payload, format=format, source="req-1")
        assert message in str(parsed.value)
        request = {"schema": "repro.request/v1", "id": "req-1", "experiment": payload}
        with pytest.raises(RequestError) as served:
            parse_request({**request, "format": format})
        assert f"request {message}" in str(served.value)


def _repeated_formats(last=(4.0, 4.1, 4.2, 4.3)):
    """One experiment whose points 8 and 4 each repeat, in every format.

    Rows in input order: 8 -> (2.0, 2.1), 4 -> (1.0, 1.1), 8 -> (2.2, 2.3),
    4 -> (1.2, 1.3), 16 -> ``last``.
    """
    rows = [(8.0, (2.0, 2.1)), (4.0, (1.0, 1.1)), (8.0, (2.2, 2.3)), (4.0, (1.2, 1.3))]
    rows.append((16.0, tuple(last)))
    data = _json_payload(
        [
            {
                "name": "k",
                "measurements": [{"point": [x], "values": list(v)} for x, v in rows],
            }
        ]
    )
    csv = "kernel,metric,p,value\n" + "".join(
        f"k,time,{x!r},{value!r}\n" for x, values in rows for value in values
    )
    text = (
        "PARAMETER p\nPOINTS "
        + " ".join(f"({x!r})" for x, _ in rows)
        + "\nREGION k\n"
        + "".join("DATA " + " ".join(map(repr, values)) + "\n" for _, values in rows)
    )
    return data, csv, text


def _tables(tmp_path, data, csv, text, strict):
    from repro.experiment.io import from_json_dict, load_csv, load_json, load_text

    for name, body in (("exp.json", json.dumps(data)), ("exp.csv", csv), ("exp.txt", text)):
        (tmp_path / name).write_text(body)
    experiments = [
        from_json_dict(data),
        load_json(tmp_path / "exp.json"),
        load_csv(tmp_path / "exp.csv"),
        load_text(tmp_path / "exp.txt"),
    ]
    if strict:
        experiments += [
            parse_experiment(data)[0],
            parse_experiment(json.dumps(data))[0],
            parse_experiment(csv, format="csv")[0],
            parse_experiment(text, format="text")[0],
        ]
    return [exp.only_kernel().table for exp in experiments]


class TestRepeatedCoordinates:
    """A repeated coordinate merges the same way in every format and loader."""

    def _assert_bitwise_equal(self, tables):
        reference = tables[0]
        for table in tables[1:]:
            assert table.points.tobytes() == reference.points.tobytes()
            assert len(table.groups) == len(reference.groups)
            for (rows, values), (ref_rows, ref_values) in zip(table.groups, reference.groups):
                np.testing.assert_array_equal(rows, ref_rows)
                assert values.shape == ref_values.shape
                assert values.tobytes() == ref_values.tobytes()

    def test_every_format_merges_in_input_order(self, tmp_path):
        tables = _tables(tmp_path, *_repeated_formats(), strict=True)
        self._assert_bitwise_equal(tables)
        np.testing.assert_array_equal(tables[0].points, [[4.0], [8.0], [16.0]])
        ((rows, values),) = tables[0].groups
        np.testing.assert_array_equal(rows, [0, 1, 2])
        np.testing.assert_array_equal(
            values, [[1.0, 1.1, 1.2, 1.3], [2.0, 2.1, 2.2, 2.3], [4.0, 4.1, 4.2, 4.3]]
        )

    def test_ragged_variant_through_the_lenient_loaders(self, tmp_path):
        tables = _tables(tmp_path, *_repeated_formats(last=(4.0,)), strict=False)
        self._assert_bitwise_equal(tables)
        (rows4, values4), (rows1, values1) = tables[0].groups
        np.testing.assert_array_equal(rows4, [0, 1])
        np.testing.assert_array_equal(values4, [[1.0, 1.1, 1.2, 1.3], [2.0, 2.1, 2.2, 2.3]])
        np.testing.assert_array_equal(rows1, [2])
        np.testing.assert_array_equal(values1, [[4.0]])
