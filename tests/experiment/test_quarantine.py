"""Input validation and quarantine in :func:`load_experiment`."""

import pytest

from repro.experiment.experiment import Experiment
from repro.experiment.io import (
    ExperimentFormatError,
    load_csv,
    load_experiment,
    load_json,
    save_csv,
    save_json,
    load_text,
)
from repro.run.manifest import RunManifest


def write_text_experiment(path, bad_line="DATA 2.0 2.1"):
    """Two kernels; the second's middle DATA line is ``bad_line`` (line 9)."""
    path.write_text(
        "PARAMETER p\n"            # line 1
        "POINTS (1) (2) (3)\n"     # line 2
        "METRIC time\n"            # line 3
        "REGION good\n"            # line 4
        "DATA 1.0 1.1\n"           # line 5
        "DATA 2.0 2.1\n"           # line 6
        "DATA 3.0 3.1\n"           # line 7
        "REGION shaky\n"           # line 8
        f"{bad_line}\n"            # line 9
        "DATA 2.5 2.6\n"           # line 10
        "DATA 3.0 3.1\n"           # line 11
    )
    return path


class TestStrictValidation:
    def test_nan_names_file_and_line(self, tmp_path):
        path = write_text_experiment(tmp_path / "exp.txt", "DATA 1.0 nan")
        with pytest.raises(ExperimentFormatError, match=r"exp\.txt:9: .*non-finite"):
            load_experiment(path)

    def test_inf_rejected(self, tmp_path):
        path = write_text_experiment(tmp_path / "exp.txt", "DATA inf 1.0")
        with pytest.raises(ExperimentFormatError, match="non-finite value inf"):
            load_experiment(path)

    def test_negative_runtime_rejected(self, tmp_path):
        path = write_text_experiment(tmp_path / "exp.txt", "DATA -3.0 1.0")
        with pytest.raises(ExperimentFormatError, match=r"negative runtime -3\.0"):
            load_experiment(path)

    def test_ragged_repetitions_rejected(self, tmp_path):
        path = write_text_experiment(tmp_path / "exp.txt", "DATA 2.0")
        with pytest.raises(
            ExperimentFormatError, match=r"ragged repetition rows: 1\.\.2"
        ):
            load_experiment(path)

    def test_error_suggests_keep_going(self, tmp_path):
        path = write_text_experiment(tmp_path / "exp.txt", "DATA 1.0 nan")
        with pytest.raises(ExperimentFormatError, match="--keep-going"):
            load_experiment(path)

    def test_lenient_loader_still_accepts_ragged(self, tmp_path):
        """load_text keeps its legacy permissiveness; only the CLI-facing
        load_experiment enforces repetitions."""
        path = write_text_experiment(tmp_path / "exp.txt", "DATA 2.0")
        exp = load_text(path)
        assert exp.kernel_names == ["good", "shaky"]


class TestQuarantine:
    def test_keep_going_drops_only_the_bad_kernel(self, tmp_path):
        path = write_text_experiment(tmp_path / "exp.txt", "DATA 1.0 nan")
        exp, quarantined = load_experiment(path, keep_going=True)
        assert exp.kernel_names == ["good"]
        assert [r.kernel for r in quarantined] == ["shaky"]
        assert quarantined[0].reason == "non-finite value nan"
        assert quarantined[0].location == f"{path}:9"

    def test_clean_file_quarantines_nothing(self, tmp_path):
        path = write_text_experiment(tmp_path / "exp.txt")
        exp, quarantined = load_experiment(path, keep_going=True)
        assert quarantined == []
        assert exp.kernel_names == ["good", "shaky"]

    def test_all_kernels_bad_still_fails(self, tmp_path):
        path = tmp_path / "exp.txt"
        path.write_text(
            "PARAMETER p\n"
            "POINTS (1) (2)\n"
            "REGION a\nDATA nan\nDATA 1.0\n"
            "REGION b\nDATA -1.0\nDATA 1.0\n"
        )
        with pytest.raises(ExperimentFormatError, match="nothing left to model"):
            load_experiment(path, keep_going=True)

    def test_quarantine_recorded_into_manifest(self, tmp_path):
        path = write_text_experiment(tmp_path / "exp.txt", "DATA -1.0 1.0")
        manifest = RunManifest.create(tmp_path / "run", "h")
        _, quarantined = load_experiment(path, keep_going=True, manifest=manifest)
        records = manifest.quarantined()
        assert [r["kernel"] for r in records] == ["shaky"]
        assert records[0]["reason"] == quarantined[0].reason
        assert records[0]["location"] == f"{path}:9"


def build_experiment() -> Experiment:
    exp = Experiment(["p", "n"])
    points = [(p, n) for p in (4.0, 8.0) for n in (10.0, 20.0)]
    exp.create_kernel("sweep").add_rows(points, [[p + n, p + n + 0.5] for p, n in points])
    return exp


class TestFormatDispatch:
    def test_csv_happy_path_matches_lenient_loader(self, tmp_path):
        path = tmp_path / "exp.csv"
        save_csv(build_experiment(), path)
        strict, quarantined = load_experiment(path)
        assert quarantined == []
        lenient = load_csv(path)
        assert strict.kernel_names == lenient.kernel_names
        assert strict.kernel("sweep").coordinates == lenient.kernel("sweep").coordinates

    def test_json_happy_path(self, tmp_path):
        path = tmp_path / "exp.json"
        save_json(build_experiment(), path)
        strict, quarantined = load_experiment(path)
        assert quarantined == []
        assert strict.kernel_names == load_json(path).kernel_names

    def test_json_version_error_names_found_and_supported(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text('{"version": 99, "parameters": ["p"], "kernels": []}')
        with pytest.raises(
            ExperimentFormatError, match=r"exp\.json: .*found 99, supported 1"
        ):
            load_experiment(path)
        with pytest.raises(ExperimentFormatError, match="found 99, supported 1"):
            load_json(path)

    def test_csv_bad_value_names_line(self, tmp_path):
        path = tmp_path / "exp.csv"
        path.write_text("kernel,metric,p,value\nsweep,time,1.0,oops\n")
        with pytest.raises(ExperimentFormatError, match=r"exp\.csv:2"):
            load_experiment(path)

    def test_csv_nan_quarantined_with_line(self, tmp_path):
        path = tmp_path / "exp.csv"
        path.write_text(
            "kernel,metric,p,value\n"
            "good,time,1.0,5.0\n"
            "good,time,2.0,6.0\n"
            "bad,time,1.0,nan\n"
            "bad,time,2.0,6.0\n"
        )
        exp, quarantined = load_experiment(path, keep_going=True)
        assert exp.kernel_names == ["good"]
        assert quarantined[0].location == f"{path}:4"


class TestRemoveKernel:
    def test_remove_returns_kernel(self):
        exp = build_experiment()
        kern = exp.remove_kernel("sweep")
        assert kern.name == "sweep"
        assert exp.kernel_names == []

    def test_remove_unknown_raises(self):
        exp = build_experiment()
        with pytest.raises(ValueError, match="no kernel named 'nope'"):
            exp.remove_kernel("nope")
