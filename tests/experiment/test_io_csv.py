import numpy as np
import pytest

from repro.experiment.experiment import Experiment
from repro.experiment.io import load_csv, save_csv
from tests.experiment.test_io import assert_experiments_equal, build_experiment


class TestCsvRoundtrip:
    def test_roundtrip(self, tmp_path):
        exp = build_experiment()
        path = tmp_path / "exp.csv"
        save_csv(exp, path)
        assert_experiments_equal(exp, load_csv(path))

    def test_repetitions_accumulate(self, tmp_path):
        exp = Experiment.single_parameter("p", [4, 8, 16], [[1.0, 1.2], [2.0], [4.0, 4.1, 3.9]])
        path = tmp_path / "exp.csv"
        save_csv(exp, path)
        loaded = load_csv(path)
        kern = loaded.only_kernel()
        assert [m.repetitions for m in kern.measurements] == [2, 1, 3]

    def test_header_preserves_parameter_names(self, tmp_path):
        exp = build_experiment()
        path = tmp_path / "exp.csv"
        save_csv(exp, path)
        header = path.read_text().splitlines()[0]
        assert header == "kernel,metric,p,n,value"
        assert load_csv(path).parameters == ("p", "n")


class TestCsvParsing:
    def test_handwritten_any_row_order(self, tmp_path):
        path = tmp_path / "hand.csv"
        path.write_text(
            "kernel,metric,p,value\n"
            "a,time,8,2.0\n"
            "b,bytes,4,9.0\n"
            "a,time,4,1.0\n"
            "a,time,4,1.1\n"
        )
        exp = load_csv(path)
        assert exp.kernel_names == ["a", "b"]
        assert exp.kernel("a").measurements[0].repetitions == 2
        assert exp.kernel("b").metric == "bytes"

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("kernel,metric,p,value\na,time,4,1.0\n\n")
        assert len(load_csv(path).only_kernel()) == 1

    @pytest.mark.parametrize(
        "content, message",
        [
            ("", "empty"),
            ("foo,bar\n", "expected header"),
            ("kernel,metric,p,value\na,time,4\n", "columns"),
            (
                "kernel,metric,p,value\nk,time,4,1.0\nk,time,8,2.0\nk,bytes,16,4096\n",
                r"bad\.csv:4: kernel 'k' has metric 'time' \(from .*bad\.csv:2\), not 'bytes'",
            ),
        ],
    )
    def test_errors(self, tmp_path, content, message):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        with pytest.raises(ValueError, match=message):
            load_csv(path)
