import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiment.experiment import Experiment
from repro.experiment.io import (
    from_json_dict,
    load_json,
    load_text,
    save_json,
    save_text,
    to_json_dict,
)


def build_experiment() -> Experiment:
    exp = Experiment(["p", "n"])
    a = exp.create_kernel("sweep")
    b = exp.create_kernel("comm", metric="bytes")
    points = [(p, n) for p in (4.0, 8.0) for n in (10.0, 20.0)]
    a.add_rows(points, [[p + n, p + n + 0.5] for p, n in points])
    b.add_rows([(4.0, n) for n in (10.0, 20.0)], [[10.0], [20.0]])
    return exp


def assert_experiments_equal(a: Experiment, b: Experiment) -> None:
    assert a.parameters == b.parameters
    assert a.kernel_names == b.kernel_names
    for name in a.kernel_names:
        ka, kb = a.kernel(name), b.kernel(name)
        assert ka.metric == kb.metric
        assert ka.coordinates == kb.coordinates
        for coord in ka.coordinates:
            np.testing.assert_allclose(
                ka.measurement_at(coord).values, kb.measurement_at(coord).values
            )


class TestJson:
    def test_roundtrip_dict(self):
        exp = build_experiment()
        assert_experiments_equal(exp, from_json_dict(to_json_dict(exp)))

    def test_roundtrip_file(self, tmp_path):
        exp = build_experiment()
        path = tmp_path / "exp.json"
        save_json(exp, path)
        assert_experiments_equal(exp, load_json(path))

    def test_version_check(self):
        with pytest.raises(ValueError, match="version"):
            from_json_dict({"version": 99, "parameters": ["p"], "kernels": []})


class TestText:
    def test_roundtrip_file(self, tmp_path):
        exp = build_experiment()
        path = tmp_path / "exp.txt"
        save_text(exp, path)
        assert_experiments_equal(exp, load_text(path))

    def test_missing_kernel_points_roundtrip(self, tmp_path):
        # 'comm' has no measurements at p=8 -- empty DATA lines must survive.
        exp = build_experiment()
        path = tmp_path / "exp.txt"
        save_text(exp, path)
        loaded = load_text(path)
        assert len(loaded.kernel("comm")) == 2

    def test_parse_handwritten(self, tmp_path):
        path = tmp_path / "hand.txt"
        path.write_text(
            """
            # comment line
            PARAMETER p
            POINTS (4) (8) (16) (32) (64)
            METRIC time
            REGION main
            DATA 1.0 1.1
            DATA 2.0
            DATA 4.0 4.2 3.9
            DATA 8.0
            DATA 16.0
            """
        )
        exp = load_text(path)
        kern = exp.only_kernel()
        assert len(kern) == 5
        assert kern.metric == "time"

    @pytest.mark.parametrize(
        "body, message",
        [
            ("PARAMETER p\nREGION k\n", "REGION before POINTS"),
            ("PARAMETER p\nPOINTS (4)\nDATA 1.0\n", "DATA before REGION"),
            ("PARAMETER p\nPOINTS (4)\nREGION k\nDATA 1\nDATA 2\n", "more DATA lines"),
            ("PARAMETER p\nPOINTS (4\nREGION k\n", "unbalanced"),
            ("WHAT is this\n", "unknown keyword"),
            ("PARAMETER p\nPOINTS (4)\n", "no REGION"),
        ],
    )
    def test_parse_errors(self, tmp_path, body, message):
        path = tmp_path / "bad.txt"
        path.write_text(body)
        with pytest.raises(ValueError, match=message):
            load_text(path)


@settings(max_examples=25, deadline=None)
@given(
    xs=st.lists(
        st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=6, unique=True
    ),
    reps=st.integers(min_value=1, max_value=5),
)
def test_json_roundtrip_property(tmp_path_factory, xs, reps):
    """Arbitrary single-kernel experiments survive the JSON roundtrip."""
    exp = Experiment.single_parameter("p", xs, [[float(i + r) for r in range(reps)] for i in range(len(xs))])
    assert_experiments_equal(exp, from_json_dict(to_json_dict(exp)))
