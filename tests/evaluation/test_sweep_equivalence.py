"""Serial / parallel / batched sweeps must be bit-identical.

The determinism contract of the sweep engine: every synthetic function
carries its own pre-spawned RNG and results are reassembled in task order,
so neither the worker count, nor the chunking, nor the classification batch
size may change a single selected model. These tests pin that contract on a
seeded synthetic slice with both a regression and a DNN-backed modeler.
"""

import numpy as np
import pytest

from repro.dnn.modeler import DNNModeler
from repro.evaluation.sweep import SweepConfig, run_sweep
from repro.regression.modeler import RegressionModeler


def _modelers(tiny_network):
    return {
        "regression": RegressionModeler(),
        "dnn": DNNModeler(network=tiny_network, use_domain_adaptation=False),
    }


def _sweep(tiny_network, processes, batch_size):
    config = SweepConfig(
        n_params=1,
        noise_levels=(0.05, 0.5),
        n_functions=8,
        batch_size=batch_size,
    )
    return run_sweep(config, _modelers(tiny_network), rng=20210517, processes=processes)


def _assert_identical(a, b):
    assert set(a.cells) == set(b.cells)
    for key in a.cells:
        np.testing.assert_array_equal(a.cells[key].distances, b.cells[key].distances)
        np.testing.assert_array_equal(a.cells[key].errors, b.cells[key].errors)
        assert a.cells[key].functions == b.cells[key].functions
        assert a.cells[key].failures == b.cells[key].failures


@pytest.fixture(scope="module")
def serial_reference(tiny_network):
    """The seed path: serial, one function per task (no batching)."""
    return _sweep(tiny_network, processes=1, batch_size=1)


class TestSweepEquivalence:
    def test_parallel_matches_serial(self, tiny_network, serial_reference):
        _assert_identical(serial_reference, _sweep(tiny_network, processes=2, batch_size=1))

    def test_batched_matches_serial(self, tiny_network, serial_reference):
        _assert_identical(serial_reference, _sweep(tiny_network, processes=1, batch_size=5))

    def test_parallel_batched_matches_serial(self, tiny_network, serial_reference):
        _assert_identical(serial_reference, _sweep(tiny_network, processes=2, batch_size=5))

    def test_stage_seconds_recorded(self, serial_reference):
        stages = serial_reference.stage_seconds
        assert {"synthesize", "classify", "fit", "score", "total"} <= set(stages)
        assert all(seconds >= 0.0 for seconds in stages.values())
        assert serial_reference.engine_failures == 0

    def test_selected_models_recorded(self, serial_reference):
        cell = serial_reference.cell(0.05, "dnn")
        assert cell.functions is not None
        assert len(cell.functions) == 8
        assert any(cell.functions)
