import pytest

from repro.evaluation.reporting import (
    ReproductionConfig,
    ReproductionReport,
    run_reproduction,
)


@pytest.fixture(scope="module")
def small_report(tiny_network, tmp_path_factory, monkeypatch=None):
    """A minimal full-reproduction run using the tiny session network.

    ``load_or_pretrain`` would pull the big cached network; patch it to the
    tiny one so the test stays fast and hermetic.
    """
    import repro.evaluation.reporting as reporting

    original = reporting.load_or_pretrain
    reporting.load_or_pretrain = lambda *a, **k: tiny_network
    try:
        config = ReproductionConfig(
            parameter_counts=(1,),
            functions_per_cell=10,
            include_case_studies=True,
            include_estimator=True,
            adaptation_samples_per_class=5,
            estimator_trials=10,
        )
        messages = []
        report = run_reproduction(config, progress=messages.append)
    finally:
        reporting.load_or_pretrain = original
    return report, messages


class TestRunReproduction:
    def test_all_sections_present(self, small_report):
        report, _ = small_report
        assert set(report.sweeps) == {1}
        assert set(report.case_studies) == {"kripke", "fastest", "relearn", "tainted"}
        assert report.estimator_error is not None
        assert report.seconds > 0

    def test_progress_messages_emitted(self, small_report):
        _, messages = small_report
        assert any("sweep" in m for m in messages)
        assert any("kripke" in m for m in messages)

    def test_markdown_contains_every_figure(self, small_report):
        report, _ = small_report
        text = report.to_markdown()
        for marker in ("Fig. 3(a)", "Fig. 3(d)", "Fig. 4", "Fig. 5", "Fig. 6", "Sec. IV-B"):
            assert marker in text

    def test_save_writes_report(self, small_report, tmp_path):
        report, _ = small_report
        path = report.save(tmp_path / "out")
        assert path.exists()
        assert "# Reproduction report" in path.read_text()

    def test_empty_report_renders(self):
        text = ReproductionReport().to_markdown()
        assert text.startswith("# Reproduction report")


class TestEstimatorExperiment:
    @pytest.mark.parametrize(
        "trials, seed, expected",
        [(8, 0, "0x1.d45b6ad2d7d68p-5"), (30, 20210517, "0x1.389ba5fc00db7p-4")],
    )
    def test_error_is_pinned_bit_for_bit(self, trials, seed, expected):
        """Each trial's kernel is built in one ``add_rows`` from the
        generator's draws in their historical order: the mean estimator error
        is the one the per-point build gave, to the last bit."""
        from repro.evaluation.reporting import _estimator_experiment

        assert _estimator_experiment(trials, seed).hex() == expected
