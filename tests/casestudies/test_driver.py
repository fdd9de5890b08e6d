import pytest

from repro.adaptive.modeler import AdaptiveModeler
from repro.casestudies import relearn
from repro.casestudies.driver import run_case_study
from repro.dnn.modeler import DNNModeler
from repro.regression.modeler import RegressionModeler
from repro.run.manifest import RunManifest, RunManifestError


@pytest.fixture(scope="module")
def relearn_result(tiny_network):
    modelers = {
        "regression": RegressionModeler(),
        "adaptive": AdaptiveModeler(
            dnn=DNNModeler(
                network=tiny_network,
                use_domain_adaptation=True,
                adaptation_samples_per_class=10,
            )
        ),
    }
    return run_case_study(relearn(), modelers, rng=42)


class TestRunCaseStudy:
    def test_outcomes_cover_kernels_and_modelers(self, relearn_result):
        kernels = {o.kernel for o in relearn_result.outcomes}
        modelers = {o.modeler for o in relearn_result.outcomes}
        assert len(kernels) == 3
        assert modelers == {"regression", "adaptive"}

    def test_predictions_compare_to_measured_reference(self, relearn_result):
        for outcome in relearn_result.outcomes:
            assert outcome.reference > 0
            assert outcome.relative_error >= 0

    def test_median_error_over_relevant_only(self, relearn_result):
        errors = [
            o.relative_error
            for o in relearn_result.outcomes
            if o.modeler == "regression" and o.relevant
        ]
        assert relearn_result.median_error("regression") == pytest.approx(
            sorted(errors)[len(errors) // 2]
        )

    def test_calm_study_modelers_agree(self, relearn_result):
        """RELeARN is nearly noise-free: adaptive must not be (much) worse
        than regression -- the paper found identical results."""
        reg = relearn_result.median_error("regression")
        ada = relearn_result.median_error("adaptive")
        assert reg < 10.0
        assert ada <= reg + 5.0

    def test_timing_recorded(self, relearn_result):
        assert set(relearn_result.total_seconds) == {"regression", "adaptive"}
        assert relearn_result.total_seconds["adaptive"] > 0

    def test_adaptive_slower_due_to_retraining(self, relearn_result):
        """Fig. 6: the adaptive modeler pays the retraining overhead."""
        assert relearn_result.slowdown("adaptive") > 1.0

    def test_noise_summary_present(self, relearn_result):
        assert relearn_result.noise.n_points > 0

    def test_unknown_modeler_raises(self, relearn_result):
        with pytest.raises(KeyError):
            relearn_result.slowdown("nope")

    def test_no_relevant_outcomes_raises(self, relearn_result):
        with pytest.raises(ValueError):
            relearn_result.median_error("missing")


class TestJournaledCaseStudy:
    MODELERS = {
        "regression": "regression",
        "reference": "regression(engine=reference)",
    }

    def test_resume_replays_the_journal(self, tmp_path):
        first = run_case_study(relearn(), self.MODELERS, rng=3, run_dir=str(tmp_path))
        resumed = run_case_study(
            relearn(), self.MODELERS, rng=3, run_dir=str(tmp_path), resume=True
        )
        assert resumed.total_seconds == first.total_seconds
        assert [(o.kernel, o.modeler, o.prediction) for o in resumed.outcomes] == [
            (o.kernel, o.modeler, o.prediction) for o in first.outcomes
        ]

    @pytest.mark.parametrize("seconds", [-1.0, float("nan"), float("inf")])
    def test_corrupt_journaled_seconds_refused_on_resume(self, tmp_path, seconds):
        """A valid pickle carrying a bad modeler time must not replay into
        ``total_seconds`` (the Fig. 6 bars): resume fails naming the task."""
        run_case_study(relearn(), self.MODELERS, rng=3, run_dir=str(tmp_path))
        manifest = RunManifest.load(tmp_path)
        results, _, telemetry = manifest.completed_tasks()[1]
        manifest.record_task(1, (results, {"model": seconds}, telemetry))
        with pytest.raises(RunManifestError, match="task 1.*stage 'model'"):
            run_case_study(
                relearn(), self.MODELERS, rng=3, run_dir=str(tmp_path), resume=True
            )
