import pytest

from repro.util.timing import validate_stage_seconds


class TestValidateStageSeconds:
    def test_accepts_valid_mapping(self):
        validate_stage_seconds({"fit": 0.0, "select": 1.5})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.001])
    def test_rejects_non_finite_or_negative(self, bad):
        with pytest.raises(ValueError, match="'fit'"):
            validate_stage_seconds({"fit": bad})

    @pytest.mark.parametrize("bad", ["1.0", None, True])
    def test_rejects_non_numbers(self, bad):
        with pytest.raises(ValueError, match="must be a number"):
            validate_stage_seconds({"fit": bad})

    def test_error_names_stage_and_value(self):
        with pytest.raises(ValueError, match=r"stage 'classify'.*-2\.0"):
            validate_stage_seconds({"classify": -2.0})

