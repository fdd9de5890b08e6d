"""The string-spec modeler registry."""

import pytest

from repro.adaptive.modeler import AdaptiveModeler
from repro.baselines.gpr import GPRModeler
from repro.dnn.modeler import DNNModeler
from repro.modeling.registry import (
    MODELERS,
    available_modelers,
    create_modeler,
    create_modelers,
    register_modeler,
    registered_modeler,
)
from repro.regression.modeler import RegressionModeler


class TestBuiltins:
    def test_all_builtins_listed(self):
        assert set(available_modelers()) >= {
            "regression",
            "dnn",
            "adaptive",
            "gpr",
            "fused",
        }

    @pytest.mark.parametrize(
        "spec,cls",
        [
            ("regression", RegressionModeler),
            ("dnn(use_domain_adaptation=false)", DNNModeler),
            ("adaptive(use_domain_adaptation=false)", AdaptiveModeler),
            ("gpr", GPRModeler),
        ],
    )
    def test_builtin_types(self, spec, cls):
        assert isinstance(create_modeler(spec), cls)

    def test_spec_kwargs_reach_the_modeler(self):
        modeler = create_modeler(
            "dnn(top_k=5, use_domain_adaptation=false, aggregation=mean)"
        )
        assert modeler.top_k == 5
        assert not modeler.use_domain_adaptation
        assert modeler.aggregation == "mean"

    def test_adaptive_wires_sub_modelers(self):
        modeler = create_modeler(
            "adaptive(top_k=4, use_domain_adaptation=false, engine=reference)"
        )
        assert modeler.dnn.top_k == 4
        assert not modeler.dnn.use_domain_adaptation
        assert modeler.regression.multi.engine == "reference"

    def test_overrides_win(self):
        sentinel = object()
        modeler = create_modeler("dnn(use_domain_adaptation=false)", network=sentinel)
        assert modeler._network is sentinel

    def test_descriptions_and_signatures(self):
        entry = registered_modeler("dnn")
        assert "top_k" in entry.signature()
        assert entry.description


class TestErrors:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown modeler 'nope'"):
            # Deliberately unknown name; this test asserts the registry's error
            # message.
            create_modeler("nope")
        with pytest.raises(ValueError, match="registered"):
            registered_modeler("nope")

    def test_unknown_keyword(self):
        with pytest.raises(ValueError, match="unknown keyword.*frobnicate"):
            # Deliberately bad keyword; this test asserts the registry's error
            # message.
            create_modeler("regression(frobnicate=1)")


class TestRegistration:
    def _cleanup(self, name):
        MODELERS.entries.pop(name, None)

    def test_register_and_create(self):
        try:
            register_modeler("custom-test", lambda scale=1: ("custom", scale))
            # 'custom-test' is registered at runtime two lines up.
            assert create_modeler("custom-test(scale=3)") == ("custom", 3)
            assert "custom-test" in available_modelers()
        finally:
            self._cleanup("custom-test")

    def test_decorator_form(self):
        try:

            @register_modeler("custom-deco", description="a test modeler")
            def factory():
                return "built"

            # 'custom-deco' is registered at runtime by the decorator above.
            assert create_modeler("custom-deco") == "built"
            assert registered_modeler("custom-deco").description == "a test modeler"
        finally:
            self._cleanup("custom-deco")

    def test_duplicate_requires_replace(self):
        try:
            register_modeler("custom-dup", lambda: 1)
            with pytest.raises(ValueError, match="already registered"):
                register_modeler("custom-dup", lambda: 2)
            register_modeler("custom-dup", lambda: 2, replace=True)
            # 'custom-dup' is registered at runtime three lines up.
            assert create_modeler("custom-dup") == 2
        finally:
            self._cleanup("custom-dup")


class TestCreateModelers:
    def test_sequence_of_specs(self):
        modelers = create_modelers(["regression", "gpr(n_restarts=2)"])
        assert set(modelers) == {"regression", "gpr(n_restarts=2)"}
        assert isinstance(modelers["regression"], RegressionModeler)

    def test_mapping_mixes_specs_and_objects(self):
        prebuilt = RegressionModeler()
        modelers = create_modelers({"ref": prebuilt, "gpr": "gpr"})
        assert modelers["ref"] is prebuilt
        assert isinstance(modelers["gpr"], GPRModeler)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            create_modelers([])
