import os

import pytest

from repro.obs.trace import NULL_SPAN, NullTracer, Tracer


class TestSpanNesting:
    def test_single_span_records_fields(self):
        tracer = Tracer()
        with tracer.span("work", items=3):
            pass
        (record,) = tracer.export()
        assert record["name"] == "work"
        assert record["parent_id"] is None
        assert record["attrs"] == {"items": 3}
        assert record["pid"] == os.getpid()
        assert record["duration_s"] >= 0.0
        assert record["start_unix"] > 0.0

    def test_nested_span_records_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        inner, recorded_outer = tracer.export()
        assert inner["name"] == "inner"
        assert inner["parent_id"] == outer.span_id
        assert recorded_outer["parent_id"] is None

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b, _ = tracer.export()
        assert a["parent_id"] == root.span_id
        assert b["parent_id"] == root.span_id

    def test_span_ids_are_unique_counter_based(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        ids = [r["span_id"] for r in tracer.export()]
        assert len(set(ids)) == 2
        assert all(i.startswith(f"{os.getpid():x}-") for i in ids)

    def test_tracers_in_one_process_never_share_ids(self):
        """A worker session in the driver's process (the serial engine
        path) must not reuse the driver's span ids."""
        driver, worker = Tracer(), Tracer()
        with driver.span("sweep.run"):
            with worker.span("sweep.batch"):
                pass
        assert driver.export()[0]["span_id"] != worker.export()[0]["span_id"]

    def test_current_span_id_tracks_stack(self):
        tracer = Tracer()
        assert tracer.current_span_id is None
        with tracer.span("outer") as outer:
            assert tracer.current_span_id == outer.span_id
            with tracer.span("inner") as inner:
                assert tracer.current_span_id == inner.span_id
            assert tracer.current_span_id == outer.span_id
        assert tracer.current_span_id is None

    def test_set_attaches_attributes_mid_span(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            span.set(found=7)
        (record,) = tracer.export()
        assert record["attrs"] == {"found": 7}


class TestSpanErrors:
    def test_exception_marks_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError, match="boom"):
            with tracer.span("work"):
                raise RuntimeError("boom")
        (record,) = tracer.export()
        assert record["error"] == "RuntimeError"
        assert tracer.current_span_id is None

    def test_torn_stack_does_not_mask_exception(self):
        """A span closed out of order (crashing body popped a child early)
        must not raise during __exit__ and shadow the in-flight error."""
        tracer = Tracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        outer.__exit__(None, None, None)  # out of order
        inner.__exit__(None, None, None)  # must not raise
        assert tracer.current_span_id is None
        assert len(tracer.export()) == 2


class TestAbsorb:
    def test_roots_reparented_children_untouched(self):
        worker = Tracer()
        with worker.span("batch"):
            with worker.span("fit"):
                pass
        driver = Tracer()
        with driver.span("engine") as engine:
            pass
        driver.absorb(worker.export(), engine.span_id)
        by_name = {r["name"]: r for r in driver.export()}
        assert by_name["batch"]["parent_id"] == engine.span_id
        # the child keeps its worker-local parent
        assert by_name["fit"]["parent_id"] == by_name["batch"]["span_id"]

    def test_absorb_without_parent_keeps_roots(self):
        worker = Tracer()
        with worker.span("batch"):
            pass
        driver = Tracer()
        driver.absorb(worker.export())
        (record,) = driver.export()
        assert record["parent_id"] is None

    def test_absorb_does_not_mutate_source_records(self):
        worker = Tracer()
        with worker.span("batch"):
            pass
        exported = worker.export()
        driver = Tracer()
        with driver.span("engine") as engine:
            pass
        driver.absorb(exported, engine.span_id)
        assert exported[0]["parent_id"] is None

    def test_clear(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.clear()
        assert tracer.export() == []


class TestNullTracer:
    def test_span_returns_shared_noop(self):
        tracer = NullTracer()
        assert tracer.span("anything", k=1) is NULL_SPAN
        with tracer.span("x") as span:
            assert span is NULL_SPAN
            span.set(ignored=True)
        assert tracer.export() == []
        assert tracer.current_span_id is None
        assert tracer.enabled is False

    def test_absorb_and_clear_are_noops(self):
        tracer = NullTracer()
        tracer.absorb([{"name": "x"}], "parent")
        tracer.clear()
        assert tracer.export() == []
