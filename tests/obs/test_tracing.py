"""Lifecycle tracer: gating, deterministic sampling, and the span log."""

import io
import json

import pytest

from repro.obs.tracing import (
    STAGES,
    LifecycleTracer,
    ObsConfig,
    read_span_log,
)


class TestGating:
    def test_default_config_enables_counters_only(self):
        config = ObsConfig()
        assert config.counters and config.span_sample == 0
        assert config.enabled

    def test_all_off_disables_every_hook(self):
        tracer = LifecycleTracer(ObsConfig(counters=False, span_sample=0))
        assert tracer.disabled
        assert tracer.clock() == 0.0  # no syscall on the disabled path
        tracer.observe("ingest", 0.0)
        tracer.observe_elapsed("apply", 0.1, n=5)
        tracer.count("report", 3)
        assert tracer.stage_counts() == {stage: 0 for stage in STAGES}

    def test_counters_off_but_sampling_on_still_gates_histograms(self):
        tracer = LifecycleTracer(ObsConfig(counters=False, span_sample=2))
        assert not tracer.disabled  # spans need clocks
        assert tracer.clock() > 0.0
        tracer.observe_elapsed("route", 0.5)
        assert tracer.stage_counts()["route"] == 0  # counters stay off
        assert tracer.should_sample(0) and not tracer.should_sample(1)

    def test_enabled_counters_accumulate_counts_and_histograms(self):
        tracer = LifecycleTracer(ObsConfig())
        tracer.observe_elapsed("apply", 0.01, n=4)
        tracer.observe("ingest", tracer.clock())
        tracer.count("report", 2)
        counts = tracer.stage_counts()
        assert counts["apply"] == 4
        assert counts["ingest"] == 1
        assert counts["report"] == 2
        # One batched observation: the counter advances by n, the latency
        # histogram records a single per-batch sample.
        hist = tracer.registry.family("stage_latency_seconds").labels("apply")
        assert hist.count == 1
        events = tracer.registry.family("stage_events_total").labels("apply")
        assert events.value == 4

    def test_stage_children_bind_on_first_use(self):
        """Cached per-stage children appear in the exposition exactly when
        a per-call ``labels()`` lookup would have created them."""
        tracer = LifecycleTracer(ObsConfig())
        latency = tracer.registry.family("stage_latency_seconds")
        events = tracer.registry.family("stage_events_total")
        empty = tracer.registry.render()
        assert not latency.children and not events.children
        tracer.count("report", 2)
        assert list(events.children) == [("report",)]
        assert not latency.children  # counting alone never binds a histogram
        tracer.observe_elapsed("apply", 0.01)
        tracer.observe_elapsed("apply", 0.02, n=3)
        assert latency.labels("apply").count == 2
        assert events.labels("apply").value == 4

        reference = LifecycleTracer(ObsConfig())
        assert reference.registry.render() == empty
        reference._stage_events.labels("report").inc(2)
        reference._stage_events.labels("apply").inc(1)
        reference._stage_latency.labels("apply").observe(0.01)
        reference._stage_events.labels("apply").inc(3)
        reference._stage_latency.labels("apply").observe(0.02)
        assert tracer.registry.render() == reference.registry.render()


class TestSampling:
    @pytest.mark.parametrize(
        "n,expected", [(1, list(range(12))), (4, [0, 4, 8])]
    )
    def test_one_in_n_by_batch_ordinal(self, n, expected):
        tracer = LifecycleTracer(ObsConfig(span_sample=n))
        sampled = [o for o in range(12) if tracer.should_sample(o)]
        assert sampled == expected

    def test_zero_rate_never_samples(self):
        tracer = LifecycleTracer(ObsConfig(span_sample=0))
        assert not any(tracer.should_sample(o) for o in range(16))


class TestSpanLog:
    def test_emit_span_writes_schema_compliant_jsonl(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        tracer = LifecycleTracer(ObsConfig(span_sample=1, span_log=path))
        tracer.emit_span(
            batch=7, shard=2, events=40,
            stage_sec={"route": 1e-5, "queue": 2e-4, "apply": 1e-4},
        )
        tracer.log_parse_error("bad line " + "x" * 1000)
        tracer.close()
        records = read_span_log(path)
        assert [r["kind"] for r in records] == ["span", "parse_error"]
        span = records[0]
        assert span["batch"] == 7 and span["shard"] == 2 and span["events"] == 40
        assert set(span["stage_sec"]) == {"route", "queue", "apply"}
        assert span["ts_sec"] >= 0
        assert len(records[1]["line"]) == 512  # offending line is truncated
        assert tracer.spans_written == 1
        assert tracer.parse_errors_logged == 1

    def test_spans_count_even_without_a_log_file(self):
        tracer = LifecycleTracer(ObsConfig(span_sample=1))
        tracer.emit_span(0, 0, 1, {"route": 0.0})
        assert tracer.spans_written == 1
        assert tracer.registry.family("spans_sampled_total").value == 1

    def test_read_span_log_accepts_open_text_files(self):
        buffer = io.StringIO(json.dumps({"kind": "span"}) + "\n\n")
        assert read_span_log(buffer) == [{"kind": "span"}]
        with pytest.raises(TypeError):
            read_span_log(12345)
