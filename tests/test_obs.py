"""Tests for the observability subsystem (spans, metrics, logging, report)."""

import json
import logging
import time

import numpy as np
import pytest

from repro import obs
from repro.obs import logs as obs_logs
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.report import render_trace, stage_timings, trace_document


@pytest.fixture(autouse=True)
def _clean_collector():
    """Every test starts and ends with collection off."""
    if obs_trace.enabled():
        obs_trace.stop_collection()
    yield
    if obs_trace.enabled():
        obs_trace.stop_collection()


class TestSpans:
    def test_nesting_builds_parent_child_tree(self):
        with obs.collect() as trace:
            with obs.span("outer"):
                with obs.span("inner_a"):
                    pass
                with obs.span("inner_b"):
                    with obs.span("leaf"):
                        pass
        assert [root.name for root in trace.roots] == ["outer"]
        outer = trace.roots[0]
        assert [child.name for child in outer.children] == ["inner_a", "inner_b"]
        assert outer.children[1].children[0].name == "leaf"
        assert outer.children[1].children[0].parent is outer.children[1]

    def test_span_records_nonzero_wall_time(self):
        with obs.collect() as trace:
            with obs.span("work"):
                time.sleep(0.005)
        span = trace.find("work")
        assert span.seconds >= 0.005
        # A parent's time includes its children's.
        assert span.seconds == pytest.approx(span.seconds, abs=1e-6)

    def test_counters_accumulate_on_named_span(self):
        with obs.collect() as trace:
            with obs.span("stage") as span:
                span.add_counter("rows", 10)
                span.add_counter("rows", 5)
                obs.add_counter("implicit", 2)  # lands on innermost open span
        stage = trace.find("stage")
        assert stage.counters == {"rows": 15.0, "implicit": 2.0}

    def test_exception_closes_span_and_records_error(self):
        with obs.collect() as trace:
            with pytest.raises(ValueError):
                with obs.span("failing"):
                    raise ValueError("boom")
            with obs.span("after"):
                pass
        failing = trace.find("failing")
        assert failing.seconds > 0
        assert failing.error == "ValueError: boom"
        # The stack recovered: "after" is a root, not a child of "failing".
        assert [root.name for root in trace.roots] == ["failing", "after"]

    def test_collect_finalizes_open_spans_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs.collect() as trace:
                obs_trace._collector.open_span("left_open")
                raise RuntimeError("interrupted")
        assert not obs_trace.enabled()
        assert trace.roots[0].name == "left_open"
        assert trace.roots[0].seconds > 0

    def test_nested_collection_raises(self):
        with obs.collect():
            with pytest.raises(RuntimeError):
                obs_trace.start_collection()

    def test_trace_find_and_iter(self):
        with obs.collect() as trace:
            with obs.span("a"):
                with obs.span("b"):
                    pass
            with obs.span("c"):
                pass
        assert trace.find("b").name == "b"
        assert trace.find("missing") is None
        assert [s.name for s in trace.iter_spans()] == ["a", "b", "c"]

    def test_to_dict_round_trips_through_json(self):
        with obs.collect() as trace:
            with obs.span("root") as span:
                span.add_counter("n", 3)
        document = json.loads(json.dumps(trace.to_dict()))
        assert document["spans"][0]["name"] == "root"
        assert document["spans"][0]["counters"] == {"n": 3.0}


class TestDisabledMode:
    def test_span_returns_shared_null_object(self):
        assert not obs.enabled()
        first = obs.span("anything")
        second = obs.span("something_else")
        assert first is second  # the shared singleton: no per-call allocation

    def test_null_span_supports_the_full_surface(self):
        with obs.span("x") as span:
            span.add_counter("ignored", 1)
        obs.add_counter("also_ignored", 5)
        assert obs.current_span() is None

    def test_disabled_calls_record_nothing(self):
        for _ in range(100):
            with obs.span("hot"):
                obs.add_counter("n")
        assert obs_trace._collector is None
        with obs.collect() as trace:
            pass
        assert trace.roots == []

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            obs_trace.stop_collection()


class TestMetrics:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = obs.MetricsRegistry()
        counter = registry.counter("rows")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5.0
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_keeps_last_value(self):
        registry = obs.MetricsRegistry()
        gauge = registry.gauge("lr")
        gauge.set(0.1)
        gauge.set(0.05)
        assert gauge.value == 0.05

    def test_histogram_percentiles_match_numpy(self):
        registry = obs.MetricsRegistry()
        hist = registry.histogram("latency")
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        for value in values:
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 10
        assert summary["min"] == 1.0
        assert summary["max"] == 10.0
        assert summary["mean"] == pytest.approx(5.5)
        assert summary["p50"] == pytest.approx(np.percentile(values, 50))
        assert summary["p95"] == pytest.approx(np.percentile(values, 95))

    def test_histogram_edge_cases(self):
        registry = obs.MetricsRegistry()
        empty = registry.histogram("empty")
        assert empty.summary() == {"count": 0}
        single = registry.histogram("single")
        single.observe(42.0)
        assert single.summary()["p95"] == 42.0

    def test_same_name_same_instrument(self):
        registry = obs.MetricsRegistry()
        assert registry.counter("n") is registry.counter("n")
        with pytest.raises(TypeError):
            registry.gauge("n")

    def test_registry_json_export(self):
        registry = obs.MetricsRegistry()
        registry.counter("a").inc(2)
        registry.gauge("b").set(1.5)
        registry.histogram("c").observe(3.0)
        document = json.loads(json.dumps(registry.to_dict()))
        assert document["a"] == {"type": "counter", "value": 2.0}
        assert document["b"] == {"type": "gauge", "value": 1.5}
        assert document["c"]["type"] == "histogram"
        assert document["c"]["count"] == 1
        registry.reset()
        assert len(registry) == 0


class TestLogging:
    def test_get_logger_prefixes_namespace(self):
        assert obs.get_logger("pql.planner").name == "repro.pql.planner"
        assert obs.get_logger("repro.graph").name == "repro.graph"

    def test_configure_levels(self):
        root = obs.configure_logging(0)
        assert root.level == logging.WARNING
        assert obs.configure_logging(1).level == logging.INFO
        assert obs.configure_logging(2).level == logging.DEBUG
        assert obs.configure_logging(5).level == logging.DEBUG

    def test_reconfigure_does_not_stack_handlers(self):
        obs.configure_logging(1)
        root = obs.configure_logging(1)
        ours = [h for h in root.handlers if getattr(h, "_repro_handler", False)]
        assert len(ours) == 1

    def test_extra_fields_render_as_key_value(self, capsys):
        import io

        stream = io.StringIO()
        obs.configure_logging(1, stream=stream)
        obs.get_logger("test").info("labels built", extra={"rows": 12, "cutoffs": 3})
        line = stream.getvalue().strip()
        assert "labels built" in line
        assert "cutoffs=3" in line and "rows=12" in line
        assert "repro.test" in line


class TestReport:
    def _sample_trace(self):
        with obs.collect() as trace:
            with obs.span("planner.fit"):
                with obs.span("planner.label") as span:
                    span.add_counter("label.rows", 100)
                with obs.span("planner.train"):
                    for _ in range(2):
                        with obs.span("train.epoch"):
                            pass
        return trace

    def test_render_contains_tree_and_counters(self):
        text = render_trace(self._sample_trace())
        assert text.startswith("EXPLAIN ANALYZE")
        assert "planner.fit" in text
        assert "└─" in text and "├─" in text
        assert "label.rows=100" in text
        assert "%" in text

    def test_render_includes_metrics_section(self):
        registry = obs.MetricsRegistry()
        registry.counter("sampler.nodes_sampled").inc(7)
        text = render_trace(self._sample_trace(), registry)
        assert "metrics:" in text
        assert "sampler.nodes_sampled" in text

    def test_stage_timings_sums_repeated_spans(self):
        trace = self._sample_trace()
        timings = stage_timings(trace)
        assert set(timings) == {"planner.fit", "planner.label", "planner.train", "train.epoch"}
        # Two epochs fold into one aggregate entry.
        assert timings["train.epoch"] <= timings["planner.train"]

    def test_trace_document_is_json_ready(self):
        registry = obs.MetricsRegistry()
        registry.gauge("g").set(1.0)
        document = trace_document(self._sample_trace(), registry)
        parsed = json.loads(json.dumps(document))
        assert set(parsed) == {"spans", "stage_timings", "metrics"}


class TestTrainerHistory:
    def test_record_epoch_tracks_time_throughput_and_clips(self):
        from repro.gnn.trainer import _History, _record_epoch

        history = _History()
        start = time.perf_counter() - 0.01  # pretend the epoch took ~10ms
        _record_epoch(history, epoch=0, clock_start=start, num_examples=500, clip_events=3)
        assert len(history.epoch_seconds) == 1
        assert history.epoch_seconds[0] >= 0.01
        assert history.examples_per_sec[0] == pytest.approx(
            500 / history.epoch_seconds[0]
        )
        assert history.clip_events == 3
        assert history.total_seconds == history.epoch_seconds[0]

    def test_record_epoch_emits_span_counters_when_enabled(self):
        from repro.gnn.trainer import _History, _record_epoch

        with obs.collect() as trace:
            with obs.span("planner.train"):
                _record_epoch(
                    _History(), epoch=0, clock_start=time.perf_counter(),
                    num_examples=10, clip_events=1,
                )
        counters = trace.find("planner.train").counters
        assert counters["train.epochs"] == 1.0
        assert counters["train.examples"] == 10.0
        assert counters["train.clip_events"] == 1.0


class TestSamplerCounters:
    def _graph(self):
        from repro.graph.hetero import EdgeType, HeteroGraph

        graph = HeteroGraph()
        graph.add_node_type("users", 3, times=np.zeros(3, dtype=np.int64))
        graph.add_node_type("orders", 6, times=np.arange(6, dtype=np.int64))
        edge = EdgeType("orders", "user_id", "users")
        src = np.arange(6, dtype=np.int64)
        dst = np.asarray([0, 0, 0, 1, 1, 2], dtype=np.int64)
        times = np.arange(6, dtype=np.int64)
        graph.add_edge_type(edge, src, dst, times=times)
        graph.add_edge_type(edge.reverse(), dst, src, times=times)
        return graph

    def test_sample_records_counters_only_when_enabled(self):
        from repro.graph.sampler import NeighborSampler

        graph = self._graph()
        sampler = NeighborSampler(graph, fanouts=[2], seed=0)
        seeds = np.asarray([0, 1, 2], dtype=np.int64)
        times = np.full(3, 10, dtype=np.int64)

        # Disabled: sampling works, nothing recorded anywhere.
        subgraph = sampler.sample("users", seeds, times)
        assert subgraph.total_nodes() > 0

        with obs.collect() as trace:
            with obs.span("stage"):
                sampler.sample("users", seeds, times)
        counters = trace.find("stage").counters
        assert counters["sampler.calls"] == 1.0
        assert counters["sampler.seeds"] == 3.0
        assert counters["sampler.nodes_sampled"] > 0
        assert counters["sampler.edges_sampled"] > 0
        # user 0 has 3 valid orders with fanout 2 -> at least one truncation.
        assert counters["sampler.fanout_truncations"] >= 1.0


class TestSQLCounters:
    def test_execute_sql_records_scan_and_join_rows(self):
        from repro.datasets import get_dataset
        from repro.relational.sql import execute_sql

        db = get_dataset("ecommerce").build(scale=0.1, seed=0)
        with obs.collect() as trace:
            execute_sql(
                db,
                "SELECT COUNT(*) AS n FROM orders JOIN customers ON orders.customer_id = customers.id",
            )
        span = trace.find("sql.execute")
        expected_scan = db["orders"].num_rows + db["customers"].num_rows
        assert span.counters["sql.rows_scanned"] == expected_scan
        assert span.counters["sql.rows_joined"] == db["orders"].num_rows
        assert span.counters["sql.rows_returned"] == 1.0


class TestCLIProfile:
    _ARGS = [
        "--dataset", "ecommerce", "--scale", "0.2", "--epochs", "2",
        "--layers", "1", "--hidden", "8",
    ]

    def test_profile_prints_stage_tree_with_nonzero_timings(self, capsys):
        from repro.cli import main

        code = main(["fit", "--task", "churn", *self._ARGS, "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE" in out
        for stage in (
            "planner.fit", "planner.parse", "planner.label",
            "planner.graph_build", "planner.train", "planner.evaluate",
        ):
            assert stage in out
        # The train stage carries sampler + throughput counters.
        assert "sampler.nodes_sampled" in out
        assert "train.epochs" in out
        # Total wall time in the header is nonzero.
        total = float(out.split("EXPLAIN ANALYZE (total ")[1].split("s)")[0])
        assert total > 0
        assert "trained 2 epochs" in out

    def test_trace_json_writes_valid_document(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "trace.json"
        code = main(["fit", "--task", "churn", *self._ARGS, "--trace-json", str(path)])
        assert code == 0
        document = json.loads(path.read_text())
        assert set(document) == {"spans", "stage_timings", "metrics"}
        assert document["stage_timings"]["planner.train"] > 0
        span_names = {span["name"] for span in document["spans"]}
        assert "planner.fit" in span_names
        assert document["metrics"]["sampler.nodes_sampled"]["value"] > 0
        # The generator's output rides its span, so rows/s reads off the trace.
        from repro.datasets import get_dataset

        build = next(span for span in document["spans"] if span["name"] == "cli.dataset_build")
        db = get_dataset("ecommerce").build(scale=0.2, seed=0)
        assert build["counters"]["dataset.rows"] == sum(table.num_rows for table in db)

    def test_no_flags_leaves_collection_off(self, capsys):
        from repro.cli import main

        code = main(["fit", "--task", "churn", *self._ARGS])
        assert code == 0
        assert not obs.enabled()
        assert "EXPLAIN ANALYZE" not in capsys.readouterr().out

    def test_verbose_flag_logs_dataset_and_fit_progress(self, capsys):
        from repro.cli import main

        code = main(["fit", "--task", "churn", *self._ARGS, "-v"])
        assert code == 0
        err = capsys.readouterr().err
        assert "generating dataset" in err
        assert "epoch finished" in err
        assert "training finished" in err
