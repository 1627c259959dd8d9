"""Tests for the telemetry subsystem (:mod:`repro.obs`).

Four load-bearing promises: the disabled default registry is a true
no-op that never alters results; the Prometheus rendering is valid text
exposition format a scraper can parse; per-job ``events.jsonl`` streams
round-trip (their torn-tail contract is :mod:`repro.ledger`'s, tested in
``test_ledger.py``); and the ``/metrics`` and ``/jobs/<id>/events``
endpoints serve real telemetry from a served study.  Plus the
``store_status`` ETA edge cases this PR's progress metadata introduced:
legacy untimestamped stores, zero-throughput shards, and all-failed
shards.
"""

import json
import logging
import math
import re
import threading
import urllib.request

import pytest

from repro import obs
from repro.cli import _format_eta
from repro.dist import (
    ResultStore,
    ShardSpec,
    model_workload_spec,
    run_shard,
    store_status,
)
from repro.harness.dse import sweep_design_space
from repro.obs import (
    ChromeTrace,
    EventLog,
    Registry,
    render_metrics,
    tracing,
)
from repro.obs.registry import NOOP_METRIC, NOOP_SPAN
from repro.perf import cached_model_workload
from repro.serve import JobManager, ServeClient, ServeError, serving
from repro.sim.evaluator import AnalyticalEvaluator

from per_point import PerPoint

GRID = {"mac_lines": (16, 32, 64), "ae_compression": (None, 0.5)}
SPEC = model_workload_spec("deit-tiny", sparsity=0.9)
SERVE_GRID = {"mac_lines": [16, 32], "ae_compression": [None, 0.5]}


@pytest.fixture(scope="module")
def workload():
    return cached_model_workload("deit-tiny", sparsity=0.9)


# ----------------------------------------------------------------------
# Registry primitives
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_get_or_create_and_inc(self):
        r = Registry()
        c = r.counter("points", help="points scored")
        assert r.counter("points") is c
        c.inc()
        c.inc(4)
        assert r.value("points") == 5
        assert c.help == "points scored"

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Registry().counter("c").inc(-1)

    def test_labels_are_separate_series(self):
        r = Registry()
        r.counter("req", route="/jobs").inc()
        r.counter("req", route="/health").inc(2)
        # Label order must not matter for the series key.
        r.counter("req", status="200", route="/jobs")
        assert r.counter("req", route="/jobs", status="200") is r.get(
            "req", status="200", route="/jobs"
        )
        assert r.value("req", route="/jobs") == 1
        assert r.value("req", route="/health") == 2
        assert r.value("req") is None  # the unlabelled series was never touched

    def test_kind_conflict_raises(self):
        r = Registry()
        r.counter("x")
        with pytest.raises(ValueError, match="already registered as a counter"):
            r.histogram("x")
        with pytest.raises(ValueError, match="already registered"):
            r.histogram("x", route="/jobs")

    def test_disabled_registry_is_inert(self):
        r = Registry(enabled=False)
        assert r.counter("c") is NOOP_METRIC
        assert r.histogram("h") is NOOP_METRIC
        assert r.span("s") is NOOP_SPAN
        r.counter("c").inc(99)  # absorbed, nothing registered
        assert r.get("c") is None
        assert render_metrics(r) == ""  # nothing registered, nothing rendered

    def test_default_registry_swap_is_scoped(self):
        before = obs.get_registry()
        with obs.use_registry(Registry(enabled=True)) as fresh:
            assert obs.get_registry() is fresh
            obs.counter("scoped").inc()
            assert fresh.value("scoped") == 1
        assert obs.get_registry() is before
        assert before.get("scoped") is None

    def test_counter_is_thread_safe(self):
        c = Registry().counter("hits")

        def hammer():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestHistogram:
    def test_empty_histogram(self):
        h = Registry().histogram("lat")
        assert h.count == 0 and h.sum == 0.0

    def test_cumulative_buckets_end_at_total(self):
        h = Registry().histogram("lat", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 0.5, 1.5, 3.0, 100.0):
            h.observe(value)
        cumulative = h.cumulative_buckets()
        assert cumulative == [(1.0, 2), (2.0, 3), (4.0, 4), (math.inf, 5)]
        counts = [count for _, count in cumulative]
        assert counts == sorted(counts)  # cumulative is monotone
        assert cumulative[-1] == (math.inf, h.count)


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE_LINE = re.compile(
    rf'^({_NAME})(\{{{_NAME}="(?:[^"\\\n]|\\.)*"'
    rf'(?:,{_NAME}="(?:[^"\\\n]|\\.)*")*\}})? (\S+)$'
)


def parse_prometheus(text):
    """A scraper-shaped mini-parser: asserts the format, returns samples.

    Returns ``(types, samples)`` where ``types`` maps family name to
    kind and ``samples`` maps the full sample line key (name plus label
    text) to its float value.
    """
    assert text.endswith("\n"), "exposition text must be newline-terminated"
    types, samples = {}, {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            assert kind in ("counter", "histogram")
            types[name] = kind
            continue
        match = _SAMPLE_LINE.match(line)
        assert match, f"unparseable sample line: {line!r}"
        samples[f"{match.group(1)}{match.group(2) or ''}"] = float(match.group(3))
    return types, samples


class TestPrometheusRender:
    def _populated(self):
        r = Registry()
        r.counter("req_total", help="requests", route="/jobs", status="200").inc(3)
        r.counter("req_total", route="/health", status="200").inc()
        r.counter("chunk_size").inc(24)
        h = r.histogram("req_seconds", help="latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        return r

    def test_render_is_parseable_and_complete(self):
        types, samples = parse_prometheus(render_metrics(self._populated()))
        assert types == {
            "req_total": "counter",
            "chunk_size": "counter",
            "req_seconds": "histogram",
        }
        assert samples['req_total{route="/jobs",status="200"}'] == 3
        assert samples['req_total{route="/health",status="200"}'] == 1
        assert samples["chunk_size"] == 24
        assert samples['req_seconds_bucket{le="0.1"}'] == 1
        assert samples['req_seconds_bucket{le="1.0"}'] == 2
        assert samples['req_seconds_bucket{le="+Inf"}'] == 3
        assert samples["req_seconds_count"] == 3
        assert samples["req_seconds_sum"] == pytest.approx(5.55)

    def test_inf_bucket_matches_count(self):
        text = render_metrics(self._populated())
        _, samples = parse_prometheus(text)
        assert (
            samples['req_seconds_bucket{le="+Inf"}'] == samples["req_seconds_count"]
        )

    def test_help_and_type_lines(self):
        text = render_metrics(self._populated())
        assert "# HELP req_total requests\n# TYPE req_total counter\n" in text
        assert "# TYPE chunk_size counter" in text

    def test_label_values_are_escaped(self):
        r = Registry()
        r.counter("c", path='a"b\\c\nd').inc()
        text = render_metrics(r)
        assert 'c{path="a\\"b\\\\c\\nd"} 1' in text
        parse_prometheus(text)  # still a valid sample line


# ----------------------------------------------------------------------
# Spans and Chrome traces
# ----------------------------------------------------------------------
class TestSpansAndTraces:
    def test_span_feeds_a_latency_histogram(self):
        r = Registry()
        with r.span("merge"):
            pass
        h = r.get("merge_seconds")
        assert h is not None and h.count == 1
        assert h.sum >= 0.0

    def test_span_records_trace_event_with_args(self):
        r = Registry()
        with tracing(registry=r) as tracer:
            with r.span("sweep", points=6):
                pass
        assert r.tracer is None  # restored on exit
        (event,) = tracer.events
        assert event["ph"] == "X" and event["name"] == "sweep"
        assert event["dur"] > 0 and event["ts"] >= 0
        assert event["args"] == {"points": 6}

    def test_tracing_works_on_a_disabled_registry(self):
        """--trace must not silently enable metrics collection."""
        r = Registry(enabled=False)
        with tracing(registry=r) as tracer:
            with r.span("sweep"):
                pass
        assert len(tracer.events) == 1
        assert r.get("sweep_seconds") is None  # metrics stayed off

    def test_trace_file_is_perfetto_shaped(self, tmp_path):
        r = Registry()
        out = tmp_path / "trace.json"
        with tracing(path=out, registry=r) as tracer:
            with r.span("outer"):
                with r.span("inner"):
                    pass
        doc = json.loads(out.read_text())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert [e["ph"] for e in events] == ["X", "X"]
        stamps = [e["ts"] for e in events]
        assert stamps == sorted(stamps)
        assert all({"pid", "tid", "cat"} <= set(e) for e in events)

    def test_collector_is_thread_safe(self):
        tracer = ChromeTrace()

        def emit():
            for _ in range(200):
                tracer.add_complete("tick", 0.0, 0.0)

        threads = [threading.Thread(target=emit) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer.events) == 800


# ----------------------------------------------------------------------
# Durable event streams
# ----------------------------------------------------------------------
class TestEventLog:
    def test_round_trip_and_len(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        assert log.read() == []  # missing stream reads empty
        log.append({"event": "submitted", "t": 1.0})
        log.append({"event": "done", "t": 2.0})
        assert [e["event"] for e in log.read()] == ["submitted", "done"]
        assert len(log.read()) == 2

    def test_read_tolerates_a_torn_final_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.append({"event": "a"})
        log.append({"event": "b"})
        whole = path.read_bytes()
        path.write_bytes(whole + b'{"event": "torn')
        assert [e["event"] for e in log.read()] == ["a", "b"]


# ----------------------------------------------------------------------
# Logging and the DSE instrumentation
# ----------------------------------------------------------------------
class _FailingEvaluator:
    """Analytical scoring that poisons one mac_lines value (or all)."""

    name = "failing"

    def __init__(self, poison=None):
        self.inner = PerPoint(AnalyticalEvaluator())
        self.poison = poison

    def __call__(self, workload, config, accel_kwargs):
        if self.poison is None or config.num_mac_lines == self.poison:
            raise RuntimeError("poisoned point")
        return self.inner(workload, config, accel_kwargs)


class TestLoggingAndDseCounters:
    def test_logger_hierarchy(self):
        log = obs.get_logger("harness.dse")
        assert log.name == "repro.harness.dse"
        assert obs.get_logger("repro.dist").name == "repro.dist"

    def test_configure_logging_replaces_its_own_handler(self):
        root = obs.configure_logging()
        count = len(root.handlers)
        obs.configure_logging()  # a second --verbose boot never double-logs
        assert len(root.handlers) == count
        marked = [h for h in root.handlers if getattr(h, "_repro_obs_handler", False)]
        assert len(marked) == 1

    def test_dropped_points_log_and_count(self, workload, caplog):
        caplog.set_level(logging.WARNING, logger="repro")
        with obs.use_registry(Registry(enabled=True)) as r:
            with pytest.warns(RuntimeWarning, match="poisoned point"):
                points = sweep_design_space(
                    workload, GRID, evaluator=_FailingEvaluator(poison=32)
                )
        assert len(points) == 4  # 6 grid points, 2 poisoned
        assert r.value("dse_points_failed") == 2
        dropped = [
            rec
            for rec in caplog.records
            if rec.name == "repro.harness.dse" and "dropped" in rec.message
        ]
        assert len(dropped) == 2

    def test_sweep_counters_and_result_identity(self, workload):
        baseline = sweep_design_space(workload, GRID)
        with obs.use_registry(Registry(enabled=True)) as r:
            instrumented = sweep_design_space(workload, GRID)
        assert instrumented == baseline  # telemetry never alters results
        assert r.value("dse_points_scored") == 6
        assert r.value("dse_chunks_dispatched") >= 1
        assert r.get("dse_sweep_seconds").count == 1
        assert r.value("dse_points_failed") is None  # nothing failed


# ----------------------------------------------------------------------
# store_status ETA edge cases
# ----------------------------------------------------------------------
def _rewrite_records(path, mutate):
    """Apply ``mutate(record) -> record | None`` to each JSONL record."""
    out = []
    for line in path.read_text().splitlines():
        record = mutate(json.loads(line))
        if record is not None:
            out.append(json.dumps(record, sort_keys=True))
    path.write_text("".join(line + "\n" for line in out))


class TestStoreStatusEta:
    def _half_run_store(self, tmp_path, workload):
        store = tmp_path / "store"
        run_shard(workload, GRID, "1/2", store, workload_spec=SPEC)
        return store, ResultStore(store).shard_path(ShardSpec(1, 2))

    def test_legacy_untimestamped_store_has_unknown_eta(
        self, tmp_path, workload
    ):
        """Stores from before records carried ``t`` render ETA ``?``."""
        store, shard_file = self._half_run_store(tmp_path, workload)
        kept = []

        def strip_t(record):
            record.pop("t", None)
            kept.append(record)
            return record if len(kept) < 3 else None  # drop the last record

        _rewrite_records(shard_file, strip_t)
        status = store_status(store)
        one = status.shards[0]
        assert one.done == 2 and one.pending == 1
        assert one.eta_seconds is None
        assert status.eta_seconds is None
        assert _format_eta(one.eta_seconds) == "?"

    def test_zero_throughput_shard_has_unknown_eta(self, tmp_path, workload):
        """Identical timestamps give no observable rate — ETA unknown."""
        store, shard_file = self._half_run_store(tmp_path, workload)
        kept = []

        def freeze_t(record):
            record["t"] = 1000.0
            kept.append(record)
            return record if len(kept) < 3 else None

        _rewrite_records(shard_file, freeze_t)
        one = store_status(store).shards[0]
        assert one.pending == 1 and one.eta_seconds is None
        assert _format_eta(one.eta_seconds) == "?"

    def test_complete_shard_eta_is_zero(self, tmp_path, workload):
        store, _ = self._half_run_store(tmp_path, workload)
        one = store_status(store).shards[0]
        assert one.pending == 0 and one.eta_seconds == 0.0
        assert _format_eta(one.eta_seconds) == "-"

    def test_all_failed_shard_is_complete_with_zero_eta(
        self, tmp_path, workload
    ):
        store = tmp_path / "store"
        result = run_shard(
            workload,
            GRID,
            "1/1",
            store,
            evaluator=_FailingEvaluator(),
            workload_spec=SPEC,
        )
        assert result.failed == 6
        status = store_status(store)
        one = status.shards[0]
        assert one.pending == 0 and one.done == one.total == 6
        assert one.failed == 6 and one.scored == 0
        assert one.eta_seconds == 0.0 and status.eta_seconds == 0.0
        assert status.fraction_scored == 0.0

    @pytest.mark.parametrize(
        "eta,text",
        [
            (None, "?"),
            (0.0, "-"),
            (-3.0, "-"),
            (0.4, "1s"),
            (5.0, "5s"),
            (90.0, "1m30s"),
            (3659.0, "1h00m"),
            (3725.0, "1h02m"),
            (7322.0, "2h02m"),
        ],
    )
    def test_format_eta(self, eta, text):
        assert _format_eta(eta) == text


# ----------------------------------------------------------------------
# The serve surfaces: events accessor, /metrics, /jobs/<id>/events
# ----------------------------------------------------------------------
def _request(**overrides):
    request = {"grid": SERVE_GRID, "evaluator": "analytical", "model": "deit-tiny"}
    request.update(overrides)
    return request


class TestServeTelemetry:
    def test_job_event_timeline(self, tmp_path):
        with obs.use_registry(Registry(enabled=True)) as r:
            manager = JobManager(tmp_path, workers=0)
            info = manager.submit(_request(n_shards=2))
            while manager.run_next():
                pass
            kinds = [e["event"] for e in manager.events(info["id"])]
            assert kinds[:3] == ["submitted", "queued", "running"]
            assert kinds[-2:] == ["merging", "done"]
            assert kinds.count("shard_started") == 2
            assert kinds.count("shard_finished") == 2
            again = manager.submit(_request(n_shards=2))
            assert again["cache_hit"] is True
            assert manager.events(info["id"])[-1]["event"] == "cache_hit"
            # Every record is timestamped and ordered.
            stamps = [e["t"] for e in manager.events(info["id"])]
            assert stamps == sorted(stamps)
            assert r.value("serve_job_transitions", state="done") == 1
            manager.stop()

    def test_events_endpoint_and_metrics_after_a_study(self, tmp_path):
        with obs.use_registry(Registry(enabled=True)):
            with serving(tmp_path / "data", workers=2) as server:
                client = ServeClient(server.url)
                info = client.submit(_request(n_shards=2))
                assert client.wait(info["id"], timeout=120)["state"] == "done"

                events = client.events(info["id"])
                assert events[0]["event"] == "submitted"
                assert events[-1]["event"] == "done"
                assert events[-1]["points"] == 4

                with pytest.raises(ServeError) as excinfo:
                    client.events("0" * 16)
                assert excinfo.value.status == 404

                with urllib.request.urlopen(
                    f"{server.url}/metrics", timeout=30
                ) as response:
                    assert (
                        response.headers["Content-Type"]
                        == "text/plain; version=0.0.4; charset=utf-8"
                    )
                    text = response.read().decode("utf-8")
                types, samples = parse_prometheus(text)
                assert types["serve_http_requests_total"] == "counter"
                assert types["serve_http_request_seconds"] == "histogram"
                assert samples["serve_jobs_completed"] == 1
                assert samples["serve_shards_run"] == 2
                assert samples["dse_points_scored"] == 4
                assert samples["dist_records_written"] == 4
                assert samples["dist_merges"] == 1
                assert samples['serve_job_transitions{state="done"}'] == 1
                route = 'route="/jobs/{id}",status="200"'
                key = f'serve_http_requests_total{{method="GET",{route}}}'
                assert samples[key] >= 1

    def test_second_metrics_scrape_sees_the_first(self, tmp_path):
        """/metrics is itself instrumented (one request behind)."""
        with obs.use_registry(Registry(enabled=True)):
            with serving(tmp_path / "data", workers=0) as server:
                client = ServeClient(server.url)
                first = client.metrics_text()
                assert 'route="/metrics"' not in first
                _, samples = parse_prometheus(client.metrics_text())
                key = (
                    'serve_http_requests_total{method="GET",'
                    'route="/metrics",status="200"}'
                )
                assert samples[key] == 1
