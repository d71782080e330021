"""Tests for the observability subsystem (repro.obs) and its wiring.

Covers the metrics primitives (counter/gauge/histogram quantiles), span
nesting and propagation, the slow-query log, the global no-op default,
token-expiry instrumentation at the exact boundary instant under a
simulated clock, the LRU statement cache, per-statement script
attribution, EXPLAIN ANALYZE timings, and the web layer's ``/metrics``
and ``/trace`` endpoints returning live data.
"""

import pytest

import repro.obs as obs_mod
from repro.errors import TokenExpiredError
from repro.obs import Observability, get_observability, set_observability
from repro.obs.events import EventLog, SlowQueryLog
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.tracing import NullTracer, Tracer


@pytest.fixture
def obs():
    """Install a live default with a zero slow-query threshold; restore
    the previous default afterwards so tests never leak instrumentation."""
    handle = Observability(enabled=True, slow_query_seconds=0.0)
    previous = set_observability(handle)
    yield handle
    set_observability(previous)


class TestMetrics:
    def test_counter_and_labels(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(2)
        registry.counter("hits", kind="a").inc()
        assert registry.counter("hits").value == 3
        assert registry.counter("hits", kind="a").value == 1
        snap = registry.snapshot()
        assert snap["hits"]["value"] == 3
        assert snap["hits{kind=a}"]["value"] == 1

    def test_gauge_set_inc_dec_and_pull(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 4
        pulled = registry.gauge("pulled")
        pulled.set_function(lambda: 42)
        assert registry.snapshot()["pulled"]["value"] == 42

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_histogram_quantiles_known_distribution(self):
        hist = Histogram("t")
        for value in range(1, 101):  # 1..100
            hist.observe(float(value))
        assert hist.count == 100
        assert hist.min == 1.0 and hist.max == 100.0
        assert hist.mean == pytest.approx(50.5)
        # linear interpolation over the sorted window
        assert hist.quantile(0.0) == 1.0
        assert hist.quantile(1.0) == 100.0
        assert hist.quantile(0.5) == pytest.approx(50.5)
        assert hist.quantile(0.9) == pytest.approx(90.1)
        summary = hist.summary()
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["p99"] == pytest.approx(99.01)

    def test_histogram_window_is_bounded(self):
        hist = Histogram("t", window=4)
        for value in (1.0, 2.0, 3.0, 4.0, 100.0):
            hist.observe(value)
        # lifetime aggregates see everything; quantiles only the window
        assert hist.count == 5
        assert hist.min == 1.0
        assert hist.quantile(0.0) == 2.0  # the 1.0 fell out of the window

    def test_empty_histogram(self):
        hist = Histogram("t")
        assert hist.quantile(0.5) == 0.0
        assert hist.summary()["min"] == 0.0
        with pytest.raises(ValueError):
            hist.observe(1.0) or hist.quantile(1.5)

    def test_render_text(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(7)
        registry.histogram("h").observe(2.0)
        text = registry.render_text()
        assert "# TYPE c_total counter\nc_total 7\n" in text
        assert "# TYPE h summary\n" in text
        assert 'h{quantile="0.5"} 2.0' in text
        assert "h_sum 2.0\nh_count 1\n" in text

    def test_render_text_names_labels_and_pulls(self):
        registry = MetricsRegistry()
        registry.gauge("queue.depth", set='a"b\\c').set(3)
        registry.counter("bytes_total").set_function(lambda: 5)
        text = registry.render_text()
        assert 'queue_depth{set="a\\"b\\\\c"} 3' in text
        assert "bytes_total 5" in text  # already ends in _total
        # snapshot keys keep the registry's own dotted names
        assert set(registry.snapshot()) == {"bytes_total", 'queue.depth{set=a"b\\c}'}

    def test_bind_replaces_earlier_pulls(self):
        from repro.obs import Counter, Gauge

        registry = MetricsRegistry()
        registry.counter("pushed").inc()
        registry.bind([(Counter, "a", {}, lambda: 1), (Gauge, "b", {}, lambda: 2)])
        assert registry.snapshot()["a"]["value"] == 1
        registry.bind([(Counter, "a", {}, lambda: 7)])
        snap = registry.snapshot()
        assert snap["a"]["value"] == 7
        assert "b" not in snap and snap["pushed"]["value"] == 1


class TestTracing:
    def test_span_nesting_and_propagation(self):
        tracer = Tracer()
        with tracer.span("outer", layer="web") as outer:
            assert tracer.current is outer
            with tracer.span("inner") as inner:
                assert tracer.current is inner
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
            assert tracer.current is outer
        assert tracer.current is None
        snap = tracer.snapshot()
        # inner finished first
        assert [s["name"] for s in snap] == ["inner", "outer"]
        assert snap[1]["attributes"] == {"layer": "web"}
        assert snap[1]["parent_id"] is None
        assert all(s["duration"] >= 0.0 for s in snap)

    def test_sibling_spans_share_trace(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b, root = tracer.snapshot()
        assert a["parent_id"] == root["span_id"] == b["parent_id"]
        assert a["trace_id"] == b["trace_id"] == root["trace_id"]

    def test_separate_roots_get_separate_traces(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        first, second = tracer.snapshot()
        assert first["trace_id"] != second["trace_id"]

    def test_error_status_propagates(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert tracer.snapshot()[0]["status"] == "error"
        assert tracer.current is None  # stack unwound

    def test_ring_buffer_keeps_newest(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [s["name"] for s in tracer.snapshot()] == ["s2", "s3", "s4"]

    def test_record_external_timing(self):
        tracer = Tracer()
        span = tracer.record("sim", start=100.0, end=4600.0, clock="sim")
        assert span.duration == 4500.0
        assert tracer.snapshot()[0]["attributes"]["clock"] == "sim"

    def test_null_tracer_is_a_context_manager(self):
        tracer = NullTracer()
        with tracer.span("anything", k=1) as span:
            span.set(more=2)
        assert tracer.snapshot() == []


class TestEventsAndSlowQueryLog:
    def test_slow_query_threshold(self):
        events = EventLog()
        log = SlowQueryLog(events, threshold_seconds=0.5)
        assert log.record("SELECT 1", elapsed=0.4) is False
        assert log.record("SELECT 2", elapsed=0.5) is True  # at threshold
        assert log.record("SELECT 3", elapsed=0.9, rows=7) is True
        entries = log.entries()
        assert [e["sql"] for e in entries] == ["SELECT 2", "SELECT 3"]
        assert entries[1]["rows"] == 7

    def test_event_sinks_and_filtering(self):
        events = EventLog(time_source=lambda: 123.0)
        seen = []
        events.add_sink(seen.append)
        events.emit("a", x=1)
        events.emit("b")
        assert len(seen) == 2
        assert seen[0]["ts"] == 123.0 and seen[0]["seq"] == 1
        assert [e["kind"] for e in events.events("a")] == ["a"]

    def test_ring_capacity(self):
        events = EventLog(capacity=2)
        for i in range(4):
            events.emit("e", i=i)
        assert [e["i"] for e in events.events()] == [2, 3]


class TestGlobalDefault:
    def test_default_is_noop(self):
        from repro.datalink import TokenManager
        from repro.sqldb import Database

        assert not get_observability().enabled
        # a disabled handle traces and logs nothing, and no component
        # pushes into its registry, which only ever receives pulls
        handle = Observability(enabled=False)
        previous = set_observability(handle)
        try:
            with handle.tracer.span("y"):
                pass
            handle.events.emit("z")
            db = Database()
            db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY)")
            db.execute("INSERT INTO T VALUES (1)")
            db.execute("SELECT * FROM T")
            tokens = TokenManager(secret=b"k")
            tokens.validate("s", tokens.issue("s"))
        finally:
            set_observability(previous)
        assert handle.tracer.snapshot() == []
        assert len(handle.metrics) == 0
        assert handle.metrics.render_text() == ""

    def test_enable_disable_roundtrip(self):
        before = get_observability()
        handle = obs_mod.enable()
        try:
            assert get_observability() is handle
            handle.metrics.counter("x").inc()
            assert handle.metrics.counter("x").value == 1
        finally:
            obs_mod.disable()
            set_observability(before)
        assert not get_observability().enabled

    def test_set_observability_returns_previous(self, obs):
        other = Observability(enabled=True)
        previous = set_observability(other)
        assert previous is obs
        set_observability(previous)
        assert get_observability() is obs

    def test_snapshot_shape(self, obs):
        obs.metrics.counter("c").inc()
        with obs.tracer.span("s"):
            pass
        snap = obs.snapshot()
        assert snap["enabled"] is True
        assert "c" in snap["metrics"]
        assert snap["spans"][0]["name"] == "s"


class TestTokenExpiryBoundary:
    """The paper's access tokens have 'a finite life'; the expiry check
    must be exact under a simulated clock: valid *at* the expiry instant
    (millisecond resolution, strict '>'), expired immediately after."""

    def _manager(self, clock):
        from repro.datalink import TokenManager

        return TokenManager(
            secret=b"k", validity_seconds=60.0, time_source=lambda: clock.now
        )

    def test_valid_at_exact_expiry_instant(self, obs):
        from repro.netsim import SimClock

        clock = SimClock()
        manager = self._manager(clock)
        token = manager.issue("fs1/data/ts1.dat")
        clock.advance(60.0)  # exactly the expiry instant
        assert manager.validate("fs1/data/ts1.dat", token) is True
        assert manager.validated_count == 1
        assert obs.metrics.counter("datalink.tokens_expired").value == 0

    def test_expired_just_after_boundary(self, obs):
        from repro.netsim import SimClock

        clock = SimClock()
        manager = self._manager(clock)
        token = manager.issue("fs1/data/ts1.dat")
        clock.advance(60.001)  # one millisecond past expiry
        with pytest.raises(TokenExpiredError):
            manager.validate("fs1/data/ts1.dat", token)
        assert obs.metrics.counter("datalink.tokens_expired").value == 1
        expired = obs.events.events("token.expired")
        assert expired and expired[0]["scope"] == "fs1/data/ts1.dat"

    def test_issue_and_validate_emit_events(self, obs):
        from repro.netsim import SimClock

        manager = self._manager(SimClock())
        token = manager.issue("fs1/f")
        manager.validate("fs1/f", token)
        assert manager.issued_count == 1
        assert [e["kind"] for e in obs.events.events()] == [
            "token.issue",
            "token.validate",
        ]


class TestDatabaseInstrumentation:
    def _db(self, obs_handle=None):
        from repro.sqldb import Database

        db = Database(obs=obs_handle)
        db.execute("CREATE TABLE T (K INTEGER PRIMARY KEY, V VARCHAR(10))")
        for i in range(5):
            db.execute("INSERT INTO T VALUES (?, ?)", (i, f"v{i}"))
        return db

    def test_statement_cache_lru_eviction(self):
        from repro.sqldb import Database

        db = Database()
        db.STATEMENT_CACHE_SIZE = 3
        db.execute("CREATE TABLE T (K INTEGER)")
        for i in range(4):  # 4 distinct statements through a cache of 3
            db.execute(f"INSERT INTO T VALUES ({i})")
        assert len(db._statement_cache) == 3
        first = "INSERT INTO T VALUES (0)"
        assert first not in db._statement_cache  # least-recent got evicted
        # re-touching an entry protects it from the next eviction
        db.execute("INSERT INTO T VALUES (1)")  # hit: moves to MRU
        db.execute("INSERT INTO T VALUES (9)")  # evicts VALUES (2), not (1)
        assert "INSERT INTO T VALUES (1)" in db._statement_cache
        assert "INSERT INTO T VALUES (2)" not in db._statement_cache

    def test_statement_cache_stats(self):
        db = self._db()
        db.execute("SELECT COUNT(*) FROM T")
        db.execute("SELECT COUNT(*) FROM T")
        stats = db.statement_cache_stats
        assert stats["hits"] >= 5  # the four repeated INSERTs + repeated SELECT
        assert stats["misses"] >= 2
        assert 0.0 < stats["hit_ratio"] < 1.0
        assert stats["entries"] == len(db._statement_cache)

    def test_statement_metrics_and_spans(self, obs):
        db = self._db(obs)
        db.execute("SELECT * FROM T WHERE K > ?", (1,))
        assert obs.metrics.counter("sql.statements", kind="SELECT").value == 1
        assert obs.metrics.counter("sql.rows_returned").value == 3
        assert obs.metrics.counter("sql.rows_scanned").value >= 3
        names = [s["name"] for s in obs.tracer.snapshot()]
        assert "sql.statement" in names
        select_span = [
            s for s in obs.tracer.snapshot()
            if s["attributes"].get("statement") == "SELECT"
        ][0]
        assert "WHERE K > ?" in select_span["attributes"]["sql"]

    def test_slow_query_log_attribution_in_scripts(self, obs):
        db = self._db(obs)
        db.execute_script(
            "INSERT INTO T VALUES (100, 'x'); SELECT COUNT(*) FROM T"
        )
        slow = obs.slow_query.entries()  # threshold 0: everything logs
        texts = [e["sql"] for e in slow]
        assert "INSERT INTO T VALUES (100, 'x')" in texts
        assert "SELECT COUNT(*) FROM T" in texts

    def test_script_params_span_statements(self, obs):
        db = self._db(obs)
        results = db.execute_script(
            "INSERT INTO T VALUES (?, ?); SELECT V FROM T WHERE K = ?",
            (200, "s", 200),
        )
        assert results[-1].rows == [("s",)]
        logged = [e["sql"] for e in obs.slow_query.entries()]
        assert "SELECT V FROM T WHERE K = ?" in logged

    def test_explain_analyze_reports_step_timings(self):
        db = self._db()
        result = db.execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM T WHERE K >= 0")
        lines = [row[0] for row in result.rows]
        assert any("ms cumulative" in line for line in lines)
        assert any("rows=" in line for line in lines)
        assert lines[-1].startswith("total: 1 row(s) in ")

    def test_plain_explain_unchanged(self):
        db = self._db()
        result = db.execute("EXPLAIN SELECT * FROM T")
        assert all("ms" not in row[0] for row in result.rows)

    def test_disabled_obs_records_nothing(self):
        null = get_observability()
        assert not null.enabled
        db = self._db()
        db.execute("SELECT * FROM T")
        assert null.tracer.snapshot() == []
        assert null.slow_query.entries() == []


class TestNetsimSimClockSpans:
    def test_transfer_span_uses_simulated_seconds(self, obs):
        from repro.netsim import MBYTE, SimClock, TransferEngine
        from repro.netsim.bandwidth import BandwidthProfile
        from repro.netsim.topology import Host, Link, Network

        network = Network()
        network.add_host(Host("db1"))
        network.add_host(Host("fs1"))
        network.add_link(Link("db1", "fs1", BandwidthProfile.constant(1.0)))
        engine = TransferEngine(network, SimClock())
        record = engine.transfer("db1", "fs1", 10 * MBYTE)
        span = obs.tracer.snapshot()[-1]
        assert span["name"] == "netsim.transfer"
        assert span["attributes"]["clock"] == "sim"
        # 10 MB at 1 Mbit/s = 80 simulated seconds, not wall time
        assert span["duration"] == pytest.approx(record.seconds)
        assert span["duration"] > 10.0
        assert obs.metrics.counter("netsim.wan_bytes").value == 10 * MBYTE


class TestReportingEmitter:
    def test_emitter_mirrors_into_event_log(self, obs):
        from repro.bench import reporting

        collected = []
        previous = reporting.set_emitter(reporting.Emitter(collected.append))
        try:
            reporting.emit("hello")
            assert collected == ["hello"]
            events = obs.events.events("bench.emit")
            assert events and events[0]["text"] == "hello"
        finally:
            reporting.set_emitter(previous)


@pytest.fixture(scope="module")
def portal():
    from repro import EasiaApp, build_turbulence_archive

    import tempfile

    archive = build_turbulence_archive(n_simulations=2, timesteps=2, grid=8)
    engine = archive.make_engine(tempfile.mkdtemp(prefix="obs-test-sb-"))
    app = EasiaApp(
        archive.db, archive.linker, archive.document, archive.users, engine
    )
    return app, archive


class TestWebEndpoints:
    def test_metrics_and_trace_live_after_qbe(self, portal, obs):
        app, archive = portal
        session = app.login("guest", "guest")
        response = app.get(
            "/search",
            {"table": "SIMULATION", "show_SIMULATION_KEY": "on",
             "show_TITLE": "on"},
            session_id=session,
        )
        assert response.status == 200

        metrics = app.get("/metrics", session_id=session)
        assert metrics.status == 200
        assert metrics.content_type == "text/plain"
        text = metrics.body.decode()
        assert 'http_requests_total{path="/search",status="200"} 1' in text
        assert "sql_statements_total" in text
        assert "sql_statement_cache_hits_total" in text
        assert "datalink_tokens_issued_total" in text

        trace = app.get("/trace", session_id=session)
        assert trace.status == 200
        assert "http.request" in trace.text
        assert "sql.statement" in trace.text
        # the SQL span nests under the HTTP request span
        spans = obs.tracer.snapshot()
        search = [
            s for s in spans
            if s["name"] == "http.request"
            and s["attributes"].get("path") == "/search"
        ][0]
        children = [s for s in spans if s["parent_id"] == search["span_id"]]
        assert any(s["name"] == "sql.statement" for s in children)

    def test_endpoints_require_login(self, portal):
        app, _ = portal
        assert app.get("/metrics").status in (302, 401, 403)
        assert app.get("/trace").status in (302, 401, 403)

    def test_trace_disabled_message(self, portal):
        app, _ = portal
        session = app.login("guest", "guest")
        assert not get_observability().enabled
        trace = app.get("/trace", session_id=session)
        assert "no spans recorded" in trace.text

    def test_metrics_works_without_obs_enabled(self, portal):
        app, _ = portal
        session = app.login("guest", "guest")
        metrics = app.get("/metrics", session_id=session)
        assert metrics.status == 200
        assert "sql_statement_cache_entries" in metrics.body.decode()
