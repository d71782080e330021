"""``/metrics`` is one registry rendered as valid Prometheus text.

Every line must match a strict grammar, every series must appear once,
the component counters the app binds as pull instruments must equal the
components' own attributes (also when ``repro.obs.enable()`` comes after
the app was built), unknown paths must not grow the registry, and the
``repro obs`` CLI must print the same exposition.
"""

import re

import pytest

import repro.obs as obs_mod
from repro.obs import Observability, set_observability

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"'
_VALUE = r"[+-]?(?:\d+(?:\.\d*)?(?:e[+-]?\d+)?|Inf)|NaN"
_SAMPLE = re.compile(rf"({_NAME})(\{{{_LABEL}(?:,{_LABEL})*\}})? ({_VALUE})")
_TYPE = re.compile(rf"# TYPE ({_NAME}) (counter|gauge|summary)")


def parse_exposition(text: str) -> dict[tuple[str, str], float]:
    """``{(sample name, label text): value}`` for every sample line.

    Fails on a line outside the grammar, a sample that does not belong to
    the family of the ``# TYPE`` line above it, a family typed twice, a
    counter not ending in ``_total``, or a series that appears twice.
    """
    assert text.endswith("\n")
    types: dict[str, str] = {}
    family = None
    samples: dict[tuple[str, str], float] = {}
    for line in text.splitlines():
        typed = _TYPE.fullmatch(line)
        if typed:
            family, kind = typed.groups()
            assert family not in types, f"family typed twice: {line!r}"
            assert kind != "counter" or family.endswith("_total"), line
            types[family] = kind
            continue
        sample = _SAMPLE.fullmatch(line)
        assert sample, f"not a valid exposition line: {line!r}"
        name, labels, value = sample.groups()
        labels = labels or ""
        if types.get(family) == "summary":
            assert name in (family, f"{family}_sum", f"{family}_count"), line
            assert (name == family) == ('quantile="' in labels), line
        else:
            assert name == family, f"sample outside its family: {line!r}"
        assert (name, labels) not in samples, f"series repeated: {line!r}"
        samples[name, labels] = float(value)
    return samples


@pytest.fixture
def portal(tmp_path):
    """A replicated archive behind the portal, plus a user session and a
    DATALINK URL to download."""
    from repro import EasiaApp
    from repro.turbulence import build_turbulence_archive

    archive = build_turbulence_archive(
        n_simulations=1, timesteps=2, grid=8, replication_factor=2
    )
    engine = archive.make_engine(str(tmp_path))
    app = EasiaApp(
        archive.db, archive.linker, archive.document, archive.users, engine
    )
    session = app.login("turbulence", "consortium")
    url = archive.db.execute("SELECT DOWNLOAD_RESULT FROM RESULT_FILE").scalar().url
    return archive, app, session, url


def _exercise(app, session, url):
    app.get(
        "/search", {"table": "SIMULATION", "show_TITLE": "on"},
        session_id=session,
    )
    assert app.get("/download", {"url": url}, session_id=session).status == 200


def _metrics(app, session):
    response = app.get("/metrics", session_id=session)
    assert response.status == 200
    return parse_exposition(response.text)


class TestGrammar:
    def test_parser_rejects_the_old_hand_formatted_lines(self):
        for text in (
            "datalink.tokens_issued.total 3\n",
            'replication_lag{set=fs1} 0\n',
            "# TYPE c counter\nc 1\n",
            "# TYPE g gauge\ng 1\ng 2\n",
        ):
            with pytest.raises(AssertionError):
                parse_exposition(text)


class TestOneSeriesEach:
    @pytest.mark.parametrize("enabled", [False, True])
    def test_every_series_once_on_a_replicated_archive(self, portal, enabled):
        archive, app, session, url = portal
        previous = set_observability(Observability(enabled=enabled))
        try:
            _exercise(app, session, url)
            samples = _metrics(app, session)
        finally:
            set_observability(previous)
        names = {name for name, _labels in samples}
        for rs in archive.servers:
            label = f'{{set="{rs.host}"}}'
            for name in ("replication_queue_depth", "replication_lag",
                         "replication_replicas_up",
                         "replication_failovers_total"):
                assert (name, label) in samples
            for replica in rs.replicas:
                label = f'{{host="{replica.host}"}}'
                assert ("fileserver_requests_total", label) in samples
        assert "sql_statement_cache_hits_total" in names
        assert "datalink_tokens_issued_total" in names
        # per-event pushes only while enabled
        assert ("http_requests_total" in names) is enabled
        assert ("sql_statement_seconds_count" in names) is enabled

    def test_bound_totals_equal_component_attributes(self, portal):
        archive, app, session, url = portal
        _exercise(app, session, url)  # counted before obs is enabled
        previous = set_observability(None)
        handle = obs_mod.enable()
        try:
            replica_set = archive.servers[0]
            replica_set.kill(replica_set.primary.host)
            _exercise(app, session, url)
            samples = _metrics(app, session)
        finally:
            set_observability(previous)
        assert samples["http_requests_total", '{path="/download",status="200"}'] == 1

        linker, db = archive.linker, archive.db
        expected = {
            ("datalink_tokens_issued_total", ""): linker.tokens.issued_count,
            ("datalink_tokens_validated_total", ""): linker.tokens.validated_count,
            ("datalink_links_applied_total", ""): linker.links_applied,
            ("sql_statement_cache_hits_total", ""): db.statement_cache_hits,
            ("sql_statement_cache_misses_total", ""): db.statement_cache_misses,
            ("operation_cache_hits_total", ""): app.engine.cache.hits,
        }
        for rs in archive.servers:
            expected["replication_failovers_total", f'{{set="{rs.host}"}}'] = (
                rs.failovers
            )
            for replica in rs.replicas:
                label = f'{{host="{replica.host}"}}'
                expected["fileserver_requests_total", label] = replica.server.requests
                expected["fileserver_bytes_served_total", label] = (
                    replica.server.bytes_served
                )
        for series, value in expected.items():
            assert samples[series] == value, series
        # the counts span both phases, not just the enabled one
        assert linker.tokens.issued_count >= 2
        assert replica_set.failovers >= 1
        assert sum(r.server.requests for r in replica_set.replicas) >= 2
        # the statement-cache counters are read, not written per statement
        assert handle.metrics.counter("sql.statement_cache.hits").value == (
            db.statement_cache_hits
        )


class TestBoundedLabels:
    def test_unknown_paths_share_one_series(self, portal):
        _archive, app, session, _url = portal
        previous = set_observability(Observability(enabled=True))
        try:
            app.get("/", session_id=session)
            before = _metrics(app, session)
            for i in range(1000):
                assert app.get(f"/no/such/page/{i}").status == 404
            after = _metrics(app, session)
        finally:
            set_observability(previous)
        for family in ("http_requests_total", "http_request_seconds_count"):
            grown = [
                labels for name, labels in after
                if name == family and (name, labels) not in before
            ]
            # the unmatched series, plus the first /metrics request itself
            assert len(grown) <= 2, grown
            assert sum(1 for labels in grown if "unmatched" in labels) == 1
        assert after[
            "http_requests_total", '{path="(unmatched)",status="404"}'
        ] == 1000


class TestObsCli:
    def test_obs_command_prints_one_valid_exposition(self, capsys):
        from repro.cli import main

        previous = set_observability(None)
        try:
            assert main([
                "obs", "--simulations", "1", "--timesteps", "1", "--grid", "8",
                "--spans", "5",
            ]) == 0
        finally:
            set_observability(previous)
        out = capsys.readouterr().out
        metrics = out.split("=== metrics ===\n", 1)[1].split("\n\n=== slow", 1)[0]
        samples = parse_exposition(metrics + "\n")
        assert ("sql_statement_cache_hits_total", "") in samples
        assert ("sql_statement_cache_misses_total", "") in samples
        spans = out.split("=== spans (", 1)[1]
        recorded = int(spans.split(" ", 1)[0])
        assert recorded > 0
        assert len(spans.strip().splitlines()) > 1
