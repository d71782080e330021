"""The ``/search`` result page as a whole: what it costs in statements,
how an explicit ``limit`` and the pages agree, and the HTML of every
portal page kind against a golden copy.

The golden copy (``tests/golden/portal_pages.json``) holds each page of
:data:`PAGES` rendered over a fixed archive with a fixed clock, DATALINK
access tokens masked.  Re-record it only from a commit whose HTML is the
reference::

    PYTHONPATH=src python -m tests.test_search_page
"""

from __future__ import annotations

import json
import re
import tempfile
from pathlib import Path

import pytest

from repro import EasiaApp, build_turbulence_archive

GOLDEN = Path(__file__).parent / "golden" / "portal_pages.json"

_S0, _S1 = "S19990110150000", "S19990110150001"
_RF_KEY = {"key_FILE_NAME": "ts0001.turb", "key_SIMULATION_KEY": _S1}

#: (name, user, path, params): one entry per portal page kind, for a
#: guest and for a consortium member (who sees more operation links)
PAGES = [
    (f"{user}:{name}", user, path, params)
    for user in ("guest", "turbulence")
    for name, path, params in [
        ("home", "/", {}),
        ("query-simulation", "/query", {"table": "SIMULATION"}),
        ("query-result-file", "/query", {"table": "RESULT_FILE"}),
        ("search-result-file", "/search", {"table": "RESULT_FILE"}),
        ("search-result-file-page-2", "/search",
         {"table": "RESULT_FILE", "page": "2", "page_size": "4"}),
        ("search-result-file-timestep", "/search",
         {"table": "RESULT_FILE", "val_TIMESTEP": "1",
          "show_FILE_NAME": "on", "show_DOWNLOAD_RESULT": "on"}),
        ("search-result-file-desc", "/search",
         {"table": "RESULT_FILE", "order_by": "FILE_SIZE",
          "order_dir": "desc", "page_size": "5"}),
        ("search-result-file-limit", "/search",
         {"table": "RESULT_FILE", "limit": "3"}),
        ("search-result-file-no-operations", "/search",
         {"table": "RESULT_FILE", "show_FILE_NAME": "on",
          "show_TIMESTEP": "on"}),
        ("search-simulation", "/search", {"table": "SIMULATION"}),
        ("search-simulation-like", "/search",
         {"table": "SIMULATION", "op_TITLE": "LIKE", "val_TITLE": "%a%",
          "show_TITLE": "on", "show_AUTHOR_KEY": "on"}),
        ("search-simulation-pk", "/search",
         {"table": "SIMULATION", "val_SIMULATION_KEY": _S0}),
        ("search-author", "/search", {"table": "AUTHOR"}),
        ("search-code-file", "/search", {"table": "CODE_FILE"}),
        ("search-visualisation", "/search", {"table": "VISUALISATION_FILE"}),
        ("search-empty", "/search",
         {"table": "RESULT_FILE", "val_TIMESTEP": "99"}),
        ("table-result-file", "/table", {"name": "RESULT_FILE"}),
        ("table-simulation-limit", "/table",
         {"name": "SIMULATION", "limit": "2"}),
        ("table-visualisation", "/table", {"name": "VISUALISATION_FILE"}),
        ("browse-fk", "/browse/fk",
         {"colid": "RESULT_FILE.SIMULATION_KEY", "value": _S1}),
        ("browse-fk-author", "/browse/fk",
         {"colid": "SIMULATION.AUTHOR_KEY", "value": "A19990110150001"}),
        ("browse-pk", "/browse/pk",
         {"ref": "RESULT_FILE.SIMULATION_KEY", "value": _S0}),
        ("operation-form", "/operation/form",
         {"name": "Subsample", "colid": "RESULT_FILE.DOWNLOAD_RESULT",
          **_RF_KEY}),
        ("upload-form", "/upload/form",
         {"colid": "RESULT_FILE.DOWNLOAD_RESULT", **_RF_KEY}),
        ("export-csv", "/export",
         {"table": "RESULT_FILE", "format": "csv", "val_TIMESTEP": "2"}),
        ("export-xml", "/export", {"table": "SIMULATION", "format": "xml"}),
        ("stats", "/stats", {}),
    ]
]

_PASSWORDS = {"guest": "guest", "turbulence": "consortium"}

#: the access token inside a tokenized DATALINK URL (``.../<token>;file``)
_TOKEN = re.compile(r'(class="datalink" href="[^"]*/)[^/";]+;')


def make_app(sandbox: str) -> EasiaApp:
    """The fixed deployment the golden pages are rendered from."""
    archive = build_turbulence_archive(
        n_simulations=3, timesteps=3, grid=8, time_source=lambda: 1000.0,
    )
    # rows that only some XUIS conditions accept, and a NULL to sort
    db = archive.db
    db.execute("UPDATE RESULT_FILE SET FILE_FORMAT = 'HDF5' "
               "WHERE FILE_NAME = 'ts0002.turb' AND SIMULATION_KEY = ?", (_S0,))
    db.execute("UPDATE RESULT_FILE SET MEASUREMENT = 'p' "
               "WHERE FILE_NAME = 'ts0001.turb' AND SIMULATION_KEY = ?", (_S0,))
    db.execute("UPDATE RESULT_FILE SET FILE_SIZE = NULL "
               "WHERE FILE_NAME = 'ts0000.turb' AND SIMULATION_KEY = ?", (_S1,))
    engine = archive.make_engine(sandbox)
    return EasiaApp(
        archive.db, archive.linker, archive.document, archive.users, engine
    )


def render_pages(app: EasiaApp) -> dict[str, str]:
    """Every page of :data:`PAGES` as ``status content-type body``, with
    DATALINK tokens masked."""
    sessions = {user: app.login(user, pw) for user, pw in _PASSWORDS.items()}
    out = {}
    for name, user, path, params in PAGES:
        response = app.get(path, dict(params), session_id=sessions[user])
        body = response.body
        text = body if isinstance(body, str) else body.decode("utf-8")
        text = _TOKEN.sub(r"\1TOKEN;", text)
        out[name] = f"{response.status} {response.content_type}\n{text}"
    return out


@pytest.fixture(scope="module")
def app(tmp_path_factory):
    return make_app(str(tmp_path_factory.mktemp("search-page-sandbox")))


@pytest.fixture(scope="module")
def guest(app):
    return app.login("guest", "guest")


class TestGoldenPages:
    def test_every_page_kind_matches_the_golden_copy(self, app):
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        pages = render_pages(app)
        assert sorted(pages) == sorted(golden)
        for name, text in pages.items():
            assert text == golden[name], name

    def test_pages_render_datalinks_and_operations(self):
        # guards the golden copy itself: it was recorded from pages that
        # carry every kind of link the result table renders
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        page = golden["turbulence:search-result-file"]
        for marker in ('class="datalink"', 'class="operation"',
                       'class="upload"', 'class="fk"', "TOKEN;"):
            assert marker in page
        assert 'class="lob"' in golden["guest:search-visualisation"]
        assert 'class="pk"' in golden["guest:search-simulation"]


class TestOneStatementPerPage:
    def _statements(self, app, guest, params) -> tuple[int, str]:
        stats = app.db.statement_cache_stats
        before = stats["hits"] + stats["misses"]
        text = app.get("/search", params, session_id=guest).text
        stats = app.db.statement_cache_stats
        return stats["hits"] + stats["misses"] - before, text

    def test_result_file_page_is_one_statement(self, app, guest):
        # RESULT_FILE has no FK substitute column: the page query alone
        # supplies both the rows and the pagination total
        count, text = self._statements(
            app, guest,
            {"table": "RESULT_FILE", "page": "2", "page_size": "3"},
        )
        assert "page 2 of 3 (9 rows)" in text
        assert "3 row(s)" in text
        assert count == 1

    def test_restricted_page_is_one_statement(self, app, guest):
        count, text = self._statements(
            app, guest, {"table": "RESULT_FILE", "val_TIMESTEP": "1"},
        )
        assert "3 row(s)" in text
        assert count == 1

    def test_table_without_queryable_columns_is_refused(self, tmp_path):
        # with nothing to order by there is no page to count; the search
        # is refused instead of selecting the hidden columns
        hidden_app = make_app(str(tmp_path))
        for column in hidden_app.document.table("AUTHOR").columns:
            column.hidden = True
        response = hidden_app.get(
            "/search", {"table": "AUTHOR"},
            session_id=hidden_app.login("guest", "guest"),
        )
        assert response.status == 400
        assert "Papiani" not in response.text


def _row_keys(text: str) -> list[str]:
    """(FILE_NAME, SIMULATION_KEY) of each rendered RESULT_FILE row."""
    return re.findall(
        r"<tr><td>(ts\d{4}\.turb)</td><td><a class=\"fk\" "
        r"href=\"[^\"]*value=(S\d+)\"",
        text,
    )


class TestExplicitLimit:
    """``limit`` caps the rows a search can reach; ``page``/``page_size``
    page through at most that many."""

    def _page(self, app, guest, page, limit="5", page_size="2"):
        return app.get(
            "/search",
            {"table": "RESULT_FILE", "limit": limit, "page": str(page),
             "page_size": page_size},
            session_id=guest,
        ).text

    def test_pages_under_a_limit_are_disjoint(self, app, guest):
        pages = [_row_keys(self._page(app, guest, n)) for n in (1, 2, 3, 4)]
        assert [len(p) for p in pages] == [2, 2, 1, 0]
        seen = [key for page in pages for key in page]
        assert len(seen) == len(set(seen)) == 5

    def test_footer_counts_only_reachable_rows(self, app, guest):
        assert "page 2 of 3 (5 rows)" in self._page(app, guest, 2)

    def test_limit_above_the_match_keeps_the_match_total(self, app, guest):
        text = self._page(app, guest, 1, limit="100", page_size="4")
        assert "page 1 of 3 (9 rows)" in text

    def test_limit_within_one_page_has_no_footer(self, app, guest):
        text = self._page(app, guest, 1, limit="3", page_size="50")
        assert "3 row(s)" in text
        assert "page 1 of" not in text


class TestIndexOrderedPage:
    """The RESULT_FILE page of one timestep reads only the rows it shows:
    ``RESULT_FILE_BY_TIMESTEP`` (TIMESTEP, FILE_NAME) holds them in page
    order, and its range's length is the page total."""

    def _page_sql(self, app, guest, monkeypatch, params):
        """The statement the ``/search`` page runs, and its page text."""
        db = app.db
        seen = []
        execute = db.execute

        def recording(sql, sql_params=()):
            seen.append((sql, sql_params))
            return execute(sql, sql_params)

        monkeypatch.setattr(db, "execute", recording)
        text = app.get("/search", params, session_id=guest).text
        monkeypatch.undo()
        (sql, sql_params), = [s for s in seen if "FROM RESULT_FILE" in s[0]]
        return sql, sql_params, text

    def test_explain_names_the_index_ordered_path(self, app, guest,
                                                  monkeypatch):
        sql, params, text = self._page_sql(
            app, guest, monkeypatch,
            {"table": "RESULT_FILE", "val_TIMESTEP": "1", "page": "2",
             "page_size": "2"},
        )
        plan = app.db.explain(sql, params)
        assert "index-ordered scan RESULT_FILE via RESULT_FILE_BY_TIMESTEP" in plan
        assert "counted from the range" in plan
        assert "sort" not in plan
        assert "page 2 of 2 (3 rows)" in text

    def test_page_reads_at_most_offset_plus_limit_rows(self, app, guest,
                                                       monkeypatch):
        sql, params, _text = self._page_sql(
            app, guest, monkeypatch,
            {"table": "RESULT_FILE", "val_TIMESTEP": "2", "page_size": "2"},
        )
        conn = app.db._connection()
        before = conn.rows_scanned
        result = app.db.execute(sql, params)
        assert conn.rows_scanned - before <= 2  # offset 0 + limit 2
        assert result.matched_rows == 3

    def test_pages_match_the_scan_path(self, app, guest):
        # the same pages with the index dropped: scan, filter and sort
        pages = [
            {"table": "RESULT_FILE", "val_TIMESTEP": str(t), "page": str(p),
             "page_size": "2"}
            for t in range(3) for p in (1, 2)
        ]
        ordered = [app.get("/search", dict(p), session_id=guest).text
                   for p in pages]
        app.db.execute("DROP INDEX RESULT_FILE_BY_TIMESTEP")
        try:
            scanned = [app.get("/search", dict(p), session_id=guest).text
                       for p in pages]
        finally:
            app.db.execute("CREATE INDEX RESULT_FILE_BY_TIMESTEP "
                           "ON RESULT_FILE (TIMESTEP, FILE_NAME)")
        masked = [[_TOKEN.sub(r"\1TOKEN;", t) for t in texts]
                  for texts in (ordered, scanned)]
        assert masked[0] == masked[1]


class TestFormsIssueNoToken:
    """The form routes check that the ``key_`` parameters name one row
    without reading its DATALINK, so they issue no access token."""

    _FORM = {"colid": "RESULT_FILE.DOWNLOAD_RESULT", **_RF_KEY}

    def test_form_routes_issue_no_token(self, app):
        session = app.login("turbulence", "consortium")
        tokens = app.linker.tokens
        before = tokens.issued_count
        form = app.get("/operation/form", {"name": "Subsample", **self._FORM},
                       session_id=session)
        upload = app.get("/upload/form", dict(self._FORM), session_id=session)
        assert (form.status, upload.status) == (200, 200)
        assert tokens.issued_count == before

    def test_form_routes_still_refuse_a_missing_row(self, app):
        session = app.login("turbulence", "consortium")
        params = {"colid": "RESULT_FILE.DOWNLOAD_RESULT",
                  "key_FILE_NAME": "absent.turb", "key_SIMULATION_KEY": _S1}
        for path, extra in (("/operation/form", {"name": "Subsample"}),
                            ("/upload/form", {})):
            response = app.get(path, {**params, **extra}, session_id=session)
            assert response.status == 400
            assert "matched 0 rows" in response.text

    def test_operation_run_issues_its_token(self, app):
        session = app.login("turbulence", "consortium")
        tokens = app.linker.tokens
        before = tokens.issued_count
        response = app.get(
            "/operation/run",
            {"name": "Subsample", "factor": "2", **self._FORM},
            session_id=session,
        )
        assert response.status == 200
        assert tokens.issued_count > before


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as sandbox:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(
            json.dumps(render_pages(make_app(sandbox)), indent=1,
                       sort_keys=True) + "\n",
            encoding="utf-8",
        )
