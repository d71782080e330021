"""Hidden means hidden: what a personalised XUIS hides, no route shows.

Hypothesis draws one personalisation per role (guest and user): any
subset of tables and of columns hidden, column aliases, and operations
removed.  For each draw the test walks every data route — ``/query``,
``/search``, ``/table``, ``/export``, ``/browse/pk``, ``/browse/fk``,
``/lob``, ``/download``, ``/operation/form`` and ``/upload/form`` — with
parameters read from the live archive, as a guest and as a consortium
member, and checks each response:

* a request that names a hidden table or column gets a 4xx, and so does
  ``/operation/form`` or ``/operation/run`` for a removed operation;
* no response shows a hidden column's header, alias or value, nor a
  value of a hidden table's rows, and no link leads to a hidden object.

A *secret* is a value of a hidden column or table that no column the
user sees also holds (a key shared with a visible column is no secret),
and that is long enough to find in a page.  The named tests after the
property are the probes that first showed each leak.
"""

from __future__ import annotations

import html
import re
from urllib.parse import parse_qsl, urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EasiaApp, build_turbulence_archive
from repro.sqldb.types import Clob, DatalinkValue
from repro.web.render import result_rows_as_dicts
from repro.xuis import personalise

#: login per role that a personalisation applies to
ROLES = {"guest": ("guest", "guest"), "user": ("turbulence", "consortium")}
_S0 = "S19990110150000"
_A0 = "A19990110150000"


@pytest.fixture(scope="module")
def archive():
    return build_turbulence_archive(n_simulations=2, timesteps=2, grid=10)


@pytest.fixture(scope="module")
def engine(archive, tmp_path_factory):
    return archive.make_engine(str(tmp_path_factory.mktemp("visibility")))


@pytest.fixture(scope="module")
def live(archive):
    """Every stored row of every XUIS table, as colid-keyed dicts."""
    return {
        table.name: result_rows_as_dicts(
            table.name, archive.db.execute(f"SELECT * FROM {table.name}")
        )
        for table in archive.document.tables
    }


def _portal(archive, engine, profiles):
    """An app whose roles see ``profiles``' documents, and one session
    per role."""
    docs = personalise(archive.document, profiles)
    app = EasiaApp(archive.db, archive.linker, archive.document,
                   archive.users, engine, documents_by_role=docs)
    return app, {role: app.login(*ROLES[role]) for role in ROLES}


def _alias(colid: str) -> str:
    return f"[{colid}]"


def _text(value) -> str | None:
    if isinstance(value, DatalinkValue):
        return value.url
    if isinstance(value, Clob):
        return value.text
    return value if isinstance(value, str) else None


class _Sight:
    """What one XUIS document shows of the archive."""

    def __init__(self, document, live) -> None:
        self.document = document
        self.tables = {t.name for t in document.tables
                       if not t.hidden and t.visible_columns()}
        self.columns = {c.colid for t in document.tables
                        if t.name in self.tables for c in t.visible_columns()}
        hidden = [(t, c) for t in document.tables for c in t.columns
                  if c.colid not in self.columns]
        seen = {_text(row[colid]) for t in document.tables for row in live[t.name]
                for colid in self.columns if colid.startswith(t.name + ".")}
        seen.discard(None)
        self.secrets = {
            text for t, c in hidden for row in live[t.name]
            if (text := _text(row[c.colid])) is not None and len(text) >= 6
            and not any(text in shown for shown in seen)
        }
        self.secret_urls = {row[c.colid].url for t, c in hidden
                            for row in live[t.name] if c.type.is_datalink
                            and row[c.colid] is not None}
        shown_headers = {c.display_name for t in document.tables
                         if t.name in self.tables for c in t.visible_columns()}
        self.hidden_headers = {c.display_name for _t, c in hidden} - shown_headers
        self.hidden_aliases = {_alias(c.colid) for _t, c in hidden}

    def shows(self, colid: str) -> bool:
        return colid.upper() in self.columns

    def target(self, colid: str) -> str | None:
        """The colid a foreign-key column ``colid`` links to, if any."""
        table, _, column = colid.partition(".")
        fk = self.document.table(table).column(column).fk
        return fk.tablecolumn.upper() if fk is not None else None

    def check(self, path: str, params: dict, response) -> None:
        """No hidden header, alias, value, URL or link in ``response``."""
        if response.content_type in ("application/octet-stream",) or (
            response.content_type.startswith("image/")
        ):
            return
        text = response.text
        sent = {str(v) for v in params.values()}
        where = f"{path} {params}"
        for header in self.hidden_headers:
            assert f"<th>{html.escape(header)}</th>" not in text, where
        for alias in self.hidden_aliases:
            assert alias not in text, where
        for secret in self.secrets - sent:
            assert secret not in text, (where, secret)
            assert html.escape(secret) not in text, (where, secret)
        for url in re.findall(r"(?:https?|ftp)://[^\"'<>\s,]+", html.unescape(text)):
            assert DatalinkValue.parse_tokenized(url).url not in self.secret_urls
        for href in re.findall(r'href="(/[^"]*)"', text):
            self._check_link(html.unescape(href), where)
        if path == "/query" and response.ok:
            table = self.document.table(params["table"])
            for column in table.columns:
                if not self.shows(column.colid):
                    assert f'name="show_{column.name}"' not in text, where
        if path == "/export" and response.ok:
            table = params["table"]
            names = (
                [f.get("name") for f in _xml_fields(text)]
                if params.get("format") == "xml"
                else text.splitlines()[0].split(",")
            )
            for name in filter(None, names):
                assert self.shows(f"{table}.{name}"), (where, name)

    def _check_link(self, href: str, where: str) -> None:
        path, query = urlsplit(href)[2], dict(parse_qsl(urlsplit(href)[3]))
        table = query.get("name") if path == "/table" else query.get("table")
        if table is not None:
            assert table in self.tables, (where, href)
        for colid in filter(None, [query.get("colid"), query.get("ref")]):
            assert self.shows(colid), (where, href)
        if path == "/browse/fk":
            assert self.shows(self.target(query["colid"])), (where, href)
        if path == "/lob":
            assert self.shows(f"{table}.{query['column']}"), (where, href)
        owner = table or (query.get("colid") or "").partition(".")[0]
        for key in query:
            if key.startswith("key_"):
                assert self.shows(f"{owner}.{key[4:]}"), (where, href)


def _xml_fields(text: str):
    import xml.etree.ElementTree as ET

    return ET.fromstring(text.encode("utf-8")).iter("field")


def _requests(document, live):
    """``(path, params, names)`` for every data route, where ``names``
    are the colids (or bare table names) the request names.  A name of
    None marks a request that must be refused whatever is hidden."""
    for table in document.tables:
        name = table.name
        row = live[name][0]
        yield "/query", {"table": name}, [name]
        yield "/search", {"table": name}, [name]
        yield "/table", {"name": name}, [name]
        for fmt in ("csv", "xml"):
            yield "/export", {"table": name, "format": fmt}, [name]
        keys = {f"key_{c.rpartition('.')[2]}": row[c] for c in table.primary_key}
        plain = [c for c in table.columns
                 if c.colid not in table.primary_key and isinstance(row[c.colid], str)]
        for column in table.columns:
            colid, value = column.colid, row[column.colid]
            yield "/search", {"table": name, f"show_{column.name}": "on"}, [colid]
            if isinstance(value, str):
                yield "/search", {"table": name, f"val_{column.name}": value}, [colid]
                yield "/browse/pk", {"ref": colid, "value": value}, [colid]
            if column.fk is not None:
                yield ("/browse/fk", {"colid": colid, "value": value},
                       [colid, column.fk.tablecolumn])
            named = [colid, *table.primary_key]
            if column.type.is_lob:
                lob = {"table": name, "column": column.name}
                yield "/lob", {**lob, **keys}, named
                for other in plain[:1]:
                    yield ("/lob", {**lob, **keys, f"key_{other.name}": row[other.colid]},
                           [None])
            if column.type.is_datalink and value is not None:
                yield "/download", {"url": value.url}, [colid]
            for operation in column.operations[:1]:
                yield ("/operation/form",
                       {"name": operation.name, "colid": colid, **keys}, named)
            if column.upload is not None:
                yield "/upload/form", {"colid": colid, **keys}, named


def _profiles(data, document):
    """A profile per role, and the ``(colid, name)`` of the operations
    each removes."""
    tables = [t.name for t in document.tables]
    colids = [c.colid for t in document.tables for c in t.columns]
    operations = [(c.colid, o.name) for c, o in document.all_operations()]
    profiles, removed = {}, {}
    for role in ROLES:
        hide_tables = data.draw(st.sets(st.sampled_from(tables), max_size=2))
        hide_columns = data.draw(st.sets(st.sampled_from(colids), max_size=8))
        aliased = data.draw(st.sets(st.sampled_from(colids), max_size=6))
        removed[role] = data.draw(st.sets(st.sampled_from(operations), max_size=3))

        def profile(c, hide_tables=hide_tables, hide_columns=hide_columns,
                    aliased=aliased, remove=removed[role]):
            for table in hide_tables:
                c.hide_table(table)
            for colid in hide_columns:
                c.hide_column(colid)
            for colid in aliased:
                c.column_alias(colid, _alias(colid))
            for colid, name in remove:
                c.remove_operation(colid, name)
            return c

        profiles[role] = profile
    return profiles, removed


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_no_route_shows_what_the_xuis_hides(archive, engine, live, data):
    profiles, removed = _profiles(data, archive.document)
    app, sessions = _portal(archive, engine, profiles)
    for role, session in sessions.items():
        sight = _Sight(app.documents_by_role[role], live)
        for colid, name in removed[role]:
            table = sight.document.table(colid.partition(".")[0])
            row = live[table.name][0]
            params = {"name": name, "colid": colid,
                      **{f"key_{c.partition('.')[2]}": row[c]
                         for c in table.primary_key}}
            for path in ("/operation/form", "/operation/run"):
                response = app.get(path, params, session_id=session)
                assert 400 <= response.status < 500, (role, path, params)
                sight.check(path, params, response)
        for path, params, names in _requests(sight.document, live):
            response = app.get(path, params, session_id=session)
            named_hidden = [
                n for n in names if n is None
                or not (sight.shows(n) if "." in n else n in sight.tables)
            ]
            where = (role, path, params, response.text[:200])
            if named_hidden:
                assert 400 <= response.status < 500, where
            elif path in ("/query", "/search", "/table", "/export"):
                if len(params) <= 2:
                    assert response.status == 200, where
            sight.check(path, params, response)


# -- the probes that first showed each leak ------------------------------------


def _guest(archive, engine, profile):
    app, sessions = _portal(archive, engine, {"guest": profile})
    return app, sessions["guest"]


def test_browse_fk_omits_a_hidden_column(archive, engine):
    app, guest = _guest(archive, engine, lambda c: c.hide_column("AUTHOR.EMAIL"))
    response = app.get("/browse/fk", {"colid": "SIMULATION.AUTHOR_KEY",
                                      "value": _A0}, session_id=guest)
    assert response.status == 200
    assert "Mark Papiani" in response.text
    assert "<th>Email</th>" not in response.text
    assert "papiani@computer.org" not in response.text


def test_browse_pk_refuses_a_hidden_table(archive, engine):
    app, guest = _guest(archive, engine, lambda c: c.hide_table("RESULT_FILE"))
    response = app.get("/browse/pk", {"ref": "RESULT_FILE.SIMULATION_KEY",
                                      "value": _S0}, session_id=guest)
    assert 400 <= response.status < 500
    assert "ts0000.turb" not in response.text


def test_hidden_table_gives_no_fk_substitute_or_link(archive, engine):
    app, guest = _guest(archive, engine, lambda c: c.hide_table("AUTHOR"))
    page = app.get("/search", {"table": "SIMULATION"}, session_id=guest)
    assert page.status == 200
    assert _A0 in page.text
    assert "Mark Papiani" not in page.text
    assert "/browse/fk?colid=SIMULATION.AUTHOR_KEY" not in page.text
    browse = app.get("/browse/fk", {"colid": "SIMULATION.AUTHOR_KEY",
                                    "value": _A0}, session_id=guest)
    assert 400 <= browse.status < 500
    assert "Mark Papiani" not in browse.text


def test_hidden_table_gives_no_pk_browse_link(archive, engine):
    app, guest = _guest(archive, engine, lambda c: c.hide_table("CODE_FILE"))
    page = app.get("/table", {"name": "SIMULATION"}, session_id=guest)
    assert page.status == 200
    assert "ref=RESULT_FILE.SIMULATION_KEY" in page.text
    assert "ref=CODE_FILE.SIMULATION_KEY" not in page.text


@pytest.mark.parametrize("ref", [
    "AUTHOR.AUTHOR_KEY = 0 OR 1 = 1 OR AUTHOR_KEY",
    "AUTHOR.GHOST",
    "GHOST.AUTHOR_KEY",
    "AUTHOR.EMAIL",
])
def test_browse_pk_ref_must_name_a_visible_column(archive, engine, ref):
    app, guest = _guest(archive, engine, lambda c: c.hide_column("AUTHOR.EMAIL"))
    response = app.get("/browse/pk", {"ref": ref, "value": "x"},
                       session_id=guest)
    assert 400 <= response.status < 500
    for secret in ("Mark Papiani", "Kenji Takeda", "papiani@computer.org"):
        assert secret not in response.text


def test_lob_keys_are_no_oracle_for_a_hidden_column(archive, engine):
    app, guest = _guest(archive, engine, lambda c: c.hide_column("AUTHOR.EMAIL"))
    answers = {
        guess: app.get("/lob", {"table": "AUTHOR", "column": "NAME",
                                "key_EMAIL": guess}, session_id=guest)
        for guess in ("papiani@computer.org", "nobody@example.org")
    }
    right, wrong = answers.values()
    assert 400 <= right.status < 500
    assert (right.status, right.text) == (wrong.status, wrong.text)


@pytest.mark.parametrize("key", ["key_FORMAT", "key_SIMULATION_KEY"])
def test_lob_keys_name_only_the_visible_primary_key(archive, engine, key):
    app, guest = _guest(archive, engine,
                        lambda c: c.hide_column("VISUALISATION_FILE.FORMAT"))
    params = {"table": "VISUALISATION_FILE", "column": "PREVIEW",
              "key_VIS_NAME": "overview.pgm"}
    assert app.get("/lob", params, session_id=guest).status == 200
    refused = app.get("/lob", {**params, key: "x"}, session_id=guest)
    assert refused.status == 400
    assert "must name the VISUALISATION_FILE key" in refused.text


def test_operations_refuse_a_hidden_table(archive, engine):
    app, guest = _guest(archive, engine, lambda c: c.hide_table("RESULT_FILE"))
    params = {"name": "GetImage", "colid": "RESULT_FILE.DOWNLOAD_RESULT",
              "key_FILE_NAME": "ts0000.turb", "key_SIMULATION_KEY": _S0}
    for path in ("/operation/form", "/operation/run", "/upload/form"):
        response = app.get(path, {**params, "slice": "x1", "type": "u"},
                           session_id=guest)
        assert 400 <= response.status < 500, path


def test_download_without_token_refuses_a_hidden_table(archive, engine, live):
    app, sessions = _portal(archive, engine,
                            {"user": lambda c: c.hide_table("RESULT_FILE")})
    url = live["RESULT_FILE"][0]["RESULT_FILE.DOWNLOAD_RESULT"].url
    assert app.get("/download", {"url": url},
                   session_id=sessions["user"]).status == 404
    missing = url.replace("ts0000", "ts9999")
    assert app.get("/download", {"url": missing},
                   session_id=sessions["guest"]).status == 403
    code_url = live["CODE_FILE"][0]["CODE_FILE.DOWNLOAD_CODE_FILE"].url
    assert app.get("/download", {"url": code_url},
                   session_id=sessions["user"]).status == 200


def test_download_without_token_of_an_unknown_url_is_404(archive, engine, live):
    app, sessions = _portal(archive, engine, {})
    url = live["RESULT_FILE"][0]["RESULT_FILE.DOWNLOAD_RESULT"].url
    missing = url.replace("ts0000", "ts9999")
    assert app.get("/download", {"url": missing},
                   session_id=sessions["user"]).status == 404


# -- operations and uploads per role: the user's column is the authority -------


_RESULT = {"colid": "RESULT_FILE.DOWNLOAD_RESULT", "key_FILE_NAME": "ts0000.turb",
           "key_SIMULATION_KEY": _S0}


def test_user_cannot_run_an_operation_their_xuis_removed(archive, engine):
    app, sessions = _portal(archive, engine, {
        "user": lambda c: c.remove_operation(_RESULT["colid"], "FieldStats"),
    })
    user = sessions["user"]
    page = app.get("/browse/pk", {"ref": "RESULT_FILE.SIMULATION_KEY",
                                  "value": _S0}, session_id=user)
    assert page.status == 200
    assert "name=FieldStats" not in page.text
    for path in ("/operation/form", "/operation/run"):
        response = app.get(path, {"name": "FieldStats", **_RESULT}, session_id=user)
        assert 400 <= response.status < 500, path
    # the operation the user's column still lists runs
    run = app.get("/operation/run", {"name": "Vorticity", "slice": "x1", **_RESULT},
                  session_id=user)
    assert run.status == 200


def test_guest_cannot_run_an_operation_their_xuis_removed(archive, engine):
    app, sessions = _portal(archive, engine, {
        "guest": lambda c: c.remove_operation(_RESULT["colid"], "GetImage"),
    })
    response = app.get("/operation/run",
                       {"name": "GetImage", "slice": "x1", "type": "u", **_RESULT},
                       session_id=sessions["guest"])
    assert 400 <= response.status < 500
    assert not response.content_type.startswith("image/")


def test_user_cannot_upload_where_their_xuis_offers_no_upload(archive, engine):
    from repro.operations import pack_code_archive

    app, sessions = _portal(archive, engine, {"user": lambda c: c})
    app.documents_by_role["user"].column(_RESULT["colid"]).upload = None
    code = pack_code_archive({"Size.py": b"open('n.txt', 'w').write('1')\n"})
    run = app.post("/upload/run", {"class": "Size", **_RESULT},
                   session_id=sessions["user"], files={"archive": code})
    assert 400 <= run.status < 500
    form = app.get("/upload/form", _RESULT, session_id=sessions["user"])
    assert 400 <= form.status < 500
