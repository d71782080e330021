"""Tests for the web layer: servlet container, auth, QBE, forms, rendering,
and the assembled EASIA application."""

import pytest

from repro.errors import (
    AuthenticationError,
    AuthorizationError,
    WebError,
)
from repro.operations import pack_code_archive
from repro.turbulence import build_turbulence_archive
from repro.web import (
    EasiaApp,
    QbeQuery,
    Request,
    Response,
    Restriction,
    ServletContainer,
    User,
    UserManager,
    build_query_from_params,
    escape,
    render_operation_form,
    render_query_form,
)


class TestHttpSubstrate:
    def test_escape(self):
        assert escape('<a b="c">') == "&lt;a b=&quot;c&quot;&gt;"

    def test_response_helpers(self):
        assert Response.html("<p>x</p>").content_type == "text/html"
        assert Response.redirect("/x").status == 302
        assert Response.error("bad", 404).status == 404
        assert Response.data(b"\x00", "image/png").body == b"\x00"

    def test_container_routing(self):
        container = ServletContainer()
        container.register("/hello", lambda req: Response.html("hi"))
        assert container.dispatch("/hello").text == "hi"
        assert container.dispatch("/missing").status == 404

    def test_duplicate_route_rejected(self):
        container = ServletContainer()
        container.register("/a", lambda req: Response.html(""))
        with pytest.raises(WebError):
            container.register("/a", lambda req: Response.html(""))

    def test_errors_become_responses(self):
        container = ServletContainer()

        def boom(request):
            raise AuthorizationError("nope")

        container.register("/secure", boom)
        assert container.dispatch("/secure").status == 403

    def test_sessions(self):
        container = ServletContainer()
        session = container.sessions.create()
        session["k"] = "v"
        assert container.sessions.get(session.session_id)["k"] == "v"
        container.sessions.invalidate(session.session_id)
        assert container.sessions.get(session.session_id) is None

    def test_request_params(self):
        request = Request("/p", {"a": "1"})
        assert request.param("a") == "1"
        assert request.param("b", "d") == "d"
        with pytest.raises(WebError):
            request.require_param("missing")

    def test_request_requires_user(self):
        with pytest.raises(AuthenticationError):
            Request("/p").require_user()


class TestAuth:
    def test_password_check(self):
        user = User("alice", "secret")
        assert user.check_password("secret")
        assert not user.check_password("wrong")

    def test_set_password(self):
        user = User("alice", "old")
        user.set_password("new")
        assert user.check_password("new")
        assert not user.check_password("old")

    def test_roles_and_capabilities(self):
        guest = User("g", "g", role="guest")
        normal = User("u", "u", role="user")
        admin = User("a", "a", role="admin")
        assert guest.is_guest and not guest.can_download
        assert not guest.can_upload_code
        assert normal.can_download and normal.can_upload_code
        assert not normal.can_manage_users
        assert admin.can_manage_users

    def test_guest_operation_gate(self):
        from repro.xuis import OperationSpec, UrlLocation

        guest = User("g", "g", role="guest")
        open_op = OperationSpec("A", guest_access=True, location=UrlLocation("u"))
        closed_op = OperationSpec("B", guest_access=False, location=UrlLocation("u"))
        assert guest.can_run_operation(open_op)
        assert not guest.can_run_operation(closed_op)
        assert User("u", "u").can_run_operation(closed_op)

    def test_unknown_role(self):
        with pytest.raises(AuthorizationError):
            User("x", "x", role="root")

    def test_manager_defaults_guest(self):
        users = UserManager()
        assert users.authenticate("guest", "guest").is_guest

    def test_manager_add_duplicate(self):
        users = UserManager()
        users.add_user("a", "pw")
        with pytest.raises(AuthorizationError):
            users.add_user("a", "pw")

    def test_manager_bad_credentials(self):
        users = UserManager()
        with pytest.raises(AuthenticationError):
            users.authenticate("guest", "wrong")
        with pytest.raises(AuthenticationError):
            users.authenticate("nobody", "x")

    def test_guest_account_protected(self):
        users = UserManager()
        with pytest.raises(AuthorizationError):
            users.remove_user("guest")
        with pytest.raises(AuthorizationError):
            users.set_role("guest", "admin")

    def test_set_role(self):
        users = UserManager()
        users.add_user("a", "pw")
        users.set_role("a", "admin")
        assert users.user("a").can_manage_users


class TestQbe:
    def test_restriction_wildcard_promotion(self):
        assert Restriction("T.A", "=", "Mark%").normalised_op() == "LIKE"
        assert Restriction("T.A", "=", "Mark").normalised_op() == "="
        assert Restriction("T.A", "<", "5%").normalised_op() == "<"

    def test_bad_operator(self):
        with pytest.raises(WebError):
            Restriction("T.A", "~", "x")

    def test_to_sql_shapes(self):
        query = QbeQuery(
            "SIMULATION",
            fields=["SIMULATION.TITLE"],
            restrictions=[Restriction("SIMULATION.GRID_SIZE", ">", 64)],
            order_by="SIMULATION.TITLE",
            limit=10,
        )
        sql, params = query.to_sql()
        assert sql == (
            "SELECT SIMULATION.TITLE FROM SIMULATION "
            "WHERE SIMULATION.GRID_SIZE > ? "
            "ORDER BY SIMULATION.TITLE LIMIT 10"
        )
        assert params == (64,)

    def test_to_sql_all_fields_without_xuis(self):
        sql, params = QbeQuery("T").to_sql()
        assert sql == "SELECT * FROM T"

    def test_descending_order(self):
        sql, _ = QbeQuery("T", order_by="T.A", descending=True).to_sql()
        assert sql.endswith("ORDER BY T.A DESC")

    def test_build_from_form_params(self):
        query = build_query_from_params(
            "simulation",
            {
                "show_TITLE": "on",
                "show_GRID_SIZE": "on",
                "val_GRID_SIZE": "128",
                "op_GRID_SIZE": ">=",
                "val_TITLE": "",
                "order_by": "GRID_SIZE",
                "order_dir": "desc",
                "limit": "5",
            },
        )
        assert set(query.fields) == {"SIMULATION.TITLE", "SIMULATION.GRID_SIZE"}
        assert len(query.restrictions) == 1
        assert query.restrictions[0].op == ">="
        assert query.order_by == "SIMULATION.GRID_SIZE"
        assert query.descending and query.limit == 5


@pytest.fixture(scope="module")
def archive():
    return build_turbulence_archive(n_simulations=2, timesteps=2, grid=10)


@pytest.fixture(scope="module")
def app(archive, tmp_path_factory):
    engine = archive.make_engine(str(tmp_path_factory.mktemp("sandbox")))
    return EasiaApp(
        archive.db, archive.linker, archive.document, archive.users, engine
    )


@pytest.fixture(scope="module")
def guest_session(app):
    return app.login("guest", "guest")


@pytest.fixture(scope="module")
def user_session(app):
    return app.login("turbulence", "consortium")


RESULT_KEY = {
    "key_FILE_NAME": "ts0000.turb",
    "key_SIMULATION_KEY": "S19990110150000",
}


class TestQbeValidationAgainstXuis:
    def test_hidden_column_not_queryable(self, archive):
        from repro.xuis import Customizer

        doc = Customizer(archive.document).hide_column("AUTHOR.EMAIL").document
        query = QbeQuery("AUTHOR", fields=["AUTHOR.EMAIL"])
        with pytest.raises(WebError):
            query.to_sql(doc.table("AUTHOR").visible_columns())

    def test_unknown_restriction_rejected(self, archive):
        query = QbeQuery(
            "AUTHOR", restrictions=[Restriction("AUTHOR.GHOST", "=", 1)]
        )
        with pytest.raises(WebError):
            query.to_sql(archive.document.table("AUTHOR").visible_columns())


class TestForms:
    def test_query_form_contents(self, archive):
        html = render_query_form(archive.document.table("SIMULATION"))
        assert 'name="show_TITLE"' in html
        assert 'name="op_GRID_SIZE"' in html
        assert "sample values..." in html
        assert 'value="LIKE"' in html

    def test_operation_form_contents(self, archive):
        operation = archive.document.column(
            "RESULT_FILE.DOWNLOAD_RESULT"
        ).operations[0]
        html = render_operation_form(operation, hidden={"name": "GetImage"})
        assert "Select the slice you wish to visualise:" in html
        assert '<select name="slice" size="4">' in html
        assert 'type="radio" name="type" value="u"' in html
        assert 'type="hidden" name="name" value="GetImage"' in html


class TestAppAuthentication:
    def test_login_returns_session(self, app):
        session_id = app.login("guest", "guest")
        assert session_id

    def test_bad_login(self, app):
        with pytest.raises(AuthenticationError):
            app.login("guest", "wrong")

    def test_unauthenticated_requests_rejected(self, app):
        assert app.get("/").status == 401
        assert app.get("/table", {"name": "AUTHOR"}).status == 401

    def test_logout_invalidates(self, app):
        session_id = app.login("guest", "guest")
        app.get("/logout", session_id=session_id)
        assert app.get("/", session_id=session_id).status == 401

    def test_login_form_rendered_on_get(self, app):
        response = app.get("/login")
        assert 'name="password"' in response.text


class TestAppBrowsing:
    def test_home_lists_tables(self, app, guest_session):
        text = app.get("/", session_id=guest_session).text
        assert "Numerical Simulations" in text
        assert "/query?table=AUTHOR" in text

    def test_query_form(self, app, guest_session):
        response = app.get(
            "/query", {"table": "SIMULATION"}, session_id=guest_session
        )
        assert response.ok and "Query" in response.text

    def test_search_with_restriction(self, app, guest_session):
        response = app.get(
            "/search",
            {
                "table": "SIMULATION",
                "show_TITLE": "on",
                "show_AUTHOR_KEY": "on",
                "val_GRID_SIZE": "10",
                "op_GRID_SIZE": "=",
            },
            session_id=guest_session,
        )
        assert "2 row(s)" in response.text

    def test_search_wildcard(self, app, guest_session):
        response = app.get(
            "/search",
            {
                "table": "AUTHOR",
                "show_NAME": "on",
                "val_NAME": "%Papiani",
                "op_NAME": "=",
            },
            session_id=guest_session,
        )
        assert "1 row(s)" in response.text
        assert "Mark Papiani" in response.text

    def test_fk_substitution_in_results(self, app, guest_session):
        response = app.get(
            "/search",
            {"table": "SIMULATION", "show_AUTHOR_KEY": "on", "show_TITLE": "on"},
            session_id=guest_session,
        )
        # the AUTHOR_KEY cell shows the author's *name* (substcolumn)
        assert "Mark Papiani" in response.text
        assert 'class="fk"' in response.text

    def test_whole_table(self, app, guest_session):
        response = app.get(
            "/table", {"name": "RESULT_FILE"}, session_id=guest_session
        )
        assert "4 row(s)" in response.text
        assert 'class="datalink"' in response.text

    def test_fk_browse(self, app, guest_session):
        response = app.get(
            "/browse/fk",
            {"colid": "SIMULATION.AUTHOR_KEY", "value": "A19990110150000"},
            session_id=guest_session,
        )
        assert "papiani@computer.org" in response.text

    def test_pk_browse(self, app, guest_session):
        response = app.get(
            "/browse/pk",
            {"ref": "RESULT_FILE.SIMULATION_KEY", "value": "S19990110150000"},
            session_id=guest_session,
        )
        assert "2 row(s)" in response.text

    def test_pk_links_rendered(self, app, guest_session):
        response = app.get(
            "/table", {"name": "SIMULATION"}, session_id=guest_session
        )
        assert "/browse/pk?ref=RESULT_FILE.SIMULATION_KEY" in response.text

    def test_lob_rematerialisation(self, app, guest_session):
        response = app.get(
            "/lob",
            {
                "table": "VISUALISATION_FILE",
                "column": "PREVIEW",
                "key_VIS_NAME": "overview.pgm",
            },
            session_id=guest_session,
        )
        assert response.content_type == "image/x-portable-graymap"
        assert response.body.startswith(b"P5")

    def test_datalink_cells_show_size_and_token(self, app, guest_session):
        response = app.get(
            "/table", {"name": "RESULT_FILE"}, session_id=guest_session
        )
        assert "bytes</a>" in response.text
        assert ";ts0000.turb" in response.text  # tokenized URL form

    def test_fk_substitute_looked_up_once_per_key(self, tmp_path, monkeypatch):
        # 9 simulations over 4 authors: the page runs one AUTHOR lookup per
        # distinct AUTHOR_KEY, not one per row
        archive = build_turbulence_archive(n_simulations=9, timesteps=1, grid=4)
        app = EasiaApp(
            archive.db, archive.linker, archive.document, archive.users,
            archive.make_engine(str(tmp_path)),
        )
        session = app.login("guest", "guest")
        lookups = []
        execute = archive.db.execute

        def counting_execute(sql, params=()):
            if sql.startswith("SELECT AUTHOR.NAME FROM AUTHOR"):
                lookups.append(params[0])
            return execute(sql, params)

        monkeypatch.setattr(archive.db, "execute", counting_execute)
        response = app.get(
            "/search",
            {"table": "SIMULATION", "show_AUTHOR_KEY": "on", "show_TITLE": "on"},
            session_id=session,
        )
        assert "9 row(s)" in response.text
        assert "Kenji Takeda" in response.text
        assert sorted(lookups) == sorted(set(lookups))
        assert len(lookups) == 4


class TestAppDownloads:
    def test_guest_cannot_download(self, app, guest_session, archive):
        url = archive.result_rows()[0]["RESULT_FILE.DOWNLOAD_RESULT"].url
        response = app.get("/download", {"url": url}, session_id=guest_session)
        assert response.status == 403

    def test_user_download(self, app, user_session, archive):
        row = archive.result_rows()[0]
        url = row["RESULT_FILE.DOWNLOAD_RESULT"].url
        response = app.get("/download", {"url": url}, session_id=user_session)
        assert response.ok
        assert len(response.body) == row["RESULT_FILE.FILE_SIZE"]


class TestAppOperations:
    def test_operation_links_in_result_table(self, app, guest_session):
        response = app.get(
            "/table", {"name": "RESULT_FILE"}, session_id=guest_session
        )
        assert "GetImage" in response.text
        assert "FieldStats" in response.text
        # guests do not see the Subsample link
        assert "Subsample" not in response.text

    def test_user_sees_subsample(self, app, user_session):
        response = app.get(
            "/table", {"name": "RESULT_FILE"}, session_id=user_session
        )
        assert "Subsample" in response.text
        assert "Upload code" in response.text

    def test_operation_form(self, app, guest_session):
        response = app.get(
            "/operation/form",
            {"name": "GetImage", "colid": "RESULT_FILE.DOWNLOAD_RESULT",
             **RESULT_KEY},
            session_id=guest_session,
        )
        assert response.ok
        assert "Select velocity component or pressure:" in response.text

    def test_operation_run_returns_image(self, app, guest_session):
        response = app.post(
            "/operation/run",
            {"name": "GetImage", "colid": "RESULT_FILE.DOWNLOAD_RESULT",
             "slice": "x1", "type": "u", **RESULT_KEY},
            session_id=guest_session,
        )
        assert response.content_type == "image/x-portable-graymap"
        assert response.body.startswith(b"P5")

    def test_guest_cannot_run_restricted_operation(self, app, guest_session):
        response = app.post(
            "/operation/run",
            {"name": "Subsample", "colid": "RESULT_FILE.DOWNLOAD_RESULT",
             "factor": "2", **RESULT_KEY},
            session_id=guest_session,
        )
        assert response.status == 403

    def test_stats_page(self, app, guest_session):
        response = app.get("/stats", session_id=guest_session)
        assert response.ok
        assert "GetImage" in response.text


class TestAppUploads:
    CODE = pack_code_archive({
        "MyCount.py": (
            b"data = open(INPUT_FILENAME, 'rb').read()\n"
            b"out = open('count.txt', 'w')\n"
            b"out.write(str(len(data)))\n"
            b"out.close()\n"
        )
    })

    def test_user_upload_runs(self, app, user_session, archive):
        response = app.post(
            "/upload/run",
            {"colid": "RESULT_FILE.DOWNLOAD_RESULT", "class": "MyCount",
             **RESULT_KEY},
            session_id=user_session,
            files={"archive": self.CODE},
        )
        assert response.ok
        expected = archive.result_rows()[0]["RESULT_FILE.FILE_SIZE"]
        assert response.body == str(expected).encode()

    def test_guest_upload_denied(self, app, guest_session):
        response = app.post(
            "/upload/run",
            {"colid": "RESULT_FILE.DOWNLOAD_RESULT", "class": "MyCount",
             **RESULT_KEY},
            session_id=guest_session,
            files={"archive": self.CODE},
        )
        assert response.status == 403

    def test_upload_form_for_user(self, app, user_session):
        response = app.get(
            "/upload/form",
            {"colid": "RESULT_FILE.DOWNLOAD_RESULT", **RESULT_KEY},
            session_id=user_session,
        )
        assert response.ok
        assert 'name="archive"' in response.text

    def test_missing_archive(self, app, user_session):
        response = app.post(
            "/upload/run",
            {"colid": "RESULT_FILE.DOWNLOAD_RESULT", "class": "X", **RESULT_KEY},
            session_id=user_session,
        )
        assert response.status == 400


class TestAppAdmin:
    def test_admin_manages_users(self, app, archive):
        admin_session = app.login("admin", "hpcadmin")
        response = app.post(
            "/admin/users",
            {"action": "add", "username": "newuser", "password": "pw"},
            session_id=admin_session,
        )
        assert response.ok and "newuser" in response.text
        response = app.post(
            "/admin/users",
            {"action": "remove", "username": "newuser"},
            session_id=admin_session,
        )
        assert "newuser" not in response.text

    def test_non_admin_denied(self, app, user_session):
        assert app.get("/admin/users", session_id=user_session).status == 403


class TestPersonalisation:
    def test_role_specific_document(self, archive, tmp_path):
        from repro.xuis import personalise

        docs = personalise(
            archive.document,
            {"guest": lambda c: c.hide_table("CODE_FILE")},
        )
        engine = archive.make_engine(str(tmp_path / "sb"))
        app = EasiaApp(
            archive.db, archive.linker, archive.document, archive.users,
            engine, documents_by_role=docs,
        )
        guest_session = app.login("guest", "guest")
        user_session = app.login("turbulence", "consortium")
        guest_home = app.get("/", session_id=guest_session).text
        user_home = app.get("/", session_id=user_session).text
        assert "CODE_FILE" not in guest_home
        assert "CODE_FILE" in user_home

    def test_hidden_table_refused_by_every_table_handler(self, archive, tmp_path):
        from repro.xuis import personalise

        docs = personalise(
            archive.document, {"guest": lambda c: c.hide_table("AUTHOR")}
        )
        engine = archive.make_engine(str(tmp_path / "sb"))
        app = EasiaApp(
            archive.db, archive.linker, archive.document, archive.users,
            engine, documents_by_role=docs,
        )
        guest = app.login("guest", "guest")
        user = app.login("turbulence", "consortium")
        requests = [
            ("/query", {"table": "AUTHOR"}),
            ("/search", {"table": "AUTHOR", "show_NAME": "on"}),
            ("/table", {"name": "AUTHOR"}),
            ("/export", {"table": "AUTHOR", "show_NAME": "on"}),
        ]
        names = [
            row[0] for row in archive.db.execute("SELECT NAME FROM AUTHOR").rows
        ]
        for path, params in requests:
            refused = app.get(path, params, session_id=guest)
            assert refused.status == 400, path
            assert "not available" in refused.text
            assert not any(name in refused.text for name in names), path
            assert app.get(path, params, session_id=user).status == 200, path


class TestOneReader:
    def test_app_holds_no_sql(self):
        """Handlers read tables only through ``repro.web.view.TableView``,
        which applies the user's XUIS; SQL text in the app would read
        around it."""
        import re
        from pathlib import Path

        import repro.web.app

        source = Path(repro.web.app.__file__).read_text(encoding="utf-8")
        assert re.findall(r"\b(?:SELECT|FROM|WHERE)\b", source) == []
