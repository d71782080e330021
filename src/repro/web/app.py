"""The EASIA web application.

Wires the whole architecture behind servlet endpoints, mirroring the
paper's deployment (one servlet container on the database-server host):

==========================  ====================================================
path                        behaviour
==========================  ====================================================
``/login`` / ``/logout``    session management (guest/guest works, as the demo)
``/``                       home: the visible tables, with query-form links
``/query``                  the generated QBE query form for one table
``/search``                 QBE submission -> hyperlinked result table
``/table``                  "alternatively request all data for a table"
``/browse/fk``              foreign-key browsing (full referenced row)
``/browse/pk``              primary-key browsing (referencing rows)
``/lob``                    BLOB/CLOB rematerialisation with MIME type
``/download``               DATALINK download via its file server (no guests)
``/operation/form``         parameter form generated from the XUIS
``/operation/run``          sandboxed server-side execution, results shipped
``/upload/form``/``run``    code upload for secure server-side execution
``/stats``                  operation statistics ("for benefit of future users")
``/metrics``                live metrics registry (text exposition)
``/trace``                  recent spans from the tracing ring buffer
``/admin/users``            web-based user management (admin only)
==========================  ====================================================

All state flows through the explicit ``session_id`` returned by
``/login`` (the JWS URL-rewriting model).
"""

from __future__ import annotations

from typing import Any

from repro.datalink import DataLinker
from repro.errors import AuthenticationError, AuthorizationError, WebError
from repro.operations import OperationEngine, output_mime
from repro.sqldb.database import Database
from repro.sqldb.types import Blob, Clob, DatalinkValue
from repro.web.auth import UserManager
from repro.web.forms import (
    page,
    render_login_form,
    render_operation_form,
    render_query_form,
)
from repro.web.http import Request, Response, ServletContainer, escape
from repro.web.qbe import build_query_from_params
from repro.web.render import render_result_table
from repro.web.view import TableView, find_datalink
from repro.xuis.model import XuisDocument, parse_colid

__all__ = ["EasiaApp"]

def _int_param(request: Request, name: str, default: int) -> int:
    value = request.param(name, default)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise WebError(f"parameter {name!r} must be an integer") from None


def _export_cell_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Blob):
        return f"<{len(value)} bytes>"
    if isinstance(value, Clob):
        return value.text
    if isinstance(value, DatalinkValue):
        return value.url
    return str(value)


def _rows_as_csv(columns: list[str], rows: list[tuple]) -> bytes:
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_export_cell_text(v) for v in row])
    return buffer.getvalue().encode("utf-8")


def _rows_as_xml(table_name: str, columns: list[str], rows: list[tuple]) -> bytes:
    import xml.etree.ElementTree as ET

    root = ET.Element("resultset", {"table": table_name})
    for row in rows:
        row_el = ET.SubElement(root, "row")
        for name, value in zip(columns, row):
            cell = ET.SubElement(row_el, "field", {"name": name})
            cell.text = _export_cell_text(value)
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)


class EasiaApp:
    """The assembled archive application."""

    def __init__(
        self,
        db: Database,
        linker: DataLinker,
        document: XuisDocument,
        users: UserManager,
        engine: OperationEngine,
        documents_by_role: dict[str, XuisDocument] | None = None,
        session_max_idle: float | None = None,
        time_source=None,
    ) -> None:
        self.db = db
        self.linker = linker
        self.users = users
        self.engine = engine
        # the deployment's XUIS is stored once, on the engine
        engine.document = document
        #: personalisation: different user classes may see different XUIS,
        #: each narrowing the deployment's (see :meth:`document_for`)
        self.documents_by_role = documents_by_role or {}
        self.container = ServletContainer(session_max_idle, time_source)
        self._register_routes()

    # -- plumbing ---------------------------------------------------------------

    def _register_routes(self) -> None:
        container = self.container
        container.register("/login", self._login)
        container.register("/logout", self._logout)
        container.register("/", self._home)
        container.register("/query", self._query_form)
        container.register("/search", self._search)
        container.register("/table", self._whole_table)
        container.register("/browse/fk", self._browse_fk)
        container.register("/browse/pk", self._browse_pk)
        container.register("/lob", self._lob)
        container.register("/download", self._download)
        container.register("/operation/form", self._operation_form)
        container.register("/operation/run", self._operation_run)
        container.register("/upload/form", self._upload_form)
        container.register("/upload/run", self._upload_run)
        container.register("/export", self._export)
        container.register("/operation/progress", self._operation_progress)
        container.register("/stats", self._stats)
        container.register("/metrics", self._metrics)
        container.register("/trace", self._trace)
        container.register("/admin/users", self._admin_users)
        container.register("/admin/xuis", self._admin_xuis)

    def get(self, path: str, params: dict[str, Any] | None = None,
            session_id: str | None = None) -> Response:
        return self.container.dispatch(path, params, "GET", session_id)

    def post(self, path: str, params: dict[str, Any] | None = None,
             session_id: str | None = None,
             files: dict[str, bytes] | None = None) -> Response:
        return self.container.dispatch(path, params, "POST", session_id, files)

    def login(self, username: str, password: str) -> str:
        """Convenience: authenticate and return the new session id."""
        response = self.post(
            "/login", {"username": username, "password": password}
        )
        if not response.ok:
            raise AuthenticationError(response.text)
        return response.headers["X-Session-Id"]

    @property
    def document(self) -> XuisDocument:
        """The deployment's XUIS, which the operation engine runs."""
        return self.engine.document

    def document_for(self, user) -> XuisDocument:
        """Personalisation hook: role-specific XUIS if configured.  A role
        document may only narrow the deployment's: a route offers only
        what the user's document lists, and the engine runs only what
        the deployment's lists."""
        if user is not None and user.role in self.documents_by_role:
            return self.documents_by_role[user.role]
        return self.document

    # -- auth ----------------------------------------------------------------------

    def _login(self, request: Request) -> Response:
        if request.method != "POST":
            return Response.html(render_login_form())
        username = request.require_param("username")
        password = request.require_param("password")
        user = self.users.authenticate(username, password)
        session = self.container.sessions.create()
        session["user"] = user
        body = page(
            "EASIA",
            f"<p>Welcome, {escape(user.username)} (role: {escape(user.role)}).</p>"
            '<p><a href="/">Browse the archive</a></p>',
        )
        return Response(body, headers={"X-Session-Id": session.session_id})

    def _logout(self, request: Request) -> Response:
        if request.session is not None:
            self.container.sessions.invalidate(request.session.session_id)
        return Response.html(render_login_form("Logged out."))

    # -- searching and browsing -------------------------------------------------------

    def _home(self, request: Request) -> Response:
        user = request.require_user()
        document = self.document_for(user)
        items = "".join(
            f'<li><a href="/query?table={escape(t.name)}">'
            f"{escape(t.display_name)}</a> "
            f'(<a href="/table?name={escape(t.name)}">all data</a>)</li>'
            for t in document.visible_tables()
        )
        return Response.html(page(document.title, f"<ul>{items}</ul>"))

    def _view(self, request: Request, param: str = "table"):
        """The user and their :class:`TableView` of the table ``param``
        names: a hidden or unknown table is refused (400)."""
        user = request.require_user()
        table = request.require_param(param)
        return user, TableView(self.db, self.document_for(user), table)

    def _view_column(self, request: Request, param: str):
        """The user, their view and the visible column that the colid in
        ``param`` names: a hidden or unknown one is refused (400)."""
        user = request.require_user()
        table, column = parse_colid(request.require_param(param))
        view = TableView(self.db, self.document_for(user), table)
        return user, view, view.column(column)

    def _render(self, view: TableView, result, user, footer: str = "") -> Response:
        return Response.html(render_result_table(
            self.db, view.document, view.table.name, result, user, footer
        ))

    def _query_form(self, request: Request) -> Response:
        _user, view = self._view(request)
        return Response.html(render_query_form(view.table))

    def _search(self, request: Request) -> Response:
        """QBE submission -> one page of the hyperlinked result table.

        One statement answers the page: its ``ORDER BY ... LIMIT ...
        OFFSET`` yields the page's rows, and its matched-row count
        (:attr:`Result.matched_rows`, read at the same snapshot as the
        rows) the pagination total.  A ``limit`` caps the rows the search
        reaches; ``page``/``page_size`` page through at most that many.
        """
        user, view = self._view(request)
        query = build_query_from_params(view.table.name, request.params)
        page_number = max(1, _int_param(request, "page", 1))
        page_size = max(1, _int_param(request, "page_size", 50))
        cap = query.limit
        query.offset = (page_number - 1) * page_size
        query.limit = (
            page_size if cap is None
            else max(0, min(page_size, cap - query.offset))
        )
        result = view.search(query)
        total = result.matched_rows
        if cap is not None:
            total = min(total, cap)
        footer = self._pagination_footer(
            request, page_number, page_size, total
        )
        return self._render(view, result, user, footer)

    def _export(self, request: Request) -> Response:
        """Download query results as CSV or XML (same QBE parameters as
        ``/search``, plus ``format=csv|xml``)."""
        _user, view = self._view(request)
        result = view.search(
            build_query_from_params(view.table.name, request.params)
        )

        export_format = request.param("format", "csv").lower()
        if export_format == "csv":
            return Response.data(
                _rows_as_csv(result.columns, result.rows), "text/csv"
            )
        if export_format == "xml":
            return Response.data(
                _rows_as_xml(view.table.name, result.columns, result.rows),
                "application/xml",
            )
        raise WebError(f"unknown export format {export_format!r}")

    @staticmethod
    def _pagination_footer(request: Request, page_number: int,
                           page_size: int, total: int) -> str:
        """Prev/next navigation preserving the submitted form parameters."""
        from urllib.parse import urlencode

        pages = max(1, -(-total // page_size))
        if pages <= 1:
            return ""
        base = {
            k: v for k, v in request.params.items() if k not in ("page",)
        }
        parts = [f"<p>page {page_number} of {pages} ({total} rows)"]
        if page_number > 1:
            href = "/search?" + urlencode({**base, "page": page_number - 1})
            parts.append(f' <a class="prev" href="{escape(href)}">prev</a>')
        if page_number < pages:
            href = "/search?" + urlencode({**base, "page": page_number + 1})
            parts.append(f' <a class="next" href="{escape(href)}">next</a>')
        parts.append("</p>")
        return "".join(parts)

    def _whole_table(self, request: Request) -> Response:
        user, view = self._view(request, "name")
        # a LIMIT makes the engine keep a top-N heap over the key order
        # instead of materialising and sorting the whole table
        result = view.rows(limit=_int_param(request, "limit", 0))
        return self._render(view, result, user)

    def _browse_fk(self, request: Request) -> Response:
        """Foreign-key browsing: full details of the referenced row."""
        user, view, column = self._view_column(request, "colid")
        target = view.follow(column.fk.tablecolumn) if column.fk else None
        if target is None:
            raise WebError(f"{column.colid} links to no available column")
        ref_view, key = target
        result = ref_view.rows([key], [request.require_param("value")])
        return self._render(ref_view, result, user)

    def _browse_pk(self, request: Request) -> Response:
        """Primary-key browsing: all referencing rows in one child table."""
        user, view, column = self._view_column(request, "ref")
        result = view.rows([column], [request.require_param("value")])
        return self._render(view, result, user)

    # -- object rematerialisation -----------------------------------------------------------

    def _lob(self, request: Request) -> Response:
        """Rematerialise a BLOB/CLOB 'and return [it] to the user's browser
        with the appropriate MIME type set'."""
        _user, view = self._view(request)
        column = view.column(request.require_param("column"))
        value = view.row(request.params)[column.colid]
        if isinstance(value, Blob):
            return Response.data(value.data, value.mime_type)
        if isinstance(value, Clob):
            return Response.data(value.text.encode("utf-8"), value.mime_type)
        raise WebError(f"{column.colid} holds no LOB for this row")

    def _download(self, request: Request) -> Response:
        """Dataset download via the DATALINK's file server.

        Guests cannot download datasets (the demo's restriction)."""
        user = request.require_user()
        if not user.can_download:
            raise AuthorizationError("guest users cannot download datasets")
        url = request.require_param("url")
        value = DatalinkValue.parse_tokenized(url)
        if value.token is None:
            # no token in the URL: read the value through a column the
            # user sees, which issues one as any page does
            value = find_datalink(self.db, self.document_for(user), value.url)
            if value is None:
                return Response.error("no visible dataset is linked there", 404)
        data = self.linker.download(value)
        return Response.data(data, "application/octet-stream")

    # -- operations -------------------------------------------------------------------------

    def _operation_form(self, request: Request) -> Response:
        user, view, column = self._view_column(request, "colid")
        view.check_key(request.params)
        name = request.require_param("name")
        operation = column.operation(name)
        if not user.can_run_operation(operation):
            raise AuthorizationError(f"guests may not run {name}")
        hidden = {"name": name, "colid": column.colid}
        for key, value in request.params.items():
            if key.startswith("key_"):
                hidden[key] = str(value)
        return Response.html(render_operation_form(operation, hidden=hidden))

    def _operation_run(self, request: Request) -> Response:
        user, view, column = self._view_column(request, "colid")
        row = view.row(request.params)
        name = request.require_param("name")
        # the user's column is the authority: it lists what they may run
        operation = column.operation(name)
        params = {
            param.name: request.params[param.name]
            for param in operation.params
            if param.name in request.params
        }
        session_tag = (
            request.session.session_id if request.session else "anonymous"
        )
        result = self.engine.invoke(
            name, column.colid, row, params, user=user, session_tag=session_tag
        )
        return self._operation_response(result)

    def _operation_response(self, result) -> Response:
        if len(result.outputs) == 1:
            output_name, data = next(iter(result.outputs.items()))
            return Response.data(data, output_mime(output_name))
        items = "".join(
            f"<li>{escape(name)} ({len(data)} bytes)</li>"
            for name, data in sorted(result.outputs.items())
        )
        stdout = (
            f"<pre>{escape(result.stdout)}</pre>" if result.stdout else ""
        )
        return Response.html(
            page(
                f"Operation {result.operation.name} output",
                f"<ul>{items}</ul>{stdout}",
            )
        )

    # -- code upload ---------------------------------------------------------------------------

    @staticmethod
    def _check_upload(user, column) -> None:
        """Refuse an upload the user's column does not offer them."""
        if column.upload is None:
            raise WebError(f"{column.colid} does not accept uploads")
        if not user.can_upload(column.upload):
            raise AuthorizationError("guest users cannot upload post-processing codes")

    def _upload_form(self, request: Request) -> Response:
        user, view, column = self._view_column(request, "colid")
        view.check_key(request.params)
        self._check_upload(user, column)
        hidden = "".join(
            f'<input type="hidden" name="{escape(k)}" value="{escape(v)}"/>'
            for k, v in request.params.items()
        )
        body = (
            f'<form method="POST" action="/upload/run">{hidden}'
            '<label>Class to run <input type="text" name="class"/></label> '
            '<label>Archive <input type="file" name="archive"/></label> '
            '<input type="submit" value="Upload and run"/></form>'
        )
        return Response.html(page("Upload post-processing code", body))

    def _upload_run(self, request: Request) -> Response:
        user, view, column = self._view_column(request, "colid")
        row = view.row(request.params)
        self._check_upload(user, column)
        archive = request.files.get("archive")
        if archive is None:
            raise WebError("no archive file uploaded")
        class_name = request.require_param("class")
        session_tag = (
            request.session.session_id if request.session else "anonymous"
        )
        result = self.engine.run_upload(
            column.colid, row, archive, class_name, user=user,
            session_tag=session_tag
        )
        return self._operation_response(result)

    def _operation_progress(self, request: Request) -> Response:
        """Runtime monitoring of operation progress (future-work feature):
        the stage log of this session's recent invocations."""
        request.require_user()
        session_tag = (
            request.session.session_id if request.session else "anonymous"
        )
        events = self.engine.events_for_session(session_tag)
        rows = "".join(
            f"<tr><td>{seq}</td><td>{escape(op)}</td>"
            f"<td>{escape(stage)}</td><td>{escape(detail)}</td></tr>"
            for seq, _tag, op, stage, detail in events
        )
        body = (
            '<table border="1"><tr><th>#</th><th>operation</th>'
            "<th>stage</th><th>detail</th></tr>" + rows + "</table>"
            if events
            else "<p>no operations have run in this session yet</p>"
        )
        return Response.html(page("Operation progress", body))

    # -- statistics and administration ------------------------------------------------------------

    def _stats(self, request: Request) -> Response:
        request.require_user()
        items = "".join(
            f"<li>{escape(summary.describe())}</li>"
            for summary in self.engine.stats.summaries()
        )
        return Response.html(
            page("Operation statistics", f"<ul>{items or '<li>none yet</li>'}</ul>")
        )

    def _metrics(self, request: Request) -> Response:
        """The Prometheus text exposition of :meth:`metrics_text`."""
        request.require_user()
        return Response.data(self.metrics_text().encode("utf-8"), "text/plain")

    def metrics_text(self) -> str:
        """Render the current registry with this app's component counters
        bound to it as pull instruments.  Binding at render time lets a
        registry installed by ``repro.obs.enable()`` after the app was
        built show them too; each event stays counted once, by its
        component."""
        from repro.obs import get_observability

        registry = get_observability().metrics
        registry.bind(self._metric_pulls())
        return registry.render_text()

    def _metric_pulls(self) -> list:
        """``(instrument class, name, labels, fn)`` for every component
        counter: statement and operation caches, the linker and its
        tokens, each physical file server, the writer lock, the
        connection pool and each replica set."""
        from functools import partial

        from repro.obs import Counter, Gauge

        db, cache, linker = self.db, self.engine.cache, self.linker
        tokens, lock, pool = linker.tokens, db.writer_lock, self.container.pool
        counters = {
            "sql.statement_cache.hits": lambda: db.statement_cache_hits,
            "sql.statement_cache.misses": lambda: db.statement_cache_misses,
            "operation.cache.hits": lambda: cache.hits,
            "operation.cache.misses": lambda: cache.misses,
            "datalink.links_applied": lambda: linker.links_applied,
            "datalink.unlinks_applied": lambda: linker.unlinks_applied,
            "datalink.tokens_issued": lambda: tokens.issued_count,
            "datalink.tokens_validated": lambda: tokens.validated_count,
        }
        gauges = {
            "sql.statement_cache.entries":
                lambda: db.statement_cache_stats["entries"],
            "operation.cache.stored_bytes": lambda: cache.stored_bytes,
            "sqldb.writer_lock.queue_depth": lambda: lock.queue_depth,
        }
        if pool is not None:
            counters["sqldb.pool.checkouts"] = lambda: pool.checkouts
            gauges["sqldb.pool.in_use"] = lambda: pool.in_use
        pulls = [(Counter, name, {}, fn) for name, fn in counters.items()]
        pulls += [(Gauge, name, {}, fn) for name, fn in gauges.items()]
        for logical in linker.servers():
            replicas = getattr(logical, "replicas", None)
            for server in [r.server for r in replicas] if replicas else [logical]:
                pulls += [
                    (Counter, f"fileserver.{attr}", {"host": server.host},
                     partial(getattr, server, attr))
                    for attr in ("requests", "denied", "bytes_served")
                ]
        replication = linker.replication
        if replication is None:
            return pulls
        pulls.append((Counter, "replication.health.transitions", {},
                      partial(getattr, replication.health, "transitions")))
        for name, rs in replication.sets.items():
            labels, queue = {"set": name}, rs.queue
            pulls += [
                (Gauge, "replication.queue.depth", labels, queue.depth),
                (Gauge, "replication.lag", labels, queue.max_lag),
                (Gauge, "replication.replicas_up", labels, rs.replicas_up),
                (Counter, "replication.failovers", labels,
                 partial(getattr, rs, "failovers")),
            ] + [
                (Counter, f"replication.{metric}", labels,
                 partial(getattr, queue, attr))
                for metric, attr in (("queue.enqueued", "ops_enqueued"),
                                     ("push.applied", "ops_applied"),
                                     ("push.retries", "retries"))
            ]
        return pulls

    def _trace(self, request: Request) -> Response:
        """Recent spans from the tracer's ring buffer, newest last, with
        indentation following parent/child nesting inside each trace."""
        request.require_user()
        from repro.obs import get_observability

        obs = get_observability()
        spans = obs.tracer.snapshot()
        if not spans:
            return Response.html(
                page("Trace", "<p>no spans recorded (is observability "
                              "enabled? see repro.obs.enable)</p>")
            )
        depths: dict[int, int] = {}
        rows = []
        for span in spans:
            parent = span["parent_id"]
            depth = depths.get(parent, -1) + 1 if parent is not None else 0
            depths[span["span_id"]] = depth
            attrs = ", ".join(
                f"{k}={v}" for k, v in sorted(span["attributes"].items())
            )
            rows.append(
                f"<tr><td>{span['trace_id']}</td>"
                f"<td style=\"padding-left:{depth}em\">{escape(span['name'])}</td>"
                f"<td>{span['duration'] * 1e3:.3f} ms</td>"
                f"<td>{escape(span['status'])}</td>"
                f"<td>{escape(attrs)}</td></tr>"
            )
        body = (
            '<table border="1"><tr><th>trace</th><th>span</th>'
            "<th>duration</th><th>status</th><th>attributes</th></tr>"
            + "".join(rows) + "</table>"
        )
        return Response.html(page("Trace", body))

    def _admin_users(self, request: Request) -> Response:
        user = request.require_user()
        if not user.can_manage_users:
            raise AuthorizationError("user management requires the admin role")
        if request.method == "POST":
            action = request.param("action", "add")
            if action == "add":
                self.users.add_user(
                    request.require_param("username"),
                    request.require_param("password"),
                    request.param("role", "user"),
                )
            elif action == "remove":
                self.users.remove_user(request.require_param("username"))
            else:
                raise WebError(f"unknown action {action!r}")
        rows = "".join(
            f"<li>{escape(name)} ({escape(self.users.user(name).role)})</li>"
            for name in self.users.usernames()
        )
        return Response.html(page("User management", f"<ul>{rows}</ul>"))

    def _admin_xuis(self, request: Request) -> Response:
        """Download or hot-swap the XUIS (paper: "The default XUIS can be
        customised prior to system initialisation" — here, also at runtime).

        GET returns the active specification as XML; POST with an ``xuis``
        file validates the uploaded document against the DTD rules and the
        live catalog, then installs it as the deployment's XUIS, which the
        app renders and the operation engine runs."""
        user = request.require_user()
        if not user.can_manage_users:
            raise AuthorizationError("XUIS management requires the admin role")
        from repro.xuis import assert_valid, parse_xuis, serialize_xuis

        if request.method == "POST":
            payload = request.files.get("xuis")
            if payload is None:
                raise WebError("no xuis file uploaded")
            document = parse_xuis(payload.decode("utf-8"))
            assert_valid(document, self.db)
            self.engine.document = document
            return Response.html(
                page("XUIS installed",
                     f"<p>{len(document.tables)} table(s) active.</p>")
            )
        return Response.data(
            serialize_xuis(self.document).encode("utf-8"), "application/xml"
        )
