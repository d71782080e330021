"""Result-table rendering — the paper's browsing model.

Produces the paper's result tables: column headers use XUIS aliases, and
rows whose DATALINK column has applicable operations get "Operations"
links (plus an "Upload code" link where the XUIS permits it for the
current user).  Four kinds of cell become hyperlinks:

* **Foreign-key browsing** — a value in a foreign-key column links to the
  full referenced row ("selecting a link on an AUTHOR_KEY value will
  retrieve full details of the author").  With an XUIS ``substcolumn``,
  the displayed text is taken from the referenced table (e.g. the
  author's name) instead of the raw key.
* **Primary-key browsing** — a primary-key value links once per
  *referencing* table (from ``<pk><refby/></pk>``): SIMULATION_KEY offers
  links into RESULT_FILE, CODE_FILE and VISUALISATION_FILE.
* **BLOB/CLOB browsing** — the cell shows the object size; the link
  rematerialises the object with its MIME type.
* **DATALINK browsing** — the cell shows the linked file's size; the link
  target is the token-carrying URL on the remote file server.

A page shows only what the user's :class:`~repro.web.view.TableView`
shows, and links only into what it can follow.  It does each piece of
work once: the links the user may see are built, quoted and escaped once
per page, each link's XUIS conditions are evaluated once per distinct
tuple of the values they read, and a row adds only its quoted
primary-key parameters.
"""

from __future__ import annotations

from typing import Any
from urllib.parse import quote_plus

from repro.sqldb.database import Database, Result
from repro.sqldb.types import Blob, Clob, DatalinkValue
from repro.web.auth import User
from repro.web.forms import page
from repro.web.http import escape
from repro.web.view import TableView, result_rows_as_dicts
from repro.xuis.model import XuisColumn, XuisDocument

__all__ = ["CellRenderer", "render_result_table", "result_rows_as_dicts"]


def render_result_table(
    db: Database,
    document: XuisDocument,
    table_name: str,
    result: Result,
    user: User | None = None,
    footer_html: str = "",
) -> str:
    """HTML for a query result against ``table_name``, as ``document``'s
    user sees it: the columns are the :class:`TableView`'s visible ones
    among the result's, and no link leads to what the view hides.

    ``footer_html`` (e.g. pagination links) is appended below the table.
    Each column's links are built once per page; a row adds its quoted
    primary-key parameters, which its LOB and operation links share.
    """
    view = TableView(db, document, table_name)
    renderer = CellRenderer(view)
    shown = view.visible(result.columns)
    # the last of duplicate names wins, as in result_rows_as_dicts
    position = {name: i for i, name in enumerate(result.columns)}
    # ``key_<COLUMN>=`` and the position of each visible key column shown
    # (quoted text needs no HTML escaping)
    keys = [(f"key_{quote_plus(key.name)}=", position[key.name])
            for key in view.primary_key if key.name in position]
    operations = (
        _OperationLinks(view, position, user)
        if any(c.operations or c.upload is not None for _i, c in shown)
        else None
    )

    headers = "".join(
        f"<th>{escape(column.display_name)}</th>" for _i, column in shown
    )
    if operations is not None:
        headers += "<th>Operations</th>"

    body_rows = []
    for row in result.rows:
        row_keys = "&amp;".join([f"{name}{quote_plus(str(row[i]))}"
                                 for name, i in keys if row[i] is not None])
        cells = [f"<td>{renderer.render(column, row[i], row_keys)}</td>"
                 for i, column in shown]
        if operations is not None:
            cells.append(f"<td>{operations.cell(row, row_keys)}</td>")
        body_rows.append("<tr>" + "".join(cells) + "</tr>")

    count = len(result.rows)
    body = (
        f"<p>{count} row(s)</p>"
        f'<table border="1"><tr>{headers}</tr>{"".join(body_rows)}</table>'
        f"{footer_html}"
    )
    return page(f"Results: {view.table.display_name}", body)


def _q(value: Any) -> str:
    return quote_plus(str(value))


class CellRenderer:
    """Turns raw column values into the hyperlinked HTML cells of one
    :class:`TableView`'s result table.

    It draws no link into, and no foreign-key substitute from, a table or
    column the view's user cannot see (:meth:`TableView.follow`).  One
    renderer serves one result table, so it memoises foreign-key
    substitutes (a page of N rows over K distinct keys runs K lookups)
    and builds each column's links once: a cell then quotes only its own
    values.  Quoted text holds no HTML-special character, so it goes into
    an escaped prefix unescaped."""

    def __init__(self, view: TableView) -> None:
        self._view = view
        #: (FK colid, value) -> substitute display value
        self._substitutes: dict[tuple[str, Any], Any] = {}
        #: (kind, colid) -> the column's escaped link prefixes
        self._prefixes: dict[tuple[str, str], Any] = {}

    def render(self, column: XuisColumn, value: Any, keys: str) -> str:
        """HTML for one cell.  ``keys`` are the row's quoted ``key_``
        parameters, joined by ``&amp;``: a LOB link addresses its row by
        them."""
        if value is None:
            return ""
        if isinstance(value, DatalinkValue):
            size = f"{value.size} bytes" if value.size is not None else value.filename
            return (
                f'<a class="datalink" href="{escape(value.tokenized_url)}">'
                f"{escape(size)}</a>"
            )
        if isinstance(value, (Blob, Clob)):
            return self._render_lob(column, value, keys)
        if column.fk is not None:
            return self._render_fk(column, value)
        if column.pk is not None and column.pk.refby:
            return self._render_pk(column, value)
        return escape(value)

    def _render_lob(self, column: XuisColumn, value, keys: str) -> str:
        head = self._prefixes.get(("lob", column.colid))
        if head is None:
            href = f"/lob?table={_q(self._view.table.name)}&column={_q(column.name)}"
            head = self._prefixes[("lob", column.colid)] = (
                f'<a class="lob" href="{escape(href)}'
            )
        label = f"{len(value)} " + ("bytes" if isinstance(value, Blob) else "chars")
        return f'{head}{"&amp;" + keys if keys else ""}">{escape(label)}</a>'

    def _render_fk(self, column: XuisColumn, value: Any) -> str:
        """A link to the referenced row, showing the ``substcolumn`` value
        when there is one: the raw value alone when the user cannot see
        the referenced column, and no substitute from a hidden one."""
        link = self._prefixes.get(("fk", column.colid))
        if link is None:
            link = self._prefixes[("fk", column.colid)] = self._fk_link(column)
        if not link:
            return escape(value)
        head, target, key, substitute = link
        display = None
        if substitute is not None:
            memo = (column.colid, value)
            if memo not in self._substitutes:
                self._substitutes[memo] = target.value(substitute, key, value)
            display = self._substitutes[memo]
        return f'{head}{_q(value)}">{escape(value if display is None else display)}</a>'

    def _fk_link(self, column: XuisColumn) -> tuple:
        """(escaped link head, referenced view, its key column, the visible
        substitute column or None), or () when the target is not visible."""
        target = self._view.follow(column.fk.tablecolumn)
        if target is None:
            return ()
        subst = column.fk.substcolumn and target[0].follow(column.fk.substcolumn)
        href = f"/browse/fk?colid={_q(column.colid)}&value="
        return (f'<a class="fk" href="{escape(href)}', *target,
                subst[1] if subst else None)

    def _render_pk(self, column: XuisColumn, value: Any) -> str:
        """The paper's customised PK rendering: one link per referencing
        table the user can see, labelled with that table's alias."""
        refs = self._prefixes.get(("pk", column.colid))
        if refs is None:
            refs = self._prefixes[("pk", column.colid)] = []
            for ref in column.pk.refby:
                target = self._view.follow(ref)
                if target is not None:
                    href = f"/browse/pk?ref={_q(ref)}&value="
                    label = escape(target[0].table.display_name)
                    refs.append((f'<a class="pk" href="{escape(href)}',
                                 f'">{label}</a>'))
        quoted = _q(value)
        links = [escape(value)]
        links.extend(f"{head}{quoted}{tail}" for head, tail in refs)
        return " ".join(links)


class _OperationLinks:
    """The Operations cell of one result page.

    Built once per page: the operation and upload links ``user`` may see
    on the view's columns, each with its link prefix quoted and escaped
    and its conditions' columns resolved to positions in the result.  Each
    link's ``applies_to`` runs once per distinct tuple of the values its
    conditions read.
    """

    def __init__(self, view: TableView, position: dict[str, int],
                 user: User | None) -> None:
        #: (spec, link head, link tail, condition colids and positions,
        #: applicability by condition values)
        self._links: list[tuple] = []
        for column in view.columns:
            colid = quote_plus(column.colid)
            for operation in column.operations:
                if user is not None and not user.can_run_operation(operation):
                    continue
                name = quote_plus(operation.name)
                self._add(operation, position, "operation",
                          f"/operation/form?name={name}&colid={colid}&",
                          escape(operation.name))
            upload = column.upload
            if upload is not None and (user is None or user.can_upload(upload)):
                self._add(upload, position, "upload",
                          f"/upload/form?colid={colid}&", "Upload code")

    def _add(self, spec, position: dict[str, int], css_class: str,
             href: str, label_html: str) -> None:
        # a condition reads its column's value from the row, whichever
        # table its colid names (Condition.matches)
        read = [
            (condition.colid, position[name])
            for condition in spec.conditions
            if (name := condition.colid.rpartition(".")[2]) in position
        ]
        self._links.append((
            spec, f'<a class="{css_class}" href="{escape(href)}',
            f'">{label_html}</a>', read, {},
        ))

    def cell(self, row: tuple, keys: str) -> str:
        """The links that apply to ``row``, space-separated; ``keys`` are
        its quoted ``key_`` parameters."""
        links = []
        for spec, head, tail, read, applies in self._links:
            values = tuple([row[i] for _colid, i in read])
            applicable = applies.get(values)
            if applicable is None:
                applicable = applies[values] = spec.applies_to(
                    {colid: row[i] for colid, i in read}
                )
            if applicable:
                links.append(head + keys + tail)
        return " ".join(links)
