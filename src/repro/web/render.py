"""Result-table rendering.

Produces the paper's result tables: column headers use XUIS aliases,
cells carry the browse hyperlinks, and rows whose DATALINK column has
applicable operations get "Operations" links (plus an "Upload code" link
where the XUIS permits it for the current user).

A page does each piece of work once: the links the user may see are
built, quoted and escaped once per page, each link's XUIS conditions are
evaluated once per distinct tuple of the values they read, and a row
adds only its quoted primary-key parameters.
"""

from __future__ import annotations

from typing import Any
from urllib.parse import quote_plus

from repro.sqldb.database import Database, Result
from repro.web.auth import User
from repro.web.browse import CellRenderer
from repro.web.forms import page
from repro.web.http import escape
from repro.xuis.model import XuisDocument, XuisTable

__all__ = ["render_result_table", "result_rows_as_dicts"]


def result_rows_as_dicts(table_name: str, result: Result) -> list[dict[str, Any]]:
    """Zip the rows of a ``SELECT ... FROM table_name`` into dicts keyed by
    both ``TABLE.COLUMN`` and bare ``COLUMN`` (the shape XUIS conditions,
    operations and the cell renderer consume)."""
    table_name = table_name.upper()
    out = []
    for row in result.rows:
        entry: dict[str, Any] = {}
        for name, value in zip(result.columns, row):
            entry[f"{table_name}.{name}"] = value
            entry[name] = value
        out.append(entry)
    return out


def render_result_table(
    db: Database,
    document: XuisDocument,
    table_name: str,
    result: Result,
    user: User | None = None,
    footer_html: str = "",
) -> str:
    """HTML for a query result against ``table_name``.

    ``footer_html`` (e.g. pagination links) is appended below the table.
    The Operations column's links are built once per page
    (:class:`_OperationLinks`); per row only the key parameters change.
    """
    table = document.table(table_name)
    renderer = CellRenderer(db, document)
    columns = [
        table.column(name) for name in result.columns if table.has_column(name)
    ]
    operations = (
        _OperationLinks(table, result.columns, user)
        if any(c.operations or c.upload is not None for c in columns)
        else None
    )

    headers = "".join(
        f"<th>{escape(column.display_name)}</th>" for column in columns
    )
    if operations is not None:
        headers += "<th>Operations</th>"

    body_rows = []
    for row, row_dict in zip(result.rows,
                             result_rows_as_dicts(table.name, result)):
        cells = []
        for column in columns:
            value = row_dict.get(column.colid)
            cells.append(
                f"<td>{renderer.render(table, column, value, row_dict)}</td>"
            )
        if operations is not None:
            cells.append(f"<td>{operations.cell(row)}</td>")
        body_rows.append("<tr>" + "".join(cells) + "</tr>")

    count = len(result.rows)
    body = (
        f"<p>{count} row(s)</p>"
        f'<table border="1"><tr>{headers}</tr>{"".join(body_rows)}</table>'
        f"{footer_html}"
    )
    return page(f"Results: {table.display_name}", body)


class _OperationLinks:
    """The Operations cell of one result page.

    Built once per page: the operation and upload links ``user`` may see,
    each with its link prefix quoted and escaped, its conditions' columns
    resolved to result positions, and its primary-key parameters' names
    quoted.  A row then costs one quoting of its key values, and each
    link's ``applies_to`` runs once per distinct tuple of the values its
    conditions read.
    """

    def __init__(self, table: XuisTable, result_columns: list[str],
                 user: User | None) -> None:
        # the last of duplicate names wins, as in result_rows_as_dicts
        position = {name: i for i, name in enumerate(result_columns)}
        prefix = f"{table.name}."
        #: ``key_<COLUMN>=`` and the column's position, per PK column
        #: shown (quoted text needs no HTML escaping)
        self._keys = [
            (f"key_{quote_plus(colid[len(prefix):])}=",
             position[colid[len(prefix):]])
            for colid in table.primary_key
            if colid.startswith(prefix) and colid[len(prefix):] in position
        ]
        #: (spec, link head, link tail, condition colids and positions,
        #: applicability by condition values)
        self._links: list[tuple] = []
        for column in table.columns:
            colid = quote_plus(column.colid)
            for operation in column.operations:
                if user is not None and not user.can_run_operation(operation):
                    continue
                name = quote_plus(operation.name)
                self._add(operation, position, "operation",
                          f"/operation/form?name={name}&colid={colid}&",
                          escape(operation.name))
            upload = column.upload
            if upload is not None and (
                user is None or user.can_upload_code or upload.guest_access
            ):
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

    def cell(self, row: tuple) -> str:
        """The links that apply to ``row``, space-separated."""
        keys = "&amp;".join([
            f"{name}{quote_plus(str(row[i]))}"
            for name, i in self._keys if row[i] is not None
        ])
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
