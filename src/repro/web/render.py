"""Result-table rendering.

Produces the paper's result tables: column headers use XUIS aliases,
cells carry the browse hyperlinks, and rows whose DATALINK column has
applicable operations get "Operations" links (plus an "Upload code" link
where the XUIS permits it for the current user).
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
    """
    table = document.table(table_name)
    renderer = CellRenderer(db, document)
    columns = [
        table.column(name) for name in result.columns if table.has_column(name)
    ]
    operations_column = _operations_apply(table, columns)

    headers = "".join(
        f"<th>{escape(column.display_name)}</th>" for column in columns
    )
    if operations_column:
        headers += "<th>Operations</th>"

    body_rows = []
    for row_dict in result_rows_as_dicts(table.name, result):
        cells = []
        for column in columns:
            value = row_dict.get(column.colid)
            cells.append(
                f"<td>{renderer.render(table, column, value, row_dict)}</td>"
            )
        if operations_column:
            cells.append(f"<td>{_render_operations_cell(table, row_dict, user)}</td>")
        body_rows.append("<tr>" + "".join(cells) + "</tr>")

    count = len(result.rows)
    body = (
        f"<p>{count} row(s)</p>"
        f'<table border="1"><tr>{headers}</tr>{"".join(body_rows)}</table>'
        f"{footer_html}"
    )
    return page(f"Results: {table.display_name}", body)


def _operations_apply(table: XuisTable, columns) -> bool:
    return any(c.operations or c.upload is not None for c in columns)


def _row_key_params(table: XuisTable, row_dict: dict[str, Any]) -> str:
    parts = []
    for pk_colid in table.primary_key:
        value = row_dict.get(pk_colid)
        if value is not None:
            column = pk_colid.split(".", 1)[1]
            parts.append(f"key_{quote_plus(column)}={quote_plus(str(value))}")
    return "&".join(parts)


def _render_operations_cell(table: XuisTable, row_dict: dict[str, Any],
                            user: User | None) -> str:
    """Links for each operation applicable to this row, per the XUIS
    conditions and the user's guest restrictions."""
    links = []
    key_params = _row_key_params(table, row_dict)
    for column in table.columns:
        for operation in column.operations:
            if not operation.applies_to(row_dict):
                continue
            if user is not None and not user.can_run_operation(operation):
                continue
            href = (
                f"/operation/form?name={quote_plus(operation.name)}"
                f"&colid={quote_plus(column.colid)}&{key_params}"
            )
            links.append(
                f'<a class="operation" href="{escape(href)}">'
                f"{escape(operation.name)}</a>"
            )
        upload = column.upload
        if upload is not None and upload.applies_to(row_dict):
            allowed = user is None or user.can_upload_code or upload.guest_access
            if allowed:
                href = (
                    f"/upload/form?colid={quote_plus(column.colid)}&{key_params}"
                )
                links.append(
                    f'<a class="upload" href="{escape(href)}">Upload code</a>'
                )
    return " ".join(links)
