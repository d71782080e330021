"""Hyperlinked result-cell rendering — the paper's browsing model.

Four kinds of browsable cell, each becoming a hyperlink in result tables:

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
"""

from __future__ import annotations

from typing import Any
from urllib.parse import quote_plus

from repro.sqldb.database import Database
from repro.sqldb.types import Blob, Clob, DatalinkValue
from repro.web.http import escape
from repro.xuis.model import XuisColumn, XuisDocument, XuisTable, parse_colid

__all__ = ["CellRenderer"]


def _q(value: Any) -> str:
    return quote_plus(str(value))


class CellRenderer:
    """Turns raw column values into the hyperlinked HTML cells.

    One renderer serves one result table, so it memoises foreign-key
    substitutes (a page of N rows over K distinct keys runs K lookups)
    and builds each column's link prefixes once: a cell then quotes only
    its own values.  Quoted text holds no HTML-special character, so it
    goes into an escaped prefix unescaped."""

    def __init__(self, db: Database, document: XuisDocument) -> None:
        self._db = db
        self._document = document
        #: (FK colid, value) -> substitute display value
        self._substitutes: dict[tuple[str, Any], Any] = {}
        #: (kind, colid) -> the column's escaped link prefixes
        self._prefixes: dict[tuple[str, str], Any] = {}

    def render(self, table: XuisTable, column: XuisColumn, value: Any,
               row: dict[str, Any]) -> str:
        """HTML for one cell.  ``row`` maps colids to the full row's values
        (needed to address LOBs by primary key)."""
        if value is None:
            return ""
        if isinstance(value, DatalinkValue):
            return self._render_datalink(value)
        if isinstance(value, (Blob, Clob)):
            return self._render_lob(table, column, value, row)
        if column.fk is not None:
            return self._render_fk(column, value)
        if column.pk is not None and column.pk.refby:
            return self._render_pk(column, value)
        return escape(value)

    # -- datalink -----------------------------------------------------------

    def _render_datalink(self, value: DatalinkValue) -> str:
        size = f"{value.size} bytes" if value.size is not None else value.filename
        return (
            f'<a class="datalink" href="{escape(value.tokenized_url)}">'
            f"{escape(size)}</a>"
        )

    # -- lobs -------------------------------------------------------------------

    def _render_lob(self, table: XuisTable, column: XuisColumn, value,
                    row: dict[str, Any]) -> str:
        prefixes = self._prefixes.get(("lob", column.colid))
        if prefixes is None:
            href = f"/lob?table={_q(table.name)}&column={_q(column.name)}"
            keys = [
                (pk_colid, escape(f"&key_{_q(parse_colid(pk_colid)[1])}="))
                for pk_colid in table.primary_key
            ]
            prefixes = self._prefixes[("lob", column.colid)] = (
                f'<a class="lob" href="{escape(href)}', keys,
            )
        head, keys = prefixes
        key_params = "".join(
            f"{key}{_q(row[pk_colid])}" for pk_colid, key in keys
            if pk_colid in row and row[pk_colid] is not None
        )
        label = f"{len(value)} " + ("bytes" if isinstance(value, Blob) else "chars")
        return f'{head}{key_params}">{escape(label)}</a>'

    # -- foreign keys ------------------------------------------------------------

    def _render_fk(self, column: XuisColumn, value: Any) -> str:
        display = value
        if column.fk.substcolumn is not None:
            substituted = self._lookup_substitute(column, value)
            if substituted is not None:
                display = substituted
        head = self._prefixes.get(("fk", column.colid))
        if head is None:
            href = f"/browse/fk?colid={_q(column.colid)}&value="
            head = self._prefixes[("fk", column.colid)] = (
                f'<a class="fk" href="{escape(href)}'
            )
        return f'{head}{_q(value)}">{escape(display)}</a>'

    def _lookup_substitute(self, column: XuisColumn, value: Any) -> Any:
        """Fetch the substitute display value from the referenced table."""
        key = (column.colid, value)
        if key not in self._substitutes:
            ref_table, ref_column = parse_colid(column.fk.tablecolumn)
            _t, subst_column = parse_colid(column.fk.substcolumn)
            self._substitutes[key] = self._db.execute(
                f"SELECT {subst_column} FROM {ref_table} WHERE {ref_column} = ?",
                (value,),
            ).scalar()
        return self._substitutes[key]

    # -- primary keys ----------------------------------------------------------------

    def _render_pk(self, column: XuisColumn, value: Any) -> str:
        """The paper's customised PK rendering: one link per referencing
        table, labelled with that table's alias."""
        refs = self._prefixes.get(("pk", column.colid))
        if refs is None:
            refs = []
            for ref in column.pk.refby:
                ref_table, _ref_column = parse_colid(ref)
                label = ref_table
                if self._document.has_table(ref_table):
                    label = self._document.table(ref_table).display_name
                href = f"/browse/pk?ref={_q(ref)}&value="
                refs.append((
                    f'<a class="pk" href="{escape(href)}', f'">{escape(label)}</a>',
                ))
            self._prefixes[("pk", column.colid)] = refs
        quoted = _q(value)
        links = [escape(value)]
        links.extend(f"{head}{quoted}{tail}" for head, tail in refs)
        return " ".join(links)
