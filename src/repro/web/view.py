"""One user's view of one table: what the XUIS hides stays hidden.

The XUIS personalises the archive per user class with aliases, hidden
tables and hidden columns.  Every portal route that reads a table builds
a :class:`TableView` from the user's XUIS document and the table the
request names, and reads through it.  The view refuses a hidden or
unknown table (and one with no visible column) with a 400, lists the
visible columns, and is the one place that turns a table into SQL text:
names come from XUIS objects, never from request strings, and each query
projects visible columns in visible primary-key order.  A link into
another table leads through :meth:`TableView.follow`, which finds
nothing the user cannot see.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import TypeMismatchError, WebError, XuisError
from repro.sqldb.database import Database, Result
from repro.sqldb.types import DatalinkValue
from repro.web.qbe import QbeQuery
from repro.xuis.model import XuisColumn, XuisDocument, parse_colid

__all__ = ["TableView", "find_datalink", "result_rows_as_dicts"]


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


class TableView:
    """The visible part of one XUIS table, and the only reader of it."""

    def __init__(self, db: Database, document: XuisDocument, name: str) -> None:
        name = name.upper()
        table = next((t for t in document.tables if t.name == name), None)
        columns = [] if table is None or table.hidden else table.visible_columns()
        if not columns:
            raise WebError(f"table {name} is not available")
        self.db = db
        self.document = document
        self.table = table
        #: the visible columns, in XUIS order
        self.columns = columns
        #: the visible primary-key columns, the order of every read
        self.primary_key = [
            c for colid in table.primary_key for c in columns if c.colid == colid
        ]

    def column(self, name: str) -> XuisColumn:
        """The visible column ``name``; a hidden or unknown one is refused."""
        name = name.upper()
        for column in self.columns:
            if column.name == name:
                return column
        raise WebError(f"column {self.table.name}.{name} is not available")

    def visible(self, names: list[str]) -> list[tuple[int, XuisColumn]]:
        """``(position, column)`` per visible column among ``names`` (a
        result's columns)."""
        by_name = {c.name: c for c in self.columns}
        return [(i, by_name[n]) for i, n in enumerate(names) if n in by_name]

    def follow(self, colid: str) -> tuple[TableView, XuisColumn] | None:
        """The view and visible column a link to ``colid`` leads to; None
        when the user cannot see them, so no such link is drawn."""
        try:
            table, column = parse_colid(colid)
            view = TableView(self.db, self.document, table)
            return view, view.column(column)
        except (WebError, XuisError):
            return None

    # -- reads ------------------------------------------------------------------

    def search(self, query: QbeQuery) -> Result:
        """Run a QBE form.  Its fields, restrictions and order may name only
        visible columns.  Pages need a deterministic order, so it defaults
        to the first visible primary-key column (the engine runs ``ORDER
        BY ... LIMIT`` as a top-N heap)."""
        schema = self._schema()
        if schema is not None:
            query.bind_types(schema)
        if query.order_by is None:
            query.order_by = (self.primary_key or self.columns)[0].colid
        sql, params = query.to_sql(self.columns)
        return self.db.execute(sql, params)

    def rows(self, where: Sequence[XuisColumn] = (), values: Sequence = (),
             limit: int = 0) -> Result:
        """The visible columns of the rows whose ``where`` columns equal
        ``values`` (all rows if none), at most ``limit`` if positive."""
        return self._select(self.columns, where, values, limit)

    def value(self, column: XuisColumn, key: XuisColumn, value: Any) -> Any:
        """``column`` of the first row whose ``key`` equals ``value``."""
        return self._select([column], [key], [value]).scalar()

    def row(self, params: dict[str, Any]) -> dict[str, Any]:
        """The one stored row that ``key_<COLUMN>`` parameters name.  They
        may name only visible primary-key columns, the keys the portal's
        links carry.  The row holds every XUIS column, hidden ones too: an
        operation evaluates it server-side, and a route shows only visible
        columns of it."""
        return result_rows_as_dicts(
            self.table.name, self._keyed(self.table.columns, params)
        )[0]

    def check_key(self, params: dict[str, Any]) -> None:
        """Refuse ``key_<COLUMN>`` parameters that do not name one stored
        row, as :meth:`row` does, reading only the key columns (so no
        DATALINK value is read and no access token issued)."""
        self._keyed(self.primary_key, params)

    def _keyed(self, columns: list[XuisColumn],
               params: dict[str, Any]) -> Result:
        """``columns`` of the one row the ``key_`` parameters name."""
        keys = {k[4:].upper(): v for k, v in params.items() if k.startswith("key_")}
        where = [c for c in self.primary_key if c.name in keys]
        if not keys or len(where) != len(keys):
            raise WebError(f"key_ parameters must name the {self.table.name} key")
        result = self._select(columns, where, [keys[c.name] for c in where])
        if len(result.rows) != 1:
            raise WebError(f"the key matched {len(result.rows)} rows, not 1")
        return result

    def _select(self, columns: list[XuisColumn], where: Sequence[XuisColumn],
                values: Sequence, limit: int = 0) -> Result:
        # colids, as QBE writes them: the engine resolves them without a
        # search; ordering by a column the WHERE pins would do nothing
        sql = f"SELECT {', '.join(c.colid for c in columns)} FROM {self.table.name}"
        if where:
            sql += " WHERE " + " AND ".join(f"{c.colid} = ?" for c in where)
        order = [c.colid for c in self.primary_key if c not in where]
        if order:
            sql += " ORDER BY " + ", ".join(order)
        if limit > 0:
            sql += f" LIMIT {int(limit)}"
        params = tuple(self._bind(c, v) for c, v in zip(where, values))
        return self.db.execute(sql, params)

    def _schema(self):
        """The catalog schema that types request values (None: a SQL view)."""
        name = self.table.name
        return None if self.db.catalog.is_view(name) else self.db.catalog.schema(name)

    def _bind(self, column: XuisColumn, value: Any) -> Any:
        """``value`` (request text) as the engine type of ``column``."""
        schema = self._schema()
        if schema is None:
            return value
        try:
            return schema.column(column.name).type.validate(value)
        except TypeMismatchError as exc:
            raise WebError(f"bad value for {column.colid}: {exc}") from exc


def find_datalink(db: Database, document: XuisDocument,
                  url: str) -> DatalinkValue | None:
    """The DATALINK value stored at ``url`` in a column ``document`` shows,
    read as any page reads it (with a fresh access token); None when no
    visible column holds ``url``."""
    for table in document.visible_tables():
        for column in table.visible_columns():
            if column.type.is_datalink:
                value = TableView(db, document, table.name).value(column, column, url)
                if value is not None:
                    return value
    return None
