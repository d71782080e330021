"""Query By Example.

The generated query form presents, for each visible column of a table, a
checkbox ("return this field"), an operator drop-down and a value box with
sample values to pick from.  Submitting the form produces a
:class:`QbeQuery`, which this module translates into a parameterised
SELECT against the engine.

Paper: "On the query form, the user selects the fields to be returned.
Also for each field present, restrictions including wildcards may be put
on the values of the data."
"""

from __future__ import annotations

from typing import Any

from repro.errors import WebError
from repro.xuis.model import XuisColumn, parse_colid

__all__ = ["QbeQuery", "Restriction", "OPERATORS", "build_query_from_params"]

#: operator choices offered by the form, in display order
OPERATORS = ("=", "<>", "<", "<=", ">", ">=", "LIKE")


class Restriction:
    """One restriction row of the form: ``column <op> value``."""

    __slots__ = ("colid", "op", "value")

    def __init__(self, colid: str, op: str, value: Any) -> None:
        op = op.upper()
        if op not in OPERATORS:
            raise WebError(f"unsupported QBE operator {op!r}")
        self.colid = colid.upper()
        self.op = op
        self.value = value

    def normalised_op(self) -> str:
        """Promote ``=`` with SQL wildcards to LIKE, the QBE convention."""
        if (
            self.op == "="
            and isinstance(self.value, str)
            and ("%" in self.value or "_" in self.value)
        ):
            return "LIKE"
        return self.op

    def __repr__(self) -> str:
        return f"Restriction({self.colid} {self.op} {self.value!r})"


class QbeQuery:
    """A filled-in query form for one table."""

    def __init__(
        self,
        table: str,
        fields: list[str] | None = None,
        restrictions: list[Restriction] | None = None,
        order_by: str | None = None,
        descending: bool = False,
        limit: int | None = None,
        offset: int | None = None,
    ) -> None:
        self.table = table.upper()
        #: colids to return; None/empty = all visible columns
        self.fields = [f.upper() for f in (fields or [])]
        self.restrictions = list(restrictions or [])
        self.order_by = order_by.upper() if order_by else None
        self.descending = descending
        self.limit = limit
        self.offset = offset

    def bind_types(self, schema) -> None:
        """Coerce restriction values (HTML forms deliver strings) to the
        engine types of their columns, using the catalog ``schema``.

        LIKE restrictions stay textual; a value that cannot be coerced is a
        user input error surfaced as :class:`WebError`.
        """
        from repro.errors import TypeMismatchError

        for restriction in self.restrictions:
            if restriction.normalised_op() == "LIKE":
                continue
            _table, column_name = parse_colid(restriction.colid)
            column = schema.column(column_name)
            try:
                restriction.value = column.type.validate(restriction.value)
            except TypeMismatchError as exc:
                raise WebError(
                    f"bad restriction value for {restriction.colid}: {exc}"
                ) from exc

    def to_sql(self, columns: list[XuisColumn] | None = None) -> tuple[str, tuple]:
        """Render as parameterised SQL; returns ``(sql, params)``.

        ``columns`` are what the user may see of the table (a
        :class:`~repro.web.view.TableView`'s): every field, restriction and
        the order must name one of them — hidden attributes cannot be
        smuggled back through hand-crafted parameters — and no fields
        means all of them.  Without ``columns``, no fields means ``*``."""
        fields = self.fields
        if columns is not None:
            visible = {c.colid for c in columns}
            for colid in [*fields, *(r.colid for r in self.restrictions),
                          *filter(None, [self.order_by])]:
                if colid not in visible:
                    raise WebError(f"{colid} is not queryable")
            fields = fields or [c.colid for c in columns]
        select_list = ", ".join(map(_column_expr, fields)) if fields else "*"
        where, params = self._where()
        sql = [f"SELECT {select_list} FROM {self.table}{where}"]
        if self.order_by:
            direction = " DESC" if self.descending else ""
            sql.append(f"ORDER BY {_column_expr(self.order_by)}{direction}")
        if self.limit is not None:
            sql.append(f"LIMIT {int(self.limit)}")
        if self.offset:
            sql.append(f"OFFSET {int(self.offset)}")
        return " ".join(sql), params

    def count_sql(self) -> tuple[str, tuple]:
        """A COUNT(*) over the same restrictions.  ``/search`` does not
        need it: the page query's :attr:`Result.matched_rows` is its
        total, read at the same snapshot as the rows."""
        where, params = self._where()
        return f"SELECT COUNT(*) FROM {self.table}{where}", params

    def _where(self) -> tuple[str, tuple]:
        """The `` WHERE ...`` clause over the restrictions (empty when
        there are none) and its parameters."""
        if not self.restrictions:
            return "", ()
        clauses = [
            f"{_column_expr(r.colid)} {r.normalised_op()} ?"
            for r in self.restrictions
        ]
        return (
            " WHERE " + " AND ".join(clauses),
            tuple(r.value for r in self.restrictions),
        )

    def __repr__(self) -> str:
        return f"QbeQuery({self.table}, {len(self.restrictions)} restriction(s))"


def _column_expr(colid: str) -> str:
    """``TABLE.COLUMN`` colids go into SQL verbatim; bare names pass through."""
    if "." in colid:
        table, column = parse_colid(colid)
        return f"{table}.{column}"
    return colid


def build_query_from_params(table: str, params: dict[str, Any]) -> QbeQuery:
    """Decode an HTML form submission into a :class:`QbeQuery`.

    Form field conventions (what ``render_query_form`` emits):

    * ``show_<COLUMN>`` = "on"       — include the column in the output,
    * ``op_<COLUMN>`` = operator     — restriction operator,
    * ``val_<COLUMN>`` = text        — restriction value ('' = no restriction),
    * ``order_by`` / ``order_dir``   — sorting,
    * ``limit``                      — cap on the rows the search reaches
      (``/search`` pages through at most that many).
    """
    table = table.upper()
    fields: list[str] = []
    restrictions: list[Restriction] = []
    for key, value in params.items():
        if key.startswith("show_") and value in ("on", "true", True):
            fields.append(f"{table}.{key[len('show_'):]}")
        elif key.startswith("val_") and value not in (None, ""):
            column = key[len("val_"):]
            op = params.get(f"op_{column}", "=")
            restrictions.append(Restriction(f"{table}.{column}", op, value))
    order_by = params.get("order_by") or None
    if order_by and "." not in order_by:
        order_by = f"{table}.{order_by}"
    limit_text = params.get("limit")
    limit = None
    if limit_text not in (None, ""):
        try:
            limit = int(limit_text)
        except (TypeError, ValueError):
            raise WebError("limit must be an integer") from None
        if limit < 0:
            raise WebError("limit cannot be negative")
    return QbeQuery(
        table,
        fields=fields,
        restrictions=restrictions,
        order_by=order_by,
        descending=params.get("order_dir") == "desc",
        limit=limit,
    )
