"""Statement-level AST nodes produced by the SQL parser."""

from __future__ import annotations

from typing import Any, Sequence

from repro.sqldb.expressions import Expression
from repro.sqldb.schema import Column, ForeignKey

__all__ = [
    "Statement",
    "CreateTableStmt",
    "DropTableStmt",
    "CreateIndexStmt",
    "DropIndexStmt",
    "InsertStmt",
    "UpdateStmt",
    "DeleteStmt",
    "SelectStmt",
    "SelectItem",
    "TableRef",
    "Join",
    "OrderItem",
    "BeginStmt",
    "CommitStmt",
    "RollbackStmt",
]


class Statement:
    """Base class for parsed statements."""

    #: the statement's own source text, set by the parser: what tracing
    #: and the slow-query log show and what the WAL records for DDL
    sql = ""


class CreateTableStmt(Statement):
    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Sequence[str],
        foreign_keys: Sequence[ForeignKey],
        unique_sets: Sequence[Sequence[str]],
        checks: Sequence[Expression],
        if_not_exists: bool = False,
    ) -> None:
        self.name = name.upper()
        self.columns = list(columns)
        self.primary_key = tuple(c.upper() for c in primary_key)
        self.foreign_keys = list(foreign_keys)
        self.unique_sets = [tuple(c.upper() for c in u) for u in unique_sets]
        self.checks = list(checks)
        self.if_not_exists = if_not_exists


class DropTableStmt(Statement):
    def __init__(self, name: str, if_exists: bool = False) -> None:
        self.name = name.upper()
        self.if_exists = if_exists


class AlterTableStmt(Statement):
    """``ALTER TABLE t ADD [COLUMN] <coldef>`` or ``DROP COLUMN c``."""

    def __init__(self, table: str, action: str,
                 column: "Column | None" = None,
                 column_name: str | None = None) -> None:
        self.table = table.upper()
        self.action = action  # "add" | "drop"
        self.column = column
        self.column_name = column_name.upper() if column_name else None


class CreateViewStmt(Statement):
    def __init__(self, name: str, select: "SelectStmt") -> None:
        self.name = name.upper()
        self.select = select


class DropViewStmt(Statement):
    def __init__(self, name: str, if_exists: bool = False) -> None:
        self.name = name.upper()
        self.if_exists = if_exists


class CreateIndexStmt(Statement):
    def __init__(self, name: str, table: str, columns: Sequence[str], unique: bool) -> None:
        self.name = name.upper()
        self.table = table.upper()
        self.columns = tuple(c.upper() for c in columns)
        self.unique = unique


class DropIndexStmt(Statement):
    def __init__(self, name: str) -> None:
        self.name = name.upper()


class InsertStmt(Statement):
    def __init__(
        self,
        table: str,
        columns: Sequence[str] | None,
        rows: Sequence[Sequence[Expression]],
        select: "SelectStmt | None" = None,
    ) -> None:
        self.table = table.upper()
        self.columns = [c.upper() for c in columns] if columns else None
        self.rows = [list(r) for r in rows]
        #: INSERT ... SELECT source (mutually exclusive with VALUES rows)
        self.select = select


class UpdateStmt(Statement):
    def __init__(
        self,
        table: str,
        assignments: Sequence[tuple[str, Expression]],
        where: Expression | None,
    ) -> None:
        self.table = table.upper()
        self.assignments = [(c.upper(), e) for c, e in assignments]
        self.where = where


class DeleteStmt(Statement):
    def __init__(self, table: str, where: Expression | None) -> None:
        self.table = table.upper()
        self.where = where


class SelectItem:
    """One entry of the select list: an expression with an optional alias,
    or a (possibly table-qualified) ``*``."""

    def __init__(
        self,
        expr: Expression | None,
        alias: str | None = None,
        star_table: str | None = None,
        is_star: bool = False,
    ) -> None:
        self.expr = expr
        self.alias = alias.upper() if alias else None
        self.star_table = star_table.upper() if star_table else None
        self.is_star = is_star


class TableRef:
    """A table in the FROM clause with an optional alias."""

    def __init__(self, name: str, alias: str | None = None) -> None:
        self.name = name.upper()
        self.alias = (alias or name).upper()


class Join:
    """An explicit JOIN clause."""

    def __init__(self, table: TableRef, on: Expression | None, kind: str = "INNER") -> None:
        self.table = table
        self.on = on
        self.kind = kind.upper()  # INNER or LEFT


class OrderItem:
    def __init__(self, expr: Expression, ascending: bool = True) -> None:
        self.expr = expr
        self.ascending = ascending


class SelectStmt(Statement):
    def __init__(
        self,
        items: Sequence[SelectItem],
        tables: Sequence[TableRef],
        joins: Sequence[Join],
        where: Expression | None,
        group_by: Sequence[Expression],
        having: Expression | None,
        order_by: Sequence[OrderItem],
        limit: int | None,
        offset: int | None,
        distinct: bool,
    ) -> None:
        self.items = list(items)
        self.tables = list(tables)
        self.joins = list(joins)
        self.where = where
        self.group_by = list(group_by)
        self.having = having
        self.order_by = list(order_by)
        self.limit = limit
        self.offset = offset
        self.distinct = distinct


class ExplainStmt(Statement):
    """``EXPLAIN [ANALYZE] SELECT ...`` — returns the chosen access paths
    as rows; with ANALYZE the query runs and each step reports measured
    row counts and timings."""

    def __init__(self, select: "SelectStmt", analyze: bool = False) -> None:
        self.select = select
        self.analyze = analyze


class UnionStmt(Statement):
    """``SELECT ... UNION [ALL] SELECT ...`` — a chain of compatible
    selects, deduplicated unless ALL."""

    def __init__(self, selects: Sequence[SelectStmt], all_rows: bool) -> None:
        if len(selects) < 2:
            raise ValueError("UNION needs at least two selects")
        self.selects = list(selects)
        self.all_rows = all_rows


class BeginStmt(Statement):
    pass


class CommitStmt(Statement):
    pass


class RollbackStmt(Statement):
    pass
