"""System catalog.

Tracks every table's schema and provides the metadata queries the rest of
EASIA is driven by.  The paper's interface generator works purely from
"referential integrity constraints in the DB catalogue metadata"; the
methods here (:meth:`Catalog.references_to`, :meth:`Catalog.foreign_keys_of`)
are exactly what the XUIS generator and the browse-link builder consume.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import CatalogError
from repro.sqldb.parser.ast_nodes import (
    AlterTableStmt,
    CreateIndexStmt,
    CreateTableStmt,
    CreateViewStmt,
    DropIndexStmt,
    DropTableStmt,
    DropViewStmt,
)
from repro.sqldb.schema import Column, ForeignKey, TableSchema
from repro.sqldb.storage import HashIndex, SortedIndex, Table, VersionClock
from repro.sqldb.types import BooleanType, IntegerType, VarcharType

__all__ = ["Catalog", "SYSTEM_TABLES"]

#: queryable catalog views, in the style of DB2's SYSCAT — these are what
#: schema-driven tools (the paper's DBbrowse lineage) introspect via SQL
SYSTEM_TABLES = (
    "SYSTABLES",
    "SYSCOLUMNS",
    "SYSKEYS",
    "SYSFOREIGNKEYS",
    "SYSINDEXES",
    "SYSVIEWS",
)


class Catalog:
    """All table definitions plus their storage objects."""

    def __init__(self, clock: VersionClock | None = None) -> None:
        self._tables: dict[str, Table] = {}
        #: index made by CREATE INDEX -> its table (a table's constraint
        #: indexes come and go with the table's own DDL)
        self._index_owner: dict[str, str] = {}
        #: view name -> (SelectStmt, original DDL text)
        self._views: dict[str, tuple] = {}
        #: shared version clock installed on every table's heap, so one
        #: commit sequence orders snapshot visibility across the database
        self.clock = clock if clock is not None else VersionClock()

    # -- definition --------------------------------------------------------

    def apply(self, stmt) -> None:
        """Apply one parsed DDL statement to the catalog.

        The one place a schema change happens, whether a live statement,
        WAL replay or an image load makes it.  Validation (the view
        dry-run, the transaction rules), releasing linked files, and the
        undo and redo records are the live statement's.
        """
        if isinstance(stmt, CreateTableStmt):
            self.create_table(TableSchema(
                stmt.name,
                stmt.columns,
                primary_key=stmt.primary_key,
                foreign_keys=stmt.foreign_keys,
                unique_sets=stmt.unique_sets,
                checks=stmt.checks,
            ))
        elif isinstance(stmt, DropTableStmt):
            self.drop_table(stmt.name)
        elif isinstance(stmt, AlterTableStmt):
            table = self.writable_table(stmt.table)
            if stmt.action == "drop":
                table.drop_column(stmt.column_name)
            else:
                table.add_column(stmt.column)
        elif isinstance(stmt, CreateIndexStmt):
            self.create_index(stmt.name, stmt.table, stmt.columns, stmt.unique)
        elif isinstance(stmt, DropIndexStmt):
            self.drop_index(stmt.name)
        elif isinstance(stmt, CreateViewStmt):
            self.create_view(stmt.name, stmt.select, stmt.sql)
        elif isinstance(stmt, DropViewStmt):
            self.drop_view(stmt.name)
        else:
            raise CatalogError(f"{type(stmt).__name__} is not a schema change")

    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in SYSTEM_TABLES:
            raise CatalogError(f"{schema.name} is a reserved system table name")
        if schema.name in self._tables:
            raise CatalogError(f"table {schema.name} already exists")
        self._validate_foreign_keys(schema)
        table = Table(schema, clock=self.clock)
        self._tables[schema.name] = table
        return table

    def _validate_foreign_keys(self, schema: TableSchema) -> None:
        for fk in schema.foreign_keys:
            if fk.ref_table == schema.name:
                ref_schema = schema  # self-referencing FK
            else:
                ref_schema = self.schema(fk.ref_table)
            for col in fk.ref_columns:
                if not ref_schema.has_column(col):
                    raise CatalogError(
                        f"foreign key references unknown column "
                        f"{fk.ref_table}.{col}"
                    )
            # The referenced columns must be the PK or a unique set so that
            # each child row maps to at most one parent.
            ref_cols = tuple(c.upper() for c in fk.ref_columns)
            targets = [ref_schema.primary_key, *ref_schema.unique_sets]
            if ref_cols not in targets:
                raise CatalogError(
                    f"foreign key must reference a primary key or unique "
                    f"columns of {fk.ref_table}, got ({', '.join(ref_cols)})"
                )

    def drop_table(self, name: str) -> Table:
        name = name.upper()
        table = self.writable_table(name)
        referencing = [
            fk
            for other in self._tables.values()
            if other.schema.name != name
            for fk in other.schema.foreign_keys
            if fk.ref_table == name
        ]
        if referencing:
            raise CatalogError(
                f"cannot drop {name}: referenced by foreign key(s) "
                f"{[fk.name for fk in referencing]}"
            )
        for index_name in self.index_names(name):
            del self._index_owner[index_name]
        del self._tables[name]
        return table

    # -- views ----------------------------------------------------------------

    def create_view(self, name: str, select, ddl_text: str) -> None:
        """Register a named stored SELECT."""
        name = name.upper()
        if name in SYSTEM_TABLES:
            raise CatalogError(f"{name} is a reserved system table name")
        if name in self._tables or name in self._views:
            raise CatalogError(f"table or view {name} already exists")
        self._views[name] = (select, ddl_text)

    def drop_view(self, name: str) -> None:
        self._view(name)
        del self._views[name.upper()]

    def is_view(self, name: str) -> bool:
        return name.upper() in self._views

    def _view(self, name: str) -> tuple:
        try:
            return self._views[name.upper()]
        except KeyError:
            raise CatalogError(f"no view named {name.upper()}") from None

    def view_select(self, name: str):
        return self._view(name)[0]

    def view_ddl(self, name: str) -> str:
        return self._view(name)[1]

    def view_names(self) -> list[str]:
        return sorted(self._views)

    def create_index(self, index_name: str, table_name: str,
                     columns, unique: bool) -> None:
        """CREATE [UNIQUE] INDEX: a hash index when unique, else sorted."""
        if index_name in self._index_owner:
            raise CatalogError(f"index {index_name} already exists")
        index_cls = HashIndex if unique else SortedIndex
        self.writable_table(table_name).add_index(
            index_cls(index_name, columns, unique=unique)
        )
        self._index_owner[index_name] = table_name.upper()

    def drop_index(self, index_name: str) -> None:
        owner = self._index_table(index_name)
        del self._index_owner[index_name.upper()]
        owner.drop_index(index_name.upper())

    def _index_table(self, index_name: str) -> Table:
        owner = self._index_owner.get(index_name.upper())
        if owner is None:
            raise CatalogError(
                f"no index named {index_name.upper()} made by CREATE INDEX"
            )
        return self._tables[owner]

    def index_names(self, table_name: str | None = None) -> list[str]:
        """The indexes made by CREATE INDEX (on ``table_name``, if given)."""
        return sorted(
            name for name, owner in self._index_owner.items()
            if table_name is None or owner == table_name
        )

    def index_ddl(self, index_name: str) -> str:
        """The CREATE INDEX statement that makes ``index_name`` again."""
        table = self._index_table(index_name)
        index = table.indexes[index_name.upper()]
        unique = "UNIQUE " if index.unique else ""
        return (
            f"CREATE {unique}INDEX {index.name} ON {table.schema.name} "
            f"({', '.join(index.columns)})"
        )

    # -- lookup --------------------------------------------------------------

    def table(self, name: str) -> Table:
        name = name.upper()
        if name in SYSTEM_TABLES:
            return self.system_table(name)
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no table named {name}") from None

    def writable_table(self, name: str) -> Table:
        """The named base table; a system catalog view is refused."""
        if self.is_system_table(name):
            raise CatalogError(f"{name.upper()} is a read-only system catalog view")
        return self.table(name)

    def schema(self, name: str) -> TableSchema:
        return self.table(name).schema

    def has_table(self, name: str) -> bool:
        name = name.upper()
        return name in self._tables or name in SYSTEM_TABLES

    @staticmethod
    def is_system_table(name: str) -> bool:
        return name.upper() in SYSTEM_TABLES

    # -- system catalog views -----------------------------------------------

    def system_table(self, name: str, snapshot: int | None = None) -> Table:
        """Synthesise a read-only catalog view as a transient table.

        Rebuilt on every access so it always reflects the current schema;
        SYSTABLES counts the rows visible at ``snapshot`` (the live rows
        when None).  The database layer refuses DML against these names.
        """
        builders = {
            "SYSTABLES": lambda: self._systables(snapshot),
            "SYSCOLUMNS": self._syscolumns,
            "SYSKEYS": self._syskeys,
            "SYSFOREIGNKEYS": self._sysforeignkeys,
            "SYSINDEXES": self._sysindexes,
            "SYSVIEWS": self._sysviews,
        }
        schema, rows = builders[name.upper()]()
        table = Table(schema)
        for row in rows:
            table.insert(row)
        return table

    def _systables(self, snapshot: int | None):
        schema = TableSchema(
            "SYSTABLES",
            [
                Column("TABLE_NAME", VarcharType(64)),
                Column("COLUMN_COUNT", IntegerType()),
                Column("ROW_COUNT", IntegerType()),
                Column("PRIMARY_KEY", VarcharType(255)),
            ],
        )
        rows = [
            (
                table.schema.name,
                len(table.schema.columns),
                len(table if snapshot is None else table.heap.scan_at(snapshot)),
                ", ".join(table.schema.primary_key),
            )
            for table in self.tables()
        ]
        return schema, rows

    def _syscolumns(self):
        schema = TableSchema(
            "SYSCOLUMNS",
            [
                Column("TABLE_NAME", VarcharType(64)),
                Column("COLUMN_NAME", VarcharType(64)),
                Column("ORDINAL", IntegerType()),
                Column("TYPE_NAME", VarcharType(20)),
                Column("TYPE_SIZE", IntegerType()),
                Column("NULLABLE", BooleanType()),
                Column("IS_DATALINK", BooleanType()),
            ],
        )
        rows = []
        for table in self.tables():
            for i, column in enumerate(table.schema.columns):
                size = getattr(column.type, "size", None)
                rows.append(
                    (
                        table.schema.name,
                        column.name,
                        i + 1,
                        column.type.name,
                        size,
                        column.nullable,
                        column.is_datalink,
                    )
                )
        return schema, rows

    def _syskeys(self):
        schema = TableSchema(
            "SYSKEYS",
            [
                Column("TABLE_NAME", VarcharType(64)),
                Column("CONSTRAINT_TYPE", VarcharType(10)),
                Column("COLUMN_NAME", VarcharType(64)),
                Column("POSITION", IntegerType()),
            ],
        )
        rows = []
        for table in self.tables():
            for i, col in enumerate(table.schema.primary_key):
                rows.append((table.schema.name, "PRIMARY", col, i + 1))
            for uniq in table.schema.unique_sets:
                for i, col in enumerate(uniq):
                    rows.append((table.schema.name, "UNIQUE", col, i + 1))
        return schema, rows

    def _sysforeignkeys(self):
        schema = TableSchema(
            "SYSFOREIGNKEYS",
            [
                Column("TABLE_NAME", VarcharType(64)),
                Column("FK_NAME", VarcharType(64)),
                Column("COLUMN_NAME", VarcharType(64)),
                Column("REF_TABLE", VarcharType(64)),
                Column("REF_COLUMN", VarcharType(64)),
                Column("POSITION", IntegerType()),
            ],
        )
        rows = []
        for table in self.tables():
            for fk in table.schema.foreign_keys:
                for i, (col, ref) in enumerate(zip(fk.columns, fk.ref_columns)):
                    rows.append(
                        (table.schema.name, fk.name, col, fk.ref_table, ref, i + 1)
                    )
        return schema, rows

    def _sysindexes(self):
        schema = TableSchema(
            "SYSINDEXES",
            [
                Column("TABLE_NAME", VarcharType(64)),
                Column("INDEX_NAME", VarcharType(64)),
                Column("COLUMN_NAME", VarcharType(64)),
                Column("IS_UNIQUE", BooleanType()),
                Column("POSITION", IntegerType()),
            ],
        )
        rows = []
        for table in self.tables():
            for index_name, index in sorted(table.indexes.items()):
                for i, col in enumerate(index.columns):
                    rows.append(
                        (table.schema.name, index_name, col, index.unique, i + 1)
                    )
        return schema, rows

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def tables(self) -> Iterator[Table]:
        for name in self.table_names():
            yield self._tables[name]

    # -- referential metadata (drives XUIS + browsing) -------------------------

    def foreign_keys_of(self, table: str) -> list[ForeignKey]:
        """Outgoing foreign keys of ``table`` (enables FK browsing: a link
        on AUTHOR_KEY retrieves the full author row)."""
        return list(self.schema(table).foreign_keys)

    def references_to(self, table: str) -> list[tuple[str, ForeignKey]]:
        """Incoming references: ``(child_table, fk)`` pairs whose foreign
        key points at ``table``.  Enables PK browsing: SIMULATION_KEY links
        to RESULT_FILE, CODE_FILE and VISUALISATION_FILE."""
        table = table.upper()
        out = []
        for child in self.tables():
            for fk in child.schema.foreign_keys:
                if fk.ref_table == table:
                    out.append((child.schema.name, fk))
        return out

    def datalink_columns(self, table: str) -> list:
        """DATALINK columns of ``table`` (drive link-management hooks)."""
        return self.schema(table).datalink_columns

    def sample_values(self, table: str, column: str, limit: int = 3) -> list:
        """Up to ``limit`` distinct non-NULL values, for XUIS ``<samples>``."""
        tbl = self.table(table)
        index = tbl.schema.column_index(column)
        seen = []
        for _, row in tbl.scan():
            value = row[index]
            if value is None or value in seen:
                continue
            seen.append(value)
            if len(seen) >= limit:
                break
        return seen

    def _sysviews(self):
        schema = TableSchema(
            "SYSVIEWS",
            [
                Column("VIEW_NAME", VarcharType(64)),
                Column("DEFINITION", VarcharType(4096)),
            ],
        )
        rows = [(name, self._views[name][1]) for name in self.view_names()]
        return schema, rows

    def ddl_script(self) -> str:
        """The schema as one script: table definitions parents first, then
        every index made by CREATE INDEX, then the views, each as its own
        CREATE VIEW text.  Checkpoints and backups store it, and
        :meth:`apply` of each statement rebuilds the schema (views are
        stored unvalidated, so their order does not matter)."""
        emitted: list[str] = []
        remaining = dict(self._tables)
        while remaining:
            progressed = False
            for name in sorted(remaining):
                schema = remaining[name].schema
                deps = {
                    fk.ref_table
                    for fk in schema.foreign_keys
                    if fk.ref_table != name
                }
                if deps <= set(emitted):
                    emitted.append(name)
                    del remaining[name]
                    progressed = True
            if not progressed:
                # FK cycle: emit the rest in name order.
                for name in sorted(remaining):
                    emitted.append(name)
                remaining.clear()
        statements = [self._tables[name].schema.ddl() for name in emitted]
        statements.extend(self.index_ddl(name) for name in self.index_names())
        statements.extend(self._views[name][1] for name in self.view_names())
        return ";\n\n".join(statements) + (";\n" if statements else "")
