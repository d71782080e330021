"""XUIS document model.

The XML User Interface Specification separates *what the interface shows*
from *how the interface is processed*.  This module is the in-memory form:
a tree of tables, columns, type info, sample values, key relationships,
post-processing operations and code-upload permissions — everything the
paper's XUIS fragments carry.

Element-to-class mapping (matching the paper's XML verbatim):

========================  =========================
XML                       class
========================  =========================
``<table>``               :class:`XuisTable`
``<column>``              :class:`XuisColumn`
``<type>``                :class:`XuisType`
``<pk><refby/></pk>``     :class:`XuisPk`
``<fk/>``                 :class:`XuisFk`
``<operation>``           :class:`OperationSpec`
``<if><condition>``       :class:`Condition`
``<location>``            :class:`DatabaseResultLocation` / :class:`UrlLocation`
``<param><variable>``     :class:`ParamSpec` + control classes
``<upload>``              :class:`UploadSpec`
========================  =========================
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import OperationError, TypeMismatchError, XuisError
from repro.sqldb.expressions import BinaryOp, ColumnRef, Like, Literal

__all__ = [
    "XuisDocument",
    "XuisTable",
    "XuisColumn",
    "XuisType",
    "XuisPk",
    "XuisFk",
    "Condition",
    "DatabaseResultLocation",
    "UrlLocation",
    "ParamSpec",
    "SelectControl",
    "RadioControl",
    "InputControl",
    "OperationSpec",
    "UploadSpec",
    "parse_colid",
]

def parse_colid(colid: str) -> tuple[str, str]:
    """Split a ``TABLE.COLUMN`` identifier.

    >>> parse_colid("AUTHOR.AUTHOR_KEY")
    ('AUTHOR', 'AUTHOR_KEY')
    """
    table, sep, column = colid.partition(".")
    if not sep or not table or not column:
        raise XuisError(f"bad colid {colid!r}: expected TABLE.COLUMN")
    return table.upper(), column.upper()


class XuisType:
    """``<type><VARCHAR/><size>30</size></type>``."""

    __slots__ = ("name", "size")

    def __init__(self, name: str, size: int | None = None) -> None:
        self.name = name.upper()
        self.size = size

    @property
    def is_datalink(self) -> bool:
        return self.name == "DATALINK"

    @property
    def is_lob(self) -> bool:
        return self.name in ("BLOB", "CLOB")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, XuisType)
            and self.name == other.name
            and self.size == other.size
        )

    def __repr__(self) -> str:
        return f"XuisType({self.name}{f'({self.size})' if self.size else ''})"


class XuisPk:
    """Primary-key browsing info: which foreign keys refer *back* to this
    column (``<pk><refby tablecolumn="SIMULATION.AUTHOR_KEY"/></pk>``).

    In the generated interface, a value in this column becomes a set of
    hyperlinks retrieving the referencing rows from each table listed.
    """

    __slots__ = ("refby",)

    def __init__(self, refby: Iterable[str] = ()) -> None:
        self.refby = [r.upper() for r in refby]

    def __repr__(self) -> str:
        return f"XuisPk(refby={self.refby})"


class XuisFk:
    """Foreign-key browsing info
    (``<fk tablecolumn="AUTHOR.AUTHOR_KEY" substcolumn="AUTHOR.NAME"/>``).

    ``substcolumn`` is the customisation shown in the paper: display the
    referenced author's *name* instead of the opaque key.
    """

    __slots__ = ("tablecolumn", "substcolumn")

    def __init__(self, tablecolumn: str, substcolumn: str | None = None) -> None:
        self.tablecolumn = tablecolumn.upper()
        self.substcolumn = substcolumn.upper() if substcolumn else None

    def __repr__(self) -> str:
        return f"XuisFk({self.tablecolumn}, subst={self.substcolumn})"


class Condition:
    """One ``<condition colid="..."><eq>'value'</eq></condition>``.

    Conditions gate when an operation/upload applies to a row: e.g. the
    GetImage operation only applies to rows whose SIMULATION_KEY equals
    ``'S19990110150932'``.

    A condition means what the SQL ``WHERE <column> <op> ?`` means: it
    compiles once into a :mod:`repro.sqldb.expressions` closure over a
    one-slot row, so DATE columns parse ISO strings, CHAR padding is
    ignored and NULL never matches.
    """

    #: XUIS operator element -> SQL operator
    SQL_OPS = {
        "eq": "=", "ne": "<>", "lt": "<", "le": "<=",
        "gt": ">", "ge": ">=", "like": "LIKE",
    }

    __slots__ = ("colid", "op", "value", "_column", "_test")

    def __init__(self, colid: str, op: str, value: Any) -> None:
        op = op.lower()
        if op not in self.SQL_OPS:
            raise XuisError(f"unknown condition operator {op!r}")
        self.colid = colid.upper()
        self.op = op
        self.value = value
        self._column = self.colid.rpartition(".")[2]
        slot, expected = ColumnRef("V"), Literal(value)
        if op == "like":
            node = Like(slot, expected)
        else:
            node = BinaryOp(self.sql_op, slot, expected)
        self._test = node.compile({"V": 0}.get)

    @property
    def sql_op(self) -> str:
        return self.SQL_OPS[self.op]

    def matches(self, row: dict[str, Any]) -> bool:
        """Evaluate against a row dict keyed by ``TABLE.COLUMN`` (and bare
        column names); a row without the column is not matched."""
        if self.colid in row:
            actual = row[self.colid]
        elif self._column in row:
            actual = row[self._column]
        else:
            return False
        try:
            return self._test((actual,)) is True
        except TypeMismatchError as exc:
            raise XuisError(f"condition on {self.colid}: {exc}") from None

    def __repr__(self) -> str:
        return f"Condition({self.colid} {self.op} {self.value!r})"


class DatabaseResultLocation:
    """``<location><database.result colid="...">...</database.result>``.

    The operation's executable is itself archived as a DATALINK: resolve it
    by querying the named column with the given conditions (e.g. the
    CODE_FILE row whose CODE_NAME = 'GetImage.jar').
    """

    __slots__ = ("colid", "conditions")

    def __init__(self, colid: str, conditions: Iterable[Condition] = ()) -> None:
        self.colid = colid.upper()
        self.conditions = list(conditions)

    def __repr__(self) -> str:
        return f"DatabaseResultLocation({self.colid}, {self.conditions})"


class UrlLocation:
    """``<location><URL>http://...</URL></location>`` — a servlet/CGI
    post-processing service running near a file server (the paper's NCSA
    Scientific Data Browser example)."""

    __slots__ = ("url",)

    def __init__(self, url: str) -> None:
        self.url = url

    def __repr__(self) -> str:
        return f"UrlLocation({self.url!r})"


class SelectControl:
    """``<select name="slice" size="4"><option value="x0">x0=0.0</option>``."""

    __slots__ = ("name", "size", "options")

    def __init__(self, name: str, options: Iterable[tuple[str, str]], size: int | None = None) -> None:
        self.name = name
        self.size = size
        self.options = list(options)

    def default_value(self) -> str | None:
        return self.options[0][0] if self.options else None

    def accepts(self, value: str) -> bool:
        return any(v == value for v, _label in self.options)


class RadioControl:
    """A group of ``<input type="radio" name="..." value="...">label``."""

    __slots__ = ("name", "options")

    def __init__(self, name: str, options: Iterable[tuple[str, str]]) -> None:
        self.name = name
        self.options = list(options)

    def default_value(self) -> str | None:
        return self.options[0][0] if self.options else None

    def accepts(self, value: str) -> bool:
        return any(v == value for v, _label in self.options)


class InputControl:
    """A free-form ``<input type="text" name="..."/>`` parameter."""

    __slots__ = ("name", "input_type", "default")

    def __init__(self, name: str, input_type: str = "text", default: str = "") -> None:
        self.name = name
        self.input_type = input_type
        self.default = default

    def default_value(self) -> str:
        return self.default

    def accepts(self, value: str) -> bool:
        return True


class ParamSpec:
    """``<param><variable><description>...</description> <control/>``."""

    __slots__ = ("description", "control")

    def __init__(self, description: str, control) -> None:
        self.description = description
        self.control = control

    @property
    def name(self) -> str:
        return self.control.name


class OperationSpec:
    """A server-side post-processing operation attached to a column.

    Mirrors ``<operation name="GetImage" type="JAVA" filename="GetImage.class"
    format="jar" guest.access="true" column="false">``:

    * ``conditions`` — the ``<if>`` block restricting which rows offer it,
    * ``location`` — where the executable lives (archived DATALINK or URL),
    * ``params`` — extra user inputs, rendered as an HTML form at
      invocation time,
    * ``column_wide`` — True when the operation applies to the whole column
      (all matching datasets) rather than a single row's file.
    """

    __slots__ = (
        "name",
        "type",
        "filename",
        "format",
        "guest_access",
        "column_wide",
        "conditions",
        "location",
        "params",
        "description",
        "chain",
    )

    def __init__(
        self,
        name: str,
        type: str = "",
        filename: str = "",
        format: str = "",
        guest_access: bool = False,
        column_wide: bool = False,
        conditions: Iterable[Condition] = (),
        location=None,
        params: Iterable[ParamSpec] = (),
        description: str = "",
        chain: Iterable[str] = (),
    ) -> None:
        if not name:
            raise XuisError("operation needs a name")
        self.name = name
        self.type = type.upper()
        self.filename = filename
        self.format = format
        self.guest_access = guest_access
        self.column_wide = column_wide
        self.conditions = list(conditions)
        self.location = location
        self.params = list(params)
        self.description = description
        #: extended-DTD feature (paper future work "operation chaining"):
        #: names of operations on the same column to run in sequence, each
        #: consuming the previous one's output.  When set, ``location`` is
        #: unused — the steps provide their own code.
        self.chain = [c for c in chain]

    @property
    def is_chain(self) -> bool:
        return bool(self.chain)

    def applies_to(self, row: dict[str, Any]) -> bool:
        """All ``<if>`` conditions must hold (AND semantics)."""
        return all(cond.matches(row) for cond in self.conditions)

    def __repr__(self) -> str:
        return f"OperationSpec({self.name!r}, type={self.type!r})"


class UploadSpec:
    """``<upload type="JAVA" format="jar" guest.access="false">`` — user
    code upload permitted against this DATALINK column, gated by ``<if>``
    conditions and denied to guest users when ``guest_access`` is False."""

    __slots__ = ("type", "format", "guest_access", "column_wide", "conditions")

    def __init__(
        self,
        type: str = "JAVA",
        format: str = "jar",
        guest_access: bool = False,
        column_wide: bool = False,
        conditions: Iterable[Condition] = (),
    ) -> None:
        self.type = type.upper()
        self.format = format
        self.guest_access = guest_access
        self.column_wide = column_wide
        self.conditions = list(conditions)

    def applies_to(self, row: dict[str, Any]) -> bool:
        return all(cond.matches(row) for cond in self.conditions)


class XuisColumn:
    """One ``<column>`` element."""

    def __init__(
        self,
        name: str,
        colid: str,
        type: XuisType,
        alias: str | None = None,
        hidden: bool = False,
        samples: Iterable[str] = (),
        pk: XuisPk | None = None,
        fk: XuisFk | None = None,
        operations: Iterable[OperationSpec] = (),
        upload: UploadSpec | None = None,
    ) -> None:
        self.name = name.upper()
        self.colid = colid.upper()
        self.type = type
        self.alias = alias
        self.hidden = hidden
        self.samples = list(samples)
        self.pk = pk
        self.fk = fk
        self.operations = list(operations)
        self.upload = upload

    @property
    def display_name(self) -> str:
        return self.alias or self.name

    def operation(self, name: str) -> OperationSpec:
        """The operation ``name`` this column lists; any other is refused."""
        for operation in self.operations:
            if operation.name == name:
                return operation
        raise OperationError(f"no operation {name!r} on column {self.colid}")

    def __repr__(self) -> str:
        return f"XuisColumn({self.colid!r}, {self.type!r})"


class XuisTable:
    """One ``<table>`` element."""

    def __init__(
        self,
        name: str,
        primary_key: Iterable[str] = (),
        alias: str | None = None,
        hidden: bool = False,
        columns: Iterable[XuisColumn] = (),
    ) -> None:
        self.name = name.upper()
        #: colids, e.g. ["RESULT_FILE.FILE_NAME", "RESULT_FILE.SIMULATION_KEY"]
        self.primary_key = [c.upper() for c in primary_key]
        self.alias = alias
        self.hidden = hidden
        self.columns = list(columns)

    @property
    def display_name(self) -> str:
        return self.alias or self.name

    def column(self, name: str) -> XuisColumn:
        name = name.upper()
        for column in self.columns:
            if column.name == name:
                return column
        raise XuisError(f"no column {name} in XUIS table {self.name}")

    def has_column(self, name: str) -> bool:
        name = name.upper()
        return any(c.name == name for c in self.columns)

    def visible_columns(self) -> list[XuisColumn]:
        return [c for c in self.columns if not c.hidden]

    def __repr__(self) -> str:
        return f"XuisTable({self.name!r}, {len(self.columns)} columns)"


class XuisDocument:
    """The whole specification: the root ``<xuis>`` element."""

    def __init__(self, tables: Iterable[XuisTable] = (), title: str = "EASIA Archive") -> None:
        self.tables = list(tables)
        self.title = title

    def table(self, name: str) -> XuisTable:
        name = name.upper()
        for table in self.tables:
            if table.name == name:
                return table
        raise XuisError(f"no table {name} in XUIS document")

    def has_table(self, name: str) -> bool:
        name = name.upper()
        return any(t.name == name for t in self.tables)

    def column(self, colid: str) -> XuisColumn:
        table_name, column_name = parse_colid(colid)
        return self.table(table_name).column(column_name)

    def visible_tables(self) -> list[XuisTable]:
        return [t for t in self.tables if not t.hidden]

    def all_operations(self) -> list[tuple[XuisColumn, OperationSpec]]:
        """Every operation in the document with its owning column."""
        out = []
        for table in self.tables:
            for column in table.columns:
                for operation in column.operations:
                    out.append((column, operation))
        return out

    def __repr__(self) -> str:
        return f"XuisDocument({len(self.tables)} tables)"
