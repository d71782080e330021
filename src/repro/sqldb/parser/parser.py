"""Recursive-descent parser for the supported SQL subset.

Grammar highlights:

* ``CREATE TABLE`` with column types (including ``DATALINK`` plus the full
  SQL/MED option list), ``NOT NULL``, ``DEFAULT``, inline and table-level
  ``PRIMARY KEY`` / ``UNIQUE`` / ``FOREIGN KEY ... REFERENCES`` / ``CHECK``,
* ``CREATE [UNIQUE] INDEX`` / ``DROP INDEX`` / ``DROP TABLE``,
* ``INSERT`` (column list optional, multiple VALUES rows),
* ``UPDATE ... SET ... WHERE``, ``DELETE FROM ... WHERE``,
* ``SELECT [DISTINCT]`` with expressions, aliases, ``*`` and ``t.*``,
  comma-separated FROM lists, ``[INNER|LEFT] JOIN ... ON``, ``WHERE``,
  ``GROUP BY`` + aggregates + ``HAVING``, ``ORDER BY ... ASC|DESC``,
  ``LIMIT n [OFFSET m]``,
* ``BEGIN`` / ``COMMIT`` / ``ROLLBACK``,
* ``?`` positional parameters anywhere an expression is allowed.
"""

from __future__ import annotations

import datetime as _dt

from repro.errors import SqlSyntaxError
from repro.sqldb.expressions import (
    AGGREGATE_FUNCTIONS,
    AggregateCall,
    Between,
    BinaryOp,
    CaseExpression,
    ColumnRef,
    ExistsSubquery,
    Expression,
    FunctionCall,
    InList,
    InSubquery,
    IsNull,
    Like,
    Literal,
    Parameter,
    Star,
    Subquery,
    UnaryOp,
)
from repro.sqldb.med import DatalinkSpec
from repro.sqldb.parser import lexer
from repro.sqldb.parser.ast_nodes import (
    AlterTableStmt,
    BeginStmt,
    CommitStmt,
    CreateIndexStmt,
    CreateTableStmt,
    CreateViewStmt,
    DeleteStmt,
    DropIndexStmt,
    DropTableStmt,
    DropViewStmt,
    ExplainStmt,
    InsertStmt,
    Join,
    OrderItem,
    RollbackStmt,
    SelectItem,
    SelectStmt,
    Statement,
    TableRef,
    UnionStmt,
    UpdateStmt,
)
from repro.sqldb.schema import Column, ForeignKey
from repro.sqldb.types import DatalinkType, type_from_name

__all__ = ["parse_sql", "parse_script"]

_SIZED_TYPE_NAMES = {"VARCHAR", "CHAR"}
_TYPE_NAMES = {
    "INTEGER", "INT", "BIGINT", "SMALLINT", "DOUBLE", "FLOAT", "REAL",
    "BOOLEAN", "DATE", "TIMESTAMP", "BLOB", "CLOB", "DATALINK",
} | _SIZED_TYPE_NAMES

# keywords that terminate a FROM-clause table list
_CLAUSE_KEYWORDS = {
    "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET",
    "JOIN", "INNER", "LEFT", "ON", "AND", "OR", "UNION",
}

# words that may never be bare column references — catches malformed SQL
# like "SELECT FROM t" early instead of treating FROM as a column
_RESERVED = {
    "SELECT", "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT",
    "OFFSET", "JOIN", "INNER", "LEFT", "ON", "AND", "OR", "NOT",
    "INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "INTO", "VALUES",
    "SET", "AS", "DISTINCT", "UNION", "IS", "LIKE", "IN", "BETWEEN",
    "PRIMARY", "FOREIGN", "REFERENCES", "CHECK", "DEFAULT", "TABLE",
    "INDEX", "BEGIN", "COMMIT", "ROLLBACK", "BY", "ASC", "DESC",
    "CASE", "WHEN", "THEN", "ELSE", "END", "EXISTS", "VIEW",
}


def parse_sql(sql: str) -> Statement:
    """Parse a single SQL statement; ``stmt.sql`` is its source text."""
    parser = _Parser(sql)
    stmt = parser.parse_sourced_statement()
    parser.accept_op(";")
    parser.expect_eof()
    return stmt


def parse_script(sql: str) -> list[Statement]:
    """Parse a ``;``-separated script into a statement list.

    Each statement's ``sql`` is its own slice of the script, without the
    terminating ``;``, so tracing, the slow-query log and the WAL see the
    SQL that produced it.
    """
    parser = _Parser(sql)
    out: list[Statement] = []
    while not parser.at_eof():
        out.append(parser.parse_sourced_statement())
        if not parser.accept_op(";"):
            break
    parser.expect_eof()
    return out


class _Parser:
    def __init__(self, sql: str) -> None:
        self.sql = sql
        self.tokens = lexer.tokenize(sql)
        self.pos = 0
        self._param_count = 0

    # -- token helpers -------------------------------------------------------

    def peek(self, offset: int = 0) -> lexer.Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> lexer.Token:
        token = self.tokens[self.pos]
        if token.kind != lexer.EOF:
            self.pos += 1
        return token

    def at_eof(self) -> bool:
        return self.peek().kind == lexer.EOF

    def error(self, message: str) -> SqlSyntaxError:
        token = self.peek()
        where = f" near {token.value!r}" if token.value else " at end of input"
        return SqlSyntaxError(message + where, token.position)

    def accept_kw(self, *keywords: str) -> bool:
        """Consume the next token(s) if they match the keyword sequence."""
        for i, keyword in enumerate(keywords):
            if not self.peek(i).matches(keyword):
                return False
        self.pos += len(keywords)
        return True

    def expect_kw(self, *keywords: str) -> None:
        if not self.accept_kw(*keywords):
            raise self.error(f"expected {' '.join(keywords)}")

    def accept_op(self, op: str) -> bool:
        token = self.peek()
        if token.kind == lexer.OP and token.value == op:
            self.pos += 1
            return True
        return False

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            raise self.error(f"expected {op!r}")

    def expect_ident(self, what: str = "identifier") -> str:
        token = self.peek()
        if token.kind != lexer.IDENT:
            raise self.error(f"expected {what}")
        self.advance()
        return token.value

    def expect_eof(self) -> None:
        if not self.at_eof():
            raise self.error("unexpected trailing input")

    def peek_kw(self, keyword: str, offset: int = 0) -> bool:
        return self.peek(offset).matches(keyword)

    # -- statements ----------------------------------------------------------

    def parse_sourced_statement(self) -> Statement:
        """One statement, carrying its slice of the source as ``sql``."""
        start = self.peek().position
        stmt = self.parse_statement()
        stmt.sql = self.sql[start:self.peek().position].strip()
        return stmt

    def parse_statement(self) -> Statement:
        token = self.peek()
        if token.kind != lexer.IDENT:
            raise self.error("expected a statement")
        head = token.upper
        if head == "CREATE":
            return self._parse_create()
        if head == "ALTER":
            return self._parse_alter()
        if head == "DROP":
            return self._parse_drop()
        if head == "INSERT":
            return self._parse_insert()
        if head == "UPDATE":
            return self._parse_update()
        if head == "DELETE":
            return self._parse_delete()
        if head == "SELECT":
            return self._parse_select_or_union()
        if head == "EXPLAIN":
            self.advance()
            analyze = self.accept_kw("ANALYZE")
            inner = self.parse_statement()
            if not isinstance(inner, SelectStmt):
                raise self.error("EXPLAIN supports SELECT only")
            return ExplainStmt(inner, analyze=analyze)
        if head in ("BEGIN", "START"):
            self.advance()
            self.accept_kw("TRANSACTION") or self.accept_kw("WORK")
            return BeginStmt()
        if head == "COMMIT":
            self.advance()
            self.accept_kw("TRANSACTION") or self.accept_kw("WORK")
            return CommitStmt()
        if head == "ROLLBACK":
            self.advance()
            self.accept_kw("TRANSACTION") or self.accept_kw("WORK")
            return RollbackStmt()
        raise self.error(f"unsupported statement {head}")

    # -- DDL -----------------------------------------------------------------

    def _parse_create(self) -> Statement:
        self.expect_kw("CREATE")
        if self.peek_kw("TABLE"):
            return self._parse_create_table()
        if self.accept_kw("VIEW"):
            name = self.expect_ident("view name")
            self.expect_kw("AS")
            return CreateViewStmt(name, self._parse_select())
        unique = self.accept_kw("UNIQUE")
        if self.accept_kw("INDEX"):
            name = self.expect_ident("index name")
            self.expect_kw("ON")
            table = self.expect_ident("table name")
            self.expect_op("(")
            columns = [self.expect_ident("column name")]
            while self.accept_op(","):
                columns.append(self.expect_ident("column name"))
            self.expect_op(")")
            return CreateIndexStmt(name, table, columns, unique)
        raise self.error("expected TABLE or [UNIQUE] INDEX after CREATE")

    def _parse_create_table(self) -> CreateTableStmt:
        self.expect_kw("TABLE")
        if_not_exists = self.accept_kw("IF", "NOT", "EXISTS")
        name = self.expect_ident("table name")
        self.expect_op("(")

        columns: list[Column] = []
        primary_key: tuple[str, ...] = ()
        foreign_keys: list[ForeignKey] = []
        unique_sets: list[tuple[str, ...]] = []
        checks: list[Expression] = []

        while True:
            if self.accept_kw("PRIMARY", "KEY"):
                if primary_key:
                    raise self.error("duplicate PRIMARY KEY clause")
                primary_key = tuple(self._parse_paren_name_list())
            elif self.accept_kw("FOREIGN", "KEY"):
                cols = self._parse_paren_name_list()
                self.expect_kw("REFERENCES")
                ref_table = self.expect_ident("referenced table")
                ref_cols = self._parse_paren_name_list()
                foreign_keys.append(ForeignKey(cols, ref_table, ref_cols))
            elif self.accept_kw("UNIQUE"):
                unique_sets.append(tuple(self._parse_paren_name_list()))
            elif self.accept_kw("CHECK"):
                self.expect_op("(")
                checks.append(self.parse_expression())
                self.expect_op(")")
            else:
                column, inline = self._parse_column_def()
                columns.append(column)
                if inline.get("primary_key"):
                    if primary_key:
                        raise self.error("duplicate PRIMARY KEY clause")
                    primary_key = (column.name,)
                if inline.get("unique"):
                    unique_sets.append((column.name,))
                if "references" in inline:
                    ref_table, ref_col = inline["references"]
                    foreign_keys.append(
                        ForeignKey([column.name], ref_table, [ref_col])
                    )
                if "check" in inline:
                    checks.append(inline["check"])
            if not self.accept_op(","):
                break
        self.expect_op(")")
        return CreateTableStmt(
            name, columns, primary_key, foreign_keys, unique_sets, checks,
            if_not_exists,
        )

    def _parse_paren_name_list(self) -> list[str]:
        self.expect_op("(")
        names = [self.expect_ident("column name")]
        while self.accept_op(","):
            names.append(self.expect_ident("column name"))
        self.expect_op(")")
        return names

    def _parse_column_def(self) -> tuple[Column, dict]:
        name = self.expect_ident("column name")
        type_token = self.peek()
        if type_token.kind != lexer.IDENT or type_token.upper not in _TYPE_NAMES:
            raise self.error(f"expected a type for column {name}")
        self.advance()
        type_name = type_token.upper
        size = None
        if self.accept_op("("):
            size_token = self.advance()
            if size_token.kind != lexer.NUMBER:
                raise self.error("expected a size")
            size = int(size_token.value)
            self.expect_op(")")
        sql_type = type_from_name(type_name, size)
        if isinstance(sql_type, DatalinkType):
            sql_type.spec = self._parse_datalink_options()

        nullable = True
        default = None
        inline: dict = {}
        while True:
            if self.accept_kw("NOT", "NULL"):
                nullable = False
            elif self.accept_kw("PRIMARY", "KEY"):
                inline["primary_key"] = True
            elif self.accept_kw("UNIQUE"):
                inline["unique"] = True
            elif self.accept_kw("DEFAULT"):
                default = self._parse_literal_value()
            elif self.accept_kw("REFERENCES"):
                ref_table = self.expect_ident("referenced table")
                ref_cols = self._parse_paren_name_list()
                if len(ref_cols) != 1:
                    raise self.error("inline REFERENCES takes one column")
                inline["references"] = (ref_table, ref_cols[0])
            elif self.accept_kw("CHECK"):
                self.expect_op("(")
                inline["check"] = self.parse_expression()
                self.expect_op(")")
            else:
                break
        return Column(name, sql_type, nullable=nullable, default=default), inline

    def _parse_datalink_options(self) -> DatalinkSpec:
        """Parse the SQL/MED option list after the DATALINK keyword."""
        link_control = False
        saw_control_clause = False
        integrity = "NONE"
        read_permission = "FS"
        write_permission = "FS"
        recovery = False
        on_unlink = "NONE"
        while True:
            if self.accept_kw("LINKTYPE"):
                self.expect_kw("URL")
            elif self.accept_kw("FILE", "LINK", "CONTROL"):
                link_control = True
                saw_control_clause = True
            elif self.accept_kw("NO", "LINK", "CONTROL"):
                link_control = False
                saw_control_clause = True
            elif self.accept_kw("INTEGRITY"):
                integrity = self.expect_ident("ALL/SELECTIVE/NONE").upper()
            elif self.accept_kw("READ", "PERMISSION"):
                read_permission = self.expect_ident("FS or DB").upper()
            elif self.accept_kw("WRITE", "PERMISSION"):
                write_permission = self.expect_ident("FS or BLOCKED").upper()
            elif self.accept_kw("RECOVERY"):
                word = self.expect_ident("YES or NO").upper()
                recovery = word == "YES"
            elif self.accept_kw("ON", "UNLINK"):
                on_unlink = self.expect_ident("RESTORE or DELETE").upper()
            else:
                break
        if not saw_control_clause and (
            integrity != "NONE" or read_permission != "FS" or recovery
        ):
            # Options that need control imply FILE LINK CONTROL.
            link_control = True
        return DatalinkSpec(
            link_control=link_control,
            integrity=integrity,
            read_permission=read_permission,
            write_permission=write_permission,
            recovery=recovery,
            on_unlink=on_unlink,
        )

    def _parse_literal_value(self):
        """A literal for DEFAULT clauses (no expressions)."""
        token = self.peek()
        if token.kind == lexer.STRING:
            self.advance()
            return token.value
        if token.kind == lexer.NUMBER:
            self.advance()
            return _number_value(token.value)
        if token.kind == lexer.IDENT:
            upper = token.upper
            if upper == "NULL":
                self.advance()
                return None
            if upper in ("TRUE", "FALSE"):
                self.advance()
                return upper == "TRUE"
            if upper in ("DATE", "TIMESTAMP") and self.peek(1).kind == lexer.STRING:
                self.advance()
                text = self.advance().value
                if upper == "DATE":
                    return _dt.date.fromisoformat(text)
                return _dt.datetime.fromisoformat(text)
        if token.kind == lexer.OP and token.value == "-":
            self.advance()
            number = self.advance()
            if number.kind != lexer.NUMBER:
                raise self.error("expected a number after '-'")
            return -_number_value(number.value)
        raise self.error("expected a literal")

    def _parse_alter(self) -> Statement:
        self.expect_kw("ALTER")
        self.expect_kw("TABLE")
        table = self.expect_ident("table name")
        if self.accept_kw("ADD"):
            self.accept_kw("COLUMN")
            column, inline = self._parse_column_def()
            if inline:
                raise self.error(
                    "ALTER TABLE ADD COLUMN does not accept key constraints"
                )
            return AlterTableStmt(table, "add", column=column)
        if self.accept_kw("DROP"):
            self.accept_kw("COLUMN")
            name = self.expect_ident("column name")
            return AlterTableStmt(table, "drop", column_name=name)
        raise self.error("expected ADD or DROP after ALTER TABLE <name>")

    def _parse_drop(self) -> Statement:
        self.expect_kw("DROP")
        if self.accept_kw("TABLE"):
            if_exists = self.accept_kw("IF", "EXISTS")
            name = self.expect_ident("table name")
            return DropTableStmt(name, if_exists)
        if self.accept_kw("VIEW"):
            if_exists = self.accept_kw("IF", "EXISTS")
            name = self.expect_ident("view name")
            return DropViewStmt(name, if_exists)
        if self.accept_kw("INDEX"):
            name = self.expect_ident("index name")
            return DropIndexStmt(name)
        raise self.error("expected TABLE, VIEW or INDEX after DROP")

    # -- DML -----------------------------------------------------------------

    def _parse_insert(self) -> InsertStmt:
        self.expect_kw("INSERT")
        self.expect_kw("INTO")
        table = self.expect_ident("table name")
        columns = None
        if self.peek().kind == lexer.OP and self.peek().value == "(":
            columns = self._parse_paren_name_list()
        if self.peek_kw("SELECT"):
            return InsertStmt(table, columns, [], select=self._parse_select())
        self.expect_kw("VALUES")
        rows = [self._parse_value_row()]
        while self.accept_op(","):
            rows.append(self._parse_value_row())
        return InsertStmt(table, columns, rows)

    def _parse_value_row(self) -> list[Expression]:
        self.expect_op("(")
        row = [self.parse_expression()]
        while self.accept_op(","):
            row.append(self.parse_expression())
        self.expect_op(")")
        return row

    def _parse_update(self) -> UpdateStmt:
        self.expect_kw("UPDATE")
        table = self.expect_ident("table name")
        self.expect_kw("SET")
        assignments = [self._parse_assignment()]
        while self.accept_op(","):
            assignments.append(self._parse_assignment())
        where = None
        if self.accept_kw("WHERE"):
            where = self.parse_expression()
        return UpdateStmt(table, assignments, where)

    def _parse_assignment(self) -> tuple[str, Expression]:
        column = self.expect_ident("column name")
        self.expect_op("=")
        return column, self.parse_expression()

    def _parse_delete(self) -> DeleteStmt:
        self.expect_kw("DELETE")
        self.expect_kw("FROM")
        table = self.expect_ident("table name")
        where = None
        if self.accept_kw("WHERE"):
            where = self.parse_expression()
        return DeleteStmt(table, where)

    # -- SELECT ---------------------------------------------------------------

    def _parse_select_or_union(self) -> Statement:
        first = self._parse_select()
        if not self.peek_kw("UNION"):
            return first
        selects = [first]
        all_flags: set[bool] = set()
        while self.accept_kw("UNION"):
            all_flags.add(self.accept_kw("ALL"))
            selects.append(self._parse_select())
        if len(all_flags) > 1:
            raise self.error("cannot mix UNION and UNION ALL")
        return UnionStmt(selects, all_rows=all_flags.pop())

    def _parse_select(self) -> SelectStmt:
        self.expect_kw("SELECT")
        distinct = self.accept_kw("DISTINCT")
        self.accept_kw("ALL")
        items = [self._parse_select_item()]
        while self.accept_op(","):
            items.append(self._parse_select_item())

        tables: list[TableRef] = []
        joins: list[Join] = []
        if self.accept_kw("FROM"):
            tables.append(self._parse_table_ref())
            while True:
                if self.accept_op(","):
                    tables.append(self._parse_table_ref())
                    continue
                kind = None
                if self.accept_kw("INNER", "JOIN") or (
                    not self.peek_kw("LEFT") and self.accept_kw("JOIN")
                ):
                    kind = "INNER"
                elif self.accept_kw("LEFT", "OUTER", "JOIN") or self.accept_kw("LEFT", "JOIN"):
                    kind = "LEFT"
                if kind is None:
                    break
                ref = self._parse_table_ref()
                self.expect_kw("ON")
                on = self.parse_expression()
                joins.append(Join(ref, on, kind))

        where = None
        if self.accept_kw("WHERE"):
            where = self.parse_expression()
        group_by: list[Expression] = []
        if self.accept_kw("GROUP", "BY"):
            group_by.append(self.parse_expression())
            while self.accept_op(","):
                group_by.append(self.parse_expression())
        having = None
        if self.accept_kw("HAVING"):
            having = self.parse_expression()
        order_by: list[OrderItem] = []
        if self.accept_kw("ORDER", "BY"):
            order_by.append(self._parse_order_item())
            while self.accept_op(","):
                order_by.append(self._parse_order_item())
        limit = offset = None
        if self.accept_kw("LIMIT"):
            limit = self._parse_nonnegative_int("LIMIT")
            if self.accept_kw("OFFSET"):
                offset = self._parse_nonnegative_int("OFFSET")
        elif self.accept_kw("OFFSET"):
            offset = self._parse_nonnegative_int("OFFSET")
        return SelectStmt(
            items, tables, joins, where, group_by, having, order_by,
            limit, offset, distinct,
        )

    def _parse_nonnegative_int(self, what: str) -> int:
        token = self.advance()
        if token.kind != lexer.NUMBER or "." in token.value:
            raise self.error(f"expected an integer after {what}")
        return int(token.value)

    def _parse_select_item(self) -> SelectItem:
        token = self.peek()
        if token.kind == lexer.OP and token.value == "*":
            self.advance()
            return SelectItem(None, is_star=True)
        # table.*
        if (
            token.kind == lexer.IDENT
            and self.peek(1).kind == lexer.OP
            and self.peek(1).value == "."
            and self.peek(2).kind == lexer.OP
            and self.peek(2).value == "*"
        ):
            self.advance()
            self.advance()
            self.advance()
            return SelectItem(None, star_table=token.value, is_star=True)
        expr = self.parse_expression()
        alias = None
        if self.accept_kw("AS"):
            alias = self.expect_ident("alias")
        elif (
            self.peek().kind == lexer.IDENT
            and self.peek().upper not in _CLAUSE_KEYWORDS
            and self.peek().upper != "FROM"
        ):
            alias = self.advance().value
        return SelectItem(expr, alias=alias)

    def _parse_table_ref(self) -> TableRef:
        name = self.expect_ident("table name")
        alias = None
        if self.accept_kw("AS"):
            alias = self.expect_ident("alias")
        elif (
            self.peek().kind == lexer.IDENT
            and self.peek().upper not in _CLAUSE_KEYWORDS
        ):
            alias = self.advance().value
        return TableRef(name, alias)

    def _parse_order_item(self) -> OrderItem:
        expr = self.parse_expression()
        ascending = True
        if self.accept_kw("DESC"):
            ascending = False
        else:
            self.accept_kw("ASC")
        return OrderItem(expr, ascending)

    # -- expressions -----------------------------------------------------------

    def parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self.accept_kw("OR"):
            left = BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self.accept_kw("AND"):
            left = BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> Expression:
        if self.peek_kw("NOT") and self.peek_kw("EXISTS", 1):
            self.advance()
            return self._parse_exists(negated=True)
        if self.accept_kw("NOT"):
            return UnaryOp("NOT", self._parse_not())
        if self.peek_kw("EXISTS"):
            return self._parse_exists(negated=False)
        return self._parse_predicate()

    def _parse_exists(self, negated: bool) -> Expression:
        self.expect_kw("EXISTS")
        self.expect_op("(")
        select = self._parse_select()
        self.expect_op(")")
        return ExistsSubquery(select, negated=negated)

    def _parse_predicate(self) -> Expression:
        left = self._parse_additive()
        token = self.peek()
        if token.kind == lexer.OP and token.value in ("=", "<>", "!=", "<", "<=", ">", ">="):
            self.advance()
            return BinaryOp(token.value, left, self._parse_additive())
        negated = False
        if self.peek_kw("NOT") and self.peek(1).kind == lexer.IDENT and self.peek(1).upper in ("LIKE", "IN", "BETWEEN"):
            self.advance()
            negated = True
        if self.accept_kw("LIKE"):
            return Like(left, self._parse_additive(), negated=negated)
        if self.accept_kw("IN"):
            self.expect_op("(")
            if self.peek_kw("SELECT"):
                select = self._parse_select()
                self.expect_op(")")
                return InSubquery(left, select, negated=negated)
            items = [self.parse_expression()]
            while self.accept_op(","):
                items.append(self.parse_expression())
            self.expect_op(")")
            return InList(left, items, negated=negated)
        if self.accept_kw("BETWEEN"):
            low = self._parse_additive()
            self.expect_kw("AND")
            high = self._parse_additive()
            return Between(left, low, high, negated=negated)
        if negated:
            raise self.error("expected LIKE, IN or BETWEEN after NOT")
        if self.accept_kw("IS"):
            is_negated = self.accept_kw("NOT")
            self.expect_kw("NULL")
            return IsNull(left, negated=is_negated)
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            token = self.peek()
            if token.kind == lexer.OP and token.value in ("+", "-", "||"):
                self.advance()
                left = BinaryOp(token.value, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while True:
            token = self.peek()
            if token.kind == lexer.OP and token.value in ("*", "/", "%"):
                self.advance()
                left = BinaryOp(token.value, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expression:
        token = self.peek()
        if token.kind == lexer.OP and token.value in ("-", "+"):
            self.advance()
            return UnaryOp(token.value, self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self.peek()
        if token.kind == lexer.STRING:
            self.advance()
            return Literal(token.value)
        if token.kind == lexer.NUMBER:
            self.advance()
            return Literal(_number_value(token.value))
        if token.kind == lexer.PARAM:
            self.advance()
            param = Parameter(self._param_count)
            self._param_count += 1
            return param
        if token.kind == lexer.OP and token.value == "(":
            self.advance()
            if self.peek_kw("SELECT"):
                select = self._parse_select()
                self.expect_op(")")
                return Subquery(select)
            expr = self.parse_expression()
            self.expect_op(")")
            return expr
        if token.kind == lexer.IDENT:
            upper = token.upper
            if upper == "CASE":
                return self._parse_case()
            if upper == "NULL":
                self.advance()
                return Literal(None)
            if upper in ("TRUE", "FALSE"):
                self.advance()
                return Literal(upper == "TRUE")
            if upper in ("DATE", "TIMESTAMP") and self.peek(1).kind == lexer.STRING:
                self.advance()
                text = self.advance().value
                try:
                    if upper == "DATE":
                        return Literal(_dt.date.fromisoformat(text))
                    return Literal(_dt.datetime.fromisoformat(text))
                except ValueError:
                    raise self.error(f"bad {upper} literal {text!r}")
            # function call
            if self.peek(1).kind == lexer.OP and self.peek(1).value == "(":
                return self._parse_call()
            if upper in _RESERVED:
                raise self.error("expected an expression")
            # column reference, possibly qualified
            self.advance()
            if self.peek().kind == lexer.OP and self.peek().value == ".":
                self.advance()
                column = self.expect_ident("column name")
                return ColumnRef(column, table=token.value)
            return ColumnRef(token.value)
        raise self.error("expected an expression")

    def _parse_case(self) -> Expression:
        self.expect_kw("CASE")
        branches: list[tuple[Expression, Expression]] = []
        while self.accept_kw("WHEN"):
            condition = self.parse_expression()
            self.expect_kw("THEN")
            branches.append((condition, self.parse_expression()))
        if not branches:
            raise self.error("CASE needs at least one WHEN")
        default = None
        if self.accept_kw("ELSE"):
            default = self.parse_expression()
        self.expect_kw("END")
        return CaseExpression(branches, default)

    def _parse_call(self) -> Expression:
        name = self.advance().upper
        self.expect_op("(")
        if name in AGGREGATE_FUNCTIONS:
            if self.accept_op("*"):
                self.expect_op(")")
                return AggregateCall(name, Star())
            distinct = self.accept_kw("DISTINCT")
            arg = self.parse_expression()
            self.expect_op(")")
            return AggregateCall(name, arg, distinct=distinct)
        args: list[Expression] = []
        if not self.accept_op(")"):
            args.append(self.parse_expression())
            while self.accept_op(","):
                args.append(self.parse_expression())
            self.expect_op(")")
        return FunctionCall(name, args)


def _number_value(text: str) -> int | float:
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)
