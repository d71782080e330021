"""Expression AST and evaluation with SQL three-valued logic.

Expressions appear in WHERE/HAVING clauses, CHECK constraints, computed
SELECT items and join conditions.  Evaluation follows SQL semantics:
``NULL`` propagates through comparisons and arithmetic, ``AND``/``OR`` use
Kleene logic, and a WHERE clause keeps a row only when the predicate is
*true* (not merely non-false).
"""

from __future__ import annotations

import datetime as _dt
import re
from typing import Any, Callable, Mapping, Sequence

from repro.errors import CatalogError, SqlSyntaxError, TypeMismatchError
from repro.sqldb.types import Blob, Clob, DatalinkValue

__all__ = [
    "Expression",
    "Literal",
    "ColumnRef",
    "Parameter",
    "BinaryOp",
    "UnaryOp",
    "IsNull",
    "Like",
    "InList",
    "Between",
    "FunctionCall",
    "AggregateCall",
    "Star",
    "truthy",
    "hash_key",
]

AGGREGATE_FUNCTIONS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


class Expression:
    """Base class for AST nodes."""

    def evaluate(self, env: Mapping[str, Any], params: Sequence[Any] = ()) -> Any:
        raise NotImplementedError

    def column_refs(self) -> list["ColumnRef"]:
        """All column references in this subtree (planner uses this)."""
        refs: list[ColumnRef] = []
        self._collect_refs(refs)
        return refs

    def _collect_refs(self, out: list["ColumnRef"]) -> None:
        pass

    def contains_aggregate(self) -> bool:
        return any(isinstance(node, AggregateCall) for node in self.walk())

    def walk(self):
        """Yield every node in this subtree (pre-order)."""
        yield self
        for child in self._children():
            yield from child.walk()

    def _children(self) -> list["Expression"]:
        return []


def truthy(value: Any) -> bool:
    """SQL WHERE semantics: only TRUE passes; NULL and FALSE do not."""
    return value is True


class Literal(Expression):
    """A constant value."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def evaluate(self, env, params=()) -> Any:
        return self.value

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"

    def __eq__(self, other):
        return isinstance(other, Literal) and self.value == other.value


class Parameter(Expression):
    """A positional ``?`` placeholder, bound at execution time."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def evaluate(self, env, params=()) -> Any:
        try:
            return params[self.index]
        except IndexError:
            raise SqlSyntaxError(
                f"statement has parameter ?{self.index + 1} but only "
                f"{len(params)} parameter value(s) were supplied"
            ) from None

    def __repr__(self) -> str:
        return f"Parameter({self.index})"


class ColumnRef(Expression):
    """A (possibly table-qualified) column reference."""

    __slots__ = ("table", "column", "key")

    def __init__(self, column: str, table: str | None = None) -> None:
        self.table = table.upper() if table else None
        self.column = column.upper()
        #: the environment key; built once, since evaluate() runs per row
        self.key = f"{self.table}.{self.column}" if self.table else self.column

    def evaluate(self, env, params=()) -> Any:
        key = self.key
        if key in env:
            return env[key]
        # No silent fallback from qualified to bare names: a qualifier that
        # does not resolve is an error (this is what surfaces correlated
        # subqueries, which are unsupported, instead of mis-binding them).
        raise CatalogError(f"unknown column {key}")

    def _collect_refs(self, out: list["ColumnRef"]) -> None:
        out.append(self)

    def __repr__(self) -> str:
        return f"ColumnRef({self.key!r})"

    def __eq__(self, other):
        return (
            isinstance(other, ColumnRef)
            and self.table == other.table
            and self.column == other.column
        )

    def __hash__(self):
        return hash((self.table, self.column))


class Star(Expression):
    """``*`` in a select list or ``COUNT(*)``."""

    def evaluate(self, env, params=()) -> Any:
        raise SqlSyntaxError("'*' cannot be evaluated as a scalar")

    def __repr__(self) -> str:
        return "Star()"


class Subquery(Expression):
    """A scalar subquery ``(SELECT ...)``.

    Only *uncorrelated* subqueries are supported: the executor materialises
    the nested SELECT once per statement execution (binding the result via
    :meth:`bind`) before row evaluation begins.  A scalar subquery must
    yield one column; zero rows evaluate to NULL, more than one row is an
    error.
    """

    __slots__ = ("select", "_bound", "_value")

    def __init__(self, select) -> None:
        self.select = select  # a SelectStmt; typed loosely to avoid cycles
        self._bound = False
        self._value = None

    def bind(self, rows: list[tuple]) -> None:
        if rows and len(rows[0]) != 1:
            raise SqlSyntaxError("scalar subquery must select exactly one column")
        if len(rows) > 1:
            raise SqlSyntaxError("scalar subquery returned more than one row")
        self._value = rows[0][0] if rows else None
        self._bound = True

    def evaluate(self, env, params=()) -> Any:
        if not self._bound:
            raise SqlSyntaxError("subquery was not materialised before evaluation")
        return self._value

    def __repr__(self) -> str:
        return "Subquery(...)"


class ExistsSubquery(Expression):
    """``[NOT] EXISTS (SELECT ...)`` — true when the (uncorrelated)
    subquery returns at least one row."""

    __slots__ = ("select", "negated", "_bound", "_nonempty")

    def __init__(self, select, negated: bool = False) -> None:
        self.select = select
        self.negated = negated
        self._bound = False
        self._nonempty = False

    def bind(self, rows: list[tuple]) -> None:
        self._nonempty = bool(rows)
        self._bound = True

    def evaluate(self, env, params=()) -> Any:
        if not self._bound:
            raise SqlSyntaxError("subquery was not materialised before evaluation")
        return (not self._nonempty) if self.negated else self._nonempty


class InSubquery(Expression):
    """``expr [NOT] IN (SELECT ...)`` — materialised like :class:`Subquery`.

    Executed as a hashed semi-join: when every subquery value is a simple
    hashable scalar, :meth:`bind` builds a set of normalised keys and each
    row's membership test is O(1) instead of a scan over the value list.
    Mixed or exotic value types fall back to the pairwise ``=`` comparison,
    which handles cross-type coercions (dates vs strings etc.).
    """

    __slots__ = (
        "operand", "select", "negated", "_bound", "_values",
        "_hashed", "_hash_family", "_saw_null",
    )

    def __init__(self, operand: Expression, select, negated: bool = False) -> None:
        self.operand = operand
        self.select = select
        self.negated = negated
        self._bound = False
        self._values: list[Any] = []
        self._hashed: set | None = None
        self._hash_family: tuple[type, ...] | None = None
        self._saw_null = False

    def bind(self, rows: list[tuple]) -> None:
        if rows and len(rows[0]) != 1:
            raise SqlSyntaxError("IN subquery must select exactly one column")
        self._values = [row[0] for row in rows]
        self._saw_null = any(v is None for v in self._values)
        present = [v for v in self._values if v is not None]
        # Hash only homogeneous families: a probe value outside the family
        # must fall back to the pairwise path, which raises (or coerces)
        # exactly as the naive comparison loop would.
        self._hashed = None
        self._hash_family = None
        for family in ((int, float), (str, Clob)):
            if all(isinstance(v, family) for v in present):
                self._hashed = {hash_key(v) for v in present}
                self._hash_family = family
                break
        self._bound = True

    def evaluate(self, env, params=()) -> Any:
        if not self._bound:
            raise SqlSyntaxError("subquery was not materialised before evaluation")
        value = self.operand.evaluate(env, params)
        if value is None:
            return None
        if self._hashed is not None and isinstance(value, self._hash_family):
            matched = hash_key(value) in self._hashed
        else:
            matched = False
            for candidate in self._values:
                if candidate is None:
                    continue
                if _compare("=", value, candidate):
                    matched = True
                    break
        if matched:
            return False if self.negated else True
        if self._saw_null:
            return None
        return True if self.negated else False

    def _children(self):
        return [self.operand]

    def _collect_refs(self, out):
        self.operand._collect_refs(out)


def hash_key(value: Any) -> Any:
    """Normalise one value for hash-based equality (hash joins, hashed
    IN-subquery membership) so that two values compare equal under SQL
    ``=`` iff their keys are equal: CLOBs compare as their text, CHAR
    values ignore trailing padding, dates promote to midnight datetimes
    (mirroring :func:`_comparable`), and unhashable values degrade to
    their ``repr``."""
    if isinstance(value, Clob):
        value = value.text
    if isinstance(value, DatalinkValue):
        value = value.url
    if isinstance(value, Blob):
        value = value.data
    if isinstance(value, str):
        value = value.rstrip()
    if isinstance(value, _dt.date) and not isinstance(value, _dt.datetime):
        value = _dt.datetime(value.year, value.month, value.day)
    try:
        hash(value)
    except TypeError:
        value = repr(value)
    return value


_NUMBERS = frozenset({int, float})


def _comparable(left: Any, right: Any) -> tuple[Any, Any]:
    """Normalise operand pairs so heterogeneous-but-compatible values
    compare the way SQL users expect."""
    if type(left) in _NUMBERS and type(right) in _NUMBERS:
        return left, right  # nothing to normalise; the per-row common case
    if isinstance(left, Clob):
        left = left.text
    if isinstance(right, Clob):
        right = right.text
    if isinstance(left, DatalinkValue):
        left = left.url
    if isinstance(right, DatalinkValue):
        right = right.url
    if isinstance(left, Blob):
        left = left.data
    if isinstance(right, Blob):
        right = right.data
    if isinstance(left, _dt.datetime) and isinstance(right, _dt.date) and not isinstance(right, _dt.datetime):
        right = _dt.datetime(right.year, right.month, right.day)
    if isinstance(right, _dt.datetime) and isinstance(left, _dt.date) and not isinstance(left, _dt.datetime):
        left = _dt.datetime(left.year, left.month, left.day)
    if isinstance(left, str) and isinstance(right, _dt.date):
        left = _parse_temporal(left, type(right))
    if isinstance(right, str) and isinstance(left, _dt.date):
        right = _parse_temporal(right, type(left))
    # CHAR columns are space-padded; compare stripped per SQL PAD SPACE.
    if isinstance(left, str) and isinstance(right, str):
        return left.rstrip(), right.rstrip()
    return left, right


def _parse_temporal(text: str, kind: type) -> Any:
    try:
        if kind is _dt.datetime:
            return _dt.datetime.fromisoformat(text)
        return _dt.date.fromisoformat(text)
    except ValueError:
        raise TypeMismatchError(f"cannot compare {text!r} with a {kind.__name__}")


def _numeric(value: Any, op: str) -> Any:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeMismatchError(f"operator {op} requires numeric operands, got {value!r}")
    return value


def _arith(op: str, left: Any, right: Any) -> Any:
    left = _numeric(left, op)
    right = _numeric(right, op)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise TypeMismatchError("division by zero")
        result = left / right
        if isinstance(left, int) and isinstance(right, int) and result == int(result):
            return int(result)
        return result
    if op == "%":
        if right == 0:
            raise TypeMismatchError("division by zero")
        return left % right
    raise SqlSyntaxError(f"unknown arithmetic operator {op}")


def _compare(op: str, left: Any, right: Any) -> bool:
    left, right = _comparable(left, right)
    try:
        if op == "=":
            return left == right
        if op in ("<>", "!="):
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError:
        raise TypeMismatchError(
            f"cannot compare {type(left).__name__} with {type(right).__name__}"
        ) from None
    raise SqlSyntaxError(f"unknown comparison operator {op}")


class BinaryOp(Expression):
    """Binary operators: arithmetic, comparison, AND, OR, string ``||``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        self.op = op.upper()
        self.left = left
        self.right = right

    def evaluate(self, env, params=()) -> Any:
        op = self.op
        if op == "AND":
            left = self.left.evaluate(env, params)
            if left is False:
                return False
            right = self.right.evaluate(env, params)
            if right is False:
                return False
            if left is None or right is None:
                return None
            return True
        if op == "OR":
            left = self.left.evaluate(env, params)
            if left is True:
                return True
            right = self.right.evaluate(env, params)
            if right is True:
                return True
            if left is None or right is None:
                return None
            return False

        left = self.left.evaluate(env, params)
        right = self.right.evaluate(env, params)
        if left is None or right is None:
            return None
        if op == "||":
            return _stringify(left) + _stringify(right)
        if op in ("+", "-", "*", "/", "%"):
            return _arith(op, left, right)
        return _compare(op, left, right)

    def _children(self):
        return [self.left, self.right]

    def _collect_refs(self, out):
        self.left._collect_refs(out)
        self.right._collect_refs(out)

    def __repr__(self) -> str:
        return f"BinaryOp({self.op!r}, {self.left!r}, {self.right!r})"


def _stringify(value: Any) -> str:
    if isinstance(value, Clob):
        return value.text
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    return str(value)


class UnaryOp(Expression):
    """NOT and unary minus."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expression) -> None:
        self.op = op.upper()
        self.operand = operand

    def evaluate(self, env, params=()) -> Any:
        value = self.operand.evaluate(env, params)
        if self.op == "NOT":
            if value is None:
                return None
            return not value
        if value is None:
            return None
        if self.op == "-":
            return -_numeric(value, "-")
        if self.op == "+":
            return _numeric(value, "+")
        raise SqlSyntaxError(f"unknown unary operator {self.op}")

    def _children(self):
        return [self.operand]

    def _collect_refs(self, out):
        self.operand._collect_refs(out)

    def __repr__(self) -> str:
        return f"UnaryOp({self.op!r}, {self.operand!r})"


class IsNull(Expression):
    """``expr IS [NOT] NULL`` — never yields NULL itself."""

    __slots__ = ("operand", "negated")

    def __init__(self, operand: Expression, negated: bool = False) -> None:
        self.operand = operand
        self.negated = negated

    def evaluate(self, env, params=()) -> bool:
        value = self.operand.evaluate(env, params)
        result = value is None
        return (not result) if self.negated else result

    def _children(self):
        return [self.operand]

    def _collect_refs(self, out):
        self.operand._collect_refs(out)


class Like(Expression):
    """``expr [NOT] LIKE pattern`` with ``%`` and ``_`` wildcards.

    This powers the QBE form's wildcard restrictions.
    """

    __slots__ = ("operand", "pattern", "negated")

    def __init__(self, operand: Expression, pattern: Expression, negated: bool = False) -> None:
        self.operand = operand
        self.pattern = pattern
        self.negated = negated

    @staticmethod
    def compile_pattern(pattern: str) -> re.Pattern:
        """Translate an SQL LIKE pattern into an anchored regex."""
        out = []
        for ch in pattern:
            if ch == "%":
                out.append(".*")
            elif ch == "_":
                out.append(".")
            else:
                out.append(re.escape(ch))
        return re.compile("".join(out) + r"\Z", re.DOTALL)

    def evaluate(self, env, params=()) -> Any:
        value = self.operand.evaluate(env, params)
        pattern = self.pattern.evaluate(env, params)
        if value is None or pattern is None:
            return None
        value = _stringify(value).rstrip()
        result = bool(self.compile_pattern(_stringify(pattern)).match(value))
        return (not result) if self.negated else result

    def _children(self):
        return [self.operand, self.pattern]

    def _collect_refs(self, out):
        self.operand._collect_refs(out)
        self.pattern._collect_refs(out)


class InList(Expression):
    """``expr [NOT] IN (v1, v2, ...)`` with SQL NULL semantics."""

    __slots__ = ("operand", "items", "negated")

    def __init__(self, operand: Expression, items: Sequence[Expression], negated: bool = False) -> None:
        self.operand = operand
        self.items = list(items)
        self.negated = negated

    def evaluate(self, env, params=()) -> Any:
        value = self.operand.evaluate(env, params)
        if value is None:
            return None
        saw_null = False
        for item in self.items:
            candidate = item.evaluate(env, params)
            if candidate is None:
                saw_null = True
                continue
            if _compare("=", value, candidate):
                return False if self.negated else True
        if saw_null:
            return None
        return True if self.negated else False

    def _children(self):
        return [self.operand, *self.items]

    def _collect_refs(self, out):
        self.operand._collect_refs(out)
        for item in self.items:
            item._collect_refs(out)


class Between(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    __slots__ = ("operand", "low", "high", "negated")

    def __init__(
        self,
        operand: Expression,
        low: Expression,
        high: Expression,
        negated: bool = False,
    ) -> None:
        self.operand = operand
        self.low = low
        self.high = high
        self.negated = negated

    def evaluate(self, env, params=()) -> Any:
        # value >= low AND value <= high, under three-valued logic: a NULL
        # bound leaves the result unknown only if the other side holds
        value = self.operand.evaluate(env, params)
        low = self.low.evaluate(env, params)
        high = self.high.evaluate(env, params)
        if value is None:
            return None
        if (low is not None and not _compare(">=", value, low)) or (
            high is not None and not _compare("<=", value, high)
        ):
            result = False
        elif low is None or high is None:
            return None
        else:
            result = True
        return (not result) if self.negated else result

    def _children(self):
        return [self.operand, self.low, self.high]

    def _collect_refs(self, out):
        for child in self._children():
            child._collect_refs(out)


def _fn_substr(args: list[Any]) -> Any:
    text = _stringify(args[0])
    start = int(args[1])
    length = int(args[2]) if len(args) > 2 else None
    begin = max(start - 1, 0)
    if length is None:
        return text[begin:]
    return text[begin : begin + max(length, 0)]


def _as_datalink(value: Any, fn_name: str) -> DatalinkValue:
    if isinstance(value, DatalinkValue):
        return value
    if isinstance(value, str):
        return DatalinkValue(value)
    raise TypeMismatchError(f"{fn_name} requires a DATALINK value, got {value!r}")


_SCALAR_FUNCTIONS: dict[str, Callable[[list[Any]], Any]] = {
    "UPPER": lambda args: _stringify(args[0]).upper(),
    "LOWER": lambda args: _stringify(args[0]).lower(),
    "LENGTH": lambda args: len(args[0]) if isinstance(args[0], (Blob, Clob)) else len(_stringify(args[0])),
    "TRIM": lambda args: _stringify(args[0]).strip(),
    "ABS": lambda args: abs(_numeric(args[0], "ABS")),
    "ROUND": lambda args: round(_numeric(args[0], "ROUND"), int(args[1]) if len(args) > 1 else 0),
    "SUBSTR": _fn_substr,
    "SUBSTRING": _fn_substr,
    # SQL/MED (ISO 9075-9) datalink scalar functions.  DLVALUE constructs a
    # datalink from a character URL; the DLURL* family extracts components
    # of a stored datalink — these are what client SQL uses to manipulate
    # DATALINK columns without string-hacking URLs.
    "DLVALUE": lambda args: _as_datalink(args[0], "DLVALUE"),
    "DLURLCOMPLETE": lambda args: _as_datalink(args[0], "DLURLCOMPLETE").tokenized_url,
    "DLURLPATH": lambda args: _as_datalink(args[0], "DLURLPATH").server_path,
    "DLURLPATHONLY": lambda args: _as_datalink(args[0], "DLURLPATHONLY").server_path,
    "DLURLSERVER": lambda args: _as_datalink(args[0], "DLURLSERVER").host,
    "DLURLSCHEME": lambda args: _as_datalink(args[0], "DLURLSCHEME").scheme.upper(),
    "DLLINKTYPE": lambda args: (_as_datalink(args[0], "DLLINKTYPE"), "URL")[1],
    "DLFILESIZE": lambda args: _as_datalink(args[0], "DLFILESIZE").size,
}


class CaseExpression(Expression):
    """``CASE WHEN cond THEN value [...] [ELSE value] END``.

    Searched-case form only (each WHEN carries a full predicate); the
    first true branch wins, else the ELSE value, else NULL.
    """

    __slots__ = ("branches", "default")

    def __init__(self, branches: Sequence[tuple[Expression, Expression]],
                 default: Expression | None = None) -> None:
        if not branches:
            raise SqlSyntaxError("CASE needs at least one WHEN branch")
        self.branches = list(branches)
        self.default = default

    def evaluate(self, env, params=()) -> Any:
        for condition, value in self.branches:
            if truthy(condition.evaluate(env, params)):
                return value.evaluate(env, params)
        if self.default is not None:
            return self.default.evaluate(env, params)
        return None

    def _children(self):
        out: list[Expression] = []
        for condition, value in self.branches:
            out.append(condition)
            out.append(value)
        if self.default is not None:
            out.append(self.default)
        return out

    def _collect_refs(self, out):
        for child in self._children():
            child._collect_refs(out)

    def __repr__(self) -> str:
        return f"CaseExpression({len(self.branches)} branch(es))"


class FunctionCall(Expression):
    """Scalar function call (UPPER, LOWER, LENGTH, TRIM, ABS, ROUND,
    SUBSTR, COALESCE)."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Expression]) -> None:
        self.name = name.upper()
        self.args = list(args)

    def evaluate(self, env, params=()) -> Any:
        if self.name == "COALESCE":
            for arg in self.args:
                value = arg.evaluate(env, params)
                if value is not None:
                    return value
            return None
        fn = _SCALAR_FUNCTIONS.get(self.name)
        if fn is None:
            raise SqlSyntaxError(f"unknown function {self.name}")
        values = [arg.evaluate(env, params) for arg in self.args]
        if any(v is None for v in values):
            return None
        return fn(values)

    def _children(self):
        return list(self.args)

    def _collect_refs(self, out):
        for arg in self.args:
            arg._collect_refs(out)

    def __repr__(self) -> str:
        return f"FunctionCall({self.name!r}, {self.args!r})"


class AggregateCall(Expression):
    """Aggregate function reference: COUNT/SUM/AVG/MIN/MAX.

    During grouped execution the executor pre-computes each aggregate and
    binds its value into the row environment under :attr:`key`; evaluation
    here simply reads that binding.
    """

    __slots__ = ("name", "arg", "distinct")

    def __init__(self, name: str, arg: Expression | Star, distinct: bool = False) -> None:
        self.name = name.upper()
        if self.name not in AGGREGATE_FUNCTIONS:
            raise SqlSyntaxError(f"unknown aggregate {name}")
        self.arg = arg
        self.distinct = distinct

    @property
    def key(self) -> str:
        arg = "*" if isinstance(self.arg, Star) else repr(self.arg)
        distinct = "DISTINCT " if self.distinct else ""
        return f"$agg:{self.name}({distinct}{arg})"

    def evaluate(self, env, params=()) -> Any:
        if self.key in env:
            return env[self.key]
        raise SqlSyntaxError(
            f"aggregate {self.name} used outside a grouped query"
        )

    def accumulate(self, values: list[Any]) -> Any:
        """Fold non-NULL input ``values`` into the aggregate result."""
        if self.distinct:
            seen = []
            for v in values:
                if v not in seen:
                    seen.append(v)
            values = seen
        if self.name == "COUNT":
            return len(values)
        if not values:
            return None
        if self.name == "SUM":
            return sum(values)
        if self.name == "AVG":
            return sum(values) / len(values)
        if self.name == "MIN":
            return min(values)
        return max(values)

    def _children(self):
        return [] if isinstance(self.arg, Star) else [self.arg]

    def _collect_refs(self, out):
        if not isinstance(self.arg, Star):
            self.arg._collect_refs(out)

    def __repr__(self) -> str:
        return f"AggregateCall({self.name!r}, {self.arg!r}, distinct={self.distinct})"
