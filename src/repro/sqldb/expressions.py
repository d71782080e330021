"""Expression AST and evaluation with SQL three-valued logic.

Expressions appear in WHERE/HAVING clauses, CHECK constraints, computed
SELECT items and join conditions.  Evaluation follows SQL semantics:
``NULL`` propagates through comparisons and arithmetic, ``AND``/``OR`` use
Kleene logic, and a WHERE clause keeps a row only when the predicate is
*true* (not merely non-false).

Each node *compiles* into a closure over row tuples:
``node.compile(resolve, params)`` resolves every column reference to a
tuple position once (``resolve`` maps ``ALIAS.COL`` / ``COL`` keys to
positions, or ``None`` when the name is not in scope), folds literals,
parameters and materialised subqueries into constants, and returns a
function ``row -> value`` that the executor calls per row.
"""

from __future__ import annotations

import datetime as _dt
import operator
import re
from functools import lru_cache, partial
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


#: maps a column key (``ALIAS.COL`` or bare ``COL``) or an aggregate key
#: to its position in the row tuple; ``None`` when it is not in scope
Resolver = Callable[[str], "int | None"]
#: a compiled expression: row tuple -> value
Compiled = Callable[[tuple], Any]


class Expression:
    """Base class for AST nodes."""

    def compile(self, resolve: Resolver, params: Sequence[Any] = ()) -> Compiled:
        raise NotImplementedError

    def evaluate(self, env: Mapping[str, Any], params: Sequence[Any] = ()) -> Any:
        """Evaluate once against a name -> value mapping (constant folding
        with ``{}``, INSERT VALUES); per-row callers compile instead."""
        positions = {key: i for i, key in enumerate(env)}
        return self.compile(positions.get, params)(tuple(env.values()))

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

    def compile(self, resolve, params=()) -> Compiled:
        value = self.value
        return lambda row: value

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"

    def __eq__(self, other):
        return isinstance(other, Literal) and self.value == other.value


class Parameter(Expression):
    """A positional ``?`` placeholder, bound at execution time."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def compile(self, resolve, params=()) -> Compiled:
        try:
            value = params[self.index]
        except IndexError:
            raise SqlSyntaxError(
                f"statement has parameter ?{self.index + 1} but only "
                f"{len(params)} parameter value(s) were supplied"
            ) from None
        return lambda row: value

    def __repr__(self) -> str:
        return f"Parameter({self.index})"


class ColumnRef(Expression):
    """A (possibly table-qualified) column reference."""

    __slots__ = ("table", "column", "key")

    def __init__(self, column: str, table: str | None = None) -> None:
        self.table = table.upper() if table else None
        self.column = column.upper()
        #: the name a resolver maps to a tuple position
        self.key = f"{self.table}.{self.column}" if self.table else self.column

    def position(self, resolve: Resolver) -> int:
        """This column's position in the rows ``resolve`` describes."""
        position = resolve(self.key)
        if position is None:
            # No silent fallback from qualified to bare names: a qualifier
            # that does not resolve is an error (this is what surfaces
            # correlated subqueries, which are unsupported, instead of
            # mis-binding them).
            raise CatalogError(f"unknown column {self.key}")
        return position

    def compile(self, resolve, params=()) -> Compiled:
        return operator.itemgetter(self.position(resolve))

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

    def compile(self, resolve, params=()) -> Compiled:
        raise SqlSyntaxError("'*' cannot be evaluated as a scalar")

    def __repr__(self) -> str:
        return "Star()"


def _check_bound(node) -> None:
    if not node._bound:
        raise SqlSyntaxError("subquery was not materialised before evaluation")


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

    def compile(self, resolve, params=()) -> Compiled:
        _check_bound(self)
        value = self._value
        return lambda row: value

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

    def compile(self, resolve, params=()) -> Compiled:
        _check_bound(self)
        value = (not self._nonempty) if self.negated else self._nonempty
        return lambda row: value


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

    def compile(self, resolve, params=()) -> Compiled:
        _check_bound(self)
        operand = self.operand.compile(resolve, params)
        hashed, family, values = self._hashed, self._hash_family, self._values
        negated, saw_null = self.negated, self._saw_null

        def evaluate(row):
            value = operand(row)
            if value is None:
                return None
            if hashed is not None and isinstance(value, family):
                matched = hash_key(value) in hashed
            else:
                matched = any(
                    candidate is not None and _compare("=", value, candidate)
                    for candidate in values
                )
            if matched:
                return not negated
            return None if saw_null else negated

        return evaluate

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


_COMPARISONS = {
    "=": operator.eq, "<>": operator.ne, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _compare(op: str, left: Any, right: Any) -> bool:
    compare = _COMPARISONS.get(op)
    if compare is None:
        raise SqlSyntaxError(f"unknown comparison operator {op}")
    left, right = _comparable(left, right)
    try:
        return compare(left, right)
    except TypeError:
        raise TypeMismatchError(
            f"cannot compare {type(left).__name__} with {type(right).__name__}"
        ) from None


class BinaryOp(Expression):
    """Binary operators: arithmetic, comparison, AND, OR, string ``||``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        self.op = op.upper()
        self.left = left
        self.right = right

    def compile(self, resolve, params=()) -> Compiled:
        op = self.op
        left = self.left.compile(resolve, params)
        right = self.right.compile(resolve, params)
        if op in ("AND", "OR"):
            # Kleene logic: the left operand can decide alone
            decisive = op == "OR"

            def logical(row):
                lhs = left(row)
                if lhs is decisive:
                    return decisive
                rhs = right(row)
                if rhs is decisive:
                    return decisive
                if lhs is None or rhs is None:
                    return None
                return not decisive

            return logical
        if op == "||":
            combine = lambda lhs, rhs: _stringify(lhs) + _stringify(rhs)
        elif op in ("+", "-", "*", "/", "%"):
            combine = partial(_arith, op)
        else:
            combine = partial(_compare, op)
        compare = _COMPARISONS.get(op)

        def binary(row):
            lhs = left(row)
            rhs = right(row)
            if lhs is None or rhs is None:
                return None
            if compare and type(lhs) in _NUMBERS and type(rhs) in _NUMBERS:
                return compare(lhs, rhs)  # nothing to normalise
            return combine(lhs, rhs)

        return binary

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
    if isinstance(value, DatalinkValue):
        return value.url
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

    def compile(self, resolve, params=()) -> Compiled:
        operand = self.operand.compile(resolve, params)
        if self.op == "NOT":
            apply = operator.not_
        elif self.op == "-":
            apply = lambda value: -_numeric(value, "-")
        elif self.op == "+":
            apply = lambda value: _numeric(value, "+")
        else:
            raise SqlSyntaxError(f"unknown unary operator {self.op}")

        def unary(row):
            value = operand(row)
            return None if value is None else apply(value)

        return unary

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

    def compile(self, resolve, params=()) -> Compiled:
        operand = self.operand.compile(resolve, params)
        if self.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None

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
    @lru_cache(maxsize=256)
    def compile_pattern(pattern: str) -> re.Pattern:
        """Translate an SQL LIKE pattern into an anchored regex (memoised:
        a column-valued pattern asks once per row)."""
        out = []
        for ch in pattern:
            if ch == "%":
                out.append(".*")
            elif ch == "_":
                out.append(".")
            else:
                out.append(re.escape(ch))
        return re.compile("".join(out) + r"\Z", re.DOTALL)

    def compile(self, resolve, params=()) -> Compiled:
        operand = self.operand.compile(resolve, params)
        pattern = self.pattern.compile(resolve, params)
        negated = self.negated
        to_regex = lambda text: (
            None if text is None else Like.compile_pattern(_stringify(text))
        )
        if isinstance(self.pattern, (Literal, Parameter)):
            regex = to_regex(pattern(()))  # once for the whole statement
            regex_of = lambda row: regex
        else:
            regex_of = lambda row: to_regex(pattern(row))

        def like(row):
            value = operand(row)
            regex = regex_of(row)
            if value is None or regex is None:
                return None
            return (regex.match(_stringify(value).rstrip()) is None) is negated

        return like

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

    def compile(self, resolve, params=()) -> Compiled:
        operand = self.operand.compile(resolve, params)
        items = [item.compile(resolve, params) for item in self.items]
        negated = self.negated

        def in_list(row):
            value = operand(row)
            if value is None:
                return None
            saw_null = False
            for item in items:
                candidate = item(row)
                if candidate is None:
                    saw_null = True
                elif _compare("=", value, candidate):
                    return not negated
            return None if saw_null else negated

        return in_list

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

    def compile(self, resolve, params=()) -> Compiled:
        operand = self.operand.compile(resolve, params)
        low_of = self.low.compile(resolve, params)
        high_of = self.high.compile(resolve, params)
        negated = self.negated

        def between(row):
            # value >= low AND value <= high, under three-valued logic: a
            # NULL bound leaves the result unknown only if the other holds
            value = operand(row)
            low = low_of(row)
            high = high_of(row)
            if value is None:
                return None
            if (low is not None and not _compare(">=", value, low)) or (
                high is not None and not _compare("<=", value, high)
            ):
                return negated
            if low is None or high is None:
                return None
            return not negated

        return between

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

    def compile(self, resolve, params=()) -> Compiled:
        branches = [
            (condition.compile(resolve, params), value.compile(resolve, params))
            for condition, value in self.branches
        ]
        default = (self.default or Literal(None)).compile(resolve, params)

        def case(row):
            for condition, value in branches:
                if condition(row) is True:
                    return value(row)
            return default(row)

        return case

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

    def compile(self, resolve, params=()) -> Compiled:
        args = [arg.compile(resolve, params) for arg in self.args]
        if self.name == "COALESCE":  # lazily: the first non-NULL wins
            return lambda row: next(
                (v for v in (arg(row) for arg in args) if v is not None), None
            )
        fn = _SCALAR_FUNCTIONS.get(self.name)
        name = self.name

        def call(row):
            if fn is None:
                raise SqlSyntaxError(f"unknown function {name}")
            values = [arg(row) for arg in args]
            if any(v is None for v in values):
                return None
            return fn(values)

        return call

    def _children(self):
        return list(self.args)

    def _collect_refs(self, out):
        for arg in self.args:
            arg._collect_refs(out)

    def __repr__(self) -> str:
        return f"FunctionCall({self.name!r}, {self.args!r})"


class AggregateCall(Expression):
    """Aggregate function reference: COUNT/SUM/AVG/MIN/MAX.

    Grouped execution folds each aggregate over its group and appends
    the result to the group's output row, in the slot the executor's
    resolver maps :attr:`key` to; the compiled aggregate reads that slot.
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

    def compile(self, resolve, params=()) -> Compiled:
        position = resolve(self.key)
        if position is None:
            raise SqlSyntaxError(
                f"aggregate {self.name} used outside a grouped query"
            )
        return operator.itemgetter(position)

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
