"""Property-based differential testing against stdlib sqlite3.

Hypothesis draws small NULL-heavy tables (with and without a secondary
sorted index), random WHERE predicates and query shapes (optional
INNER/LEFT equi-join, ORDER BY on a unique key with LIMIT/OFFSET), so
range scans, hash joins, index joins and top-N run on inputs the fixed
corpus in ``test_planner_equivalence.py`` does not pick.  Each query must
return what sqlite3 returns for the same tables (``tests/sqlite_oracle.py``).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sqldb.database import Database
from tests.sqlite_oracle import assert_matches, load

#: column -> SQL type; every table has the same shape, K is the primary key
COLUMNS = {"K": "INTEGER", "I": "INTEGER", "D": "DOUBLE", "S": "VARCHAR(8)"}

_VALUES = {
    "I": st.integers(-3, 3),
    "D": st.sampled_from([-1.5, 0.0, 0.5, 1.0, 2.25]),
    "S": st.text(alphabet="abAB", max_size=3),
}
_CONSTANTS = {**_VALUES, "K": st.integers(-1, 12)}


def _nullable(values):
    """Values that are NULL about half the time."""
    return st.one_of(st.none(), values)


@st.composite
def _table(draw, name: str) -> tuple[list[str], list[tuple], list[str]]:
    """DDL, rows and the secondary-indexed columns of one table."""
    columns = ", ".join(
        f"{column} {kind}{' PRIMARY KEY' if column == 'K' else ''}"
        for column, kind in COLUMNS.items()
    )
    ddl = [f"CREATE TABLE {name} ({columns})"]
    indexed = draw(st.sampled_from([[], ["I"], ["D"], ["S"]]))
    for column in indexed:
        ddl.append(f"CREATE INDEX IX_{name}_{column} ON {name} ({column})")
    rows = [
        (key, draw(_nullable(_VALUES["I"])), draw(_nullable(_VALUES["D"])),
         draw(_nullable(_VALUES["S"])))
        for key in range(draw(st.integers(0, 12)))
    ]
    return ddl, rows, indexed


@st.composite
def _atom(draw, aliases: list[str]) -> tuple[str, list]:
    """One comparison predicate with its parameters."""
    alias = draw(st.sampled_from(aliases))
    column = draw(st.sampled_from(list(COLUMNS)))
    ref = f"{alias}.{column}"
    constant = _nullable(_CONSTANTS[column])
    shape = draw(st.sampled_from(
        ["cmp", "flipped", "between", "in", "null", "like"]
        if column == "S" else ["cmp", "flipped", "between", "in", "null"]
    ))
    if shape in ("cmp", "flipped"):
        op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        if shape == "flipped":
            return f"? {op} {ref}", [draw(constant)]
        return f"{ref} {op} ?", [draw(constant)]
    if shape == "between":
        return f"{ref} BETWEEN ? AND ?", [draw(constant), draw(constant)]
    if shape == "in":
        values = draw(st.lists(constant, min_size=1, max_size=3))
        return f"{ref} IN ({', '.join('?' * len(values))})", values
    if shape == "null":
        return f"{ref} IS {draw(st.sampled_from(['', 'NOT ']))}NULL", []
    text = draw(st.text(alphabet="abAB", min_size=1, max_size=2))
    pattern = draw(st.sampled_from([f"{text}%", f"%{text}"]))
    return f"{ref} LIKE '{pattern}'", []


@st.composite
def _range_atom(draw, column: str) -> tuple[str, list]:
    """A bound on ``A.column`` that an index on it turns into a range scan."""
    ref = f"A.{column}"
    constant = _CONSTANTS[column]
    shape = draw(st.sampled_from(
        ["<", "<=", ">", ">=", "BETWEEN"] + (["LIKE"] if column == "S" else [])
    ))
    if shape == "BETWEEN":
        return f"{ref} BETWEEN ? AND ?", [draw(constant), draw(constant)]
    if shape == "LIKE":
        text = draw(st.text(alphabet="abAB", min_size=1, max_size=2))
        return f"{ref} LIKE '{text}%'", []
    if draw(st.booleans()):
        return f"? {shape} {ref}", [draw(constant)]
    return f"{ref} {shape} ?", [draw(constant)]


def _predicate(aliases: list[str]):
    """Atoms combined with AND / OR / NOT."""

    def combine(children):
        pair = st.tuples(children, children)
        return st.one_of(
            pair.map(lambda p: (f"({p[0][0]} AND {p[1][0]})", p[0][1] + p[1][1])),
            pair.map(lambda p: (f"({p[0][0]} OR {p[1][0]})", p[0][1] + p[1][1])),
            children.map(lambda c: (f"NOT ({c[0]})", c[1])),
        )

    return st.recursive(_atom(aliases), combine, max_leaves=4)


@st.composite
def _case(draw):
    """A database script plus one query over it."""
    ddl, rows, indexed = draw(_table("A"))
    tables = {"A": rows}
    aliases = ["A"]
    from_clause = "A"
    if draw(st.booleans()):
        b_ddl, tables["B"], _ = draw(_table("B"))
        ddl += b_ddl
        aliases.append("B")
        kind = draw(st.sampled_from(["JOIN", "LEFT JOIN"]))
        left, right = draw(st.sampled_from(
            [("I", "I"), ("D", "D"), ("S", "S"), ("I", "K"), ("K", "I")]
        ))
        from_clause = f"A {kind} B ON A.{left} = B.{right}"
    columns = ", ".join(f"{a}.{c}" for a in aliases for c in COLUMNS)
    sql = f"SELECT {columns} FROM {from_clause}"
    params: list = []
    # top-level conjuncts are what the planner pushes down and turns into
    # range scans on the first table
    conjuncts = draw(st.lists(_predicate(aliases), max_size=2))
    if indexed and draw(st.booleans()):
        conjuncts.append(draw(_range_atom(indexed[0])))
    if conjuncts:
        sql += " WHERE " + " AND ".join(text for text, _ in conjuncts)
        params = [value for _, values in conjuncts for value in values]
    if draw(st.booleans()):
        direction = draw(st.sampled_from(["", " DESC"]))
        sql += " ORDER BY " + ", ".join(f"{a}.K{direction}" for a in aliases)
        limit = draw(st.none() | st.integers(0, 6))
        if limit is not None:
            sql += f" LIMIT {limit}"
        offset = draw(st.none() | st.integers(0, 4))
        if offset is not None:
            sql += f" OFFSET {offset}"
    return ddl, tables, sql, params


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_case())
def test_random_queries_match_sqlite(case):
    ddl, tables, sql, params = case
    db = Database()
    for statement in ddl:
        db.execute(statement)
    for name, rows in tables.items():
        for row in rows:
            db.execute(f"INSERT INTO {name} VALUES (?, ?, ?, ?)", row)
    assert_matches(db, load(db), sql, params)
