"""Stdlib ``sqlite3`` as the correctness reference for query results.

:func:`load` copies every base table of a :class:`Database` into an
in-memory sqlite database; :func:`assert_matches` runs one query on both
engines and compares the results — as multisets, or as exact sequences
when the query has ORDER BY.

Known semantic gaps, kept out of oracle queries rather than papered over:

* sqlite's LIKE ignores ASCII case and ours does not, so the oracle turns
  on ``PRAGMA case_sensitive_like``;
* sqlite rejects a bare ``OFFSET n``; it is rewritten to
  ``LIMIT -1 OFFSET n``;
* sqlite computes integer ``7/2`` as 3 where ours gives 3.5, so oracle
  queries avoid integer division.
"""

from __future__ import annotations

import re
import sqlite3
from collections import Counter
from typing import Any, Sequence

from repro.sqldb.database import Database
from repro.sqldb.parser import parse_sql

_SQLITE_TYPES = {
    "INTEGER": "INTEGER",
    "DOUBLE": "REAL",
    "VARCHAR": "TEXT",
    "CHAR": "TEXT",
}

#: an OFFSET, with the LIMIT clause in front of it when there is one
_OFFSET = re.compile(r"(\bLIMIT\s+\S+\s+)?\bOFFSET\b", re.IGNORECASE)


def load(db: Database) -> sqlite3.Connection:
    """An in-memory sqlite copy of every base table of ``db``."""
    oracle = sqlite3.connect(":memory:")
    oracle.execute("PRAGMA case_sensitive_like = ON")
    for name in db.catalog.table_names():
        columns = db.catalog.schema(name).columns
        oracle.execute(
            f'CREATE TABLE "{name}" ('
            + ", ".join(
                f'"{c.name}" {_SQLITE_TYPES[c.type.name]}' for c in columns
            )
            + ")"
        )
        oracle.executemany(
            f'INSERT INTO "{name}" VALUES ({", ".join("?" * len(columns))})',
            db.execute(f'SELECT * FROM "{name}"').rows,
        )
    return oracle


def sqlite_sql(sql: str) -> str:
    """Rewrite the parts of our dialect sqlite does not accept."""
    return _OFFSET.sub(
        lambda m: m.group(0) if m.group(1) else "LIMIT -1 OFFSET", sql
    )


def assert_matches(db: Database, oracle: sqlite3.Connection, sql: str,
                   params: Sequence[Any] = ()) -> list[tuple]:
    """Run ``sql`` on ``db`` and on ``oracle``; fail unless they agree.

    Returns our rows so callers can assert more about them."""
    ours = [tuple(row) for row in db.execute(sql, params).rows]
    theirs = oracle.execute(sqlite_sql(sql), tuple(params)).fetchall()
    if getattr(parse_sql(sql), "order_by", None):
        assert ours == theirs, sql
    else:
        assert Counter(ours) == Counter(theirs), sql
    return ours
