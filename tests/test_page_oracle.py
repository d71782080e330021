"""``/search`` result pages checked against stdlib ``sqlite3``.

Hypothesis draws QBE form submissions — restrictions with every form
operator, ``%``/``_`` wildcards (``=`` with a wildcard is a LIKE),
``order_by``/``order_dir``, ``page``, ``page_size`` and an explicit
``limit`` — against a small table with NULLs and duplicate sort keys.
Each rendered page must list, in order, the rows sqlite3 returns for the
same restrictions (the same table, ``tests/sqlite_oracle.py``), and its
footer must state the same total.

Ties on the sort column reach the sort in rowid order: the table is
filled in primary-key order, so every access path (a scan, a lookup of
one key, or a sorted index, whose equal keys sit in rowid order) yields
rows in that order.  The oracle therefore breaks ties by the primary
key.  ``limit`` caps the rows the search reaches; the pages divide at
most that many.

Half the forms run against a copy of the table with composite sorted
indexes (equality column, sort column), so that ``I = v`` pages ordered
by the NOT NULL columns K or T take the index-ordered path; such a page
must read no more rows than it shows.
"""

from __future__ import annotations

import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalink import DataLinker, TokenManager
from repro.operations import OperationEngine
from repro.sqldb.database import Database
from repro.web import EasiaApp, UserManager
from repro.web.qbe import OPERATORS
from repro.xuis import generate_default_xuis
from tests.sqlite_oracle import load

#: K is the primary key; I and S carry NULLs and many duplicates; T is
#: NOT NULL with many duplicates
_ROWS = [
    (k, None if k % 5 == 3 else (k * 7) % 4 - 1,
     None if k % 6 == 4 else ["a", "ab", "b", "a_", "%b", "ba"][(k * 5) % 6],
     (k * 3) % 4)
    for k in range(23)
]

#: the indexed copy's sorted indexes: (I, K) and (I, T) serve ``I = v``
#: pages in K or T order; the others cannot (a VARCHAR equality, a
#: NULL-able sort column) and must fall back to the scan
_INDEXES = ["QT_I_K ON QT (I, K)", "QT_I_T ON QT (I, T)",
            "QT_S_T ON QT (S, T)", "QT_T_S ON QT (T, S)"]


def _portal(indexed: bool, sandbox: str):
    db = Database()
    db.execute("CREATE TABLE QT (K INTEGER PRIMARY KEY, I INTEGER,"
               " S VARCHAR(8), T INTEGER NOT NULL)")
    for index in _INDEXES if indexed else []:
        db.execute(f"CREATE INDEX {index}")
    with db.transaction():
        for row in _ROWS:
            db.execute("INSERT INTO QT VALUES (?, ?, ?, ?)", row)
    document = generate_default_xuis(db)
    linker = DataLinker(TokenManager(secret=b"page-oracle"))
    engine = OperationEngine(db, linker, document, sandbox)
    app = EasiaApp(db, linker, document, UserManager(), engine)
    return app, app.login("guest", "guest")


@pytest.fixture(scope="module")
def portal():
    with tempfile.TemporaryDirectory() as sandbox:
        apps = {indexed: _portal(indexed, sandbox) for indexed in (False, True)}
        oracle = load(apps[False][0].db)
        yield apps, oracle
    oracle.close()


_INT_VALUES = st.integers(-2, 24).map(str)
_TEXT_VALUES = st.text(alphabet="ab%_", min_size=1, max_size=3)


@st.composite
def _restriction(draw, column: str) -> tuple[str, str]:
    """An (operator, value) pair the form could submit for ``column``."""
    if column == "S":
        return draw(st.sampled_from(OPERATORS)), draw(_TEXT_VALUES)
    # integer columns: no LIKE, no wildcard values
    return draw(st.sampled_from(OPERATORS[:-1])), draw(_INT_VALUES)


@st.composite
def _form(draw) -> dict[str, str]:
    params = {"table": "QT"}
    for column in draw(st.lists(st.sampled_from("KIST"), unique=True,
                                max_size=2)):
        op, value = draw(_restriction(column))
        params[f"op_{column}"] = op
        params[f"val_{column}"] = value
    if draw(st.booleans()):
        # the restriction the indexed copy's (I, K) and (I, T) serve
        params["op_I"] = "="
        params["val_I"] = str(draw(st.integers(-2, 2)))
    order_by = draw(st.sampled_from([None, "K", "I", "S", "T"]))
    if order_by is not None:
        params["order_by"] = order_by
        params["order_dir"] = draw(st.sampled_from(["asc", "desc"]))
    params["page"] = str(draw(st.integers(1, 5)))
    params["page_size"] = str(draw(st.integers(1, 6)))
    limit = draw(st.one_of(st.none(), st.integers(0, 25)))
    if limit is not None:
        params["limit"] = str(limit)
    return params


def _expected(oracle, params: dict[str, str]) -> tuple[list[int], int]:
    """Keys of the requested page and the search's total, per sqlite3."""
    clauses, values = [], []
    for column in "KIST":
        if f"val_{column}" not in params:
            continue
        op, value = params[f"op_{column}"], params[f"val_{column}"]
        if column == "S":
            if op == "=" and ("%" in value or "_" in value):
                op = "LIKE"
        else:
            value = int(value)
        clauses.append(f"{column} {op} ?")
        values.append(value)
    where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
    order = params.get("order_by", "K")
    direction = " DESC" if params.get("order_dir") == "desc" else ""
    keys = [
        row[0] for row in oracle.execute(
            f"SELECT K FROM QT{where} ORDER BY {order}{direction}, K", values
        )
    ]
    if "limit" in params:
        keys = keys[:int(params["limit"])]
    size = int(params["page_size"])
    offset = (int(params["page"]) - 1) * size
    return keys[offset:offset + size], len(keys)


_ROW_KEY = re.compile(r"<tr><td>(-?\d+)</td>")
_COUNT = re.compile(r"<p>(\d+) row\(s\)</p>")
_FOOTER = re.compile(r"page (\d+) of (\d+) \((\d+) rows\)")


def _index_ordered(params: dict[str, str]) -> bool:
    """Whether the indexed copy answers the form from an index range that
    holds exactly its rows: ``I = v`` and nothing else, in ascending K or
    T order."""
    restricted = [k[4:] for k in params if k.startswith("val_")]
    return (restricted == ["I"] and params["op_I"] == "="
            and params.get("order_by", "K") in ("K", "T")
            and params.get("order_dir") != "desc")


class TestSearchPagesMatchSqlite:
    @settings(max_examples=150, deadline=None)
    @given(params=_form(), indexed=st.booleans())
    def test_page_rows_and_total(self, portal, params, indexed):
        apps, oracle = portal
        app, session = apps[indexed]
        conn = app.db._connection()
        scanned = conn.rows_scanned
        text = app.get("/search", dict(params), session_id=session).text
        scanned = conn.rows_scanned - scanned
        if indexed and _index_ordered(params):
            # the page's rows only, not the ones before it
            assert scanned <= int(params["page_size"]), params
        keys, total = _expected(oracle, params)
        assert [int(k) for k in _ROW_KEY.findall(text)] == keys, params
        assert _COUNT.search(text).group(1) == str(len(keys))
        size = int(params["page_size"])
        pages = -(-total // size)
        footer = _FOOTER.search(text)
        if pages > 1:
            assert footer is not None, params
            assert footer.groups() == (params["page"], str(pages), str(total))
        else:
            assert footer is None, params
