"""XUIS ``<condition>``s mean what the SQL engine's ``WHERE`` means.

A condition compiles through :mod:`repro.sqldb.expressions`, so for every
row and condition ``Condition.matches`` must agree with
``SELECT K FROM T WHERE K = ? AND <col> <op> ?`` — and where the engine
raises ``TypeMismatchError``, ``matches`` raises ``XuisError``.
"""

import datetime as dt

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import TypeMismatchError, XuisError
from repro.sqldb import Database
from repro.sqldb.types import DatalinkValue
from repro.web.render import result_rows_as_dicts
from repro.xuis.model import Condition, OperationSpec
from repro.xuis.parse import _condition_value

CREATED = "SIMULATION.CREATED"


class TestDateConditions:
    row = {CREATED: dt.date(1999, 1, 10), "CREATED": dt.date(1999, 1, 10)}

    def test_eq_parses_an_iso_date_string(self):
        assert Condition(CREATED, "eq", "1999-01-10").matches(self.row)
        assert not Condition(CREATED, "eq", "1999-01-11").matches(self.row)

    def test_ge_compares_as_dates(self):
        assert Condition(CREATED, "ge", "1999-01-01").matches(self.row)
        assert not Condition(CREATED, "gt", "1999-01-10").matches(self.row)

    def test_engine_agrees(self):
        db = Database()
        db.execute("CREATE TABLE SIMULATION (K INTEGER PRIMARY KEY, CREATED DATE)")
        db.execute("INSERT INTO SIMULATION VALUES (1, '1999-01-10')")
        row = result_rows_as_dicts(
            "SIMULATION", db.execute("SELECT * FROM SIMULATION")
        )[0]
        for op, sql_op in (("eq", "="), ("ge", ">=")):
            value = "1999-01-10" if op == "eq" else "1999-01-01"
            sql = f"SELECT K FROM SIMULATION WHERE CREATED {sql_op} ?"
            assert db.execute(sql, (value,)).rows == [(1,)]
            assert Condition(CREATED, op, value).matches(row)

    def test_unparseable_date_is_a_xuis_error(self):
        with pytest.raises(XuisError):
            Condition(CREATED, "lt", "soon").matches(self.row)

    def test_operation_gated_on_a_date(self):
        op = OperationSpec("Recent", conditions=[Condition(CREATED, "ge", "1999-01-05")])
        assert op.applies_to(self.row)
        assert not op.applies_to({CREATED: dt.date(1999, 1, 1)})


def test_like_on_a_datalink_matches_its_url():
    value = DatalinkValue("http://fs1.example/data/u_001.dat")
    assert Condition("R.DOWNLOAD_RESULT", "like", "http://fs1%.dat").matches(
        {"R.DOWNLOAD_RESULT": value}
    )


def test_sql_op_table():
    assert Condition("T.N", "le", 1).sql_op == "<="
    assert Condition("T.N", "LIKE", "a%").sql_op == "LIKE"


# -- the oracle: Condition.matches against the engine's WHERE -----------------

_DATES = st.dates(dt.date(1999, 1, 1), dt.date(1999, 1, 12))
_ROWS = st.lists(
    st.tuples(
        st.none() | st.integers(-4, 4),
        st.none() | st.integers(-8, 8).map(lambda n: n / 2),
        st.none() | st.text("ab1 ", max_size=6),
        st.none() | st.text("ab1", max_size=6),
        st.none() | _DATES,
    ),
    min_size=1,
    max_size=5,
)
_COLUMNS = ("I", "D", "V", "C", "DT")
# condition texts as they appear in a XUIS document, typed by the parser
_VALUE_TEXTS = st.one_of(
    st.integers(-4, 4).map(str),
    st.integers(-8, 8).map(lambda n: str(n / 2)),
    st.text("ab1 %_", max_size=5).map(lambda s: f"'{s}'"),
    _DATES.map(lambda d: f"'{d.isoformat()}'"),
    _DATES.map(dt.date.isoformat),
    st.sampled_from(["ab", "x-1", "1999-13-01"]),
)
_CONDITIONS = st.lists(
    st.builds(
        lambda column, op, text: Condition(f"T.{column}", op, _condition_value(text)),
        st.sampled_from(_COLUMNS),
        st.sampled_from(list(Condition.SQL_OPS)),
        _VALUE_TEXTS,
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=_ROWS, conditions=_CONDITIONS)
def test_condition_matches_equal_engine_where(rows, conditions):
    db = Database()
    db.execute(
        "CREATE TABLE T (K INTEGER PRIMARY KEY, I INTEGER, D DOUBLE, "
        "V VARCHAR(10), C CHAR(6), DT DATE)"
    )
    for k, row in enumerate(rows):
        db.execute("INSERT INTO T VALUES (?, ?, ?, ?, ?, ?)", (k, *row))
    row_dicts = result_rows_as_dicts("T", db.execute("SELECT * FROM T"))
    for condition in conditions:
        column = condition.colid.split(".")[1]
        sql = f"SELECT K FROM T WHERE K = ? AND {column} {condition.sql_op} ?"
        for row in row_dicts:
            try:
                expected = db.execute(sql, (row["K"], condition.value)).rows != []
            except TypeMismatchError:
                with pytest.raises(XuisError):
                    condition.matches(row)
            else:
                assert condition.matches(row) is expected, (condition, row)
