"""Unit tests for expression evaluation (SQL three-valued logic)."""

import datetime as dt

import pytest

from repro.errors import CatalogError, SqlSyntaxError, TypeMismatchError
from repro.sqldb.expressions import (
    AggregateCall,
    Between,
    BinaryOp,
    ColumnRef,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Parameter,
    Star,
    UnaryOp,
    truthy,
)
from repro.sqldb.types import Blob, Clob, DatalinkValue


def lit(value):
    return Literal(value)


class TestNullPropagation:
    @pytest.mark.parametrize("op", ["=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/"])
    def test_null_operand_yields_null(self, op):
        assert BinaryOp(op, lit(None), lit(1)).evaluate({}) is None
        assert BinaryOp(op, lit(1), lit(None)).evaluate({}) is None

    def test_not_null_is_null(self):
        assert UnaryOp("NOT", lit(None)).evaluate({}) is None

    def test_truthy_rejects_null_and_false(self):
        assert truthy(True)
        assert not truthy(None)
        assert not truthy(False)


class TestKleeneLogic:
    def test_and_table(self):
        cases = [
            (True, True, True),
            (True, False, False),
            (False, None, False),
            (None, False, False),
            (True, None, None),
            (None, None, None),
        ]
        for a, b, expected in cases:
            assert BinaryOp("AND", lit(a), lit(b)).evaluate({}) is expected

    def test_or_table(self):
        cases = [
            (False, False, False),
            (True, None, True),
            (None, True, True),
            (False, None, None),
            (None, None, None),
        ]
        for a, b, expected in cases:
            assert BinaryOp("OR", lit(a), lit(b)).evaluate({}) is expected

    def test_and_short_circuits(self):
        # Right side would raise if evaluated.
        boom = FunctionCall("UNDEFINED_FN", [])
        assert BinaryOp("AND", lit(False), boom).evaluate({}) is False
        assert BinaryOp("OR", lit(True), boom).evaluate({}) is True


class TestComparisons:
    def test_numeric_cross_type(self):
        assert BinaryOp("=", lit(1), lit(1.0)).evaluate({}) is True

    def test_string(self):
        assert BinaryOp("<", lit("abc"), lit("abd")).evaluate({}) is True

    def test_char_padding_ignored(self):
        assert BinaryOp("=", lit("ab   "), lit("ab")).evaluate({}) is True

    def test_date_vs_string(self):
        assert BinaryOp(
            ">", lit(dt.date(2000, 6, 1)), lit("2000-01-01")
        ).evaluate({}) is True

    def test_date_vs_datetime(self):
        assert BinaryOp(
            "=", lit(dt.date(2000, 1, 1)), lit(dt.datetime(2000, 1, 1))
        ).evaluate({}) is True

    def test_clob_compares_as_text(self):
        assert BinaryOp("=", lit(Clob("x")), lit("x")).evaluate({}) is True

    def test_datalink_compares_by_url(self):
        a = DatalinkValue("http://h/d/f.dat")
        assert BinaryOp("=", lit(a), lit(a.with_token("t"))).evaluate({}) is True

    def test_blob_compares_by_bytes(self):
        assert BinaryOp("=", lit(Blob(b"x")), lit(Blob(b"x"))).evaluate({}) is True

    def test_incomparable_raises(self):
        with pytest.raises(TypeMismatchError):
            BinaryOp("<", lit("abc"), lit(5)).evaluate({})


class TestArithmetic:
    def test_integer_division_stays_integral(self):
        assert BinaryOp("/", lit(6), lit(3)).evaluate({}) == 2
        assert isinstance(BinaryOp("/", lit(6), lit(3)).evaluate({}), int)

    def test_fractional_division(self):
        assert BinaryOp("/", lit(7), lit(2)).evaluate({}) == 3.5

    def test_division_by_zero(self):
        with pytest.raises(TypeMismatchError):
            BinaryOp("/", lit(1), lit(0)).evaluate({})

    def test_modulo(self):
        assert BinaryOp("%", lit(7), lit(3)).evaluate({}) == 1

    def test_unary_minus(self):
        assert UnaryOp("-", lit(5)).evaluate({}) == -5

    def test_arith_on_string_raises(self):
        with pytest.raises(TypeMismatchError):
            BinaryOp("+", lit("a"), lit(1)).evaluate({})

    def test_concat(self):
        assert BinaryOp("||", lit("a"), lit(1)).evaluate({}) == "a1"


class TestLike:
    @pytest.mark.parametrize(
        "value,pattern,expected",
        [
            ("Mark Papiani", "Mark%", True),
            ("Mark Papiani", "%Papiani", True),
            ("Mark Papiani", "%api%", True),
            ("Mark", "M_rk", True),
            ("Mark", "m_rk", False),  # LIKE is case-sensitive
            ("50 + 50%", "50 + 50\\%", False),  # no escape support: literal backslash
            ("abc", "abc", True),
            ("abc", "ab", False),
            ("a.c", "a.c", True),  # regex metachars are escaped
            ("axc", "a.c", False),
        ],
    )
    def test_patterns(self, value, pattern, expected):
        assert Like(lit(value), lit(pattern)).evaluate({}) is expected

    def test_null_pattern(self):
        assert Like(lit("x"), lit(None)).evaluate({}) is None

    def test_negated(self):
        assert Like(lit("abc"), lit("z%"), negated=True).evaluate({}) is True

    def test_compile_pattern_is_memoised_and_bounded(self):
        Like.compile_pattern.cache_clear()
        first = Like.compile_pattern("ab%")
        assert Like.compile_pattern("ab%") is first
        info = Like.compile_pattern.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert info.maxsize is not None

    def test_column_valued_pattern(self):
        # a pattern read from the row is compiled per distinct pattern
        like = Like(ColumnRef("v"), ColumnRef("p")).compile(
            {"V": 0, "P": 1}.get
        )
        assert like(("abc", "a%")) is True
        assert like(("abc", "b%")) is False
        assert like(("abc", None)) is None


class TestInBetween:
    def test_in_hit_and_miss(self):
        assert InList(lit(2), [lit(1), lit(2)]).evaluate({}) is True
        assert InList(lit(3), [lit(1), lit(2)]).evaluate({}) is False

    def test_in_with_null_member_is_unknown_on_miss(self):
        assert InList(lit(3), [lit(1), lit(None)]).evaluate({}) is None
        assert InList(lit(1), [lit(1), lit(None)]).evaluate({}) is True

    def test_not_in(self):
        assert InList(lit(3), [lit(1)], negated=True).evaluate({}) is True

    def test_between(self):
        assert Between(lit(5), lit(1), lit(10)).evaluate({}) is True
        assert Between(lit(0), lit(1), lit(10)).evaluate({}) is False
        assert Between(lit(5), lit(1), lit(10), negated=True).evaluate({}) is False

    def test_between_null(self):
        assert Between(lit(None), lit(1), lit(2)).evaluate({}) is None

    def test_between_null_bound_is_three_valued(self):
        # x BETWEEN a AND b means x >= a AND x <= b: a false side decides
        assert Between(lit(5), lit(None), lit(2)).evaluate({}) is False
        assert Between(lit(5), lit(9), lit(None)).evaluate({}) is False
        assert Between(lit(1), lit(None), lit(2)).evaluate({}) is None
        assert Between(lit(5), lit(None), lit(2), negated=True).evaluate({}) is True
        assert Between(lit(1), lit(0), lit(None), negated=True).evaluate({}) is None


class TestIsNull:
    def test_is_null(self):
        assert IsNull(lit(None)).evaluate({}) is True
        assert IsNull(lit(0)).evaluate({}) is False

    def test_is_not_null(self):
        assert IsNull(lit(0), negated=True).evaluate({}) is True


class TestFunctions:
    def test_upper_lower(self):
        assert FunctionCall("UPPER", [lit("abc")]).evaluate({}) == "ABC"
        assert FunctionCall("LOWER", [lit("ABC")]).evaluate({}) == "abc"

    def test_length_of_string_and_lobs(self):
        assert FunctionCall("LENGTH", [lit("abcd")]).evaluate({}) == 4
        assert FunctionCall("LENGTH", [lit(Blob(b"12345"))]).evaluate({}) == 5
        assert FunctionCall("LENGTH", [lit(Clob("123"))]).evaluate({}) == 3

    def test_substr(self):
        assert FunctionCall("SUBSTR", [lit("turbulence"), lit(1), lit(4)]).evaluate({}) == "turb"
        assert FunctionCall("SUBSTR", [lit("turbulence"), lit(5)]).evaluate({}) == "ulence"

    def test_coalesce(self):
        assert FunctionCall("COALESCE", [lit(None), lit(None), lit(3)]).evaluate({}) == 3
        assert FunctionCall("COALESCE", [lit(None)]).evaluate({}) is None

    def test_round_abs_trim(self):
        assert FunctionCall("ROUND", [lit(2.567), lit(1)]).evaluate({}) == 2.6
        assert FunctionCall("ABS", [lit(-4)]).evaluate({}) == 4
        assert FunctionCall("TRIM", [lit("  x ")]).evaluate({}) == "x"

    def test_null_argument_propagates(self):
        assert FunctionCall("UPPER", [lit(None)]).evaluate({}) is None

    def test_unknown_function(self):
        with pytest.raises(SqlSyntaxError):
            FunctionCall("NO_SUCH", [lit(1)]).evaluate({})


class TestColumnRefs:
    def test_qualified_lookup(self):
        env = {"T.A": 7}
        assert ColumnRef("a", "t").evaluate(env) == 7

    def test_unqualified_lookup(self):
        assert ColumnRef("a").evaluate({"A": 3}) == 3

    def test_qualified_never_falls_back_to_bare(self):
        # A wrong qualifier must error, not silently bind another column.
        with pytest.raises(CatalogError):
            ColumnRef("a", "t").evaluate({"A": 3})

    def test_unknown_column(self):
        with pytest.raises(CatalogError):
            ColumnRef("missing").evaluate({})

    def test_column_refs_collection(self):
        expr = BinaryOp("AND",
                        BinaryOp("=", ColumnRef("a"), lit(1)),
                        Like(ColumnRef("b", "t"), lit("%")))
        refs = {r.key for r in expr.column_refs()}
        assert refs == {"A", "T.B"}


class TestParameters:
    def test_binding(self):
        assert Parameter(1).evaluate({}, ("a", "b")) == "b"

    def test_missing_parameter(self):
        with pytest.raises(SqlSyntaxError):
            Parameter(2).evaluate({}, ("only",))


class TestAggregates:
    def test_accumulate(self):
        assert AggregateCall("COUNT", Star()).accumulate([1, 1, 1]) == 3
        assert AggregateCall("SUM", ColumnRef("x")).accumulate([1, 2, 3]) == 6
        assert AggregateCall("AVG", ColumnRef("x")).accumulate([2, 4]) == 3
        assert AggregateCall("MIN", ColumnRef("x")).accumulate([5, 2]) == 2
        assert AggregateCall("MAX", ColumnRef("x")).accumulate([5, 2]) == 5

    def test_empty_input(self):
        assert AggregateCall("COUNT", Star()).accumulate([]) == 0
        assert AggregateCall("SUM", ColumnRef("x")).accumulate([]) is None

    def test_distinct(self):
        agg = AggregateCall("COUNT", ColumnRef("x"), distinct=True)
        assert agg.accumulate([1, 1, 2]) == 2

    def test_unknown_aggregate(self):
        with pytest.raises(SqlSyntaxError):
            AggregateCall("MEDIAN", Star())

    def test_outside_group_context_raises(self):
        with pytest.raises(SqlSyntaxError):
            AggregateCall("COUNT", Star()).evaluate({})

    def test_contains_aggregate(self):
        expr = BinaryOp(">", AggregateCall("COUNT", Star()), lit(1))
        assert expr.contains_aggregate()
        assert not lit(1).contains_aggregate()
