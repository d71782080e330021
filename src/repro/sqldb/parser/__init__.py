"""Hand-written SQL lexer and recursive-descent parser.

The supported subset covers what the EASIA layers need: full DDL for the
archive schemas (including SQL/MED DATALINK column options), DML with
positional parameters, and SELECT with joins, LIKE, grouping, ordering and
limits.

>>> from repro.sqldb.parser import parse_sql
>>> stmt = parse_sql("SELECT title FROM simulation WHERE grid_size > 64")
>>> type(stmt).__name__
'SelectStmt'
"""

from repro.sqldb.parser.lexer import Token, tokenize
from repro.sqldb.parser.parser import parse_script, parse_sql

__all__ = ["Token", "tokenize", "parse_sql", "parse_script"]
