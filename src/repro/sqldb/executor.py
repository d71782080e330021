"""SELECT execution: scans, index lookups, joins, grouping and ordering.

Rows are tuples.  A base-table row is the stored tuple itself; a joined
row concatenates each FROM entry's tuple in FROM order, so every column
sits at a fixed position (:class:`_Layout`).  Each execution compiles its
filters, join keys, select items, grouping and sort keys once into
closures over those positions (:meth:`Expression.compile`), so an unknown
or ambiguous column is an error before any row is read.

Planning is cost-aware where it matters for the EASIA workloads:

* WHERE conjuncts are *pushed down* to the earliest pipeline position
  whose tables cover their columns, so scans and early joins filter rows
  instead of the full join product being filtered at the end;
* equi-joins with no usable index run as **hash joins** (build on the
  inner side, probe with the outer stream) instead of O(n·m) nested loops;
* inequality / BETWEEN / LIKE-prefix predicates drive
  :meth:`SortedIndex.range_scan` instead of forcing sequential scans;
* ``ORDER BY ... LIMIT k`` keeps a **top-N heap** instead of sorting the
  full result, and ``LIMIT`` without ORDER BY stops producing rows early;
* DISTINCT deduplicates through a hash set, and uncorrelated IN
  subqueries are hashed semi-joins (see :mod:`repro.sqldb.expressions`).

Every operator announces itself in the ``plan`` list (EXPLAIN) and counts
rows through :class:`_StepStats` under EXPLAIN ANALYZE.  There is one
execution path; its correctness reference is stdlib ``sqlite3``, which the
differential tests (``tests/sqlite_oracle.py``) load with the same tables
and run the same queries against.
"""

from __future__ import annotations

from heapq import nsmallest
from itertools import islice
from operator import itemgetter
from time import perf_counter
from typing import Any, Callable, Iterator, Sequence

from repro.errors import CatalogError, SqlSyntaxError, TypeMismatchError
from repro.sqldb.expressions import (
    AggregateCall,
    ColumnRef,
    ExistsSubquery,
    Expression,
    InSubquery,
    Resolver,
    Star,
    Subquery,
    hash_key,
)
from repro.sqldb.parser.ast_nodes import Join, SelectItem, SelectStmt, TableRef
from repro.sqldb.planner import (
    assign_filters,
    conjuncts,
    constant_equalities,
    describe,
    join_equalities,
    range_bounds,
    single_alias_filters,
)
from repro.sqldb.storage import SortedIndex, _NullsFirstKey, nulls_first_rank
from repro.sqldb.types import (
    BlobType,
    CharType,
    ClobType,
    DatalinkType,
    VarcharType,
)

__all__ = ["Executor", "SelectResult"]


class SelectResult:
    """Materialised result of a SELECT: column names plus row tuples."""

    def __init__(
        self,
        columns: list[str],
        rows: list[tuple],
        plan: list[str],
        items: list[SelectItem] | None = None,
        alias_tables: dict[str, str] | None = None,
        step_stats: "dict[int, _StepStats] | None" = None,
        matched_rows: int | None = None,
    ) -> None:
        self.columns = columns
        self.rows = rows
        #: rows that reached ORDER BY / LIMIT / OFFSET (after WHERE,
        #: grouping and DISTINCT): the result's size without LIMIT and
        #: OFFSET, read at the statement's snapshot; None when a LIMIT
        #: without ORDER BY stopped reading early
        self.matched_rows = matched_rows
        #: access-path descriptions, surfaced through Database.explain()
        self.plan = plan
        #: expanded select items (stars resolved); lets the database layer
        #: map output columns back to source table columns (for DATALINK
        #: token decoration and the web layer's browse links)
        self.items = items or []
        #: FROM-clause alias -> real table name
        self.alias_tables = alias_tables or {}
        #: plan-index -> measured rows/seconds, populated by EXPLAIN ANALYZE
        self.step_stats = step_stats


class _StepStats:
    """Measured output of one plan step under EXPLAIN ANALYZE.

    ``seconds`` is cumulative: pulling a row from step N drives every step
    upstream of it, so each entry reports the time spent producing that
    step's output including its inputs."""

    __slots__ = ("rows", "seconds")

    def __init__(self) -> None:
        self.rows = 0
        self.seconds = 0.0


def _timed_iter(iterator: Iterator, stats: _StepStats) -> Iterator:
    """Count rows and accumulate the time spent inside ``next()``."""
    iterator = iter(iterator)
    while True:
        started = perf_counter()
        try:
            item = next(iterator)
        except StopIteration:
            stats.seconds += perf_counter() - started
            return
        stats.seconds += perf_counter() - started
        stats.rows += 1
        yield item


class _BoundTable:
    """A FROM-clause entry resolved against the catalog."""

    __slots__ = ("alias", "table", "schema", "join_kind", "join_on")

    def __init__(self, alias: str, table, join_kind: str | None = None,
                 join_on: Expression | None = None) -> None:
        self.alias = alias
        self.table = table
        self.schema = table.schema
        self.join_kind = join_kind  # None for the first table / cross joins
        self.join_on = join_on


class Executor:
    def __init__(self, catalog) -> None:
        self._catalog = catalog
        self._expanding_views: set[str] = set()
        #: view name -> materialised transient Table, valid for the duration
        #: of one top-level statement (a self-joined or re-referenced view
        #: runs its stored SELECT once, not per reference)
        self._view_cache: dict[str, Any] = {}
        self._depth = 0
        #: lifetime count of rows examined by scans and lookups (including
        #: view materialisation and subqueries); the database layer
        #: snapshots deltas around each statement for metrics
        self.rows_scanned = 0
        #: lifetime count of rows removed by pushed-down filters before the
        #: end of the join pipeline (obs: sqldb.scan.pushdown_filtered)
        self.pushdown_filtered = 0
        #: lifetime count of rows hashed into join build tables
        #: (obs: sqldb.join.hash_build_rows)
        self.hash_build_rows = 0
        #: lifetime count of view SELECTs actually executed (cache misses)
        self.view_materialisations = 0

    # -- public ----------------------------------------------------------------

    def execute_select(
        self, stmt: SelectStmt, params: Sequence[Any] = (),
        analyze: bool = False,
    ) -> SelectResult:
        self._depth += 1
        try:
            return self._execute_select(stmt, params, analyze)
        finally:
            self._depth -= 1
            if self._depth == 0:
                self._view_cache.clear()

    def _execute_select(
        self, stmt: SelectStmt, params: Sequence[Any], analyze: bool,
    ) -> SelectResult:
        plan: list[str] = []
        step_stats: dict[int, _StepStats] | None = None
        instrument: Callable[[Iterator[tuple]], Iterator[tuple]] | None = None
        if analyze:
            step_stats = {}

            def instrument(rows: Iterator[tuple]) -> Iterator[tuple]:
                """Attach a timing probe to the plan entry appended last."""
                stats = _StepStats()
                step_stats[len(plan) - 1] = stats
                return _timed_iter(rows, stats)

        self.bind_subqueries(self._statement_expressions(stmt), params, plan)
        bound = self._bind_tables(stmt)
        layout = _Layout(bound)
        items = self._expand_items(stmt, bound)
        # GROUP BY and ORDER BY may name a select-list alias (ORDER BY n
        # for "COUNT(*) AS n"); those resolve to the aliased expression.
        alias_exprs = {item.alias: item.expr for item in items if item.alias}
        grouped = bool(stmt.group_by) or any(
            item.expr is not None and item.expr.contains_aggregate()
            for item in items
        ) or (stmt.having is not None and stmt.having.contains_aggregate())
        offset = stmt.offset or 0

        where_conjuncts = conjuncts(stmt.where)
        # whether the access path yields rows in ORDER BY order, and the
        # matched-row count when its index range gives it
        in_order, matched = False, None
        if bound:
            stage_filters, residual = assign_filters(
                where_conjuncts, [b.alias for b in bound], layout.unambiguous
            )
            order = None
            if (stmt.limit is not None and len(bound) == 1 and not residual
                    and not grouped and not stmt.distinct):
                order = _index_order(stmt.order_by, alias_exprs, bound[0])
            rows, in_order, matched = self._access_path(
                bound[0], where_conjuncts, params, plan, order,
                offset, offset + (stmt.limit or 0),
            )
            rows = self._produce_rows(
                rows, bound, layout, params, plan, instrument, stage_filters,
            )
        else:
            # SELECT without FROM: a single empty row.
            rows = iter([()])
            residual = where_conjuncts
            plan.append("no FROM clause: single empty row")
            if instrument is not None:
                rows = instrument(rows)

        resolve = layout.resolver(len(bound))
        if residual:
            keep = _conjunction(residual, resolve, params)
            rows = (row for row in rows if keep(row) is True)

        if grouped:
            rows, resolve = self._group(
                stmt, items, rows, layout, params,
                [_unalias(expr, alias_exprs) for expr in stmt.group_by],
            )
            plan.append(
                f"hash aggregate on {len(stmt.group_by)} grouping expression(s)"
            )
            if instrument is not None:
                rows = instrument(rows)
        elif stmt.having is not None:
            raise SqlSyntaxError("HAVING requires GROUP BY or aggregates")

        columns = [self._item_label(item, i) for i, item in enumerate(items)]
        project = _compile_tuple([item.expr for item in items], resolve, params)

        if stmt.distinct:
            plan.append("distinct (hash)")
            rows = self._distinct(rows, project)
            if instrument is not None:
                rows = _timed_iter(rows, self._stats_slot(step_stats, plan))

        # Only the rows that survive ORDER BY / LIMIT / OFFSET are projected;
        # every row that reaches this step is counted (matched_rows).
        if stmt.order_by and not in_order:
            order_key = _compile_order_key(
                stmt.order_by, alias_exprs, resolve, params
            )
            started = perf_counter()
            rows = list(rows)
            matched = len(rows)
            if stmt.limit is not None:
                top = stmt.limit + offset
                plan.append(
                    f"top-N sort (N={top}) on "
                    f"{len(stmt.order_by)} key(s)"
                )
            else:
                plan.append(f"sort on {len(stmt.order_by)} key(s)")
            try:
                if stmt.limit is not None:
                    kept = nsmallest(top, rows, key=order_key)
                else:
                    kept = sorted(rows, key=order_key)
            except TypeError as exc:
                raise TypeMismatchError(
                    f"ORDER BY compares values of incomparable types: {exc}"
                ) from None
            self._record_step(step_stats, plan, len(kept),
                              perf_counter() - started)
            # the top-N heap holds at most offset + limit rows
            kept = kept[offset:]
        elif stmt.limit is not None:
            plan.append(f"limit {stmt.limit} (early stop)")
            if in_order and matched is None:
                # filters beyond the index prefix: count the rows they keep
                rows = list(rows)
                matched = len(rows)
            elif in_order:
                offset = 0  # the counted range skipped the offset unread
            kept = list(islice(rows, offset, offset + stmt.limit))
            self._record_step(step_stats, plan, len(kept), 0.0)
        else:
            kept = list(rows)
            matched = len(kept)
            kept = kept[offset:]

        alias_tables = {b.alias: b.schema.name for b in bound}
        return SelectResult(
            columns, [project(row) for row in kept], plan, items,
            alias_tables, step_stats=step_stats, matched_rows=matched,
        )

    # -- result-shaping helpers -------------------------------------------------

    @staticmethod
    def _stats_slot(step_stats, plan: list[str]) -> _StepStats:
        stats = _StepStats()
        if step_stats is not None:
            step_stats[len(plan) - 1] = stats
        return stats

    @staticmethod
    def _record_step(step_stats, plan: list[str], rows: int,
                     seconds: float) -> None:
        if step_stats is None:
            return
        stats = _StepStats()
        stats.rows = rows
        stats.seconds = seconds
        step_stats[len(plan) - 1] = stats

    @staticmethod
    def _distinct(
        rows: Iterator[tuple], project: Callable[[tuple], tuple],
    ) -> Iterator[tuple]:
        """Set-based DISTINCT over hashable NULLs-first keys of the
        projected rows (O(n), not the quadratic list-membership scan)."""
        seen: set[tuple] = set()
        for row in rows:
            key = tuple(_NullsFirstKey((v,)) for v in project(row))
            if key not in seen:
                seen.add(key)
                yield row

    # -- subquery materialisation ---------------------------------------------

    @staticmethod
    def _statement_expressions(stmt: SelectStmt) -> list[Expression]:
        out: list[Expression] = []
        for item in stmt.items:
            if item.expr is not None:
                out.append(item.expr)
        for join in stmt.joins:
            if join.on is not None:
                out.append(join.on)
        if stmt.where is not None:
            out.append(stmt.where)
        out.extend(stmt.group_by)
        if stmt.having is not None:
            out.append(stmt.having)
        out.extend(order.expr for order in stmt.order_by)
        return out

    def bind_subqueries(
        self, exprs: list[Expression], params: Sequence[Any],
        plan: list[str] | None = None,
    ) -> None:
        """Materialise every (uncorrelated) subquery once per execution.

        Nested subqueries are handled by the recursive execute_select call;
        a correlated subquery surfaces as an unknown-column error from its
        standalone execution.  When a ``plan`` list is supplied, IN/EXISTS
        materialisations announce themselves (the hashed semi-join path).
        """
        for expr in exprs:
            for node in expr.walk():
                if isinstance(node, (Subquery, InSubquery, ExistsSubquery)):
                    result = self.execute_select(node.select, params)
                    node.bind(result.rows)
                    if plan is None:
                        continue
                    if isinstance(node, InSubquery):
                        plan.append(
                            f"hashed semi-join: IN (subquery) with "
                            f"{len(result.rows)} key(s)"
                        )
                    elif isinstance(node, ExistsSubquery):
                        plan.append(
                            f"semi-join: EXISTS (subquery), "
                            f"{len(result.rows)} row(s)"
                        )

    # -- binding ------------------------------------------------------------------

    def _bind_tables(self, stmt: SelectStmt) -> list[_BoundTable]:
        bound: list[_BoundTable] = []
        seen_aliases: set[str] = set()

        def bind(ref: TableRef, kind: str | None, on: Expression | None) -> None:
            if ref.alias in seen_aliases:
                raise CatalogError(f"duplicate table alias {ref.alias}")
            seen_aliases.add(ref.alias)
            bound.append(
                _BoundTable(ref.alias, self._resolve_relation(ref.name), kind, on)
            )

        for i, ref in enumerate(stmt.tables):
            bind(ref, None if i == 0 else "CROSS", None)
        for join in stmt.joins:
            bind(join.table, join.kind, join.on)
        return bound

    def _resolve_relation(self, name: str):
        """A FROM-clause name is either a base table or a view; views are
        materialised into a transient table by running their stored SELECT
        (once per statement — repeated references hit ``_view_cache``)."""
        name = name.upper()
        if not self._catalog.is_view(name):
            return self._catalog.table(name)
        cached = self._view_cache.get(name)
        if cached is not None:
            return cached
        if name in self._expanding_views:
            raise CatalogError(f"view {name} is recursively defined")
        from repro.sqldb.schema import Column, TableSchema
        from repro.sqldb.types import AnyType

        self._expanding_views.add(name)
        try:
            result = self.execute_select(self._catalog.view_select(name))
        finally:
            self._expanding_views.discard(name)
        seen: set[str] = set()
        columns = []
        for label in result.columns:
            if label in seen:
                raise CatalogError(
                    f"view {name} has duplicate output column {label}; "
                    f"alias the select items"
                )
            seen.add(label)
            columns.append(Column(label, AnyType()))
        from repro.sqldb.storage import Table

        table = Table(TableSchema(name, columns))
        for row in result.rows:
            table.insert(row)
        self.view_materialisations += 1
        self._view_cache[name] = table
        return table

    # -- row production --------------------------------------------------------------

    def _produce_rows(
        self,
        rows: Iterator[tuple],
        bound: list[_BoundTable],
        layout: "_Layout",
        params: Sequence[Any],
        plan: list[str],
        instrument: Callable[[Iterator[tuple]], Iterator[tuple]] | None,
        stage_filters: list[list[Expression]],
    ) -> Iterator[tuple]:
        """Filter the first FROM entry's ``rows`` (its access path) and
        join the other entries onto them."""
        first = bound[0]
        if instrument is not None:
            rows = instrument(rows)
        rows = self._pushed_filters(
            rows, stage_filters[0], first.alias, layout.resolver(1), params,
            plan, instrument,
        )

        for position, entry in enumerate(bound[1:], start=1):
            filters = stage_filters[position]
            inner_only: list[Expression] = []
            kind = entry.join_kind or "CROSS"
            if filters and kind != "LEFT":
                inner_only, filters = single_alias_filters(
                    filters, entry.alias, layout.unambiguous
                )
            rows = self._join_one(
                entry, position, rows, layout, params, plan, inner_only
            )
            if instrument is not None:
                rows = instrument(rows)
            rows = self._pushed_filters(
                rows, filters, entry.alias, layout.resolver(position + 1),
                params, plan, instrument,
            )
        return rows

    def _pushed_filters(
        self,
        rows: Iterator[tuple],
        filters: list[Expression],
        alias: str,
        resolve: Resolver,
        params: Sequence[Any],
        plan: list[str],
        instrument: Callable[[Iterator[tuple]], Iterator[tuple]] | None,
    ) -> Iterator[tuple]:
        """Apply pushed-down WHERE conjuncts right after ``alias`` joins the
        pipeline, counting removed rows for the obs layer."""
        if not filters:
            return rows
        plan.append(
            f"filter pushdown at {alias}: "
            + " AND ".join(describe(f) for f in filters)
        )
        keep = _conjunction(filters, resolve, params)

        def generate() -> Iterator[tuple]:
            for row in rows:
                if keep(row) is True:
                    yield row
                else:
                    self.pushdown_filtered += 1

        out: Iterator[tuple] = generate()
        if instrument is not None:
            out = instrument(out)
        return out

    def _access_path(
        self,
        entry: _BoundTable,
        where_conjuncts: list[Expression],
        params: Sequence[Any],
        plan: list[str],
        order: tuple[str, ...] | None = None,
        offset: int = 0,
        top: int = 0,
    ) -> tuple[Iterator[tuple], bool, int | None]:
        """Choose an index-ordered read, index point-lookup, range scan or
        sequential scan for a base table.  Returns the rows, whether they
        arrive in ORDER BY order, and the matched-row count when the index
        range gives it.

        Collects every ``column = constant`` binding on this table, then
        looks for an index whose full key is covered — so composite
        primary keys (FILE_NAME, SIMULATION_KEY) get point lookups too.
        When the statement asks for ``order`` (see :func:`_index_order`)
        and no unique key is bound, a sorted index over bound leading
        columns and then ``order`` reads rows ``offset`` to ``top`` in
        order instead (:meth:`_index_ordered`).  Failing both, a
        single-column sorted index whose column carries a range bound
        drives :meth:`SortedIndex.range_scan`.  Every originating
        predicate remains as a pushed filter, so a lookup or range is free
        to return a superset of the matching rows (as reads at a snapshot
        do, see :class:`~repro.sqldb.connection.TableSnapshot`).
        """
        equalities, bound, exact, best = point_lookup(
            entry.alias, entry.schema, entry.table.indexes,
            where_conjuncts, params,
        )
        if order is not None and not (best is not None and best.unique):
            only_equalities = len(equalities) == len(where_conjuncts)
            read = self._index_ordered(
                entry, exact, order, (offset, top), best,
                [ref.column for ref, _ in equalities]
                if only_equalities else None,
                plan,
            )
            if read is not None:
                return read
        if best is not None:
            key = tuple(bound[column] for column in best.columns)
            plan.append(
                f"index lookup {entry.alias} via {best.name} "
                f"({', '.join(best.columns)} = {key!r})"
            )
            rows = entry.table.lookup(best, key)
            self.rows_scanned += len(rows)
            return iter(rows), False, None

        ranges = range_bounds(where_conjuncts, params)
        scan = self._range_scan(entry, ranges, plan)
        if scan is not None:
            return scan, False, None

        plan.append(f"seq scan {entry.alias} ({len(entry.table)} rows)")
        self.rows_scanned += len(entry.table)
        return map(itemgetter(1), entry.table.scan()), False, None

    def _index_ordered(
        self,
        entry: _BoundTable,
        exact: dict[str, Any],
        order: tuple[str, ...],
        window: tuple[int, int],
        lookup,
        equality_columns: list[str] | None,
        plan: list[str],
    ) -> tuple[Iterator[tuple], bool, int | None] | None:
        """Rows in ``order`` from a sorted index whose leading columns
        ``exact`` binds and whose other columns are ``order``: the key
        prefix's range, read in index order.

        Equal keys come out in rowid order, the order a scan yields them
        in (:meth:`~repro.sqldb.storage.Heap.restore_order`), so ties
        break as the sort would break them.  When ``equality_columns``
        (the WHERE clause's, if it holds nothing else) are the prefix,
        every row of the range matches and no other row does: only the
        rows of the page ``window`` (offset, offset + limit) are read,
        and the range's length is the matched-row count.  Otherwise every
        row of the range is read and filtered.

        None when no index fits, when the point ``lookup`` binds a column
        the prefix does not, or when a row was written after the snapshot
        (the scan and sort then run instead).
        """
        width = len(order)
        index = None
        for candidate in entry.table.indexes.values():
            prefix = candidate.columns[:-width]
            if (
                isinstance(candidate, SortedIndex)
                and candidate.columns[len(prefix):] == order
                and all(column in exact for column in prefix)
                and (index is None
                     or len(candidate.columns) > len(index.columns))
            ):
                index = candidate
        if index is None:
            return None
        prefix = index.columns[:-width]
        if lookup is not None and not set(lookup.columns) <= set(prefix):
            return None
        counted = equality_columns is not None and sorted(
            equality_columns
        ) == sorted(prefix)
        key = tuple(exact[column] for column in prefix)
        read = entry.table.ordered(index, key, window if counted else None)
        if read is None:
            return None
        rows, matched = read
        bound = ", ".join(f"{c} = {exact[c]!r}" for c in prefix) or "all rows"
        plan.append(
            f"index-ordered scan {entry.alias} via {index.name} ({bound}; "
            f"in order of {', '.join(order)}): {len(rows)} of {matched} rows"
            + (", counted from the range" if counted else "")
        )
        self.rows_scanned += len(rows)
        return iter(rows), True, matched if counted else None

    def _range_scan(self, entry: _BoundTable, ranges,
                    plan: list[str]) -> Iterator[tuple] | None:
        """A sorted-index range scan for the first usable range bound."""
        for crange in ranges:
            ref = crange.ref
            if not self._ref_on(entry, ref):
                continue
            column_type = entry.schema.column(ref.column).type
            index = None
            for candidate in entry.table.indexes.values():
                if (
                    isinstance(candidate, SortedIndex)
                    and candidate.columns == (ref.column,)
                ):
                    index = candidate
                    break
            if index is None:
                continue
            try:
                low = (
                    (column_type.validate(crange.low),)
                    if crange.low is not None else None
                )
                high = (
                    (column_type.validate(crange.high),)
                    if crange.high is not None else None
                )
            except Exception:
                continue  # bound not comparable with the column type
            rowids = index.range_scan(
                low, high,
                include_low=crange.include_low,
                include_high=crange.include_high,
            )
            plan.append(
                f"range scan {entry.alias} via {index.name} "
                f"({crange.describe()})"
            )
            rows = entry.table.rows(rowids)
            self.rows_scanned += len(rows)
            return iter(rows)
        return None

    @staticmethod
    def _ref_on(entry: _BoundTable, ref: ColumnRef) -> bool:
        """Whether a (possibly bare) column reference addresses ``entry``."""
        if ref.table is not None and ref.table != entry.alias:
            return False
        if not entry.schema.has_column(ref.column):
            return False
        return True

    # -- joins -----------------------------------------------------------------

    def _join_one(
        self,
        entry: _BoundTable,
        position: int,
        outer_rows: Iterator[tuple],
        layout: "_Layout",
        params: Sequence[Any],
        plan: list[str],
        inner_filters: list[Expression],
    ) -> Iterator[tuple]:
        """Join ``entry`` (the ``position``-th FROM entry) onto the rows of
        the entries before it.  Inner filters and inner join keys read the
        entry's own tuple; outer keys read the outer row; the ON condition
        reads the concatenated row."""
        kind = entry.join_kind or "CROSS"
        keys = join_equalities(entry.join_on, entry.alias) if entry.join_on else []
        index = None
        key_pair = None
        for outer_ref, inner_ref in keys:
            candidate = entry.table.index_leading_on(inner_ref.column)
            if candidate is not None:
                index = candidate
                key_pair = (outer_ref, inner_ref)
                break
        outer = layout.resolver(position)
        own = layout.own_resolver(position)
        inner_keep = (
            _conjunction(inner_filters, own, params) if inner_filters else None
        )
        on = (
            entry.join_on.compile(layout.resolver(position + 1), params)
            if entry.join_on is not None else None
        )
        join = _JoinStep(self, entry, kind, inner_keep, on)
        filter_desc = " AND ".join(describe(f) for f in inner_filters)
        inner_desc = f"; inner filter: {filter_desc}" if inner_filters else ""
        if index is not None:
            plan.append(
                f"index nested-loop join {entry.alias} via {index.name}"
                f"{inner_desc}"
            )
            return join.index_join(
                outer_rows, index, key_pair[0].compile(outer, params)
            )
        if keys:
            key_desc = ", ".join(f"{o.key} = {i.key}" for o, i in keys)
            build_desc = f"; build filter: {filter_desc}" if inner_filters else ""
            plan.append(
                f"hash join {entry.alias} on {key_desc} "
                f"({kind.lower()}{build_desc})"
            )
            return join.hash_join(
                outer_rows,
                _compile_tuple([o for o, _i in keys], outer, params),
                _compile_tuple([i for _o, i in keys], own, params),
            )
        plan.append(
            f"nested-loop join {entry.alias} ({kind.lower()}{inner_desc})"
        )
        return join.loop_join(outer_rows)

    # -- select list ---------------------------------------------------------------------

    def _expand_items(self, stmt: SelectStmt, bound: list[_BoundTable]) -> list[SelectItem]:
        items: list[SelectItem] = []
        for item in stmt.items:
            if not item.is_star:
                items.append(item)
                continue
            targets = bound
            if item.star_table is not None:
                targets = [b for b in bound if b.alias == item.star_table]
                if not targets:
                    raise CatalogError(f"unknown table {item.star_table} in select list")
            if not targets:
                raise SqlSyntaxError("'*' requires a FROM clause")
            for entry in targets:
                for name in entry.schema.column_names:
                    items.append(
                        SelectItem(ColumnRef(name, table=entry.alias), alias=name)
                    )
        return items

    @staticmethod
    def _item_label(item: SelectItem, position: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ColumnRef):
            return item.expr.column
        if isinstance(item.expr, AggregateCall):
            return item.expr.name
        return f"EXPR{position + 1}"

    # -- grouping -------------------------------------------------------------------------

    def _group(
        self,
        stmt: SelectStmt,
        items: list[SelectItem],
        rows: Iterator[tuple],
        layout: "_Layout",
        params: Sequence[Any],
        group_exprs: list[Expression],
    ) -> tuple[Iterator[tuple], Resolver]:
        """Hash aggregation.  A group's output row is its first input row
        followed by one slot per distinct aggregate; returns those rows and
        the resolver that maps each :attr:`AggregateCall.key` to its slot."""
        # De-duplicate by key so COUNT(*) appearing twice folds once.
        aggregates: dict[str, AggregateCall] = {}
        exprs = [item.expr for item in items] + [o.expr for o in stmt.order_by]
        for expr in exprs + ([stmt.having] if stmt.having is not None else []):
            for node in expr.walk():
                if isinstance(node, AggregateCall):
                    aggregates.setdefault(node.key, node)
        aggs = list(aggregates.values())
        resolve = layout.resolver(len(layout.bound))
        group_key = _compile_tuple(group_exprs, resolve, params)
        arguments = [
            None if isinstance(agg.arg, Star) else agg.arg.compile(resolve, params)
            for agg in aggs
        ]
        width = layout.width
        grouped = layout.resolver(
            len(layout.bound),
            {key: width + slot for slot, key in enumerate(aggregates)},
        )
        having = (
            stmt.having.compile(grouped, params)
            if stmt.having is not None else None
        )

        def generate() -> Iterator[tuple]:
            groups: dict[tuple, tuple[tuple, list[list[Any]]]] = {}
            for row in rows:
                key = tuple(_NullsFirstKey((v,)) for v in group_key(row))
                group = groups.get(key)
                if group is None:
                    group = groups[key] = (row, [[] for _ in aggs])
                for inputs, argument in zip(group[1], arguments):
                    if argument is None:
                        inputs.append(1)
                    else:
                        value = argument(row)
                        if value is not None:
                            inputs.append(value)
            if not groups and not stmt.group_by:
                # Aggregate over an empty input still yields one row.
                groups[()] = ((None,) * width, [[] for _ in aggs])
            for first, inputs in groups.values():
                row = first + tuple(
                    agg.accumulate(values) for agg, values in zip(aggs, inputs)
                )
                if having is None or having(row) is True:
                    yield row

        return generate(), grouped


class _JoinStep:
    """One join of a FROM entry onto the outer row stream.

    A joined row is ``outer + inner``; a LEFT join's unmatched outer row is
    extended with one ``None`` per inner column."""

    def __init__(self, executor: Executor, entry: _BoundTable, kind: str,
                 inner_keep: Callable[[tuple], Any] | None,
                 on: Callable[[tuple], Any] | None) -> None:
        self.executor = executor
        self.table = entry.table
        self.left = kind == "LEFT"
        self.nulls = (None,) * len(entry.schema.columns)
        self.inner_keep = inner_keep
        self.on = on

    def _kept(self, rows) -> Iterator[tuple]:
        """The inner ``rows`` that pass the pushed inner filters."""
        keep = self.inner_keep
        for row in rows:
            if keep is None or keep(row) is True:
                yield row
            else:
                self.executor.pushdown_filtered += 1

    def _matches(self, outer: tuple, candidates) -> Iterator[tuple]:
        on = self.on
        matched = False
        for inner in candidates:
            row = outer + inner
            if on is not None and on(row) is not True:
                continue
            matched = True
            yield row
        if self.left and not matched:
            yield outer + self.nulls

    def index_join(self, outer_rows, index, outer_key) -> Iterator[tuple]:
        executor, table = self.executor, self.table
        for outer in outer_rows:
            value = outer_key(outer)
            candidates = (
                table.lookup(index, (value,))
                if value is not None
                else []
            )
            executor.rows_scanned += len(candidates)
            yield from self._matches(outer, self._kept(candidates))

    def hash_join(self, outer_rows, outer_key, inner_key) -> Iterator[tuple]:
        """Build a hash table on the inner table, probe with the outer
        stream.  The full join condition is re-checked on every hash match
        (residual), so extra non-equality conjuncts and hash-normalisation
        edge cases cannot produce wrong rows."""
        executor = self.executor
        build: dict[tuple, list[tuple]] = {}
        built = 0
        executor.rows_scanned += len(self.table)
        for row in self._kept(row for _rowid, row in self.table.scan()):
            values = inner_key(row)
            if None in values:
                continue  # NULL keys never equal anything
            build.setdefault(tuple(map(hash_key, values)), []).append(row)
            built += 1
        executor.hash_build_rows += built
        for outer in outer_rows:
            values = outer_key(outer)
            candidates = (
                () if None in values
                else build.get(tuple(map(hash_key, values)), ())
            )
            yield from self._matches(outer, candidates)

    def loop_join(self, outer_rows) -> Iterator[tuple]:
        inner_rows = list(
            self._kept(row for _rowid, row in self.table.scan())
        )
        for outer in outer_rows:
            self.executor.rows_scanned += len(inner_rows)
            yield from self._matches(outer, inner_rows)


class _Layout:
    """Tuple positions of the rows a SELECT produces.

    A joined row is the concatenation of each FROM entry's stored tuple, in
    FROM order.  ``ALIAS.COL`` names a position once ``ALIAS`` has joined;
    a bare ``COL`` does when exactly one FROM entry has that column.
    """

    def __init__(self, bound: list[_BoundTable]) -> None:
        self.bound = bound
        #: bare column name -> owning alias, when unique across FROM entries
        self.unambiguous: dict[str, str] = {}
        self._ambiguous: set[str] = set()
        self.width = 0
        for entry in bound:
            for column in entry.schema.columns:
                name = column.name
                if name in self.unambiguous or name in self._ambiguous:
                    self.unambiguous.pop(name, None)
                    self._ambiguous.add(name)
                else:
                    self.unambiguous[name] = entry.alias
            self.width += len(entry.schema.columns)

    def resolver(self, stage: int, extra: dict[str, int] | None = None) -> Resolver:
        """Resolve names in rows of the first ``stage`` FROM entries (plus
        ``extra`` positions, e.g. aggregate slots)."""
        return self._resolver(self.bound[:stage], extra or {})

    def own_resolver(self, position: int) -> Resolver:
        """Resolve names in the bare tuple of FROM entry ``position``."""
        return self._resolver([self.bound[position]], {})

    def _resolver(self, entries: Sequence[_BoundTable],
                  extra: dict[str, int]) -> Resolver:
        #: alias -> (column name -> index in its tuple, offset of the tuple)
        offsets: dict[str, tuple[dict[str, int], int]] = {}
        offset = 0
        for entry in entries:
            offsets[entry.alias] = (entry.schema._by_name, offset)
            offset += len(entry.schema.columns)
        unambiguous, ambiguous = self.unambiguous, self._ambiguous

        def resolve(key: str) -> int | None:
            if key in extra:
                return extra[key]
            alias, _dot, name = key.rpartition(".")
            if not alias:
                if name in ambiguous:
                    raise CatalogError(f"ambiguous column {name}")
                alias = unambiguous.get(name)
            if alias not in offsets:
                return None
            by_name, start = offsets[alias]
            index = by_name.get(name)
            return None if index is None else start + index

        return resolve


def _index_order(orders, alias_exprs: dict[str, Expression],
                 entry: _BoundTable) -> tuple[str, ...] | None:
    """The columns of ``entry`` an ORDER BY sorts on, when a sorted index
    over them can yield its order: every key an ascending plain column
    that is NOT NULL (a sorted index holds no key with a NULL part)."""
    columns = []
    for order in orders:
        expr = _unalias(order.expr, alias_exprs)
        if not (order.ascending and type(expr) is ColumnRef
                and Executor._ref_on(entry, expr)
                and not entry.schema.column(expr.column).nullable):
            return None
        columns.append(expr.column)
    return tuple(columns) or None


def point_lookup(name: str, schema, indexes, predicates, params):
    """The index point lookup that ``predicates`` allow on one table, as
    SELECT (:meth:`Executor._access_path`) and UPDATE/DELETE choose it.

    Collects every ``column = constant`` binding on the table that
    ``name`` qualifies (bare references count), validated to the
    column's key.  Returns those ``(ref, value)`` equalities, the bound
    keys by column, the subset that keeps exactly the rows with that key
    (:func:`_exact_equality`), and the index, if any, whose full key the
    bindings cover with the most columns.
    """
    equalities = [
        (ref, value)
        for ref, value in constant_equalities(predicates, params)
        if ref.table in (None, name) and schema.has_column(ref.column)
    ]
    bound: dict[str, Any] = {}
    exact: dict[str, Any] = {}
    for ref, value in equalities:
        column_type = schema.column(ref.column).type
        try:
            key = column_type.validate(value)
        except Exception:
            continue  # incomparable constant: not usable for a lookup
        bound[ref.column] = key
        if _exact_equality(column_type, key, value):
            exact[ref.column] = key
    best = None
    for index in indexes.values():
        if all(column in bound for column in index.columns):
            if best is None or len(index.columns) > len(best.columns):
                best = index
    return equalities, bound, exact, best


def _exact_equality(column_type, key: Any, value: Any) -> bool:
    """Whether ``column = value`` holds for exactly the stored values whose
    index key is ``key`` (``value`` validated): then an index range is
    the set of rows the comparison keeps, and its length their count."""
    if value is None:
        return True  # = NULL keeps no row; no key has a NULL part
    if isinstance(column_type, CharType):
        return isinstance(value, str)  # both sides padded to the width
    if isinstance(column_type,
                  (VarcharType, BlobType, ClobType, DatalinkType)):
        return False  # 'a' = 'a ' (PAD SPACE); LOBs rank by their text
    return nulls_first_rank(key) == nulls_first_rank(value)


def _unalias(expr: Expression, alias_exprs: dict[str, Expression]) -> Expression:
    """A bare name that is a select-list alias stands for its expression."""
    if isinstance(expr, ColumnRef) and expr.table is None:
        return alias_exprs.get(expr.column, expr)
    return expr


def _compile_tuple(exprs: Sequence[Expression], resolve: Resolver,
                   params: Sequence[Any]) -> Callable[[tuple], tuple]:
    if len(exprs) > 1 and all(type(expr) is ColumnRef for expr in exprs):
        # plain columns (SELECT *, QBE field lists): one C-level getter
        return itemgetter(*[expr.position(resolve) for expr in exprs])
    compiled = [expr.compile(resolve, params) for expr in exprs]
    return lambda row: tuple([fn(row) for fn in compiled])


def _conjunction(predicates: Sequence[Expression], resolve: Resolver,
                 params: Sequence[Any]) -> Callable[[tuple], Any]:
    """One compiled predicate over WHERE conjuncts.  Under WHERE semantics
    a row passes only when it returns ``True`` (not NULL, not FALSE)."""
    compiled = [predicate.compile(resolve, params) for predicate in predicates]
    if len(compiled) == 1:
        return compiled[0]
    return lambda row: all(fn(row) is True for fn in compiled)


def _compile_order_key(orders, alias_exprs: dict[str, Expression],
                       resolve: Resolver, params: Sequence[Any]):
    """Each row's sort key, built once per row: the NULLs-first rank of
    every ORDER BY value, DESC parts wrapped in :class:`_Descending`.
    Sorts compare these keys natively and keep ties in arrival order."""
    values = _compile_tuple(
        [_unalias(order.expr, alias_exprs) for order in orders], resolve, params
    )
    if all(order.ascending for order in orders):
        return lambda row: tuple(map(nulls_first_rank, values(row)))
    directions = [order.ascending for order in orders]
    return lambda row: tuple([
        rank if ascending else _Descending(rank)
        for rank, ascending in zip(map(nulls_first_rank, values(row)), directions)
    ])


class _Descending:
    """A DESC sort key part: orders its rank in reverse."""

    __slots__ = ("rank",)

    def __init__(self, rank: tuple) -> None:
        self.rank = rank

    def __lt__(self, other: "_Descending") -> bool:
        return other.rank < self.rank

    def __eq__(self, other: object) -> bool:
        return self.rank == other.rank
