"""Row storage: heaps, indexes, and per-table constraint enforcement.

A :class:`Table` owns a heap of row tuples keyed by rowid plus any number of
indexes.  The primary key and every UNIQUE set automatically get a unique
hash index; ``CREATE INDEX`` adds further hash or sorted indexes.  Type and
NOT NULL validation happen in the schema layer; uniqueness is enforced
here; referential integrity spans tables and is enforced by the database
facade.

Concurrency (MVCC-lite)
-----------------------

One serialized writer mutates the live rows and indexes while readers
read them, lock-free, at a *snapshot*: a sequence of the
:class:`VersionClock`, which ticks once per committed writing
transaction (``clock.pending`` is the sequence the open transaction's
changes will become visible at).  Each heap keeps two things beside its
live rows:

* *write marks* — rowid -> sequence of the row's latest write (insert,
  update or delete), kept only while some registered snapshot may
  predate that write,
* *history* — the superseded committed versions ``(created, deleted,
  row)`` such snapshots may still need.

A rowid with no mark, or marked at or below ``S``, is read live at
snapshot ``S``; a rowid marked after ``S`` is read from its history
(the version with ``created <= S < deleted``), or is invisible.  Each
commit ticks the clock, and so does each rollback (its undo restored the
committed rows, so its marks close as an empty generation); marks and
history at or below the oldest registered snapshot are then pruned in
every table (see ``TransactionManager``).

The two sides order their steps so that no lock is needed (dict reads
and writes are atomic under the GIL; only a :class:`SortedIndex` guards
its list):

* the writer records history first, then the mark (and bumps the
  heap's ``mark_count``), then the live row, then the indexes;
* a reader takes index candidates first, then the live rows, then the
  marks (or ``mark_count``, to learn that no mark changed since it last
  read them).

So a reader that sees a new live row or index entry also sees its mark,
and the history the mark points to.  Index reads at a snapshot add every
rowid marked after it, so they return a superset of the matches (a row
whose key changed or vanished is still found by its old key); the
executor re-applies every WHERE conjunct and ON condition after an
access path.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, insort
from typing import Any, Iterator, Sequence

from repro.errors import CatalogError, TypeMismatchError, UniqueViolation

__all__ = ["Heap", "HashIndex", "SortedIndex", "Table", "VersionClock"]


class VersionClock:
    """Monotonic commit counter shared by every table of one database.

    ``committed`` is the sequence of the most recent committed writing
    transaction; ``pending`` is the sequence the currently open writer's
    changes will carry.  Bumped only under the writer lock, so plain int
    assignment is safe.
    """

    __slots__ = ("committed",)

    def __init__(self) -> None:
        self.committed = 0

    @property
    def pending(self) -> int:
        return self.committed + 1

    def commit(self) -> int:
        """Make the pending generation visible; returns the new sequence."""
        self.committed += 1
        return self.committed


class Heap:
    """Row store addressed by integer rowids, readable at any registered
    snapshot through its write marks and history (module docstring)."""

    def __init__(self, clock: VersionClock | None = None) -> None:
        self._rows: dict[int, tuple] = {}
        self._next_rowid = 1
        self.clock = clock if clock is not None else VersionClock()
        #: rowid -> sequence of its latest write (the write marks)
        self._written: dict[int, int] = {}
        #: count of marks written, bumped right after each one
        self.mark_count = 0
        #: rowid -> [(created, deleted, row), ...] superseded versions
        self._history: dict[int, list[tuple[int, int, tuple]]] = {}
        #: whether a reinstated row sits after a larger rowid in ``_rows``
        self._reordered = False

    def insert(self, row: tuple, rowid: int | None = None) -> int:
        """Store ``row``; returns its rowid.

        An explicit ``rowid`` is used by rollback/recovery to reinstate a
        row under its original identity; one below a stored rowid leaves
        the rows out of rowid order until :meth:`restore_order`.
        """
        if rowid is None:
            rowid = self._next_rowid
            self._next_rowid += 1
        else:
            if rowid in self._rows:
                raise CatalogError(f"rowid {rowid} already present")
            self._next_rowid = max(self._next_rowid, rowid + 1)
            if self._rows and rowid < next(reversed(self._rows)):
                self._reordered = True
        self._written[rowid] = self.clock.pending
        self.mark_count += 1
        self._rows[rowid] = row
        return rowid

    def _supersede(self, rowid: int, row: tuple) -> None:
        """Before ``row``, the live version of ``rowid``, changes: keep it
        for older snapshots if it is committed, then mark the rowid."""
        pending = self.clock.pending
        written = self._written.get(rowid, 0)
        if written < pending:
            self._history.setdefault(rowid, []).append((written, pending, row))
        self._written[rowid] = pending
        self.mark_count += 1

    def delete(self, rowid: int) -> tuple:
        row = self.get(rowid)
        self._supersede(rowid, row)
        del self._rows[rowid]
        return row

    def update(self, rowid: int, row: tuple) -> tuple:
        old = self.get(rowid)
        self._supersede(rowid, old)
        self._rows[rowid] = row
        return old

    def restore_order(self) -> None:
        """Put reinstated rows back in rowid order, the order scans yield
        rows in and a sorted index breaks ties in.  Readers keep reading
        whichever dict they hold: the writer stops changing the old one."""
        if self._reordered:
            self._rows = dict(sorted(self._rows.items()))
            self._reordered = False

    def rewrite(self, rowid: int, row: tuple) -> None:
        """Replace a row in place with *no* version bookkeeping.

        Used by schema evolution (ALTER TABLE backfills), where every
        stored row changes arity and historical versions become
        meaningless; callers clear the history afterwards.
        """
        if rowid not in self._rows:
            raise CatalogError(f"no row with rowid {rowid}")
        self._rows[rowid] = row

    def get(self, rowid: int) -> tuple:
        try:
            return self._rows[rowid]
        except KeyError:
            raise CatalogError(f"no row with rowid {rowid}") from None

    def scan(self) -> Iterator[tuple[int, tuple]]:
        """Yield ``(rowid, row)`` pairs in rowid order."""
        yield from list(self._rows.items())

    # -- snapshot reads ---------------------------------------------------------

    def scan_at(self, snapshot: int) -> list[tuple[int, tuple]]:
        """``(rowid, row)`` pairs visible at ``snapshot``."""
        return self._at(list(self._rows.items()), snapshot)

    def rows_at(self, rowids, snapshot: int) -> list[tuple]:
        """The rows visible at ``snapshot`` among the index candidates
        ``rowids``, plus every rowid written after ``snapshot`` (its
        version there may match where its live row no longer does)."""
        pairs = self.live_pairs(rowids)
        return [row for _rowid, row in self._at(pairs, snapshot)]

    def live_pairs(self, rowids) -> list[tuple[int, tuple | None]]:
        """``(rowid, live row or None)`` for index candidates ``rowids``."""
        live = self._rows
        return [(rowid, live.get(rowid)) for rowid in rowids]

    def late_rowids(self, snapshot: int) -> list[int]:
        """The rowids written after ``snapshot``, read from the marks.
        No mark is later than ``clock.pending``, the writer's own reads."""
        if not self._written or snapshot >= self.clock.pending:
            return []
        return [
            rowid for rowid, seq in list(self._written.items())
            if seq > snapshot
        ]

    def _at(self, pairs: list[tuple[int, tuple]],
            snapshot: int) -> list[tuple[int, tuple]]:
        """Correct live ``pairs`` by the marks, read after them: each
        rowid written after ``snapshot`` is replaced by its version at
        ``snapshot``, appended in rowid order, or dropped without one."""
        late = set(self.late_rowids(snapshot))
        if not late:
            return pairs
        out = [pair for pair in pairs if pair[0] not in late]
        for rowid in sorted(late):
            row = self.version_at(rowid, snapshot)
            if row is not None:
                out.append((rowid, row))
        return out

    def get_at(self, rowid: int, snapshot: int) -> tuple | None:
        """The version of ``rowid`` visible at ``snapshot``, or None."""
        row = self._rows.get(rowid)
        if self._written.get(rowid, 0) <= snapshot:
            return row
        return self.version_at(rowid, snapshot)

    def version_at(self, rowid: int, snapshot: int) -> tuple | None:
        """The superseded version of ``rowid`` visible at ``snapshot``
        (for a rowid written after it), or None."""
        for created, deleted, row in list(self._history.get(rowid, ())):
            if created <= snapshot < deleted:
                return row
        return None

    def prune_history(self, floor: int) -> None:
        """Drop the marks and versions no snapshot at or above ``floor``
        needs: writes at or below it, versions deleted at or below it.

        Called at each clock tick, under the writer lock, with the oldest
        registered snapshot (or the new committed sequence when no
        snapshot is active).
        """
        if not self._written and not self._history:
            return  # the common case: every table is pruned at every tick
        for rowid, seq in list(self._written.items()):
            if seq <= floor:
                del self._written[rowid]
        for rowid, versions in list(self._history.items()):
            keep = [v for v in versions if v[1] > floor]
            if keep:
                self._history[rowid] = keep
            else:
                del self._history[rowid]

    def clear_history(self) -> None:
        self._history.clear()
        self._written.clear()

    @property
    def history_versions(self) -> int:
        """Total retained superseded versions (observability)."""
        return sum(len(v) for v in list(self._history.values()))

    def __len__(self) -> int:
        return len(self._rows)


def nulls_first_rank(value: Any) -> tuple:
    """The sort rank of one value: NULL first, then booleans, numbers, and
    every other value by itself.  Values with no order of their own (BLOB,
    CLOB, DATALINK) rank by their text."""
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (2, value)
    if type(value).__lt__ is object.__lt__:
        return (3, str((value,)))
    return (3, value)


def _rank(key: tuple) -> tuple:
    """The sort rank of an index key: each part's :func:`nulls_first_rank`."""
    return tuple([nulls_first_rank(part) for part in key])


#: sorts after every part of a rank (:func:`nulls_first_rank` tags are 0-3),
#: so ``rank + (_TOP,)`` bounds every rank that extends ``rank``
_TOP = (4,)


class _NullsFirstKey:
    """A hashable key over heterogeneous values, equal when the values are
    (DISTINCT, GROUP BY and UNION deduplicate by it)."""

    __slots__ = ("key",)

    def __init__(self, key: tuple) -> None:
        self.key = key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _NullsFirstKey) and self.key == other.key

    def __hash__(self) -> int:
        try:
            return hash(self.key)
        except TypeError:
            return hash(repr(self.key))


class HashIndex:
    """Equality index over one or more columns."""

    def __init__(self, name: str, columns: Sequence[str], unique: bool = False) -> None:
        self.name = name
        self.columns = tuple(c.upper() for c in columns)
        self.unique = unique
        self._entries: dict[tuple, set[int]] = {}

    @staticmethod
    def _hashable(key: tuple) -> tuple:
        out = []
        for part in key:
            try:
                hash(part)
            except TypeError:
                part = repr(part)
            out.append(part)
        return tuple(out)

    def add(self, key: tuple, rowid: int) -> None:
        if any(part is None for part in key):
            # SQL unique semantics: NULLs never collide and are not indexed.
            return
        key = self._hashable(key)
        bucket = self._entries.setdefault(key, set())
        if self.unique and bucket:
            raise UniqueViolation(
                f"duplicate key {key!r} for unique index {self.name}"
            )
        bucket.add(rowid)

    def remove(self, key: tuple, rowid: int) -> None:
        if any(part is None for part in key):
            return
        key = self._hashable(key)
        bucket = self._entries.get(key)
        if bucket:
            bucket.discard(rowid)
            if not bucket:
                del self._entries[key]

    def find(self, key: tuple) -> set[int]:
        if any(part is None for part in key):
            return set()
        return set(self._entries.get(self._hashable(key), ()))

    def find_sorted(self, key: tuple) -> list[int]:
        """Matching rowids in ascending order.

        ``find`` returns an (unordered) set; query execution iterates this
        sorted form instead, so repeated queries return rows in a stable
        order regardless of set-iteration salt."""
        return sorted(self.find(key))

    def contains(self, key: tuple) -> bool:
        if any(part is None for part in key):
            return False
        return self._hashable(key) in self._entries

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._entries.values())


class SortedIndex:
    """Ordered index supporting range scans (used for BETWEEN / inequality
    lookups on indexed columns) and key-prefix ranges in key order.

    Each entry is ``(rank, rowid)``, the key's :func:`_rank` computed once
    at :meth:`add`, so bisects compare native tuples and equal keys sit in
    rowid order.  A snapshot reader's bisect and slice could still
    interleave with the writer's insert or delete, whose shift would move
    rows out of the positions it computed; a short lock keeps each of
    them whole.
    """

    def __init__(self, name: str, columns: Sequence[str], unique: bool = False) -> None:
        self.name = name
        self.columns = tuple(c.upper() for c in columns)
        self.unique = unique
        self._entries: list[tuple[tuple, int]] = []
        self._lock = threading.Lock()

    def add(self, key: tuple, rowid: int) -> None:
        if any(part is None for part in key):
            return
        entry = (_rank(key), rowid)
        with self._lock:
            entries = self._entries
            if self.unique:
                i = bisect_left(entries, entry[:1])
                if i < len(entries) and entries[i][0] == entry[0]:
                    raise UniqueViolation(
                        f"duplicate key {key!r} for unique index {self.name}"
                    )
            insort(entries, entry)

    def remove(self, key: tuple, rowid: int) -> None:
        if any(part is None for part in key):
            return
        entry = (_rank(key), rowid)
        with self._lock:
            i = bisect_left(self._entries, entry)
            if i < len(self._entries) and self._entries[i] == entry:
                del self._entries[i]

    def prefix(self, key: tuple) -> list[int]:
        """Rowids whose key starts with ``key`` (all of them for ``()``),
        in index order: by key, equal keys by rowid."""
        rank = _rank(key)
        with self._lock:
            entries = self._entries
            try:
                lo = bisect_left(entries, (rank,))
                hi = bisect_left(entries, (rank + (_TOP,),), lo)
            except TypeError:
                # a probe of another kind than the keys: none equals it
                return [
                    rowid for entry_rank, rowid in entries
                    if entry_rank[:len(rank)] == rank
                ]
            return [rowid for _, rowid in entries[lo:hi]]

    def find(self, key: tuple) -> set[int]:
        return set(self.prefix(key))

    def find_sorted(self, key: tuple) -> list[int]:
        """Matching rowids in ascending order (stable across runs): equal
        keys sit in rowid order."""
        return self.prefix(key)

    def contains(self, key: tuple) -> bool:
        return bool(self.prefix(key))

    def range_scan(
        self,
        low: tuple | None = None,
        high: tuple | None = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> list[int]:
        """Rowids whose keys fall within ``[low, high]`` (None = unbounded);
        all of them when a bound does not compare with the keys (callers
        filter the rows again)."""
        with self._lock:
            entries = self._entries
            lo = 0
            hi = len(entries)
            try:
                if low is not None:
                    rank = _rank(low)
                    lo = bisect_left(
                        entries, (rank,) if include_low else (rank + (_TOP,),)
                    )
                if high is not None:
                    rank = _rank(high)
                    hi = bisect_left(
                        entries, (rank + (_TOP,),) if include_high else (rank,)
                    )
            except TypeError:
                lo, hi = 0, len(entries)
            return [rowid for _, rowid in entries[lo:hi]]

    def __len__(self) -> int:
        return len(self._entries)


class Table:
    """Schema + heap + indexes, with uniqueness enforcement.

    All mutation goes through :meth:`insert` / :meth:`delete` /
    :meth:`update` so that every index stays consistent with the heap.
    """

    def __init__(self, schema, clock: VersionClock | None = None) -> None:
        self.schema = schema
        self.heap = Heap(clock)
        self.indexes: dict[str, HashIndex | SortedIndex] = {}
        if schema.primary_key:
            self.add_index(
                HashIndex(f"PK_{schema.name}", schema.primary_key, unique=True)
            )
        for i, uniq in enumerate(schema.unique_sets):
            name = f"UQ_{schema.name}_{i}"
            if not self._covering_unique_index(uniq):
                self.add_index(HashIndex(name, uniq, unique=True))
        # Non-unique index on each FK column set speeds both joins and
        # the reverse (parent-delete) referential checks.
        for fk in schema.foreign_keys:
            name = f"IX_{schema.name}_{fk.name}"
            if name not in self.indexes:
                self.add_index(HashIndex(name, fk.columns, unique=False))

    def _covering_unique_index(self, columns: Sequence[str]) -> bool:
        wanted = tuple(c.upper() for c in columns)
        return any(
            index.unique and index.columns == wanted
            for index in self.indexes.values()
        )

    # -- index management ------------------------------------------------------

    def add_index(self, index: HashIndex | SortedIndex) -> None:
        if index.name in self.indexes:
            raise CatalogError(f"index {index.name} already exists")
        for column in index.columns:
            self.schema.column(column)  # raises on unknown column
        for rowid, row in self.heap.scan():
            index.add(self.schema.key_of(row, index.columns), rowid)
        self.indexes[index.name] = index

    def drop_index(self, name: str) -> None:
        try:
            del self.indexes[name]
        except KeyError:
            raise CatalogError(f"no index named {name}") from None

    def index_on(self, columns: Sequence[str], require_unique: bool = False):
        """Find an index whose key is exactly ``columns`` (any order not
        supported — QBE and FK lookups always use schema order)."""
        wanted = tuple(c.upper() for c in columns)
        for index in self.indexes.values():
            if index.columns == wanted and (index.unique or not require_unique):
                return index
        return None

    def index_leading_on(self, column: str):
        """An index whose first key column is ``column`` (single-column
        equality lookups can use any such index)."""
        column = column.upper()
        for index in self.indexes.values():
            if index.columns and index.columns[0] == column and len(index.columns) == 1:
                return index
        return None

    # -- mutation ---------------------------------------------------------------

    def insert(self, row: Sequence[Any], rowid: int | None = None) -> tuple[int, tuple]:
        validated = self.schema.validate_row(row)
        self._check_unique(validated)
        rowid = self.heap.insert(validated, rowid)
        for index in self.indexes.values():
            index.add(self.schema.key_of(validated, index.columns), rowid)
        return rowid, validated

    def delete(self, rowid: int) -> tuple:
        row = self.heap.delete(rowid)
        for index in self.indexes.values():
            index.remove(self.schema.key_of(row, index.columns), rowid)
        return row

    def update(self, rowid: int, new_row: Sequence[Any]) -> tuple[tuple, tuple]:
        """Replace the row at ``rowid``; returns ``(old_row, new_row)``."""
        validated = self.schema.validate_row(new_row)
        old = self.heap.get(rowid)
        self._check_unique(validated, ignore_rowid=rowid)
        self.heap.update(rowid, validated)
        for index in self.indexes.values():
            old_key = self.schema.key_of(old, index.columns)
            new_key = self.schema.key_of(validated, index.columns)
            if old_key != new_key:
                index.remove(old_key, rowid)
                index.add(new_key, rowid)
        return old, validated

    def _check_unique(self, row: tuple, ignore_rowid: int | None = None) -> None:
        for index in self.indexes.values():
            if not index.unique:
                continue
            key = self.schema.key_of(row, index.columns)
            hits = index.find(key)
            if ignore_rowid is not None:
                hits.discard(ignore_rowid)
            if hits:
                label = "primary key" if index.name.startswith("PK_") else "unique"
                raise UniqueViolation(
                    f"{label} violation on {self.schema.name}"
                    f"({', '.join(index.columns)}) = {key!r}"
                )

    # -- schema evolution ---------------------------------------------------------

    def add_column(self, column) -> None:
        """ALTER TABLE ADD COLUMN: append the column and backfill every
        stored row with its (validated) default."""
        if self.schema.has_column(column.name):
            raise CatalogError(
                f"column {column.name} already exists in {self.schema.name}"
            )
        default = column.type.validate(column.default)
        if default is None and not column.nullable and len(self.heap):
            raise CatalogError(
                f"cannot add NOT NULL column {column.name} without a "
                f"DEFAULT to a populated table"
            )
        self.schema.columns.append(column)
        self.schema._by_name[column.name] = len(self.schema.columns) - 1
        # Schema evolution rewrites rows in place (no per-row versions:
        # old-arity images would not match the mutated schema anyway).
        for rowid, row in self.heap.scan():
            self.heap.rewrite(rowid, row + (default,))
        self.heap.clear_history()

    def drop_column(self, name: str) -> None:
        """ALTER TABLE DROP COLUMN: remove the column and its stored
        values.  Key/indexed/checked columns are protected.
        """
        name = name.upper()
        index_position = self.schema.column_index(name)
        if name in self.schema.primary_key:
            raise CatalogError(f"cannot drop primary key column {name}")
        for uniq in self.schema.unique_sets:
            if name in uniq:
                raise CatalogError(f"cannot drop unique column {name}")
        for fk in self.schema.foreign_keys:
            if name in fk.columns:
                raise CatalogError(f"cannot drop foreign key column {name}")
        for index in self.indexes.values():
            if name in index.columns:
                raise CatalogError(
                    f"cannot drop column {name}: used by index {index.name}"
                )
        for check in self.schema.checks:
            if any(ref.column == name for ref in check.column_refs()):
                raise CatalogError(
                    f"cannot drop column {name}: used by a CHECK constraint"
                )
        for rowid, row in self.heap.scan():
            self.heap.rewrite(
                rowid, row[:index_position] + row[index_position + 1:]
            )
        self.heap.clear_history()
        del self.schema.columns[index_position]
        self.schema._by_name = {
            c.name: i for i, c in enumerate(self.schema.columns)
        }

    # -- access -------------------------------------------------------------------

    def scan(self) -> Iterator[tuple[int, tuple]]:
        return self.heap.scan()

    def row(self, rowid: int) -> tuple:
        return self.heap.get(rowid)

    def __len__(self) -> int:
        return len(self.heap)
