"""Streaming, queryable result stores for experiment matrices.

``RunResult.to_dict()`` has always been JSON-ready; this module gives long
``Session.sweep`` matrices somewhere durable to stream it.  A :class:`ResultStore`
maps stable ``cell_id`` keys (see :func:`repro.api.sweep.cell_key`) to one record
per completed cell, written through as each cell finishes, so an interrupted sweep
resumes by skipping every id already present.

The backend split mirrors the evaluation cache exactly (``open_store`` in
:mod:`repro.core.evalcache`): :func:`open_result_store` picks JSONL (append-only
spill, torn last line skipped on load) or sqlite (keyed upserts) from the path
suffix, stores carry a versioned namespace so a schema bump degrades to a cold
start instead of serving stale rows, and a corrupt or foreign file is preserved at
``<path>.corrupt`` rather than truncated — recovery means starting cold, never an
error and never data loss.

Each record separates the deterministic from the volatile:

* ``result`` — ``RunResult.to_dict(volatile=False)``: the plan, metrics and label,
  with wall-clock and session-cumulative cache counters stripped.  Pricing is pure,
  so a completed-then-resumed sweep and a fresh serial run produce *byte-identical*
  ``result`` rows per cell.
* ``spec`` — the expanded cell's :class:`ExperimentSpec` as a dict (provenance).
* ``seconds`` / ``written_at`` — the volatile sidecar, kept for reporting.
"""

from __future__ import annotations

import csv
import json
import os
import sqlite3
import tempfile
import time
from collections import Counter, OrderedDict
from typing import Any, Dict, List, Optional, Sequence, TextIO, Tuple, Union

from repro.core.evalcache import SharedSqliteConnection, _move_aside, serialised
from repro.obs import tracer as _obs

__all__ = [
    "RESULTS_SCHEMA_VERSION",
    "JsonlResultStore",
    "ResultStore",
    "SqliteResultStore",
    "export_csv",
    "make_record",
    "merge_stores",
    "open_result_store",
    "open_store",
    "record_status",
    "results_namespace",
]

#: Version of the record layout.  Bump on incompatible change; stores written under
#: a different version are discarded on load (cold start, file reset in place).
#: v2: ``result`` rows carry ``status``/``error`` (cell quarantine), records carry
#: an ``attempts`` sidecar.
RESULTS_SCHEMA_VERSION = 2


def results_namespace() -> str:
    """The namespace persisted result stores are validated against on load."""
    return f"watos-results-v{RESULTS_SCHEMA_VERSION}"


def make_record(run, spec=None, now: Optional[float] = None) -> Dict[str, Any]:
    """The stored record of one completed cell (see module docstring)."""
    return {
        "result": run.to_dict(volatile=False),
        "spec": spec.to_dict() if spec is not None else None,
        "seconds": run.seconds,
        "attempts": getattr(run, "attempts", 1),
        "written_at": time.time() if now is None else now,
    }


def record_status(record: Dict[str, Any]) -> str:
    """The cell status a stored record reports (``"ok"`` for pre-status rows)."""
    return str((record.get("result") or {}).get("status") or "ok")


class ResultStore:
    """One record per completed sweep cell, queryable and safe to interrupt.

    Subclasses implement the persistence primitives (:meth:`load`, :meth:`put`,
    :meth:`get`, :meth:`replace_all`); the query surface (:meth:`stats`,
    :meth:`tail`, :meth:`cell_ids`) is shared.  :meth:`load` returns records in
    completion order with later duplicates winning — the same discipline as the
    evaluation cache's JSONL spill.
    """

    #: Rows skipped during the most recent :meth:`load` (corruption).
    load_errors: int = 0

    def __init__(self, path: str, namespace: Optional[str] = None) -> None:
        self.path = str(path)
        self.namespace = namespace or results_namespace()

    # ------------------------------------------------------------------ primitives
    def load(self) -> "OrderedDict[str, Dict[str, Any]]":
        """All records in completion order (``{}`` for missing/corrupt/foreign)."""
        raise NotImplementedError

    def put(self, cell_id: str, record: Dict[str, Any]) -> None:
        """Write one completed cell through to disk immediately."""
        raise NotImplementedError

    def get(self, cell_id: str) -> Optional[Dict[str, Any]]:
        """One record, or ``None``."""
        return self.load().get(cell_id)

    def put_many(self, items: Sequence[Tuple[str, Dict[str, Any]]]) -> None:
        """Write a batch of ``(cell_id, record)`` rows, in order.

        Semantically identical to calling :meth:`put` per row (same records, same
        order, later duplicates win); backends override it to amortize the
        per-write cost — one file open for JSONL, one transaction for sqlite —
        which is what lets the online engine's ``flush_every`` batching pay off.
        """
        for cell_id, record in items:
            self.put(cell_id, record)

    def replace_all(self, records: "OrderedDict[str, Dict[str, Any]]") -> None:
        """Atomically rewrite the store to exactly ``records`` (schema resets)."""
        raise NotImplementedError

    def physical_rows(self) -> int:
        """Rows physically on disk, duplicates included (what :meth:`compact` folds).

        The base implementation equals the deduped cell count; append-only
        backends override it to count raw rows.
        """
        return len(self.load())

    def compact(self) -> Dict[str, int]:
        """Fold duplicate rows to one per ``cell_id`` (later wins), via replace_all.

        JSONL stores grow append-only, so every ``--no-resume`` re-run of a matrix
        appends a fresh row per cell and only the last one wins on load — the same
        dead-row accumulation the evaluation cache compacts away.  Returns
        ``{"before": raw rows, "after": rows kept, "cells": distinct cells}``.
        """
        with _obs.span("store.compact", tag=self.path):
            before = self.physical_rows()
            records = self.load()
            self.replace_all(records)
        return {"before": before, "after": len(records), "cells": len(records)}

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release any held resources (sqlite connections)."""

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ queries
    def cell_ids(self) -> List[str]:
        """Ids of every completed cell, in completion order."""
        return list(self.load())

    def completed_ids(self, include_failed: bool = False) -> set:
        """Cell ids a resumed sweep may skip.

        By default only cells that *succeeded* count as complete — quarantined
        (``status="failed"``) rows are re-attempted on resume.  ``include_failed``
        (the ``--skip-failed`` semantics) treats failed rows as settled too.
        """
        records = self.load()
        if include_failed:
            return set(records)
        return {
            cell_id
            for cell_id, record in records.items()
            if record_status(record) != "failed"
        }

    def __len__(self) -> int:
        return len(self.load())

    def __contains__(self, cell_id: str) -> bool:
        return self.get(cell_id) is not None

    def stats(self) -> Dict[str, Any]:
        """Store-level summary: cell count, per-kind histogram, time range."""
        records = self.load()
        kinds = Counter(
            (record.get("result") or {}).get("kind", "?") for record in records.values()
        )
        statuses = Counter(record_status(record) for record in records.values())
        times = [
            record["written_at"]
            for record in records.values()
            if record.get("written_at")
        ]
        seconds = [record.get("seconds", 0.0) for record in records.values()]
        return {
            "store": self.path,
            "cells": len(records),
            "kinds": dict(sorted(kinds.items())),
            "statuses": dict(sorted(statuses.items())),
            "failed": statuses.get("failed", 0),
            "load_errors": self.load_errors,
            "oldest_written_at": min(times) if times else None,
            "newest_written_at": max(times) if times else None,
            "total_run_seconds": sum(seconds),
        }

    def tail(
        self, n: int = 10, status: Optional[str] = None, kind: Optional[str] = None
    ) -> List[Tuple[str, Dict[str, Any]]]:
        """The last ``n`` completed cells, oldest of them first.

        ``status`` filters by recorded cell status (``"failed"`` surfaces what a
        long sweep quarantined; ``"ok"`` hides it).  ``kind`` filters by result
        kind — ``kind="trace"`` tails an online run's job rows without wading
        through the sweep cells sharing the store.
        """
        if n <= 0:
            return []
        rows = list(self.load().items())
        if status is not None:
            rows = [(cid, record) for cid, record in rows if record_status(record) == status]
        if kind is not None:
            rows = [
                (cid, record)
                for cid, record in rows
                if (record.get("result") or {}).get("kind") == kind
            ]
        return rows[-n:]


class JsonlResultStore(ResultStore):
    """Append-only JSONL: one header line, then one ``{"c": …, "v": …}`` row each.

    Append-only writes make interruption safe (a torn last line is skipped on the
    next load) and write-through is a single ``O(1)`` append per completed cell.
    """

    _HEADER_FORMAT = "watos-results-jsonl"

    def __init__(self, path: str, namespace: Optional[str] = None) -> None:
        super().__init__(path, namespace)
        #: Set when the header check found a file that is not ours; the first
        #: write moves it aside to ``<path>.corrupt`` rather than truncating it.
        self._foreign_file = False
        #: Whether the on-disk header has been validated (load() or _check_file()).
        #: Writes must never append blind: a ``resume=False`` sweep reaches put()
        #: without any load(), and appending to a foreign or stale-namespace file
        #: would corrupt it / write rows the next load() discards.
        self._checked = False
        #: ``(inode, size)`` of the file right after this object's last append.  A
        #: file still in that state ends on a whole line, so the next append skips
        #: the torn-line read; any other state takes the full check.
        self._appended: Optional[Tuple[int, int]] = None

    def _check_file(self) -> None:
        """Validate the header before the first blind write (no full row scan)."""
        if self._checked:
            return
        self._checked = True
        self._foreign_file = False
        if not os.path.exists(self.path):
            return
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                header = self._parse_header(handle.readline())
        except OSError:
            return
        if header is None:
            self._foreign_file = True
        elif header.get("namespace") != self.namespace:
            # Our file, stale schema: safe to reset in place.
            self.replace_all(OrderedDict())

    def load(self) -> "OrderedDict[str, Dict[str, Any]]":
        self.load_errors = 0
        self._checked = True
        self._foreign_file = False
        if not os.path.exists(self.path):
            return OrderedDict()
        records: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                header = self._parse_header(handle.readline())
                if header is None:
                    self._foreign_file = True
                    return OrderedDict()
                if header.get("namespace") != self.namespace:
                    # Our file, stale schema: safe to reset in place.
                    self.replace_all(OrderedDict())
                    return OrderedDict()
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        row = json.loads(line)
                        cell_id, record = str(row["c"]), dict(row["v"])
                        records.pop(cell_id, None)  # later duplicates win in position
                        records[cell_id] = record
                    except (ValueError, KeyError, TypeError):
                        self.load_errors += 1
        except OSError:
            return OrderedDict()
        return records

    def _parse_header(self, header_line: str) -> Optional[Dict]:
        try:
            header = json.loads(header_line)
        except ValueError:
            return None
        if isinstance(header, dict) and header.get("format") == self._HEADER_FORMAT:
            return header
        return None

    def _header(self) -> str:
        return json.dumps({"format": self._HEADER_FORMAT, "namespace": self.namespace})

    @staticmethod
    def _ends_with_newline(path: str) -> bool:
        try:
            with open(path, "rb") as handle:
                handle.seek(-1, os.SEEK_END)
                return handle.read(1) == b"\n"
        except (OSError, ValueError):  # empty file: seek(-1) raises
            return True

    def physical_rows(self) -> int:
        """Raw data lines on disk — duplicates from ``--no-resume`` re-runs included."""
        if not os.path.exists(self.path):
            return 0
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                if self._parse_header(handle.readline()) is None:
                    return 0
                return sum(1 for line in handle if line.strip())
        except OSError:
            return 0

    def put(self, cell_id: str, record: Dict[str, Any]) -> None:
        self.put_many([(cell_id, record)])

    def put_many(self, items: Sequence[Tuple[str, Dict[str, Any]]]) -> None:
        """One append-mode open for the whole batch (rows identical to per-put)."""
        if not items:
            return
        t0 = _obs.now() if _obs.enabled else 0.0
        self._check_file()
        if self._foreign_file:
            _move_aside(self.path)
            self._foreign_file = False
        try:
            stat: Optional[os.stat_result] = os.stat(self.path)
        except OSError:
            stat = None
        # A kill mid-append leaves a torn last line; appending straight after it
        # would concatenate the new row onto the fragment and lose both.  Close
        # the torn line first so only the fragment is sacrificed.
        torn = (
            stat is not None
            and (stat.st_ino, stat.st_size) != self._appended
            and not self._ends_with_newline(self.path)
        )
        lines = [json.dumps({"c": cell_id, "v": record}) + "\n" for cell_id, record in items]
        if stat is None:
            lines.insert(0, self._header() + "\n")
        elif torn:
            lines.insert(0, "\n")
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write("".join(lines))
            self._appended = (stat.st_ino, handle.tell()) if stat is not None else None
        if _obs.enabled:
            tag = items[0][0] if len(items) == 1 else f"batch:{len(items)}"
            _obs.add("store.put", t0, _obs.now(), tag=tag)

    def replace_all(self, records: "OrderedDict[str, Dict[str, Any]]") -> None:
        self._check_file()  # no-op when re-entered from the check itself
        if self._foreign_file:
            _move_aside(self.path)
            self._foreign_file = False
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, tmp_path = tempfile.mkstemp(prefix=".results-", dir=directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(self._header() + "\n")
                for cell_id, record in records.items():
                    handle.write(json.dumps({"c": cell_id, "v": record}) + "\n")
            os.replace(tmp_path, self.path)
            self._appended = None
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise


class SqliteResultStore(SharedSqliteConnection, ResultStore):
    """Sqlite backend for big matrices: keyed upserts, point lookups, rowid order."""

    def __init__(self, path: str, namespace: Optional[str] = None) -> None:
        super().__init__(path, namespace)
        self._init_connection()

    def _connect(self) -> sqlite3.Connection:
        if self._conn is None:
            existed = os.path.exists(self.path)
            self._conn = self._open()
            if existed and self._is_foreign(self._conn):
                # A valid sqlite database that is not ours (a mistyped --results
                # path): preserve it at <path>.corrupt instead of injecting our
                # tables into the user's data.
                self._reset()
                self._conn = self._open()
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS results "
                "(cell_id TEXT PRIMARY KEY, record TEXT, written_at REAL DEFAULT 0)"
            )
            self._conn.commit()
        return self._conn

    @staticmethod
    def _is_foreign(conn: sqlite3.Connection) -> bool:
        """Whether an existing database holds someone else's tables (ours absent)."""
        tables = {
            row[0]
            for row in conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
        }
        return bool(tables) and not {"meta", "results"}.issubset(tables)

    def _reset(self) -> None:
        """Preserve an unreadable database at ``<path>.corrupt`` and start fresh."""
        self.close()
        _move_aside(self.path)

    def _stored_namespace(self, conn: sqlite3.Connection) -> Optional[str]:
        row = conn.execute("SELECT value FROM meta WHERE key = 'namespace'").fetchone()
        return row[0] if row else None

    def _validated(self) -> Optional[sqlite3.Connection]:
        """A connection with the namespace checked, or ``None`` after recovery."""
        try:
            conn = self._connect()
            stored = self._stored_namespace(conn)
            if stored is not None and stored != self.namespace:
                conn.execute("DELETE FROM results")
                conn.execute(
                    "INSERT OR REPLACE INTO meta VALUES ('namespace', ?)",
                    (self.namespace,),
                )
                conn.commit()
            return conn
        except sqlite3.DatabaseError:
            self._reset()
            return None

    @serialised
    def load(self) -> "OrderedDict[str, Dict[str, Any]]":
        self.load_errors = 0
        if not os.path.exists(self.path):
            return OrderedDict()
        conn = self._validated()
        if conn is None:
            return OrderedDict()
        try:
            rows = conn.execute(
                "SELECT cell_id, record FROM results ORDER BY rowid"
            ).fetchall()
        except sqlite3.DatabaseError:
            self._reset()
            return OrderedDict()
        records: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        for cell_id, blob in rows:
            try:
                records[str(cell_id)] = dict(json.loads(blob))
            except (ValueError, TypeError):
                self.load_errors += 1
        return records

    @serialised
    def get(self, cell_id: str) -> Optional[Dict[str, Any]]:
        if not os.path.exists(self.path):
            return None
        conn = self._validated()
        if conn is None:
            return None
        try:
            row = conn.execute(
                "SELECT record FROM results WHERE cell_id = ?", (str(cell_id),)
            ).fetchone()
        except sqlite3.DatabaseError:
            return None
        if row is None:
            return None
        try:
            return dict(json.loads(row[0]))
        except (ValueError, TypeError):
            self.load_errors += 1
            return None

    @serialised
    def physical_rows(self) -> int:
        """Row count in the results table (keyed upserts never hold duplicates)."""
        if not os.path.exists(self.path):
            return 0
        conn = self._validated()
        if conn is None:
            return 0
        try:
            return int(conn.execute("SELECT COUNT(*) FROM results").fetchone()[0])
        except sqlite3.DatabaseError:
            return 0

    @serialised
    def put(self, cell_id: str, record: Dict[str, Any]) -> None:
        t0 = _obs.now() if _obs.enabled else 0.0
        conn = self._validated()
        if conn is None:
            conn = self._connect()
        conn.execute(
            "INSERT OR REPLACE INTO meta VALUES ('namespace', ?)", (self.namespace,)
        )
        conn.execute(
            "INSERT OR REPLACE INTO results VALUES (?, ?, ?)",
            (str(cell_id), json.dumps(record), float(record.get("written_at") or 0.0)),
        )
        conn.commit()
        if _obs.enabled:
            _obs.add("store.put", t0, _obs.now(), tag=cell_id)

    @serialised
    def put_many(self, items: Sequence[Tuple[str, Dict[str, Any]]]) -> None:
        """One transaction for the whole batch (rows identical to per-put)."""
        if not items:
            return
        t0 = _obs.now() if _obs.enabled else 0.0
        conn = self._validated()
        if conn is None:
            conn = self._connect()
        conn.execute(
            "INSERT OR REPLACE INTO meta VALUES ('namespace', ?)", (self.namespace,)
        )
        conn.executemany(
            "INSERT OR REPLACE INTO results VALUES (?, ?, ?)",
            [
                (str(cell_id), json.dumps(record), float(record.get("written_at") or 0.0))
                for cell_id, record in items
            ],
        )
        conn.commit()
        if _obs.enabled:
            _obs.add("store.put", t0, _obs.now(), tag=f"batch:{len(items)}")

    @serialised
    def replace_all(self, records: "OrderedDict[str, Dict[str, Any]]") -> None:
        conn = self._validated()
        if conn is None:
            conn = self._connect()
        conn.execute("DELETE FROM results")
        conn.execute(
            "INSERT OR REPLACE INTO meta VALUES ('namespace', ?)", (self.namespace,)
        )
        conn.executemany(
            "INSERT OR REPLACE INTO results VALUES (?, ?, ?)",
            [
                (str(cell_id), json.dumps(record), float(record.get("written_at") or 0.0))
                for cell_id, record in records.items()
            ],
        )
        conn.commit()


_SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")


def open_result_store(
    path: Union[str, os.PathLike], namespace: Optional[str] = None
) -> ResultStore:
    """Pick a backend from the path suffix (sqlite for ``.sqlite/.db``, else JSONL)."""
    if str(path).lower().endswith(_SQLITE_SUFFIXES):
        return SqliteResultStore(str(path), namespace)
    return JsonlResultStore(str(path), namespace)


def open_store(
    path: Union[str, os.PathLike],
    kind: str = "cache",
    namespace: Optional[str] = None,
):
    """One dispatcher for both persistent store families.

    ``kind="cache"`` opens an evaluation-cache store
    (:func:`repro.core.evalcache.open_store`), ``kind="results"`` a sweep result
    store (:func:`open_result_store`).  The path-suffix rules are identical for
    both: ``.sqlite``/``.sqlite3``/``.db`` pick sqlite, anything else JSONL.  The
    historical per-family names remain as thin aliases.
    """
    if kind == "results":
        return open_result_store(path, namespace)
    if kind == "cache":
        from repro.core.evalcache import open_store as open_cache_store

        return open_cache_store(str(path), namespace)
    raise ValueError(f"kind must be 'cache' or 'results', not {kind!r}")


def merge_stores(
    paths: Sequence[Union[str, os.PathLike]],
    out_path: Union[str, os.PathLike],
) -> Dict[str, Any]:
    """Fold several result stores into one: the offline half of the sweep fabric.

    Hosts that swept air-gapped (or lost the coordinator and fell back to local
    ``--results`` files) each hold a partial store; this merges them keyed by
    ``cell_id`` with **later duplicates winning in argument order** — the same
    tiebreak every append-only store in the repo uses, so merging is associative
    with re-running.  Mixed backends are fine (``A.jsonl B.sqlite -o merged.sqlite``:
    the suffix rules of :func:`open_result_store` apply to every path).  Returns a
    summary: ``{"stores": n, "cells": n, "duplicates": n, "statuses": {...}}``.
    """
    if not paths:
        raise ValueError("merge needs at least one input store")
    merged: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
    duplicates = 0
    for path in paths:
        store = open_result_store(path)
        try:
            for cell_id, record in store.load().items():
                if cell_id in merged:
                    duplicates += 1
                    merged.pop(cell_id)  # re-append so completion order stays honest
                merged[cell_id] = record
        finally:
            store.close()
    out = open_result_store(out_path)
    try:
        out.replace_all(merged)
    finally:
        out.close()
    statuses = Counter(record_status(record) for record in merged.values())
    return {
        "stores": len(paths),
        "cells": len(merged),
        "duplicates": duplicates,
        "statuses": dict(sorted(statuses.items())),
    }


def export_csv(store: ResultStore, handle: TextIO) -> int:
    """Write one CSV row per completed cell, metrics fanned out into columns.

    The column set is the union of every cell's metric keys (sorted), so
    heterogeneous matrices (scheduler cells next to GA cells) export cleanly;
    metrics a cell did not produce are left empty.  Returns the row count.
    """
    records = store.load()
    metric_keys = sorted(
        {
            key
            for record in records.values()
            for key in ((record.get("result") or {}).get("metrics") or {})
        }
    )
    writer = csv.writer(handle)
    writer.writerow(
        [
            "cell_id", "kind", "label", "plan", "oom", "status", "attempts",
            "error", "seconds", *metric_keys,
        ]
    )
    for cell_id, record in records.items():
        result = record.get("result") or {}
        metrics = result.get("metrics") or {}
        error = str(result.get("error") or "")
        writer.writerow(
            [
                cell_id,
                result.get("kind", ""),
                result.get("label", ""),
                result.get("plan", ""),
                result.get("oom", ""),
                result.get("status", "ok"),
                record.get("attempts", ""),
                # The last traceback line carries the exception; the full text
                # would bloat the sheet and wreck column widths in spreadsheets.
                error.strip().splitlines()[-1] if error.strip() else "",
                record.get("seconds", ""),
                *[metrics.get(key, "") for key in metric_keys],
            ]
        )
    return len(records)
