"""Durable SQLite-backed job store: experiments as rows, claimed by lease.

The parallel engine (:mod:`repro.harness.jobs`) used to hand grid points
straight to a process pool and hope every worker came back.  This module
is the crash-safe replacement for that hope: each :class:`JobSpec
<repro.harness.jobs.JobSpec>` becomes one row in a small SQLite database
living next to the result cache, and workers *claim* rows through
expiring leases:

* **claim** -- an atomic ``BEGIN IMMEDIATE`` transaction moves one
  eligible row to ``leased`` with this worker's owner id and a lease
  deadline.  Any number of workers -- in one process pool, or on
  different hosts sharing a cache directory -- can pull safely.
* **heartbeat** -- a live worker extends its lease while it simulates;
  a worker that is SIGKILLed simply stops heartbeating and its lease
  expires, making the row claimable again (counted as a reclaim).
* **failure** -- a failed attempt returns the row to ``pending`` with a
  ``not_before`` backoff deadline; after ``quarantine_after`` attempts
  the row is quarantined with a captured traceback artifact so one
  poison point cannot starve the sweep.

Statuses: ``pending`` -> ``leased`` -> ``done`` | ``quarantined``
(quarantined rows are reset to ``pending`` when a new engine run
explicitly re-enqueues them).  All transitions bump the store's
lifetime counters (:meth:`JobStore.counters`) inside the same
``BEGIN IMMEDIATE`` transaction as the row change, so the counters and
the rows never disagree; the harness exports them through
:class:`repro.obs.MetricsRegistry`.
"""

from __future__ import annotations

import copy
import os
import socket
import sqlite3
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

#: Bump on incompatible jobs-table changes; a drifted store is rebuilt
#: (jobs are re-runnable by construction -- results live in the cache).
STORE_SCHEMA_VERSION = 1

#: Terminal row statuses (nothing left to execute for this row).
TERMINAL = ("done", "quarantined")

#: Open row statuses (still to execute, or executing).
OPEN = ("pending", "leased")

#: Keys per ``WHERE key IN (...)`` query, well under SQLite's host
#: parameter limit (999 on older builds).
_KEY_CHUNK = 500

_ROW_COLUMNS = (
    "key, describe, status, attempts, lease_owner, lease_expires,"
    " not_before, host, pid, error, created, updated"
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    key           TEXT PRIMARY KEY,
    describe      TEXT NOT NULL DEFAULT '',
    spec_blob     BLOB,
    status        TEXT NOT NULL DEFAULT 'pending',
    attempts      INTEGER NOT NULL DEFAULT 0,
    lease_owner   TEXT,
    lease_expires REAL,
    not_before    REAL NOT NULL DEFAULT 0,
    host          TEXT,
    pid           INTEGER,
    error         TEXT,
    created       REAL NOT NULL,
    updated       REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS jobs_status ON jobs (status);
CREATE TABLE IF NOT EXISTS counters (
    name  TEXT PRIMARY KEY,
    value INTEGER NOT NULL DEFAULT 0
);
"""

#: Counter names the store maintains (all start at zero).
COUNTER_NAMES = (
    "enqueued",
    "leases_granted",
    "leases_expired",
    "leases_released",
    "heartbeats",
    "retries",
    "done",
    "quarantined",
    "requeued",
    "stale_completions",
)


@dataclass
class JobRow:
    """One job row, as plain data (see the ``jobs`` table schema)."""

    key: str
    describe: str
    status: str
    attempts: int
    lease_owner: Optional[str]
    lease_expires: Optional[float]
    not_before: float
    host: Optional[str]
    pid: Optional[int]
    error: Optional[str]
    created: float
    updated: float

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL


@dataclass
class Claim:
    """A successfully leased job: execute it, then :meth:`JobStore.mark_done`
    or :meth:`JobStore.mark_failed` *with the same owner id*."""

    key: str
    describe: str
    spec_blob: Optional[bytes]
    attempt: int
    owner: str
    reclaimed: bool = False
    """True when this claim took over an expired lease (a previous
    worker died or hung mid-point)."""


class JobStore:
    """Durable job ledger over one SQLite file.

    ``lease_s`` is the lease duration granted per claim (heartbeats
    extend it); ``quarantine_after`` is the attempt count at which a
    failing job is quarantined instead of re-pended.  ``clock`` is
    injectable for tests (defaults to wall time -- leases are real-time
    contracts between processes, not simulated time).
    """

    def __init__(
        self,
        path,
        lease_s: float = 30.0,
        quarantine_after: int = 3,
        clock: Callable[[], float] = time.time,
    ):
        self.path = Path(path)
        self.lease_s = float(lease_s)
        self.quarantine_after = int(quarantine_after)
        self.clock = clock
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._db = self._connect()

    def _open(self) -> sqlite3.Connection:
        db = sqlite3.connect(str(self.path), timeout=30.0)
        db.isolation_level = None  # explicit BEGIN/COMMIT
        db.execute("PRAGMA busy_timeout=30000")
        return db

    def _connect(self) -> sqlite3.Connection:
        db = self._open()
        try:
            db.executescript(_SCHEMA)
            row = db.execute(
                "SELECT value FROM meta WHERE key='schema'"
            ).fetchone()
            if row is None:
                db.execute(
                    "INSERT OR IGNORE INTO meta VALUES ('schema', ?)",
                    (str(STORE_SCHEMA_VERSION),),
                )
            elif row[0] != str(STORE_SCHEMA_VERSION):
                raise sqlite3.DatabaseError(
                    f"job store schema {row[0]} != {STORE_SCHEMA_VERSION}"
                )
        except sqlite3.DatabaseError:
            # Torn or drifted store: rebuild.  Jobs are re-runnable by
            # construction (results live in the cache), so a corrupt
            # ledger is evicted, never fatal.
            db.close()
            self.path.unlink(missing_ok=True)
            db = self._open()
            db.executescript(_SCHEMA)
            db.execute(
                "INSERT OR IGNORE INTO meta VALUES ('schema', ?)",
                (str(STORE_SCHEMA_VERSION),),
            )
        return db

    def sibling(self) -> "JobStore":
        """A second handle on this store with its own connection.

        SQLite connections belong to the thread that opened them, so a
        helper thread (the heartbeat beater) needs its own.  The schema
        is already in place; the sibling only connects."""
        twin = copy.copy(self)
        twin._db = self._open()
        return twin

    def close(self) -> None:
        self._db.close()

    @contextmanager
    def _transaction(self):
        """One ``BEGIN IMMEDIATE ... COMMIT``: a transition's row change
        and its counter bump land together or not at all."""
        db = self._db
        db.execute("BEGIN IMMEDIATE")
        try:
            yield db
        except BaseException:
            db.execute("ROLLBACK")
            raise
        db.execute("COMMIT")

    # ------------------------------------------------------------------
    # Enqueue
    # ------------------------------------------------------------------
    def enqueue(
        self,
        key: str,
        describe: str = "",
        spec_blob: Optional[bytes] = None,
        requeue_failed: bool = True,
    ) -> str:
        """Insert a job row if absent; returns the row's status after.

        ``requeue_failed`` resets an existing ``quarantined`` row back to
        ``pending`` (an engine run that *asks* for a quarantined point is
        an explicit request to try it again).  ``done`` and in-flight
        rows are left untouched.
        """
        now = self.clock()
        with self._transaction() as db:
            row = db.execute(
                "SELECT status FROM jobs WHERE key=?", (key,)
            ).fetchone()
            if row is None:
                db.execute(
                    "INSERT INTO jobs (key, describe, spec_blob, status,"
                    " created, updated) VALUES (?,?,?, 'pending', ?, ?)",
                    (key, describe, spec_blob, now, now),
                )
                self._bump("enqueued")
                return "pending"
            status = row[0]
            if status == "quarantined" and requeue_failed:
                # A fresh retry budget comes with the explicit
                # re-enqueue; lifetime attempt history stays in the
                # counters.
                db.execute(
                    "UPDATE jobs SET status='pending', not_before=0,"
                    " attempts=0, error=NULL,"
                    " spec_blob=COALESCE(?, spec_blob),"
                    " updated=? WHERE key=?",
                    (spec_blob, now, key),
                )
                self._bump("requeued")
                return "pending"
            if spec_blob is not None:
                db.execute(
                    "UPDATE jobs SET spec_blob=?, updated=? WHERE key=?",
                    (spec_blob, now, key),
                )
            return status

    def requeue(self, key: str) -> bool:
        """Force a terminal row (``done`` or ``quarantined``) back to
        ``pending`` with a fresh attempt budget.  The service uses this
        when a row says done but its cached result has been evicted
        (e.g. by ``fsck`` after corruption) -- the row's claim of
        completion is only as good as the bytes backing it."""
        now = self.clock()
        with self._transaction() as db:
            cur = db.execute(
                "UPDATE jobs SET status='pending', attempts=0, error=NULL,"
                " not_before=0, lease_owner=NULL, lease_expires=NULL,"
                " updated=? WHERE key=? AND status IN ('done', 'quarantined')",
                (now, key),
            )
            if cur.rowcount:
                self._bump("requeued")
        return bool(cur.rowcount)

    # ------------------------------------------------------------------
    # Claiming
    # ------------------------------------------------------------------
    def claim(
        self,
        owner: str,
        keys: Optional[Iterable[str]] = None,
    ) -> Optional[Claim]:
        """Lease one eligible job: ``pending`` past its backoff deadline,
        or ``leased`` with an expired lease (the previous worker died).
        Among ``keys`` (all rows when ``None``), the oldest eligible row
        wins.  Returns ``None`` when nothing is claimable right now."""
        now = self.clock()
        eligible = (
            "SELECT created, key, describe, spec_blob, attempts, status"
            " FROM jobs WHERE ((status='pending' AND not_before<=?)"
            " OR (status='leased' AND lease_expires<=?))"
        )
        with self._transaction() as db:
            if keys is None:
                best = db.execute(
                    eligible + " ORDER BY created, key LIMIT 1", (now, now)
                ).fetchone()
            else:
                candidates = [
                    db.execute(
                        f"{eligible} AND key IN ({_marks(chunk)})"
                        " ORDER BY created, key LIMIT 1",
                        (now, now, *chunk),
                    ).fetchone()
                    for chunk in _chunks(keys)
                ]
                candidates = [c for c in candidates if c is not None]
                best = min(candidates) if candidates else None
            if best is None:
                return None
            _created, key, describe, blob, attempts, status = best
            reclaimed = status == "leased"
            db.execute(
                "UPDATE jobs SET status='leased', lease_owner=?,"
                " lease_expires=?, attempts=?, host=?, pid=?, updated=?"
                " WHERE key=?",
                (
                    owner,
                    now + self.lease_s,
                    attempts + 1,
                    socket.gethostname(),
                    os.getpid(),
                    now,
                    key,
                ),
            )
            self._bump("leases_granted")
            if reclaimed:
                self._bump("leases_expired")
        return Claim(
            key=key,
            describe=describe,
            spec_blob=blob,
            attempt=attempts + 1,
            owner=owner,
            reclaimed=reclaimed,
        )

    def claim_key(self, key: str, owner: str) -> Optional[Claim]:
        """Lease one specific job (serial execution path)."""
        return self.claim(owner, keys=(key,))

    def heartbeat(self, key: str, owner: str) -> bool:
        """Extend the lease on a job this owner holds; returns False if
        the lease was lost (expired and reclaimed by someone else)."""
        now = self.clock()
        with self._transaction() as db:
            cur = db.execute(
                "UPDATE jobs SET lease_expires=?, updated=? WHERE key=?"
                " AND status='leased' AND lease_owner=?",
                (now + self.lease_s, now, key, owner),
            )
            if cur.rowcount:
                self._bump("heartbeats")
        return bool(cur.rowcount)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def mark_done(self, key: str, owner: Optional[str] = None) -> bool:
        """Record success.  With ``owner``, the transition is rejected
        (returns False) if this owner no longer holds the lease -- a
        hung worker whose job was reclaimed and finished elsewhere must
        not overwrite the fresher outcome."""
        now = self.clock()
        sql = (
            "UPDATE jobs SET status='done', error=NULL, lease_owner=NULL,"
            " lease_expires=NULL, updated=? WHERE key=?"
        )
        args: tuple = (now, key)
        if owner is not None:
            sql += " AND status='leased' AND lease_owner=?"
            args += (owner,)
        with self._transaction() as db:
            cur = db.execute(sql, args)
            if cur.rowcount:
                self._bump("done")
            elif owner is not None:
                self._bump("stale_completions")
        return bool(cur.rowcount)

    def mark_failed(
        self,
        key: str,
        owner: Optional[str],
        error: str,
        traceback_text: Optional[str] = None,
        backoff_s: float = 0.0,
    ) -> str:
        """Record one failed attempt.

        Returns the row's new status: ``pending`` (will be retried after
        ``backoff_s``) or ``quarantined`` (attempts reached
        ``quarantine_after``; the traceback artifact is written next to
        the store under ``quarantine/<key>.txt``).  Stale owners are
        rejected with status ``stale``.
        """
        now = self.clock()
        with self._transaction() as db:
            row = db.execute(
                "SELECT attempts, status, lease_owner FROM jobs WHERE key=?",
                (key,),
            ).fetchone()
            if row is None:
                return "missing"
            attempts, status, lease_owner = row
            if owner is not None and (
                status != "leased" or lease_owner != owner
            ):
                self._bump("stale_completions")
                return "stale"
            if attempts >= self.quarantine_after:
                db.execute(
                    "UPDATE jobs SET status='quarantined', error=?,"
                    " lease_owner=NULL, lease_expires=NULL, updated=?"
                    " WHERE key=?",
                    (error, now, key),
                )
                self._bump("quarantined")
                new_status = "quarantined"
            else:
                db.execute(
                    "UPDATE jobs SET status='pending', error=?,"
                    " lease_owner=NULL, lease_expires=NULL, not_before=?,"
                    " updated=? WHERE key=?",
                    (error, now + max(0.0, backoff_s), now, key),
                )
                self._bump("retries")
                new_status = "pending"
        if new_status == "quarantined" and traceback_text is not None:
            self._write_quarantine_artifact(key, error, traceback_text)
        return new_status

    def _write_quarantine_artifact(
        self, key: str, error: str, traceback_text: str
    ) -> None:
        path = self.quarantine_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(
            f"key: {key}\nerror: {error}\n\n{traceback_text}"
        )
        os.replace(tmp, path)

    def quarantine_path(self, key: str) -> Path:
        """Where the captured traceback of a quarantined job lives."""
        return self.path.parent / "quarantine" / f"{key}.txt"

    # ------------------------------------------------------------------
    # Supervision helpers
    # ------------------------------------------------------------------
    def release_owner(self, owner: str) -> int:
        """Expire every lease held by ``owner`` *now* (the supervisor
        observed its worker die; no need to wait out the lease)."""
        now = self.clock()
        with self._transaction() as db:
            cur = db.execute(
                "UPDATE jobs SET status='pending', lease_owner=NULL,"
                " lease_expires=NULL, updated=? WHERE status='leased'"
                " AND lease_owner=?",
                (now, owner),
            )
            if cur.rowcount:
                self._bump("leases_released", n=cur.rowcount)
        return cur.rowcount

    def reclaim_expired(self) -> int:
        """Return expired leases to ``pending`` (normally claims do this
        lazily; fsck and supervisors may sweep eagerly)."""
        now = self.clock()
        with self._transaction() as db:
            cur = db.execute(
                "UPDATE jobs SET status='pending', lease_owner=NULL,"
                " lease_expires=NULL, updated=? WHERE status='leased'"
                " AND lease_expires<=?",
                (now, now),
            )
            if cur.rowcount:
                self._bump("leases_expired", n=cur.rowcount)
        return cur.rowcount

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[JobRow]:
        row = self._db.execute(
            f"SELECT {_ROW_COLUMNS} FROM jobs WHERE key=?", (key,)
        ).fetchone()
        return JobRow(*row) if row else None

    def rows(self, keys: Optional[Sequence[str]] = None) -> List[JobRow]:
        """Rows in ``(created, key)`` order: all of them, or just those
        of ``keys`` (looked up by key, never by scanning the table)."""
        if keys is None:
            return [
                JobRow(*row)
                for row in self._db.execute(
                    f"SELECT {_ROW_COLUMNS} FROM jobs ORDER BY created, key"
                )
            ]
        out = [
            JobRow(*row)
            for chunk in _chunks(keys)
            for row in self._db.execute(
                f"SELECT {_ROW_COLUMNS} FROM jobs"
                f" WHERE key IN ({_marks(chunk)})",
                chunk,
            )
        ]
        out.sort(key=lambda r: (r.created, r.key))
        return out

    def statuses(self, keys: Optional[Sequence[str]] = None) -> Dict[str, str]:
        if keys is None:
            return dict(self._db.execute("SELECT key, status FROM jobs"))
        return {
            key: status
            for chunk in _chunks(keys)
            for key, status in self._db.execute(
                f"SELECT key, status FROM jobs WHERE key IN ({_marks(chunk)})",
                chunk,
            )
        }

    def open_jobs(self, keys: Optional[Sequence[str]] = None) -> int:
        """Jobs not yet terminal (pending or leased) among ``keys``."""
        sql = "SELECT COUNT(*) FROM jobs WHERE status IN (?, ?)"
        if keys is None:
            return self._db.execute(sql, OPEN).fetchone()[0]
        return sum(
            self._db.execute(
                f"{sql} AND key IN ({_marks(chunk)})", (*OPEN, *chunk)
            ).fetchone()[0]
            for chunk in _chunks(keys)
        )

    def open_keys(self, limit: int) -> List[str]:
        """The ``limit`` oldest open jobs' keys, through the status
        index."""
        return [
            key
            for (key,) in self._db.execute(
                "SELECT key FROM jobs WHERE status IN (?, ?)"
                " ORDER BY created, key LIMIT ?",
                (*OPEN, limit),
            )
        ]

    def expired_leases(self) -> int:
        """Leases past their expiry that no claim has reclaimed yet."""
        return self._db.execute(
            "SELECT COUNT(*) FROM jobs WHERE status='leased'"
            " AND lease_expires<=?",
            (self.clock(),),
        ).fetchone()[0]

    def counters(self) -> Dict[str, int]:
        """Lifetime transition counters plus current per-status totals."""
        out = {name: 0 for name in COUNTER_NAMES}
        for name, value in self._db.execute("SELECT name, value FROM counters"):
            out[name] = value
        for status, count in self._db.execute(
            "SELECT status, COUNT(*) FROM jobs GROUP BY status"
        ):
            out[f"jobs_{status}"] = count
        return out

    # ------------------------------------------------------------------
    def _bump(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a lifetime counter, inside the caller's
        transaction."""
        self._db.execute(
            "INSERT INTO counters (name, value) VALUES (?, ?)"
            " ON CONFLICT(name) DO UPDATE SET value=value+?",
            (name, n, n),
        )


def _chunks(keys: Iterable[str]) -> Iterable[List[str]]:
    """Distinct ``keys`` in order, cut into query-sized lists."""
    keys = list(dict.fromkeys(keys))
    for start in range(0, len(keys), _KEY_CHUNK):
        yield keys[start:start + _KEY_CHUNK]


def _marks(chunk: Sequence[str]) -> str:
    return ",".join("?" * len(chunk))


def default_store_path(cache_dir) -> Path:
    """Where the job store lives for a given result-cache directory."""
    return Path(cache_dir) / "jobs.sqlite3"
