"""Ticket journal for the gateway (stdlib sqlite3, WAL mode).

Every :class:`repro.gateway.AuditGateway` writes through one journal:
a single sqlite file given as ``store=`` (durable), or a private
``":memory:"`` journal the gateway opens for itself.

* every **submit** is journalled *before* the audit starts (ticket id,
  dataset name, tenant, the spec's canonical JSON, and the dataset's
  content fingerprint), so an admitted audit can never vanish;
* every **settle** records the outcome: the report's canonical text
  (:meth:`repro.api.AuditReport.to_json`, stored verbatim) on success,
  the typed error on failure;
* every **fetch** bumps a counter, so the journal doubles as an
  access log.

A settled ticket *is* its journal row: the gateway serves it from
here (:meth:`get`), splicing the stored text into its HTTP replies.
The gateway's in-memory journal keeps only its newest settled rows
(and every unsettled one); a durable journal is never trimmed.
After a crash, a fresh gateway over the same file serves the settled
rows and :meth:`repro.gateway.AuditGateway.recover` re-runs the
journalled-but-unsettled ones.  The stored fingerprint guards
bit-identity: a recovered report is only produced when the registered
dataset's content is *exactly* what the crashed run audited, in which
case the deterministic engine reproduces the report byte for byte on
the same host and numpy SIMD dispatch (numpy picks its ``log``
kernels by CPU feature, so another machine may differ in the last
ulp of an LLR).

Ticket ids are ``t-<seq>`` over an ``AUTOINCREMENT`` rowid, so ids
stay unique and monotone across restarts — a client holding a
pre-crash ticket id can always redeem it against the restarted
gateway.  Writes run through the ``ticketstore.write`` /
``ticketstore.after_write`` fail points (:mod:`repro.faults`), which
is how the chaos suite kills the server between two journal commits.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from dataclasses import dataclass

from .faults import FaultInjected, fault_point

__all__ = ["TicketStoreError", "TicketRecord", "TicketStore"]

#: Journal states a ticket moves through (submitted -> done | failed).
STATES = ("submitted", "done", "failed")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS tickets (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    dataset TEXT NOT NULL,
    tenant TEXT NOT NULL,
    spec TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    state TEXT NOT NULL DEFAULT 'submitted',
    report TEXT,
    error_type TEXT,
    error TEXT,
    submitted_at REAL NOT NULL,
    settled_at REAL,
    recovered INTEGER NOT NULL DEFAULT 0,
    fetches INTEGER NOT NULL DEFAULT 0
)
"""


class TicketStoreError(RuntimeError):
    """A journal operation failed (I/O error, closed store, injected
    fault).  The HTTP layer maps it to a 500."""

    http_status = 500


@dataclass(frozen=True)
class TicketRecord:
    """One journal row, as read back from the store.

    Attributes
    ----------
    id : str
        Ticket id (``t-<seq>``).
    seq : int
        The row's monotone sequence number.
    dataset, tenant : str
        Routing/accounting captured at submit time.
    spec : str
        The submitted :class:`repro.spec.AuditSpec` as canonical JSON.
    fingerprint : str
        :func:`repro.fingerprint.dataset_fingerprint` of the dataset
        content the spec was admitted against.
    state : str
        ``'submitted'``, ``'done'`` or ``'failed'``.
    report : str or None
        The settled report's canonical text
        (:meth:`repro.api.AuditReport.to_json`), exactly as
        journalled; ``None`` unless ``state == 'done'``.
    error_type, error : str or None
        Typed failure recorded at settle; ``None`` unless
        ``state == 'failed'``.
    submitted_at, settled_at : float or None
        Unix timestamps of the transitions.
    recovered : bool
        Whether the settle came from a post-crash
        :meth:`repro.gateway.AuditGateway.recover` replay.
    fetches : int
        How many times the ticket was looked up.
    """

    id: str
    seq: int
    dataset: str
    tenant: str
    spec: str
    fingerprint: str
    state: str
    report: str | None
    error_type: str | None
    error: str | None
    submitted_at: float
    settled_at: float | None
    recovered: bool
    fetches: int

    @property
    def settled(self) -> bool:
        """Whether the ticket reached a terminal state."""
        return self.state in ("done", "failed")


def _seq_of(ticket_id: str) -> int:
    """Parse ``t-<seq>`` back to its sequence number."""
    prefix, sep, num = str(ticket_id).partition("-")
    if prefix != "t" or not sep or not num.isdigit():
        raise TicketStoreError(
            f"malformed ticket id {ticket_id!r} (expected 't-<n>')"
        )
    return int(num)


class TicketStore:
    """Append-mostly sqlite journal of gateway tickets.

    One store maps to one database file (``":memory:"`` survives
    nothing: it is what a gateway without ``store=`` journals to).
    The connection runs in WAL mode with autocommit — every recorded
    transition is one atomic commit, so a crash (even ``kill -9``)
    between two calls leaves a well-formed journal containing exactly
    the transitions that returned.  All methods are thread-safe;
    sqlite errors surface as :class:`TicketStoreError`.

    >>> store = TicketStore(":memory:")
    >>> tid = store.record_submit("city", "alice", "{}", "fp")
    >>> store.get(tid).state
    'submitted'
    >>> store.record_settle(tid, report='{"p_value": 1.0}')
    True
    >>> store.get(tid).report
    '{"p_value": 1.0}'
    >>> store.close()

    Parameters
    ----------
    path : str or os.PathLike
        Database file (created if missing).
    timeout : float, default 30.0
        Sqlite busy timeout in seconds.
    """

    #: How many settled rows to keep (the newest settles), or ``None``
    #: to keep every row.  Only the gateway's own in-memory journal
    #: sets it; unsettled rows are never dropped.
    _keep_settled: int | None = None

    def __init__(self, path, timeout: float = 30.0):
        self.path = str(path)
        self._lock = threading.Lock()
        try:
            self._conn = sqlite3.connect(
                self.path,
                timeout=timeout,
                check_same_thread=False,
                isolation_level=None,
            )
            self._conn.row_factory = sqlite3.Row
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(_SCHEMA)
        except sqlite3.Error as exc:
            raise TicketStoreError(
                f"cannot open ticket store {self.path!r}: {exc}"
            ) from exc
        self._closed = False

    def _execute(self, sql: str, params=(), action: str = "read"):
        """One locked statement: a query's rows, else the cursor."""
        try:
            with self._lock:
                cursor = self._conn.execute(sql, params)
                return cursor.fetchall() if cursor.description else cursor
        except sqlite3.Error as exc:
            raise TicketStoreError(
                f"ticket store {action} failed ({self.path}): {exc}"
            ) from exc

    # -- write path ----------------------------------------------------

    def _write(self, sql: str, params=()):
        """One journalled transition: fault gate, locked commit,
        post-commit fault gate (the chaos crash window).  An injected
        ``ticketstore.write`` fault surfaces as the production error
        type (:class:`TicketStoreError`), exactly like a real I/O
        failure would."""
        try:
            fault_point("ticketstore.write")
        except FaultInjected as exc:
            raise TicketStoreError(
                f"ticket store write failed ({self.path}): {exc}"
            ) from exc
        cursor = self._execute(sql, params, "write")
        fault_point("ticketstore.after_write")
        return cursor

    def record_submit(
        self,
        dataset: str,
        tenant: str,
        spec_json: str,
        fingerprint: str,
    ) -> str:
        """Journal one admission; returns the allocated ticket id.

        The insert commits *before* the id is handed out, so a ticket
        the gateway ever names is guaranteed to be on disk.

        Parameters
        ----------
        dataset, tenant : str
        spec_json : str
            The spec's canonical JSON
            (:meth:`repro.spec.AuditSpec.to_json`).
        fingerprint : str
            Content fingerprint of the dataset at admission time.

        Returns
        -------
        str
            The new ticket id (``t-<seq>``).
        """
        cursor = self._write(
            "INSERT INTO tickets "
            "(dataset, tenant, spec, fingerprint, submitted_at) "
            "VALUES (?, ?, ?, ?, ?)",
            (str(dataset), str(tenant), spec_json, fingerprint,
             time.time()),
        )
        return f"t-{cursor.lastrowid}"

    def record_settle(
        self,
        ticket_id: str,
        report: str | None = None,
        error_type: str | None = None,
        error: str | None = None,
        recovered: bool = False,
    ) -> bool:
        """Journal a ticket's terminal transition (idempotent).

        Exactly one of ``report`` / ``error_type`` must be given; a
        ticket already settled is left untouched (first settle wins —
        a recovery replay can never overwrite a report the crashed
        run already journalled).

        Parameters
        ----------
        ticket_id : str
        report : str, optional
            The report's canonical text
            (:meth:`repro.api.AuditReport.to_json`) on success,
            stored verbatim.
        error_type, error : str, optional
            Exception type name and message on failure.
        recovered : bool, default False
            Mark the settle as produced by a post-crash replay.

        Returns
        -------
        bool
            Whether this call performed the transition.
        """
        if (report is None) == (error_type is None):
            raise ValueError(
                "record_settle: exactly one of report / error_type "
                "is required"
            )
        cursor = self._write(
            "UPDATE tickets SET state=?, report=?, error_type=?, "
            "error=?, settled_at=?, recovered=? "
            "WHERE seq=? AND state='submitted'",
            (
                "done" if report is not None else "failed",
                report,
                error_type,
                error,
                time.time(),
                1 if recovered else 0,
                _seq_of(ticket_id),
            ),
        )
        if self._keep_settled is not None:
            self._execute(
                "DELETE FROM tickets WHERE seq IN (SELECT seq FROM "
                "tickets WHERE state != 'submitted' ORDER BY "
                "settled_at DESC, seq DESC LIMIT -1 OFFSET ?)",
                (self._keep_settled,),
                "write",
            )
        return cursor.rowcount == 1

    def record_fetch(self, ticket_id: str) -> None:
        """Journal one lookup of a ticket (access-log counter)."""
        self._write(
            "UPDATE tickets SET fetches = fetches + 1 WHERE seq=?",
            (_seq_of(ticket_id),),
        )

    # -- read path -----------------------------------------------------

    def _select(self, where: str = "", params=()) -> list:
        rows = self._execute(
            f"SELECT * FROM tickets {where} ORDER BY seq", params
        )
        return [
            TicketRecord(
                id=f"t-{row['seq']}",
                seq=int(row["seq"]),
                dataset=row["dataset"],
                tenant=row["tenant"],
                spec=row["spec"],
                fingerprint=row["fingerprint"],
                state=row["state"],
                report=row["report"],
                error_type=row["error_type"],
                error=row["error"],
                submitted_at=row["submitted_at"],
                settled_at=row["settled_at"],
                recovered=bool(row["recovered"]),
                fetches=int(row["fetches"]),
            )
            for row in rows
        ]

    def get(self, ticket_id: str) -> TicketRecord | None:
        """The journalled ticket, or ``None`` for an unknown id."""
        records = self._select(
            "WHERE seq=?", (_seq_of(ticket_id),)
        )
        return records[0] if records else None

    def unsettled(self) -> list:
        """Journalled-but-unsettled tickets in submission order — the
        work :meth:`repro.gateway.AuditGateway.recover` replays."""
        return self._select("WHERE state='submitted'")

    def tickets(self, state: str | None = None) -> list:
        """Every journalled ticket, optionally filtered by state.

        Parameters
        ----------
        state : str, optional
            One of :data:`STATES`.
        """
        if state is None:
            return self._select()
        if state not in STATES:
            raise ValueError(
                f"state: expected one of {STATES}, got {state!r}"
            )
        return self._select("WHERE state=?", (state,))

    def stats(self) -> dict:
        """Journal counters for the gateway's ``stats()``.

        Returns
        -------
        dict
            ``path``, per-state ticket counts, ``recovered`` settles
            and total ``fetches``.
        """
        rows = self._execute(
            "SELECT state, COUNT(*) AS n, "
            "SUM(recovered) AS rec, SUM(fetches) AS fet "
            "FROM tickets GROUP BY state"
        )
        by_state = dict.fromkeys(STATES, 0)
        recovered = fetches = 0
        for row in rows:
            by_state[row["state"]] = int(row["n"])
            recovered += int(row["rec"] or 0)
            fetches += int(row["fet"] or 0)
        return {
            "path": self.path,
            "tickets": sum(by_state.values()),
            **by_state,
            "recovered": recovered,
            "fetches": fetches,
        }

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Close the connection (idempotent); later calls raise
        :class:`TicketStoreError`."""
        with self._lock:
            if not self._closed:
                self._closed = True
                self._conn.close()

    def __enter__(self) -> "TicketStore":
        """Context-manager entry: the store itself."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()
