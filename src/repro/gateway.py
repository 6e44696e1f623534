"""Multi-tenant audit gateway: one front door, many datasets.

:class:`repro.serve.AuditService` serves batches over *one* dataset.
This module is the layer above it — the deployment front door that a
fleet of tenants talks to:

* :class:`AuditGateway` routes each request by dataset name to that
  dataset's service (one table: name → content fingerprint and
  service over read-only copies of the arrays), with a
  **bounded admission queue** (full → :class:`GatewayFullError`,
  HTTP 429 with ``Retry-After``), optional per-tenant quotas
  (:class:`TenantQuotaError`) and a graceful :meth:`~AuditGateway.drain`
  that finishes queued work while refusing new submissions
  (:class:`GatewayDrainingError`, 503);
* :class:`GatewayHTTPServer` + ``python -m repro serve`` put the
  gateway behind a stdlib-only threaded JSON API: ``POST /audit``
  (synchronous or ticketed), ``GET /tickets/<id>``, ``POST /batch``,
  ``GET``/``POST /datasets``, ``GET /stats``, ``GET /healthz``.

Every execution path below the gateway is the existing deterministic
machinery — fused service batches, SeedSequence-per-chunk simulation
on an optional thread pool — so a report served over HTTP to one of
fifty tenants is bit-identical to the same spec run alone in-process
(asserted in ``tests/test_gateway.py``).  :meth:`AuditGateway.stats`
surfaces queue depth and peak, admission rejections, per-tenant
counters, end-to-end latency and per-dataset service counters for
dashboards.

Crash safety: constructed with ``store=`` (a
:class:`repro.ticketstore.TicketStore` or a path), the gateway
journals every submit *before* work starts and every settle the
moment its audit resolves (a :class:`GatewayTicket` settles itself
before any waiter wakes, whichever thread's gather ran it),
``ticket()`` falls back to the journal after a restart
(:class:`StoredTicket`), and :meth:`AuditGateway.recover` replays
journalled-but-unsettled tickets on boot — guarded by the stored
dataset fingerprint, so a recovered report is byte-identical to what
the crashed run would have produced (asserted under injected crashes
in ``tests/test_faults.py``).
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import threading
import time
from typing import Sequence

from .api import AuditSession
from .budget import _err, _int
from .faults import fault_point
from .serve import AuditService, PendingAudit
from .spec import AuditSpec
from .ticketstore import TicketRecord, TicketStore, TicketStoreError

__all__ = [
    "GatewayError",
    "UnknownDatasetError",
    "GatewayFullError",
    "TenantQuotaError",
    "GatewayDrainingError",
    "TicketFailedError",
    "TicketRecoveryError",
    "GatewayTicket",
    "StoredReport",
    "StoredTicket",
    "AuditGateway",
    "GatewayHTTPServer",
    "serve_http",
]


class GatewayError(Exception):
    """Base class for gateway admission failures.

    Attributes
    ----------
    http_status : int
        The HTTP status the JSON API maps this error to.
    """

    http_status = 400


class UnknownDatasetError(GatewayError):
    """The request names a dataset the gateway does not hold (404)."""

    http_status = 404


class GatewayFullError(GatewayError):
    """The admission queue is at capacity (429).

    Attributes
    ----------
    retry_after : float
        Suggested back-off seconds (the HTTP layer sends it as a
        ``Retry-After`` header).
    """

    http_status = 429

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = float(retry_after)


class TenantQuotaError(GatewayFullError):
    """One tenant holds its whole in-flight quota (429).

    Other tenants are still admitted — the per-tenant bound is what
    keeps one chatty tenant from starving the shared queue.
    """


class GatewayDrainingError(GatewayError):
    """The gateway is shutting down and refuses new work (503)."""

    http_status = 503


class TicketFailedError(GatewayError):
    """A journalled ticket settled as failed; refetching it replays
    the recorded typed failure instead of hanging or guessing (500).

    Attributes
    ----------
    error_type : str
        Type name of the original failure.
    """

    http_status = 500

    def __init__(self, ticket_id: str, error_type: str, error: str):
        super().__init__(
            f"ticket {ticket_id} failed: {error_type}: {error}"
        )
        self.error_type = error_type


class TicketRecoveryError(GatewayError):
    """A journalled ticket is not redeemable right now (503): either
    recovery has not replayed it yet, or it can never be recovered
    (dataset missing or its content changed since the crash)."""

    http_status = 503


class StoredReport:
    """An :class:`repro.api.AuditReport` payload rehydrated from the
    ticket store after a restart.

    Duck-types the report surface the HTTP layer and most clients
    need; the payload is exactly the ``to_dict(full=True)`` dict the
    original (or recovered) run journalled, so serving it preserves
    byte-identity with the pre-crash response.
    """

    def __init__(self, payload: dict):
        self._payload = payload

    def to_dict(self, full: bool = True) -> dict:
        """The journalled report payload (always the ``full=True``
        form, whatever ``full`` is passed)."""
        return copy.deepcopy(self._payload)

    @property
    def p_value(self) -> float:
        """Monte Carlo p-value of the scan maximum."""
        return self._payload["p_value"]

    @property
    def is_fair(self) -> bool:
        """Verdict: ``True`` when fairness cannot be rejected."""
        return self._payload["verdict"] == "fair"


class StoredTicket:
    """A ticket served from the persistent journal (post-restart).

    Returned by :meth:`AuditGateway.ticket` when the id is absent
    from the in-memory table but present in the store.  Settled
    tickets redeem immediately (:class:`StoredReport` on success, the
    replayed :class:`TicketFailedError` on failure); a ticket still
    awaiting recovery raises :class:`TicketRecoveryError` so clients
    retry instead of hanging.

    Attributes
    ----------
    id : str
    dataset : str
    tenant : str
    record : TicketRecord
        The underlying journal row.
    """

    def __init__(self, record: TicketRecord):
        self.record = record
        self.id = record.id
        self.dataset = record.dataset
        self.tenant = record.tenant

    def done(self) -> bool:
        """Whether the journalled ticket reached a terminal state."""
        return self.record.settled

    def result(self, timeout: float | None = None):
        """Redeem the journalled outcome.

        Parameters
        ----------
        timeout : float, optional
            Ignored — a stored ticket never blocks.

        Returns
        -------
        StoredReport

        Raises
        ------
        TicketFailedError
            The ticket settled as failed; the original typed error is
            replayed.
        TicketRecoveryError
            The ticket is journalled but not yet recovered.
        """
        record = self.record
        if record.state == "done":
            return StoredReport(record.report)
        if record.state == "failed":
            raise TicketFailedError(
                record.id, record.error_type or "Exception",
                record.error or "",
            )
        raise TicketRecoveryError(
            f"ticket {record.id} is journalled but not yet "
            "recovered; retry once the gateway finishes recovery"
        )


class GatewayTicket(PendingAudit):
    """One admitted audit: redeem it for its report, or poll it.

    Returned by :meth:`AuditGateway.submit`.  The ticket *is* the
    service's :class:`repro.serve.PendingAudit`, plus the gateway
    bookkeeping: a stable id (the HTTP API's handle), the tenant and
    dataset it was admitted under, and the submit timestamp.  Whichever
    thread's gather resolves it, the ticket settles with its gateway
    first — latency, tenant and outcome counters, then the journal —
    and only then wakes its waiters, so a report a client holds is
    always already counted and, with a store, journalled.

    Attributes
    ----------
    id : str
        Stable handle (``t-<n>``), unique within the gateway.
    dataset : str
        Dataset name the spec runs against.
    tenant : str
        Tenant the submission was accounted to.
    spec : AuditSpec
    """

    def __init__(
        self,
        gateway: "AuditGateway",
        service: AuditService,
        spec: AuditSpec,
        ticket_id: str,
        dataset: str,
        tenant: str,
    ):
        super().__init__(service, spec)
        self._gateway = gateway
        self.id = ticket_id
        self.dataset = dataset
        self.tenant = tenant
        self._submitted_at = time.monotonic()

    def _resolve(self, report=None, error=None) -> None:
        self._gateway._settle(self, report, error)
        super()._resolve(report=report, error=error)


def _entry(name: str, fingerprint: str, service: AuditService) -> dict:
    """The public description of one registered dataset."""
    return {
        "name": name,
        "fingerprint": fingerprint,
        "points": len(service.session.coords),
    }


class AuditGateway:
    """Multi-dataset, multi-tenant audit front door with back-pressure.

    The gateway holds one table of named datasets: each entry is the
    dataset's content fingerprint and the
    :class:`repro.serve.AuditService` built over it at
    :meth:`register`, sharing the gateway-wide ``workers`` execution
    policy.
    Admission is bounded: at most ``queue_size`` audits may be in
    flight (submitted, not yet resolved) across all tenants, and at
    most ``tenant_quota`` per tenant — excess submissions raise
    :class:`GatewayFullError` / :class:`TenantQuotaError` immediately
    instead of queueing unboundedly, which is what lets the HTTP layer
    return an honest 429 with ``Retry-After``.

    >>> import numpy as np
    >>> from repro.spec import AuditSpec, RegionSpec
    >>> rng = np.random.default_rng(0)
    >>> gw = AuditGateway()
    >>> _ = gw.register("demo", rng.random((80, 2)),
    ...                 rng.integers(0, 2, 80))
    >>> spec = AuditSpec(regions=RegionSpec.grid(3, 3), n_worlds=25,
    ...                  seed=1)
    >>> report = gw.run("demo", spec, tenant="alice")
    >>> gw.stats()["completed"]
    1

    Parameters
    ----------
    queue_size : int, default 64
        Gateway-wide cap on in-flight audits.
    tenant_quota : int, optional
        Per-tenant cap on in-flight audits; ``None`` leaves only the
        gateway-wide bound.
    workers : int, optional
        Default simulation worker count for every per-dataset session.
    cache_size : int, default 128
        Per-dataset service report-cache size.
    store : TicketStore or str, optional
        Durable ticket journal (:mod:`repro.ticketstore`); a path
        opens one.  With a store, every submit is journalled before
        work starts, every settle as its audit resolves, ticket ids are
        allocated from the journal (unique across restarts),
        :meth:`ticket` falls back to the journal, and
        :meth:`recover` replays unsettled tickets on boot.
    """

    def __init__(
        self,
        queue_size: int = 64,
        tenant_quota: int | None = None,
        workers: int | None = None,
        cache_size: int = 128,
        store: TicketStore | str | None = None,
    ):
        self.queue_size = _int("queue_size", queue_size)
        if self.queue_size < 1:
            raise _err("queue_size", f"must be >= 1, got {queue_size!r}")
        self.tenant_quota = (
            None if tenant_quota is None
            else _int("tenant_quota", tenant_quota)
        )
        if self.tenant_quota is not None and self.tenant_quota < 1:
            raise _err(
                "tenant_quota", f"must be None or >= 1, got {tenant_quota!r}"
            )
        self.workers = workers
        self.cache_size = _int("cache_size", cache_size)
        if self.cache_size < 0:
            raise _err("cache_size", f"must be >= 0, got {cache_size!r}")
        if store is not None and not isinstance(store, TicketStore):
            store = TicketStore(store)
        self.store = store
        self._store_errors = 0
        self._recovery: dict | None = None
        # name -> (dataset fingerprint, AuditService)
        self._datasets: dict = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._tickets: dict = {}
        self._inflight: dict = {}
        self._per_tenant: dict = {}
        self._draining = False
        self._submitted = 0
        self._completed = 0
        self._errors = 0
        self._rejected_full = 0
        self._rejected_quota = 0
        self._rejected_draining = 0
        self._queue_peak = 0
        self._latency_total = 0.0
        self._latency_max = 0.0

    # -- datasets ------------------------------------------------------

    def register(
        self,
        name: str,
        coords,
        outcomes,
        y_true=None,
        forecast=None,
        n_classes: int | None = None,
    ) -> dict:
        """Register (or replace) a named dataset (thread-safe).

        The arrays are bound to a session (which copies them once into
        read-only storage) and a service right away and hashed once,
        so shape and length errors surface here rather than at the
        first audit.
        Re-registering equal content keeps the existing service and
        its warm report cache; new content replaces it.

        Parameters
        ----------
        name : str
        coords, outcomes, y_true, forecast, n_classes
            As in :class:`repro.api.AuditSession`.

        Returns
        -------
        dict
            The ``{"name", "fingerprint", "points"}`` entry
            :meth:`datasets` lists for ``name``.

        Raises
        ------
        ValueError
            Invalid coordinates or mismatched array lengths (the
            message names the field).
        """
        name = str(name)
        session = AuditSession(
            coords,
            outcomes,
            y_true=y_true,
            forecast=forecast,
            n_classes=n_classes,
            workers=self.workers,
        )
        fingerprint = session.dataset_fingerprint()
        service = AuditService(session, cache_size=self.cache_size)
        with self._lock:
            current = self._datasets.get(name)
            if current is None or current[0] != fingerprint:
                self._datasets[name] = (fingerprint, service)
        return _entry(name, fingerprint, service)

    def datasets(self) -> list:
        """The registered datasets, sorted by name, from one locked
        snapshot.

        Returns
        -------
        list of dict
            One ``{"name", "fingerprint", "points"}`` entry per
            dataset.
        """
        with self._lock:
            return [
                _entry(name, fingerprint, service)
                for name, (fingerprint, service) in sorted(
                    self._datasets.items()
                )
            ]

    def _lookup(self, dataset: str) -> tuple:
        """``(fingerprint, service)`` registered under ``dataset``."""
        with self._lock:
            found = self._datasets.get(dataset)
            if found is not None:
                return found
            known = ", ".join(sorted(self._datasets)) or "(none)"
        raise UnknownDatasetError(
            f"unknown dataset {dataset!r}; registered: {known}"
        )

    def service(self, dataset: str) -> AuditService:
        """The service over a registered dataset.

        Parameters
        ----------
        dataset : str
            Registered dataset name.

        Returns
        -------
        AuditService

        Raises
        ------
        UnknownDatasetError
            The name is not registered (the message lists the
            registered ones).
        """
        return self._lookup(dataset)[1]

    # -- admission -----------------------------------------------------

    def _settle(self, ticket: GatewayTicket, report, error) -> None:
        """Account and journal one ticket as its audit resolves (the
        ticket calls this before waking any waiter).  Never raises into
        the service, which would strand the rest of its batch: a failed
        journal write of any kind only bumps ``write_errors``."""
        elapsed = time.monotonic() - ticket._submitted_at
        with self._lock:
            self._inflight.pop(ticket.id, None)
            self._latency_total += elapsed
            self._latency_max = max(self._latency_max, elapsed)
            tenant = self._per_tenant[ticket.tenant]
            tenant["inflight"] -= 1
            if error is not None:
                self._errors += 1
                tenant["errors"] += 1
            else:
                self._completed += 1
                tenant["completed"] += 1
        if self.store is None:
            return
        try:
            if error is not None:
                self.store.record_settle(
                    ticket.id,
                    error_type=type(error).__name__,
                    error=str(error),
                )
            else:
                self.store.record_settle(
                    ticket.id, report=report.to_dict(full=True)
                )
        except Exception:
            with self._lock:
                self._store_errors += 1

    def submit(
        self,
        dataset: str,
        spec: AuditSpec,
        tenant: str = "default",
    ) -> GatewayTicket:
        """Admit one audit (thread-safe); raises instead of queueing
        past the bounds.

        Nothing is journalled for a rejected submission, and
        concurrent submissions never overshoot the bounds.

        Parameters
        ----------
        dataset : str
            Registered dataset name.
        spec : AuditSpec
        tenant : str, default "default"
            Accounting bucket for the per-tenant quota and counters.

        Returns
        -------
        GatewayTicket

        Raises
        ------
        GatewayDrainingError
            The gateway is shutting down.
        GatewayFullError
            ``queue_size`` audits already in flight.
        TenantQuotaError
            This tenant holds ``tenant_quota`` in-flight audits.
        UnknownDatasetError
            The dataset name is not registered.
        ValueError
            ``spec`` is not an :class:`AuditSpec`.
        TicketStoreError
            The admission could not be journalled (store-backed
            gateways refuse work they cannot make durable).
        """
        fault_point("gateway.submit")
        fingerprint, service = self._lookup(dataset)
        service.session._check_spec(spec)
        # One critical section from the bound checks to registration,
        # journal write included: split, concurrent submits could all
        # pass the checks before any of them counts.
        with self._lock:
            if self._draining:
                self._rejected_draining += 1
                raise GatewayDrainingError(
                    "gateway is draining; not accepting new audits"
                )
            depth = len(self._inflight)
            if depth >= self.queue_size:
                self._rejected_full += 1
                raise GatewayFullError(
                    f"audit queue full ({depth}/{self.queue_size} "
                    "in flight); retry after the backlog drains",
                    retry_after=1.0,
                )
            bucket = self._per_tenant.setdefault(
                tenant,
                {
                    "submitted": 0,
                    "completed": 0,
                    "errors": 0,
                    "inflight": 0,
                },
            )
            if (
                self.tenant_quota is not None
                and bucket["inflight"] >= self.tenant_quota
            ):
                self._rejected_quota += 1
                raise TenantQuotaError(
                    f"tenant {tenant!r} holds "
                    f"{bucket['inflight']}/{self.tenant_quota} "
                    "in-flight audits",
                    retry_after=1.0,
                )
            if self.store is None:
                ticket_id = f"t-{next(self._ids)}"
            else:
                # Journal the admission before any work starts: a
                # crash from here on can never lose an id the client
                # was given (the id is allocated by the journal insert
                # itself, so ids stay unique and monotone across
                # restarts).
                ticket_id = self.store.record_submit(
                    dataset,
                    tenant,
                    spec.to_json(),
                    fingerprint,
                )
            ticket = GatewayTicket(
                self, service, spec, ticket_id, dataset, tenant
            )
            # Register before queueing: another thread's gather may
            # resolve the ticket as soon as it is queued.
            self._submitted += 1
            bucket["submitted"] += 1
            bucket["inflight"] += 1
            self._tickets[ticket_id] = ticket
            self._inflight[ticket_id] = ticket
            self._queue_peak = max(
                self._queue_peak, len(self._inflight)
            )
            # Redeemed tickets stay addressable for the HTTP API;
            # cap the table so abandoned ids cannot leak forever.
            while len(self._tickets) > max(4 * self.queue_size, 256):
                self._tickets.pop(next(iter(self._tickets)))
        service._enqueue(ticket)
        return ticket

    def ticket(self, ticket_id: str):
        """Look an admitted ticket up by id (the HTTP handle).

        With a store, an id absent from the in-memory table (expired,
        or admitted by a previous — possibly crashed — process) is
        served from the journal as a :class:`StoredTicket`; every
        successful lookup is journalled as a fetch.

        Returns
        -------
        GatewayTicket or StoredTicket

        Raises
        ------
        KeyError
            Unknown (or already expired) ticket id.
        """
        with self._lock:
            ticket = self._tickets.get(ticket_id)
        if ticket is None and self.store is not None:
            try:
                record = self.store.get(ticket_id)
            except TicketStoreError:
                record = None
            if record is not None:
                ticket = StoredTicket(record)
        if ticket is None:
            raise KeyError(f"unknown ticket {ticket_id!r}")
        if self.store is not None:
            # The fetch journal is an access log: losing an entry
            # must not fail the read itself.
            try:
                self.store.record_fetch(ticket_id)
            except TicketStoreError:
                with self._lock:
                    self._store_errors += 1
        return ticket

    # -- execution -----------------------------------------------------

    def gather(self, dataset: str | None = None) -> int:
        """Run every queued spec (of one dataset, or all of them).

        Parameters
        ----------
        dataset : str, optional
            Limit the gather to one dataset's service.

        Returns
        -------
        int
            Reports produced by this call.
        """
        if dataset is not None:
            services = [self.service(dataset)]
        else:
            with self._lock:
                services = [
                    service for _, service in self._datasets.values()
                ]
        produced = 0
        for service in services:
            produced += len(service.gather())
        return produced

    def run(
        self,
        dataset: str,
        spec: AuditSpec,
        tenant: str = "default",
        timeout: float | None = None,
    ):
        """Admit one audit and wait for its report.

        Parameters
        ----------
        dataset, spec, tenant
            As in :meth:`submit`.
        timeout : float, optional
            As in :meth:`GatewayTicket.result`.

        Returns
        -------
        AuditReport
        """
        return self.submit(dataset, spec, tenant=tenant).result(
            timeout=timeout
        )

    def run_batch(
        self,
        dataset: str,
        specs: Sequence[AuditSpec],
        tenant: str = "default",
    ) -> list:
        """Admit a batch against one dataset and wait for all reports.

        The batch is admitted ticket by ticket (each subject to the
        queue bound and tenant quota), gathered as one fused service
        batch, and redeemed in order.

        Parameters
        ----------
        dataset : str
        specs : sequence of AuditSpec
        tenant : str, default "default"

        Returns
        -------
        list of AuditReport
        """
        tickets = [
            self.submit(dataset, spec, tenant=tenant)
            for spec in specs
        ]
        self.gather(dataset)
        return [ticket.result() for ticket in tickets]

    # -- lifecycle -----------------------------------------------------

    def recover(self) -> dict:
        """Replay journalled-but-unsettled tickets after a restart.

        For every ``'submitted'`` row in the store: if the row's
        dataset is registered *and* its content fingerprint equals
        the journalled one, the spec is re-run (fused per dataset,
        bypassing the admission queue — recovery is boot-time work,
        not tenant traffic) and the report journalled with
        ``recovered=True``; the deterministic engine plus the
        fingerprint guard make that report **byte-identical** to the
        one the crashed run would have produced.  Rows whose dataset
        is missing or changed settle as failed with a
        ``TicketRecoveryError`` — clients get a typed answer, never a
        silent loss.  Idempotent: settled rows are never touched
        (first settle wins in the store).

        Returns
        -------
        dict
            ``replayed`` (rows considered), ``recovered`` (reports
            produced) and ``failed`` counts; all zero without a
            store.
        """
        summary = {"replayed": 0, "recovered": 0, "failed": 0}
        if self.store is None:
            return summary
        pending = self.store.unsettled()
        summary["replayed"] = len(pending)
        by_dataset: dict = {}
        for record in pending:
            by_dataset.setdefault(record.dataset, []).append(record)

        def _fail(record, error_type, message):
            self.store.record_settle(
                record.id,
                error_type=error_type,
                error=message,
                recovered=True,
            )
            summary["failed"] += 1

        for dataset, records in by_dataset.items():
            try:
                fingerprint, service = self._lookup(dataset)
            except UnknownDatasetError:
                for record in records:
                    _fail(
                        record,
                        "TicketRecoveryError",
                        f"dataset {dataset!r} not registered after "
                        "restart",
                    )
                continue
            replay = []
            for record in records:
                if record.fingerprint != fingerprint:
                    _fail(
                        record,
                        "TicketRecoveryError",
                        f"dataset {dataset!r} content changed since "
                        "the ticket was journalled (fingerprint "
                        "mismatch)",
                    )
                    continue
                try:
                    spec = AuditSpec.from_json(record.spec)
                    replay.append((record, service.submit(spec)))
                except Exception as exc:
                    _fail(record, type(exc).__name__, str(exc))
            if not replay:
                continue
            service.gather()
            for record, pending_audit in replay:
                try:
                    report = pending_audit.result()
                except Exception as exc:
                    _fail(record, type(exc).__name__, str(exc))
                else:
                    self.store.record_settle(
                        record.id,
                        report=report.to_dict(full=True),
                        recovered=True,
                    )
                    summary["recovered"] += 1
        with self._lock:
            self._recovery = dict(summary)
        return summary

    def drain(self, timeout: float | None = None) -> int:
        """Stop admitting, finish everything already in flight.

        New :meth:`submit` calls raise :class:`GatewayDrainingError`
        from this point on; queued audits are gathered and their
        tickets resolved, so waiting clients get their reports.

        Parameters
        ----------
        timeout : float, optional
            Per-ticket resolution timeout.

        Returns
        -------
        int
            Audits resolved during the drain.
        """
        with self._lock:
            self._draining = True
            outstanding = list(self._inflight.values())
        self.gather()
        for ticket in outstanding:
            try:
                ticket.result(timeout=timeout)
            except Exception:  # counted when the ticket settled
                pass
        return len(outstanding)

    @property
    def draining(self) -> bool:
        """Whether :meth:`drain` has been called."""
        with self._lock:
            return self._draining

    def close(self) -> None:
        """Drain, close the ticket store (if any), then forget every
        dataset (idempotent)."""
        self.drain()
        if self.store is not None:
            self.store.close()
        with self._lock:
            self._datasets.clear()

    # -- observability -------------------------------------------------

    def stats(self) -> dict:
        """Gateway counters for dashboards (a read-only snapshot:
        tickets settle as they resolve, so nothing is journalled here).

        Returns
        -------
        dict
            ``submitted`` / ``completed`` / ``errors``, the rejection
            counters (``rejected_full``, ``rejected_quota``,
            ``rejected_draining``), ``queue_depth`` / ``queue_peak`` /
            ``queue_size``, submit-to-resolution latency aggregates
            over settled audits (``latency_avg_ms`` /
            ``latency_max_ms``), ``draining``,
            per-``tenants`` buckets, one ``datasets`` entry per
            registered dataset (its service counters), and ``store``
            — the ticket journal's counters plus ``write_errors`` and
            the boot-time ``recovery`` summary (``None`` when the
            gateway runs without a store).
        """
        with self._lock:
            tenants = {
                name: dict(bucket)
                for name, bucket in self._per_tenant.items()
            }
            services = {
                name: service
                for name, (_, service) in self._datasets.items()
            }
            store_errors = self._store_errors
            recovery = (
                dict(self._recovery) if self._recovery else None
            )
            settled = self._completed + self._errors
            avg_ms = (
                1000.0 * self._latency_total / settled
                if settled
                else 0.0
            )
            out = {
                "submitted": self._submitted,
                "completed": self._completed,
                "errors": self._errors,
                "rejected_full": self._rejected_full,
                "rejected_quota": self._rejected_quota,
                "rejected_draining": self._rejected_draining,
                "queue_depth": len(self._inflight),
                "queue_peak": self._queue_peak,
                "queue_size": self.queue_size,
                "tenant_quota": self.tenant_quota,
                "latency_avg_ms": round(avg_ms, 3),
                "latency_max_ms": round(
                    1000.0 * self._latency_max, 3
                ),
                "draining": self._draining,
                "tenants": tenants,
            }
        out["datasets"] = {
            name: service.stats() for name, service in services.items()
        }
        if self.store is not None:
            out["store"] = {
                **self.store.stats(),
                "write_errors": store_errors,
                "recovery": recovery,
            }
        else:
            out["store"] = None
        return out


# -- HTTP front door ---------------------------------------------------


def _field(body: dict, name: str):
    """A required request-body field; missing is a 400 naming it."""
    try:
        return body[name]
    except KeyError:
        raise ValueError(f"{name}: missing from the request body") from None


def _seconds(name: str, value) -> float | None:
    """A client-supplied wait: ``None`` or a finite number >= 0."""
    if value is None:
        return None
    if (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and 0 <= value < math.inf
    ):
        return float(value)
    raise ValueError(
        f"{name}: expected null or a finite number >= 0, got {value!r}"
    )


def _make_handler(gateway: AuditGateway, quiet: bool):
    """Build the request-handler class bound to one gateway."""
    from http.server import BaseHTTPRequestHandler

    class Handler(BaseHTTPRequestHandler):
        """JSON request handler over one gateway (module-private)."""

        protocol_version = "HTTP/1.1"

        def log_message(self, fmt, *args):
            if not quiet:
                BaseHTTPRequestHandler.log_message(self, fmt, *args)

        # -- plumbing --------------------------------------------------

        def _send(self, status: int, payload: dict, headers=None):
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for key, value in (headers or {}).items():
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(body)

        def _body(self) -> dict:
            text = (self.headers.get("Content-Length") or "0").strip()
            if not (text.isascii() and text.isdigit()):
                # Without a length the body cannot be skipped, so the
                # next request on this connection could not be framed
                # (and rfile.read(-1) would block until the client
                # hangs up): answer 400 and close the connection.
                self.close_connection = True
                raise ValueError(
                    f"Content-Length: expected an integer >= 0, got {text!r}"
                )
            length = int(text)
            raw = self.rfile.read(length) if length else b"{}"
            data = json.loads(raw.decode("utf-8"))
            if not isinstance(data, dict):
                raise ValueError("request body must be a JSON object")
            return data

        def _fail(self, exc: Exception):
            if isinstance(exc, GatewayError):
                headers = {}
                if isinstance(exc, GatewayFullError):
                    headers["Retry-After"] = str(
                        max(1, int(round(exc.retry_after)))
                    )
                self._send(
                    exc.http_status,
                    {
                        "error": str(exc),
                        "type": type(exc).__name__,
                    },
                    headers,
                )
            elif isinstance(exc, (ValueError, KeyError)):
                self._send(
                    400 if isinstance(exc, ValueError) else 404,
                    {
                        "error": str(
                            exc.args[0] if exc.args else exc
                        ),
                        "type": type(exc).__name__,
                    },
                )
            else:
                self._send(
                    500,
                    {"error": str(exc), "type": type(exc).__name__},
                )

        # -- routes ----------------------------------------------------

        def do_GET(self):
            try:
                path, _, query = self.path.partition("?")
                if path == "/stats":
                    self._send(200, gateway.stats())
                elif path == "/healthz":
                    self._send(
                        200,
                        {"ok": True, "draining": gateway.draining},
                    )
                elif path == "/datasets":
                    self._send(200, {"datasets": gateway.datasets()})
                elif path.startswith("/tickets/"):
                    self._ticket(path[len("/tickets/"):], query)
                else:
                    self._send(
                        404, {"error": f"no route {path!r}"}
                    )
            except Exception as exc:
                self._fail(exc)

        def _ticket(self, ticket_id: str, query: str):
            ticket = gateway.ticket(ticket_id)
            wait = None
            for part in query.split("&"):
                if part.startswith("wait="):
                    text = part[len("wait="):]
                    try:
                        wait = float(text)
                    except ValueError:
                        wait = text
                    wait = _seconds("wait", wait)
            report = None
            if wait != 0 or ticket.done():
                try:
                    report = ticket.result(timeout=wait)
                except TimeoutError:
                    pass
            if report is None:
                self._send(
                    200, {"ticket": ticket.id, "done": False}
                )
                return
            self._send(
                200,
                {
                    "ticket": ticket.id,
                    "done": True,
                    "report": report.to_dict(full=True),
                },
            )

        def do_POST(self):
            try:
                body = self._body()
                if self.path == "/audit":
                    self._audit(body)
                elif self.path == "/batch":
                    self._batch(body)
                elif self.path == "/datasets":
                    self._register(body)
                else:
                    self._send(
                        404, {"error": f"no route {self.path!r}"}
                    )
            except Exception as exc:
                self._fail(exc)

        def _audit(self, body: dict):
            spec = AuditSpec.from_dict(_field(body, "spec"))
            timeout = _seconds("timeout", body.get("timeout"))
            ticket = gateway.submit(
                _field(body, "dataset"),
                spec,
                tenant=str(body.get("tenant", "default")),
            )
            report = None
            if body.get("wait", True):
                try:
                    report = ticket.result(timeout=timeout)
                except TimeoutError:
                    pass
            if report is None:
                # Not waited for, or still pending at the timeout: the
                # client redeems the ticket via GET /tickets/<id>.
                self._send(
                    202,
                    {
                        "ticket": ticket.id,
                        "dataset": ticket.dataset,
                        "tenant": ticket.tenant,
                        "done": False,
                    },
                )
                return
            self._send(
                200,
                {
                    "ticket": ticket.id,
                    "report": report.to_dict(full=True),
                },
            )

        def _batch(self, body: dict):
            specs = [
                AuditSpec.from_dict(s) for s in _field(body, "specs")
            ]
            reports = gateway.run_batch(
                _field(body, "dataset"),
                specs,
                tenant=str(body.get("tenant", "default")),
            )
            self._send(
                200,
                {
                    "reports": [
                        r.to_dict(full=True) for r in reports
                    ]
                },
            )

        def _register(self, body: dict):
            entry = gateway.register(
                _field(body, "name"),
                _field(body, "coords"),
                _field(body, "outcomes"),
                y_true=body.get("y_true"),
                forecast=body.get("forecast"),
                n_classes=body.get("n_classes"),
            )
            self._send(201, entry)

    return Handler


class GatewayHTTPServer:
    """Threaded JSON/HTTP front door over an :class:`AuditGateway`.

    Stdlib only (:class:`http.server.ThreadingHTTPServer`): each
    request runs on its own thread against the thread-safe gateway.
    Routes:

    ``POST /audit``
        ``{"dataset", "spec", "tenant"?, "wait"?, "timeout"?}`` —
        200 with the report when ``wait`` (default) and it resolves
        within ``timeout``, 202 with a ticket id otherwise.
        Queue-full and quota rejections return 429 with a
        ``Retry-After`` header; draining returns 503.
    ``GET /tickets/<id>?wait=<s>``
        Redeem or poll a ticket (``wait=0`` polls without blocking);
        ``"done": false`` while it is still pending after ``wait``.
    ``POST /batch``
        ``{"dataset", "specs": [...], "tenant"?}`` — all reports,
        one fused pass.
    ``POST /datasets`` / ``GET /datasets``
        Register arrays (201 with the dataset's entry) / list every
        ``{"name", "fingerprint", "points"}`` entry.
    ``GET /stats``, ``GET /healthz``
        :meth:`AuditGateway.stats` / liveness.

    A missing body field, an invalid spec or dataset, and a
    ``timeout``/``wait`` that is not ``null`` or a finite number >= 0
    are 400s whose message names the field; an unknown dataset,
    ticket or route is a 404.

    >>> import numpy as np
    >>> gw = AuditGateway()
    >>> server = GatewayHTTPServer(gw, port=0)  # ephemeral port
    >>> server.start()
    >>> isinstance(server.port, int)
    True
    >>> server.stop()

    Parameters
    ----------
    gateway : AuditGateway
    host : str, default "127.0.0.1"
    port : int, default 8080
        ``0`` binds an ephemeral port (see :attr:`port` after
        construction).
    quiet : bool, default True
        Suppress per-request access logging.
    """

    def __init__(
        self,
        gateway: AuditGateway,
        host: str = "127.0.0.1",
        port: int = 8080,
        quiet: bool = True,
    ):
        from http.server import ThreadingHTTPServer

        self.gateway = gateway
        handler = _make_handler(gateway, quiet)
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        self.host = self._server.server_address[0]
        self.port = int(self._server.server_address[1])
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        """Base URL of the bound socket."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Serve on a daemon thread (returns immediately)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-gateway-http",
            daemon=True,
        )
        self._thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop`."""
        self._server.serve_forever()

    def stop(self, drain: bool = True) -> None:
        """Stop accepting connections; optionally drain the gateway.

        Parameters
        ----------
        drain : bool, default True
            Finish in-flight audits (:meth:`AuditGateway.drain`)
            after the listener closes.
        """
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        if drain:
            self.gateway.drain()


def serve_http(
    gateway: AuditGateway,
    host: str = "127.0.0.1",
    port: int = 8080,
    quiet: bool = True,
    ready=None,
) -> None:
    """Blocking entry point behind ``python -m repro serve``.

    Boots a :class:`GatewayHTTPServer`, installs SIGTERM/SIGINT
    handlers, and blocks until a signal arrives — then stops the
    listener and drains the gateway so in-flight audits finish before
    the process exits.

    Parameters
    ----------
    gateway : AuditGateway
    host, port, quiet
        As in :class:`GatewayHTTPServer`.
    ready : callable, optional
        Called with the running server once the socket is bound
        (the CLI prints the listening URL from it).
    """
    import signal

    server = GatewayHTTPServer(
        gateway, host=host, port=port, quiet=quiet
    )
    stop = threading.Event()

    def _signalled(signum, frame):
        stop.set()

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        previous[sig] = signal.signal(sig, _signalled)
    try:
        server.start()
        if ready is not None:
            ready(server)
        stop.wait()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.stop(drain=True)
