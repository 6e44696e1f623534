"""Batched multi-spec audit serving: many audits, one Monte Carlo pass.

A production deployment rarely runs one audit at a time: every measure
x family x region design of interest — plus power sweeps — is audited
against the *same* dataset.  Simulating null worlds per audit would
repeat the dominant cost once per request.  This module amortises it:

* :class:`AuditService` accepts batches of
  :class:`repro.spec.AuditSpec` requests (and concurrent
  :meth:`~AuditService.submit` calls from any thread), groups them by
  null model — equal :meth:`repro.engine.LLRKernel.cache_key`, world
  budget, seed and :class:`~repro.budget.BudgetPolicy` — and executes
  each group in a **single fused**
  :class:`repro.engine.MonteCarloEngine` pass: worlds are simulated
  once per group while every member spec's statistics are scored
  against the stacked membership matrix
  (:class:`repro.index.StackedMembership`) — or, for a disjoint
  design such as a grid, on its own region-level pass, which draws
  one count per cell and needs no matrix;
* an LRU report cache keyed on a digest of what a report depends on
  — the spec hash (:meth:`AuditSpec.spec_hash
  <repro.spec.AuditSpec.spec_hash>`) plus the content fingerprint
  (:mod:`repro.fingerprint`) of the measure's data slice — answers
  repeated seeded requests without touching the engine at all, with
  explicit :meth:`~AuditService.invalidate`.  The session holds
  read-only private copies of its arrays and hashes each dataset
  state once, so a key costs no hashing after the state's first
  batch; an append or eviction that changes a spec's slice makes the
  same spec miss, while one that changes only data outside that
  slice still hits;
* :meth:`~AuditService.submit` / :meth:`~AuditService.gather` give an
  async-style flow on top of :class:`repro.api.AuditSession`, and
  ``python -m repro batch specs/*.json --data file.npz`` drives it
  from the shell;
* :meth:`~AuditService.watch` / :meth:`~AuditService.advance` run a
  **continuous audit** over streaming data: each ``advance`` appends
  newly arrived points and/or slides the session's time window
  (:meth:`AuditSession.append <repro.api.AuditSession.append>` /
  :meth:`~repro.api.AuditSession.evict`), then gathers every watched
  spec as one batch — a spec whose measured data slice did not change
  is a report-cache hit, and a re-run spec still reuses every
  surviving membership matrix.  ``python -m repro stream`` drives it
  from the shell.

Determinism: fusion reuses the engine's chunk layout and per-chunk
random streams unchanged, so every fused report is **bit-identical**
to running its spec alone through :meth:`AuditSession.run
<repro.api.AuditSession.run>` at the same seed (asserted in
``tests/test_serve.py``).  Submission order, thread interleaving and
group stacking order cannot change any result.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Sequence

from .api import AuditReport, AuditSession, ResolvedSpec
from .budget import _err, _int
from .core import FAMILIES, _parse_direction
from .faults import fault_point
from .fingerprint import combine_fingerprints
from .geometry import Rect
from .spec import AuditSpec

__all__ = ["AuditService", "PendingAudit"]


class PendingAudit:
    """A submitted spec's ticket: redeem it for the
    :class:`repro.api.AuditReport` once the batch has run.

    Returned by :meth:`AuditService.submit`.  The ticket resolves when
    any thread's :meth:`AuditService.gather` processes the queue;
    calling :meth:`result` first simply drives a gather itself, so a
    single-threaded ``submit ... submit ... result`` flow never
    deadlocks.
    """

    def __init__(self, service: "AuditService", spec: AuditSpec):
        self._service = service
        self.spec = spec
        self._event = threading.Event()
        self._report: AuditReport | None = None
        self._error: Exception | None = None
        #: Whether the report cache answered the ticket.
        self._cache_hit = False

    def done(self) -> bool:
        """Whether the ticket has resolved (report or error)."""
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> AuditReport:
        """The spec's report, driving a :meth:`AuditService.gather`
        if the batch has not run yet.

        When no other thread is gathering, this call drains the queue
        itself (so single-threaded ``submit ... result`` flows always
        complete, whatever ``timeout``).  When another thread's gather
        is in flight, it waits — at most ``timeout`` seconds — for
        that gather to resolve the ticket, retrying the drain if the
        in-flight batch predated this submission.

        Parameters
        ----------
        timeout : float, optional
            Seconds to wait on another thread's in-flight gather;
            ``None`` waits indefinitely.

        Returns
        -------
        AuditReport

        Raises
        ------
        TimeoutError
            When the ticket is still unresolved after ``timeout``.
        Exception
            Whatever the spec's execution raised (e.g. a
            :class:`ValueError` for data the session lacks).
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while not self._event.is_set():
            lock = self._service._gather_lock
            if lock.acquire(blocking=False):
                try:
                    self._service._drain()
                finally:
                    lock.release()
                # The drain resolves every ticket it took, ours
                # included.
                if self._event.is_set():
                    break
            remaining = (
                None
                if deadline is None
                else deadline - time.monotonic()
            )
            if remaining is not None and remaining <= 0:
                raise TimeoutError(
                    f"audit of {self.spec.describe()!r} still pending "
                    f"after {timeout}s"
                )
            # Wait briefly on the in-flight gather, then retry: its
            # batch may have been snapshotted before this submission.
            # Every pass waits, so an unresolved ticket never spins.
            self._event.wait(
                0.05 if remaining is None else min(0.05, remaining)
            )
        if self._error is not None:
            raise self._error
        return self._report

    def _resolve(
        self,
        report: AuditReport | None = None,
        error: Exception | None = None,
    ) -> None:
        """Record the outcome and wake every waiter.  The service calls
        this exactly once per ticket, never under its own lock."""
        self._report = report
        self._error = error
        self._event.set()


class AuditService:
    """Serve batches of audit specs over one dataset, fusing their
    Monte Carlo passes.

    The service wraps an :class:`repro.api.AuditSession` and adds the
    batch layer: a thread-safe submission queue, null-model grouping,
    fused execution (one world simulation per group, all member
    statistics scored per world through stacked membership matrices),
    and an LRU report cache keyed on the spec hash plus a fingerprint
    of the data the spec scans.

    Two equivalent flows::

        service = AuditService(AuditSession(coords, y_pred))

        # 1. synchronous batch
        reports = service.run_batch(specs)

        # 2. async-style: submit from any thread, gather once
        tickets = [service.submit(s) for s in specs]
        service.gather()
        reports = [t.result() for t in tickets]

    Fusion preserves bit-identity with solo runs: grouping only shares
    *world simulation* between specs whose null model is provably the
    same (equal kernel cache key, ``n_worlds`` and ``seed``), and the
    shared pass replays the exact chunk layout and random streams a
    solo run uses.  Specs with different measures, families,
    directions, world budgets or seeds land in separate groups; specs
    differing only in region design, ``alpha`` or ``correction`` fuse.

    Parameters
    ----------
    session : AuditSession
        The dataset binding every submitted spec runs against.
    cache_size : int, default 128
        Reports retained in the LRU result cache; ``0`` disables it.
        Only seeded specs are cached (an unseeded audit is
        deliberately non-reproducible, so serving it from cache would
        be wrong).

    Attributes
    ----------
    session : AuditSession
        The wrapped session (shared caches live there and in its
        engines).
    """

    def __init__(self, session: AuditSession, cache_size: int = 128):
        if not isinstance(session, AuditSession):
            raise ValueError(
                "session: expected an AuditSession, got "
                f"{type(session).__name__}"
            )
        self.session = session
        self.cache_size = _int("cache_size", cache_size)
        if self.cache_size < 0:
            raise _err("cache_size", f"must be >= 0, got {cache_size!r}")
        self._cache: "OrderedDict[str, AuditReport]" = OrderedDict()
        self._pending: list = []
        self._lock = threading.Lock()
        self._gather_lock = threading.Lock()
        self._submitted = 0
        self._completed = 0
        self._errors = 0
        self._fused_groups = 0
        self._fused_specs = 0
        self._worlds_requested = 0
        self._cache_hits = 0
        self._cache_misses = 0
        # Continuous-audit state: the watched specs (under ``_lock``)
        # and their counters.
        self._watched: list = []
        self._advances = 0
        self._stream_runs = 0
        self._stream_skips = 0

    # -- submission ----------------------------------------------------

    def submit(self, spec: AuditSpec) -> PendingAudit:
        """Queue one spec for the next fused batch (thread-safe).

        Parameters
        ----------
        spec : AuditSpec

        Returns
        -------
        PendingAudit
            The ticket to redeem via :meth:`PendingAudit.result`.
        """
        self.session._check_spec(spec)
        return self._enqueue(PendingAudit(self, spec))

    def _enqueue(self, ticket: PendingAudit) -> PendingAudit:
        """Queue an already checked ticket for the next batch."""
        with self._lock:
            self._pending.append(ticket)
            self._submitted += 1
        return ticket

    def gather(self) -> list:
        """Execute every queued spec in fused groups and resolve their
        tickets.

        Safe to call from any thread; one gather runs at a time and a
        concurrent caller blocks until the in-flight one finishes,
        then drains whatever was submitted meanwhile.  Per-spec
        failures resolve that spec's ticket with the error (re-raised
        by :meth:`PendingAudit.result`) without aborting the rest of
        the batch.

        Returns
        -------
        list of AuditReport
            Reports of the specs this call executed successfully, in
            submission order (errored specs are skipped here and
            surface on their tickets).
        """
        with self._gather_lock:
            batch = self._drain()
        return [t._report for t in batch if t._error is None]

    def _drain(self) -> list:
        """Snapshot and execute the pending queue; caller must hold
        ``_gather_lock``.  Returns the drained tickets.

        An exception escaping the execution resolves every ticket of
        the batch it left unresolved with that error, so no waiter is
        stranded.
        """
        with self._lock:
            batch, self._pending = self._pending, []
        try:
            self._execute(batch)
        except Exception as exc:
            stranded = [t for t in batch if not t.done()]
            self._finish(stranded, None, error=exc)
        return batch

    def run_batch(self, specs: Sequence[AuditSpec]) -> list:
        """Submit a sequence of specs and gather them in one call.

        Parameters
        ----------
        specs : sequence of AuditSpec

        Returns
        -------
        list of AuditReport
            One report per spec, in order.

        Raises
        ------
        Exception
            The first submitted spec's error, if any spec failed.
        """
        tickets = [self.submit(spec) for spec in specs]
        self.gather()
        return [ticket.result() for ticket in tickets]

    # -- planning ------------------------------------------------------

    def plan(self, specs: Sequence[AuditSpec]) -> list:
        """The fusion grouping of a batch, without running anything.

        Parameters
        ----------
        specs : sequence of AuditSpec

        Returns
        -------
        list of list of int
            Indices into ``specs``, one inner list per fused group
            (specs in the same group share one simulation pass).
        """
        groups: "OrderedDict[tuple, list]" = OrderedDict()
        for i, spec in enumerate(specs):
            resolved = self.session.resolve(spec)
            groups.setdefault(self._group_key(resolved), []).append(i)
        return list(groups.values())

    @staticmethod
    def _group_key(resolved: ResolvedSpec) -> tuple:
        """Everything that must agree for two specs to share simulated
        worlds: the measure (hence coordinates), the kernel's cache key
        (family, null parameters, direction), the world budget + seed
        (hence chunk layout and random streams) and the budget policy
        (an adaptive group's round schedule must match).  Alphas may
        still differ within an adaptive group — the sequential stopping
        rule is evaluated per member segment."""
        spec = resolved.spec
        return (
            spec.measure,
            resolved.kernel.cache_key(),
            spec.n_worlds,
            spec.seed,
            spec.budget,
        )

    # -- execution -----------------------------------------------------

    def _report_key(self, spec: AuditSpec) -> str | None:
        """Report-cache key of a spec: a digest of everything its report
        depends on under the session's current data, or None for
        unseeded specs (deliberately non-reproducible, never cached).

        Covers the spec itself (hash), the measure's extracted slice
        (coordinates and outcomes — hence observed statistics, null
        totals, and k-means scan centres), and the data-dependent
        extras: the full dataset's bounding box for grids without
        explicit bounds, the forecast for Poisson specs, the class
        count for multinomial ones.  Equal keys mean a cold run would
        reproduce the cached report bit for bit, so data outside the
        slice may change freely while a swapped or mutated slice
        misses.  Raises what the session raises for a measure it
        cannot serve.

        The digests come from the session's current state, which
        hashes each slice at most once however many specs read it.
        """
        if spec.seed is None:
            return None
        state = self.session._state
        coords_fp, outcomes_fp = state.slice_digests(spec.measure)
        parts = {
            "spec": spec.spec_hash(),
            "coords": coords_fp,
            "outcomes": outcomes_fp,
        }
        design = spec.regions
        if design.kind == "grid" and design.bounds is None:
            box = Rect.bounding(state.coords)
            parts["bbox"] = repr(
                (box.min_x, box.min_y, box.max_x, box.max_y)
            )
        if spec.family == "poisson":
            parts["forecast"] = state.digest("forecast")
        if spec.family == "multinomial":
            parts["n_classes"] = (
                "none"
                if state.n_classes is None
                else str(state.n_classes)
            )
        return combine_fingerprints(parts)

    def _execute(self, batch: list) -> None:
        """Run one drained batch against the session's current data:
        cache lookups, deduplication, resolution, fused group passes,
        ticket resolution.  Called under ``_gather_lock``."""
        # Tickets sharing a cache key this batch compute once; the
        # list is shared by reference, so late duplicates of a
        # not-yet-finished representative join its resolution.
        peers: dict = {}
        groups: "OrderedDict[tuple, list]" = OrderedDict()
        for ticket in batch:
            spec = ticket.spec
            try:
                key = self._report_key(spec)
            except Exception as exc:  # the measure is per-spec
                self._finish([ticket], None, error=exc)
                continue
            if key is not None:
                with self._lock:
                    cached = self._cache.get(key)
                    if cached is not None:
                        self._cache.move_to_end(key)
                        self._cache_hits += 1
                        self._completed += 1
                    else:
                        self._cache_misses += 1
                if cached is not None:
                    # Outside the lock: a ticket's _resolve may journal it.
                    ticket._cache_hit = True
                    ticket._resolve(report=cached)
                    continue
                if key in peers:
                    peers[key].append(ticket)
                    continue
                peers[key] = [ticket]
            tickets = peers.get(key, [ticket])
            try:
                resolved = self.session.resolve(spec)
            except Exception as exc:  # resolution is per-spec
                peers.pop(key, None)
                self._finish(tickets, key, error=exc)
                continue
            groups.setdefault(self._group_key(resolved), []).append(
                (tickets, key, resolved)
            )
        for members in groups.values():
            self._run_group(members)

    def _run_group(self, members: list) -> None:
        """One fused pass: simulate the group's worlds once, score all
        member designs, assemble per-spec reports."""
        resolutions = [r for _, _, r in members]
        first = resolutions[0]
        spec0 = first.spec
        # Each member's effective request is its explicit workers if
        # set, else the session default; the fused pass runs at the
        # max of those so no member is slowed below what it asked for.
        # (Worker count is a pure performance knob — results are
        # bit-identical at any value — so taking the max is safe.)
        effective = [
            r.spec.workers
            if r.spec.workers is not None
            else self.session.workers
            for r in resolutions
        ]
        requested = [w for w in effective if w is not None]
        workers = max(requested) if requested else None
        adaptive: dict = {}
        if spec0.budget.is_adaptive:
            # Each segment stops on its own (observed max, alpha); the
            # simulated world stream is unaffected, so fused adaptive
            # reports stay bit-identical to solo adaptive runs.
            observed_maxes = []
            for r in resolutions:
                obs = FAMILIES[r.spec.family].observed(
                    r.bound, r.member, _parse_direction(r.spec.direction)
                )
                observed_maxes.append(
                    float(obs.llr.max()) if len(obs.llr) else 0.0
                )
            adaptive = {
                "budget": spec0.budget,
                "observed_maxes": observed_maxes,
                "alphas": [float(r.spec.alpha) for r in resolutions],
            }
        try:
            fault_point("serve.run_group")
            nulls = first.engine.null_distribution_multi(
                [r.member for r in resolutions],
                first.kernel,
                spec0.n_worlds,
                seed=spec0.seed,
                workers=workers,
                **adaptive,
            )
        except Exception as exc:  # group-level failure fails members
            for tickets, key, _ in members:
                self._finish(tickets, key, error=exc)
            return
        # One critical section for the whole group's accounting, so a
        # concurrent stats() can never see the group counted with its
        # specs (or worlds) still missing.
        with self._lock:
            self._fused_groups += 1
            for tickets, _, resolved in members:
                self._fused_specs += len(tickets)
                self._worlds_requested += (
                    resolved.spec.n_worlds * len(tickets)
                )
        for (tickets, key, resolved), null_max in zip(members, nulls):
            try:
                report = self.session._run_resolved(resolved, null_max)
            except Exception as exc:
                self._finish(tickets, key, error=exc)
                continue
            self._finish(tickets, key, report=report)

    def _finish(
        self,
        tickets: list,
        key: str | None,
        report: AuditReport | None = None,
        error: Exception | None = None,
    ) -> None:
        """Resolve a representative's tickets, caching successful
        seeded reports under their report key."""
        with self._lock:
            if report is not None and key is not None:
                self._cache[key] = report
                self._cache.move_to_end(key)
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
            if error is not None:
                self._errors += len(tickets)
            else:
                self._completed += len(tickets)
        for ticket in tickets:
            ticket._resolve(report=report, error=error)

    # -- continuous audits over streaming data -------------------------

    def watch(self, specs: Sequence[AuditSpec] | AuditSpec) -> int:
        """Register specs for continuous auditing.

        Watched specs are re-evaluated by every :meth:`advance`; a
        spec already watched (same
        :meth:`~repro.spec.AuditSpec.spec_hash`) is not added twice.

        Parameters
        ----------
        specs : AuditSpec or sequence of AuditSpec

        Returns
        -------
        int
            The number of specs now watched.
        """
        if isinstance(specs, AuditSpec):
            specs = [specs]
        for spec in specs:
            self.session._check_spec(spec)
        with self._lock:
            known = {s.spec_hash() for s in self._watched}
            for spec in specs:
                if spec.spec_hash() not in known:
                    known.add(spec.spec_hash())
                    self._watched.append(spec)
            return len(self._watched)

    def unwatch(self, spec: AuditSpec | None = None) -> int:
        """Stop watching a spec (or, with ``None``, all of them).

        Parameters
        ----------
        spec : AuditSpec, optional

        Returns
        -------
        int
            The number of specs removed.
        """
        with self._lock:
            before = len(self._watched)
            if spec is None:
                self._watched = []
            else:
                target = spec.spec_hash()
                self._watched = [
                    s for s in self._watched if s.spec_hash() != target
                ]
            return before - len(self._watched)

    def watched(self) -> list:
        """The currently watched specs, in registration order."""
        with self._lock:
            return list(self._watched)

    def advance(
        self,
        coords=None,
        outcomes=None,
        *,
        y_true=None,
        forecast=None,
        timestamps=None,
        window: float | None = None,
        older_than: float | None = None,
        evict_mask=None,
    ) -> list:
        """One streaming step: ingest arrivals, slide the window,
        re-audit what changed.

        Appends the given batch (if any) as
        :meth:`AuditSession.append <repro.api.AuditSession.append>`
        would, applies at most one eviction selector as
        :meth:`~repro.api.AuditSession.evict` would, then submits
        every watched spec and gathers them as one batch.  A seeded
        spec whose measured data slice the event left untouched is
        answered by the report cache (its key covers exactly that
        slice); the rest run fused over the session's incrementally
        maintained caches.  Reports are bit-identical to cold audits
        of the post-event dataset either way.  The step holds the
        gather lock, so it never mutates the session under another
        thread's in-flight gather.

        Hashing: only the state the step ends in is hashed, and only
        as far as the watched specs' report keys need it — each
        measured slice once, however many watched specs share it.

        The whole step is validated before anything changes: an
        advance that raises leaves the session as it found it.

        Parameters
        ----------
        coords, outcomes, y_true, forecast, timestamps
            The newly arrived batch, as in
            :meth:`repro.api.AuditSession.append`; omit ``coords`` to
            advance without arrivals.
        window : float, optional
            Sliding time window passed to ``evict(window=...)``.
        older_than : float, optional
            Age cutoff passed to ``evict(older_than=...)``.
        evict_mask : bool ndarray, optional
            Explicit eviction mask passed to ``evict(mask)``.

        Returns
        -------
        list of AuditReport
            One report per watched spec, in registration order.
        """
        if coords is None:
            arrivals = {
                "outcomes": outcomes,
                "y_true": y_true,
                "forecast": forecast,
                "timestamps": timestamps,
            }
            for name, value in arrivals.items():
                if value is not None:
                    raise ValueError(
                        f"advance: {name} given without coords — "
                        "arrivals need their locations"
                    )
        elif outcomes is None:
            raise ValueError(
                "advance: outcomes are required when appending points"
            )
        selectors = (evict_mask, older_than, window)
        n_selectors = sum(x is not None for x in selectors)
        if n_selectors > 1:
            raise ValueError(
                "advance: pass at most one of evict_mask, older_than "
                "or window"
            )
        evicting = n_selectors == 1
        session = self.session
        with self._gather_lock:
            batch = None
            n = len(session.coords)
            if coords is not None:
                batch = session._check_batch(
                    coords, outcomes, y_true, forecast, timestamps
                )
                n += len(batch[0])
            if evicting:
                session._check_selector(n, *selectors)
            with self._lock:
                self._advances += 1
            if batch is not None:
                session._append(*batch)
            if evicting:
                session._evict(session._evict_keep(*selectors))
            tickets = [self.submit(spec) for spec in self.watched()]
            self._drain()
        skips = sum(ticket._cache_hit for ticket in tickets)
        with self._lock:
            self._stream_skips += skips
            self._stream_runs += len(tickets) - skips
        return [ticket.result() for ticket in tickets]

    # -- cache control & observability ---------------------------------

    def invalidate(self, spec: AuditSpec | None = None) -> int:
        """Drop cached reports.

        Parameters
        ----------
        spec : AuditSpec, optional
            Evict this spec's cached report against the session's
            *current* data (matched by its report key — the
            :meth:`~repro.spec.AuditSpec.spec_hash` plus the measured
            slice's fingerprint — so the worker count is irrelevant).
            ``None`` clears the whole cache, entries for earlier
            dataset contents included.

        Returns
        -------
        int
            Number of reports evicted.

        Raises
        ------
        ValueError
            When the session cannot serve the spec's measure.
        """
        key = None if spec is None else self._report_key(spec)
        with self._lock:
            if spec is None:
                evicted = len(self._cache)
                self._cache.clear()
                return evicted
            if key is None:
                return 0
            return 1 if self._cache.pop(key, None) is not None else 0

    def pending(self) -> int:
        """Specs submitted but not yet gathered."""
        with self._lock:
            return len(self._pending)

    def stats(self) -> dict:
        """Service counters, for dashboards and benchmark assertions.

        The snapshot is consistent: every counter is read — and, on
        the hot paths, written — under the service lock, so a reading
        thread can never observe a torn view (e.g. ``fused_specs``
        ahead of ``fused_groups``) while a gather or advance runs on
        another thread.

        Returns
        -------
        dict
            ``submitted``, ``completed``, ``errors``, ``pending``,
            ``fused_groups`` / ``fused_specs`` (groups executed and
            specs they covered), ``worlds_requested`` (sum of executed
            specs' budgets) vs ``worlds_simulated`` (worlds the
            session's engines actually drew — the amortisation),
            ``report_cache_hits`` / ``report_cache_misses`` /
            ``report_cache_size``, the session's ``index_builds`` and
            ``incremental_builds``, and the continuous-audit counters
            ``watched`` / ``advances`` / ``stream_runs`` /
            ``stream_skips`` (watched-spec evaluations the report
            cache answered, counted among the report cache hits).
        """
        with self._lock:
            return {
                "submitted": self._submitted,
                "completed": self._completed,
                "errors": self._errors,
                "pending": len(self._pending),
                "fused_groups": self._fused_groups,
                "fused_specs": self._fused_specs,
                "worlds_requested": self._worlds_requested,
                "worlds_simulated": self.session.worlds_simulated,
                "report_cache_hits": self._cache_hits,
                "report_cache_misses": self._cache_misses,
                "report_cache_size": len(self._cache),
                "index_builds": self.session.index_builds,
                "incremental_builds": self.session.incremental_builds,
                "watched": len(self._watched),
                "advances": self._advances,
                "stream_runs": self._stream_runs,
                "stream_skips": self._stream_skips,
            }
