"""Shared parallel Monte Carlo engine for the scan auditors.

The audit's cost is dominated by the M x N x Q world loop (simulate a
null world, recount every region, take the max statistic).  This
module holds that loop once for every auditor:

* :class:`MonteCarloEngine` runs null passes: world simulation,
  chunking, the sparse membership mat-vec recount and an optional
  thread pool (``workers=N``).  It holds no coordinates: each pass is
  handed the membership indexes it scores, which its callers own.
  There is one simulation pass and one entry point,
  :meth:`MonteCarloEngine.null_distribution_multi`, which scores each
  world batch against one or more designs (a solo audit is the
  one-design case) and is called by :func:`repro.core._scan_group`
  alone;
* the per-family statistics plug in as :class:`LLRKernel` subclasses —
  :class:`BernoulliKernel` (binary outcomes), :class:`PoissonKernel`
  (observed vs forecast counts), :class:`MultinomialKernel`
  (categorical outcomes).

Region-level worlds
-------------------
The null keeps locations fixed and redraws outcomes independently of
location, so when no point lies in two regions of a design
(:attr:`repro.index.RegionMembership.disjoint`) a world's per-region
counts have a closed form.  A kernel bound to such a design simulates
one count per *unit* — the ``R`` regions, then one remainder unit for
the points in no region — and scores the region rows directly, with
no recount: ``Binomial(n_r, rate)`` per unit for Bernoulli outcomes,
``Multinomial(n_r, class_p)`` per unit for categorical ones, and one
multinomial of the observed total over the units' summed forecasts for
Poisson counts.  The draw is exact in distribution, and is chosen from
the data alone: no option selects it.

A Bernoulli unit's count comes from a Walker alias table of its
binomial, one row per distinct unit size, laid end to end
(:func:`_binomial_rows`, :func:`_alias_table`): one uniform per unit
and world gives a column of the unit's row and a coin, as in the
Poisson points draw below.  A row keeps the outcomes whose weight is at
least ``2**-64`` of the mode's, below the ``2**-53`` resolution of the
uniform, so a design over ``N`` points holds at most ``N + R + 1``
table entries.  Its weights come from the mode by the ratio recurrence
``P(k + 1) / P(k) = (n - k) p / ((k + 1) q)``, products and quotients
alone, so the table's bits do not depend on numpy's SIMD dispatch.

Poisson points draw
-------------------
On the points path a Poisson world redistributes the observed total
``O`` over the ``K`` areas in proportion to their forecasts.  The
kernel picks one of two exact draws from ``O`` and ``K`` alone.  When
``O <= 3 * K`` it draws the world's events one by one from a Walker
alias table of the area probabilities: one uniform per event gives
its column (the integer part of ``u * K``) and its coin (the
fraction), one gather from an interleaved table gives its area, and
``np.bincount`` counts the events per area, in O(1) per event.  The
table is built by the first points pass that draws events and shared
by every kernel of one bound dataset state, so a run of audits over
one state builds it once.  Above ``3 * K`` it keeps ``rng.multinomial``,
one conditional binomial per area, so a world costs O(K) however
large the total.  Each event of the alias draw is an independent
categorical draw, so both give exactly ``Multinomial(O, probs)``.
Measured at 1k to 200k areas (numpy 2.4, 2-core x86 box), the two
cost the same at 2.5 to 4.5 events per area; the alias draw is 2 to 4
times faster at 0.5 events per area, and its cost keeps growing with
the total where the multinomial's levels off.

Determinism contract
--------------------
One simulation pass of ``n_worlds`` worlds from a
:class:`numpy.random.SeedSequence` ``parent`` (``SeedSequence(seed)``
for a fixed budget, one round's seed for an adaptive one) runs

* one **region-level** pass per disjoint design, whose chunks draw
  from the children of an unspawned copy of ``parent`` and whose
  layout depends only on ``(R + 1, n_worlds)``;
* one **points** pass over every other design, stacked, whose chunks
  draw from ``parent.spawn(...)`` and whose layout depends only on
  ``(kernel.chunk_points, n_worlds)``.

Neither depends on the worker count or on the design's companions in
a fused group, so the null distribution (hence verdicts, critical
values and significant-region sets) is bit-identical serial or
threaded, fused or solo, and streamed or cold.

Counting and scoring
--------------------
A kernel splits scoring in two: :meth:`LLRKernel.count` turns one
chunk's worlds into per-region sums and per-world totals (the region
rows of a region-level batch, ``M @ worlds`` on the points path), and
:meth:`LLRKernel.llr` scores counts.  Each chunk is simulated and
counted on its own; the counts of a *block* of consecutive chunks —
at most :data:`_BLOCK_ENTRIES` region x world entries — are laid side
by side, and the LLR and the per-segment maxima run once per block.
The statistic is elementwise per world, so the block layout changes
no bit, and a pass's memory stays bounded at any ``n_worlds``.

Parallel path
-------------
``workers >= 2`` simulates and counts the chunks on a
:class:`concurrent.futures.ThreadPoolExecutor` of at most
``min(workers, chunks, usable cores)`` threads; the LLR then runs once
per block on the calling thread.  The heavy steps — numpy's random
fills (``random``, ``multinomial``), its elementwise passes (the
alias draws' table gathers) and scipy's
sparse mat-vec — release the GIL for most of their run, so the threads
overlap on separate cores; ``np.bincount`` holds it for part of its
run.  Every thread reads the same bound kernel
and membership matrix, and the pool hands each chunk's counts back in
chunk order, so nothing is pickled or locked, and no process is
forked.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from functools import partial

import numpy as np

from . import kernels
from .budget import BudgetPolicy, round_sizes, sequential_decision
from .fingerprint import array_fingerprint
from .index import RegionMembership, StackedMembership

__all__ = [
    "MonteCarloEngine",
    "LLRKernel",
    "BernoulliKernel",
    "PoissonKernel",
    "MultinomialKernel",
    "world_chunk_size",
]

#: Tolerance matching :func:`repro.core._assemble`'s exceedance count,
#: so adaptive stopping and the final p-value agree on what "reaches
#: the observed maximum" means.
_EXCEED_TOL = 1e-12

#: Worlds simulated per chunk aim to keep the (points x worlds) batch
#: near this many matrix entries (~200 MB of float64 intermediates).
_CHUNK_ENTRIES = 2.5e7

#: Lower bound on worlds per chunk: below this the sparse mat-vec loses
#: its batching advantage.
_MIN_CHUNK = 8

#: Upper bound on the number of chunks a run is split into (memory
#: permitting); keeps per-chunk overhead negligible while leaving
#: enough chunks for a pool of threads to balance.
_TARGET_CHUNKS = 16

#: Region x world count entries scored at once: a pass runs its LLR
#: and per-world maxima once per block of consecutive chunks holding
#: at most this many entries, so its memory stays bounded at any
#: ``n_worlds``.
_BLOCK_ENTRIES = 2**20

#: Events drawn at once by the Poisson alias draw: one world's uniforms
#: are filled in pieces of at most this many, so its memory stays
#: bounded at any observed total.
_ALIAS_EVENTS = 2**20

#: Largest mean events per area the Poisson points pass draws from its
#: alias table.  The alias draw costs one uniform per event and
#: ``rng.multinomial`` one binomial per area; they cost the same near
#: 3 events per area (2.5 to 4.5 measured at 1k to 200k areas with
#: numpy 2.4 on a 2-core x86 box), so above it the pass keeps the
#: multinomial, whose cost does not grow with the total.
_ALIAS_EVENTS_PER_AREA = 3

#: Smallest weight, relative to the mode's, that a row of a Bernoulli
#: unit's binomial alias table keeps: below the ``2**-53`` resolution
#: of a uniform double, so a dropped outcome could barely be drawn.
_BINOMIAL_TRIM = 2.0**-64


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity set where the
    platform reports one, else :func:`os.cpu_count`."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def world_chunk_size(n_points: int, n_worlds: int) -> int:
    """Worlds per simulation chunk.

    A pure function of the workload — never of the worker count — so
    the chunk layout (and with it the per-chunk random streams) is
    identical for serial and parallel runs.

    Parameters
    ----------
    n_points : int
        Entries per simulated world column (``n`` points, or ``n * K``
        for a K-class multinomial world).
    n_worlds : int
        Total world budget.

    Returns
    -------
    int
        Chunk size in worlds, at least ``min(n_worlds, 8)``.
    """
    n_worlds = int(n_worlds)
    memory_cap = int(_CHUNK_ENTRIES / max(int(n_points), 1)) + 1
    fan_out = -(-n_worlds // _TARGET_CHUNKS)  # ceil division
    size = max(_MIN_CHUNK, min(memory_cap, max(fan_out, _MIN_CHUNK)))
    return max(1, min(n_worlds, size))


class LLRKernel:
    """One outcome family's Monte Carlo statistics.

    A kernel knows how to *simulate* a batch of null worlds, how to
    *count* a batch into per-region sums, and how to score counts with
    the family's log-likelihood ratio (:meth:`llr`).  The engine
    supplies chunking, seeding, blocking and parallelism around it.  Once bound, a kernel is only read, so
    pool threads may count chunks through it concurrently.

    Subclasses implement :meth:`simulate`, :meth:`count`, :meth:`llr`,
    :attr:`chunk_points` and :meth:`cache_key`, and may extend
    :meth:`bind` to precompute member-dependent arrays.
    """

    #: Family tag used in fusion keys and reprs.
    family = "base"

    def __init__(self) -> None:
        self._member: RegionMembership | None = None
        self._units: np.ndarray | None = None
        # The draw tables' slot; a family's kernel swaps in its bound
        # state's, so kernels of one state share their tables.
        self._tables: dict = {}

    def bind(self, member: RegionMembership) -> "LLRKernel":
        """Attach the membership index the scores will be counted
        through.  Called once by the engine before the chunk loop.

        A disjoint ``member`` switches the kernel to region-level
        worlds (see the module docstring): :meth:`simulate` then draws
        one row per unit and :meth:`count` reads the region rows
        without a recount.

        Parameters
        ----------
        member : RegionMembership

        Returns
        -------
        LLRKernel
            ``self``, for chaining.
        """
        self._member = member
        self._units = None
        if member.disjoint:
            counts = member.counts
            self._units = np.append(counts, member.n_points - counts.sum())
        return self

    @property
    def member(self) -> RegionMembership:
        """The bound membership index (raises if unbound)."""
        if self._member is None:
            raise RuntimeError(
                f"{type(self).__name__} must be bound to a "
                "RegionMembership before scoring"
            )
        return self._member

    @property
    def chunk_points(self) -> int:
        """Matrix entries per simulated world column (drives chunking)."""
        raise NotImplementedError

    def cache_key(self) -> tuple:
        """Hashable key of everything that shapes the simulated null
        worlds besides ``(n_worlds, seed)``.  Specs whose kernels have
        equal keys can share one simulation pass; the fusion grouping
        of :class:`repro.serve.AuditService` reads it."""
        raise NotImplementedError

    def simulate(self, rng: np.random.Generator, n_worlds: int) -> np.ndarray:
        """Draw a batch of null worlds.

        Parameters
        ----------
        rng : numpy.random.Generator
            The chunk's private generator.
        n_worlds : int
            Worlds in this chunk.

        Returns
        -------
        ndarray
            World batch with worlds along axis 1; the exact layout is
            the kernel's own (``count`` must understand it).  On the
            points path the Bernoulli and Poisson kernels return the
            C-contiguous float64 ``(n_points, n_worlds)`` operand of
            the recount, and the multinomial kernel returns class
            labels.  Bound to a disjoint design, each kernel returns
            float64 counts with one row per unit: ``(R + 1, n_worlds)``,
            or ``(R + 1, n_worlds, K)`` per class.
        """
        raise NotImplementedError

    def count(self, worlds: np.ndarray) -> tuple:
        """The per-region sums a world batch is scored from.

        Parameters
        ----------
        worlds : ndarray
            A batch returned by :meth:`simulate`.

        Returns
        -------
        tuple of ndarray
            The family's count arrays, each with worlds on its last
            axis, so the engine can lay several chunks' counts side by
            side and score them at once with :meth:`llr`.
        """
        raise NotImplementedError

    def llr(self, counts: tuple) -> np.ndarray:
        """Log-likelihood ratio of every region in every world.

        Parameters
        ----------
        counts : tuple of ndarray
            :meth:`count` of a batch, or several batches' counts joined
            along the world axis.  The statistic is elementwise per
            world, so the join changes no value.

        Returns
        -------
        ndarray of shape (n_regions, n_worlds)
        """
        raise NotImplementedError

    def _region_counts(self, worlds: np.ndarray) -> np.ndarray:
        """Per-region sums of a world batch: the region rows of a
        region-level batch, else the recount through the membership."""
        if self._units is not None:
            return worlds[:-1]
        return self.member.positive_counts_batch(worlds)


class BernoulliKernel(LLRKernel):
    """Null worlds for binary outcomes: labels redrawn i.i.d. Bernoulli
    at the global positive rate, locations fixed (the paper's SUL null).

    On a disjoint design each unit's positive count is one
    ``Binomial(n_r, rate)`` draw from a Walker alias table, and a
    world's global total is the sum over units.  The table holds one
    row per distinct unit size (:func:`_binomial_rows`), laid end to
    end with no padding; a chunk takes one ``rng.random((R + 1, w))``,
    and each uniform ``u`` of unit ``r`` gives the column
    ``floor(u * width_r)`` of the unit's row and the coin (the
    fraction), which picks the column's own count or its alias, as in
    :meth:`PoissonKernel._alias_worlds`.  No double below 1 reaches
    ``u * width_r == width_r``, so a row needs no sentinel.  The table
    is built when the kernel is bound to the design, on the calling
    thread, and cached in the table slot, keyed by the unit sizes'
    bytes: :meth:`repro.core.BernoulliFamily.kernel` hands every kernel
    of one bound state that state's slot, so audits of one dataset
    state build a design's table once.  Two threads that race to build
    it compute the same bytes, so the slot needs no lock.

    Parameters
    ----------
    n_points : int
        Total observations ``N``.
    total_p : float
        Global positive count ``P``; the simulation rate is ``P / N``.
    direction : {0, 1, -1}, default 0
        Directional scan filter, as in :func:`repro.stats.bernoulli_llr`.
    """

    family = "bernoulli"

    def __init__(self, n_points: int, total_p: float, direction: int = 0):
        super().__init__()
        self.n_points = int(n_points)
        self.total_p = float(total_p)
        self.rate = self.total_p / max(self.n_points, 1)
        self.direction = int(direction)
        self._n: np.ndarray | None = None
        self._table: tuple | None = None

    def bind(self, member: RegionMembership) -> "BernoulliKernel":
        super().bind(member)
        self._n = member.counts.astype(np.float64)
        # Built here, on the calling thread, before pool threads draw
        # from it.
        self._table = None if self._units is None else self._draw_table()
        return self

    def _draw_table(self) -> tuple:
        """``(width, offset, keep, pair)``: each unit's row width (float
        column) and offset (intp column) into the flat alias table of
        its ``Binomial(n_r, rate)``, and the table laid out for one
        gather per draw: ``pair[2c]``, ``pair[2c+1]`` are column ``c``'s
        alias count and its own count, as float64."""
        key = self._units.tobytes()
        table = self._tables.get(key)
        if table is None:
            sizes, row = np.unique(self._units, return_inverse=True)
            first, widths, weights = _binomial_rows(sizes, self.rate)
            keep, alias = _alias_table(weights, widths)
            offsets = np.cumsum(widths) - widths
            counts = np.repeat(first - offsets, widths) + np.arange(
                len(weights), dtype=np.float64
            )
            table = (
                widths[row, None].astype(np.float64),
                offsets[row, None],
                keep,
                np.stack([counts[alias], counts], axis=1).ravel(),
            )
            for arr in table:
                arr.flags.writeable = False
            self._tables[key] = table
        return table

    @property
    def chunk_points(self) -> int:
        return self.n_points

    def cache_key(self) -> tuple:
        return (self.family, self.n_points, self.total_p, self.direction)

    def simulate(self, rng: np.random.Generator, n_worlds: int) -> np.ndarray:
        if self._units is not None:
            width, offset, keep, pair = self._table
            u = rng.random((len(self._units), n_worlds))
            return _alias_draw(u, width, keep, pair, offset)
        return (
            rng.random((self.n_points, n_worlds)) < self.rate
        ).astype(np.float64)

    def count(self, worlds: np.ndarray) -> tuple:
        return self._region_counts(worlds), _world_totals(worlds)

    def llr(self, counts: tuple) -> np.ndarray:
        world_p, world_P = counts
        return kernels.bernoulli_llr_batch(
            self._n, world_p, float(self.n_points), world_P, self.direction
        )


class PoissonKernel(LLRKernel):
    """Null worlds for observed-vs-forecast counts: the observed event
    total redistributed over areas with probabilities proportional to
    the (scaled) forecast — the conditional multinomial simulation that
    makes the Poisson scan exact given the total.

    On the points path, when ``total_obs_int`` is at most
    ``_ALIAS_EVENTS_PER_AREA`` (3) events per area, each world's events
    are drawn one by one from a Walker alias table of the area
    probabilities (:func:`_alias_table`): one
    ``rng.random(total_obs_int)`` per world, in world order, whose
    ``u * K`` gives each event's column ``c`` (the integer part) and
    coin (the fraction).  The event's area is one gather,
    ``pair[2*c + (coin < keep[c])]``, from a table interleaving each
    column's alias (``pair[2c]``) with the column itself
    (``pair[2c+1]``), and ``np.bincount`` counts the events per area.
    A sentinel column ``K`` with ``keep`` 0 takes the last column's
    alias, so a ``u * K == K`` event needs no clamp.  Each event is an
    independent categorical draw, so a world is exactly
    ``Multinomial(total_obs_int, probs)``, in O(1) per event.
    Zero-forecast areas are never drawn.  Larger totals are drawn by
    one ``rng.multinomial`` per world, one conditional binomial per
    area, so a world never costs more than O(K) whatever the total.
    Worlds are float64 counts, exact up to ``2**53`` per area, so every
    world holds exactly ``total_obs_int`` events.

    The table is built on the kernel's first points pass that draws
    events, on the calling thread.  It depends on the probabilities
    alone, so :meth:`repro.core.PoissonFamily.kernel` hands every
    kernel of one bound state the same table slot: audits of one
    dataset state build it once.  Two threads that race to build it
    compute the same bytes, so the slot needs no lock.

    On a disjoint design the total is redistributed over the units
    instead, by one ``rng.multinomial`` per world with probabilities
    ``exp_r / total_obs`` per region and the rest (clipped at 0) on
    the remainder unit.

    Parameters
    ----------
    expected : ndarray of shape (n_points,)
        Per-area expected counts, already scaled so they sum to the
        observed total.
    total_obs : float
        Total observed events ``O``.
    direction : {0, 1, -1}, default 0
        +1 hunts excess regions, -1 deficits.
    """

    family = "poisson"

    def __init__(
        self, expected: np.ndarray, total_obs: float, direction: int = 0
    ):
        super().__init__()
        self.expected = np.asarray(expected, dtype=np.float64).ravel()
        self.total_obs = float(total_obs)
        self.total_obs_int = int(round(self.total_obs))
        # With no observed events every world is empty: the zero
        # expectations stand in for the probabilities of drawing none.
        self._scale = self.total_obs if self.total_obs > 0 else 1.0
        self.probs = self.expected / self._scale
        self.direction = int(direction)
        self._exp_r: np.ndarray | None = None
        self._unit_probs: np.ndarray | None = None

    def bind(self, member: RegionMembership) -> "PoissonKernel":
        super().bind(member)
        self._exp_r = member.positive_counts(self.expected)
        if self._units is not None:
            probs = self._exp_r / self._scale
            self._unit_probs = np.append(probs, max(1.0 - probs.sum(), 0.0))
        elif self._draws_events():
            # Built here, on the calling thread, before pool threads
            # draw from it.
            self._draw_table()
        return self

    def _draws_events(self) -> bool:
        """Whether the points pass draws from the alias table: a
        positive total of at most ``_ALIAS_EVENTS_PER_AREA`` events per
        area."""
        return (
            0 < self.total_obs_int
            <= _ALIAS_EVENTS_PER_AREA * len(self.expected)
        )

    def _draw_table(self) -> tuple:
        """``(keep, pair)``: the alias table of :attr:`probs` laid out
        for one gather per event, built on first use.  ``keep`` gains a
        sentinel column ``K`` that keeps 0, and ``pair[2c]``,
        ``pair[2c+1]`` are column ``c``'s alias and ``c`` itself; both
        of the sentinel's entries are the last column's alias."""
        table = self._tables.get("alias")
        if table is None:
            keep, alias = _alias_table(self.probs)
            last = alias[-1:]
            own = np.append(np.arange(len(alias)), last)
            pair = np.stack([np.append(alias, last), own], axis=1).ravel()
            table = (np.append(keep, 0.0), pair)
            for arr in table:
                arr.flags.writeable = False
            self._tables["alias"] = table
        return table

    @property
    def chunk_points(self) -> int:
        return len(self.expected)

    def cache_key(self) -> tuple:
        digest = array_fingerprint(self.expected)
        return (self.family, self.total_obs_int, digest, self.direction)

    def simulate(self, rng: np.random.Generator, n_worlds: int) -> np.ndarray:
        if self._units is None and self._draws_events():
            return self._alias_worlds(rng, n_worlds)
        probs = self.probs if self._units is None else self._unit_probs
        draws = rng.multinomial(self.total_obs_int, probs, size=n_worlds)
        return np.ascontiguousarray(draws.T, dtype=np.float64)

    def _alias_worlds(
        self, rng: np.random.Generator, n_worlds: int
    ) -> np.ndarray:
        """``n_worlds`` points-pass worlds drawn event by event from the
        alias table."""
        n_areas = len(self.expected)
        worlds = np.empty((n_areas, n_worlds))
        keep, pair = self._draw_table()
        for j in range(n_worlds):
            # Consecutive fills continue one stream, so bounding the
            # piece only bounds the memory of a large total.
            for start in range(0, self.total_obs_int, _ALIAS_EVENTS):
                u = rng.random(min(_ALIAS_EVENTS, self.total_obs_int - start))
                counts = np.bincount(
                    _alias_draw(u, n_areas, keep, pair), minlength=n_areas
                )
                if start:
                    worlds[:, j] += counts
                else:
                    worlds[:, j] = counts
        return worlds

    def count(self, worlds: np.ndarray) -> tuple:
        return (self._region_counts(worlds),)

    def llr(self, counts: tuple) -> np.ndarray:
        (world_obs,) = counts
        return kernels.poisson_llr_batch(
            world_obs,
            self._exp_r,
            self.total_obs,
            direction=self.direction,
        )


def _alias_draw(
    u: np.ndarray,
    width: int | np.ndarray,
    keep: np.ndarray,
    pair: np.ndarray,
    offset: np.ndarray | None = None,
) -> np.ndarray:
    """The alias draws of the uniforms ``u``, which it overwrites.

    Each uniform picks a column of a table of ``width`` columns that
    starts at ``offset`` (both broadcast against ``u``; one table from
    column 0 when ``offset`` is None): the integer part of
    ``u * width`` is the column ``c`` and the fraction the coin, and
    the draw is ``pair[2c + (coin < keep[c])]``, the column's own
    outcome on heads, its alias's otherwise.
    """
    u *= width
    col = u.astype(np.intp)
    u -= col
    if offset is not None:
        col += offset
    heads = u < keep[col]
    col += col
    col += heads
    return pair[col]


def _alias_table(
    probs: np.ndarray, widths: np.ndarray | None = None
) -> tuple:
    """Walker's alias tables of categorical distributions laid end to
    end: ``(keep, alias)``, built by Vose's pairing without a Python
    loop.

    A draw from row ``r`` takes a column ``j`` of the row uniformly and
    keeps it with probability ``keep[j]``, else takes ``alias[j]``, a
    column of the same row.  In units of the row's mean probability,
    the columns below 1 (*smalls*) keep their own mass and take the
    current large as their alias, in index order; the current large
    gives up each small's deficit, and once it falls below 1 it passes
    its own deficit on to the next large of the row, which becomes
    current.  So small ``i``'s alias is the first large whose
    cumulative excess reaches the smalls' cumulative deficit before
    ``i``.  Each large then keeps 1 less the deficit it passes on, a
    running balance of its smalls' deficits against its excess that
    stays in ``[0, 1]``, so the implied masses carry no rounding of
    the cumulative sums.  Nothing aliases to a small, so a
    zero-probability column (a small that keeps 0) is never drawn.

    The rows share one pass: the cumulative sums run over every row's
    smalls and larges in turn, each row's smalls are matched against
    the larges' sums shifted by the gap between the two sums at the
    row's start, and each small's match is clamped to its own row's
    larges.  One row is exactly the single-table pairing.

    Parameters
    ----------
    probs : ndarray of shape (K,)
        Non-negative probabilities, each row with a positive sum
        (normalised here).
    widths : ndarray of int, optional
        Columns per row, in order, each at least 1; default one row of
        all ``K``.

    Returns
    -------
    keep : ndarray of float64, shape (K,)
    alias : ndarray of intp, shape (K,)
        Flat column indices.
    """
    n = len(probs)
    one_row = widths is None
    if one_row:
        widths = np.array([n])
    starts = np.cumsum(widths) - widths
    # reduceat sums each row in order; a lone row keeps numpy's
    # pairwise sum, as the single table always has.
    totals = probs.sum() if one_row else np.add.reduceat(probs, starts)
    q = probs * np.repeat(widths / totals, widths)
    keep = np.ones(n)
    alias = np.arange(n)
    rows = np.arange(len(widths))
    row = np.repeat(rows, widths)
    below = q < 1.0
    above = ~below
    # A row with no small or no large is full (up to rounding): a
    # uniform draw.
    paired = (np.minimum.reduceat(q, starts) < 1.0) & (
        np.maximum.reduceat(q, starts) >= 1.0
    )
    if not paired.all():
        below &= paired[row]
        above &= paired[row]
    small = np.flatnonzero(below)
    large = np.flatnonzero(above)
    if not len(small):
        return keep, alias
    small_row, large_row = row[small], row[large]
    small_first = np.searchsorted(small_row, rows)
    large_first = np.searchsorted(large_row, rows)
    large_last = np.searchsorted(large_row, rows, side="right") - 1
    deficit = 1.0 - q[small]
    excess = q[large] - 1.0
    spent = np.cumsum(deficit)
    before = spent - deficit
    reached = np.cumsum(excess)
    # Each row's sums as if both started at 0 with the row.
    before -= (
        _sum_before(spent, small_first) - _sum_before(reached, large_first)
    )[small_row]
    current = np.clip(
        np.searchsorted(reached, before),
        large_first[small_row],
        large_last[small_row],
    )
    keep[small] = q[small]
    alias[small] = large[current]
    taken = np.bincount(current, weights=deficit, minlength=len(large))
    passed = np.cumsum(taken - excess)
    passed -= _sum_before(passed, large_first)[large_row]
    inner = np.flatnonzero(large_row[:-1] == large_row[1:])
    keep[large[inner]] = np.clip(1.0 - passed[inner], 0.0, 1.0)
    alias[large[inner]] = large[inner + 1]
    return keep, alias


def _sum_before(cumulative: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The running sum ``cumulative`` just before each row's first
    entry, at index ``first`` (0 for a row that starts the sum)."""
    return np.where(first > 0, cumulative[first - 1], 0.0)


def _binomial_rows(sizes: np.ndarray, rate: float) -> tuple:
    """The kept outcomes of ``Binomial(n, rate)`` for each size ``n``,
    weighted relative to the mode: ``(first, widths, weights)``, the
    first kept outcome and the kept count of each row, and the rows'
    weights laid end to end in the order of ``sizes``.

    A row keeps the outcomes whose weight is at least
    :data:`_BINOMIAL_TRIM` of the mode's; the binomial is log-concave,
    so they are one run of outcomes around the mode.  The weights come
    from the mode ``m = floor((n + 1) p)`` outward by the ratio
    recurrence, ``w(k) = w(k - 1) (n + 1 - k) / k * p / q`` up and
    ``w(k) = w(k + 1) (k + 1) / (n - k) * q / p`` down, each a
    cumulative product of ratios at most 1, so they use products and
    quotients alone.  Past ``n`` (or below 0) a ratio is 0, so a scan
    may run on past a row's outcomes.  Bernstein's inequality bounds
    how far a scan must go: with ``L = 64 ln 2 + ln(n + 1) + 1``, an
    outcome farther than ``L / 3 + sqrt(L**2 / 9 + 2 L n p q)`` from
    ``n p`` has probability below ``exp(-L)``, so weight below
    ``2**-64 / e`` (the mode's probability is at least
    ``1 / (n + 1)``).  Consecutive rows whose scans have lengths within
    a factor of 2 share one block, scanned to its longest row's reach.
    """
    n = sizes.astype(np.float64)
    p, q = float(rate), 1.0 - float(rate)
    mode = np.minimum(np.floor((n + 1.0) * p), n)
    # Only how far the scan reaches depends on the logarithm and root:
    # an outcome past it weighs below the cut, however they round.
    bound = 64.0 * np.log(2.0) + np.log1p(n) + 1.0
    reach = bound / 3.0 + np.sqrt(bound**2 / 9.0 + 2.0 * bound * n * p * q)
    up = (np.minimum(np.ceil(n * p + reach), n) - mode).astype(np.intp)
    down = (mode - np.maximum(np.floor(n * p - reach), 0.0)).astype(np.intp)
    scale = np.frexp(up + down + 1)[1]
    cuts = np.flatnonzero(scale[1:] != scale[:-1]) + 1
    weights, widths, below = [], [], []
    for rows in np.split(np.arange(len(n)), cuts):
        m, top = mode[rows, None], n[rows, None]
        lo, hi = down[rows].max(), up[rows].max()
        block = np.empty((len(rows), lo + 1 + hi))
        block[:, lo] = 1.0
        if hi:
            k = m + np.arange(1.0, hi + 1.0)
            ratio = top + 1.0 - k
            ratio /= k
            ratio *= p / q
            np.cumprod(ratio, axis=1, out=block[:, lo + 1 :])
        if lo:
            k = m - np.arange(1.0, lo + 1.0)
            ratio = k + 1.0
            ratio /= top - k
            ratio *= q / p
            # Outward from the mode: column lo - 1 holds k = m - 1.
            np.cumprod(ratio, axis=1, out=block[:, lo - 1 :: -1])
        kept = block >= _BINOMIAL_TRIM
        weights.append(block[kept])
        widths.append(kept.sum(axis=1))
        below.append(kept[:, :lo].sum(axis=1))
    widths = np.concatenate(widths)
    first = mode.astype(np.intp) - np.concatenate(below)
    return first, widths, np.concatenate(weights)


class MultinomialKernel(LLRKernel):
    """Null worlds for categorical outcomes: every label redrawn i.i.d.
    from the global class distribution, locations fixed.

    On a disjoint design each unit's class counts are one
    ``Multinomial(n_r, class_p)`` draw, which also spares the per-class
    indicator recount.

    Parameters
    ----------
    n_points : int
        Total observations ``N``.
    class_totals : ndarray of shape (K,)
        Global per-class counts.
    """

    family = "multinomial"

    def __init__(self, n_points: int, class_totals: np.ndarray):
        super().__init__()
        self.n_points = int(n_points)
        self.class_totals = np.asarray(
            class_totals, dtype=np.float64
        ).ravel()
        self.n_classes = len(self.class_totals)
        self._class_p = self.class_totals / self.n_points
        self._cum = np.cumsum(self._class_p)
        self._n: np.ndarray | None = None

    def bind(self, member: RegionMembership) -> "MultinomialKernel":
        super().bind(member)
        self._n = member.counts.astype(np.float64)
        return self

    @property
    def chunk_points(self) -> int:
        # One indicator matrix per class passes through the mat-vec.
        return self.n_points * self.n_classes

    def cache_key(self) -> tuple:
        return (
            self.family,
            self.n_points,
            tuple(float(t) for t in self.class_totals),
        )

    def simulate(self, rng: np.random.Generator, n_worlds: int) -> np.ndarray:
        if self._units is not None:
            size = (n_worlds, len(self._units))
            draws = rng.multinomial(self._units, self._class_p, size=size)
            # (units, w, K) class counts: worlds on axis 1, as below.
            return np.ascontiguousarray(
                draws.transpose(1, 0, 2), dtype=np.float64
            )
        u = rng.random((self.n_points, n_worlds))
        return np.searchsorted(self._cum, u)  # (N, w) int labels < K

    def count(self, worlds: np.ndarray) -> tuple:
        """``(c, C)``: class counts per region ``(K, R, w)`` and per
        world ``(K, w)``.  On the points path one class's indicator
        matrix is recounted at a time, so only one is alive."""
        if self._units is not None:
            return (
                np.moveaxis(worlds[:-1], 2, 0),
                _world_totals(worlds).T,
            )
        c = np.empty((self.n_classes, len(self.member), worlds.shape[1]))
        C = np.empty((self.n_classes, worlds.shape[1]))
        for k in range(self.n_classes):
            ind = (worlds == k).astype(np.float64)
            c[k] = self._region_counts(ind)
            C[k] = _world_totals(ind)
        return c, C

    def llr(self, counts: tuple) -> np.ndarray:
        c, C = counts
        return kernels.multinomial_llr(
            self._n[:, None],
            ((c[k], C[k][None, :]) for k in range(self.n_classes)),
            self.n_points,
        )


def _world_totals(worlds: np.ndarray) -> np.ndarray:
    """Per-world sums over the first axis of a batch, as float64:
    ``(w,)`` for a ``(n_points, w)`` batch, ``(w, K)`` for per-class
    unit counts.

    ``einsum`` walks the C-contiguous batch row by row, where
    ``sum(axis=0)`` strides down each column; a BLAS ``ones @ worlds``
    would be contiguous too, but its thread pool costs more than the
    sum.  World values are integers, so every order gives the same
    exact total below ``2**53``.
    """
    return np.einsum("i...->...", worlds, dtype=np.float64)


def _count_chunk(
    kernel: LLRKernel, chunk: tuple, child: np.random.SeedSequence
) -> tuple:
    """The one chunk job: simulate a chunk from its own seed child and
    count it."""
    worlds = kernel.simulate(np.random.default_rng(child), chunk[1])
    return kernel.count(worlds)


def _blocks(chunks: list, rows: int) -> list:
    """``(first, stop)`` chunk indices of each block of a layout: runs
    of consecutive chunks whose counts hold at most
    :data:`_BLOCK_ENTRIES` region x world entries, one chunk at least."""
    per_block = max(1, _BLOCK_ENTRIES // max(rows * chunks[0][1], 1))
    return [
        (i, min(i + per_block, len(chunks)))
        for i in range(0, len(chunks), per_block)
    ]


def _write_maxima(
    out: np.ndarray,
    llr: np.ndarray,
    start: int,
    width: int,
    segments: list,
) -> None:
    """Reduce one block's (regions, worlds) scores to per-world maxima.

    Each segment — one design's rows of the scored matrix — reduces
    independently into its own row of ``out``.  A solo run is the
    one-segment case.
    """
    for i, (a, b) in enumerate(segments):
        out[i, start : start + width] = llr[a:b].max(axis=0)


class MonteCarloEngine:
    """The shared Monte Carlo null-pass runner.

    Its one entry point, :meth:`null_distribution_multi`, runs one
    simulation pass over one or more designs; every audit, a session's
    or a legacy auditor's, reaches it through
    :func:`repro.core._scan_group`.  The engine holds no data: every
    pass is handed the membership indexes it scores, and the kernel that
    simulates its worlds.  The null keeps locations fixed, so a pass
    needs each design's membership and never the coordinates; callers
    own their memberships (:class:`repro.api.AuditSession` per design
    and measure, a legacy auditor per region set) and build each through
    :meth:`_cold_build`.  Null worlds are simulated afresh on every
    call; a repeated seeded audit is answered without simulation only by
    the report cache of :class:`repro.serve.AuditService`.

    Attributes
    ----------
    index_builds : int
        Membership matrices actually constructed — every
        :meth:`_cold_build` plus every fused stacking of two or more
        designs (:class:`repro.index.StackedMembership`); lets callers
        assert index reuse.  A fused pass over a *single* design skips
        the stacking and scores the member's own matrix, and disjoint
        designs run their own region-level passes, so neither costs a
        build.
    worlds_simulated : int
        Total null worlds simulated.  A fused
        :meth:`null_distribution_multi` pass counts its world budget
        once however many designs it scores (region-level passes
        included), so the counter measures the budgets paid, not the
        draws.  An adaptive pass counts the worlds of the rounds it
        ran.
    """

    def __init__(self):
        self.index_builds = 0
        self.worlds_simulated = 0

    def _cold_build(self, regions, coords: np.ndarray) -> RegionMembership:
        """One cold membership build of ``regions`` over ``coords``.
        Every full build of an audit's index goes through here, so
        ``index_builds`` counts it.

        Parameters
        ----------
        regions : RegionSet
        coords : ndarray of shape (n, 2)

        Returns
        -------
        RegionMembership
        """
        self.index_builds += 1
        return RegionMembership(regions, coords)

    def _fused_member(self, members: list):
        """The scoring operand of a fused pass: ``(member, segments)``.

        A single design is scored through its own matrix with one
        full-span segment — bit-identical to stacking it alone, minus
        the copy.  Two or more designs get a fresh
        :class:`repro.index.StackedMembership`, which constructs a new
        matrix and therefore counts toward ``index_builds``.
        """
        if len(members) == 1:
            member = members[0]
            return member, [(0, len(member))]
        stacked = StackedMembership(members)
        self.index_builds += 1
        return stacked, stacked.segments

    @staticmethod
    def chunk_layout(chunk_points: int, n_worlds: int) -> list:
        """The deterministic ``(start, width)`` chunk spans of a run:
        chunks of :func:`world_chunk_size` worlds, so the layout
        depends on ``(chunk_points, n_worlds)`` alone.

        Parameters
        ----------
        chunk_points : int
            Matrix entries per world column (``kernel.chunk_points``).
        n_worlds : int

        Returns
        -------
        list of (int, int)
        """
        size = world_chunk_size(chunk_points, n_worlds)
        return [
            (start, min(size, n_worlds - start))
            for start in range(0, n_worlds, size)
        ]

    def null_distribution_multi(
        self,
        members: list,
        kernel: LLRKernel,
        n_worlds: int,
        seed: int | None = None,
        workers: int | None = None,
        budget: BudgetPolicy | str | None = None,
        observed_maxes: list | None = None,
        alphas: list | None = None,
    ) -> list:
        """Null max-statistic distributions of one or more region
        designs from **one** simulation pass.

        Simulates ``n_worlds`` null worlds chunk by chunk through
        ``kernel`` and returns, per design, each world's maximum region
        statistic.  The same design at the same integer ``seed`` gets
        bit-identical maxima on every call.

        All designs share the same null model (one ``kernel``).  Each
        disjoint design gets its own region-level pass (see the module
        docstring); every other design's worlds are simulated once and
        scored against the stacked membership matrix of those designs
        (:class:`repro.index.StackedMembership`), and per-design maxima
        are reduced segment by segment.  The chunk layouts and
        per-chunk random streams depend only on ``(kernel, n_worlds,
        seed)`` and the design itself, so every returned distribution
        is **bit-identical** to the one a solo run of that design (the
        one-design case of this method) would produce — fused and
        sequential audits agree exactly.

        Parameters
        ----------
        members : list of RegionMembership
            One membership index per design.  Duplicates (by identity)
            are simulated once, and every entry gets its own copy.
        kernel : LLRKernel
            The shared null model.  Callers must ensure every design in
            the batch really does share it (same family, simulation
            parameters and direction — equal ``kernel.cache_key()``).
        n_worlds : int
            The world budget.
        seed : int, optional
            Master seed; per-chunk streams are spawned from it.  When
            ``None`` the run is unseeded.
        workers : int, optional
            Thread count.  ``>= 2`` runs the chunks on a thread pool,
            anything else serially; the result is bit-identical either
            way.  The pool never grows past the chunk count or the
            usable cores (``os.sched_getaffinity``), so a large request
            cannot oversubscribe the machine.
        budget : BudgetPolicy, str or None, default None
            ``None``/``'fixed'`` simulates exactly ``n_worlds`` worlds
            (bit-identical to every release so far).  An adaptive
            policy (:class:`repro.budget.BudgetPolicy`) runs the
            progressive-round schedule: the group still simulates each
            round **once**, scores every still-undecided design against
            it, and drops designs from the stacked scoring as their
            verdicts settle — per-segment early stopping.  Designs may
            therefore come back with different lengths; the caller
            reads the worlds actually simulated off each one.  Adaptive
            runs are deterministic for a given ``(seed, budget)`` at
            any worker count.
        observed_maxes : list of float, optional
            One observed scan maximum per entry of ``members``, which
            the stopping rule tests against; required when ``budget``
            is adaptive.
        alphas : list of float, optional
            Per-design significance levels the stopping rule settles
            the verdict around (adaptive only; default 0.05); a single
            float is broadcast.

        Returns
        -------
        list of ndarray of float64, shape (m_i,)
            One null max-statistic distribution per entry of
            ``members``, in order; ``m_i == n_worlds`` for fixed
            budgets, ``m_i <= n_worlds`` for adaptive ones.
        """
        n_worlds = int(n_worlds)
        policy = BudgetPolicy.parse(budget)
        if policy.is_adaptive:
            if observed_maxes is None or len(observed_maxes) != len(
                members
            ):
                raise ValueError(
                    "observed_maxes: adaptive budgets need one "
                    "observed scan maximum per design"
                )
            if alphas is None:
                alphas = [0.05] * len(members)
            elif isinstance(alphas, float):
                alphas = [alphas] * len(members)
            return self._adaptive_pass(
                list(members),
                kernel,
                n_worlds,
                seed,
                workers,
                list(observed_maxes),
                list(alphas),
                policy,
            )
        unique = list({id(member): member for member in members}.values())
        nulls = self._simulate_pass(
            kernel,
            unique,
            n_worlds,
            np.random.SeedSequence(seed),
            workers,
        )
        rows = {id(member): row for member, row in zip(unique, nulls)}
        return [rows[id(member)].copy() for member in members]

    def _simulate_pass(
        self,
        kernel: LLRKernel,
        members: list,
        n_worlds: int,
        parent: np.random.SeedSequence,
        workers: int | None,
    ) -> np.ndarray:
        """Simulate ``n_worlds`` worlds and score them against every
        design in ``members``: one row of per-world maxima per design.

        ``parent`` is a fixed pass's ``SeedSequence(seed)`` or one
        adaptive round's seed.  Each disjoint design runs its own
        region-level pass from an unspawned copy of ``parent``; the
        other designs share one stacked points pass whose chunks draw
        from ``parent.spawn``.  So every design sees the streams a solo
        run of it would, and the budget counts once.
        """
        self.worlds_simulated += n_worlds
        null_max = np.empty((len(members), n_worlds))
        points = []
        for i, member in enumerate(members):
            if not member.disjoint:
                points.append(i)
                continue
            fresh = np.random.SeedSequence(
                parent.entropy,
                spawn_key=parent.spawn_key,
                pool_size=parent.pool_size,
            )
            chunks = self.chunk_layout(len(member) + 1, n_worlds)
            null_max[i] = self._run_chunks(
                kernel, member, chunks, fresh.spawn(len(chunks)),
                n_worlds, workers, [(0, len(member))],
            )[0]
        if points:
            member, segments = self._fused_member(
                [members[i] for i in points]
            )
            chunks = self.chunk_layout(kernel.chunk_points, n_worlds)
            null_max[points] = self._run_chunks(
                kernel, member, chunks, parent.spawn(len(chunks)),
                n_worlds, workers, segments,
            )
        return null_max

    def _run_chunks(
        self,
        kernel: LLRKernel,
        member,
        chunks: list,
        seeds: list,
        n_worlds: int,
        workers: int | None,
        segments: list,
    ) -> np.ndarray:
        """Bind and execute one explicit (chunks, seeds) layout,
        returning the per-world maxima, one row per segment.

        Each chunk is simulated and counted on its own, serially or on
        a thread pool, and its counts take its column slice of its
        block's buffer.  The LLR and the per-segment maxima then run
        once per block (:func:`_blocks`).  The statistic is elementwise
        per world, so the blocking changes no value."""
        kernel.bind(member)
        n_threads = min(int(workers or 1), len(chunks), _usable_cores())
        null_max = np.empty((len(segments), n_worlds))
        threaded = n_threads >= 2
        job = partial(_count_chunk, kernel)
        with (
            ThreadPoolExecutor(max_workers=n_threads)
            if threaded
            else nullcontext()
        ) as pool:
            # Both maps yield in chunk order; pool.map re-raises the
            # first chunk error.
            run = pool.map if threaded else map
            for first, stop in _blocks(chunks, len(member)):
                parts = run(job, chunks[first:stop], seeds[first:stop])
                counts = tuple(
                    np.concatenate(arrays, axis=-1)
                    for arrays in zip(*parts)
                )
                start = chunks[first][0]
                width = counts[0].shape[-1]
                _write_maxima(
                    null_max, kernel.llr(counts), start, width, segments
                )
        return null_max

    def _adaptive_pass(
        self,
        members: list,
        kernel: LLRKernel,
        n_worlds: int,
        seed: int | None,
        workers: int | None,
        observed_maxes: list,
        alphas: list,
        policy: BudgetPolicy,
    ) -> list:
        """Progressive rounds with per-design sequential stopping.

        Each round simulates its worlds **once** (the world stream
        depends only on ``(kernel, seed, policy, n_worlds)`` — never
        on the stopping decisions or the worker count) and scores them
        against the stacked membership matrix of the designs still
        undecided.  After every round each active design's cumulative
        exceedance count feeds
        :func:`repro.budget.sequential_decision`; settled designs drop
        out of the stacked scoring.  A design that stopped after ``m``
        worlds gets back its first ``m`` maxima — the same values a
        solo adaptive run (or a fused one with different companions)
        would produce, bit for bit.
        """
        for obs_max in observed_maxes:
            if obs_max is None:
                raise ValueError(
                    "observed_max: adaptive budgets need the observed "
                    "scan maximum to decide stopping"
                )
        # Coerce into a fresh list: callers may pass their own list and
        # must get it back unchanged.
        observed_maxes = [float(x) for x in observed_maxes]
        sizes = round_sizes(policy, n_worlds)
        round_seeds = np.random.SeedSequence(seed).spawn(len(sizes))
        active = list(range(len(members)))
        collected: list = [[] for _ in members]
        exceed = [0] * len(members)
        total = 0
        for size, round_seed in zip(sizes, round_seeds):
            out = self._simulate_pass(
                kernel,
                [members[i] for i in active],
                size,
                round_seed,
                workers,
            )
            total += size
            still = []
            for row, idx in zip(out, active):
                collected[idx].append(row)
                exceed[idx] += int(
                    (row >= observed_maxes[idx] - _EXCEED_TOL).sum()
                )
                if total >= n_worlds:
                    continue
                decision = sequential_decision(
                    exceed[idx], total, alphas[idx], policy
                )
                if not decision.stop:
                    still.append(idx)
            active = still
            if not active:
                break
        return [np.concatenate(parts) for parts in collected]
